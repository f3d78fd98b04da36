//===----------------------------------------------------------------------===//
///
/// \file
/// Power schedules for intermittent execution (paper Section 5.1.4):
/// continuous power, fixed on-period patterns, and synthetic energy-
/// harvester traces standing in for the Mementos RF traces (which are not
/// redistributable here; see DESIGN.md for the substitution rationale).
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_EMU_POWERTRACE_H
#define WARIO_EMU_POWERTRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace wario {

/// Deterministic xorshift32: the synthetic harvester traces and the
/// fault injector's stratified crash points draw from it, so both are
/// reproducible from their seed alone.
struct XorShift32 {
  uint32_t State;
  /// Zero is the generator's one fixed point, so a zero seed starts at 1.
  explicit XorShift32(uint32_t Seed) : State(Seed ? Seed : 1) {}
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State;
  }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }
};

/// Decides how long each boot's on-period lasts, in CPU cycles.
class PowerSchedule {
public:
  /// Continuous power: never fails.
  static PowerSchedule continuous() { return PowerSchedule(); }

  /// Fixed on-period of \p Cycles per boot.
  static PowerSchedule fixed(uint64_t Cycles) {
    PowerSchedule P;
    P.Period = Cycles;
    return P;
  }

  /// Trace-driven: on-periods cycle through \p Durations.
  static PowerSchedule trace(std::vector<uint64_t> Durations,
                             std::string Name = "trace") {
    PowerSchedule P;
    P.Durations = std::move(Durations);
    P.TraceName = std::move(Name);
    return P;
  }

  bool isContinuous() const { return Period == 0 && Durations.empty(); }

  /// On-period of the \p Boot-th power-up (0-based). UINT64_MAX when
  /// continuous.
  uint64_t onDuration(unsigned Boot) const {
    if (isContinuous())
      return UINT64_MAX;
    if (!Durations.empty())
      return Durations[Boot % Durations.size()];
    return Period;
  }

  const std::string &name() const { return TraceName; }

  /// Wire-format accessors (src/serve's framed protocol serializes
  /// schedules field-by-field and must reconstruct them exactly).
  uint64_t fixedPeriod() const { return Period; }
  const std::vector<uint64_t> &traceDurations() const { return Durations; }

  /// Schedules are ordered/compared by their full configuration so caches
  /// can key on them (bench/Harness.cpp derives cache keys from option
  /// fields rather than caller-provided tags).
  auto operator<=>(const PowerSchedule &) const = default;

private:
  PowerSchedule() = default;
  uint64_t Period = 0;
  std::vector<uint64_t> Durations;
  std::string TraceName = "fixed";
};

/// Synthetic RF-harvester trace "alpha": bursty — many short on-periods
/// with occasional long charges, as seen in the Mementos RFID traces.
/// Deterministic (seeded xorshift).
PowerSchedule harvesterTraceAlpha(unsigned Periods = 4096);

/// Synthetic harvester trace "beta": quasi-periodic with jitter, as from
/// a rotating/vibration source.
PowerSchedule harvesterTraceBeta(unsigned Periods = 4096);

} // namespace wario

#endif // WARIO_EMU_POWERTRACE_H
