//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the benchmark's traced runs. Spans are
/// opened and closed around calls into the WARio libraries' public entry
/// points (never inside them), kept in memory, and written out at exit
/// as Chrome trace-event JSON. The benchmark drives every layer from one
/// thread, so spans nest strictly and a span's self time is its duration
/// minus the durations of its direct children.
///
/// Disabled by default: an untraced run records nothing, and Scope costs
/// one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p T0.
inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Span {
  const char *Name = "";
  /// Layer the span's self time is attributed to; nullptr for the
  /// benchmark's own spans (setup, phases, operations), whose self time
  /// is the unattributed remainder.
  const char *Layer = nullptr;
  int64_t StartNs = 0;
  int64_t EndNs = -1; ///< -1 while open.
  int32_t Parent = -1;
  uint64_t Op = 0; ///< Operation id (0 outside operations).
  /// Reconstructed from stage seconds a server reported, not timed here.
  bool Synthetic = false;
};

/// Per-layer attribution of a trace: every nanosecond of the traced wall
/// time lands in exactly one layer's self time or in Unattributed.
struct LayerSummary {
  double WallSeconds = 0;
  double UnattributedSeconds = 0;
  std::map<std::string, double> LayerSelf; ///< Layer -> self seconds.
  std::map<std::string, double> NameSelf;  ///< Span name -> self seconds.
};

class Tracer {
public:
  bool enabled() const { return On; }

  /// Starts recording; the traced wall time runs from here to stop().
  void start();
  void stop();

  int32_t open(const char *Name, const char *Layer);
  void close(int32_t Id);

  /// Appends a synthetic child of the innermost open span, \p Seconds
  /// long, laid out after the span's previous synthetic children and
  /// clamped to end no later than now.
  void addSynthetic(const char *Name, const char *Layer, double Seconds);

  /// Starts the next operation: spans opened from now on carry its id.
  void nextOp() { CurOp = ++LastOp; }
  /// Leaves operation scope (spans carry id 0).
  void clearOp() { CurOp = 0; }

  LayerSummary summarize() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, one
  /// process, one thread). False if the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

  size_t spanCount() const { return Spans.size(); }

private:
  int64_t nowNs() const;

  bool On = false;
  Clock::time_point Origin;
  int64_t StopNs = 0;
  uint64_t CurOp = 0;
  uint64_t LastOp = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  std::vector<int64_t> SyntheticCursor; ///< Parallel to Stack.
};

Tracer &tracer();

/// RAII span around one call; a no-op while the tracer is disabled.
class Scope {
public:
  Scope(const char *Name, const char *Layer = nullptr)
      : Id(tracer().enabled() ? tracer().open(Name, Layer) : -1) {}
  ~Scope() {
    if (Id >= 0)
      tracer().close(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
