#include "emu/PowerTrace.h"

using namespace wario;

PowerSchedule wario::harvesterTraceAlpha(unsigned Periods) {
  XorShift32 Rng(0xA11CE5);
  std::vector<uint64_t> D;
  D.reserve(Periods);
  for (unsigned I = 0; I != Periods; ++I) {
    // 85% short bursts (50k-400k cycles), 15% long charges (1M-6M).
    if (Rng.next() % 100 < 85)
      D.push_back(Rng.range(50'000, 400'000));
    else
      D.push_back(Rng.range(1'000'000, 6'000'000));
  }
  return PowerSchedule::trace(std::move(D), "alpha");
}

PowerSchedule wario::harvesterTraceBeta(unsigned Periods) {
  XorShift32 Rng(0xBEE5);
  std::vector<uint64_t> D;
  D.reserve(Periods);
  for (unsigned I = 0; I != Periods; ++I) {
    // Quasi-periodic around 2.5M cycles with +-40% jitter.
    uint64_t Base = 2'500'000;
    uint64_t Jitter = Rng.range(0, Base * 4 / 5);
    D.push_back(Base * 3 / 5 + Jitter);
  }
  return PowerSchedule::trace(std::move(D), "beta");
}
