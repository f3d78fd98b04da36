#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace wario;

unsigned wario::defaultJobs() {
  if (const char *Env = std::getenv("WARIO_JOBS")) {
    char *End = nullptr;
    long V = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0' && V > 0)
      return unsigned(V);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

void wario::parallelFor(size_t N, const std::function<void(size_t)> &Body,
                        unsigned Jobs) {
  size_t J = std::min<size_t>(Jobs ? Jobs : defaultJobs(), N);
  if (J <= 1) {
    for (size_t I = 0; I != N; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  auto Drain = [&] {
    for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1))
      Body(I);
  };
  std::vector<std::thread> Workers;
  Workers.reserve(J - 1);
  for (size_t W = 1; W != J; ++W)
    Workers.emplace_back(Drain);
  Drain(); // The caller is worker 0.
  for (std::thread &T : Workers)
    T.join();
}
