//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor's contract (src/support/Parallel.h): every index runs
/// exactly once, no more than min(Jobs, N) threads ever run the body, and
/// one job is a plain loop on the calling thread in index order, which
/// Jobs = 0 selects under WARIO_JOBS=1. Labeled `tsan`, so a
/// WARIO_SANITIZE=thread build races the atomic-counter drain and the
/// joins that publish the body's writes to the caller.
///
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace wario;

namespace {

const size_t Sizes[] = {0, 1, 2, 3, 64, 1000};
const unsigned JobCounts[] = {1, 2, 3, 8};

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (size_t N : Sizes)
    for (unsigned Jobs : JobCounts) {
      std::vector<std::atomic<unsigned>> Runs(N);
      parallelFor(
          N, [&](size_t I) { Runs[I].fetch_add(1); }, Jobs);
      for (size_t I = 0; I != N; ++I)
        ASSERT_EQ(Runs[I].load(), 1u)
            << "index " << I << " of N = " << N << ", Jobs = " << Jobs;
    }
}

TEST(ParallelForTest, AtMostMinJobsNThreadsRunTheBody) {
  for (size_t N : Sizes)
    for (unsigned Jobs : JobCounts) {
      std::mutex M;
      std::set<std::thread::id> Threads;
      parallelFor(
          N,
          [&](size_t) {
            {
              std::lock_guard<std::mutex> Lock(M);
              Threads.insert(std::this_thread::get_id());
            }
            // Long enough that every started thread claims an index, so
            // one thread too many shows.
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          },
          Jobs);
      EXPECT_LE(Threads.size(), std::min<size_t>(Jobs, N))
          << "N = " << N << ", Jobs = " << Jobs;
    }
}

/// Runs parallelFor over 64 indices and returns the order in which they
/// ran, or nullopt if any ran off the calling thread.
std::optional<std::vector<size_t>> callerOrder(unsigned Jobs) {
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  std::atomic<bool> OffCaller{false};
  parallelFor(
      64,
      [&](size_t I) {
        if (std::this_thread::get_id() != Caller)
          OffCaller = true;
        else
          Order.push_back(I);
      },
      Jobs);
  if (OffCaller)
    return std::nullopt;
  return Order;
}

TEST(ParallelForTest, OneJobRunsInOrderOnTheCaller) {
  std::vector<size_t> Expected(64);
  for (size_t I = 0; I != Expected.size(); ++I)
    Expected[I] = I;
  EXPECT_EQ(callerOrder(1), Expected);

  // Jobs = 0 sizes itself by defaultJobs(), which WARIO_JOBS overrides.
  const char *Env = std::getenv("WARIO_JOBS");
  const bool HadEnv = Env != nullptr;
  const std::string Saved = HadEnv ? Env : "";
  setenv("WARIO_JOBS", "1", 1);
  EXPECT_EQ(defaultJobs(), 1u);
  EXPECT_EQ(callerOrder(0), Expected);
  if (HadEnv)
    setenv("WARIO_JOBS", Saved.c_str(), 1);
  else
    unsetenv("WARIO_JOBS");
}

} // namespace
