//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal concurrency layer for the experiment harness: a chunk-free
/// parallelFor, and job-count sizing from std::thread::hardware_concurrency
/// with a WARIO_JOBS environment override. Deliberately queue-free:
/// experiment cells are coarse (one full compile + emulation each), so an
/// atomic grab counter balances load with no task machinery.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SUPPORT_PARALLEL_H
#define WARIO_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace wario {

/// Number of worker threads to use: the WARIO_JOBS environment variable
/// when set to a positive integer, otherwise hardware_concurrency
/// (minimum 1).
unsigned defaultJobs();

/// Runs Body(0) .. Body(N-1) across \p Jobs threads (0 = defaultJobs()).
/// Starts min(Jobs, N) - 1 threads; they and the caller claim iterations
/// one at a time through an atomic counter, so coarse, unevenly-sized
/// iterations still balance. Blocks until all iterations complete. With
/// one job (or N <= 1) everything runs on the calling thread in index
/// order and no thread is started.
void parallelFor(size_t N, const std::function<void(size_t)> &Body,
                 unsigned Jobs = 0);

} // namespace wario

#endif // WARIO_SUPPORT_PARALLEL_H
