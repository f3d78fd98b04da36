//===----------------------------------------------------------------------===//
///
/// \file
/// wario-loadgen: drives a wario-served daemon with N concurrent
/// connections issuing a deterministic mix of compile-and-simulate
/// requests, and reports throughput (requests/s) with p50/p99 latency.
///
///   wario_loadgen --socket PATH [options]     # against a live daemon
///   wario_loadgen --serve [options]           # self-contained: spins an
///                                             # in-process daemon first
///
/// The request mix is a pure function of the global request index, so a
/// run is reproducible regardless of thread interleaving: workloads,
/// environments, power schedules, and tenants all cycle on fixed
/// strides. Repeated indices are cache hits by design — a serving
/// daemon's steady state is mostly hits, and that is what a run
/// measures.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace wario;
using namespace wario::serve;

namespace {

struct LoadgenOptions {
  std::string SocketPath; ///< Empty with --serve: a temp path is chosen.
  bool Serve = false;     ///< Start an in-process daemon.
  unsigned Connections = 4;
  unsigned RequestsPerConnection = 32;
  std::vector<std::string> Workloads = {"crc", "sha", "dijkstra"};
  size_t CacheBytes = size_t(256) << 20; ///< --serve daemon's budget.
  /// --serve daemon's cap on requests computing at once.
  unsigned Jobs = 0;
};

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --serve) [options]\n"
      "  --socket PATH      connect to a running wario_served\n"
      "  --serve            start an in-process daemon on a temp socket\n"
      "  --connections N    concurrent client connections (default 4)\n"
      "  --requests N       requests per connection (default 32)\n"
      "  --workloads A,B,C  workload mix (default crc,sha,dijkstra)\n"
      "  --cache-bytes N    --serve daemon cache budget (default 256 MiB)\n"
      "  --jobs N           requests computing at once "
      "(0 = hardware default)\n",
      Argv0);
  std::exit(2);
}

uint64_t parseU64(const char *Argv0, const char *Flag, const char *Val) {
  char *End = nullptr;
  uint64_t N = std::strtoull(Val, &End, 10);
  if (!*Val || *End) {
    std::fprintf(stderr, "%s: %s wants a number, got '%s'\n", Argv0, Flag,
                 Val);
    std::exit(2);
  }
  return N;
}

std::vector<std::string> splitCsv(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

/// The deterministic mix: request \p Idx (global, across connections)
/// maps to one fixed configuration. Strides are coprime-ish so the cross
/// product gets covered without any one dimension aliasing another.
RunRequestMsg requestFor(const LoadgenOptions &Opts, uint64_t Idx) {
  static const Environment Envs[] = {Environment::PlainC, Environment::Ratchet,
                                     Environment::WarioComplete};
  RunRequestMsg M;
  M.Tenant = (Idx / 2) % 2 ? "tenant-b" : "tenant-a";
  M.Workload = Opts.Workloads[Idx % Opts.Workloads.size()];
  M.PO.Env = Envs[(Idx / 3) % (sizeof(Envs) / sizeof(Envs[0]))];
  // Every fifth request simulates intermittent power; the rest run on
  // continuous power (a serving mix is mostly quick verification runs).
  if (Idx % 5 == 4)
    M.EO.Power = PowerSchedule::fixed(2'000'000);
  return M;
}

struct WorkerResult {
  std::vector<double> LatencyMs;
  uint64_t Errors = 0; ///< Transport failures + Ok=false replies.
  std::string FirstError;
};

void runWorker(const LoadgenOptions &Opts, const std::string &Socket,
               unsigned ConnIdx, WorkerResult &Out) {
  Client C;
  std::string Error;
  if (!C.connect(Socket, &Error)) {
    Out.Errors = Opts.RequestsPerConnection;
    Out.FirstError = Error;
    return;
  }
  Out.LatencyMs.reserve(Opts.RequestsPerConnection);
  for (unsigned I = 0; I != Opts.RequestsPerConnection; ++I) {
    const uint64_t Idx =
        uint64_t(ConnIdx) * Opts.RequestsPerConnection + I;
    RunRequestMsg M = requestFor(Opts, Idx);
    RunReplyMsg Reply;
    auto T0 = std::chrono::steady_clock::now();
    bool Sent = C.run(M, Reply, &Error);
    auto T1 = std::chrono::steady_clock::now();
    if (!Sent || !Reply.Ok) {
      ++Out.Errors;
      if (Out.FirstError.empty())
        Out.FirstError = Sent ? Reply.Error : Error;
      if (!Sent)
        return; // Connection is dead; no point hammering it.
      continue;
    }
    Out.LatencyMs.push_back(
        std::chrono::duration<double, std::milli>(T1 - T0).count());
  }
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t I = static_cast<size_t>(P * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

} // namespace

int main(int argc, char **argv) {
  LoadgenOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(argv[0]);
      return argv[++I];
    };
    if (Arg == "--socket")
      Opts.SocketPath = Next();
    else if (Arg == "--serve")
      Opts.Serve = true;
    else if (Arg == "--connections")
      Opts.Connections =
          static_cast<unsigned>(parseU64(argv[0], "--connections", Next()));
    else if (Arg == "--requests")
      Opts.RequestsPerConnection =
          static_cast<unsigned>(parseU64(argv[0], "--requests", Next()));
    else if (Arg == "--workloads")
      Opts.Workloads = splitCsv(Next());
    else if (Arg == "--cache-bytes")
      Opts.CacheBytes = parseU64(argv[0], "--cache-bytes", Next());
    else if (Arg == "--jobs")
      Opts.Jobs = static_cast<unsigned>(parseU64(argv[0], "--jobs", Next()));
    else
      usage(argv[0]);
  }
  // --serve and --socket are mutually exclusive; one is required.
  if (Opts.Serve == !Opts.SocketPath.empty())
    usage(argv[0]);
  if (Opts.Connections == 0 || Opts.Workloads.empty())
    usage(argv[0]);

  std::unique_ptr<Server> Daemon;
  std::string Socket = Opts.SocketPath;
  if (Opts.Serve) {
    Socket = "/tmp/wario_loadgen_" + std::to_string(::getpid()) + ".sock";
    Daemon = std::make_unique<Server>(
        ServerOptions{Socket, Opts.CacheBytes, Opts.Jobs});
    std::string Error;
    if (!Daemon->start(&Error)) {
      std::fprintf(stderr, "wario_loadgen: %s\n", Error.c_str());
      return 1;
    }
  }

  std::vector<WorkerResult> Results(Opts.Connections);
  auto Wall0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Workers;
    Workers.reserve(Opts.Connections);
    for (unsigned I = 0; I != Opts.Connections; ++I)
      Workers.emplace_back(runWorker, std::cref(Opts), std::cref(Socket), I,
                           std::ref(Results[I]));
    for (std::thread &T : Workers)
      T.join();
  }
  double WallS = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Wall0)
                     .count();

  std::vector<double> Lat;
  uint64_t Errors = 0;
  std::string FirstError;
  for (const WorkerResult &R : Results) {
    Lat.insert(Lat.end(), R.LatencyMs.begin(), R.LatencyMs.end());
    Errors += R.Errors;
    if (FirstError.empty())
      FirstError = R.FirstError;
  }
  std::sort(Lat.begin(), Lat.end());
  const uint64_t Done = Lat.size();
  const double Rps = WallS > 0 ? double(Done) / WallS : 0;
  const double P50 = percentile(Lat, 0.50);
  const double P99 = percentile(Lat, 0.99);

  uint64_t Hits = 0, Misses = 0, Evictions = 0;
  if (Daemon) {
    StatsReplyMsg S = Daemon->stats();
    for (int L = 0; L != NumCacheLevels; ++L) {
      Hits += S.Counters.Hits[L];
      Misses += S.Counters.Misses[L];
      Evictions += S.Counters.Evictions[L];
    }
    Daemon->stop();
  } else {
    Client C;
    StatsReplyMsg S;
    if (C.connect(Socket) && C.stats(S)) {
      for (int L = 0; L != NumCacheLevels; ++L) {
        Hits += S.Counters.Hits[L];
        Misses += S.Counters.Misses[L];
        Evictions += S.Counters.Evictions[L];
      }
    }
  }

  std::printf("%llu requests over %u connections in %.2fs: %.1f req/s, "
              "p50 %.3f ms, p99 %.3f ms\n",
              static_cast<unsigned long long>(Done), Opts.Connections,
              WallS, Rps, P50, P99);
  std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Misses),
              static_cast<unsigned long long>(Evictions));
  if (Errors) {
    std::fprintf(stderr, "wario_loadgen: %llu request(s) failed: %s\n",
                 static_cast<unsigned long long>(Errors), FirstError.c_str());
    return 1;
  }
  return 0;
}
