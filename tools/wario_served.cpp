//===----------------------------------------------------------------------===//
///
/// \file
/// wario-served: the compile-and-simulate daemon. Binds a Unix-domain
/// socket and serves framed requests (src/serve/Protocol.h) from one
/// shared multi-tenant cache until SIGINT/SIGTERM.
///
///   wario_served --socket /tmp/wario.sock [--cache-bytes N] [--jobs N]
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace wario::serve;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--cache-bytes N] [--jobs N]\n"
               "  --socket PATH     Unix-domain socket path to bind\n"
               "  --cache-bytes N   shared cache byte budget (0 = unbounded)\n"
               "  --jobs N          requests computing at once "
               "(0 = hardware default)\n",
               Argv0);
  std::exit(2);
}

/// Parses \p Val as a decimal count of at most \p Max. A sign, an
/// overflow or a larger value exits with status 2, naming \p Flag.
uint64_t parseU64(const char *Argv0, const char *Flag, const char *Val,
                  uint64_t Max) {
  char *End = nullptr;
  errno = 0;
  uint64_t N = std::strtoull(Val, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(*Val)) || *End ||
      errno == ERANGE || N > Max) {
    std::fprintf(stderr, "%s: %s wants a number from 0 to %llu, got '%s'\n",
                 Argv0, Flag, static_cast<unsigned long long>(Max), Val);
    std::exit(2);
  }
  return N;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(argv[0]);
      return argv[++I];
    };
    if (Arg == "--socket")
      Opts.SocketPath = Next();
    else if (Arg == "--cache-bytes")
      Opts.CacheBytes = parseU64(argv[0], "--cache-bytes", Next(), SIZE_MAX);
    else if (Arg == "--jobs")
      Opts.Jobs = unsigned(parseU64(argv[0], "--jobs", Next(), UINT32_MAX));
    else
      usage(argv[0]);
  }
  if (Opts.SocketPath.empty())
    usage(argv[0]);

  // Block the shutdown signals in every thread the server spawns, then
  // sigwait for them here: no async-signal-safety contortions needed.
  sigset_t Sigs;
  sigemptyset(&Sigs);
  sigaddset(&Sigs, SIGINT);
  sigaddset(&Sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Sigs, nullptr);

  Server S(Opts);
  std::string Error;
  if (!S.start(&Error)) {
    std::fprintf(stderr, "wario_served: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "wario_served: listening on %s (cache %zu bytes)\n",
               S.socketPath().c_str(), Opts.CacheBytes);

  int Sig = 0;
  sigwait(&Sigs, &Sig);
  std::fprintf(stderr, "wario_served: %s, draining\n", strsignal(Sig));
  S.stop();

  StatsReplyMsg Stats = S.stats();
  std::fprintf(stderr,
               "wario_served: served %llu requests over %llu connections\n",
               static_cast<unsigned long long>(Stats.RequestsServed),
               static_cast<unsigned long long>(Stats.ConnectionsAccepted));
  return 0;
}
