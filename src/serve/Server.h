//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-and-simulate service: a long-lived daemon accepting
/// framed requests (src/serve/Protocol.h) over a Unix-domain socket,
/// serving every connection from one shared multi-tenant StagedCache.
///
/// Threading model: one reader thread per connection parses each frame,
/// computes a run request itself and writes the reply, so a connection's
/// requests are answered one at a time, in arrival order. A single cap of
/// ServerOptions::Jobs permits, shared by every connection, bounds how
/// many requests compute at once; a request waiting for a permit holds no
/// other resource, and a permit is returned before the reply is written.
///
/// The cache is the tenancy boundary: requests carry a tenant namespace,
/// and identical options under two tenants occupy two entries. The cache
/// byte budget (ServerOptions::CacheBytes) caps its memory — artifacts
/// evict LRU-first; see src/serve/Cache.h.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SERVE_SERVER_H
#define WARIO_SERVE_SERVER_H

#include "serve/Protocol.h"

#include <memory>
#include <string>

namespace wario::serve {

struct ServerOptions {
  /// Filesystem path to bind (unlinked on start and on stop).
  std::string SocketPath;
  /// Cache byte budget (0 = unbounded).
  size_t CacheBytes = 0;
  /// At most this many requests compute at once, across all connections
  /// (0 = defaultJobs()). Starts no threads: readers compute.
  unsigned Jobs = 0;
};

/// The daemon core, embeddable in-process (the soak test runs it in the
/// test binary; tools/wario_served.cpp wraps it in a process).
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server(); ///< Calls stop().
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts the accept loop. False + \p Error on
  /// failure (e.g. the path is taken by a live daemon).
  bool start(std::string *Error = nullptr);

  /// Stops accepting, severs every connection, drains in-flight
  /// requests, and joins all threads. Idempotent.
  void stop();

  const std::string &socketPath() const;

  /// Service-level accounting (what a StatsRequest returns).
  StatsReplyMsg stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace wario::serve

#endif // WARIO_SERVE_SERVER_H
