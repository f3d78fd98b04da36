#include "serve/Server.h"

#include "support/ThreadPool.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace wario;
using namespace wario::serve;

namespace {

/// One accepted connection. The reader thread owns Fd's read side; any
/// thread may reply, serialized by WriteMutex (replies are written
/// atomically per frame, so pipelined responses never interleave).
/// Pending counts pool-scheduled requests not yet replied to; the reader
/// drains it to zero before closing the fd, so no task ever writes to a
/// closed (and possibly reused) descriptor.
struct Connection {
  int Fd = -1;
  std::mutex WriteMutex;
  std::thread Reader;
  std::mutex PendingMutex;
  std::condition_variable PendingCV;
  unsigned Pending = 0;

  void beginRequest() {
    std::lock_guard<std::mutex> Lock(PendingMutex);
    ++Pending;
  }
  void endRequest() {
    {
      std::lock_guard<std::mutex> Lock(PendingMutex);
      --Pending;
    }
    PendingCV.notify_all();
  }
  void drainRequests() {
    std::unique_lock<std::mutex> Lock(PendingMutex);
    PendingCV.wait(Lock, [this] { return Pending == 0; });
  }
};

} // namespace

struct Server::Impl {
  const ServerOptions Opts;
  StagedCache Cache;
  ThreadPool Pool;
  const bool Inline; ///< One-job pools run tasks only at wait(): go inline.

  int ListenFd = -1;
  std::thread Acceptor;
  std::atomic<bool> Stopping{false};
  bool Started = false;

  std::mutex ConnMutex;
  std::list<std::shared_ptr<Connection>> Conns;
  /// Thread handles of readers that already exited (a reader cannot
  /// destroy its own joinable std::thread); reaped on the next accept
  /// and at stop().
  std::list<std::thread> Graveyard;
  std::condition_variable ConnsEmptyCV; ///< Signaled as readers retire.

  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> ConnectionsAccepted{0};

  explicit Impl(ServerOptions O)
      : Opts(std::move(O)), Cache(CacheConfig{Opts.CacheBytes}),
        Pool(Opts.Jobs), Inline(Pool.jobCount() <= 1) {}

  bool start(std::string *Error) {
    auto Fail = [&](const std::string &Msg) {
      if (Error)
        *Error = Msg + ": " + std::strerror(errno);
      if (ListenFd >= 0) {
        ::close(ListenFd);
        ListenFd = -1;
      }
      return false;
    };
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
      if (Error)
        *Error = "socket path too long: " + Opts.SocketPath;
      return false;
    }
    std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Fail("socket");
    ::unlink(Opts.SocketPath.c_str()); // Stale path from a dead daemon.
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0)
      return Fail("bind " + Opts.SocketPath);
    if (::listen(ListenFd, 64) < 0)
      return Fail("listen");
    Started = true;
    Acceptor = std::thread([this] { acceptLoop(); });
    return true;
  }

  void acceptLoop() {
    for (;;) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        return; // Listen socket closed: shutting down.
      }
      if (Stopping.load()) {
        ::close(Fd);
        return;
      }
      ConnectionsAccepted.fetch_add(1);
      auto C = std::make_shared<Connection>();
      C->Fd = Fd;
      std::list<std::thread> Dead;
      {
        std::lock_guard<std::mutex> Lock(ConnMutex);
        Conns.push_back(C);
        Dead.splice(Dead.begin(), Graveyard);
        // Spawn under the lock: the reader's retirement block also takes
        // ConnMutex, so C->Reader is always assigned before the reader
        // can move it to the graveyard (a short-lived connection could
        // otherwise retire an empty handle and leak the real one).
        C->Reader = std::thread([this, C] { serveConnection(C); });
      }
      for (std::thread &T : Dead) // Reap finished readers off-lock.
        T.join();
    }
  }

  void reply(const std::shared_ptr<Connection> &C,
             const std::vector<uint8_t> &Frame) {
    std::lock_guard<std::mutex> Lock(C->WriteMutex);
    if (C->Fd >= 0)
      writeFrame(C->Fd, Frame); // Failure: reader sees the close, exits.
  }

  void handleRun(const std::shared_ptr<Connection> &C, uint64_t Id,
                 const RunRequestMsg &M) {
    Provenance Prov;
    std::shared_ptr<const RunResult> R =
        Cache.run({M.Tenant, M.Workload, M.PO, M.EO}, &Prov);
    // Count before replying: a client that has our reply in hand must
    // see itself reflected in an immediately-following stats request.
    RequestsServed.fetch_add(1);
    reply(C, encodeRunReply(Id, makeRunReply(*R, Prov)));
  }

  StatsReplyMsg statsNow() {
    StatsReplyMsg S;
    S.Counters = Cache.counters();
    S.RequestsServed = RequestsServed.load();
    S.ConnectionsAccepted = ConnectionsAccepted.load();
    return S;
  }

  void dispatch(const std::shared_ptr<Connection> &C, Frame F) {
    switch (F.Type) {
    case MsgType::Ping:
      reply(C, encodePong(F.Id));
      return;
    case MsgType::StatsRequest:
      reply(C, encodeStatsReply(F.Id, statsNow()));
      return;
    case MsgType::RunRequest: {
      std::optional<RunRequestMsg> M = decodeRunRequest(F.Body);
      if (!M) {
        reply(C, encodeErrorReply(F.Id, "undecodable RunRequest body"));
        return;
      }
      // The compile+emulate runs on the shared pool so one connection's
      // heavy misses don't block its own (or anyone's) later cache hits.
      if (Inline) {
        handleRun(C, F.Id, *M);
      } else {
        C->beginRequest();
        Pool.submit([this, C, Id = F.Id, Msg = std::move(*M)] {
          handleRun(C, Id, Msg);
          C->endRequest();
        });
      }
      return;
    }
    default:
      // A syntactically valid frame of a type only servers send.
      reply(C, encodeErrorReply(F.Id, "unexpected message type"));
      return;
    }
  }

  void serveConnection(std::shared_ptr<Connection> C) {
    std::vector<uint8_t> Payload;
    for (;;) {
      FrameReadStatus St = readFrame(C->Fd, Payload);
      if (St == FrameReadStatus::Ok) {
        if (std::optional<Frame> F = parseFrame(Payload)) {
          dispatch(C, std::move(*F));
          continue;
        }
        reply(C, encodeErrorReply(0, "malformed frame header"));
        break; // No resync point after corrupt framing.
      }
      if (St == FrameReadStatus::TooBig) {
        reply(C, encodeErrorReply(0, "frame exceeds 4 MiB limit"));
        break;
      }
      break; // Eof / Truncated / IoError: peer is gone.
    }
    // Wait for this connection's scheduled requests to finish replying,
    // then retire: close the fd (under the write mutex, so stop() never
    // shutdowns a recycled descriptor) and move the thread handle to the
    // graveyard (a thread cannot join itself).
    C->drainRequests();
    {
      std::lock_guard<std::mutex> Lock(C->WriteMutex);
      ::close(C->Fd);
      C->Fd = -1;
    }
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      for (auto It = Conns.begin(); It != Conns.end(); ++It)
        if (It->get() == C.get()) {
          Graveyard.push_back(std::move(C->Reader));
          Conns.erase(It);
          break;
        }
    }
    ConnsEmptyCV.notify_all();
  }

  void stop() {
    if (!Started)
      return;
    if (Stopping.exchange(true))
      return;
    // Close the listen socket: unblocks accept(), no new connections.
    ::shutdown(ListenFd, SHUT_RDWR);
    ::close(ListenFd);
    if (Acceptor.joinable())
      Acceptor.join();
    // Sever every live connection's socket so its reader drains out and
    // retires itself; then wait for the list to empty and reap the
    // handles. Joining via C->Reader directly would race the reader
    // moving its own handle into the graveyard.
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      for (const std::shared_ptr<Connection> &C : Conns) {
        std::lock_guard<std::mutex> WLock(C->WriteMutex);
        if (C->Fd >= 0)
          ::shutdown(C->Fd, SHUT_RDWR);
      }
    }
    std::list<std::thread> Dead;
    {
      std::unique_lock<std::mutex> Lock(ConnMutex);
      ConnsEmptyCV.wait(Lock, [this] { return Conns.empty(); });
      Dead.splice(Dead.begin(), Graveyard);
    }
    for (std::thread &T : Dead)
      T.join();
    Pool.wait(); // Belt: readers already drained their own requests.
    ::unlink(Opts.SocketPath.c_str());
    Started = false;
  }
};

Server::Server(ServerOptions Opts) : I(std::make_unique<Impl>(std::move(Opts))) {}
Server::~Server() { stop(); }

bool Server::start(std::string *Error) { return I->start(Error); }
void Server::stop() { I->stop(); }
const std::string &Server::socketPath() const { return I->Opts.SocketPath; }
StatsReplyMsg Server::stats() const { return I->statsNow(); }
