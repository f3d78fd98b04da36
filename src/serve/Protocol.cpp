#include "serve/Protocol.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <concepts>
#include <cstring>
#include <type_traits>
#include <sys/socket.h>
#include <unistd.h>

using namespace wario;
using namespace wario::serve;

namespace {

constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

/// FnvPrime^K mod 2^64 for K = 0..8: fnv1aU64s's one multiply for a
/// value's last significant byte and the zero bytes above it.
constexpr std::array<uint64_t, 9> FnvPrimePows = [] {
  std::array<uint64_t, 9> P{};
  P[0] = 1;
  for (size_t K = 1; K != P.size(); ++K)
    P[K] = P[K - 1] * FnvPrime;
  return P;
}();

/// FnvPrime^N mod 2^64.
uint64_t fnvPrimePow(size_t N) {
  uint64_t R = 1;
  for (uint64_t B = FnvPrime; N != 0; N >>= 1, B *= B)
    if (N & 1)
      R *= B;
  return R;
}

/// True iff the N bytes at \p P are all zero (N a multiple of 8). The
/// words are OR-ed, not tested one by one, so a 64-byte block is one
/// branch.
template <size_t N> bool allZero(const uint8_t *P) {
  uint64_t Or = 0;
  for (size_t I = 0; I != N; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    Or |= W;
  }
  return Or == 0;
}

} // namespace

uint64_t wario::serve::fnv1a(const uint8_t *Data, size_t Size) {
  // A zero byte leaves H ^ 0 == H, so FNV-1a over a run of N zeros is a
  // single multiply by FnvPrime^N. Final NVM images are a few KiB of
  // data in 1 MiB of zeros, so skipping the runs 64 bytes at a time
  // (then a word, then a byte at a time up to the run's end) makes the
  // hash cost the scan, not a multiply per byte.
  uint64_t H = FnvOffset;
  size_t I = 0;
  while (I != Size) {
    if (Data[I] != 0) {
      H = (H ^ Data[I]) * FnvPrime;
      ++I;
      continue;
    }
    size_t J = I + 1;
    while (J + 64 <= Size && allZero<64>(Data + J))
      J += 64;
    while (J + 8 <= Size && allZero<8>(Data + J))
      J += 8;
    while (J != Size && Data[J] == 0)
      ++J;
    H *= fnvPrimePow(J - I);
    I = J;
  }
  return H;
}

uint64_t wario::serve::fnv1aU64s(const std::vector<uint64_t> &Vals) {
  // Each value hashes as its eight little-endian bytes, so its high zero
  // bytes come last: after the first N - 1 of its N significant bytes
  // (N >= 1; a zero value counts its low byte), the last one's multiply
  // and the 8 - N zero bytes' fold into one multiply by
  // FnvPrime^(9 - N). Region sizes almost all fit in one byte, so a
  // value costs one multiply instead of eight.
  uint64_t H = FnvOffset;
  for (uint64_t V : Vals) {
    const unsigned N = std::max(1u, (unsigned(std::bit_width(V)) + 7) / 8);
    for (unsigned B = 0; B + 1 != N; ++B)
      H = (H ^ uint8_t(V >> (8 * B))) * FnvPrime;
    H = (H ^ uint8_t(V >> (8 * (N - 1)))) * FnvPrimePows[9 - N];
  }
  return H;
}

RunReplyMsg wario::serve::makeRunReply(const RunResult &R, Provenance Prov) {
  RunReplyMsg M;
  M.Ok = R.Error.empty();
  M.Error = R.Error;
  M.ReturnValue = R.Emu.ReturnValue;
  M.Output = R.Emu.Output;
  M.TotalCycles = R.Emu.TotalCycles;
  M.InstructionsExecuted = R.Emu.InstructionsExecuted;
  M.CheckpointsExecuted = R.Emu.CheckpointsExecuted;
  M.CauseMiddleEndWar = R.Emu.Causes.MiddleEndWar;
  M.CauseBackendSpill = R.Emu.Causes.BackendSpill;
  M.CauseFunctionEntry = R.Emu.Causes.FunctionEntry;
  M.CauseFunctionExit = R.Emu.Causes.FunctionExit;
  M.PowerFailures = R.Emu.PowerFailures;
  M.InterruptsTaken = R.Emu.InterruptsTaken;
  M.WarViolations = R.Emu.WarViolations;
  M.TextBytes = R.TextBytes;
  M.MemHash = R.MemHash;
  M.RegionCount = R.Emu.RegionSizes.size();
  M.RegionHash = R.RegionHash;
  // R carries the seconds of whichever request computed each stage; the
  // stages this request was answered from cache for cost it nothing.
  PipelineStats Spent = computedStages(R.Pipeline, Prov);
  M.FrontendSeconds = Spent.FrontendSeconds;
  M.FrontHalfSeconds = Spent.FrontHalfSeconds;
  M.MiddleEndSeconds = Spent.MiddleEndSeconds;
  M.BackendSeconds = Spent.BackendSeconds;
  M.EmulateSeconds = Spent.EmulateSeconds;
  M.ProvenanceBits = Prov.bits();
  return M;
}

//===----------------------------------------------------------------------===//
// Byte readers/writers
//===----------------------------------------------------------------------===//

namespace {

/// The last value of each enum on the wire: a byte past it fails the
/// decode. An enum field without an overload here does not compile.
constexpr uint8_t lastValue(Environment) {
  return uint8_t(Environment::WarioExpander);
}
constexpr uint8_t lastValue(CheckpointStrategy) {
  return uint8_t(CheckpointStrategy::Speculative);
}

/// Appends fields in wire form: W(A, B) writes A, then B.
struct Writer {
  std::vector<uint8_t> Buf;

  template <class... Ts> void operator()(const Ts &...Vs) { (put(Vs), ...); }

  template <std::integral T> void put(T V) { // A bool is one byte.
    for (size_t B = 0; B != sizeof(T); ++B)
      Buf.push_back(uint8_t(uint64_t(V) >> (8 * B)));
  }
  template <class E>
    requires std::is_enum_v<E>
  void put(E V) {
    put(uint8_t(V));
  }
  void put(double V) { put(std::bit_cast<uint64_t>(V)); }
  void put(const std::string &S) {
    put(uint32_t(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  template <std::integral T> void put(const std::vector<T> &V) {
    put(uint32_t(V.size()));
    for (const T &X : V)
      put(X);
  }
  template <class T, size_t N> void put(const T (&A)[N]) {
    for (const T &X : A)
      put(X);
  }
  void put(const PowerSchedule &P) {
    (*this)(P.fixedPeriod(), P.traceDurations(), P.name());
  }
};

/// Fills fields from wire form: R(A, B) reads A, then B. Every read is
/// bounds-checked; the first one that fails latches Failed and later
/// reads consume nothing, so a decoder reads its whole field list and
/// checks once (done()).
struct Reader {
  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;

  explicit Reader(const std::vector<uint8_t> &B)
      : P(B.data()), End(B.data() + B.size()) {}

  template <class... Ts> void operator()(Ts &...Vs) { (get(Vs), ...); }

  bool take(size_t N) {
    if (Failed || size_t(End - P) < N) {
      Failed = true;
      return false;
    }
    return true;
  }
  template <std::integral T> void get(T &V) {
    if (!take(sizeof(T)))
      return;
    uint64_t X = 0;
    for (size_t B = 0; B != sizeof(T); ++B)
      X |= uint64_t(*P++) << (8 * B);
    V = T(X);
  }
  /// One byte of at most \p Last; a larger one fails the decode.
  uint8_t byteUpTo(uint8_t Last) {
    uint8_t X = 0;
    get(X);
    if (X > Last)
      Failed = true;
    return Failed ? 0 : X;
  }
  void get(bool &V) { V = byteUpTo(1) != 0; }
  template <class E>
    requires std::is_enum_v<E>
  void get(E &V) {
    V = E(byteUpTo(lastValue(E{})));
  }
  void get(double &V) {
    uint64_t X = 0;
    get(X);
    V = std::bit_cast<double>(X);
  }
  void get(std::string &S) {
    uint32_t N = 0;
    get(N);
    if (!take(N))
      return;
    S.assign(reinterpret_cast<const char *>(P), N);
    P += N;
  }
  template <std::integral T> void get(std::vector<T> &V) {
    uint32_t N = 0;
    get(N);
    // The count is checked against the remaining bytes before
    // allocating: a forged count must not trigger a huge allocation.
    if (!take(size_t(N) * sizeof(T)))
      return;
    V.resize(N);
    for (T &X : V)
      get(X);
  }
  template <class T, size_t N> void get(T (&A)[N]) {
    for (T &X : A)
      get(X);
  }
  /// Rebuilds a schedule exactly (every state the factories can build
  /// round-trips: fixed() always names itself "fixed", and
  /// trace({}, "fixed") is bitwise the continuous schedule).
  void get(PowerSchedule &Power) {
    uint64_t Period = 0;
    std::vector<uint64_t> Durations;
    std::string Name;
    (*this)(Period, Durations, Name);
    if (!Durations.empty())
      Power = PowerSchedule::trace(std::move(Durations), std::move(Name));
    else if (Period != 0)
      Power = PowerSchedule::fixed(Period);
    else
      Power = Name == "fixed" ? PowerSchedule::continuous()
                              : PowerSchedule::trace({}, std::move(Name));
  }
  bool done() const { return !Failed && P == End; }
};

//===----------------------------------------------------------------------===//
// Message layouts
//===----------------------------------------------------------------------===//

/// \p M is the message type \p T or its const form: the encoder lists a
/// const message's fields, the decoder a mutable one's.
template <class M, class T>
concept MsgOf = std::same_as<std::remove_const_t<M>, T>;

// Each message's fields in wire order: the one layout its encoder
// (IO = Writer) and its decoder (IO = Reader) share.

template <class IO, MsgOf<RunRequestMsg> M> void fields(IO &F, M &R) {
  F(R.Tenant, R.Workload, R.PO.Env, R.PO.Strat, R.PO.UnrollFactor,
    R.PO.MiddleEndHittingSet, R.PO.DepthWeightedCost,
    R.PO.ForceConservativeAA, R.PO.BoundRegions, R.PO.ResolveMiddleEndWars,
    R.PO.DiffFullRollback, R.PO.SpecLogWars, R.PO.MaxRegionCycles,
    R.EO.Power, R.EO.InterruptPeriod, R.EO.MaxCycles, R.EO.MaxStalledBoots,
    R.EO.CollectRegionSizes, R.EO.WarIsFatal);
}

template <class IO, MsgOf<RunReplyMsg> M> void fields(IO &F, M &R) {
  F(R.Ok, R.Error, R.ReturnValue, R.Output, R.TotalCycles,
    R.InstructionsExecuted, R.CheckpointsExecuted, R.CauseMiddleEndWar,
    R.CauseBackendSpill, R.CauseFunctionEntry, R.CauseFunctionExit,
    R.PowerFailures, R.InterruptsTaken, R.WarViolations, R.TextBytes,
    R.MemHash, R.RegionCount, R.RegionHash, R.FrontendSeconds,
    R.FrontHalfSeconds, R.MiddleEndSeconds, R.BackendSeconds,
    R.EmulateSeconds, R.ProvenanceBits);
}

template <class IO, MsgOf<StatsReplyMsg> M> void fields(IO &F, M &S) {
  F(S.Counters.Hits, S.Counters.Misses, S.Counters.Evictions,
    S.Counters.BytesUsed, S.Counters.ByteBudget, S.Counters.BytesEvicted,
    S.Counters.Entries, S.RequestsServed, S.ConnectionsAccepted);
}

/// An ErrorReply's body is its message alone.
template <class IO, MsgOf<std::string> M> void fields(IO &F, M &Text) {
  F(Text);
}

std::vector<uint8_t> finishFrame(MsgType Type, uint64_t Id,
                                 const Writer &Body) {
  Writer F;
  // The length counts the version, type and id bytes too.
  F(uint32_t(Body.Buf.size() + 10), ProtocolVersion, Type, Id);
  F.Buf.insert(F.Buf.end(), Body.Buf.begin(), Body.Buf.end());
  return std::move(F.Buf);
}

template <class M>
std::vector<uint8_t> encodeMsg(MsgType Type, uint64_t Id, const M &Msg) {
  Writer W;
  fields(W, Msg);
  return finishFrame(Type, Id, W);
}

/// \p Body decoded as an \p M, or nullopt unless its fields consume it
/// exactly.
template <class M>
std::optional<M> decodeMsg(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  M Msg;
  fields(R, Msg);
  if (!R.done())
    return std::nullopt;
  return Msg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Message codecs
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wario::serve::encodeRunRequest(uint64_t Id,
                                                    const RunRequestMsg &M) {
  return encodeMsg(MsgType::RunRequest, Id, M);
}

std::optional<RunRequestMsg>
wario::serve::decodeRunRequest(const std::vector<uint8_t> &Body) {
  return decodeMsg<RunRequestMsg>(Body);
}

std::vector<uint8_t> wario::serve::encodeRunReply(uint64_t Id,
                                                  const RunReplyMsg &M) {
  return encodeMsg(MsgType::RunReply, Id, M);
}

std::optional<RunReplyMsg>
wario::serve::decodeRunReply(const std::vector<uint8_t> &Body) {
  return decodeMsg<RunReplyMsg>(Body);
}

std::vector<uint8_t> wario::serve::encodeStatsRequest(uint64_t Id) {
  return finishFrame(MsgType::StatsRequest, Id, Writer{});
}

std::vector<uint8_t> wario::serve::encodeStatsReply(uint64_t Id,
                                                    const StatsReplyMsg &M) {
  return encodeMsg(MsgType::StatsReply, Id, M);
}

std::optional<StatsReplyMsg>
wario::serve::decodeStatsReply(const std::vector<uint8_t> &Body) {
  return decodeMsg<StatsReplyMsg>(Body);
}

std::vector<uint8_t> wario::serve::encodeErrorReply(uint64_t Id,
                                                    const std::string &Msg) {
  return encodeMsg(MsgType::ErrorReply, Id, Msg);
}

std::optional<std::string>
wario::serve::decodeErrorReply(const std::vector<uint8_t> &Body) {
  return decodeMsg<std::string>(Body);
}

std::vector<uint8_t> wario::serve::encodePing(uint64_t Id) {
  return finishFrame(MsgType::Ping, Id, Writer{});
}

std::vector<uint8_t> wario::serve::encodePong(uint64_t Id) {
  return finishFrame(MsgType::Pong, Id, Writer{});
}

std::optional<Frame>
wario::serve::parseFrame(const std::vector<uint8_t> &Payload) {
  Reader R(Payload);
  uint8_t Version = 0, Type = 0;
  uint64_t Id = 0;
  R(Version, Type, Id);
  if (R.Failed || Version != ProtocolVersion)
    return std::nullopt;
  if (Type < uint8_t(MsgType::RunRequest) || Type > uint8_t(MsgType::Pong))
    return std::nullopt;
  Frame F;
  F.Type = MsgType(Type);
  F.Id = Id;
  F.Body.assign(R.P, R.End);
  return F;
}

//===----------------------------------------------------------------------===//
// Socket I/O
//===----------------------------------------------------------------------===//

namespace {

enum class FullRead { Ok, CleanEof, MidEof, Error };

/// Reads exactly \p N bytes, distinguishing a clean close before the
/// first byte from a close mid-read.
FullRead readFull(int Fd, uint8_t *Buf, size_t N) {
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R == 0)
      return Got == 0 ? FullRead::CleanEof : FullRead::MidEof;
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return FullRead::Error;
    }
    Got += size_t(R);
  }
  return FullRead::Ok;
}

} // namespace

FrameReadStatus wario::serve::readFrame(int Fd,
                                        std::vector<uint8_t> &Payload) {
  uint8_t LenBuf[4];
  switch (readFull(Fd, LenBuf, 4)) {
  case FullRead::Ok: break;
  case FullRead::CleanEof: return FrameReadStatus::Eof;
  case FullRead::MidEof: return FrameReadStatus::Truncated;
  case FullRead::Error: return FrameReadStatus::IoError;
  }
  uint32_t Len = uint32_t(LenBuf[0]) | uint32_t(LenBuf[1]) << 8 |
                 uint32_t(LenBuf[2]) << 16 | uint32_t(LenBuf[3]) << 24;
  if (Len > MaxFrameBytes)
    return FrameReadStatus::TooBig;
  Payload.resize(Len);
  if (Len == 0)
    return FrameReadStatus::Ok;
  switch (readFull(Fd, Payload.data(), Len)) {
  case FullRead::Ok: return FrameReadStatus::Ok;
  case FullRead::CleanEof:
  case FullRead::MidEof: return FrameReadStatus::Truncated;
  case FullRead::Error: return FrameReadStatus::IoError;
  }
  return FrameReadStatus::IoError;
}

bool wario::serve::writeFrame(int Fd, const std::vector<uint8_t> &Frame) {
  size_t Sent = 0;
  while (Sent < Frame.size()) {
    ssize_t W = ::send(Fd, Frame.data() + Sent, Frame.size() - Sent,
                       MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += size_t(W);
  }
  return true;
}
