#include "serve/Protocol.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
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

struct Writer {
  std::vector<uint8_t> Buf;

  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int B = 0; B != 4; ++B)
      Buf.push_back(uint8_t(V >> (8 * B)));
  }
  void u64(uint64_t V) {
    for (int B = 0; B != 8; ++B)
      Buf.push_back(uint8_t(V >> (8 * B)));
  }
  void i32(int32_t V) { u32(uint32_t(V)); }
  void f64(double V) { u64(std::bit_cast<uint64_t>(V)); }
  void str(const std::string &S) {
    u32(uint32_t(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  void vecU64(const std::vector<uint64_t> &V) {
    u32(uint32_t(V.size()));
    for (uint64_t X : V)
      u64(X);
  }
  void vecI32(const std::vector<int32_t> &V) {
    u32(uint32_t(V.size()));
    for (int32_t X : V)
      i32(X);
  }
};

/// Bounds-checked cursor: every read clamps to the buffer; the first
/// out-of-range read latches Failed and every later read returns zero
/// values, so decoders can read straight through and check once.
struct Reader {
  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;

  explicit Reader(const std::vector<uint8_t> &B)
      : P(B.data()), End(B.data() + B.size()) {}

  bool take(size_t N) {
    if (Failed || size_t(End - P) < N) {
      Failed = true;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!take(1))
      return 0;
    return *P++;
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int B = 0; B != 4; ++B)
      V |= uint32_t(*P++) << (8 * B);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int B = 0; B != 8; ++B)
      V |= uint64_t(*P++) << (8 * B);
    return V;
  }
  int32_t i32() { return int32_t(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    uint32_t N = u32();
    if (!take(N))
      return {};
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }
  std::vector<uint64_t> vecU64() {
    uint32_t N = u32();
    // Element count is validated against the remaining bytes before
    // allocating: a forged count must not trigger a huge allocation.
    if (!take(size_t(N) * 8))
      return {};
    std::vector<uint64_t> V(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint64_t X = 0;
      for (int B = 0; B != 8; ++B)
        X |= uint64_t(*P++) << (8 * B);
      V[I] = X;
    }
    return V;
  }
  std::vector<int32_t> vecI32() {
    uint32_t N = u32();
    if (!take(size_t(N) * 4))
      return {};
    std::vector<int32_t> V(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t X = 0;
      for (int B = 0; B != 4; ++B)
        X |= uint32_t(*P++) << (8 * B);
      V[I] = int32_t(X);
    }
    return V;
  }
  bool done() const { return !Failed && P == End; }
};

std::vector<uint8_t> finishFrame(MsgType T, uint64_t Id, Writer Body) {
  Writer F;
  F.u32(uint32_t(Body.Buf.size() + 10)); // version + type + id.
  F.u8(ProtocolVersion);
  F.u8(uint8_t(T));
  F.u64(Id);
  F.Buf.insert(F.Buf.end(), Body.Buf.begin(), Body.Buf.end());
  return std::move(F.Buf);
}

void putPower(Writer &W, const PowerSchedule &P) {
  W.u64(P.fixedPeriod());
  W.vecU64(P.traceDurations());
  W.str(P.name());
}

/// Reconstructs a schedule exactly (every state the factories can build
/// round-trips: fixed() always names itself "fixed", and trace({}, "fixed")
/// is bitwise the continuous schedule).
PowerSchedule getPower(Reader &R) {
  uint64_t Period = R.u64();
  std::vector<uint64_t> Durations = R.vecU64();
  std::string Name = R.str();
  if (!Durations.empty())
    return PowerSchedule::trace(std::move(Durations), std::move(Name));
  if (Period != 0)
    return PowerSchedule::fixed(Period);
  return Name == "fixed" ? PowerSchedule::continuous()
                         : PowerSchedule::trace({}, std::move(Name));
}

} // namespace

//===----------------------------------------------------------------------===//
// Message codecs
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wario::serve::encodeRunRequest(uint64_t Id,
                                                    const RunRequestMsg &M) {
  Writer W;
  W.str(M.Tenant);
  W.str(M.Workload);
  W.u8(uint8_t(M.PO.Env));
  W.u8(uint8_t(M.PO.Strat));
  W.u32(M.PO.UnrollFactor);
  W.u8(uint8_t(M.PO.MiddleEndHittingSet) |
       uint8_t(M.PO.DepthWeightedCost) << 1 |
       uint8_t(M.PO.ForceConservativeAA) << 2 |
       uint8_t(M.PO.BoundRegions) << 3 |
       uint8_t(M.PO.ResolveMiddleEndWars) << 4 |
       uint8_t(M.PO.DiffFullRollback) << 5 |
       uint8_t(M.PO.SpecLogWars) << 6);
  W.u64(M.PO.MaxRegionCycles);
  putPower(W, M.EO.Power);
  W.u64(M.EO.InterruptPeriod);
  W.u64(M.EO.MaxCycles);
  W.u32(M.EO.MaxStalledBoots);
  W.u8(uint8_t(M.EO.CollectRegionSizes) | uint8_t(M.EO.WarIsFatal) << 1 |
       uint8_t(M.EO.CollectEventTrace) << 2);
  W.u64(M.EO.TraceWindowLo);
  W.u64(M.EO.TraceWindowHi);
  W.u8(uint8_t(M.EO.Engine));
  return finishFrame(MsgType::RunRequest, Id, std::move(W));
}

std::optional<RunRequestMsg>
wario::serve::decodeRunRequest(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  RunRequestMsg M;
  M.Tenant = R.str();
  M.Workload = R.str();
  uint8_t Env = R.u8();
  uint8_t Strat = R.u8();
  M.PO.UnrollFactor = R.u32();
  uint8_t PFlags = R.u8();
  M.PO.MiddleEndHittingSet = PFlags & 1;
  M.PO.DepthWeightedCost = PFlags & 2;
  M.PO.ForceConservativeAA = PFlags & 4;
  M.PO.BoundRegions = PFlags & 8;
  M.PO.ResolveMiddleEndWars = PFlags & 16;
  M.PO.DiffFullRollback = PFlags & 32;
  M.PO.SpecLogWars = PFlags & 64;
  M.PO.MaxRegionCycles = R.u64();
  M.EO.Power = getPower(R);
  M.EO.InterruptPeriod = R.u64();
  M.EO.MaxCycles = R.u64();
  M.EO.MaxStalledBoots = R.u32();
  uint8_t EFlags = R.u8();
  M.EO.CollectRegionSizes = EFlags & 1;
  M.EO.WarIsFatal = EFlags & 2;
  M.EO.CollectEventTrace = EFlags & 4;
  M.EO.TraceWindowLo = R.u64();
  M.EO.TraceWindowHi = R.u64();
  uint8_t Engine = R.u8();
  if (!R.done())
    return std::nullopt;
  if (Env > uint8_t(Environment::WarioExpander))
    return std::nullopt;
  M.PO.Env = Environment(Env);
  if (Strat > uint8_t(CheckpointStrategy::Speculative))
    return std::nullopt;
  M.PO.Strat = CheckpointStrategy(Strat);
  if (Engine > uint8_t(EngineKind::Threaded))
    return std::nullopt;
  M.EO.Engine = EngineKind(Engine);
  return M;
}

std::vector<uint8_t> wario::serve::encodeRunReply(uint64_t Id,
                                                  const RunReplyMsg &M) {
  Writer W;
  W.u8(M.Ok);
  W.str(M.Error);
  W.i32(M.ReturnValue);
  W.vecI32(M.Output);
  W.u64(M.TotalCycles);
  W.u64(M.InstructionsExecuted);
  W.u64(M.CheckpointsExecuted);
  W.u64(M.CauseMiddleEndWar);
  W.u64(M.CauseBackendSpill);
  W.u64(M.CauseFunctionEntry);
  W.u64(M.CauseFunctionExit);
  W.u32(M.PowerFailures);
  W.u64(M.InterruptsTaken);
  W.u64(M.WarViolations);
  W.u32(M.TextBytes);
  W.u64(M.MemHash);
  W.u64(M.RegionCount);
  W.u64(M.RegionHash);
  W.f64(M.FrontendSeconds);
  W.f64(M.FrontHalfSeconds);
  W.f64(M.MiddleEndSeconds);
  W.f64(M.BackendSeconds);
  W.f64(M.EmulateSeconds);
  W.u8(M.ProvenanceBits);
  return finishFrame(MsgType::RunReply, Id, std::move(W));
}

std::optional<RunReplyMsg>
wario::serve::decodeRunReply(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  RunReplyMsg M;
  M.Ok = R.u8();
  M.Error = R.str();
  M.ReturnValue = R.i32();
  M.Output = R.vecI32();
  M.TotalCycles = R.u64();
  M.InstructionsExecuted = R.u64();
  M.CheckpointsExecuted = R.u64();
  M.CauseMiddleEndWar = R.u64();
  M.CauseBackendSpill = R.u64();
  M.CauseFunctionEntry = R.u64();
  M.CauseFunctionExit = R.u64();
  M.PowerFailures = R.u32();
  M.InterruptsTaken = R.u64();
  M.WarViolations = R.u64();
  M.TextBytes = R.u32();
  M.MemHash = R.u64();
  M.RegionCount = R.u64();
  M.RegionHash = R.u64();
  M.FrontendSeconds = R.f64();
  M.FrontHalfSeconds = R.f64();
  M.MiddleEndSeconds = R.f64();
  M.BackendSeconds = R.f64();
  M.EmulateSeconds = R.f64();
  M.ProvenanceBits = R.u8();
  if (!R.done())
    return std::nullopt;
  return M;
}

std::vector<uint8_t> wario::serve::encodeStatsRequest(uint64_t Id) {
  return finishFrame(MsgType::StatsRequest, Id, Writer{});
}

std::vector<uint8_t> wario::serve::encodeStatsReply(uint64_t Id,
                                                    const StatsReplyMsg &M) {
  Writer W;
  for (unsigned L = 0; L != NumCacheLevels; ++L)
    W.u64(M.Counters.Hits[L]);
  for (unsigned L = 0; L != NumCacheLevels; ++L)
    W.u64(M.Counters.Misses[L]);
  for (unsigned L = 0; L != NumCacheLevels; ++L)
    W.u64(M.Counters.Evictions[L]);
  W.u64(M.Counters.BytesUsed);
  W.u64(M.Counters.ByteBudget);
  W.u64(M.Counters.BytesEvicted);
  W.u64(M.Counters.Entries);
  W.u64(M.RequestsServed);
  W.u64(M.ConnectionsAccepted);
  return finishFrame(MsgType::StatsReply, Id, std::move(W));
}

std::optional<StatsReplyMsg>
wario::serve::decodeStatsReply(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  StatsReplyMsg M;
  for (unsigned L = 0; L != NumCacheLevels; ++L)
    M.Counters.Hits[L] = R.u64();
  for (unsigned L = 0; L != NumCacheLevels; ++L)
    M.Counters.Misses[L] = R.u64();
  for (unsigned L = 0; L != NumCacheLevels; ++L)
    M.Counters.Evictions[L] = R.u64();
  M.Counters.BytesUsed = R.u64();
  M.Counters.ByteBudget = R.u64();
  M.Counters.BytesEvicted = R.u64();
  M.Counters.Entries = R.u64();
  M.RequestsServed = R.u64();
  M.ConnectionsAccepted = R.u64();
  if (!R.done())
    return std::nullopt;
  return M;
}

std::vector<uint8_t> wario::serve::encodeErrorReply(uint64_t Id,
                                                    const std::string &Msg) {
  Writer W;
  W.str(Msg);
  return finishFrame(MsgType::ErrorReply, Id, std::move(W));
}

std::optional<std::string>
wario::serve::decodeErrorReply(const std::vector<uint8_t> &Body) {
  Reader R(Body);
  std::string S = R.str();
  if (!R.done())
    return std::nullopt;
  return S;
}

std::vector<uint8_t> wario::serve::encodePing(uint64_t Id) {
  return finishFrame(MsgType::Ping, Id, Writer{});
}

std::vector<uint8_t> wario::serve::encodePong(uint64_t Id) {
  return finishFrame(MsgType::Pong, Id, Writer{});
}

std::optional<Frame>
wario::serve::parseFrame(const std::vector<uint8_t> &Payload) {
  if (Payload.size() < 10)
    return std::nullopt;
  Reader R(Payload);
  uint8_t Version = R.u8();
  uint8_t Type = R.u8();
  uint64_t Id = R.u64();
  if (Version != ProtocolVersion)
    return std::nullopt;
  if (Type < uint8_t(MsgType::RunRequest) || Type > uint8_t(MsgType::Pong))
    return std::nullopt;
  Frame F;
  F.Type = MsgType(Type);
  F.Id = Id;
  F.Body.assign(Payload.begin() + 10, Payload.end());
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
