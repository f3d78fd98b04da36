//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-protocol tests for the serving daemon (src/serve/Protocol.h):
/// every message type round-trips the codec bit-exactly; malformed,
/// truncated, and oversized frames are rejected without crashing (or
/// allocating absurd buffers); and a live daemon honors the error
/// contract — undecodable bodies earn an ErrorReply with the echoed id
/// on a still-usable connection, corrupt framing closes it, and stages
/// answered from cache report zero seconds.
///
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace wario;
using namespace wario::serve;

namespace {

/// A RunRequest with its wire fields off their defaults (a trace power
/// schedule, flipped flags) — the worst case for a field dropped from
/// the codec. The in-process-only fields keep their defaults.
RunRequestMsg fancyRequest() {
  RunRequestMsg M;
  M.Tenant = "tenant-7";
  M.Workload = "picojpeg";
  M.PO.Env = Environment::WarioExpander;
  M.PO.UnrollFactor = 3;
  M.PO.MiddleEndHittingSet = false;
  M.PO.DepthWeightedCost = false;
  M.PO.ForceConservativeAA = true;
  M.PO.BoundRegions = true;
  M.PO.MaxRegionCycles = 123'456;
  M.PO.ResolveMiddleEndWars = false;
  M.PO.Strat = CheckpointStrategy::Speculative;
  M.PO.DiffFullRollback = false;
  M.PO.SpecLogWars = false;
  M.EO.Power = PowerSchedule::trace({10'000, 250'000, 77}, "μ-trace");
  M.EO.InterruptPeriod = 5'000;
  M.EO.MaxCycles = 42;
  M.EO.MaxStalledBoots = 9;
  M.EO.CollectRegionSizes = true;
  M.EO.WarIsFatal = false;
  return M;
}

/// \p M with every EmulatorOptions field that stays in process set off
/// its default: the fault injector's event trace and an instruction
/// window opened to the whole run, and the oracle engine.
RunRequestMsg withInProcessFields(RunRequestMsg M) {
  M.EO.CollectEventTrace = true;
  M.EO.TraceWindowLo = 0;
  M.EO.TraceWindowHi = UINT64_MAX;
  M.EO.Engine = EngineKind::Interp;
  return M;
}

/// Strips the 4-byte length prefix off an encoder's output.
std::vector<uint8_t> payloadOf(const std::vector<uint8_t> &Frame) {
  EXPECT_GE(Frame.size(), 4u);
  return {Frame.begin() + 4, Frame.end()};
}

TEST(ServeProtocol, RunRequestRoundTripsEveryField) {
  for (const RunRequestMsg &M : {RunRequestMsg{}, fancyRequest()}) {
    std::vector<uint8_t> Payload = payloadOf(encodeRunRequest(77, M));
    std::optional<Frame> F = parseFrame(Payload);
    ASSERT_TRUE(F);
    EXPECT_EQ(F->Type, MsgType::RunRequest);
    EXPECT_EQ(F->Id, 77u);
    std::optional<RunRequestMsg> Back = decodeRunRequest(F->Body);
    ASSERT_TRUE(Back);
    EXPECT_EQ(*Back, M);
  }
}

TEST(ServeProtocol, InProcessOnlyFieldsDoNotTravel) {
  // The trace fields and the engine reach no reply field, so they are
  // not on the wire: setting them changes no byte, and the decoder
  // hands back their defaults (which M holds).
  for (const RunRequestMsg &M : {RunRequestMsg{}, fancyRequest()}) {
    const RunRequestMsg InProcess = withInProcessFields(M);
    ASSERT_NE(InProcess, M);
    EXPECT_EQ(encodeRunRequest(7, InProcess), encodeRunRequest(7, M));
    std::optional<RunRequestMsg> Back =
        decodeRunRequest(parseFrame(payloadOf(encodeRunRequest(7, InProcess)))
                             ->Body);
    ASSERT_TRUE(Back);
    EXPECT_EQ(*Back, M);
  }
}

TEST(ServeProtocol, PowerScheduleVariantsRoundTrip) {
  for (const PowerSchedule &P :
       {PowerSchedule::continuous(), PowerSchedule::fixed(123'456),
        PowerSchedule::trace({1, 2, 3}, "named"),
        PowerSchedule::trace({}, "empty-trace")}) {
    RunRequestMsg M;
    M.Workload = "crc";
    M.EO.Power = P;
    std::optional<Frame> F = parseFrame(payloadOf(encodeRunRequest(1, M)));
    ASSERT_TRUE(F);
    std::optional<RunRequestMsg> Back = decodeRunRequest(F->Body);
    ASSERT_TRUE(Back);
    EXPECT_TRUE(Back->EO.Power == P);
  }
}

TEST(ServeProtocol, RunReplyRoundTripsEveryField) {
  RunReplyMsg M;
  M.Ok = true;
  M.Error = ""; // Ok implies empty; non-empty covered below.
  M.ReturnValue = -123;
  M.Output = {-1, 0, 7, 1 << 30};
  M.TotalCycles = 0x0123456789abcdefull;
  M.InstructionsExecuted = 11;
  M.CheckpointsExecuted = 12;
  M.CauseMiddleEndWar = 13;
  M.CauseBackendSpill = 14;
  M.CauseFunctionEntry = 15;
  M.CauseFunctionExit = 16;
  M.PowerFailures = 17;
  M.InterruptsTaken = 18;
  M.WarViolations = 19;
  M.TextBytes = 20;
  M.MemHash = 0xfeedfacecafebeefull;
  M.RegionCount = 21;
  M.RegionHash = 22;
  M.FrontendSeconds = 0.25;
  M.FrontHalfSeconds = -0.0;
  M.MiddleEndSeconds = 1e-9;
  M.BackendSeconds = 3.5;
  M.EmulateSeconds = 1e9;
  M.ProvenanceBits = 0b1010;

  std::optional<Frame> F = parseFrame(payloadOf(encodeRunReply(99, M)));
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::RunReply);
  EXPECT_EQ(F->Id, 99u);
  std::optional<RunReplyMsg> Back = decodeRunReply(F->Body);
  ASSERT_TRUE(Back);
  EXPECT_EQ(*Back, M);

  M.Ok = false;
  M.Error = "emulation failure on crc @ wario: boom";
  Back = decodeRunReply(parseFrame(payloadOf(encodeRunReply(1, M)))->Body);
  ASSERT_TRUE(Back);
  EXPECT_EQ(*Back, M);
}

/// A hit at one cache level answers that level's stage and every stage
/// below it: over all 16 provenance patterns, computedStages zeroes
/// exactly the stages at and below the highest hit level, and a reply
/// reports the helper's seconds.
TEST(ServeProtocol, ComputedStagesZeroExactlyTheStagesUpToTheTopHit) {
  RunResult R;
  R.Pipeline.FrontendSeconds = 1;
  R.Pipeline.FrontHalfSeconds = 2;
  R.Pipeline.MiddleEndSeconds = 3;
  R.Pipeline.BackendSeconds = 4;
  R.Pipeline.EmulateSeconds = 5;
  R.Pipeline.RegionsBounded = 6; // Not a stage time: passes through.
  const unsigned Level[5] = {LevelFront, LevelFront, LevelMid, LevelCompile,
                             LevelRun};
  for (unsigned Bits = 0; Bits != 16; ++Bits) {
    Provenance P = Provenance::fromBits(uint8_t(Bits));
    int Top = -1; // Highest hit level; bit L of the pattern is level L.
    for (unsigned L = 0; L != NumCacheLevels; ++L)
      if (Bits >> L & 1)
        Top = int(L);
    PipelineStats C = computedStages(R.Pipeline, P);
    RunReplyMsg M = makeRunReply(R, P);
    const double Spent[5] = {C.FrontendSeconds, C.FrontHalfSeconds,
                             C.MiddleEndSeconds, C.BackendSeconds,
                             C.EmulateSeconds};
    const double Wire[5] = {M.FrontendSeconds, M.FrontHalfSeconds,
                            M.MiddleEndSeconds, M.BackendSeconds,
                            M.EmulateSeconds};
    for (unsigned S = 0; S != 5; ++S) {
      double Expected = int(Level[S]) <= Top ? 0.0 : double(S + 1);
      EXPECT_EQ(Spent[S], Expected) << "bits " << Bits << ", stage " << S;
      EXPECT_EQ(Wire[S], Spent[S]) << "bits " << Bits << ", stage " << S;
    }
    EXPECT_EQ(C.RegionsBounded, 6u);
    EXPECT_EQ(M.ProvenanceBits, Bits);
  }
}

/// fnv1a skips zero runs with one multiply each; it must agree with
/// the textbook byte-serial loop on every input shape.
TEST(ServeProtocol, Fnv1aMatchesTheBytewiseDefinition) {
  auto Reference = [](const std::vector<uint8_t> &B) {
    uint64_t H = 1469598103934665603ull;
    for (uint8_t C : B)
      H = (H ^ C) * 1099511628211ull;
    return H;
  };
  auto Check = [&](const std::vector<uint8_t> &B, const std::string &Tag) {
    EXPECT_EQ(fnv1a(B.data(), B.size()), Reference(B)) << Tag;
  };
  uint32_t Seed = 12345;
  auto Byte = [&] {
    Seed = Seed * 1664525u + 1013904223u;
    return uint8_t((Seed >> 24) | 1); // Never zero.
  };
  // Zero runs of every length 0-70 at the start, middle and end of
  // random non-zero data, over odd and even total lengths.
  for (size_t Run = 0; Run <= 70; ++Run) {
    for (size_t Pad : {0u, 1u, 7u, 13u, 64u}) {
      std::vector<uint8_t> Start(Run, 0), Mid, End;
      for (size_t I = 0; I != Pad; ++I)
        Start.push_back(Byte());
      for (size_t I = 0; I != Pad; ++I)
        Mid.push_back(Byte());
      Mid.insert(Mid.end(), Run, 0);
      for (size_t I = 0; I != Pad + 1; ++I)
        Mid.push_back(Byte());
      for (size_t I = 0; I != Pad; ++I)
        End.push_back(Byte());
      End.insert(End.end(), Run, 0);
      const std::string Tag =
          "run " + std::to_string(Run) + " pad " + std::to_string(Pad);
      Check(Start, "start " + Tag);
      Check(Mid, "middle " + Tag);
      Check(End, "end " + Tag);
    }
  }
  // Mixed sparse buffers of odd lengths: isolated bytes between zero
  // runs that straddle the 8-byte word scan.
  for (size_t Len : {1u, 3u, 9u, 63u, 255u, 1021u}) {
    std::vector<uint8_t> B(Len, 0);
    for (size_t I = 0; I < Len; I += 1 + Byte() % 11)
      B[I] = Byte();
    Check(B, "sparse " + std::to_string(Len));
  }
  Check({}, "empty");
  // An all-zero 1 MiB image (the never-written NVM).
  Check(std::vector<uint8_t>(1u << 20, 0), "all-zero 1 MiB");

  // Zero runs just under, at and just over one and two 64-byte blocks,
  // and a long one, starting 0, 1 and 63 bytes past a 64-byte boundary
  // (of the address, and of the index wherever non-zero bytes precede
  // the run), between non-zero bytes and at either end: the block
  // scan's entry, its exit into the word and byte scans, and its tail.
  std::vector<uint8_t> Backing(8192);
  uint8_t *Aligned =
      Backing.data() + (-reinterpret_cast<uintptr_t>(Backing.data()) & 63);
  auto CheckAt = [&](const std::vector<uint8_t> &B, size_t Shift,
                     const std::string &Tag) {
    std::copy(B.begin(), B.end(), Aligned + Shift);
    EXPECT_EQ(fnv1a(Aligned + Shift, B.size()), Reference(B)) << Tag;
  };
  for (size_t Run : {63u, 64u, 65u, 127u, 128u, 129u, 4096u}) {
    for (size_t Off : {0u, 1u, 63u}) {
      std::vector<uint8_t> Lead, Trail;
      for (size_t I = 0; I != 64 + Off; ++I)
        Lead.push_back(Byte());
      for (size_t I = 0; I != 9; ++I)
        Trail.push_back(Byte());
      std::vector<uint8_t> Start(Run, 0), Mid = Lead, End = Lead;
      Start.insert(Start.end(), Trail.begin(), Trail.end());
      Mid.insert(Mid.end(), Run, 0);
      Mid.insert(Mid.end(), Trail.begin(), Trail.end());
      End.insert(End.end(), Run, 0);
      const std::string Tag =
          "run " + std::to_string(Run) + " at +" + std::to_string(Off);
      CheckAt(Start, Off, "block start " + Tag);
      CheckAt(Mid, 0, "block middle " + Tag);
      CheckAt(End, 0, "block end " + Tag);
    }
  }
  Check(std::vector<uint8_t>((1u << 20) + 7, 0), "all-zero 1 MiB + 7");
}

/// fnv1aU64s folds each value's high zero bytes into one multiply; it
/// must agree with the textbook eight-bytes-per-value loop.
TEST(ServeProtocol, Fnv1aU64sMatchesTheBytewiseDefinition) {
  auto Reference = [](const std::vector<uint64_t> &Vals) {
    uint64_t H = 1469598103934665603ull;
    for (uint64_t V : Vals)
      for (int B = 0; B != 8; ++B)
        H = (H ^ uint8_t(V >> (8 * B))) * 1099511628211ull;
    return H;
  };
  auto Check = [&](const std::vector<uint64_t> &Vals, const std::string &Tag) {
    EXPECT_EQ(fnv1aU64s(Vals), Reference(Vals)) << Tag;
  };
  Check({}, "empty");
  // One value of every significant-byte count 0-8, alone and between
  // other values; then values with interior zero bytes, and all ones.
  std::vector<uint64_t> Singles = {0};
  for (unsigned N = 1; N <= 8; ++N) {
    const uint64_t Top = 0xA5ull << (8 * (N - 1)); // N significant bytes.
    Singles.push_back(Top);
    Singles.push_back(Top | 0x5A);
  }
  for (uint64_t V : {uint64_t(0x100), uint64_t(0xFF0000FF), uint64_t(1) << 56,
                     UINT64_MAX})
    Singles.push_back(V);
  for (uint64_t V : Singles) {
    std::ostringstream Tag;
    Tag << std::hex << "0x" << V;
    Check({V}, "alone " + Tag.str());
    Check({0x1234, V, 7}, "between " + Tag.str());
  }
  Check(Singles, "all of them");
  // 100,000 seeded values: region-size-like numbers (up to 2^24) mixed
  // with full-width ones.
  std::mt19937_64 Rng(2707);
  std::vector<uint64_t> Mixed(100000);
  for (uint64_t &V : Mixed) {
    const uint64_t R = Rng();
    V = R % 4 ? R >> 40 : Rng();
  }
  Check(Mixed, "100,000 seeded values");
}

TEST(ServeProtocol, StatsReplyRoundTrips) {
  StatsReplyMsg M;
  for (int L = 0; L != NumCacheLevels; ++L) {
    M.Counters.Hits[L] = 100 + L;
    M.Counters.Misses[L] = 200 + L;
    M.Counters.Evictions[L] = 300 + L;
  }
  M.Counters.BytesUsed = 1 << 20;
  M.Counters.ByteBudget = 1 << 22;
  M.Counters.BytesEvicted = 12345;
  M.Counters.Entries = 42;
  M.RequestsServed = 9999;
  M.ConnectionsAccepted = 7;

  std::optional<Frame> F = parseFrame(payloadOf(encodeStatsReply(5, M)));
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::StatsReply);
  std::optional<StatsReplyMsg> Back = decodeStatsReply(F->Body);
  ASSERT_TRUE(Back);
  EXPECT_EQ(*Back, M);
}

TEST(ServeProtocol, ControlMessagesRoundTrip) {
  std::optional<Frame> F = parseFrame(payloadOf(encodePing(3)));
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::Ping);
  EXPECT_EQ(F->Id, 3u);
  EXPECT_TRUE(F->Body.empty());

  F = parseFrame(payloadOf(encodePong(4)));
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::Pong);

  F = parseFrame(payloadOf(encodeStatsRequest(6)));
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::StatsRequest);

  F = parseFrame(payloadOf(encodeErrorReply(8, "nope")));
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::ErrorReply);
  std::optional<std::string> Msg = decodeErrorReply(F->Body);
  ASSERT_TRUE(Msg);
  EXPECT_EQ(*Msg, "nope");
}

TEST(ServeProtocol, ParseFrameRejectsBadHeaders) {
  std::vector<uint8_t> Good = payloadOf(encodePing(1));
  ASSERT_TRUE(parseFrame(Good));

  std::vector<uint8_t> Short(Good.begin(), Good.begin() + 9);
  EXPECT_FALSE(parseFrame(Short));
  EXPECT_FALSE(parseFrame({}));

  std::vector<uint8_t> BadVersion = Good;
  BadVersion[0] = ProtocolVersion + 1;
  EXPECT_FALSE(parseFrame(BadVersion));

  std::vector<uint8_t> BadType = Good;
  BadType[1] = 0;
  EXPECT_FALSE(parseFrame(BadType));
  BadType[1] = 8; // One past Pong.
  EXPECT_FALSE(parseFrame(BadType));
}

TEST(ServeProtocol, TruncatedBodiesNeverDecode) {
  // Decoders require exact consumption: every strict prefix of a valid
  // body must fail, and so must a body with trailing garbage.
  std::vector<uint8_t> Req =
      parseFrame(payloadOf(encodeRunRequest(1, fancyRequest())))->Body;
  for (size_t N = 0; N != Req.size(); ++N)
    EXPECT_FALSE(decodeRunRequest({Req.begin(), Req.begin() + N}))
        << "decoded from a " << N << "-byte prefix of " << Req.size();
  std::vector<uint8_t> Long = Req;
  Long.push_back(0);
  EXPECT_FALSE(decodeRunRequest(Long));

  RunReplyMsg Reply;
  Reply.Output = {1, 2, 3};
  Reply.Error = "e";
  std::vector<uint8_t> Rep =
      parseFrame(payloadOf(encodeRunReply(1, Reply)))->Body;
  for (size_t N = 0; N != Rep.size(); ++N)
    EXPECT_FALSE(decodeRunReply({Rep.begin(), Rep.begin() + N}));

  std::vector<uint8_t> Stats =
      parseFrame(payloadOf(encodeStatsReply(1, StatsReplyMsg{})))->Body;
  for (size_t N = 0; N != Stats.size(); ++N)
    EXPECT_FALSE(decodeStatsReply({Stats.begin(), Stats.begin() + N}));
}

TEST(ServeProtocol, HugeCountsAreRejectedWithoutAllocating) {
  // A string/vector length of 0xffffffff inside a tiny body must fail
  // the bounds check before any allocation happens (an attacker-sized
  // reserve would be a trivial daemon OOM).
  std::vector<uint8_t> Body = {0xff, 0xff, 0xff, 0xff, 'x'};
  EXPECT_FALSE(decodeRunRequest(Body));
  EXPECT_FALSE(decodeErrorReply(Body));
  EXPECT_FALSE(decodeRunReply(Body));
}

TEST(ServeProtocol, CorruptEnumValuesAreRejected) {
  std::vector<uint8_t> Frame = encodeRunRequest(1, RunRequestMsg{});
  std::vector<uint8_t> Body = parseFrame(payloadOf(Frame))->Body;
  // Byte layout: [u32 tenant len][u32 workload len]["crc"? no — default
  // empty strings] [u8 env] ... The env byte sits right after the two
  // (empty) strings.
  ASSERT_GE(Body.size(), 10u);
  std::vector<uint8_t> BadEnv = Body;
  BadEnv[8] = 200; // Way past WarioExpander.
  EXPECT_FALSE(decodeRunRequest(BadEnv));
  std::vector<uint8_t> BadStrat = Body;
  BadStrat[9] = 17; // The strategy byte follows env; past Speculative.
  EXPECT_FALSE(decodeRunRequest(BadStrat));
  // A bool is one byte, 0 or 1; WarIsFatal is the final one.
  std::vector<uint8_t> BadBool = Body;
  ASSERT_EQ(BadBool.back(), 1);
  BadBool.back() = 2;
  EXPECT_FALSE(decodeRunRequest(BadBool));
}

//===----------------------------------------------------------------------===//
// Socket-level framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
  }
  ~SocketPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
};

TEST(ServeFraming, ReadFrameHandlesEofTruncationAndOversize) {
  std::vector<uint8_t> Payload;
  {
    SocketPair S;
    ::close(S.A);
    S.A = -1;
    EXPECT_EQ(readFrame(S.B, Payload), FrameReadStatus::Eof);
  }
  {
    SocketPair S; // Close mid-frame: 4-byte prefix, no body.
    uint32_t Len = 100;
    ASSERT_EQ(::send(S.A, &Len, 4, 0), 4);
    ::close(S.A);
    S.A = -1;
    EXPECT_EQ(readFrame(S.B, Payload), FrameReadStatus::Truncated);
  }
  {
    SocketPair S; // Oversized length prefix: rejected before reading on.
    uint32_t Len = MaxFrameBytes + 1;
    ASSERT_EQ(::send(S.A, &Len, 4, 0), 4);
    EXPECT_EQ(readFrame(S.B, Payload), FrameReadStatus::TooBig);
  }
  {
    SocketPair S; // A valid frame followed by clean EOF.
    std::vector<uint8_t> F = encodePing(12);
    ASSERT_TRUE(writeFrame(S.A, F));
    ::close(S.A);
    S.A = -1;
    EXPECT_EQ(readFrame(S.B, Payload), FrameReadStatus::Ok);
    EXPECT_EQ(Payload, payloadOf(F));
    EXPECT_EQ(readFrame(S.B, Payload), FrameReadStatus::Eof);
  }
}

//===----------------------------------------------------------------------===//
// Daemon error contract
//===----------------------------------------------------------------------===//

class ServeDaemonTest : public ::testing::Test {
protected:
  void SetUp() override {
    Path = "/tmp/wario_proto_test_" + std::to_string(::getpid()) + ".sock";
    S = std::make_unique<Server>(ServerOptions{Path, 0, 1});
    std::string Error;
    ASSERT_TRUE(S->start(&Error)) << Error;
  }
  void TearDown() override { S->stop(); }

  /// Raw connection (bypassing Client) for hand-built malformed frames.
  int rawConnect() {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    return Fd;
  }

  std::string Path;
  std::unique_ptr<Server> S;
};

TEST_F(ServeDaemonTest, UndecodableBodyKeepsConnectionUsable) {
  int Fd = rawConnect();
  // Valid framing, valid header, garbage RunRequest body.
  std::vector<uint8_t> Garbage = encodeRunRequest(1234, RunRequestMsg{});
  Garbage.resize(Garbage.size() - 3); // Drop the last 3 body bytes...
  uint32_t NewLen = uint32_t(Garbage.size() - 4);
  std::memcpy(Garbage.data(), &NewLen, 4); // ...and re-frame honestly.
  ASSERT_TRUE(writeFrame(Fd, Garbage));

  std::vector<uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameReadStatus::Ok);
  std::optional<Frame> F = parseFrame(Payload);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::ErrorReply);
  EXPECT_EQ(F->Id, 1234u) << "protocol errors echo the request id";

  // The connection survives: a Ping still pongs.
  ASSERT_TRUE(writeFrame(Fd, encodePing(5)));
  ASSERT_EQ(readFrame(Fd, Payload), FrameReadStatus::Ok);
  F = parseFrame(Payload);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::Pong);
  EXPECT_EQ(F->Id, 5u);
  ::close(Fd);
}

TEST_F(ServeDaemonTest, CorruptFramingClosesTheConnection) {
  int Fd = rawConnect();
  std::vector<uint8_t> Bad = encodePing(1);
  Bad[4] = ProtocolVersion + 1; // First payload byte: the version.
  ASSERT_TRUE(writeFrame(Fd, Bad));

  std::vector<uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameReadStatus::Ok);
  std::optional<Frame> F = parseFrame(Payload);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::ErrorReply);
  EXPECT_EQ(F->Id, 0u) << "no trustworthy id after corrupt framing";
  EXPECT_EQ(readFrame(Fd, Payload), FrameReadStatus::Eof)
      << "the daemon must close after corrupt framing";
  ::close(Fd);

  // The daemon itself is fine — fresh connections still serve.
  Client C;
  ASSERT_TRUE(C.connect(Path));
  EXPECT_TRUE(C.ping());
}

TEST_F(ServeDaemonTest, CachedStagesReportZeroSeconds) {
  Client C;
  ASSERT_TRUE(C.connect(Path));
  RunRequestMsg Req;
  Req.Tenant = "stage-seconds";
  Req.Workload = "crc";
  Req.PO.Env = Environment::WarioComplete;
  RunReplyMsg Cold;
  ASSERT_TRUE(C.run(Req, Cold));
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_GT(Cold.MiddleEndSeconds, 0.0);

  // The same request again is answered whole from the run level.
  RunReplyMsg Hit;
  ASSERT_TRUE(C.run(Req, Hit));
  EXPECT_TRUE(Provenance::fromBits(Hit.ProvenanceBits).RunHit);
  EXPECT_EQ(Hit.FrontendSeconds, 0.0);
  EXPECT_EQ(Hit.FrontHalfSeconds, 0.0);
  EXPECT_EQ(Hit.MiddleEndSeconds, 0.0);
  EXPECT_EQ(Hit.BackendSeconds, 0.0);
  EXPECT_EQ(Hit.EmulateSeconds, 0.0);

  // Another environment on the same workload reuses the front half but
  // runs its own middle end.
  RunRequestMsg Other = Req;
  Other.PO.Env = Environment::Ratchet;
  RunReplyMsg Front;
  ASSERT_TRUE(C.run(Other, Front));
  ASSERT_TRUE(Front.Ok) << Front.Error;
  EXPECT_TRUE(Provenance::fromBits(Front.ProvenanceBits).FrontHit);
  EXPECT_EQ(Front.FrontendSeconds, 0.0);
  EXPECT_EQ(Front.FrontHalfSeconds, 0.0);
  EXPECT_GT(Front.MiddleEndSeconds, 0.0);
}

TEST_F(ServeDaemonTest, InProcessOnlyFieldsShareTheRunLevelEntry) {
  // A request that sets the trace fields and the engine in process is
  // the plain request on the wire, so the daemon answers it from the
  // plain request's run-level entry: no trace is recorded, no engine
  // namespaces a second entry, and the reply is the same.
  Client C;
  ASSERT_TRUE(C.connect(Path));
  RunRequestMsg Plain;
  Plain.Tenant = "in-process";
  Plain.Workload = "crc";
  RunReplyMsg First;
  std::string Error;
  ASSERT_TRUE(C.run(Plain, First, &Error)) << Error;
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_FALSE(Provenance::fromBits(First.ProvenanceBits).RunHit);

  RunReplyMsg Second;
  ASSERT_TRUE(C.run(withInProcessFields(Plain), Second, &Error)) << Error;
  EXPECT_TRUE(Provenance::fromBits(Second.ProvenanceBits).RunHit);

  // Every field but the stage seconds and the provenance must match.
  for (RunReplyMsg *R : {&First, &Second}) {
    R->FrontendSeconds = R->FrontHalfSeconds = R->MiddleEndSeconds = 0;
    R->BackendSeconds = R->EmulateSeconds = 0;
    R->ProvenanceBits = 0;
  }
  EXPECT_EQ(Second, First);
}

TEST_F(ServeDaemonTest, OversizedFrameIsRejectedNotAllocated) {
  int Fd = rawConnect();
  uint32_t Len = MaxFrameBytes + 1;
  ASSERT_EQ(::send(Fd, &Len, 4, MSG_NOSIGNAL), 4);
  std::vector<uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameReadStatus::Ok);
  std::optional<Frame> F = parseFrame(Payload);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::ErrorReply);
  EXPECT_EQ(readFrame(Fd, Payload), FrameReadStatus::Eof);
  ::close(Fd);
}

TEST_F(ServeDaemonTest, ReplyOnlyTypesEarnAnErrorReply) {
  int Fd = rawConnect();
  ASSERT_TRUE(writeFrame(Fd, encodePong(31))); // Clients don't send Pong.
  std::vector<uint8_t> Payload;
  ASSERT_EQ(readFrame(Fd, Payload), FrameReadStatus::Ok);
  std::optional<Frame> F = parseFrame(Payload);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, MsgType::ErrorReply);
  EXPECT_EQ(F->Id, 31u);
  ::close(Fd);
}

TEST_F(ServeDaemonTest, RequestResponseFieldFidelity) {
  // A real request through the daemon must carry exactly the fields a
  // direct (in-process) cache run produces — the wire adds hashing, not
  // lossy translation.
  Client C;
  ASSERT_TRUE(C.connect(Path));

  RunRequestMsg M;
  M.Tenant = "fidelity";
  M.Workload = "crc";
  M.PO.Env = Environment::WarioComplete;
  RunReplyMsg Wire;
  std::string Error;
  ASSERT_TRUE(C.run(M, Wire, &Error)) << Error;
  ASSERT_TRUE(Wire.Ok) << Wire.Error;

  StagedCache Local(CacheConfig{});
  Provenance Prov;
  std::shared_ptr<const RunResult> R = Local.run(M, &Prov);
  ASSERT_TRUE(R->Error.empty()) << R->Error;
  RunReplyMsg Direct = makeRunReply(*R, Prov);

  // Timings and provenance legitimately differ run to run; everything
  // the workload's execution determines must match bit for bit.
  EXPECT_EQ(Wire.ReturnValue, Direct.ReturnValue);
  EXPECT_EQ(Wire.Output, Direct.Output);
  EXPECT_EQ(Wire.TotalCycles, Direct.TotalCycles);
  EXPECT_EQ(Wire.InstructionsExecuted, Direct.InstructionsExecuted);
  EXPECT_EQ(Wire.CheckpointsExecuted, Direct.CheckpointsExecuted);
  EXPECT_EQ(Wire.CauseMiddleEndWar, Direct.CauseMiddleEndWar);
  EXPECT_EQ(Wire.CauseBackendSpill, Direct.CauseBackendSpill);
  EXPECT_EQ(Wire.CauseFunctionEntry, Direct.CauseFunctionEntry);
  EXPECT_EQ(Wire.CauseFunctionExit, Direct.CauseFunctionExit);
  EXPECT_EQ(Wire.PowerFailures, Direct.PowerFailures);
  EXPECT_EQ(Wire.InterruptsTaken, Direct.InterruptsTaken);
  EXPECT_EQ(Wire.WarViolations, Direct.WarViolations);
  EXPECT_EQ(Wire.TextBytes, Direct.TextBytes);
  EXPECT_EQ(Wire.MemHash, Direct.MemHash);
  EXPECT_EQ(Wire.RegionCount, Direct.RegionCount);
  EXPECT_EQ(Wire.RegionHash, Direct.RegionHash);

  // An unknown workload is a *served* failure, not a protocol error.
  M.Workload = "no-such-workload";
  ASSERT_TRUE(C.run(M, Wire, &Error)) << Error;
  EXPECT_FALSE(Wire.Ok);
  EXPECT_NE(Wire.Error.find("no-such-workload"), std::string::npos);

  // Stats arrive and reflect the served traffic.
  StatsReplyMsg Stats;
  ASSERT_TRUE(C.stats(Stats, &Error)) << Error;
  EXPECT_GE(Stats.RequestsServed, 2u);
  EXPECT_GE(Stats.ConnectionsAccepted, 1u);
}

} // namespace
