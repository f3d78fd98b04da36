//===----------------------------------------------------------------------===//
///
/// \file
/// The framed wire protocol between wario-served and its clients
/// (tools/wario_served.cpp, tools/wario_loadgen.cpp, src/serve/Client.h).
///
/// Transport: a Unix-domain stream socket carrying length-prefixed
/// frames. Each frame is
///
///   [u32 payload length (LE)] [payload]
///   payload = [u8 version] [u8 MsgType] [u64 request id] [body]
///
/// All integers are little-endian at their C++ width; bools and enums
/// are one byte, and a byte past the type's last value fails the decode;
/// strings are a u32 length followed by raw bytes; vectors are a u32
/// element count followed by the elements; doubles travel as their
/// IEEE-754 bit pattern in a u64. Each message's body is its fields in
/// the order one list in Protocol.cpp gives, shared by the message's
/// encoder and decoder. The payload length excludes the 4-byte prefix
/// and is capped at MaxFrameBytes — an oversized length is a protocol
/// error, not an allocation request.
///
/// Request ids are chosen by the client and echoed verbatim in the
/// response, so each reply pairs with its request. The server answers a
/// connection's requests one at a time, in arrival order; a client that
/// wants several requests computing at once opens several connections.
///
/// Error handling contract: a frame that decodes as a valid header but
/// an undecodable body earns an ErrorReply with the echoed id and the
/// connection stays usable; a frame that violates the framing itself
/// (bad version, oversized or truncated payload) earns a best-effort
/// ErrorReply with id 0 and the connection is closed — after corrupt
/// framing there is no resynchronization point.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_SERVE_PROTOCOL_H
#define WARIO_SERVE_PROTOCOL_H

#include "serve/Cache.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wario::serve {

/// Version 3 took EmulatorOptions::CollectEventTrace, TraceWindowLo,
/// TraceWindowHi and Engine off RunRequest (no reply field depends on
/// them, and the trace window let one request allocate without bound),
/// and sends each bool as one byte instead of packing them into flag
/// bytes. Version 2 added the checkpoint strategy. Peers reject any
/// other version outright (no negotiation — both ends ship from this
/// tree).
inline constexpr uint8_t ProtocolVersion = 3;

/// Hard ceiling on one frame's payload. Large artifacts (final memory
/// images) never travel: replies carry hashes instead.
inline constexpr uint32_t MaxFrameBytes = 4u << 20;

enum class MsgType : uint8_t {
  RunRequest = 1, ///< body: RunRequestMsg
  RunReply = 2,   ///< body: RunReplyMsg
  StatsRequest = 3, ///< empty body
  StatsReply = 4,   ///< body: StatsReplyMsg
  ErrorReply = 5,   ///< body: one string (protocol-level failure)
  Ping = 6,         ///< empty body
  Pong = 7,         ///< empty body
};

/// One compile-and-simulate request is a cache request: the daemon hands
/// the decoded message to StagedCache::run as it is. The wire carries
/// the tenant, the workload, every PipelineOptions field and the
/// EmulatorOptions fields a reply depends on (the power schedule rides
/// among them). The fault injector's event trace and instruction window
/// and the engine choice stay in process: a decoded request has their
/// defaults.
using RunRequestMsg = CacheRequest;

/// Everything a RunRequest produces, flattened for the wire. Bulk fields
/// (final memory image, per-region sizes) are summarized as FNV-1a
/// hashes — byte-identity checks work, megabyte payloads don't travel.
/// The hashes are the result's reply digest (RunResult::MemHash and
/// RunResult::RegionHash), computed once when the run level published it.
struct RunReplyMsg {
  bool Ok = false;        ///< False on any pipeline or emulation failure.
  std::string Error;      ///< Empty iff Ok.
  int32_t ReturnValue = 0;
  std::vector<int32_t> Output;
  uint64_t TotalCycles = 0;
  uint64_t InstructionsExecuted = 0;
  uint64_t CheckpointsExecuted = 0;
  uint64_t CauseMiddleEndWar = 0;
  uint64_t CauseBackendSpill = 0;
  uint64_t CauseFunctionEntry = 0;
  uint64_t CauseFunctionExit = 0;
  uint32_t PowerFailures = 0;
  uint64_t InterruptsTaken = 0;
  uint64_t WarViolations = 0;
  uint32_t TextBytes = 0;
  uint64_t MemHash = 0;      ///< fnv1a over FinalMemory (digest).
  uint64_t RegionCount = 0;  ///< Entries in RegionSizes.
  uint64_t RegionHash = 0;   ///< fnv1aU64s over RegionSizes (digest).
  /// Wall-clock seconds this request actually spent computing each stage
  /// (zero for stages answered from cache).
  double FrontendSeconds = 0;
  double FrontHalfSeconds = 0;
  double MiddleEndSeconds = 0;
  double BackendSeconds = 0;
  double EmulateSeconds = 0;
  /// Which cache levels answered (Provenance::bits form).
  uint8_t ProvenanceBits = 0;
  bool operator==(const RunReplyMsg &) const = default;
};

/// Cache and service accounting, answering a StatsRequest.
struct StatsReplyMsg {
  CacheCounters Counters;
  uint64_t RequestsServed = 0;
  uint64_t ConnectionsAccepted = 0;
  bool operator==(const StatsReplyMsg &) const = default;
};

/// A parsed frame header + raw body (everything after the request id).
struct Frame {
  MsgType Type = MsgType::ErrorReply;
  uint64_t Id = 0;
  std::vector<uint8_t> Body;
};

/// FNV-1a 64-bit over a byte range: the hash behind MemHash, which the
/// run level computes at publish and the soak test's cold oracle
/// recomputes. A run of N zero bytes leaves the hash multiplied by
/// FnvPrime^N, so zero runs are skipped 64 bytes at a time and cost one
/// multiply each; the value is the textbook byte-serial loop's.
uint64_t fnv1a(const uint8_t *Data, size_t Size);
/// FNV-1a over each value's eight little-endian bytes: the hash behind
/// RegionHash. A value's high zero bytes fold into the multiply of its
/// last significant byte, so a value of N >= 1 significant bytes costs
/// N multiplies, not eight; the value is the eight-bytes-per-value
/// loop's.
uint64_t fnv1aU64s(const std::vector<uint64_t> &Vals);

/// Builds a RunReplyMsg from a cache result, copying the digest the run
/// level computed (RunResult::MemHash/RegionHash) rather than hashing
/// the bulk fields. Stage seconds read zero for the stages \p Prov says
/// came from cache.
RunReplyMsg makeRunReply(const RunResult &R, Provenance Prov);

//===----------------------------------------------------------------------===//
// Encoding (always succeeds; returns a complete frame incl. the prefix)
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodeRunRequest(uint64_t Id, const RunRequestMsg &M);
std::vector<uint8_t> encodeRunReply(uint64_t Id, const RunReplyMsg &M);
std::vector<uint8_t> encodeStatsRequest(uint64_t Id);
std::vector<uint8_t> encodeStatsReply(uint64_t Id, const StatsReplyMsg &M);
std::vector<uint8_t> encodeErrorReply(uint64_t Id, const std::string &Msg);
std::vector<uint8_t> encodePing(uint64_t Id);
std::vector<uint8_t> encodePong(uint64_t Id);

//===----------------------------------------------------------------------===//
// Decoding (every reader is bounds-checked; failure returns nullopt and
// never reads past the buffer — malformed input must not crash a daemon)
//===----------------------------------------------------------------------===//

/// Parses a payload (frame minus the length prefix) into header + body.
/// Rejects unknown versions, unknown message types, and short payloads.
std::optional<Frame> parseFrame(const std::vector<uint8_t> &Payload);

std::optional<RunRequestMsg> decodeRunRequest(const std::vector<uint8_t> &Body);
std::optional<RunReplyMsg> decodeRunReply(const std::vector<uint8_t> &Body);
std::optional<StatsReplyMsg> decodeStatsReply(const std::vector<uint8_t> &Body);
std::optional<std::string> decodeErrorReply(const std::vector<uint8_t> &Body);

//===----------------------------------------------------------------------===//
// Blocking frame I/O over a connected socket
//===----------------------------------------------------------------------===//

enum class FrameReadStatus {
  Ok,        ///< Payload filled with one complete frame payload.
  Eof,       ///< Clean close at a frame boundary.
  TooBig,    ///< Length prefix exceeded MaxFrameBytes.
  Truncated, ///< Peer closed mid-frame.
  IoError,   ///< read() failed.
};

/// Reads one length-prefixed frame payload from \p Fd.
FrameReadStatus readFrame(int Fd, std::vector<uint8_t> &Payload);

/// Writes one complete frame (as produced by the encoders); loops until
/// everything is sent. Returns false on any write error (the caller
/// closes the connection; SIGPIPE is suppressed).
bool writeFrame(int Fd, const std::vector<uint8_t> &Frame);

} // namespace wario::serve

#endif // WARIO_SERVE_PROTOCOL_H
