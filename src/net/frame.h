// Length-prefixed binary framing for the compile-server wire protocol
// (DESIGN.md §6.7), mirroring the AVCE cache framing: magic, version, type,
// payload size, payload checksum. A frame's payload is opaque bytes; the
// request/response payload codecs below put the avivd request-line grammar
// and the typed response (status detail + wall/queue timings) inside it.
//
// Wire layout, little-endian, 24-byte header:
//
//   offset  size  field
//        0     4  magic       "AVNF" (0x464e5641 LE)
//        4     2  version     kFrameVersion; mismatch poisons the stream
//        6     1  type        FrameType
//        7     1  reserved    must be 0
//        8     8  payloadSize bytes following the header
//       16     8  checksum    hash64(payload) (support/hash.h)
//   24  payloadSize  payload
//
// FrameDecoder is incremental: feed() whatever the socket produced, then
// next() until it reports kNeedMore. Every protocol violation — bad magic,
// stale version, unknown type, a declared payload larger than the
// configured cap (rejected BEFORE any payload buffering), checksum
// mismatch — surfaces as Status::kError with a message; the decoder is
// then poisoned and the connection must be dropped. A connection that
// closes mid-frame is detectable via midFrame(). Nothing here throws on
// hostile bytes; the payload codecs throw aviv::Error (the PR 3 taxonomy)
// on truncated payloads, which callers treat as a protocol error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace aviv::net {

enum class FrameType : uint8_t {
  kRequest = 1,     // client -> server: one request line
  kOk = 2,          // compiled, at least one block cold
  kHit = 3,         // compiled, every block served from the result cache
  kDegraded = 4,    // compiled via the degradation ladder (baseline)
  kQuarantined = 5, // verification caught a miscompile; baseline emitted
  kError = 6,       // request failed (parse, compile, protocol)
  kRetryAfter = 7,  // shed by admission control; retry later
  // Liveness beat on the supervisor<->worker socketpair (src/proc): a busy
  // worker emits one every heartbeat interval so the supervisor can tell
  // "slow compile" from "wedged process". Never sent on client-facing
  // sockets; empty payload.
  kHeartbeat = 8,
};

// One typed answer to one request line: what every avivd dispatch path
// (in-process, isolated worker, crash-loop breaker) produces and the
// server encodes into a response frame.
struct NetResponse {
  FrameType type = FrameType::kError;
  std::string detail;  // status detail line; the error message for kError
  std::string body;    // assembly text when requested; else empty
  // Worker crashes consumed producing this response (src/proc pool);
  // surfaces in ServerStats::crashRetried.
  int crashRetries = 0;
};

[[nodiscard]] const char* frameTypeName(FrameType type);
[[nodiscard]] bool isResponseType(FrameType type);

inline constexpr uint32_t kFrameMagic = 0x464e5641;  // "AVNF" little-endian
inline constexpr uint16_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;
// Default cap on a declared payload; a frame claiming more is a protocol
// error, rejected from the 24 header bytes alone.
inline constexpr uint64_t kDefaultMaxPayload = 4ull << 20;

[[nodiscard]] std::string encodeFrame(FrameType type,
                                      std::string_view payload);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

class FrameDecoder {
 public:
  explicit FrameDecoder(uint64_t maxPayload = kDefaultMaxPayload)
      : maxPayload_(maxPayload) {}

  void feed(const char* data, size_t n);

  enum class Status {
    kFrame,     // *out holds the next complete frame
    kNeedMore,  // no complete frame buffered; feed more bytes
    kError,     // protocol violation; see error(). Decoder is poisoned.
  };
  Status next(Frame* out);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool poisoned() const { return poisoned_; }
  // True when a frame prefix (a partial header or header + partial
  // payload) is buffered — an EOF now is a torn, mid-frame close.
  [[nodiscard]] bool midFrame() const { return !poisoned_ && buffered() > 0; }
  [[nodiscard]] size_t buffered() const { return buf_.size() - pos_; }

 private:
  uint64_t maxPayload_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  bool poisoned_ = false;
  std::string error_;
};

// --- payload codecs -------------------------------------------------------
// Decoders throw aviv::Error on truncated or malformed payloads.

struct RequestPayload {
  uint64_t id = 0;       // echoed back in the response
  bool wantAsm = false;  // include the assembly text in the response body
  std::string line;      // one avivd request line (service/request.h grammar)
};

[[nodiscard]] std::string encodeRequestPayload(const RequestPayload& p);
[[nodiscard]] RequestPayload decodeRequestPayload(std::string_view data);

struct ResponsePayload {
  uint64_t id = 0;
  uint64_t wallMicros = 0;   // request execution wall time
  uint64_t queueMicros = 0;  // admission-queue wait before execution
  std::string detail;  // status detail line, or the error message
  std::string body;    // assembly text when requested; else empty
};

[[nodiscard]] std::string encodeResponsePayload(const ResponsePayload& p);
[[nodiscard]] ResponsePayload decodeResponsePayload(std::string_view data);

}  // namespace aviv::net
