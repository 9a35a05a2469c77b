// blurnetd wire protocol: a dependency-free, length-prefixed binary framing
// for serving the InferenceEngine over TCP.
//
// Every message is one frame — a fixed 16-byte header followed by an opcode-
// specific payload:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     4  magic          0x544E4C42 ("BLNT", little-endian)
//        4     1  version        protocol version, currently 2
//        5     1  opcode         Opcode below
//        6     2  reserved       must be zero
//        8     4  request id     caller-chosen correlation id, echoed back
//       12     4  payload bytes  length of the payload that follows
//
// All integers are little-endian on the wire; float32 values travel as their
// IEEE-754 bit pattern in a little-endian u32, so a payload round-trip is
// bitwise exact — the loopback server path can (and is tested to) reproduce
// in-process classify() results bit for bit. Encoders and decoders assemble
// bytes explicitly, so the codec works on any host byte order.
//
// Request opcodes (client → server): kClassify (one CHW image), kClassifyBatch
// (an NCHW batch), kStats, kPing. Response opcodes (server → client) mirror
// them with the high bit set; kErrorResponse carries a typed error frame
// (ErrorCode + message) which the client library rethrows as the matching C++
// exception — serve::OverloadError for sheds, std::invalid_argument for
// validation failures, ShuttingDownError during server drain.
//
// Responses carry the request's id and may interleave across opcodes on one
// connection. Classify responses come back in completion order, not
// submission order: a request served by a fast variant can overtake an
// earlier one queued on a slow variant. A pipelined client keeps many
// requests in flight and matches replies by id.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/serve/engine.h"
#include "src/serve/replica.h"
#include "src/tensor/tensor.h"

namespace blurnet::net {

inline constexpr std::uint32_t kMagic = 0x544E4C42;  // "BLNT"
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 16;
/// Default bound on a single frame (header + payload). Large enough for a
/// 64-image NCHW batch of 3x32x32 floats with room to spare; small enough
/// that a hostile length prefix cannot balloon a connection's buffer.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{16} << 20;

enum class Opcode : std::uint8_t {
  kClassify = 0x01,       // payload: ClassifyRequest, single CHW image
  kClassifyBatch = 0x02,  // payload: ClassifyRequest, NCHW batch
  kStats = 0x03,          // payload: empty
  kPing = 0x04,           // payload: empty

  kClassifyResponse = 0x81,       // payload: one Prediction
  kClassifyBatchResponse = 0x82,  // payload: N Predictions
  kStatsResponse = 0x83,          // payload: ServerStats
  kPongResponse = 0x84,           // payload: empty
  kErrorResponse = 0xFF,          // payload: ErrorFrame
};

const char* to_string(Opcode opcode);
bool is_request_opcode(Opcode opcode);
bool is_known_opcode(std::uint8_t raw);
/// The response opcode paired with a request opcode (kPing → kPongResponse).
Opcode response_for(Opcode request);

enum class ErrorCode : std::uint16_t {
  kInvalidRequest = 1,  // validation/decode failure; connection stays usable
  kOverload = 2,        // engine queue full — the request was shed
  kShuttingDown = 3,    // server is draining; no new work accepted
  kInternal = 4,        // unexpected server-side failure
};

const char* to_string(ErrorCode code);

/// Framing/protocol violations: bad magic, unknown version or opcode,
/// oversized length prefix, truncated or trailing payload bytes.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The server is draining: it replied with ErrorCode::kShuttingDown.
struct ShuttingDownError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The server replied with ErrorCode::kInternal.
struct RemoteError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- payload scribes --------------------------------------------------------

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f32(float v);
  void put_f64(double v);
  /// u16 length prefix + raw bytes. Throws WireError past 65535 bytes.
  void put_string(const std::string& s);

  std::vector<std::uint8_t>& bytes() { return out_; }
  const std::vector<std::uint8_t>& bytes() const { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian payload reader. Every overrun throws
/// WireError naming the field being read.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t get_u8(const char* field);
  std::uint16_t get_u16(const char* field);
  std::uint32_t get_u32(const char* field);
  std::uint64_t get_u64(const char* field);
  std::int64_t get_i64(const char* field) { return static_cast<std::int64_t>(get_u64(field)); }
  float get_f32(const char* field);
  double get_f64(const char* field);
  std::string get_string(const char* field);

  std::size_t remaining() const { return size_ - cursor_; }
  /// Reject trailing garbage: decoders call this once the payload is parsed.
  void expect_end(const char* what) const;

 private:
  const std::uint8_t* need(std::size_t n, const char* field);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// ---- typed payloads ---------------------------------------------------------

/// kClassify / kClassifyBatch payload: routing options plus the image bytes.
struct ClassifyRequest {
  std::string variant = serve::kBaseVariant;
  std::int32_t max_batch = 0;  // 0 = engine default
  tensor::Tensor images;       // CHW (kClassify) or NCHW (kClassifyBatch)
};

std::vector<std::uint8_t> encode_classify_request(const ClassifyRequest& request, bool batch);
ClassifyRequest decode_classify_request(const std::uint8_t* data, std::size_t size, bool batch);

std::vector<std::uint8_t> encode_predictions(const std::vector<serve::Prediction>& predictions,
                                             bool batch);
std::vector<serve::Prediction> decode_predictions(const std::uint8_t* data, std::size_t size,
                                                  bool batch);

/// kErrorResponse payload.
struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

std::vector<std::uint8_t> encode_error(const ErrorFrame& error);
ErrorFrame decode_error(const std::uint8_t* data, std::size_t size);

/// Rethrow a decoded error frame as its typed C++ exception: kOverload →
/// serve::OverloadError, kInvalidRequest → std::invalid_argument,
/// kShuttingDown → ShuttingDownError, kInternal → RemoteError.
[[noreturn]] void throw_error(const ErrorFrame& error);

// ---- server stats snapshot --------------------------------------------------

/// Per-variant serving counters as reported by the Stats opcode. One entry per
/// registered variant *name* (aliases included), sourced from
/// InferenceEngine::variant_names() + variant_stats().
struct WireVariantStats {
  std::string variant;
  std::int64_t replicas = 0;
  std::int64_t requests = 0;  // images served through the submit() queue
  std::int64_t images = 0;    // images through classify*/submit in total
  std::int64_t rejected = 0;
  std::int64_t queue_depth = 0;
  std::int64_t queue_peak = 0;
  std::int64_t latency_count = 0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
};

/// Per-connection counters (open connections at snapshot time).
struct WireConnectionStats {
  std::uint64_t id = 0;
  std::int64_t frames_in = 0;
  std::int64_t requests = 0;   // classify images admitted from this connection
  std::int64_t responses = 0;  // frames queued back to this connection
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
};

/// The Stats opcode's response (also Server::stats() locally): per-opcode and
/// per-connection counters alongside the engine's per-variant serving stats.
struct ServerStats {
  std::int64_t accepted = 0;           // connections ever accepted
  std::int64_t open_connections = 0;   // currently open
  std::int64_t frames_in = 0;          // well-formed frames decoded
  std::int64_t frames_out = 0;         // frames queued for write
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t classify = 0;           // kClassify frames handled
  std::int64_t classify_batch = 0;     // kClassifyBatch frames handled
  std::int64_t stats = 0;              // kStats frames handled
  std::int64_t ping = 0;               // kPing frames handled
  std::int64_t errors_sent = 0;        // kErrorResponse frames queued
  std::int64_t protocol_errors = 0;    // framing violations (connection closed)
  std::int64_t overloads = 0;          // requests shed with ErrorCode::kOverload
  std::int64_t shutdown_rejected = 0;  // requests refused during drain
  std::vector<WireVariantStats> variants;
  std::vector<WireConnectionStats> connections;
};

std::vector<std::uint8_t> encode_stats(const ServerStats& stats);
ServerStats decode_stats(const std::uint8_t* data, std::size_t size);

}  // namespace blurnet::net
