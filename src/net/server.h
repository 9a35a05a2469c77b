// blurnetd: the socket serving front-end for serve::InferenceEngine.
//
// A Server binds one TCP listen socket and runs a small poll()-based event
// loop on its own thread — the server's only thread, however many
// connections it holds. The loop accepts connections, reassembles frames
// from nonblocking reads (FrameDecoder), decodes requests, admits them with
// the engine's non-blocking try_submit(), and writes queued response bytes
// back with short-write handling. Remote traffic inherits batching, replica
// sharding, bounded-queue admission control and latency measurement
// unchanged; classify work never executes on the loop:
//
//   wire → decode → try_submit() → coalesced replica forward → completion → encode → wire
//
// Each request's engine completion runs on the replica worker that served
// it: it encodes the prediction (or typed error) frame into the connection's
// outbox and wakes the loop to flush it. A kClassifyBatch request gathers its
// images' completions with a countdown and replies once, in input order.
// Replies therefore come back in completion order — a fast variant's reply
// may overtake a slow one's on the same connection — and clients correlate
// by request id (the client library pipelines on exactly this).
//
// When the engine refuses a request because its shard is full, the loop
// answers with a kOverload frame at once; nothing waits for shard space.
//
// Backpressure is bidirectional: the loop stops reading from a connection
// whose unflushed outbox exceeds ServerConfig::max_outbox_bytes (a client
// that pipelines requests without reading replies cannot grow server memory
// without bound) or that already has max_inflight_requests classify requests
// unanswered; reads resume as the backlog drains.
//
// Failure is always a *frame*, never a dropped connection (except framing
// violations, where byte alignment is lost): an engine refusal becomes an
// ErrorCode::kOverload frame, validation failures (unknown variant, bad
// shape — the engine's descriptive messages, which list the registered
// variants) become kInvalidRequest, a failed forward becomes kInternal, and
// requests arriving while the server drains become kShuttingDown.
//
// stop() is graceful: the listener closes immediately, requests already
// admitted keep draining (bounded by
// ServerConfig::drain_timeout_ms), new classify requests are refused with
// kShuttingDown frames, and once every connection is idle — or the deadline
// passes — connections are closed and the loop joins. Completions of
// requests abandoned at the deadline may still fire later; they only touch
// state they share ownership of. The destructor calls stop().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/serve/engine.h"
#include "src/util/lockdep.h"

namespace blurnet::net {

struct ServerConfig {
  /// Numeric IPv4 bind address. Loopback by default: blurnetd speaks an
  /// unauthenticated protocol, so exposing it beyond the host is a deliberate
  /// operator decision.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with Server::port().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Bound on any single frame (header + payload), both directions.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// stop(): longest wait for in-flight requests to drain before connections
  /// are closed anyway. Must be >= 1 — an unbounded drain would let one stuck
  /// request wedge shutdown forever.
  int drain_timeout_ms = 5000;
  /// Write backpressure: while a connection's unflushed outbox exceeds this
  /// many bytes, the loop stops reading from it (resuming once the backlog
  /// flushes), so a peer that pipelines requests without reading replies
  /// cannot grow server memory without bound.
  std::size_t max_outbox_bytes = std::size_t{8} << 20;
  /// Read backpressure: while a connection has this many decoded classify
  /// requests unanswered, the loop stops reading from it. Bounds the decoded
  /// image tensors a pipelining client can park server-side.
  int max_inflight_requests = 1024;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (engine validation style).
  void validate() const;
};

class Server {
 public:
  /// Validates the config, binds and listens, and starts the event loop.
  /// The engine must outlive the server.
  Server(serve::InferenceEngine& engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves an ephemeral bind).
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  /// True once stop() has been requested (drain may still be in progress).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Graceful shutdown: stop accepting, refuse new classify requests with
  /// kShuttingDown frames, drain in-flight requests (bounded by
  /// drain_timeout_ms), flush outboxes, then close every connection and join
  /// the loop. Idempotent and safe to call from any thread; blocks until
  /// shutdown is complete.
  void stop();

  /// Counter snapshot: per-opcode totals, per-open-connection counters, and
  /// the engine's per-variant stats (every name from variant_names(), aliases
  /// included). This is exactly the Stats opcode's payload.
  ServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// What a completion touches besides its connection: the loop's wake pipe
  /// and the reply counters. Every connection (and so every in-flight
  /// completion) shares ownership, so a completion that fires after the
  /// Server is gone still finds an open pipe and live counters.
  struct Shared {
    Shared();   // opens the nonblocking self-pipe
    ~Shared();  // closes it
    Shared(const Shared&) = delete;
    Shared& operator=(const Shared&) = delete;

    /// Signal the event loop (completions call this after queueing output).
    /// Writes the pipe only when no wake-up is pending since the loop last
    /// woke, so a burst of completions costs one syscall.
    void wake();
    /// Called by the loop when it wakes, before it services connections.
    void woke() { wake_pending.store(false); }

    int wake_read_fd = -1;
    int wake_write_fd = -1;
    std::atomic<bool> wake_pending{false};
    std::atomic<std::int64_t> frames_out{0};
    std::atomic<std::int64_t> errors_sent{0};
    std::atomic<std::int64_t> overloads{0};
    std::atomic<std::int64_t> shutdown_rejected{0};
  };

  /// The reply to one classify (or classify-batch) request, gathered by a
  /// countdown: the loop holds one count while it admits the request's
  /// images and each admitted image holds one until its completion runs.
  /// Whoever drops the last count writes the frame; the countdown's
  /// acquire-release ordering publishes every slot and the error to it.
  struct Reply {
    Reply(std::uint32_t id, bool batch, std::size_t images)
        : request_id(id), batch(batch), predictions(images) {}

    const std::uint32_t request_id;
    const bool batch;
    std::vector<serve::Prediction> predictions;  // slot i: written by image i's completion
    std::atomic<int> holds{1};
    std::atomic<bool> failed{false};
    ErrorFrame error;  // the first failure: written once, by whoever set `failed`
  };

  struct Connection {
    Connection(Socket sock, std::uint64_t id, std::size_t max_frame_bytes,
               std::shared_ptr<Shared> shared)
        : socket(std::move(sock)), id(id), decoder(max_frame_bytes), shared(std::move(shared)) {}

    Socket socket;
    const std::uint64_t id;
    FrameDecoder decoder;
    const std::shared_ptr<Shared> shared;

    // Loop thread only.
    bool input_closed = false;        // no further requests will be read
    bool close_after_flush = false;   // framing error: flush the error frame, then close
    std::vector<std::uint8_t> sending;  // frames taken from outbox, being written
    std::size_t sent = 0;               // written prefix of `sending`

    // Shared with completions.
    util::DebugMutex mutex BLURNET_LOCK_CLASS("net::Server::connection");
    std::vector<std::uint8_t> outbox;  // encoded frames not yet taken for writing
    int replies_in_flight = 0;         // classify requests decoded, not yet answered
    bool abandoned = false;            // retired: late completions write nothing

    // Per-connection counters (atomic: stats() reads them from any thread).
    std::atomic<std::int64_t> frames_in{0};
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> responses{0};
    std::atomic<std::int64_t> bytes_in{0};
    std::atomic<std::int64_t> bytes_out{0};
  };

  void event_loop();
  void accept_ready();
  /// Read-ready connection: pull bytes, decode frames, dispatch. Returns
  /// false when the connection should be torn down (EOF/reset).
  bool read_ready(const std::shared_ptr<Connection>& conn);
  /// Write as much queued output as the socket accepts, holding the
  /// connection's lock only to take the outbox. Returns false on write
  /// failure (peer gone).
  bool flush_outbox(Connection& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void handle_classify(const std::shared_ptr<Connection>& conn, const Frame& frame, bool batch);
  /// Admit `request`'s images through try_submit(), in order. The first
  /// refusal or error fails the whole reply (a full shard as kOverload);
  /// images already admitted still count down into it.
  void admit(const std::shared_ptr<Connection>& conn, const std::shared_ptr<Reply>& reply,
             const ClassifyRequest& request);
  /// Queue an error frame on the connection (counts errors_sent + specific
  /// counters per code).
  static void queue_error(Connection& conn, std::uint32_t request_id, const ErrorFrame& error);
  /// Queue a frame on the connection. Returns false, queueing nothing, once
  /// the connection is retired.
  static bool queue_frame(Connection& conn, Opcode opcode, std::uint32_t request_id,
                          const std::vector<std::uint8_t>& payload);
  /// Record `error` as the reply's outcome unless an earlier failure is.
  static void fail(Reply& reply, ErrorFrame error);
  /// Drop one hold on `reply`; the last one writes its frame and returns
  /// true (the caller then wakes the loop if it is not the loop).
  static bool drop_hold(Connection& conn, Reply& reply);
  /// The engine completion of image `index`: store its outcome and drop its
  /// hold. Runs on a replica worker, possibly after the Server is gone.
  static void complete(Connection& conn, Reply& reply, int index, serve::Prediction prediction,
                       std::exception_ptr error);
  /// Abandon + close a connection. Its late completions write nothing.
  void retire(std::size_t index);

  serve::InferenceEngine& engine_;
  ServerConfig config_;
  std::uint16_t port_ = 0;

  Socket listener_;
  std::shared_ptr<Shared> shared_;

  std::atomic<bool> draining_{false};

  std::thread loop_;
  // `connections_` is the live set, loop-thread only. A connection is owned
  // by shared_ptrs held there and by its in-flight completions.
  // Lock hierarchy (outermost first): lifecycle -> roster -> connection,
  // with the engine's locks (shards -> queue) never held together with any of
  // them: the loop calls try_submit() holding no connection lock, and the
  // engine runs completions holding no engine lock. Locks on one level are
  // never nested (e.g. two connections' mutexes are never held together).
  // Enforced in Debug builds by util::DebugMutex (src/util/lockdep.h).
  std::vector<std::shared_ptr<Connection>> connections_;

  // serializes stop() callers
  util::DebugMutex lifecycle_mutex_ BLURNET_LOCK_CLASS("net::Server::lifecycle");
  bool stopped_ = false;

  std::atomic<std::uint64_t> next_connection_id_{1};
  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> frames_in_{0};
  std::atomic<std::int64_t> bytes_in_{0};
  std::atomic<std::int64_t> bytes_out_{0};
  std::atomic<std::int64_t> classify_{0};
  std::atomic<std::int64_t> classify_batch_{0};
  std::atomic<std::int64_t> stats_{0};
  std::atomic<std::int64_t> ping_{0};
  std::atomic<std::int64_t> protocol_errors_{0};

  // `connections_` is loop-thread-only, but stats() runs on caller threads;
  // this mutex guards the snapshot the loop maintains for it.
  mutable util::DebugMutex roster_mutex_ BLURNET_LOCK_CLASS("net::Server::roster");
  std::vector<std::shared_ptr<Connection>> roster_;
};

}  // namespace blurnet::net
