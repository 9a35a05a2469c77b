#include "src/net/server.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <utility>

#include "src/tensor/shape.h"

namespace blurnet::net {

namespace {

/// The loop's idle poll period: how often it re-checks the drain deadline
/// when nothing wakes it sooner.
constexpr int kPollTimeoutMs = 50;
constexpr std::size_t kReadChunk = 64 * 1024;

/// Copy image `index` out of an NCHW batch as a standalone CHW tensor.
tensor::Tensor slice_image(const tensor::Tensor& batch, int index) {
  const int c = batch.dim(1), h = batch.dim(2), w = batch.dim(3);
  tensor::Tensor image(tensor::Shape{c, h, w});
  const std::size_t stride = image.numel();
  std::memcpy(image.data(), batch.data() + static_cast<std::size_t>(index) * stride,
              stride * sizeof(float));
  return image;
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown failure";
  }
}

}  // namespace

void ServerConfig::validate() const {
  if (host.empty()) {
    throw std::invalid_argument("ServerConfig: host must not be empty");
  }
  if (backlog < 1) {
    throw std::invalid_argument("ServerConfig: backlog must be >= 1 (got " +
                                std::to_string(backlog) + ")");
  }
  if (max_frame_bytes < kHeaderBytes) {
    throw std::invalid_argument("ServerConfig: max_frame_bytes must be >= the " +
                                std::to_string(kHeaderBytes) + "-byte header (got " +
                                std::to_string(max_frame_bytes) + ")");
  }
  if (drain_timeout_ms < 1) {
    throw std::invalid_argument(
        "ServerConfig: drain_timeout_ms must be >= 1 (got " + std::to_string(drain_timeout_ms) +
        "); an unbounded drain would let one stuck request wedge shutdown");
  }
  if (max_outbox_bytes < 1) {
    throw std::invalid_argument("ServerConfig: max_outbox_bytes must be >= 1");
  }
  if (max_inflight_requests < 1) {
    throw std::invalid_argument("ServerConfig: max_inflight_requests must be >= 1 (got " +
                                std::to_string(max_inflight_requests) + ")");
  }
}

Server::Shared::Shared() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw SocketError(std::string("Server: pipe(): ") + std::strerror(errno));
  }
  wake_read_fd = pipe_fds[0];
  wake_write_fd = pipe_fds[1];
  set_nonblocking(wake_read_fd);
  set_nonblocking(wake_write_fd);
}

Server::Shared::~Shared() {
  ::close(wake_read_fd);
  ::close(wake_write_fd);
}

void Server::Shared::wake() {
  // A pending wake-up already covers this output: the loop clears the flag
  // before it services connections, so it will see it.
  if (wake_pending.exchange(true)) return;
  const std::uint8_t one = 1;
  // EAGAIN means the pipe already holds a pending wake-up; that is enough.
  [[maybe_unused]] const ssize_t rc = ::write(wake_write_fd, &one, 1);
}

Server::Server(serve::InferenceEngine& engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  config_.validate();
  listener_ = tcp_listen(config_.host, config_.port, config_.backlog);
  set_nonblocking(listener_.fd());
  port_ = local_port(listener_.fd());
  shared_ = std::make_shared<Shared>();
  loop_ = std::thread([this] { event_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<util::DebugMutex> lifecycle(lifecycle_mutex_);
  if (stopped_) return;
  stopped_ = true;
  draining_.store(true, std::memory_order_release);
  shared_->wake();
  if (loop_.joinable()) loop_.join();
}

void Server::event_loop() {
  bool drain_started = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    if (draining_.load(std::memory_order_acquire) && !drain_started) {
      drain_started = true;
      listener_.close();  // stop accepting immediately
      drain_deadline = Clock::now() + std::chrono::milliseconds(config_.drain_timeout_ms);
    }

    std::vector<pollfd> fds;
    fds.push_back({shared_->wake_read_fd, POLLIN, 0});
    if (listener_.is_open()) fds.push_back({listener_.fd(), POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (auto& conn : connections_) {
      short events = 0;
      {
        std::lock_guard<util::DebugMutex> lock(conn->mutex);
        // Backpressure: stop reading from a peer whose replies it is not
        // consuming (unflushed outbox past the bound), that already has a
        // full pipeline of unanswered classify requests. Reads resume once
        // the backlog drains — completions wake the loop as replies land.
        const bool outbox_full = conn->outbox.size() + conn->sending.size() - conn->sent >
                                 config_.max_outbox_bytes;
        const bool pipeline_full = conn->replies_in_flight >= config_.max_inflight_requests;
        if (!conn->input_closed && !outbox_full && !pipeline_full) {
          events |= POLLIN;
        }
        if (conn->sent < conn->sending.size()) events |= POLLOUT;
      }
      fds.push_back({conn->socket.fd(), events, 0});
    }

    int timeout_ms = kPollTimeoutMs;
    if (drain_started) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(drain_deadline - Clock::now())
              .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(left, 0, kPollTimeoutMs));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // poll failure: bail out and tear down

    // Drain the wake pipe, then re-arm wake-ups (in this order: output queued
    // after the re-arm writes a fresh byte, output before it is seen below).
    if (fds[0].revents & POLLIN) {
      std::uint8_t sink[64];
      while (::read(shared_->wake_read_fd, sink, sizeof(sink)) > 0) {
      }
    }
    shared_->woke();
    if (listener_.is_open() && fds.size() > 1 && (fds[1].revents & POLLIN)) accept_ready();

    // Service connections; collect the ones to tear down.
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      const std::shared_ptr<Connection>& conn = connections_[i];
      const short revents = first_conn + i < fds.size() ? fds[first_conn + i].revents : 0;
      bool alive = true;
      if (revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (revents & (POLLIN | POLLHUP))) {
        try {
          alive = read_ready(conn);
        } catch (const SocketError&) {
          alive = false;  // peer reset mid-read
        }
        // Note: read_ready() feeds the decoder and dispatches frames; it
        // buffers responses, so always try a flush afterwards.
      }
      if (alive) {
        try {
          alive = flush_outbox(*conn);
        } catch (const SocketError&) {
          alive = false;
        }
      }
      if (alive) {
        // Fully served and peer finished sending: close once nothing is
        // pending and everything queued has hit the wire.
        std::lock_guard<util::DebugMutex> lock(conn->mutex);
        const bool flushed = conn->sent == conn->sending.size() && conn->outbox.empty();
        if (flushed && conn->close_after_flush) alive = false;
        if (flushed && conn->input_closed && conn->replies_in_flight == 0) alive = false;
      }
      if (!alive) dead.push_back(i);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) retire(*it);

    if (drain_started) {
      bool idle = true;
      for (auto& conn : connections_) {
        std::lock_guard<util::DebugMutex> lock(conn->mutex);
        if (conn->replies_in_flight != 0 || conn->sent < conn->sending.size() ||
            !conn->outbox.empty()) {
          idle = false;
          break;
        }
      }
      if (idle || Clock::now() >= drain_deadline) break;
    }
  }

  // Teardown: abandon whatever is left (drain deadline passed, or poll died).
  while (!connections_.empty()) retire(connections_.size() - 1);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN/EWOULDBLOCK: accepted everything pending
    }
    Socket socket(fd);
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.push_back(std::make_shared<Connection>(
        std::move(socket), next_connection_id_.fetch_add(1, std::memory_order_relaxed),
        config_.max_frame_bytes, shared_));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<util::DebugMutex> lock(roster_mutex_);
    roster_ = connections_;
  }
}

bool Server::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t got = ::recv(conn->socket.fd(), chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // reset
    }
    if (got == 0) {
      // Peer finished sending (half-close). Pending replies still flush; the
      // connection closes once they have.
      conn->input_closed = true;
      break;
    }
    bytes_in_.fetch_add(got, std::memory_order_relaxed);
    conn->bytes_in.fetch_add(got, std::memory_order_relaxed);
    conn->decoder.feed(chunk, static_cast<std::size_t>(got));
    Frame frame;
    try {
      while (conn->decoder.next(frame)) {
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        conn->frames_in.fetch_add(1, std::memory_order_relaxed);
        handle_frame(conn, frame);
      }
    } catch (const WireError& e) {
      // Framing violation: byte alignment is lost, so report and close. The
      // error frame carries id 0 — it cannot be tied to a request.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      queue_error(*conn, 0, {ErrorCode::kInvalidRequest, e.what()});
      conn->input_closed = true;
      conn->close_after_flush = true;
      break;
    }
  }
  return true;
}

bool Server::flush_outbox(Connection& conn) {
  for (;;) {
    if (conn.sent == conn.sending.size()) {
      conn.sending.clear();
      conn.sent = 0;
      std::lock_guard<util::DebugMutex> lock(conn.mutex);
      if (conn.outbox.empty()) return true;
      conn.sending.swap(conn.outbox);
    }
    const ssize_t wrote = ::send(conn.socket.fd(), conn.sending.data() + conn.sent,
                                 conn.sending.size() - conn.sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // retry on POLLOUT
      return false;  // peer gone
    }
    conn.sent += static_cast<std::size_t>(wrote);
    bytes_out_.fetch_add(wrote, std::memory_order_relaxed);
    conn.bytes_out.fetch_add(wrote, std::memory_order_relaxed);
  }
}

bool Server::queue_frame(Connection& conn, Opcode opcode, std::uint32_t request_id,
                         const std::vector<std::uint8_t>& payload) {
  {
    std::lock_guard<util::DebugMutex> lock(conn.mutex);
    if (conn.abandoned) return false;
    append_frame(conn.outbox, opcode, request_id, payload);
  }
  conn.shared->frames_out.fetch_add(1, std::memory_order_relaxed);
  conn.responses.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::queue_error(Connection& conn, std::uint32_t request_id, const ErrorFrame& error) {
  if (!queue_frame(conn, Opcode::kErrorResponse, request_id, encode_error(error))) return;
  Shared& shared = *conn.shared;
  shared.errors_sent.fetch_add(1, std::memory_order_relaxed);
  if (error.code == ErrorCode::kOverload) shared.overloads.fetch_add(1, std::memory_order_relaxed);
  if (error.code == ErrorCode::kShuttingDown) {
    shared.shutdown_rejected.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::fail(Reply& reply, ErrorFrame error) {
  if (!reply.failed.exchange(true)) reply.error = std::move(error);
}

bool Server::drop_hold(Connection& conn, Reply& reply) {
  if (reply.holds.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
  if (reply.failed.load(std::memory_order_relaxed)) {
    queue_error(conn, reply.request_id, reply.error);
  } else {
    queue_frame(conn, reply.batch ? Opcode::kClassifyBatchResponse : Opcode::kClassifyResponse,
                reply.request_id, encode_predictions(reply.predictions, reply.batch));
  }
  // Only now does the request stop counting as in flight: the loop never
  // closes a connection that still owes a reply.
  std::lock_guard<util::DebugMutex> lock(conn.mutex);
  --conn.replies_in_flight;
  return true;
}

void Server::complete(Connection& conn, Reply& reply, int index, serve::Prediction prediction,
                      std::exception_ptr error) {
  if (error) {
    // A failed forward (throwing transform, replica error) fails the whole
    // request; a batch reports its first failure.
    fail(reply, {ErrorCode::kInternal, describe(error)});
  } else {
    reply.predictions[static_cast<std::size_t>(index)] = std::move(prediction);
  }
  if (drop_hold(conn, reply)) conn.shared->wake();
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kPing:
      ping_.fetch_add(1, std::memory_order_relaxed);
      queue_frame(*conn, Opcode::kPongResponse, frame.request_id, {});
      return;
    case Opcode::kStats:
      stats_.fetch_add(1, std::memory_order_relaxed);
      queue_frame(*conn, Opcode::kStatsResponse, frame.request_id, encode_stats(stats()));
      return;
    case Opcode::kClassify:
      classify_.fetch_add(1, std::memory_order_relaxed);
      handle_classify(conn, frame, /*batch=*/false);
      return;
    case Opcode::kClassifyBatch:
      classify_batch_.fetch_add(1, std::memory_order_relaxed);
      handle_classify(conn, frame, /*batch=*/true);
      return;
    default:
      // A response opcode sent *to* the server. The frame was well-formed, so
      // the stream stays aligned and the connection stays usable.
      queue_error(*conn, frame.request_id,
                  {ErrorCode::kInvalidRequest,
                   std::string("server received response opcode ") + to_string(frame.opcode) +
                       " (clients send kClassify/kClassifyBatch/kStats/kPing)"});
      return;
  }
}

void Server::handle_classify(const std::shared_ptr<Connection>& conn, const Frame& frame,
                             bool batch) {
  ClassifyRequest request;
  try {
    request = decode_classify_request(frame.payload.data(), frame.payload.size(), batch);
  } catch (const WireError& e) {
    // Payload decode failure: framing was fine, so only this request fails.
    queue_error(*conn, frame.request_id, {ErrorCode::kInvalidRequest, e.what()});
    return;
  } catch (const std::exception& e) {
    // Defense in depth: a failure past the codec's own validation (e.g. the
    // image allocation) fails the request, never the process.
    queue_error(*conn, frame.request_id, {ErrorCode::kInvalidRequest, e.what()});
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    queue_error(*conn, frame.request_id,
                {ErrorCode::kShuttingDown, "blurnetd is draining; no new classify requests accepted"});
    return;
  }

  {
    std::lock_guard<util::DebugMutex> lock(conn->mutex);
    ++conn->replies_in_flight;
  }
  admit(conn, std::make_shared<Reply>(frame.request_id, batch,
                                      batch ? static_cast<std::size_t>(request.images.dim(0)) : 1),
        request);
}

void Server::admit(const std::shared_ptr<Connection>& conn, const std::shared_ptr<Reply>& reply,
                   const ClassifyRequest& request) {
  const int count = static_cast<int>(reply->predictions.size());
  serve::Options options;
  options.variant = request.variant;
  options.max_batch = request.max_batch;
  std::optional<ErrorFrame> failure;
  for (int index = 0; index < count && !failure; ++index) {
    // The image's hold, taken before its completion can possibly run.
    reply->holds.fetch_add(1, std::memory_order_relaxed);
    bool admitted = false;
    try {
      admitted = engine_.try_submit(
          reply->batch ? slice_image(request.images, index) : request.images, options,
          [conn, reply, index](serve::Prediction prediction, std::exception_ptr error) {
            complete(*conn, *reply, index, std::move(prediction), error);
          });
    } catch (const std::invalid_argument& e) {
      // Unknown variant / bad shape: the engine's message lists the
      // registered variants, which travels back to the client verbatim.
      failure = ErrorFrame{ErrorCode::kInvalidRequest, e.what()};
    } catch (const std::exception& e) {
      // Anything else the engine throws (e.g. "engine is shutting down")
      // becomes a typed frame, never an escaped exception.
      failure = ErrorFrame{ErrorCode::kInternal, e.what()};
    }
    if (admitted) {
      conn->requests.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    drop_hold(*conn, *reply);  // the image's hold: its completion will never run
    // Refused without an error means the shard is full. A batch already
    // partly admitted fails as one unit; the admitted images' completions
    // still count down into its reply.
    if (!failure) {
      failure =
          ErrorFrame{ErrorCode::kOverload, "variant \"" + options.variant + "\" queue is full"};
    }
  }
  if (failure) fail(*reply, std::move(*failure));
  drop_hold(*conn, *reply);  // the loop's hold: admission is over
}

void Server::retire(std::size_t index) {
  auto conn = connections_[index];
  connections_.erase(connections_.begin() + static_cast<std::ptrdiff_t>(index));
  {
    std::lock_guard<util::DebugMutex> lock(roster_mutex_);
    roster_ = connections_;
  }
  {
    std::lock_guard<util::DebugMutex> lock(conn->mutex);
    conn->abandoned = true;
  }
  conn->socket.close();
}

ServerStats Server::stats() const {
  ServerStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.frames_in = frames_in_.load(std::memory_order_relaxed);
  out.frames_out = shared_->frames_out.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  out.classify = classify_.load(std::memory_order_relaxed);
  out.classify_batch = classify_batch_.load(std::memory_order_relaxed);
  out.stats = stats_.load(std::memory_order_relaxed);
  out.ping = ping_.load(std::memory_order_relaxed);
  out.errors_sent = shared_->errors_sent.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.overloads = shared_->overloads.load(std::memory_order_relaxed);
  out.shutdown_rejected = shared_->shutdown_rejected.load(std::memory_order_relaxed);

  {
    std::lock_guard<util::DebugMutex> lock(roster_mutex_);
    out.open_connections = static_cast<std::int64_t>(roster_.size());
    out.connections.reserve(roster_.size());
    for (const auto& conn : roster_) {
      WireConnectionStats c;
      c.id = conn->id;
      c.frames_in = conn->frames_in.load(std::memory_order_relaxed);
      c.requests = conn->requests.load(std::memory_order_relaxed);
      c.responses = conn->responses.load(std::memory_order_relaxed);
      c.bytes_in = conn->bytes_in.load(std::memory_order_relaxed);
      c.bytes_out = conn->bytes_out.load(std::memory_order_relaxed);
      out.connections.push_back(c);
    }
  }

  for (const auto& name : engine_.variant_names()) {
    const serve::VariantStats vs = engine_.variant_stats(name);
    WireVariantStats v;
    v.variant = name;
    v.replicas = static_cast<std::int64_t>(vs.replicas.size());
    for (const auto& r : vs.replicas) {
      v.requests += r.requests;
      v.images += r.images;
    }
    v.rejected = vs.rejected;
    v.queue_depth = vs.queue_depth;
    v.queue_peak = vs.queue_peak;
    v.latency_count = static_cast<std::int64_t>(vs.latency.count);
    v.latency_mean_us = vs.latency.mean_us;
    v.latency_p50_us = vs.latency.p50_us;
    v.latency_p99_us = vs.latency.p99_us;
    v.latency_p999_us = vs.latency.p999_us;
    out.variants.push_back(std::move(v));
  }
  return out;
}

}  // namespace blurnet::net
