#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/defense/input_transform.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/serve/engine.h"
#include "src/serve/loadgen.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace blurnet::net {
namespace {

nn::LisaCnnConfig small_model_config() {
  nn::LisaCnnConfig config;
  config.conv1_filters = 8;
  config.conv2_filters = 16;
  config.conv3_filters = 32;
  return config;
}

serve::EngineConfig small_engine_config(int replicas = 1) {
  serve::EngineConfig config;
  config.model = small_model_config();
  config.defense = {nn::FilterPlacement::kAfterLayer1, 3, signal::KernelKind::kBox};
  config.replicas = replicas;
  return config;
}

tensor::Tensor random_batch(std::int64_t n, std::uint64_t seed = 5) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(tensor::Shape::nchw(n, 3, 32, 32), rng);
}

tensor::Tensor single_image(const tensor::Tensor& batch, std::int64_t i) {
  const std::int64_t stride = batch.dim(1) * batch.dim(2) * batch.dim(3);
  tensor::Tensor image(tensor::Shape{batch.dim(1), batch.dim(2), batch.dim(3)});
  std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride, image.data());
  return image;
}

void expect_bitwise_equal(const serve::Prediction& a, const serve::Prediction& b,
                          const std::string& context) {
  EXPECT_EQ(a.label, b.label) << context;
  ASSERT_EQ(a.logits.size(), b.logits.size()) << context;
  for (std::size_t k = 0; k < a.logits.size(); ++k) {
    EXPECT_EQ(a.logits[k], b.logits[k]) << context << " logit " << k;
  }
}

/// A preprocess gate: apply() blocks until open(). Lets shutdown tests hold a
/// request in flight deterministically.
class GateTransform : public defense::InputTransform {
 public:
  GateTransform() : InputTransform(defense::TransformSpec::none(), "gate") {}

  tensor::Tensor apply(const tensor::Tensor& images) const override {
    entered_.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
    return images.clone();
  }

  void wait_entered(int n) const {
    while (entered_.load() < n) std::this_thread::yield();
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::atomic<int> entered_{0};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

/// The base weights behind `transform`, as register_variant() takes them.
serve::VariantSpec behind(defense::TransformPtr transform) {
  serve::VariantSpec spec;
  spec.transform = std::move(transform);
  return spec;
}

// ---- framing ---------------------------------------------------------------

TEST(Frame, RoundTripsOneByteAtATime) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 7};
  const auto bytes = encode_frame(Opcode::kClassify, 0xDEADBEEF, payload);
  FrameDecoder decoder;
  Frame frame;
  // Feed the stream a single byte at a time: the decoder must never yield a
  // frame early and must yield exactly one at the end.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    EXPECT_FALSE(decoder.next(frame)) << "frame yielded " << (bytes.size() - 1 - i)
                                      << " bytes early";
  }
  decoder.feed(&bytes.back(), 1);
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.opcode, Opcode::kClassify);
  EXPECT_EQ(frame.request_id, 0xDEADBEEFu);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, YieldsMultipleFramesFromOneFeed) {
  std::vector<std::uint8_t> stream;
  append_frame(stream, Opcode::kPing, 1, {});
  append_frame(stream, Opcode::kStats, 2, {});
  append_frame(stream, Opcode::kClassify, 3, {9, 9});
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.opcode, Opcode::kPing);
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.opcode, Opcode::kStats);
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.opcode, Opcode::kClassify);
  EXPECT_EQ(frame.payload.size(), 2u);
  EXPECT_FALSE(decoder.next(frame));
}

TEST(Frame, RejectsBadMagicVersionOpcodeAndReserved) {
  const auto good = encode_frame(Opcode::kPing, 1, {});
  Frame frame;
  {
    auto bytes = good;
    bytes[0] ^= 0xFF;  // corrupt the magic
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(frame), WireError);
  }
  {
    auto bytes = good;
    bytes[4] = 99;  // unsupported version
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(frame), WireError);
  }
  {
    auto bytes = good;
    bytes[5] = 0x7E;  // unknown opcode
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(frame), WireError);
  }
  {
    auto bytes = good;
    bytes[6] = 1;  // reserved bytes must be zero
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW(decoder.next(frame), WireError);
  }
}

TEST(Frame, RejectsOversizedLengthPrefixBeforeBuffering) {
  // A hostile length prefix must be rejected from the header alone — the
  // decoder may never wait for (or allocate) the claimed payload.
  auto bytes = encode_frame(Opcode::kClassify, 7, {1, 2, 3});
  bytes[12] = 0xFF;
  bytes[13] = 0xFF;
  bytes[14] = 0xFF;
  bytes[15] = 0x7F;  // claims ~2 GiB
  FrameDecoder decoder;  // default 16 MiB bound
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  try {
    decoder.next(frame);
    FAIL() << "expected WireError for the oversized length prefix";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("frame bound"), std::string::npos) << e.what();
  }
}

TEST(Frame, DecoderRejectsUnusableFrameBound) {
  EXPECT_THROW(FrameDecoder(kHeaderBytes - 1), std::invalid_argument);
}

// ---- payload codecs --------------------------------------------------------

TEST(Wire, ClassifyRequestRoundTripsBitwise) {
  ClassifyRequest request;
  request.variant = "defended";
  request.max_batch = 17;
  request.images = random_batch(3, 21);
  const auto bytes = encode_classify_request(request, /*batch=*/true);
  const ClassifyRequest decoded = decode_classify_request(bytes.data(), bytes.size(), true);
  EXPECT_EQ(decoded.variant, "defended");
  EXPECT_EQ(decoded.max_batch, 17);
  ASSERT_EQ(decoded.images.rank(), 4);
  ASSERT_EQ(decoded.images.numel(), request.images.numel());
  for (std::int64_t i = 0; i < request.images.numel(); ++i) {
    EXPECT_EQ(decoded.images.data()[i], request.images.data()[i]) << "pixel " << i;
  }

  ClassifyRequest one;
  one.images = single_image(request.images, 1);
  const auto single_bytes = encode_classify_request(one, /*batch=*/false);
  const ClassifyRequest single_decoded =
      decode_classify_request(single_bytes.data(), single_bytes.size(), false);
  ASSERT_EQ(single_decoded.images.rank(), 3);
  for (std::int64_t i = 0; i < one.images.numel(); ++i) {
    EXPECT_EQ(single_decoded.images.data()[i], one.images.data()[i]) << "pixel " << i;
  }
}

TEST(Wire, ClassifyRequestDecodesFromMisalignedBuffer) {
  // The wire format gives no alignment guarantees: a payload sliced out of a
  // TCP stream can start at any byte offset, so the f32 read path must go
  // through memcpy, never a reinterpret_cast load. Shift the payload to an
  // odd address and expect a bitwise-identical decode (ASan/UBSan builds turn
  // an aligned-load shortcut here into a hard failure).
  ClassifyRequest request;
  request.variant = "defended";
  request.images = random_batch(2, 9);
  const auto bytes = encode_classify_request(request, /*batch=*/true);

  std::vector<std::uint8_t> shifted(bytes.size() + 1);
  shifted[0] = 0xA5;
  std::copy(bytes.begin(), bytes.end(), shifted.begin() + 1);
  const std::uint8_t* misaligned = shifted.data() + 1;
  ASSERT_NE(reinterpret_cast<std::uintptr_t>(misaligned) % alignof(float), 0u);

  const ClassifyRequest decoded = decode_classify_request(misaligned, bytes.size(), true);
  EXPECT_EQ(decoded.variant, "defended");
  ASSERT_EQ(decoded.images.numel(), request.images.numel());
  for (std::int64_t i = 0; i < request.images.numel(); ++i) {
    EXPECT_EQ(decoded.images.data()[i], request.images.data()[i]) << "pixel " << i;
  }
}

TEST(Wire, ClassifyRequestRejectsTruncationAndTrailingBytes) {
  ClassifyRequest request;
  request.images = single_image(random_batch(1, 23), 0);
  auto bytes = encode_classify_request(request, false);
  const auto truncated_size = bytes.size() - 7;
  EXPECT_THROW(decode_classify_request(bytes.data(), truncated_size, false), WireError);
  bytes.push_back(0);  // trailing garbage after a complete payload
  EXPECT_THROW(decode_classify_request(bytes.data(), bytes.size(), false), WireError);
}

TEST(Wire, ClassifyRequestRejectsOverflowingDims) {
  // n*c*h*w = 2^62 elements: the byte count wraps mod 2^64 to 0, which would
  // match an empty payload and drive a gigantic Tensor allocation if the
  // decoder multiplied blindly. It must reject from the dims alone.
  WireWriter w;
  w.put_string(serve::kBaseVariant);
  w.put_u32(0);        // max_batch
  w.put_u32(131072);   // n = 2^17
  w.put_u16(0x8000);   // c = 2^15
  w.put_u16(0x8000);   // h
  w.put_u16(0x8000);   // w
  const auto& bytes = w.bytes();
  EXPECT_THROW(decode_classify_request(bytes.data(), bytes.size(), true), WireError);

  // Non-wrapping but still absurd: a huge batch count over a tiny payload.
  WireWriter big;
  big.put_string(serve::kBaseVariant);
  big.put_u32(0);
  big.put_u32(0xFFFFFFFFu);
  big.put_u16(3);
  big.put_u16(32);
  big.put_u16(32);
  big.bytes().resize(big.bytes().size() + 64, 0);  // 16 pixels of payload
  EXPECT_THROW(decode_classify_request(big.bytes().data(), big.bytes().size(), true),
               WireError);
}

TEST(Wire, PredictionsRejectHostileCountsBeforeAllocating) {
  {
    WireWriter w;
    w.put_u32(0xFFFFFFFFu);  // prediction count with no bytes behind it
    const auto& bytes = w.bytes();
    EXPECT_THROW(decode_predictions(bytes.data(), bytes.size(), true), WireError);
  }
  {
    WireWriter w;  // one prediction claiming 2^32-1 logits
    w.put_u32(3);            // label
    w.put_f32(1.0f);         // confidence
    w.put_u32(0xFFFFFFFFu);  // logit count
    const auto& bytes = w.bytes();
    EXPECT_THROW(decode_predictions(bytes.data(), bytes.size(), false), WireError);
  }
  {
    WireWriter w;  // stats snapshot claiming 2^32-1 variant entries
    for (int i = 0; i < 14; ++i) w.put_i64(0);  // scalar counters
    w.put_u32(0xFFFFFFFFu);
    const auto& bytes = w.bytes();
    EXPECT_THROW(decode_stats(bytes.data(), bytes.size()), WireError);
  }
}

TEST(Wire, PredictionsRoundTripBitwise) {
  std::vector<serve::Prediction> predictions(2);
  predictions[0].label = 3;
  predictions[0].confidence = 0.625f;
  predictions[0].logits = {-1.5f, 0.0f, 3.25f, 7.125f};
  predictions[1].label = 0;
  predictions[1].confidence = 1.0f;
  predictions[1].logits = {42.0f, -0.0f, 1e-30f, 2e30f};
  const auto bytes = encode_predictions(predictions, /*batch=*/true);
  const auto decoded = decode_predictions(bytes.data(), bytes.size(), true);
  ASSERT_EQ(decoded.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    expect_bitwise_equal(decoded[i], predictions[i], "prediction " + std::to_string(i));
    EXPECT_EQ(decoded[i].confidence, predictions[i].confidence);
  }
}

TEST(Wire, ErrorFramesRethrowAsTypedExceptions) {
  const auto round_trip = [](ErrorCode code) {
    const auto bytes = encode_error({code, "boom"});
    return decode_error(bytes.data(), bytes.size());
  };
  EXPECT_THROW(throw_error(round_trip(ErrorCode::kOverload)), serve::OverloadError);
  EXPECT_THROW(throw_error(round_trip(ErrorCode::kInvalidRequest)), std::invalid_argument);
  EXPECT_THROW(throw_error(round_trip(ErrorCode::kShuttingDown)), ShuttingDownError);
  EXPECT_THROW(throw_error(round_trip(ErrorCode::kInternal)), RemoteError);
}

TEST(Wire, StatsRoundTrip) {
  ServerStats stats;
  stats.accepted = 5;
  stats.open_connections = 2;
  stats.frames_in = 100;
  stats.classify = 60;
  stats.overloads = 3;
  WireVariantStats variant;
  variant.variant = "base";
  variant.replicas = 2;
  variant.requests = 58;
  variant.latency_p99_us = 1234.5;
  stats.variants.push_back(variant);
  WireConnectionStats connection;
  connection.id = 9;
  connection.bytes_in = 4096;
  stats.connections.push_back(connection);

  const auto bytes = encode_stats(stats);
  const ServerStats decoded = decode_stats(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.accepted, 5);
  EXPECT_EQ(decoded.open_connections, 2);
  EXPECT_EQ(decoded.frames_in, 100);
  EXPECT_EQ(decoded.classify, 60);
  EXPECT_EQ(decoded.overloads, 3);
  ASSERT_EQ(decoded.variants.size(), 1u);
  EXPECT_EQ(decoded.variants[0].variant, "base");
  EXPECT_EQ(decoded.variants[0].replicas, 2);
  EXPECT_EQ(decoded.variants[0].requests, 58);
  EXPECT_EQ(decoded.variants[0].latency_p99_us, 1234.5);
  ASSERT_EQ(decoded.connections.size(), 1u);
  EXPECT_EQ(decoded.connections[0].id, 9u);
  EXPECT_EQ(decoded.connections[0].bytes_in, 4096);
}

// ---- server + client over loopback -----------------------------------------

TEST(Server, PingStatsAndCounters) {
  serve::InferenceEngine engine(small_engine_config());
  Server server(engine, {});
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());
  client.ping();
  client.ping();
  const ServerStats stats = client.stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.open_connections, 1);
  EXPECT_EQ(stats.ping, 2);
  EXPECT_EQ(stats.stats, 1);
  EXPECT_EQ(stats.protocol_errors, 0);
  // The Stats opcode reports every registered variant by name.
  ASSERT_EQ(stats.variants.size(), 2u);
  EXPECT_EQ(stats.variants[0].variant, serve::kBaseVariant);
  EXPECT_EQ(stats.variants[1].variant, serve::kDefendedVariant);
  EXPECT_EQ(stats.variants[0].replicas, 1);
  server.stop();
}

TEST(Server, LoopbackClassifyMatchesInProcessBitwise) {
  const auto batch = random_batch(6, 31);
  for (const int replicas : {1, 2, 4}) {
    serve::InferenceEngine engine(small_engine_config(replicas));
    const auto expected_base = engine.classify(batch);
    const auto expected_defended = engine.classify(batch, serve::Options{serve::kDefendedVariant});
    Server server(engine, {});

    // Two connections, pipelined sends interleaving variants and single/batch
    // opcodes: the loopback path must reproduce in-process classify() bit for
    // bit regardless of replica count, connection or interleaving.
    Client first("127.0.0.1", server.port());
    Client second("127.0.0.1", server.port());
    std::vector<std::uint32_t> first_ids, second_ids;
    for (std::int64_t i = 0; i < 6; ++i) {
      first_ids.push_back(first.send_classify(single_image(batch, i)));
      second_ids.push_back(
          second.send_classify(single_image(batch, i), serve::kDefendedVariant));
    }
    const std::uint32_t batch_id = first.send_classify_batch(batch, serve::kDefendedVariant);

    for (std::int64_t i = 5; i >= 0; --i) {  // receive out of submission order
      const auto context = "replicas " + std::to_string(replicas) + " image " + std::to_string(i);
      expect_bitwise_equal(first.receive_classify(first_ids[static_cast<std::size_t>(i)]),
                           expected_base[static_cast<std::size_t>(i)], "base " + context);
      expect_bitwise_equal(second.receive_classify(second_ids[static_cast<std::size_t>(i)]),
                           expected_defended[static_cast<std::size_t>(i)],
                           "defended " + context);
    }
    const auto batch_result = first.receive_classify_batch(batch_id);
    ASSERT_EQ(batch_result.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      expect_bitwise_equal(batch_result[i], expected_defended[i],
                           "batch image " + std::to_string(i));
    }
    server.stop();
  }
}

TEST(Server, UnknownVariantErrorListsRegisteredVariants) {
  serve::InferenceEngine engine(small_engine_config());
  Server server(engine, {});
  Client client("127.0.0.1", server.port());
  const auto image = single_image(random_batch(1, 37), 0);
  try {
    client.classify(image, "nope");
    FAIL() << "expected std::invalid_argument for the unknown variant";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("\"nope\""), std::string::npos) << message;
    EXPECT_NE(message.find("\"base\""), std::string::npos) << message;
    EXPECT_NE(message.find("\"defended\""), std::string::npos) << message;
  }
  // The connection survives a validation failure.
  EXPECT_EQ(client.classify(image).label, engine.classify(image)[0].label);
  server.stop();
}

TEST(Server, OverloadComesBackAsOverloadError) {
  serve::EngineConfig config = small_engine_config();
  config.queue_capacity = 1;
  config.overload_policy = serve::OverloadPolicy::kReject;
  serve::InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  Server server(engine, {});
  Client client("127.0.0.1", server.port());

  const auto batch = random_batch(4, 41);
  // First request: its worker takes it and parks inside the gate. Second
  // fills the one-slot queue. The rest must shed server-side and come back as
  // kOverload error frames.
  std::vector<std::uint32_t> ids;
  ids.push_back(client.send_classify(single_image(batch, 0), "gated"));
  gate->wait_entered(1);
  ids.push_back(client.send_classify(single_image(batch, 1), "gated"));
  // The server admits pipelined frames in order; wait until the queue really
  // holds the second request before sending the ones that must shed.
  while (engine.variant_stats("gated").queue_depth < 1) std::this_thread::yield();
  ids.push_back(client.send_classify(single_image(batch, 2), "gated"));
  ids.push_back(client.send_classify(single_image(batch, 3), "gated"));

  int served = 0, shed = 0;
  // Collect the sheds first: error frames do not wait on the gate.
  for (std::size_t i = 2; i < ids.size(); ++i) {
    try {
      client.receive_classify(ids[i]);
      ++served;
    } catch (const serve::OverloadError&) {
      ++shed;
    }
  }
  EXPECT_EQ(shed, 2);
  gate->open();
  for (std::size_t i = 0; i < 2; ++i) {
    client.receive_classify(ids[i]);
    ++served;
  }
  EXPECT_EQ(served, 2);
  EXPECT_GE(server.stats().overloads, 2);
  server.stop();
}

TEST(Server, UnboundedBlockAdmissionParksAndStopStaysBounded) {
  // kBlock with no block timeout: a parked request waits for space as long as
  // it takes, yet stop() is still bounded by the drain deadline.
  serve::EngineConfig config = small_engine_config();
  config.queue_capacity = 1;
  config.overload_policy = serve::OverloadPolicy::kBlock;
  config.block_timeout_ms = 0;
  serve::InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  ServerConfig server_config;
  server_config.drain_timeout_ms = 150;
  Server server(engine, server_config);
  Client client("127.0.0.1", server.port());

  const auto batch = random_batch(3, 73);
  client.send_classify(single_image(batch, 0), "gated");
  gate->wait_entered(1);
  client.send_classify(single_image(batch, 1), "gated");
  while (engine.variant_stats("gated").queue_depth < 1) std::this_thread::yield();
  client.send_classify(single_image(batch, 2), "gated");
  while (engine.variant_stats("gated").blocked < 1) std::this_thread::yield();

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 100);
  EXPECT_LT(elapsed.count(), 5000) << "stop() should be bounded by drain_timeout_ms";
  gate->open();  // unwedge the engine worker so its destructor can join
}

TEST(Server, ParkedRequestCountsOnceInBlocked) {
  serve::EngineConfig config = small_engine_config();
  config.queue_capacity = 1;
  config.overload_policy = serve::OverloadPolicy::kBlock;
  serve::InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  Server server(engine, {});
  Client blocked("127.0.0.1", server.port());

  const auto batch = random_batch(3, 79);
  std::vector<std::uint32_t> ids;
  ids.push_back(blocked.send_classify(single_image(batch, 0), "gated"));
  gate->wait_entered(1);
  ids.push_back(blocked.send_classify(single_image(batch, 1), "gated"));
  while (engine.variant_stats("gated").queue_depth < 1) std::this_thread::yield();
  ids.push_back(blocked.send_classify(single_image(batch, 2), "gated"));
  while (engine.variant_stats("gated").blocked < 1) std::this_thread::yield();

  // Every loop wake retries the parked request; none of the retries counts.
  Client probe("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) probe.ping();
  EXPECT_EQ(engine.variant_stats("gated").blocked, 1);

  gate->open();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_bitwise_equal(blocked.receive_classify(ids[i]),
                         engine.classify(single_image(batch, static_cast<std::int64_t>(i)),
                                         serve::Options{"gated"})[0],
                         "parked-admission image " + std::to_string(i));
  }
  const serve::VariantStats stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.blocked, 1);
  EXPECT_EQ(stats.rejected, 0);
  server.stop();
}

TEST(Server, FastVariantReplyOvertakesGatedReplyOnOneConnection) {
  serve::InferenceEngine engine(small_engine_config());
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  Server server(engine, {});
  Client client("127.0.0.1", server.port());

  const auto batch = random_batch(2, 83);
  const std::uint32_t slow = client.send_classify(single_image(batch, 0), "gated");
  gate->wait_entered(1);
  const std::uint32_t fast = client.send_classify(single_image(batch, 1));
  // Replies travel in completion order: the base reply arrives while the
  // earlier gated request is still held.
  expect_bitwise_equal(client.receive_classify(fast), engine.classify(single_image(batch, 1))[0],
                       "fast reply");
  gate->open();
  expect_bitwise_equal(client.receive_classify(slow),
                       engine.classify(single_image(batch, 0), serve::Options{"gated"})[0],
                       "gated reply");
  server.stop();
}

TEST(Server, DestroyedServerLeavesLateCompletionsSafe) {
  // A request stuck past the drain deadline is abandoned, and its completion
  // fires only after the Server is gone: it must touch no freed server state
  // (the ASan and TSan jobs run this test).
  serve::InferenceEngine engine(small_engine_config());
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  const auto batch = random_batch(3, 89);
  {
    ServerConfig config;
    config.drain_timeout_ms = 20;
    Server server(engine, config);
    Client client("127.0.0.1", server.port());
    client.send_classify(single_image(batch, 0), "gated");
    gate->wait_entered(1);
    client.send_classify_batch(batch, "gated");
    // The batch's three images are admitted behind the gated one.
    while (engine.variant_stats("gated").queue_depth < 3) std::this_thread::yield();
  }
  gate->open();
  // Every gated image completes (4 of them) after the server was destroyed.
  while (engine.variant_stats("gated").latency.count < 4) std::this_thread::yield();
}

int thread_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(Server, ThreadCountDoesNotDependOnConnectionCount) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "needs /proc/self/task";
  serve::InferenceEngine engine(small_engine_config(2));
  Server server(engine, {});
  const auto image = single_image(random_batch(1, 97), 0);
  const auto warm_every_variant = [&](std::vector<std::unique_ptr<Client>>& clients) {
    for (auto& client : clients) {
      for (const auto& variant : engine.variant_names()) client->classify(image, variant);
      client->ping();
    }
  };

  std::vector<std::unique_ptr<Client>> clients;
  clients.push_back(std::make_unique<Client>("127.0.0.1", server.port()));
  warm_every_variant(clients);
  const int with_one = thread_count();

  while (clients.size() < 16) {
    clients.push_back(std::make_unique<Client>("127.0.0.1", server.port()));
  }
  warm_every_variant(clients);
  EXPECT_EQ(server.stats().open_connections, 16);
  EXPECT_EQ(thread_count(), with_one) << "blurnetd threads grew with its connections";
  server.stop();
}

TEST(Server, EventLoopStaysResponsiveWhileBlockAdmissionWaits) {
  serve::EngineConfig config = small_engine_config();
  config.queue_capacity = 1;
  config.overload_policy = serve::OverloadPolicy::kBlock;
  config.block_timeout_ms = 10000;
  serve::InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  Server server(engine, {});

  // Fill the gated variant: one request parked inside the gate, one in the
  // single queue slot, and a third whose admission must wait for space.
  Client blocked("127.0.0.1", server.port());
  const auto batch = random_batch(3, 67);
  std::vector<std::uint32_t> ids;
  ids.push_back(blocked.send_classify(single_image(batch, 0), "gated"));
  gate->wait_entered(1);
  ids.push_back(blocked.send_classify(single_image(batch, 1), "gated"));
  while (engine.variant_stats("gated").queue_depth < 1) std::this_thread::yield();
  ids.push_back(blocked.send_classify(single_image(batch, 2), "gated"));
  while (engine.variant_stats("gated").blocked < 1) std::this_thread::yield();

  // The parked request stalls only its own connection; the event loop must
  // keep serving other connections meanwhile.
  Client probe("127.0.0.1", server.port());
  const auto t0 = std::chrono::steady_clock::now();
  probe.ping();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 2000) << "ping stalled behind a blocking admission";

  gate->open();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_bitwise_equal(blocked.receive_classify(ids[i]),
                         engine.classify(single_image(batch, static_cast<std::int64_t>(i)),
                                         serve::Options{"gated"})[0],
                         "blocked-admission image " + std::to_string(i));
  }
  server.stop();
}

TEST(Server, ReadBackpressureBoundsPipelinedRequests) {
  serve::InferenceEngine engine(small_engine_config());
  ServerConfig config;
  config.max_inflight_requests = 4;  // pause reads past 4 unanswered requests
  config.max_outbox_bytes = 1;       // and while any reply bytes await flushing
  Server server(engine, config);
  Client client("127.0.0.1", server.port());

  // Pipeline far more requests than the pipeline bound: the loop pauses and
  // resumes reading as replies drain, and every request is still served in
  // order, bitwise equal to the in-process path.
  const auto batch = random_batch(24, 71);
  const auto expected = engine.classify(batch);
  std::vector<std::uint32_t> ids;
  for (std::int64_t i = 0; i < 24; ++i) {
    ids.push_back(client.send_classify(single_image(batch, i)));
  }
  for (std::int64_t i = 0; i < 24; ++i) {
    expect_bitwise_equal(client.receive_classify(ids[static_cast<std::size_t>(i)]),
                         expected[static_cast<std::size_t>(i)],
                         "backpressured image " + std::to_string(i));
  }
  server.stop();
}

TEST(Server, MidFrameDisconnectLeavesServerServing) {
  serve::InferenceEngine engine(small_engine_config());
  Server server(engine, {});
  {
    // A peer that sends half a header and vanishes.
    Socket raw = tcp_connect("127.0.0.1", server.port());
    const auto frame = encode_frame(Opcode::kPing, 1, {});
    write_all(raw.fd(), frame.data(), kHeaderBytes / 2);
    raw.close();
  }
  {
    // A peer that sends a full header and half the payload, then vanishes.
    Socket raw = tcp_connect("127.0.0.1", server.port());
    ClassifyRequest request;
    request.images = single_image(random_batch(1, 43), 0);
    const auto frame = encode_frame(Opcode::kClassify, 2,
                                    encode_classify_request(request, false));
    write_all(raw.fd(), frame.data(), frame.size() / 2);
    raw.close();
  }
  // The server keeps serving fresh connections afterwards.
  Client client("127.0.0.1", server.port());
  const auto image = single_image(random_batch(1, 47), 0);
  expect_bitwise_equal(client.classify(image), engine.classify(image)[0], "after disconnects");
  EXPECT_EQ(server.stats().protocol_errors, 0);  // disconnects are not protocol errors
  server.stop();
}

TEST(Server, MalformedMagicGetsErrorFrameThenClose) {
  serve::InferenceEngine engine(small_engine_config());
  Server server(engine, {});
  Socket raw = tcp_connect("127.0.0.1", server.port());
  std::vector<std::uint8_t> garbage(32, 0xAB);
  write_all(raw.fd(), garbage.data(), garbage.size());

  // The server answers with a connection-fatal error frame (request id 0),
  // then closes. Read until EOF and decode what came back.
  FrameDecoder decoder;
  std::uint8_t chunk[4096];
  for (;;) {
    const std::size_t got = read_some(raw.fd(), chunk, sizeof(chunk));
    if (got == 0) break;
    decoder.feed(chunk, got);
  }
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.opcode, Opcode::kErrorResponse);
  EXPECT_EQ(frame.request_id, 0u);
  const ErrorFrame error = decode_error(frame.payload.data(), frame.payload.size());
  EXPECT_EQ(error.code, ErrorCode::kInvalidRequest);
  EXPECT_NE(error.message.find("magic"), std::string::npos) << error.message;
  EXPECT_EQ(server.stats().protocol_errors, 1);
  server.stop();
}

TEST(Server, GracefulStopDrainsInFlightAndRefusesNewWork) {
  serve::EngineConfig config = small_engine_config();
  serve::InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  Server server(engine, {});
  Client client("127.0.0.1", server.port());

  const auto batch = random_batch(2, 53);
  const std::uint32_t in_flight = client.send_classify(single_image(batch, 0), "gated");
  gate->wait_entered(1);  // the request is inside the engine, held by the gate

  std::thread stopper([&] { server.stop(); });
  while (!server.draining()) std::this_thread::yield();

  // New classify work during the drain is refused with a typed frame.
  const std::uint32_t refused = client.send_classify(single_image(batch, 1), "gated");
  EXPECT_THROW(client.receive_classify(refused), ShuttingDownError);
  EXPECT_GE(server.stats().shutdown_rejected, 1);

  // Releasing the gate lets the in-flight request finish; its response is
  // flushed before the server closes the connection.
  gate->open();
  const serve::Prediction prediction = client.receive_classify(in_flight);
  stopper.join();
  expect_bitwise_equal(prediction, engine.classify(single_image(batch, 0),
                                                   serve::Options{"gated"})[0],
                       "drained in-flight request");
}

TEST(Server, StopTimeoutAbandonsStuckRequests) {
  serve::InferenceEngine engine(small_engine_config());
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  ServerConfig config;
  config.drain_timeout_ms = 150;
  Server server(engine, config);
  auto client = std::make_unique<Client>("127.0.0.1", server.port());

  const auto image = single_image(random_batch(1, 59), 0);
  const std::uint32_t stuck = client->send_classify(image, "gated");
  gate->wait_entered(1);  // the gate never opens before stop(): request is stuck

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();  // must time out past the stuck request, not hang
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 100);
  EXPECT_LT(elapsed.count(), 5000) << "stop() should be bounded by drain_timeout_ms";

  // The abandoned request never gets a response; the client sees the close.
  EXPECT_THROW(client->receive_classify(stuck), SocketError);
  client.reset();
  gate->open();  // unwedge the engine worker so its destructor can join
}

TEST(Server, ValidatesConfig) {
  serve::InferenceEngine engine(small_engine_config());
  ServerConfig config;
  config.drain_timeout_ms = 0;
  EXPECT_THROW(Server(engine, config), std::invalid_argument);
  config = {};
  config.backlog = 0;
  EXPECT_THROW(Server(engine, config), std::invalid_argument);
  config = {};
  config.max_frame_bytes = 4;
  EXPECT_THROW(Server(engine, config), std::invalid_argument);
  config = {};
  config.max_outbox_bytes = 0;
  EXPECT_THROW(Server(engine, config), std::invalid_argument);
  config = {};
  config.max_inflight_requests = 0;
  EXPECT_THROW(Server(engine, config), std::invalid_argument);
  config = {};
  config.host = "not-a-host-name";
  EXPECT_THROW(Server(engine, config), SocketError);
}

// ---- load generator over the socket transport ------------------------------

TEST(LoadGenerator, SocketTransportMatchesScheduleAndServes) {
  serve::InferenceEngine engine(small_engine_config(2));
  Server server(engine, {});

  serve::LoadConfig load;
  load.offered_rps = 400.0;
  load.requests = 60;
  load.seed = 7;
  load.mix = {{serve::kBaseVariant, 1.0}, {serve::kDefendedVariant, 1.0}};
  serve::LoadGenerator generator(load);

  serve::SocketTransport transport;
  transport.port = server.port();
  transport.connections = 3;
  const auto image = single_image(random_batch(1, 61), 0);
  const serve::LoadReport report = generator.run(transport, image);

  EXPECT_EQ(report.offered, 60);
  EXPECT_EQ(report.served, 60);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GT(report.latency.p50_us, 0.0);
  std::int64_t per_variant_offered = 0;
  for (const auto& variant : report.variants) per_variant_offered += variant.offered;
  EXPECT_EQ(per_variant_offered, 60);

  // All traffic arrived through the socket front-end, spread over the lanes.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.classify, 60);
  EXPECT_EQ(stats.overloads, 0);
  server.stop();

  EXPECT_THROW((serve::SocketTransport{"", 1, 1}.validate()), std::invalid_argument);
  EXPECT_THROW((serve::SocketTransport{"127.0.0.1", 1, 0}.validate()), std::invalid_argument);
}

}  // namespace
}  // namespace blurnet::net
