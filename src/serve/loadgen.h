// Deterministic open-loop load generator for the serving engine.
//
// Closed-loop drivers (send, wait, send) hide overload: when the server slows
// down, the driver slows down with it, and the measured latency stays flat no
// matter how far behind the server falls ("coordinated omission"). This
// generator is open-loop: the *entire* arrival schedule — when each request
// fires and which variant it targets — is precomputed from a seeded
// util::Rng before the first send, and the sender fires each request at its
// scheduled absolute time whether or not earlier ones have finished. Latency
// is measured against the scheduled arrival, so queueing delay a real client
// would suffer is charged to the server.
//
// A LoadGenerator holds only the schedule; each run() names its target — an
// in-process InferenceEngine, or a blurnetd server reached through a
// SocketTransport (an address and a connection count) — so the same schedule
// replays against either.
//
// Determinism contract: two LoadGenerators built from the same LoadConfig
// produce bitwise-identical schedules — same arrival offsets, same
// per-request variant routing (exposed via arrival_offsets() /
// variant_schedule() so tests can assert it). Wall-clock measurements of a
// run naturally vary; the traffic itself never does.
//
// Three arrival processes:
//   * kPoisson — exponential inter-arrivals at offered_rps; the classic
//     memoryless open-loop workload.
//   * kOnOff   — bursty traffic: Poisson arrivals at offered_rps/on_fraction
//     during the "on" window of each burst_cycle_s cycle, silence otherwise.
//     Mean rate stays offered_rps; bursts stress queue capacity and tails.
//   * kUniform — fixed pacing at exactly 1/offered_rps; the no-variance
//     baseline that isolates service-time jitter from arrival jitter.
//
// Rejected submits (OverloadError under the engine's reject policy, or a
// block-policy timeout) are counted per variant, never retried — an open-loop
// shed is load the server refused, which is the datum. In-process, run()
// spawns no threads besides its own sender: each request's engine completion
// stamps its own record on the worker that served it. Over the socket, run()
// keeps one receiver per client connection, which reads replies in send
// order; a reply arriving ahead of an earlier one on its connection is timed
// when its turn comes (a small conservative bias). Both fill one record per
// scheduled request, and one report builder folds the records into the
// LoadReport, summarizing latencies with serve::summarize().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/qos.h"
#include "src/tensor/tensor.h"

namespace blurnet::serve {

class InferenceEngine;

enum class ArrivalProcess { kPoisson, kOnOff, kUniform };

const char* to_string(ArrivalProcess arrival);

/// One entry of the traffic mix: a variant name and its relative weight.
struct VariantMix {
  std::string variant;
  double weight = 1.0;
};

struct LoadConfig {
  /// Mean offered arrival rate, requests/second, over the whole run.
  double offered_rps = 100.0;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// kOnOff: fraction of each cycle spent sending, in (0, 1].
  double on_fraction = 0.5;
  /// kOnOff: on+off cycle length in seconds.
  double burst_cycle_s = 0.2;
  /// Total requests in the schedule.
  int requests = 1000;
  /// Seed for the schedule (arrivals and variant routing).
  std::uint64_t seed = 42;
  /// Traffic mix; empty means 100% "base". Weights are relative.
  std::vector<VariantMix> mix;
  /// Options::max_batch passed through to submit(); 0 = engine default.
  int max_batch = 0;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (engine validation style).
  void validate() const;
};

/// Per-variant outcome counters and latency over every served request.
struct VariantLoadStats {
  std::string variant;
  std::int64_t offered = 0;   // requests the schedule routed here
  std::int64_t served = 0;    // requests that completed with a Prediction
  std::int64_t rejected = 0;  // sheds: OverloadError at submit()
  std::int64_t failed = 0;    // requests that completed with an error
  LatencySnapshot latency;    // completion − scheduled arrival, microseconds
};

/// Where a socket run() sends its traffic: a running blurnetd server. The
/// schedule (arrivals, variant routing) is identical to the in-process
/// run()'s — the transport only changes *how* each request travels. Request i is pipelined
/// on client connection i % connections, so the per-connection interleaving is
/// itself deterministic.
struct SocketTransport {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent client connections (>= 1). Each connection pipelines its share
  /// of the schedule and receives its replies on its own thread.
  int connections = 2;

  /// Reject malformed configs with a descriptive std::invalid_argument.
  void validate() const;
};

struct LoadReport {
  double offered_rps = 0.0;   // from the config
  double achieved_rps = 0.0;  // served / duration
  double duration_s = 0.0;    // first scheduled send → last completion
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  LatencySnapshot latency;    // all variants merged
  std::vector<VariantLoadStats> variants;  // mix order
};

class LoadGenerator {
 public:
  /// Builds the full deterministic schedule. Throws std::invalid_argument on
  /// a bad config.
  explicit LoadGenerator(LoadConfig config);

  /// Scheduled send time of each request, seconds after the run starts.
  /// Strictly derived from (seed, arrival process, offered_rps); sorted
  /// non-decreasing.
  const std::vector<double>& arrival_offsets() const { return offsets_; }
  /// Mix index each request targets (into mix()); same length as
  /// arrival_offsets().
  const std::vector<std::size_t>& variant_schedule() const { return variants_; }
  /// The normalized mix actually used ("base" when the config's was empty).
  const std::vector<VariantMix>& mix() const { return mix_; }
  const LoadConfig& config() const { return config_; }

  /// Replay the schedule against `engine`, submitting clones of `image`
  /// (CHW). Fails before any traffic if the mix names a variant the engine
  /// lacks. Blocks until every non-rejected request resolves. May be called
  /// repeatedly; each run replays the identical schedule.
  LoadReport run(InferenceEngine& engine, const tensor::Tensor& image);

  /// Replay the same schedule against a blurnetd server over TCP: requests
  /// travel as kClassify frames, pipelined across `transport.connections`
  /// client connections, and latency is still measured open-loop (completion
  /// − scheduled arrival), now including the wire. Server-side sheds come
  /// back as kOverload error frames and are counted per variant as
  /// `rejected`; kShuttingDown / kInvalidRequest / transport failures count
  /// as `failed`. The server may live in this process or another one.
  LoadReport run(const SocketTransport& transport, const tensor::Tensor& image);

 private:
  /// Outcome of one scheduled request, indexed by schedule position. Written
  /// once by whichever thread finishes the request, read once all are done.
  struct Record {
    enum class Outcome : std::uint8_t { kPending, kServed, kRejected, kFailed };
    Outcome outcome = Outcome::kPending;
    std::chrono::steady_clock::time_point completion{};
  };

  void build_schedule();
  /// Sleep until request `i`'s scheduled send time, `t0` being time zero.
  void sleep_until_due(std::chrono::steady_clock::time_point t0, std::size_t i) const;
  /// Fold one run's records into its report; latency is completion −
  /// scheduled arrival.
  LoadReport report(const std::vector<Record>& records,
                    std::chrono::steady_clock::time_point t0) const;

  LoadConfig config_;
  std::vector<VariantMix> mix_;
  std::vector<double> offsets_;
  std::vector<std::size_t> variants_;
};

}  // namespace blurnet::serve
