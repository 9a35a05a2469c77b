#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/data/dataset.h"
#include "src/defense/input_transform.h"
#include "src/eval/harness.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/serve/engine.h"
#include "src/util/arena.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace perfbench {

using blurnet::serve::InferenceEngine;
using blurnet::serve::OverloadError;
using blurnet::serve::Prediction;
using blurnet::tensor::Tensor;
namespace data = blurnet::data;
namespace defense = blurnet::defense;
namespace eval = blurnet::eval;
namespace net = blurnet::net;
namespace nn = blurnet::nn;
namespace serve = blurnet::serve;

Workload parse_workload(const std::string& name) {
  if (name == "serve_light") return Workload::kServeLight;
  if (name == "net_overload") return Workload::kNetOverload;
  if (name == "rp2_eval") return Workload::kRp2Eval;
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (expected serve_light, net_overload or rp2_eval)");
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kServeLight: return "serve_light";
    case Workload::kNetOverload: return "net_overload";
    case Workload::kRp2Eval: return "rp2_eval";
  }
  return "?";
}

namespace {

constexpr int kReplicas = 2;
constexpr int kQueueCapacity = 64;
constexpr int kPoolPerClass = 12;  // 18 classes -> 216 distinct signs

/// Generator threads sleep until each request is due; the default 50 us
/// timer slack would show up as send lag, so ask for the tightest wake-up.
void tighten_timer_slack() {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

bool same_prediction(const Prediction& a, const Prediction& b) {
  return a.label == b.label &&
         std::memcmp(&a.confidence, &b.confidence, sizeof(float)) == 0 &&
         a.logits.size() == b.logits.size() &&
         std::memcmp(a.logits.data(), b.logits.data(), a.logits.size() * sizeof(float)) == 0;
}

/// One scheduled request of an open-loop trace.
struct Arrival {
  double at_s = 0.0;
  int variant = 0;
  int image = 0;
};

/// Poisson arrivals at `rate` for `seconds`, each with a uniform pool image.
/// Variants are dealt from a shuffled deck holding `weights[v]` cards of
/// variant v, reshuffled when empty, so every stretch of the trace carries
/// the mix exactly: a window whose share of one variant drifted by chance
/// would move the latency quantiles that fall between two variants.
/// Same (seed, arguments) -> same trace.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate, double seconds,
                                      const std::vector<int>& weights, int pool_size) {
  blurnet::util::Rng rng(seed);
  std::vector<int> deck;
  for (std::size_t v = 0; v < weights.size(); ++v) {
    deck.insert(deck.end(), static_cast<std::size_t>(weights[v]), static_cast<int>(v));
  }
  std::size_t dealt = deck.size();
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    if (dealt == deck.size()) {
      for (std::size_t i = deck.size(); i > 1; --i) {
        std::swap(deck[i - 1], deck[static_cast<std::size_t>(rng.uniform_index(i))]);
      }
      dealt = 0;
    }
    Arrival arrival;
    arrival.at_s = t;
    arrival.variant = deck[dealt++];
    arrival.image = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(pool_size)));
    schedule.push_back(arrival);
  }
  return schedule;
}

/// Unbounded blocking FIFO between a generator thread and its collector.
template <typename T>
class WorkQueue {
 public:
  void push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once the queue is closed and drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// A pass's generator threads, joined before the pass's data goes away. If
/// the pass unwinds early, `release` first unblocks them (closes their
/// queues).
class ThreadGroup {
 public:
  explicit ThreadGroup(std::function<void()> release) : release_(std::move(release)) {}
  ~ThreadGroup() {
    release_();
    join();
  }
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  template <typename Fn>
  void spawn(Fn&& fn) {
    threads_.emplace_back(std::forward<Fn>(fn));
  }
  void join() {
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

 private:
  std::function<void()> release_;
  std::vector<std::thread> threads_;
};

enum class Outcome : std::uint8_t { kPending, kOk, kShed, kFailed };

/// Per-request timeline of an open-loop pass, indexed by schedule index.
/// Each entry is written by the thread that owns that stage of the request
/// and read only after every generator thread has been joined.
struct Record {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point call_end;
  Clock::time_point wait_start;
  Clock::time_point done;
  std::int64_t span = 0;
  Outcome outcome = Outcome::kPending;
};

/// The distinct rendered signs the load draws from, as CHW tensors, plus
/// the in-process classify() reference of every image on every variant.
struct InputPool {
  std::vector<Tensor> images;
  std::vector<std::vector<Prediction>> reference;  // [variant][image]
};

InputPool make_pool(const InferenceEngine& engine, const std::vector<std::string>& variants,
                    std::uint64_t seed) {
  data::SynthLisaOptions options;
  options.train_per_class = kPoolPerClass;
  options.test_per_class = 1;
  options.seed = seed;
  const data::Dataset signs = data::make_synth_lisa(options).train;
  InputPool pool;
  const std::int64_t n = signs.size();
  const std::int64_t stride = signs.images.numel() / n;
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor image(blurnet::tensor::Shape{signs.images.dim(1), signs.images.dim(2),
                                        signs.images.dim(3)});
    std::memcpy(image.data(), signs.images.data() + i * stride,
                static_cast<std::size_t>(stride) * sizeof(float));
    pool.images.push_back(image);
  }
  for (const auto& variant : variants) {
    pool.reference.push_back(engine.classify(signs.images, serve::Options{variant}));
  }
  return pool;
}

/// Fold the per-request timelines of a `seconds`-long schedule into
/// kWindowSeconds windows by scheduled send time.
void summarize(const std::vector<Record>& records, Clock::time_point start, double seconds,
               double limit_ms, PassResult& result) {
  const int windows = static_cast<int>(std::ceil(seconds / kWindowSeconds));
  for (int w = 0; w < windows; ++w) {
    result.windows.emplace_back();
    result.windows.back().seconds = std::min(kWindowSeconds, seconds - w * kWindowSeconds);
  }
  for (const Record& r : records) {
    const int w = std::min(
        windows - 1, static_cast<int>(micros(start, r.due) / (kWindowSeconds * 1e6)));
    Window& window = result.windows[static_cast<std::size_t>(w)];
    ++result.ops.attempted;
    ++window.attempted;
    result.send_lag_us.push_back(micros(r.due, r.sent));
    result.call_us.push_back(micros(r.sent, r.call_end));
    switch (r.outcome) {
      case Outcome::kOk: {
        ++result.ops.succeeded;
        const double ms = micros(r.due, r.done) / 1e3;
        window.latency_ms.push_back(ms);
        result.latency_ms.push_back(ms);
        if (ms <= limit_ms) window.good_work += 1.0;
        break;
      }
      case Outcome::kShed:
        ++result.ops.shed;
        ++window.shed;
        break;
      case Outcome::kPending:
      case Outcome::kFailed: ++result.ops.failed; break;
    }
  }
}

/// Enqueue->resolve quantiles of the engine's own latency rings, weighted by
/// each variant's window size.
void engine_latency_metrics(const serve::EngineStats& stats, MetricMap& out) {
  double weight = 0.0, p50 = 0.0, p99 = 0.0;
  for (const auto& variant : stats.variants) {
    const double w = static_cast<double>(variant.latency.window);
    weight += w;
    p50 += w * variant.latency.p50_us;
    p99 += w * variant.latency.p99_us;
  }
  out["serve.engine_p50_us"] = weight > 0 ? p50 / weight : 0.0;
  out["serve.engine_p99_us"] = weight > 0 ? p99 / weight : 0.0;
}

/// Batching and admission counters that moved during a pass.
void engine_batch_metrics(const serve::EngineStats& before, const serve::EngineStats& after,
                          MetricMap& out) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double requests = static_cast<double>(after.requests - before.requests);
  out["serve.batch_mean"] = batches > 0 ? requests / batches : 0.0;
  out["serve.largest_batch"] = static_cast<double>(after.largest_batch);
  out["serve.queue_peak"] = static_cast<double>(after.queue_peak);
  out["serve.rejected"] = static_cast<double>(after.rejected - before.rejected);
}

/// Pins util::parallel_workers() for the lifetime of the object.
class ScopedPoolWorkers {
 public:
  explicit ScopedPoolWorkers(int workers) { blurnet::util::set_parallel_workers(workers); }
  ~ScopedPoolWorkers() { blurnet::util::reset_parallel_workers(); }
  ScopedPoolWorkers(const ScopedPoolWorkers&) = delete;
  ScopedPoolWorkers& operator=(const ScopedPoolWorkers&) = delete;
};

// ---- serve_light --------------------------------------------------------------

class ServeLight final : public Bench {
 public:
  explicit ServeLight(std::uint64_t seed)
      : workers_(1),
        seed_(seed),
        engine_(make_engine()),
        pool_(make_pool(*engine_, variants_, seed)) {
    // Warm-up: spawn every variant's replica workers and grow their arenas.
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      for (int i = 0; i < 16; ++i) {
        engine_->submit(pool_.images[static_cast<std::size_t>(i)], serve::Options{variants_[v]})
            .get();
      }
    }
  }

  PassResult pass(double seconds) override {
    const auto schedule = poisson_schedule(seed_ * 7919 + 1, kRate, seconds, kWeights,
                                           static_cast<int>(pool_.images.size()));
    const std::size_t n = schedule.size();
    std::vector<Record> records(n);
    std::vector<std::future<Prediction>> futures(n);
    std::vector<double> wait_us(n, 0.0);
    std::vector<WorkQueue<std::size_t>> queues(variants_.size());

    const serve::EngineStats before = engine_->stats();
    const std::int64_t heap_before = blurnet::util::scratch_heap_allocations();

    // One collector per variant: a variant's futures come from one FIFO
    // queue, so they resolve (nearly) in order and waiting in order does not
    // hold a fast reply behind a slow variant's.
    ThreadGroup harvesters([&] {
      for (auto& queue : queues) queue.close();
    });
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      harvesters.spawn([&, v] {
        std::size_t i = 0;
        while (queues[v].pop(i)) {
          Record& r = records[i];
          r.wait_start = Clock::now();
          try {
            const Prediction prediction = futures[i].get();
            r.done = Clock::now();
            const auto& expected =
                pool_.reference[v][static_cast<std::size_t>(schedule[i].image)];
            r.outcome = same_prediction(prediction, expected) ? Outcome::kOk : Outcome::kFailed;
          } catch (const OverloadError&) {
            r.done = Clock::now();
            r.outcome = Outcome::kShed;
          } catch (const std::exception&) {
            r.done = Clock::now();
            r.outcome = Outcome::kFailed;
          }
          wait_us[i] = micros(r.wait_start, r.done);
          Tracer::instance().record("serve.wait", r.wait_start, r.done,
                                    static_cast<std::int64_t>(i), r.span);
        }
      });
    }

    tighten_timer_slack();
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& arrival = schedule[i];
      Record& r = records[i];
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(arrival.at_s));
      std::this_thread::sleep_until(r.due);
      r.sent = Clock::now();
      bool queued = false;
      try {
        futures[i] = engine_->submit(pool_.images[static_cast<std::size_t>(arrival.image)],
                                     serve::Options{variants_[static_cast<std::size_t>(
                                         arrival.variant)]});
        queued = true;
      } catch (const OverloadError&) {
        r.outcome = Outcome::kShed;
      } catch (const std::exception&) {
        r.outcome = Outcome::kFailed;
      }
      r.call_end = Clock::now();
      Tracer& tracer = Tracer::instance();
      if (tracer.enabled()) {
        r.span = tracer.record("gen.send", r.due, r.call_end, static_cast<std::int64_t>(i));
        tracer.record("serve.submit", r.sent, r.call_end, static_cast<std::int64_t>(i), r.span);
      }
      if (queued) queues[static_cast<std::size_t>(arrival.variant)].push(i);
    }
    for (auto& queue : queues) queue.close();
    harvesters.join();

    PassResult result;
    summarize(records, start, seconds, kLimitMs, result);
    for (std::size_t i = 0; i < n; ++i) {
      if (records[i].outcome == Outcome::kOk) result.wait_us.push_back(wait_us[i]);
    }
    result.threads = 1 + static_cast<int>(variants_.size());
    result.pool_workers = blurnet::util::parallel_workers();
    result.connections = 0;
    const serve::EngineStats after = engine_->stats();
    engine_latency_metrics(after, result.layer);
    const double requests = static_cast<double>(after.requests - before.requests);
    result.layer["serve.heap_allocs_per_req"] =
        requests > 0
            ? static_cast<double>(blurnet::util::scratch_heap_allocations() - heap_before) /
                  requests
            : 0.0;
    return result;
  }

  void idle_probes(MetricMap& out) override {
    // Synchronous batch-1 classify() on the defended variant, engine idle.
    std::vector<double> times;
    for (int i = 0; i < 200; ++i) {
      const Tensor& image = pool_.images[static_cast<std::size_t>(i) % pool_.images.size()];
      ScopedSpan span("serve.classify_b1");
      const Clock::time_point t0 = Clock::now();
      engine_->classify(image, serve::Options{serve::kDefendedVariant});
      times.push_back(micros(t0, Clock::now()));
    }
    out["serve.classify_b1_us"] = median(times);
  }

 private:
  static constexpr double kRate = 600.0;
  static constexpr double kLimitMs = 10.0;
  inline static const std::vector<int> kWeights = {2, 1, 1};

  // Each request runs its whole forward on the replica worker that serves
  // it. With the process pool, a batch-1 forward forks every layer over the
  // pool and waits for every woken worker, and a request that overlaps
  // another finds the pool busy and runs inline instead. On a shared 4-vCPU
  // host that made p50 both higher (1.2 against 1.0 ms when quiet) and far
  // more sensitive to the host's scheduling than the single-worker path.
  ScopedPoolWorkers workers_;
  std::uint64_t seed_;
  std::vector<std::string> variants_ = {serve::kBaseVariant, serve::kDefendedVariant, "median5"};
  std::unique_ptr<InferenceEngine> engine_;
  InputPool pool_;
};

// ---- net_overload ---------------------------------------------------------------

class NetOverload final : public Bench {
 public:
  explicit NetOverload(std::uint64_t seed)
      : seed_(seed),
        engine_(make_engine()),
        pool_(make_pool(*engine_, variants_, seed)),
        server_(std::make_unique<net::Server>(*engine_, net::ServerConfig{})) {
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<net::Client>("127.0.0.1", server_->port()));
    }
    // Warm-up: every connection, every variant, end to end.
    for (auto& client : clients_) {
      for (const auto& variant : variants_) {
        for (int i = 0; i < 8; ++i) {
          client->classify(pool_.images[static_cast<std::size_t>(i)], variant);
        }
      }
    }
  }

  PassResult pass(double seconds) override {
    const auto schedule = poisson_schedule(seed_ * 7919 + 2, kRate, seconds, kWeights,
                                           static_cast<int>(pool_.images.size()));
    const std::size_t n = schedule.size();
    std::vector<Record> records(n);
    std::vector<WorkQueue<std::pair<std::size_t, std::uint32_t>>> lanes(kConnections);

    const serve::EngineStats engine_before = engine_->stats();
    const net::ServerStats server_before = server_->stats();

    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    ThreadGroup threads([&] {
      for (auto& lane : lanes) lane.close();
    });
    for (int c = 0; c < kConnections; ++c) {
      net::Client& client = *clients_[static_cast<std::size_t>(c)];
      auto& lane = lanes[static_cast<std::size_t>(c)];
      // Receiver: replies of one connection come back in send order.
      threads.spawn([&] {
        std::pair<std::size_t, std::uint32_t> item;
        while (lane.pop(item)) {
          Record& r = records[item.first];
          const auto& arrival = schedule[item.first];
          r.wait_start = Clock::now();
          try {
            const Prediction prediction = client.receive_classify(item.second);
            r.done = Clock::now();
            const auto& expected = pool_.reference[static_cast<std::size_t>(arrival.variant)]
                                                  [static_cast<std::size_t>(arrival.image)];
            r.outcome = same_prediction(prediction, expected) ? Outcome::kOk : Outcome::kFailed;
          } catch (const OverloadError&) {
            r.done = Clock::now();
            r.outcome = Outcome::kShed;
          } catch (const std::exception&) {
            r.done = Clock::now();
            r.outcome = Outcome::kFailed;
          }
          Tracer::instance().record("net.recv", r.wait_start, r.done,
                                    static_cast<std::int64_t>(item.first), r.span);
        }
      });
      // Sender: this connection's share of the schedule, at absolute times.
      threads.spawn([&, c] {
        tighten_timer_slack();
        for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kConnections) {
          const Arrival& arrival = schedule[i];
          Record& r = records[i];
          r.due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(arrival.at_s));
          std::this_thread::sleep_until(r.due);
          r.sent = Clock::now();
          std::uint32_t id = 0;
          bool on_wire = false;
          try {
            id = client.send_classify(pool_.images[static_cast<std::size_t>(arrival.image)],
                                      variants_[static_cast<std::size_t>(arrival.variant)]);
            on_wire = true;
          } catch (const std::exception&) {
            r.outcome = Outcome::kFailed;
          }
          r.call_end = Clock::now();
          Tracer& tracer = Tracer::instance();
          if (tracer.enabled()) {
            r.span = tracer.record("gen.send", r.due, r.call_end, static_cast<std::int64_t>(i));
            tracer.record("net.send", r.sent, r.call_end, static_cast<std::int64_t>(i), r.span);
          }
          if (on_wire) lane.push({i, id});
        }
        lane.close();
      });
    }
    threads.join();

    PassResult result;
    summarize(records, start, seconds, kLimitMs, result);
    result.threads = 2 * kConnections;
    result.pool_workers = blurnet::util::parallel_workers();
    result.connections = kConnections;
    engine_batch_metrics(engine_before, engine_->stats(), result.layer);
    const net::ServerStats server_after = server_->stats();
    const double frames_in = static_cast<double>(server_after.frames_in - server_before.frames_in);
    const double bytes = static_cast<double>(server_after.bytes_in - server_before.bytes_in +
                                             server_after.bytes_out - server_before.bytes_out);
    result.layer["net.bytes_per_req"] = frames_in > 0 ? bytes / frames_in : 0.0;
    result.layer["net.overloads"] =
        static_cast<double>(server_after.overloads - server_before.overloads);
    result.layer["net.frames_out"] =
        static_cast<double>(server_after.frames_out - server_before.frames_out);
    return result;
  }

  void idle_probes(MetricMap& out) override {
    std::vector<double> times;
    for (int i = 0; i < 400; ++i) {
      ScopedSpan span("net.ping");
      const Clock::time_point t0 = Clock::now();
      clients_[0]->ping();
      times.push_back(micros(t0, Clock::now()));
    }
    out["net.ping_rtt_us.p50"] = median(times);
  }

 private:
  static constexpr double kRate = 6000.0;
  static constexpr double kLimitMs = 250.0;
  static constexpr int kConnections = 2;
  inline static const std::vector<int> kWeights = {1, 1};

  std::uint64_t seed_;
  std::vector<std::string> variants_ = {serve::kBaseVariant, serve::kDefendedVariant};
  // Destroyed bottom-up: clients close, then the server drains, then the
  // engine stops its workers.
  std::unique_ptr<InferenceEngine> engine_;
  InputPool pool_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
};

// ---- rp2_eval -------------------------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_sweep(const eval::SweepResult& a, const eval::SweepResult& b) {
  if (!same_bits(a.average_success, b.average_success) ||
      !same_bits(a.worst_success, b.worst_success) || !same_bits(a.mean_l2, b.mean_l2) ||
      a.per_target.size() != b.per_target.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.per_target.size(); ++t) {
    const auto& x = a.per_target[t];
    const auto& y = b.per_target[t];
    if (x.target != y.target || !same_bits(x.success_rate, y.success_rate) ||
        !same_bits(x.targeted_rate, y.targeted_rate) ||
        !same_bits(x.l2_dissimilarity, y.l2_dissimilarity)) {
      return false;
    }
  }
  return true;
}

bool finite_sweep(const eval::SweepResult& result) {
  if (!std::isfinite(result.average_success) || !std::isfinite(result.mean_l2)) return false;
  for (const auto& entry : result.per_target) {
    if (!std::isfinite(entry.success_rate) || !std::isfinite(entry.l2_dissimilarity)) return false;
  }
  return !result.per_target.empty();
}

class Rp2Eval final : public Bench {
 public:
  explicit Rp2Eval(std::uint64_t seed)
      : engine_(make_engine()),
        harness_(*engine_),
        eval_set_(data::stop_sign_eval_set(kSigns, 32, seed)) {
    harness_.adopt_variant(serve::kDefendedVariant);
    legit_ = harness_.stop_sign_accuracy(serve::kDefendedVariant, eval_set_.images);
    scale_.eval_images = kSigns;
    scale_.num_targets = 4;
    scale_.rp2_iterations = kRp2Iterations;
    scale_.eot_poses = 4;
    // Warm-up: one single-iteration sweep grows every lane's scratch.
    eval::ExperimentScale warm = scale_;
    warm.rp2_iterations = 1;
    eval::WhiteboxSweep{warm}.run(harness_, serve::kDefendedVariant, legit_, eval_set_);
  }

  PassResult pass(double seconds) override {
    PassResult result;
    result.threads = 1;
    result.pool_workers = blurnet::util::parallel_workers();
    const double steps = static_cast<double>(scale_.num_targets) * scale_.rp2_iterations;
    std::int64_t tasks_done = 0;
    int lanes = 0;
    const Clock::time_point start = Clock::now();
    while (result.ops.attempted < 2 || micros(start, Clock::now()) < seconds * 1e6) {
      if (result.ops.attempted % kSweepsPerWindow == 0) result.windows.emplace_back();
      Window& window = result.windows.back();
      ++result.ops.attempted;
      ++window.attempted;
      ScopedSpan span("eval.sweep", result.ops.attempted - 1);
      const Clock::time_point t0 = Clock::now();
      eval::SweepScheduler scheduler(harness_);
      const std::size_t job =
          scheduler.add(eval::WhiteboxSweep{scale_}, serve::kDefendedVariant, legit_, eval_set_);
      bool ok = false;
      try {
        scheduler.run();
        const eval::SweepResult& outcome = scheduler.sweep_result(job);
        if (!reference_) reference_ = std::make_unique<eval::SweepResult>(outcome);
        ok = finite_sweep(outcome) && same_sweep(outcome, *reference_);
      } catch (const std::exception&) {
        ok = false;
      }
      const double ms = micros(t0, Clock::now()) / 1e3;
      window.seconds += ms / 1e3;
      for (const auto& progress : scheduler.progress()) {
        tasks_done += progress.targets_done;
        lanes = progress.lanes;
      }
      if (ok) {
        ++result.ops.succeeded;
        window.latency_ms.push_back(ms);
        result.latency_ms.push_back(ms);
        window.good_work += steps;
      } else {
        ++result.ops.failed;
      }
    }
    result.layer["eval.lanes"] = lanes;
    result.layer["eval.tasks_done"] = static_cast<double>(tasks_done);
    return result;
  }

 private:
  static constexpr int kSigns = 8;

  std::unique_ptr<InferenceEngine> engine_;
  eval::Harness harness_;
  data::StopSignSet eval_set_;
  double legit_ = 0.0;
  eval::ExperimentScale scale_;
  std::unique_ptr<eval::SweepResult> reference_;
};

}  // namespace

std::unique_ptr<InferenceEngine> make_engine() {
  serve::EngineConfig config;  // paper width: 16/32/64 filters
  config.defense = {nn::FilterPlacement::kAfterLayer1, 5, blurnet::signal::KernelKind::kBox};
  config.replicas = kReplicas;
  config.queue_capacity = kQueueCapacity;
  config.overload_policy = serve::OverloadPolicy::kReject;
  auto engine = std::make_unique<InferenceEngine>(config);
  engine->register_transform_variant("median5", defense::TransformSpec::median(5));
  return engine;
}

std::unique_ptr<Bench> make_bench(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kServeLight: return std::make_unique<ServeLight>(seed);
    case Workload::kNetOverload: return std::make_unique<NetOverload>(seed);
    case Workload::kRp2Eval: return std::make_unique<Rp2Eval>(seed);
  }
  throw std::invalid_argument("make_bench: bad workload");
}

}  // namespace perfbench
