#include "src/serve/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/tensor/ops.h"
#include "src/util/arena.h"
#include "src/util/logging.h"

namespace blurnet::serve {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Normalize a CHW image or NCHW batch to NCHW, rejecting anything that
/// would otherwise fail deep inside conv2d with a cryptic error.
Tensor as_batch(const Tensor& images, const nn::LisaCnnConfig& config,
                const std::string& op) {
  if (images.rank() != 3 && images.rank() != 4) {
    throw std::invalid_argument(op + ": expected a CHW image (rank 3) or NCHW batch (rank 4), got rank " +
                                std::to_string(images.rank()) + " with shape " +
                                images.shape().to_string());
  }
  Tensor batch = images;
  if (images.rank() == 3) {
    batch = images.reshape(Shape::nchw(1, images.dim(0), images.dim(1), images.dim(2)));
  }
  if (batch.dim(0) < 1) {
    throw std::invalid_argument(op + ": batch holds no images (shape " +
                                images.shape().to_string() + ")");
  }
  if (batch.dim(1) != config.in_channels) {
    throw std::invalid_argument(op + ": expected " + std::to_string(config.in_channels) +
                                " input channels, got " + std::to_string(batch.dim(1)) +
                                " (shape " + images.shape().to_string() + ")");
  }
  if (batch.dim(2) != config.image_size || batch.dim(3) != config.image_size) {
    throw std::invalid_argument(op + ": expected " + std::to_string(config.image_size) + "x" +
                                std::to_string(config.image_size) + " spatial dims, got " +
                                std::to_string(batch.dim(2)) + "x" + std::to_string(batch.dim(3)) +
                                " (shape " + images.shape().to_string() + ")");
  }
  return batch;
}

/// The request's batch cap: Options::max_batch may lower the engine's cap,
/// never raise it.
int effective_max_batch(const Options& options, int engine_cap, const std::string& op) {
  if (options.max_batch < 0) {
    throw std::invalid_argument(op + ": Options::max_batch must be >= 0 (0 = engine default), got " +
                                std::to_string(options.max_batch));
  }
  return options.max_batch > 0 ? std::min(options.max_batch, engine_cap) : engine_cap;
}

}  // namespace

void EngineConfig::validate() const {
  if (max_batch < 1) {
    throw std::invalid_argument("EngineConfig: max_batch must be >= 1 (got " +
                                std::to_string(max_batch) + ")");
  }
  if (replicas < 1) {
    throw std::invalid_argument("EngineConfig: replicas must be >= 1 (got " +
                                std::to_string(replicas) + ")");
  }
  if (queue_capacity < 1) {
    throw std::invalid_argument("EngineConfig: queue_capacity must be >= 1 (got " +
                                std::to_string(queue_capacity) + ")");
  }
}

InferenceEngine::InferenceEngine(EngineConfig config)
    // Validate before the model is built: a bad batch/replica/queue knob must
    // not cost a full weight allocation (and must carry the EngineConfig
    // prefix).
    : InferenceEngine([&config] { config.validate(); return nn::LisaCnn(config.model); }(),
                      config.defense, config.max_batch, config.replicas,
                      config.queue_capacity) {}

InferenceEngine::InferenceEngine(nn::LisaCnn model, nn::FixedFilterSpec defense,
                                 int max_batch, int replicas, int queue_capacity)
    : model_(std::move(model)),
      config_{model_.config(), defense, max_batch, replicas, queue_capacity} {
  config_.validate();
  register_variant(kBaseVariant, {});
  defense_enabled_ = defense.placement != nn::FilterPlacement::kNone && defense.kernel > 0;
  VariantSpec defended;
  if (defense_enabled_) {
    defended.config = model_.config();
    defended.config->fixed_filter = defense;
  } else {
    // No filter to wrap: serve "defended" from the base shard instead of
    // cloning a second, identical set of replicas.
    defended.alias_of = kBaseVariant;
  }
  register_variant(kDefendedVariant, std::move(defended));
}

InferenceEngine::~InferenceEngine() {
  {
    std::lock_guard<util::DebugMutex> lock(queue_mutex_);
    stop_ = true;
  }
  {
    std::lock_guard<util::DebugMutex> lock(shards_mutex_);
    for (auto& shard : shards_) shard->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void InferenceEngine::register_variant(const std::string& name, VariantSpec spec) {
  const auto reject = [&name](const std::string& why) {
    throw std::invalid_argument("register_variant: variant \"" + name + "\" " + why);
  };
  if (name.empty()) throw std::invalid_argument("register_variant: name must be non-empty");
  const bool alias = !spec.alias_of.empty();
  if (int{spec.config.has_value()} + int{spec.model != nullptr} + int{alias} > 1) {
    reject("sets more than one weight source (config, model, alias_of)");
  }
  if (alias && (spec.transform || spec.replicas != 0)) {
    reject("aliases \"" + spec.alias_of + "\" and so takes no transform or replicas");
  }
  if (spec.replicas < 0) reject("asks for " + std::to_string(spec.replicas) + " replicas");
  const nn::LisaCnn& source = spec.model ? *spec.model : model_;
  const nn::LisaCnnConfig config = std::move(spec.config).value_or(source.config());
  if (config.in_channels != model_.config().in_channels ||
      config.image_size != model_.config().image_size) {
    reject("input shape does not match the base model");
  }
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  if (find_shard_locked(name) != nullptr) reject("is already registered");
  if (alias) {
    VariantShard* target = find_shard_locked(spec.alias_of);
    if (target == nullptr) reject("aliases unknown variant \"" + spec.alias_of + "\"");
    aliases_.emplace_back(name, target);
    return;
  }
  auto shard = std::make_unique<VariantShard>();
  shard->name = name;
  shard->from_base = spec.model == nullptr;
  const int replicas = spec.replicas > 0 ? spec.replicas : config_.replicas;
  shard->replicas.reserve(static_cast<std::size_t>(replicas));
  for (int i = 0; i < replicas; ++i) {
    shard->replicas.push_back(std::make_unique<Replica>(source, config, spec.transform));
  }
  shards_.push_back(std::move(shard));
}

std::string InferenceEngine::shard_kind(const VariantShard& shard) {
  std::string kind = shard.from_base ? "weight-transfer" : "foreign-model";
  if (const auto& transform = shard.replicas.front()->transform()) {
    kind = "transform-wrapped " + kind + " (" + transform->name() + ")";
  }
  return kind;
}

void InferenceEngine::refresh_variant(const std::string& name) {
  VariantShard& shard = require_shard(name);
  if (!shard.from_base) {
    throw std::logic_error("refresh_variant: variant \"" + name + "\" is a " +
                           shard_kind(shard) +
                           " shard: it serves an independently trained model whose "
                           "weights do not come from the base model; re-register it "
                           "through register_variant instead");
  }
  // Weight-transfer shards — transform-wrapped or not — re-copy the base
  // weights; the preprocess stage is immutable and kept as registered.
  for (auto& replica : shard.replicas) replica->refresh_from(model_);
}

InferenceEngine::VariantShard* InferenceEngine::find_shard_locked(
    const std::string& name) const {
  for (const auto& shard : shards_) {
    if (shard->name == name) return shard.get();
  }
  for (const auto& alias : aliases_) {
    if (alias.first == name) return alias.second;
  }
  return nullptr;
}

InferenceEngine::VariantShard& InferenceEngine::require_shard_locked(
    const std::string& name) const {
  if (VariantShard* shard = find_shard_locked(name)) return *shard;
  std::string known;
  for (const auto& registered : variant_names_locked()) {
    if (!known.empty()) known += ", ";
    known += "\"" + registered + "\"";
  }
  throw std::invalid_argument("InferenceEngine: unknown variant \"" + name +
                              "\" (registered: " + known + ")");
}

InferenceEngine::VariantShard& InferenceEngine::require_shard(const std::string& name) const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  return require_shard_locked(name);
}

std::vector<std::string> InferenceEngine::variant_names_locked() const {
  std::vector<std::string> names;
  names.reserve(shards_.size() + aliases_.size());
  for (const auto& shard : shards_) names.push_back(shard->name);
  for (const auto& alias : aliases_) names.push_back(alias.first);
  return names;
}

std::vector<std::string> InferenceEngine::variant_names() const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  return variant_names_locked();
}

bool InferenceEngine::has_variant(const std::string& name) const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  return find_shard_locked(name) != nullptr;
}

const nn::LisaCnn& InferenceEngine::replica_model(const std::string& name, int index) const {
  const VariantShard& shard = require_shard(name);
  if (index < 0 || static_cast<std::size_t>(index) >= shard.replicas.size()) {
    throw std::invalid_argument("replica_model: variant \"" + name + "\" has " +
                                std::to_string(shard.replicas.size()) +
                                " replicas, index " + std::to_string(index) +
                                " is out of range");
  }
  return shard.replicas[static_cast<std::size_t>(index)]->model();
}

int InferenceEngine::replica_count(const std::string& name) const {
  return static_cast<int>(require_shard(name).replicas.size());
}

defense::TransformPtr InferenceEngine::variant_transform(const std::string& name) const {
  return require_shard(name).replicas.front()->transform();
}

Replica& InferenceEngine::route_locked(VariantShard& shard) const {
  // Least-loaded with a round-robin cursor as the tiebreak: concurrent
  // callers spread across idle replicas, and repeated single-caller traffic
  // still rotates instead of hammering replica 0. The replica's in-flight
  // count is claimed under the lock so two callers can't both pick the same
  // "idle" replica.
  const std::size_t n = shard.replicas.size();
  std::size_t best = shard.next_replica % n;
  int best_load = shard.replicas[best]->in_flight();
  for (std::size_t step = 1; step < n && best_load > 0; ++step) {
    const std::size_t candidate = (shard.next_replica + step) % n;
    const int load = shard.replicas[candidate]->in_flight();
    if (load < best_load) {
      best = candidate;
      best_load = load;
    }
  }
  shard.next_replica = (best + 1) % n;
  Replica& replica = *shard.replicas[best];
  replica.begin_call();
  return replica;
}

std::vector<Prediction> InferenceEngine::classify(const Tensor& images,
                                                  const Options& options) const {
  const int cap = effective_max_batch(options, config_.max_batch, "InferenceEngine::classify");
  const Tensor batch = as_batch(images, model_.config(), "InferenceEngine::classify");
  Replica* replica;
  {
    // One acquisition covers both the name lookup and the routing pick.
    std::lock_guard<util::DebugMutex> lock(shards_mutex_);
    replica = &route_locked(require_shard_locked(options.variant));
  }
  struct CallGuard {
    Replica& replica;
    ~CallGuard() { replica.end_call(); }
  } guard{*replica};
  return replica->run(batch, cap);
}

void InferenceEngine::submit(Tensor image, Options options, Completion done) {
  enqueue(std::move(image), options, std::move(done), /*throw_when_full=*/true);
}

bool InferenceEngine::try_submit(Tensor image, Options options, Completion done) {
  return enqueue(std::move(image), options, std::move(done), /*throw_when_full=*/false);
}

std::future<Prediction> InferenceEngine::submit(Tensor image, Options options) {
  auto promise = std::make_shared<std::promise<Prediction>>();
  std::future<Prediction> future = promise->get_future();
  submit(std::move(image), std::move(options),
         [promise](Prediction prediction, std::exception_ptr error) {
           if (error) {
             promise->set_exception(error);
           } else {
             promise->set_value(std::move(prediction));
           }
         });
  return future;
}

bool InferenceEngine::enqueue(Tensor image, const Options& options, Completion done,
                              bool throw_when_full) {
  if (!done) throw std::invalid_argument("InferenceEngine::submit: empty completion");
  VariantShard& shard = require_shard(options.variant);
  const int cap = effective_max_batch(options, config_.max_batch, "InferenceEngine::submit");
  Tensor batch = as_batch(image, model_.config(), "InferenceEngine::submit");
  if (batch.dim(0) != 1) {
    throw std::invalid_argument("InferenceEngine::submit: expected a single image, got a batch of " +
                                std::to_string(batch.dim(0)));
  }
  // Deep-copy the image: the caller may reuse its buffer before a worker
  // runs. Aggregate init so the Tensor member is built directly from the
  // clone (a default-constructed member would cost a dead scalar allocation
  // per submit).
  Request request{batch.reshape(Shape{batch.dim(1), batch.dim(2), batch.dim(3)}).clone(),
                  cap, {}, std::move(done)};
  const auto capacity = static_cast<std::size_t>(config_.queue_capacity);
  {
    std::lock_guard<util::DebugMutex> lock(queue_mutex_);
    if (stop_) throw std::runtime_error("InferenceEngine::submit: engine is shutting down");
    // Workers are spawned lazily, per variant, on its first queued request:
    // classify()-only engines and never-submitted variants pay for nothing.
    if (!shard.workers_spawned) {
      for (auto& replica : shard.replicas) {
        workers_.emplace_back([this, s = &shard, r = replica.get()] { worker_loop(s, r); });
      }
      shard.workers_spawned = true;
    }
    // Bounded queue: admission control happens here, before the request is
    // visible to any worker, so a shed request costs the engine nothing.
    if (shard.pending.size() >= capacity) {
      ++shard.rejected;
      if (!throw_when_full) return false;
      throw OverloadError("InferenceEngine::submit: variant \"" + options.variant +
                          "\" queue is full (" + std::to_string(capacity) + " pending)");
    }
    request.enqueued = std::chrono::steady_clock::now();
    shard.pending.push_back(std::move(request));
    shard.queue_peak = std::max(shard.queue_peak,
                                static_cast<std::int64_t>(shard.pending.size()));
  }
  shard.cv.notify_one();
  return true;
}

void InferenceEngine::worker_loop(VariantShard* shard, Replica* replica) {
  for (;;) {
    std::vector<Request> coalesced;
    int cap = config_.max_batch;
    {
      std::unique_lock<util::DebugMutex> lock(queue_mutex_);
      shard->cv.wait(lock, [&] { return stop_ || !shard->pending.empty(); });
      // Empty is only reachable with stop_ set and this variant's queue
      // drained (a sibling replica may have taken the last batch).
      if (shard->pending.empty()) return;
      // Coalesce the head-of-line request with the pending requests behind
      // it, up to the batch cap the head asked for.
      cap = shard->pending.front().max_batch;
      do {
        coalesced.push_back(std::move(shard->pending.front()));
        shard->pending.pop_front();
      } while (!shard->pending.empty() &&
               coalesced.size() < static_cast<std::size_t>(cap));
    }
    const std::int64_t count = static_cast<std::int64_t>(coalesced.size());
    std::vector<Prediction> predictions;
    std::exception_ptr error;
    replica->begin_call();  // queued batches count toward the router's load
    {
      // The assembled batch tensor is transient: frame it in this worker's
      // request arena (run() opens its own nested frame) so steady-state
      // submit traffic allocates nothing from the heap.
      util::ArenaScope frame(Replica::serving_arena());
      try {
        const Tensor& first = coalesced.front().image;
        Tensor batch(Shape::nchw(count, first.dim(0), first.dim(1), first.dim(2)));
        const std::int64_t stride = first.numel();
        for (std::int64_t i = 0; i < count; ++i) {
          const Tensor& image = coalesced[static_cast<std::size_t>(i)].image;
          std::copy(image.data(), image.data() + stride, batch.data() + i * stride);
        }
        // Stats are counted inside run(), before any completion runs: a
        // caller that has seen its outcome must see its batch in stats().
        predictions = replica->run(batch, cap, /*queued=*/true);
        // Latency (enqueue→resolve) is recorded before the completions for
        // the same reason: a caller that has seen its outcome must find its
        // request in the latency snapshot.
        const auto now = std::chrono::steady_clock::now();
        for (const auto& request : coalesced) {
          shard->latency.record(
              std::chrono::duration<double, std::micro>(now - request.enqueued).count());
        }
      } catch (...) {
        error = std::current_exception();
      }
    }
    replica->end_call();
    // Outside the arena frame and every engine lock: a completion may
    // allocate, encode, or wake another thread.
    for (std::int64_t i = 0; i < count; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      try {
        coalesced[slot].done(error ? Prediction{} : std::move(predictions[slot]), error);
      } catch (const std::exception& e) {
        // Completions must not throw; one that does must not end the worker.
        util::log_error() << "InferenceEngine: a completion for variant \"" << shard->name
                          << "\" threw: " << e.what();
      }
    }
  }
}

VariantStats InferenceEngine::shard_stats(const VariantShard& shard) const {
  VariantStats stats;
  stats.variant = shard.name;  // aliases report the shard they resolve to
  stats.replicas.reserve(shard.replicas.size());
  for (const auto& replica : shard.replicas) stats.replicas.push_back(replica->stats());
  {
    // Brief queue-lock acquisition; safe after shards_mutex_ because no path
    // waits for shards_mutex_ while holding queue_mutex_.
    std::lock_guard<util::DebugMutex> lock(queue_mutex_);
    stats.queue_depth = static_cast<std::int64_t>(shard.pending.size());
    stats.queue_peak = shard.queue_peak;
    stats.rejected = shard.rejected;
  }
  stats.latency = shard.latency.snapshot();
  return stats;
}

EngineStats InferenceEngine::stats() const {
  std::lock_guard<util::DebugMutex> lock(shards_mutex_);
  EngineStats stats;
  stats.variants.reserve(shards_.size());
  for (const auto& shard : shards_) {
    VariantStats per_variant = shard_stats(*shard);
    for (const auto& rs : per_variant.replicas) {
      stats.requests += rs.requests;
      stats.batches += rs.batches;
      stats.images += rs.images;
      stats.largest_batch = std::max(stats.largest_batch, rs.largest_batch);
    }
    stats.rejected += per_variant.rejected;
    stats.queue_peak = std::max(stats.queue_peak, per_variant.queue_peak);
    stats.variants.push_back(std::move(per_variant));
  }
  return stats;
}

VariantStats InferenceEngine::variant_stats(const std::string& name) const {
  return shard_stats(require_shard(name));
}

std::int64_t InferenceEngine::images_served(const std::string& name) const {
  std::int64_t images = 0;
  for (const auto& rs : variant_stats(name).replicas) images += rs.images;
  return images;
}

double accuracy(const std::vector<Prediction>& predictions, const std::vector<int>& labels) {
  if (predictions.size() != labels.size()) {
    throw std::invalid_argument("serve::accuracy: size mismatch");
  }
  if (predictions.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i].label == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

}  // namespace blurnet::serve
