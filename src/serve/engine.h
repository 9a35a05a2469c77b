// Replica-sharded inference engine: the serving layer above the classifier.
//
// An InferenceEngine owns a *base* model plus N serving replicas for every
// **named variant** of it. A variant is an architecture the base weights are
// transferred into (the Table I protocol of the paper): by default the engine
// registers
//
//   * "base"     — the adopted weights served as-is, and
//   * "defended" — the same weights wrapped in the deployed FixedFilterSpec
//                  (identical to "base" when the defense is disabled),
//
// and any further variant through the one registration call,
// register_variant(name, VariantSpec). A VariantSpec names where the weights
// come from — the base weights transferred into any LisaCnnConfig (other
// filter placements/kernels, a learnable-depthwise architecture, mirroring
// the ModelZoo variant names), an independently trained model, or an existing
// variant to alias — plus an optional preprocess stage and a replica count.
// A disabled defense makes "defended" an alias of the base shard (same
// replicas, no extra weight clones), so stats() then reports a single "base"
// entry.
//
// Every variant executes as an explicit two-stage pipeline:
//
//   preprocess — an optional defense::InputTransform (bit-depth squeeze,
//                median filter, DCT quantization, ...) applied to each
//                forward slice before the model, and
//   forward    — the replica's model forward.
//
// VariantSpec::transform attaches the preprocess stage; nullptr (which is
// what defense::make_transform returns for a kNone spec) skips it. Both
// stages run inside the replica, so transformed variants inherit batching,
// replica sharding, the coalescing submit() workers and the bitwise
// determinism contract below unchanged.
//
// Two ways in, both routed by Options::variant:
//
//   * classify(images, options): synchronous batched classification of a CHW
//     image or an NCHW batch. One forward pass per max_batch slice. The
//     router picks the least-loaded replica of the variant, so independent
//     callers spread across replicas instead of queueing on one model.
//   * submit(image, options, completion): queue a single image; a replica
//     worker invokes the completion with its prediction (or error). Each
//     replica runs a worker that coalesces compatible queued requests (same
//     variant) into one forward pass of up to max_batch images; with R
//     replicas, R coalesced batches of a variant can be in flight at once.
//     Queues are bounded (EngineConfig::queue_capacity) and a full queue
//     sheds: submit() throws OverloadError and try_submit() returns false,
//     so overload degrades into explicit sheds instead of unbounded memory
//     growth and runaway tail latency. Admission never waits. try_submit()
//     is the form for event loops, and submit(image, options) wraps the
//     completion in a std::future. Per-variant queue depth high-water marks
//     and enqueue→resolve latency quantiles are readable mid-run through
//     stats().
//
// Every replica is a deep clone of the base weights (LisaCnn::clone), so
// per-image results are bitwise identical for any replica count, batch
// split, or routing order — sharding and batching are purely throughput
// decisions. refresh_variant() re-transfers the base weights after
// retraining; like retraining itself, it must not race in-flight requests.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/lisa_cnn.h"
#include "src/serve/qos.h"
#include "src/serve/replica.h"
#include "src/util/lockdep.h"

namespace blurnet::serve {

/// Default variant names registered by every engine.
inline constexpr const char* kBaseVariant = "base";
inline constexpr const char* kDefendedVariant = "defended";

/// What a full queue does: it sheds. The one-value enum is kept only because
/// the benchmark harness under perfbench/ sets EngineConfig::overload_policy;
/// delete both with the next change to perfbench/.
enum class OverloadPolicy { kReject };

/// Thrown by submit() when the target variant's queue is full. Distinct from
/// logic errors so load generators can count sheds without swallowing real
/// failures.
struct OverloadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Receives the outcome of one queued request: its prediction, or — when
/// `error` is set — the exception that failed it (a throwing transform or
/// forward), with `prediction` left empty. The replica worker that served the
/// request invokes it exactly once, after the request shows up in stats() and
/// the latency snapshot, with no engine lock held. It runs on the worker, so
/// it must be quick and must not block on the engine; it must not throw
/// either (an exception that escapes it is logged and dropped).
using Completion = std::function<void(Prediction prediction, std::exception_ptr error)>;

struct EngineConfig {
  nn::LisaCnnConfig model;
  /// Architecture of the "defended" variant; kNone/kernel 0 disables it, in
  /// which case "defended" serves the plain architecture.
  nn::FixedFilterSpec defense;
  /// Largest forward pass a classify() slice or coalesced queue batch holds.
  int max_batch = 64;
  /// Serving replicas per variant (>= 1).
  int replicas = 1;
  /// Most requests a variant's submit() queue holds before further submits
  /// are shed (>= 1). Bounds worst-case queueing delay: a full queue is
  /// capacity/throughput seconds of latency already committed.
  int queue_capacity = 1024;
  /// Has no effect. Kept only because the benchmark harness under perfbench/
  /// sets it; delete it with the next change to perfbench/.
  OverloadPolicy overload_policy = OverloadPolicy::kReject;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (non-positive max_batch / replicas / queue_capacity). Called by the
  /// engine constructor.
  void validate() const;
};

/// Everything register_variant() needs to build a variant. At most one
/// weight source may be set; none set means the base weights in the base
/// architecture.
struct VariantSpec {
  /// Base-weight transfer (matching parameter names) into this architecture;
  /// unset means the base config. Refreshable with refresh_variant().
  std::optional<nn::LisaCnnConfig> config;
  /// An independently trained model, deep-cloned into every replica at
  /// registration (the caller's model need not outlive the call). Its
  /// weights do not come from the base model, so refresh_variant() throws.
  const nn::LisaCnn* model = nullptr;
  /// An existing variant to alias: same shard, same replicas, no new clones.
  /// An alias takes no transform and no replica count of its own.
  std::string alias_of;
  /// The preprocess stage; nullptr serves the bare forward. Stock stages come
  /// from defense::make_transform(spec) (kNone maps to nullptr); any
  /// InputTransform subclass honoring its contract (deterministic, per-image,
  /// thread-safe, shape-preserving) may be injected.
  defense::TransformPtr transform;
  /// Serving replicas; 0 means EngineConfig::replicas.
  int replicas = 0;
};

/// Per-request routing knobs.
struct Options {
  std::string variant = kBaseVariant;
  /// Lowers EngineConfig::max_batch for this request; 0 = engine default.
  /// A larger value is clamped to the engine's cap: a request may shrink its
  /// forward passes but never grow them. For submit() it caps the coalesced
  /// batch this request leads.
  int max_batch = 0;
};

struct VariantStats {
  std::string variant;
  std::vector<ReplicaStats> replicas;  // one entry per replica, index order
  std::int64_t queue_depth = 0;  // requests pending right now
  std::int64_t queue_peak = 0;   // high-water mark of the pending queue
  std::int64_t rejected = 0;     // submits shed by a full queue
  /// Enqueue→resolve latency over the ring window; readable mid-run.
  LatencySnapshot latency;
};

struct EngineStats {
  std::int64_t requests = 0;       // images served through the submit() queue
  std::int64_t batches = 0;        // coalesced queue batches run
  std::int64_t images = 0;         // images through classify*/submit in total
  std::int64_t largest_batch = 0;  // biggest coalesced queue batch so far
  std::int64_t rejected = 0;       // submits shed by a full queue
  std::int64_t queue_peak = 0;     // deepest any variant's queue has been
  std::vector<VariantStats> variants;  // exact per-replica breakdown
};

class InferenceEngine {
 public:
  /// Fresh (untrained) model from the config. Useful for tests and benches.
  explicit InferenceEngine(EngineConfig config);
  /// Adopt an already-trained classifier. The engine shares the base model's
  /// parameters (Variable handles) with the caller, but every serving replica
  /// deep-clones the weights at registration — call refresh_variant() if the
  /// base model is retrained afterwards.
  InferenceEngine(nn::LisaCnn model, nn::FixedFilterSpec defense, int max_batch = 64,
                  int replicas = 1, int queue_capacity = 1024);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// The adopted base weights (shared handles; retrain through this, then
  /// refresh_variant()).
  nn::LisaCnn& model() { return model_; }
  const nn::LisaCnn& model() const { return model_; }

  /// Register `name` as `spec` describes. Throws std::invalid_argument,
  /// naming the variant, if the name is empty or taken, the spec sets two
  /// weight sources or negative replicas, an alias names an unknown variant
  /// or sets a transform or replicas, or the weights expect another input
  /// shape than the base model.
  void register_variant(const std::string& name, VariantSpec spec);
  /// The base weights behind the stock preprocess stage `spec` describes.
  /// Kept only because the benchmark harness under perfbench/ calls it;
  /// delete it with the next change to perfbench/ and call register_variant.
  void register_transform_variant(const std::string& name, const defense::TransformSpec& spec,
                                  int replicas = 0) {
    VariantSpec variant;
    variant.transform = defense::make_transform(spec);
    variant.replicas = replicas;
    register_variant(name, std::move(variant));
  }
  /// Re-copy the (possibly retrained) base weights into every replica of the
  /// named variant. Must not race in-flight requests for that variant.
  /// Throws std::logic_error — naming the variant and its kind — for shards
  /// registered from a VariantSpec::model, whose weights do not come from the
  /// base model. Transform-wrapped base variants refresh their weights; the
  /// transform stage is immutable and kept.
  void refresh_variant(const std::string& name);

  std::vector<std::string> variant_names() const;
  bool has_variant(const std::string& name) const;
  /// The model served by replica `index` of the named variant. All replicas
  /// are bitwise-identical deep clones. Gradient-side attack drivers read it
  /// through a frozen view (nn::LisaCnn::frozen()), which never writes to it,
  /// so any number of them may craft on one replica while it serves. Throws
  /// on a bad index.
  const nn::LisaCnn& replica_model(const std::string& name, int index) const;
  int replica_count(const std::string& name) const;
  /// The named variant's preprocess stage; nullptr for plain variants.
  /// Shared by all the variant's replicas, immutable and thread-safe —
  /// attack drivers wrap it into BPDA handles.
  defense::TransformPtr variant_transform(const std::string& name) const;
  /// True when the "defended" variant actually wraps a filter.
  bool defense_enabled() const { return defense_enabled_; }

  /// Classify a CHW image or an NCHW batch through the named variant.
  /// Returns one Prediction per image, in input order. Thread-safe.
  std::vector<Prediction> classify(const tensor::Tensor& images,
                                   const Options& options = {}) const;

  /// Queue one CHW (or [1,C,H,W]) image for coalesced classification through
  /// the named variant; `done` receives the outcome (see Completion). Replica
  /// workers are spawned lazily on the first call, so classify()-only engines
  /// never pay for them. The variant's queue is bounded by
  /// EngineConfig::queue_capacity: when it is full, submit throws
  /// OverloadError at once and counts the shed in `rejected`. When submit
  /// throws, `done` is never invoked.
  void submit(tensor::Tensor image, Options options, Completion done);
  /// submit() for event loops: queue the request and return true, or return
  /// false — dropping `done` uncalled, counted once in `rejected` — when the
  /// variant's queue is full. Other failures (unknown variant, bad shape,
  /// engine shutting down) throw as in submit().
  bool try_submit(tensor::Tensor image, Options options, Completion done);
  /// submit() with the outcome delivered through a future: a thin wrapper for
  /// callers that wait on each request.
  std::future<Prediction> submit(tensor::Tensor image, Options options = {});

  EngineStats stats() const;
  /// Per-replica counter snapshot for one variant (aliases resolve to the
  /// shard they point at). Lets benches report exactly how many images a
  /// victim variant served during an evaluation protocol.
  VariantStats variant_stats(const std::string& name) const;
  /// Total images served through the named variant so far.
  std::int64_t images_served(const std::string& name) const;

 private:
  struct Request {
    tensor::Tensor image;  // CHW
    int max_batch = 0;  // cap for the coalesced batch this request leads
    std::chrono::steady_clock::time_point enqueued;  // for the latency ring
    Completion done;
  };

  /// The one admission path behind submit() and try_submit(). A full queue
  /// throws OverloadError when `throw_when_full`, else returns false.
  bool enqueue(tensor::Tensor image, const Options& options, Completion done,
               bool throw_when_full);

  /// Samples each variant's latency ring holds. Large enough that a p999 over
  /// the window is meaningful, small enough that snapshot()'s sort is cheap.
  static constexpr std::size_t kLatencyWindow = 4096;

  struct VariantShard {
    std::string name;
    bool from_base = true;  // weights transferred from model_ (refreshable)
    std::vector<std::unique_ptr<Replica>> replicas;
    std::size_t next_replica = 0;  // round-robin tiebreak; guarded by shards_mutex_
    // Queued path, all guarded by the engine-wide queue_mutex_ (except
    // `latency`, which has its own lock). Each shard has its own queue and
    // condition variable so a submit() wakes only this variant's workers and
    // the head lookup is O(1).
    std::deque<Request> pending;
    util::DebugConditionVariable cv;  // workers wait here for requests
    bool workers_spawned = false;
    std::int64_t queue_peak = 0;  // high-water mark of pending.size()
    std::int64_t rejected = 0;    // submits shed by a full queue
    LatencyRing latency{kLatencyWindow};  // enqueue→resolve, microseconds
  };

  /// _locked variants assume shards_mutex_ is held by the caller.
  std::vector<std::string> variant_names_locked() const;
  VariantShard* find_shard_locked(const std::string& name) const;
  VariantShard& require_shard_locked(const std::string& name) const;
  VariantShard& require_shard(const std::string& name) const;
  Replica& route_locked(VariantShard& shard) const;
  static std::string shard_kind(const VariantShard& shard);
  /// Full per-variant snapshot (replica counters + queue counters + latency).
  VariantStats shard_stats(const VariantShard& shard) const;
  void worker_loop(VariantShard* shard, Replica* replica);

  nn::LisaCnn model_;
  /// The validated serving knobs; `config_.model` is the base architecture.
  EngineConfig config_;
  bool defense_enabled_ = false;

  // Lock hierarchy (outermost first): shards_mutex_ -> queue_mutex_ ->
  // LatencyRing/Replica stats leaves. stats() is the deepest path: it walks
  // shards under shards_mutex_ and snapshots each shard's queue counters and
  // latency ring. No path acquires shards_mutex_ while holding queue_mutex_
  // (submit() routes under shards_mutex_, releases, then queues). Enforced in
  // Debug builds by util::DebugMutex (src/util/lockdep.h).

  /// Guards shards_/aliases_ layout and the router's round-robin cursors.
  /// Shards are held by pointer so registration never invalidates replicas a
  /// worker or an in-flight classify() is using.
  mutable util::DebugMutex shards_mutex_ BLURNET_LOCK_CLASS("serve::Engine::shards");
  std::vector<std::unique_ptr<VariantShard>> shards_;
  /// Extra names resolving to an existing shard (e.g. "defended" -> base
  /// when the defense is disabled).
  std::vector<std::pair<std::string, VariantShard*>> aliases_;

  mutable util::DebugMutex queue_mutex_ BLURNET_LOCK_CLASS("serve::Engine::queue");
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Fraction of predictions whose label matches the ground truth. Throws when
/// the sizes disagree.
double accuracy(const std::vector<Prediction>& predictions, const std::vector<int>& labels);

}  // namespace blurnet::serve
