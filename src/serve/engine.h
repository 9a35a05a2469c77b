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
// and arbitrary further variants — any LisaCnnConfig, e.g. other filter
// placements/kernels or a learnable-depthwise architecture, mirroring the
// ModelZoo variant names — can be added with register_variant(). A disabled
// defense makes "defended" an alias of the base shard (same replicas, no
// extra weight clones), so stats() then reports a single "base" entry.
//
// Every variant executes as an explicit two-stage pipeline:
//
//   preprocess — an optional defense::InputTransform (bit-depth squeeze,
//                median filter, DCT quantization, ...) applied to each
//                forward slice before the model, and
//   forward    — the replica's model forward.
//
// register_transform_variant() / register_transform_model() attach the
// preprocess stage; plain variants skip it. Both stages run inside the
// replica, so transformed variants inherit batching, replica sharding, the
// coalescing submit() workers and the bitwise determinism contract below
// unchanged.
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
//     Queues are bounded (EngineConfig::queue_capacity): a full queue either
//     rejects the submit with OverloadError or blocks the caller for
//     backpressure, per EngineConfig::overload_policy, so overload degrades
//     into explicit sheds or bounded waiting instead of unbounded memory
//     growth and runaway tail latency. try_submit() is the non-blocking form
//     for event loops, and submit(image, options) wraps the completion in a
//     std::future. Per-variant queue depth high-water marks and
//     enqueue→resolve latency quantiles are readable mid-run through stats().
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

/// What submit() does when a variant's bounded queue is full.
enum class OverloadPolicy {
  kReject,  // fail fast: throw OverloadError, caller sheds the request
  kBlock,   // backpressure: block the caller until a slot frees (or timeout)
};

const char* to_string(OverloadPolicy policy);

/// Thrown by submit() when the target variant's queue is full under kReject,
/// or a kBlock wait exceeds block_timeout_ms. Distinct from logic errors so
/// load generators can count sheds without swallowing real failures.
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
  /// Most requests a variant's submit() queue holds before the overload
  /// policy kicks in (>= 1). Bounds worst-case queueing delay: a full queue
  /// is capacity/throughput seconds of latency already committed.
  int queue_capacity = 1024;
  /// What submit() does when the queue is full.
  OverloadPolicy overload_policy = OverloadPolicy::kReject;
  /// kBlock only: longest a submit() waits for a slot before giving up with
  /// OverloadError. 0 = wait indefinitely. Must be 0 under kReject (a
  /// reject-policy engine never waits, so a timeout there is a config bug).
  int block_timeout_ms = 0;

  /// Reject malformed configs with a descriptive std::invalid_argument
  /// (non-positive max_batch / replicas / queue_capacity, negative timeout,
  /// timeout combined with kReject). Called by the engine constructor.
  void validate() const;
};

/// Per-request routing knobs.
struct Options {
  std::string variant = kBaseVariant;
  /// Override of EngineConfig::max_batch for this request; 0 = engine default.
  /// For submit() it caps the coalesced batch this request leads.
  int max_batch = 0;
};

struct VariantStats {
  std::string variant;
  std::vector<ReplicaStats> replicas;  // one entry per replica, index order
  std::int64_t queue_depth = 0;  // requests pending right now
  std::int64_t queue_peak = 0;   // high-water mark of the pending queue
  std::int64_t rejected = 0;     // submits shed by the overload policy
  std::int64_t blocked = 0;      // submits that had to wait (or park) for a slot
  /// Enqueue→resolve latency over the ring window; readable mid-run.
  LatencySnapshot latency;
};

struct EngineStats {
  std::int64_t requests = 0;       // images served through the submit() queue
  std::int64_t batches = 0;        // coalesced queue batches run
  std::int64_t images = 0;         // images through classify*/submit in total
  std::int64_t largest_batch = 0;  // biggest coalesced queue batch so far
  std::int64_t rejected = 0;       // submits shed by the overload policy
  std::int64_t blocked = 0;        // submits that had to wait for a slot
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
                  int replicas = 1, int queue_capacity = 1024,
                  OverloadPolicy overload_policy = OverloadPolicy::kReject,
                  int block_timeout_ms = 0);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// The adopted base weights (shared handles; retrain through this, then
  /// refresh_variant()).
  nn::LisaCnn& model() { return model_; }
  const nn::LisaCnn& model() const { return model_; }

  /// Register a named variant: `config`'s architecture serving the base
  /// weights (matching-name transfer). `replicas` 0 means the engine default.
  /// Throws std::invalid_argument if the name is empty or already taken.
  void register_variant(const std::string& name, const nn::LisaCnnConfig& config,
                        int replicas = 0);
  /// Register an *independently trained* model as a variant: every replica
  /// deep-clones `source`'s weights and architecture. Unlike
  /// register_variant, nothing is transferred from the engine's base model,
  /// so one engine can serve a whole zoo of differently-trained victims.
  /// refresh_variant() on such a shard throws — re-register after retraining.
  void register_model(const std::string& name, const nn::LisaCnn& source, int replicas = 0);
  /// Register an input-transform variant: the base weights served behind the
  /// preprocess stage `spec` describes (the two-stage pipeline above).
  /// Weights transfer from the base model, so refresh_variant() works; the
  /// transform itself is immutable. A kNone spec serves the bare forward
  /// path — bitwise identical to register_variant of the base config.
  void register_transform_variant(const std::string& name, const defense::TransformSpec& spec,
                                  int replicas = 0);
  /// Same, but wrapping an *independently trained* model (register_model
  /// semantics: deep clones of `source`, refresh_variant() throws).
  void register_transform_model(const std::string& name, const nn::LisaCnn& source,
                                const defense::TransformSpec& spec, int replicas = 0);
  /// Register the base weights behind an arbitrary already-built preprocess
  /// stage — any InputTransform subclass, not just the stock spec zoo. This
  /// is the injection point for custom pipeline stages (the load tests gate a
  /// variant's preprocess to fill its queue deterministically). nullptr
  /// serves the bare forward path. The stage must honor the InputTransform
  /// contract: deterministic, per-image, thread-safe, shape-preserving.
  void register_pipeline_variant(const std::string& name, defense::TransformPtr transform,
                                 int replicas = 0);
  /// Register `name` as an alias of an existing variant: same shard, same
  /// replicas, no extra weight clones (e.g. serving a zoo model's name next
  /// to "base" when they are the same weights, or a "canary" alias).
  void alias_variant(const std::string& name, const std::string& existing);
  /// Re-copy the (possibly retrained) base weights into every replica of the
  /// named variant. Must not race in-flight requests for that variant.
  /// Throws std::logic_error — naming the variant and its kind — for
  /// register_model() / register_transform_model() shards, whose weights do
  /// not come from the base model. Transform-wrapped base variants refresh
  /// their weights; the transform stage is immutable and kept.
  void refresh_variant(const std::string& name);

  std::vector<std::string> variant_names() const;
  bool has_variant(const std::string& name) const;
  /// The model served by the named variant (replica 0; all replicas are
  /// bitwise-identical clones).
  const nn::LisaCnn& variant(const std::string& name) const;
  /// The model served by replica `index` of the named variant. All replicas
  /// are bitwise-identical, but each owns its parameters (and therefore its
  /// autograd state), so gradient-side attack drivers can fan out across
  /// replicas without sharing mutable state. Throws on a bad index.
  const nn::LisaCnn& replica_model(const std::string& name, int index) const;
  int replica_count(const std::string& name) const;
  /// The named variant's preprocess stage; nullptr for plain variants (and
  /// kNone transform registrations). Shared by all the variant's replicas,
  /// immutable and thread-safe — attack drivers wrap it into BPDA handles.
  defense::TransformPtr variant_transform(const std::string& name) const;
  /// The kind of shard the name resolves to: "weight-transfer",
  /// "foreign-model", or the transform-wrapped forms of either. Mirrors the
  /// wording of refresh_variant()'s error messages.
  std::string variant_kind(const std::string& name) const;
  /// True when the "defended" variant actually wraps a filter.
  bool defense_enabled() const { return defense_enabled_; }

  /// The admission-control knobs the engine was built with. Front-ends that
  /// admit through try_submit() read these to decide whether a refused
  /// request is shed (kReject) or parked and retried (kBlock), and for how
  /// long (block_timeout_ms; 0 = until space frees).
  OverloadPolicy overload_policy() const { return config_.overload_policy; }
  int block_timeout_ms() const { return config_.block_timeout_ms; }

  /// Classify a CHW image or an NCHW batch through the named variant.
  /// Returns one Prediction per image, in input order. Thread-safe.
  std::vector<Prediction> classify(const tensor::Tensor& images,
                                   const Options& options = {}) const;

  /// Raw logits for a CHW image or NCHW batch through the named variant, as
  /// an [N, num_classes] tensor in input order. Same routing/batching as
  /// classify(); for callers (evaluation harnesses, calibration) that want
  /// the score matrix instead of per-image predictions. Thread-safe.
  tensor::Tensor classify_logits(const tensor::Tensor& images,
                                 const Options& options = {}) const;

  /// Queue one CHW (or [1,C,H,W]) image for coalesced classification through
  /// the named variant; `done` receives the outcome (see Completion). Replica
  /// workers are spawned lazily on the first call, so classify()-only engines
  /// never pay for them. The variant's queue is bounded by
  /// EngineConfig::queue_capacity: when full, kReject throws OverloadError
  /// immediately and kBlock waits for a slot (throwing OverloadError only if
  /// block_timeout_ms elapses first). When submit throws, `done` is never
  /// invoked.
  void submit(tensor::Tensor image, Options options, Completion done);
  /// Non-blocking admission: queue the request like submit() and return
  /// true, or return false — dropping `done` uncalled — when the variant's
  /// queue is full. A refusal counts once in `rejected` under kReject; under
  /// kBlock it counts once in `blocked`, and a caller that parks the request
  /// and retries passes `retry = true` on later attempts so the request is
  /// not counted again. Other failures (unknown variant, bad shape, engine
  /// shutting down) throw as in submit().
  bool try_submit(tensor::Tensor image, Options options, Completion done, bool retry = false);
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

  /// How a request asks for admission: wait for a slot (submit()), or take
  /// a refusal — first attempt or the retry of a parked request.
  enum class Admission { kWait, kTry, kRetry };
  /// The one admission path behind submit() and try_submit(). Returns false
  /// only for a refused kTry/kRetry.
  bool enqueue(tensor::Tensor image, const Options& options, Completion done,
               Admission admission);

  /// Samples each variant's latency ring holds. Large enough that a p999 over
  /// the window is meaningful, small enough that snapshot()'s sort is cheap.
  static constexpr std::size_t kLatencyWindow = 4096;

  struct VariantShard {
    std::string name;
    nn::LisaCnnConfig config;
    bool from_base = true;  // weights transferred from model_ (refreshable)
    defense::TransformPtr transform;  // preprocess stage; nullptr = bare forward
    std::vector<std::unique_ptr<Replica>> replicas;
    std::size_t next_replica = 0;  // round-robin tiebreak; guarded by shards_mutex_
    // Queued path, all guarded by the engine-wide queue_mutex_ (except
    // `latency`, which has its own lock). Each shard has its own queue and
    // condition variables so a submit() wakes only this variant's workers and
    // the head lookup is O(1).
    std::deque<Request> pending;
    util::DebugConditionVariable cv;        // workers wait here for requests
    util::DebugConditionVariable space_cv;  // kBlock submitters wait here for slots
    // kBlock admission is FIFO: each backpressured submit() takes a ticket and
    // only the queue's front may claim a freed slot, so slots go to waiters in
    // arrival order instead of whichever thread the scheduler wakes first. A
    // waiter that gives up (timeout, stop) erases its own ticket wherever it
    // sits and re-notifies, so the line never stalls behind a ghost.
    std::deque<std::uint64_t> block_waiters;
    std::uint64_t next_block_ticket = 0;
    bool workers_spawned = false;
    std::int64_t queue_peak = 0;  // high-water mark of pending.size()
    std::int64_t rejected = 0;    // submits shed by the overload policy
    std::int64_t blocked = 0;     // submits that had to wait (or park) for a slot
    LatencyRing latency{kLatencyWindow};  // enqueue→resolve, microseconds
  };

  /// _locked variants assume shards_mutex_ is held by the caller.
  std::vector<std::string> variant_names_locked() const;
  VariantShard* find_shard_locked(const std::string& name) const;
  VariantShard& require_shard_locked(const std::string& name) const;
  VariantShard& require_shard(const std::string& name) const;
  Replica& route_locked(VariantShard& shard) const;
  void register_variant_locked(const std::string& name, const nn::LisaCnnConfig& config,
                               int replicas);
  void register_shard_locked(const std::string& name, const nn::LisaCnn& source,
                             const nn::LisaCnnConfig& config, int replicas, bool from_base,
                             defense::TransformPtr transform = nullptr);
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
