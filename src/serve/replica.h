// A serving replica: one independently-owned clone of a model variant plus
// its own request counters, executing the variant's two-stage
// preprocess→forward pipeline.
//
// Replicas exist so the engine can run several forward passes of the same
// variant at once: each replica's worker computes its coalesced batch on its
// own thread (its convolutions keep per-thread pad/column-strip scratch
// warm) while parallel_for pins the intra-batch work to the shared process
// pool — the pool serves whichever replica grabs it first and concurrent
// regions fall back inline, so replicas never deadlock and never share
// mutable state.
//
// A replica's weights are deep clones (LisaCnn::clone_with_config) of the
// engine's base model, so every replica of a variant is bitwise identical and
// routing a request to any of them yields bitwise-identical predictions. The
// optional defense::InputTransform (the preprocess stage) is shared, const
// and per-image, so it preserves that contract for any batch split. Attacks
// craft on a frozen view of a replica's weights (eval::Harness::
// victim_handle), which only reads them, so crafting never writes a
// replica's state and needs no replica of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/defense/input_transform.h"
#include "src/nn/lisa_cnn.h"
#include "src/util/arena.h"
#include "src/util/lockdep.h"

namespace blurnet::serve {

struct Prediction {
  int label = -1;
  float confidence = 0.0f;     // softmax probability of `label`
  std::vector<float> logits;   // raw scores, size num_classes
};

/// Counters for one replica. Totals in EngineStats are the exact sums of
/// these, so per-replica load imbalance is always visible.
struct ReplicaStats {
  std::int64_t requests = 0;       // images served from the submit() queue
  std::int64_t batches = 0;        // coalesced queue batches run by this replica
  std::int64_t images = 0;         // images through this replica in total
  std::int64_t largest_batch = 0;  // biggest coalesced queue batch so far
};

class Replica {
 public:
  /// Clone `source`'s weights into `config`'s architecture (Table I weight
  /// transfer; config == source.config() gives an exact clone). `transform`
  /// is the variant's optional preprocess stage, applied to every forward
  /// slice before the model; nullptr serves the bare forward path.
  Replica(const nn::LisaCnn& source, const nn::LisaCnnConfig& config,
          defense::TransformPtr transform = nullptr);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  const nn::LisaCnn& model() const { return model_; }
  /// The preprocess stage (shared across the variant's replicas); nullptr
  /// when the variant serves the bare forward path.
  const defense::TransformPtr& transform() const { return transform_; }

  /// Re-copy matching-name weights from `source` (after retraining). Not
  /// safe concurrently with in-flight runs on this replica.
  void refresh_from(const nn::LisaCnn& source);

  /// Run an NCHW batch, slicing into forward passes of at most `max_batch`
  /// images. Per-image results are independent of the slicing. `queued` marks
  /// the call as a coalesced submit() batch for the stats counters.
  std::vector<Prediction> run(const tensor::Tensor& batch, int max_batch,
                              bool queued = false);

  ReplicaStats stats() const;

  /// Forward runs currently executing on this replica — synchronous
  /// classify() calls and coalesced queue batches alike; the router picks
  /// the least-loaded replica so independent callers spread out.
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }
  void begin_call() { in_flight_.fetch_add(1, std::memory_order_relaxed); }
  void end_call() { in_flight_.fetch_sub(1, std::memory_order_relaxed); }

  /// The calling thread's request arena. run() opens a frame in it per call;
  /// the engine's workers open an outer frame around batch assembly. One
  /// arena per serving thread, so after warm-up the steady-state forward
  /// path performs zero heap allocations (results are copied out to plain
  /// heap containers before each frame closes).
  static util::Arena& serving_arena();

 private:
  /// One pipeline pass over a slice: preprocess (optional) then forward.
  std::vector<Prediction> forward(const tensor::Tensor& batch);

  nn::LisaCnn model_;
  defense::TransformPtr transform_;
  std::atomic<int> in_flight_{0};
  /// Leaf of the lock hierarchy (may be taken under the engine's shard lock).
  mutable util::DebugMutex stats_mutex_ BLURNET_LOCK_CLASS("serve::Replica::stats");
  ReplicaStats stats_;
};

}  // namespace blurnet::serve
