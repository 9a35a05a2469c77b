#include "src/serve/replica.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "src/tensor/ops.h"
#include "src/util/arena.h"

namespace blurnet::serve {

using tensor::Shape;
using tensor::Tensor;

/// Per-serving-thread request arena. One per thread (classify() callers and
/// submit() workers alike); run() opens a frame per call, so the arena's
/// high-water mark settles at one request's transient footprint and the
/// steady-state forward path stops touching the heap. Frames nest — a
/// worker's batch-assembly frame stays live while run()'s inner frame comes
/// and goes.
util::Arena& Replica::serving_arena() {
  static thread_local util::Arena arena;
  return arena;
}

Replica::Replica(const nn::LisaCnn& source, const nn::LisaCnnConfig& config,
                 defense::TransformPtr transform)
    : model_(source.clone_with_config(config)), transform_(std::move(transform)) {}

void Replica::refresh_from(const nn::LisaCnn& source) {
  model_.copy_weights_from(source);
}

std::vector<Prediction> Replica::forward(const Tensor& batch) {
  // Stage 1 (optional): the variant's input transform. Per-image and
  // deterministic, so slicing the batch cannot change any prediction.
  const Tensor input = transform_ ? transform_->apply(batch) : batch;
  // Stage 2: the model forward.
  const Tensor logits = model_.logits(input);
  const Tensor probabilities = tensor::softmax_rows(logits);
  const std::vector<int> labels = tensor::argmax_rows(logits);
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  std::vector<Prediction> predictions(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Prediction& p = predictions[static_cast<std::size_t>(i)];
    p.label = labels[static_cast<std::size_t>(i)];
    p.confidence = probabilities.at2(i, p.label);
    p.logits.assign(logits.data() + i * k, logits.data() + (i + 1) * k);
  }
  return predictions;
}

std::vector<Prediction> Replica::run(const Tensor& batch, int max_batch, bool queued) {
  if (max_batch < 1) throw std::invalid_argument("Replica::run: max_batch must be >= 1");
  // Every tensor this call creates — transform output, activations, logits,
  // slices — is transient, so it bump-allocates from the thread's request
  // arena and is reclaimed wholesale when the frame closes. Results are
  // copied into plain Prediction vectors below, never arena memory, so
  // nothing escapes the frame. The arena only changes where bytes live, not
  // any arithmetic: outputs stay bitwise identical to the heap path.
  util::ArenaScope frame(serving_arena());
  // Bound each forward pass (and therefore the activation footprint) by
  // max_batch: callers may hand classify() a whole dataset. Per-image results
  // are independent, so slicing cannot change them.
  const std::int64_t n = batch.dim(0);
  std::vector<Prediction> predictions;
  predictions.reserve(static_cast<std::size_t>(n));
  if (n <= max_batch) {
    predictions = forward(batch);
  } else {
    const std::int64_t image_size = batch.numel() / n;
    for (std::int64_t begin = 0; begin < n; begin += max_batch) {
      const std::int64_t count = std::min<std::int64_t>(max_batch, n - begin);
      Tensor slice(Shape::nchw(count, batch.dim(1), batch.dim(2), batch.dim(3)));
      std::copy(batch.data() + begin * image_size,
                batch.data() + (begin + count) * image_size, slice.data());
      auto part = forward(slice);
      predictions.insert(predictions.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
    }
  }
  {
    std::lock_guard<util::DebugMutex> lock(stats_mutex_);
    stats_.images += n;
    if (queued) {
      stats_.requests += n;
      stats_.batches += 1;
      stats_.largest_batch = std::max(stats_.largest_batch, n);
    }
  }
  return predictions;
}

ReplicaStats Replica::stats() const {
  std::lock_guard<util::DebugMutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace blurnet::serve
