// Quickstart: train an undefended road-sign classifier and a TV-regularized
// BlurNet classifier on the synthetic LISA dataset, attack both with RP2,
// compare attack success rates, and serve the trained models through the
// batched inference engine.
//
//   ./examples/quickstart [--epochs N] [--images N] [--iters N]
#include <algorithm>
#include <cstdio>
#include <future>
#include <utility>
#include <vector>

#include "src/defense/blurnet.h"
#include "src/eval/harness.h"
#include "src/serve/engine.h"
#include "src/util/cli.h"
#include "src/util/timer.h"

using namespace blurnet;

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_flag("epochs", "12", "training epochs per model");
  cli.add_flag("images", "6", "stop-sign images to attack");
  cli.add_flag("iters", "120", "RP2 iterations");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::printf("%s", cli.help("quickstart").c_str());
    return 0;
  }

  // 1. Data: 18-class synthetic LISA (see DESIGN.md for the substitution).
  data::SynthLisaOptions data_options;
  data_options.train_per_class = 40;
  data_options.test_per_class = 10;
  const auto lisa = data::make_synth_lisa(data_options);
  std::printf("dataset: %lld train / %lld test images, %d classes\n",
              static_cast<long long>(lisa.train.size()),
              static_cast<long long>(lisa.test.size()), lisa.train.num_classes);

  // 2. Train the undefended baseline and the TV-regularized defense.
  nn::LisaCnnConfig model_config;
  model_config.conv1_filters = 8;
  model_config.conv2_filters = 16;
  model_config.conv3_filters = 32;

  defense::TrainConfig train_config;
  train_config.epochs = cli.get_int("epochs");

  nn::LisaCnn baseline(model_config);
  const auto base_stats = defense::train_classifier(baseline, lisa.train, lisa.test, train_config);
  std::printf("baseline: test accuracy %.1f%%\n", 100.0 * base_stats.test_accuracy);

  defense::TrainConfig tv_config = train_config;
  tv_config.regularizer = defense::RegularizerSpec::tv(3e-4);
  nn::LisaCnn defended(model_config);
  const auto tv_stats = defense::train_classifier(defended, lisa.train, lisa.test, tv_config);
  std::printf("BlurNet (TV): test accuracy %.1f%%\n", 100.0 * tv_stats.test_accuracy);

  // 3. Serving: wrap the trained baseline in the replica-sharded inference
  // engine with a 5x5 feature-map blur as the deployed defense (Table I's
  // strongest row). Every variant ("base", "defended", plus anything
  // registered) is served by two bitwise-identical replicas; classify() routes
  // each call to the least-loaded one and slices it into coalesced forward
  // passes.
  serve::InferenceEngine engine(
      baseline, {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox},
      /*max_batch=*/64, /*replicas=*/2);

  // 4. RP2 sticker attack against both models through the evaluation
  // harness, using the paper's physical protocol: the sticker is optimized
  // on the attacker's own sign instances and evaluated on a held-out
  // stop-sign set. The harness borrows the production engine — the same
  // replicas classify the evaluation batches, and the per-target crafting
  // runs fan out across them.
  eval::ExperimentScale scale;
  scale.eval_images = cli.get_int("images");
  scale.num_targets = 3;
  scale.rp2_iterations = cli.get_int("iters");
  const auto stop_set = data::stop_sign_eval_set(scale.eval_images);

  eval::Harness harness(engine);
  harness.adopt_variant(serve::kBaseVariant);
  serve::VariantSpec blurnet_tv;
  blurnet_tv.model = &defended;
  harness.add_victim("blurnet-tv", std::move(blurnet_tv));

  std::printf("\nRP2 sticker attack (%d targets, %d iterations):\n", scale.num_targets,
              scale.rp2_iterations);
  const eval::WhiteboxSweep protocol{scale};
  const auto sweep_baseline =
      protocol.run(harness, serve::kBaseVariant, base_stats.test_accuracy, stop_set);
  const auto sweep_defended =
      protocol.run(harness, "blurnet-tv", tv_stats.test_accuracy, stop_set);
  std::printf("  baseline : avg ASR %.1f%%, worst %.1f%%  (L2 dissimilarity %.3f)\n",
              100.0 * sweep_baseline.average_success, 100.0 * sweep_baseline.worst_success,
              sweep_baseline.mean_l2);
  std::printf("  BlurNet  : avg ASR %.1f%%, worst %.1f%%  (L2 dissimilarity %.3f)\n",
              100.0 * sweep_defended.average_success, 100.0 * sweep_defended.worst_success,
              sweep_defended.mean_l2);
  std::printf("\nLower success on the BlurNet row is the paper's headline effect.\n");

  // 5. Synchronous batched classification through the same engine.
  const auto& test = lisa.test;

  util::Timer timer;
  const double plain_acc = serve::accuracy(engine.classify(test.images), test.labels);
  const double batched_ms = timer.milliseconds();

  timer.reset();
  const double defended_acc = serve::accuracy(
      engine.classify(test.images, serve::Options{serve::kDefendedVariant}), test.labels);
  const double defended_ms = timer.milliseconds();

  const auto count = static_cast<double>(test.size());
  std::printf("\nbatched serving (%lld test images through InferenceEngine):\n",
              static_cast<long long>(test.size()));
  std::printf("  base     : accuracy %.1f%%  (%.1f ms, %.0f img/s)\n",
              100.0 * plain_acc, batched_ms, 1e3 * count / batched_ms);
  std::printf("  defended : accuracy %.1f%%  (%.1f ms, %.0f img/s, 5x5 blur on L1 maps)\n",
              100.0 * defended_acc, defended_ms, 1e3 * count / defended_ms);

  // 6. Async traffic: push the test set image-by-image through submit(), the
  // way independent callers would. Worker threads coalesce the queue into
  // batches and load-balance them across the defended variant's replicas.
  timer.reset();
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(static_cast<std::size_t>(test.size()));
  const std::int64_t image_numel = 3LL * 32 * 32;
  for (std::int64_t i = 0; i < test.size(); ++i) {
    tensor::Tensor image(tensor::Shape{3, 32, 32});
    std::copy(test.images.data() + i * image_numel,
              test.images.data() + (i + 1) * image_numel, image.data());
    futures.push_back(engine.submit(std::move(image), serve::Options{serve::kDefendedVariant}));
  }
  std::size_t correct = 0;
  for (std::int64_t i = 0; i < test.size(); ++i) {
    if (futures[static_cast<std::size_t>(i)].get().label ==
        test.labels[static_cast<std::size_t>(i)]) {
      ++correct;
    }
  }
  const double submit_ms = timer.milliseconds();
  const auto stats = engine.stats();
  std::printf("  submit() : accuracy %.1f%%  (%.1f ms, %.0f img/s; %lld requests coalesced "
              "into %lld batches, largest %lld)\n",
              100.0 * static_cast<double>(correct) / count, submit_ms,
              1e3 * count / submit_ms, static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.largest_batch));
  for (const auto& vs : stats.variants) {
    for (std::size_t r = 0; r < vs.replicas.size(); ++r) {
      if (vs.replicas[r].images == 0) continue;
      std::printf("    %-8s replica %zu: %lld images, %lld queued batches\n",
                  vs.variant.c_str(), r, static_cast<long long>(vs.replicas[r].images),
                  static_cast<long long>(vs.replicas[r].batches));
    }
  }
  return 0;
}
