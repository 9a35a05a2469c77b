// Shared fixtures: a tiny synthetic dataset and a lightly trained classifier,
// built once per test binary (training even a tiny model takes seconds), plus
// helpers for sweeping the SIMD kernel dispatch targets.
#pragma once

#include <vector>

#include "src/data/dataset.h"
#include "src/defense/trainer.h"
#include "src/nn/lisa_cnn.h"
#include "src/util/cpu_caps.h"

namespace blurnet::testing {

/// Every dispatch target this host/binary can actually run (kScalar always
/// included), for KernelDispatch sweeps.
inline std::vector<util::KernelTarget> available_kernel_targets() {
  std::vector<util::KernelTarget> out;
  for (const auto t : {util::KernelTarget::kScalar, util::KernelTarget::kAvx2,
                       util::KernelTarget::kAvx512, util::KernelTarget::kNeon}) {
    if (util::kernel_target_available(t)) out.push_back(t);
  }
  return out;
}

/// Forces a dispatch target for one scope; the destructor restores env/probe
/// resolution (so a BLURNET_FORCE_KERNEL CI run keeps its forced target).
class ScopedKernelTarget {
 public:
  explicit ScopedKernelTarget(util::KernelTarget t) { util::set_kernel_target(t); }
  ~ScopedKernelTarget() { util::reset_kernel_target(); }
  ScopedKernelTarget(const ScopedKernelTarget&) = delete;
  ScopedKernelTarget& operator=(const ScopedKernelTarget&) = delete;
};

inline nn::LisaCnnConfig tiny_model_config() {
  nn::LisaCnnConfig config;
  config.conv1_filters = 4;
  config.conv2_filters = 8;
  config.conv3_filters = 12;
  return config;
}

inline const data::SynthLisa& tiny_dataset() {
  static const data::SynthLisa lisa = [] {
    data::SynthLisaOptions options;
    options.train_per_class = 12;
    options.test_per_class = 4;
    return data::make_synth_lisa(options);
  }();
  return lisa;
}

/// A classifier trained for a few epochs — accurate enough (>> chance) to
/// exercise attacks and defenses meaningfully, cheap enough for unit tests.
/// (The tiny dataset only yields ~7 batches/epoch, so the epoch count here is
/// what buys enough Adam steps to converge.)
inline const nn::LisaCnn& tiny_trained_model() {
  static const nn::LisaCnn model = [] {
    nn::LisaCnn m(tiny_model_config());
    defense::TrainConfig config;
    config.epochs = 18;
    config.batch_size = 16;
    defense::train_classifier(m, tiny_dataset().train, tiny_dataset().test, config);
    return m;
  }();
  return model;
}

}  // namespace blurnet::testing
