// Shared scaffolding for the table/figure bench binaries.
//
// Every attack-evaluation bench builds an EvalEnv: the model zoo, the
// stop-sign eval set at the active scale, and an engine-backed eval::Harness.
// Victims are registered as engine variants and every clean/adversarial
// classification batch rides the replica-sharded serving path — results are
// bitwise identical for any BLURNET_EVAL_REPLICAS value.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "src/defense/model_zoo.h"
#include "src/eval/harness.h"
#include "src/util/cpu_caps.h"
#include "src/util/env.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace blurnet::bench {

/// Serving replicas per victim variant in the bench harnesses
/// (BLURNET_EVAL_REPLICAS, default 1). Per-image predictions and every table
/// number are bitwise identical for any value; higher counts fan the
/// per-target RP2 crafting runs out in parallel (and, through
/// eval::SweepScheduler, across victims).
inline int eval_replicas() { return util::env_int("BLURNET_EVAL_REPLICAS", 1); }

// The EOT pose knob (BLURNET_EOT_POSES, default 1 — the historical
// single-pose path) is read and validated once by
// eval::ExperimentScale::from_env() and lives in EvalEnv's scale
// (scale.eot_poses): paper_rp2_config() feeds it to every RP2 protocol and
// table 4 applies it to PGD. Unlike the replica knob it *changes the
// adversary* (K poses per gradient step is a strictly stronger,
// paper-faithful attack), so table numbers are only comparable at equal
// pose counts.

/// Zoo + eval set + engine-backed harness, the boilerplate previously
/// copy-pasted across the bench_table* binaries.
struct EvalEnv {
  eval::ExperimentScale scale;
  defense::ModelZoo zoo;
  data::StopSignSet stop_set;
  eval::Harness harness;

  /// `base_variant` is the zoo model adopted as the engine's base weights
  /// (trained or loaded from cache on construction).
  explicit EvalEnv(const std::string& base_variant = "baseline")
      : scale(eval::ExperimentScale::from_env()),
        zoo(defense::default_zoo_config()),
        stop_set(data::stop_sign_eval_set(scale.eval_images)),
        harness(zoo.get(base_variant), eval_replicas()),
        base_variant_(base_variant) {}

  /// Train (or load) zoo variant `zoo_name` and register it as a victim
  /// named `victim` (defaults to the zoo name). The engine's own base model
  /// is served through an alias of the "base" shard instead of deep-cloning
  /// a second, identical replica set.
  void add_zoo_victim(const std::string& zoo_name, const eval::VictimSpec& spec = {},
                      const std::string& victim = "") {
    serve::VariantSpec variant;
    if (zoo_name == base_variant_) {
      variant.alias_of = serve::kBaseVariant;
    } else {
      variant.model = &zoo.get(zoo_name);
    }
    harness.add_victim(victim.empty() ? zoo_name : victim, std::move(variant), spec);
  }

  /// Register an input-transform defense (a defense::ModelZoo
  /// transform-variant name: squeeze4, median3, dctq50, ...) over the
  /// engine's base weights as victim `victim` (defaults to the zoo name).
  /// The variant executes the engine's preprocess→forward pipeline, and its
  /// victim_handle() carries the transform so the adaptive protocols craft
  /// with BPDA straight-through gradients.
  void add_transform_victim(const std::string& zoo_name, const eval::VictimSpec& spec = {},
                            const std::string& victim = "") {
    serve::VariantSpec variant;
    variant.transform = defense::make_transform(defense::ModelZoo::transform_spec(zoo_name));
    harness.add_victim(victim.empty() ? zoo_name : victim, std::move(variant), spec);
  }

  /// Clean test-set accuracy of a victim through the batched serving path.
  double victim_accuracy(const std::string& victim) {
    return harness.dataset_accuracy(victim, zoo.dataset().test);
  }

 private:
  std::string base_variant_;
};

/// Print the standard bench banner with the active scale and the SIMD
/// kernel target every dispatched hot loop will run on (resolving it here
/// also surfaces a bad BLURNET_FORCE_KERNEL before any training starts).
inline void banner(const std::string& title, const eval::ExperimentScale& scale) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("scale: %d stop-sign images, %d targets, %d RP2 iterations, "
              "%d EOT pose%s/step (set BLURNET_FAST=1 / BLURNET_PAPER=1 / "
              "BLURNET_EOT_POSES=K to change)\n",
              scale.eval_images, scale.num_targets, scale.rp2_iterations, scale.eot_poses,
              scale.eot_poses == 1 ? "" : "s");
  std::printf("kernel: %s (set BLURNET_FORCE_KERNEL=scalar|avx2|neon to override)\n\n",
              util::kernel_target_name(util::active_kernel_target()));
}

/// Progress line after each completed protocol row.
inline void done(const std::string& label) { std::printf("  [done] %s\n", label.c_str()); }

/// Print a table and persist the CSV next to it.
inline void emit(const util::Table& table, const std::string& csv_name) {
  std::printf("%s\n", table.to_string().c_str());
  eval::write_results_file(csv_name, table.to_csv());
  std::printf("csv written to %s/%s\n", eval::results_dir().c_str(), csv_name.c_str());
}

/// Scheduler footer: per-victim crafting counters after an
/// eval::SweepScheduler run (crafting tasks completed, concurrent lanes).
inline void print_sweep_progress(const eval::SweepScheduler& scheduler) {
  std::printf("crafting tasks per victim (name=done/total on L lanes):");
  for (const auto& entry : scheduler.progress()) {
    std::printf(" %s=%d/%d@L%d", entry.victim.c_str(), entry.targets_done,
                entry.targets_total, entry.lanes);
  }
  std::printf("\n");
}

/// Serving-stats footer: how many images each victim variant classified
/// during the protocol (exact sums of the per-replica counters), with the
/// variant's own replica count — victims may be sharded differently. Also
/// restates the kernel target so a log tail identifies the numerics.
inline void print_serving_stats(const eval::Harness& harness) {
  std::printf("served images per victim variant (name=images/replicas):");
  for (const auto& name : harness.victim_names()) {
    std::printf(" %s=%lld/r%d", name.c_str(),
                static_cast<long long>(harness.images_served(name)),
                harness.replica_count(name));
  }
  std::printf(" [kernel=%s]\n",
              util::kernel_target_name(util::active_kernel_target()));
}

}  // namespace blurnet::bench
