// Table III — adaptive attack evaluation (paper §V).
//
// Each defense is attacked with the strongest attack tailored to it:
//   * depthwise-conv models -> low-frequency DCT-projected RP2 (Eq. 8, dim 16)
//   * TV / Tikhonov models  -> RP2 with the defender's regularizer added to
//                              the attacker loss (Eqs. 9-11)
//   * input-transform zoo   -> BPDA straight-through RP2 (Athalye et al.):
//                              squeeze / median / DCT-quantize variants are
//                              served through the engine's preprocess stage
//                              and attacked through it
// Paper shape: the 5x5 conv breaks (worst ASR 75%), Tik_hf degrades by ~30
// points, while TV stays capped around 20-25% — the truly robust variant.
// The input transforms are expected to fall to BPDA (their robustness is
// largely gradient masking).
#include "bench/bench_common.h"
#include "src/attack/adaptive.h"
#include "src/defense/blurnet.h"

using namespace blurnet;

int main() {
  bench::EvalEnv env;
  bench::banner("Table III: adaptive attack evaluation", env.scale);
  const int map_h = 32, map_w = 32;  // first-layer maps are image-sized (conv1 s1)

  struct Row {
    std::string label;
    std::string variant;
    attack::Rp2Adapter adapt;
    bool input_transform = false;  // engine preprocess-stage variant vs trained zoo model
  };
  const std::vector<Row> rows = {
      {"3x3 conv", "dw3", attack::low_frequency_adapter(16)},
      {"5x5 conv", "dw5", attack::low_frequency_adapter(16)},
      {"7x7 conv", "dw7", attack::low_frequency_adapter(16)},
      {"TV (1e-4)", "tv1e-4", attack::tv_aware_adapter()},
      {"TV (1e-5)", "tv1e-5", attack::tv_aware_adapter()},
      {"Tik_hf", "tik_hf", attack::tik_hf_aware_adapter(defense::tik_hf_operator(map_h))},
      {"Tik_pseudo", "tik_pseudo",
       attack::tik_pseudo_aware_adapter(defense::tik_pseudo_operator(map_h, map_w))},
      // Input-transform zoo, attacked with BPDA straight-through gradients
      // (the transform itself rides in the victim handle; the adapter just
      // pins the bpda flag on, documenting the adaptive protocol).
      {"Squeeze 4-bit (BPDA)", "squeeze4", attack::bpda_adapter(), /*input_transform=*/true},
      {"Median 3x3 (BPDA)", "median3", attack::bpda_adapter(), /*input_transform=*/true},
      {"DCT quant q50 (BPDA)", "dctq50", attack::bpda_adapter(), /*input_transform=*/true},
  };

  // Every victim's adaptive sweep rides one cross-victim scheduler: the
  // per-target crafting jobs of all the defenses run concurrently across
  // their replica shards instead of finishing one victim before the next.
  // Results are bitwise identical to per-victim WhiteboxSweep::run() calls.
  eval::SweepScheduler scheduler(env.harness);
  std::vector<std::size_t> jobs;
  for (const auto& row : rows) {
    if (row.input_transform) {
      env.add_transform_victim(row.variant);
    } else {
      env.add_zoo_victim(row.variant);
    }
    jobs.push_back(scheduler.add(eval::WhiteboxSweep{env.scale, row.adapt}, row.variant,
                                 env.victim_accuracy(row.variant), env.stop_set));
  }
  scheduler.run();

  util::Table table({"Model", "Avg Success", "Worst Success", "L2 Dissimilarity"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& sweep = scheduler.sweep_result(jobs[i]);
    table.add_row({rows[i].label, util::Table::pct(sweep.average_success),
                   util::Table::pct(sweep.worst_success), util::Table::num(sweep.mean_l2)});
    bench::done(rows[i].label);
  }
  std::printf("\n");
  bench::emit(table, "table3_adaptive.csv");
  bench::print_sweep_progress(scheduler);
  bench::print_serving_stats(env.harness);
  std::printf("\nexpected shape (paper): the adaptive low-frequency attack hurts the 5x5\n"
              "conv badly; TV remains the most robust defense under adaptive adversaries;\n"
              "the input-transform zoo (squeeze/median/dctq) falls to BPDA, which sees\n"
              "through the non-differentiable preprocess stage with identity gradients.\n");
  return 0;
}
