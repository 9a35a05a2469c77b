// Ablation (supplementary §A) — where should the blur filter go?
//
// The paper argues filters belong after layer 1 only: higher layers carry
// classification-relevant high-frequency content and their neurons' receptive
// fields no longer preserve the perturbation's spatial locality. We wrap the
// trained baseline with a fixed 5x5 blur at each position and measure clean
// accuracy and black-box transfer ASR.
#include "bench/bench_common.h"
#include "src/defense/blurnet.h"

using namespace blurnet;

int main() {
  bench::EvalEnv env;
  bench::banner("Ablation: blur filter position (supplementary A)", env.scale);

  struct Row {
    std::string label;
    nn::FilterPlacement placement;
  };
  const std::vector<Row> rows = {
      {"no filter", nn::FilterPlacement::kNone},
      {"input", nn::FilterPlacement::kInput},
      {"after layer 1", nn::FilterPlacement::kAfterLayer1},
      {"after layer 2", nn::FilterPlacement::kAfterLayer2},
      {"after layer 3", nn::FilterPlacement::kAfterLayer3},
  };

  // Every filter position is the baseline's weights served behind a different
  // wrap — weight-transfer variants of the harness engine.
  std::vector<std::string> victims;
  for (const auto& row : rows) {
    serve::VariantSpec variant;
    variant.config = env.harness.engine().model().config();
    variant.config->fixed_filter = {row.placement,
                                    row.placement == nn::FilterPlacement::kNone ? 0 : 5,
                                    signal::KernelKind::kBox};
    env.harness.add_victim(row.label, std::move(variant));
    victims.push_back(row.label);
  }
  env.harness.adopt_variant(serve::kBaseVariant);

  const auto transfers =
      eval::TransferMatrix{env.scale}.run(env.harness, serve::kBaseVariant, victims,
                                          env.stop_set);

  util::Table table({"Filter position", "Test accuracy", "Transfer ASR"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double accuracy = env.victim_accuracy(rows[i].label);
    table.add_row({rows[i].label, util::Table::pct(accuracy),
                   util::Table::pct(transfers[i].attack_success)});
    bench::done(rows[i].label);
  }
  std::printf("\n");
  bench::emit(table, "ablation_filter_position.csv");
  bench::print_serving_stats(env.harness);
  std::printf("\nexpected shape (paper): blurring after layer 1 trades a little accuracy for\n"
              "robustness; blurring higher layers costs much more accuracy for less benefit.\n");
  return 0;
}
