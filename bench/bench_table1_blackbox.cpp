// Table I — black-box transfer evaluation.
//
// RP2 adversarial examples are crafted on the vanilla classifier and
// transferred to the same weights wrapped with (a) an input blur and (b) a
// blur on the first-layer feature maps. The paper's finding: filtering the
// feature maps beats filtering the input at equal kernel size
// (90% -> 17.5% ASR for 5x5 on L1 maps vs 67.5% for 5x5 on the input).
// Extra rows serve the input-transform zoo (bit-depth squeeze, median,
// DCT quantization) through the engine's preprocess stage for the same
// oblivious-transfer comparison.
#include "bench/bench_common.h"
#include "src/defense/blurnet.h"

using namespace blurnet;

int main() {
  bench::EvalEnv env;
  bench::banner("Table I: black-box transfer (input filter vs feature-map filter)", env.scale);

  // Each row is the baseline's weights served behind a different fixed-filter
  // defense — a weight-transfer variant of the harness engine, exactly the
  // way a deployment would roll out a new defense next to the live model.
  struct Row {
    std::string name;
    nn::FixedFilterSpec defense;
  };
  const std::vector<Row> rows = {
      {"Baseline", {}},
      {"Input filter 3x3", {nn::FilterPlacement::kInput, 3, signal::KernelKind::kBox}},
      {"Input filter 5x5", {nn::FilterPlacement::kInput, 5, signal::KernelKind::kBox}},
      {"3x3 filter on L1 maps",
       {nn::FilterPlacement::kAfterLayer1, 3, signal::KernelKind::kBox}},
      {"5x5 filter on L1 maps",
       {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox}},
  };

  std::vector<std::string> victims;
  std::vector<std::string> labels;
  for (const auto& row : rows) {
    serve::VariantSpec variant;
    variant.config = env.harness.engine().model().config();
    variant.config->fixed_filter = row.defense;
    env.harness.add_victim(row.name, std::move(variant));
    victims.push_back(row.name);
    labels.push_back(row.name);
  }
  // Input-transform zoo rows: the same baseline weights served behind the
  // engine's preprocess stage (squeeze / median / DCT quantization) — the
  // related-work axis the feature-map filter is compared against. Transfer is
  // the *oblivious* threat model for them: the sticker is crafted on the
  // vanilla source, so the transform only acts server-side.
  struct TransformRow {
    std::string label;
    std::string zoo_name;
  };
  const std::vector<TransformRow> transform_rows = {
      {"Bit-depth squeeze 4-bit", "squeeze4"},
      {"Median filter 3x3", "median3"},
      {"DCT quantize q50", "dctq50"},
  };
  for (const auto& row : transform_rows) {
    env.add_transform_victim(row.zoo_name);
    victims.push_back(row.zoo_name);
    labels.push_back(row.label);
  }
  // The attack source: the engine's own base variant (the vanilla weights).
  env.harness.adopt_variant(serve::kBaseVariant);

  // The transfer protocol crafts each per-target sticker ONCE on the source
  // and evaluates the same physical sticker on every victim variant through
  // the engine — no per-row re-crafting of an identical optimization.
  const auto results =
      eval::TransferMatrix{env.scale}.run(env.harness, serve::kBaseVariant, victims,
                                          env.stop_set);

  util::Table table({"Model", "Accuracy", "Attack Success Rate"});
  for (std::size_t i = 0; i < victims.size(); ++i) {
    table.add_row({labels[i], util::Table::pct(results[i].clean_accuracy),
                   util::Table::pct(results[i].attack_success)});
    bench::done(labels[i]);
  }
  std::printf("\n");
  bench::emit(table, "table1_blackbox.csv");
  bench::print_serving_stats(env.harness);
  std::printf("\nexpected shape (paper): feature-map filtering reduces ASR far more than\n"
              "input filtering at the same kernel size; 5x5 on L1 maps is the strongest.\n");
  return 0;
}
