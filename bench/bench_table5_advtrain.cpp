// Table V (supplementary) — adversarial training vs adaptive attacks.
//
// The adaptive attacks of Table III (TV-aware, Tik_hf-aware, Tik_pseudo-aware
// RP2) are run against the PGD-adversarially-trained classifier. Paper shape:
// adversarial training beats the proposed defenses except TV — reinforcing
// that no single defense dominates across threat models.
#include "bench/bench_common.h"
#include "src/defense/blurnet.h"

using namespace blurnet;

int main() {
  bench::EvalEnv env("advtrain");
  bench::banner("Table V: adversarial training under adaptive attacks", env.scale);
  const int map_h = 32, map_w = 32;

  env.add_zoo_victim("advtrain");
  const double legit = env.victim_accuracy("advtrain");
  std::printf("adversarially trained model: legit accuracy %s\n\n",
              util::Table::pct(legit).c_str());

  struct Row {
    std::string label;
    attack::Rp2Adapter adapt;
  };
  const std::vector<Row> rows = {
      {"TV adaptive attack", attack::tv_aware_adapter()},
      {"Tik_hf attack", attack::tik_hf_aware_adapter(defense::tik_hf_operator(map_h))},
      {"Tik_pseudo attack",
       attack::tik_pseudo_aware_adapter(defense::tik_pseudo_operator(map_h, map_w))},
  };

  util::Table table({"Attack", "Avg Success", "Worst Success", "L2 Dissimilarity"});
  for (const auto& row : rows) {
    const auto sweep = eval::WhiteboxSweep{env.scale, row.adapt}.run(env.harness, "advtrain",
                                                                     legit, env.stop_set);
    table.add_row({row.label, util::Table::pct(sweep.average_success),
                   util::Table::pct(sweep.worst_success), util::Table::num(sweep.mean_l2)});
    bench::done(row.label);
  }
  std::printf("\n");
  bench::emit(table, "table5_advtrain.csv");
  bench::print_serving_stats(env.harness);
  return 0;
}
