// Fig. 3 — impact of the DCT mask dimension on the adaptive attack success
// rate against the 7x7 depthwise-convolution defense. The paper finds the
// attack peaks around dim 8 (≈35% ASR): small masks are too restrictive,
// large masks reintroduce the high frequencies the defense filters out.
#include "bench/bench_common.h"
#include "src/defense/blurnet.h"

using namespace blurnet;

int main() {
  bench::EvalEnv env;
  bench::banner("Fig. 3: DCT mask dimension vs adaptive ASR (7x7 conv)", env.scale);

  env.add_zoo_victim("dw7");
  const double legit = env.victim_accuracy("dw7");

  util::Table table({"DCT mask dim", "Avg Success", "Worst Success", "L2 Dissimilarity"});
  for (const int dim : {4, 8, 16, 32}) {
    const auto sweep =
        eval::WhiteboxSweep{env.scale, attack::low_frequency_adapter(dim)}.run(
            env.harness, "dw7", legit, env.stop_set);
    table.add_row({std::to_string(dim), util::Table::pct(sweep.average_success),
                   util::Table::pct(sweep.worst_success), util::Table::num(sweep.mean_l2)});
    bench::done("dim=" + std::to_string(dim));
  }
  std::printf("\n");
  bench::emit(table, "fig3_dct_dim_sweep.csv");
  bench::print_serving_stats(env.harness);
  return 0;
}
