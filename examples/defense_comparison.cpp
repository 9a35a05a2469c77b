// Defense comparison: pull several trained variants from the model zoo and
// evaluate them under the white-box RP2 protocol at a reduced scale. This is
// a miniature of bench_table2_whitebox meant for interactive exploration.
//
//   ./examples/defense_comparison [--variants a,b,c] [--images N] [--targets N]
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/defense/blurnet.h"
#include "src/eval/harness.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace blurnet;

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_flag("variants", "baseline,tv1e-4,dw5", "comma-separated zoo variants");
  cli.add_flag("images", "6", "stop-sign eval images");
  cli.add_flag("targets", "3", "number of attack targets");
  cli.add_flag("iters", "100", "RP2 iterations");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::printf("%s", cli.help("defense_comparison").c_str());
    return 0;
  }

  std::vector<std::string> variants;
  {
    std::stringstream ss(cli.get_string("variants"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) variants.push_back(item);
    }
  }

  eval::ExperimentScale scale;
  scale.eval_images = cli.get_int("images");
  scale.num_targets = cli.get_int("targets");
  scale.rp2_iterations = cli.get_int("iters");

  defense::ModelZoo zoo(defense::default_zoo_config());
  const auto stop_set = data::stop_sign_eval_set(scale.eval_images);

  // One engine-backed harness serves every requested variant: each zoo model
  // is registered as a named engine variant, and all clean/adversarial
  // classification batches go through the batched serving path, exactly like
  // production traffic would see the models.
  const std::string base_name = variants.empty() ? "baseline" : variants.front();
  eval::Harness harness(zoo.get(base_name));
  const eval::WhiteboxSweep protocol{scale};

  util::Table table({"Variant", "Legit Acc.", "Avg ASR", "Worst ASR", "L2 Dissim"});
  for (const auto& name : variants) {
    serve::VariantSpec variant;
    if (name == base_name) {
      // The engine already serves these weights as "base": alias, don't
      // deep-clone a second replica set.
      variant.alias_of = serve::kBaseVariant;
    } else {
      variant.model = &zoo.get(name);
    }
    harness.add_victim(name, std::move(variant));
    const double acc = harness.dataset_accuracy(name, zoo.dataset().test);
    const auto sweep = protocol.run(harness, name, acc, stop_set);
    table.add_row({name, util::Table::pct(sweep.legit_accuracy),
                   util::Table::pct(sweep.average_success),
                   util::Table::pct(sweep.worst_success),
                   util::Table::num(sweep.mean_l2)});
  }
  std::printf("white-box RP2 sweep (%d images, %d targets, %d iterations)\n\n%s",
              scale.eval_images, scale.num_targets, scale.rp2_iterations,
              table.to_string().c_str());
  return 0;
}
