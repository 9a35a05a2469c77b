// Open-loop load test of the serving engine: offered-load sweep with a mixed
// base / defended / transform traffic mix, plus a deliberate overload point
// to measure saturation throughput and how a full queue sheds.
//
// Results go to results/bench_serve_load.json (BLURNET_OUT_DIR to move the
// directory). The engine serves freshly initialized weights — arrival
// dynamics, queueing and tails do not depend on what the weights are, and
// skipping training keeps the bench runnable in CI.
//
// Knobs (all env vars):
//   BLURNET_LOAD_REQUESTS  requests per sweep point        (default 400)
//   BLURNET_LOAD_SEED      schedule seed                   (default 42)
//   BLURNET_LOAD_REPLICAS  replicas per variant            (default 2)
//   BLURNET_LOAD_QUEUE_CAP queue capacity per variant      (default 64)
//   BLURNET_LOAD_ARRIVAL   poisson | onoff | uniform       (default poisson)
//   BLURNET_LOAD_RPS       base offered rate; 0 calibrates (default 0)
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "src/eval/experiments.h"
#include "src/serve/engine.h"
#include "src/serve/loadgen.h"
#include "src/tensor/tensor.h"
#include "src/util/cpu_caps.h"
#include "src/util/env.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

using namespace blurnet;

namespace {

std::string json_snapshot(const serve::LatencySnapshot& s) {
  std::ostringstream out;
  out << "{\"count\": " << s.count << ", \"window\": " << s.window
      << ", \"mean_us\": " << s.mean_us << ", \"p50_us\": " << s.p50_us
      << ", \"p99_us\": " << s.p99_us << ", \"p999_us\": " << s.p999_us
      << ", \"max_us\": " << s.max_us << "}";
  return out.str();
}

std::string json_report(const serve::LoadReport& report) {
  std::ostringstream out;
  out << "{\"offered_rps\": " << report.offered_rps
      << ", \"achieved_rps\": " << report.achieved_rps
      << ", \"duration_s\": " << report.duration_s
      << ", \"offered\": " << report.offered << ", \"served\": " << report.served
      << ", \"rejected\": " << report.rejected << ", \"failed\": " << report.failed
      << ", \"latency\": " << json_snapshot(report.latency) << ", \"variants\": [";
  for (std::size_t i = 0; i < report.variants.size(); ++i) {
    const auto& v = report.variants[i];
    if (i > 0) out << ", ";
    out << "{\"variant\": \"" << v.variant << "\", \"offered\": " << v.offered
        << ", \"served\": " << v.served << ", \"rejected\": " << v.rejected
        << ", \"failed\": " << v.failed
        << ", \"latency\": " << json_snapshot(v.latency) << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main() {
  const int requests = util::env_int("BLURNET_LOAD_REQUESTS", 400);
  const int seed = util::env_int("BLURNET_LOAD_SEED", 42);
  const int replicas = util::env_int("BLURNET_LOAD_REPLICAS", 2);
  const int queue_cap = util::env_int("BLURNET_LOAD_QUEUE_CAP", 64);
  const std::string arrival_name =
      util::env_string("BLURNET_LOAD_ARRIVAL").value_or("poisson");
  double base_rps = static_cast<double>(util::env_int("BLURNET_LOAD_RPS", 0));

  serve::ArrivalProcess arrival;
  if (arrival_name == "poisson") {
    arrival = serve::ArrivalProcess::kPoisson;
  } else if (arrival_name == "onoff") {
    arrival = serve::ArrivalProcess::kOnOff;
  } else if (arrival_name == "uniform") {
    arrival = serve::ArrivalProcess::kUniform;
  } else {
    std::fprintf(stderr, "unknown BLURNET_LOAD_ARRIVAL \"%s\"\n", arrival_name.c_str());
    return 1;
  }

  serve::EngineConfig config;
  config.defense = {nn::FilterPlacement::kAfterLayer1, 3, signal::KernelKind::kBox};
  config.replicas = replicas;
  config.queue_capacity = queue_cap;
  serve::InferenceEngine engine(config);
  serve::VariantSpec squeeze4;
  squeeze4.transform = defense::make_transform(defense::TransformSpec::squeeze(4));
  engine.register_variant("squeeze4", std::move(squeeze4));

  util::Rng rng(99);
  const tensor::Tensor image =
      tensor::Tensor::rand_uniform(tensor::Shape::nchw(1, 3, 32, 32), rng)
          .reshape(tensor::Shape{3, 32, 32});

  // Warm up every variant and calibrate the single-stream service rate of the
  // slowest one, so the sweep fractions mean the same thing on any machine.
  const std::vector<std::string> variants = {serve::kBaseVariant, serve::kDefendedVariant,
                                             "squeeze4"};
  if (base_rps <= 0.0) {
    double slowest_rps = 0.0;
    for (const auto& name : variants) {
      serve::Options options;
      options.variant = name;
      const int calib = 64;
      tensor::Tensor batch(tensor::Shape::nchw(calib, 3, 32, 32));
      for (int i = 0; i < calib; ++i) {
        std::copy(image.data(), image.data() + image.numel(),
                  batch.data() + i * image.numel());
      }
      engine.classify(batch, options);  // warm-up (scratch, arenas, caches)
      util::Timer timer;
      engine.classify(batch, options);
      const double rate = calib / timer.seconds();
      if (slowest_rps == 0.0 || rate < slowest_rps) slowest_rps = rate;
      std::printf("calibrate %-10s %8.1f img/s\n", name.c_str(), rate);
    }
    base_rps = slowest_rps;
  }
  std::printf("base service rate: %.1f img/s, arrival=%s, queue=%d, replicas=%d\n", base_rps,
              arrival_name.c_str(), queue_cap, replicas);

  std::ostringstream sweeps;
  std::printf("\n%-10s %10s %10s %9s %9s %10s %10s %10s\n", "load", "offered/s",
              "achieved/s", "served", "rejected", "p50 ms", "p99 ms", "p999 ms");
  double saturation_rps = 0.0;
  const std::vector<double> fractions = {0.25, 0.5, 0.75, 1.0, 2.0};
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    serve::LoadConfig load;
    load.offered_rps = base_rps * fractions[f];
    load.arrival = arrival;
    load.requests = requests;
    load.seed = static_cast<std::uint64_t>(seed);
    load.mix = {{serve::kBaseVariant, 2.0}, {serve::kDefendedVariant, 1.0}, {"squeeze4", 1.0}};
    const serve::LoadReport report = serve::LoadGenerator(load).run(engine, image);
    saturation_rps = std::max(saturation_rps, report.achieved_rps);
    std::printf("%-10.2f %10.1f %10.1f %9lld %9lld %10.2f %10.2f %10.2f\n", fractions[f],
                report.offered_rps, report.achieved_rps,
                static_cast<long long>(report.served),
                static_cast<long long>(report.rejected), report.latency.p50_us / 1000.0,
                report.latency.p99_us / 1000.0, report.latency.p999_us / 1000.0);
    if (f > 0) sweeps << ",\n    ";
    sweeps << "{\"load_fraction\": " << fractions[f] << ", \"report\": " << json_report(report)
           << "}";
  }
  std::printf("\nsaturation throughput: %.1f req/s (best achieved across the sweep)\n",
              saturation_rps);

  const serve::EngineStats stats = engine.stats();
  std::ostringstream out;
  out << "{\n  \"requests_per_point\": " << requests << ",\n  \"seed\": " << seed
      << ",\n  \"kernel\": \"" << util::kernel_target_name(util::active_kernel_target())
      << "\",\n  \"replicas\": " << replicas << ",\n  \"queue_capacity\": " << queue_cap
      << ",\n  \"arrival\": \"" << arrival_name << "\",\n  \"base_service_rps\": " << base_rps
      << ",\n  \"saturation_rps\": " << saturation_rps
      << ",\n  \"engine\": {\"images\": " << stats.images
      << ", \"batches\": " << stats.batches << ", \"largest_batch\": " << stats.largest_batch
      << ", \"rejected\": " << stats.rejected
      << ", \"queue_peak\": " << stats.queue_peak << "},\n  \"sweep\": [\n    "
      << sweeps.str() << "\n  ]\n}\n";
  eval::write_results_file("bench_serve_load.json", out.str());
  std::printf("wrote %s/bench_serve_load.json\n", eval::results_dir().c_str());
  return 0;
}
