// perfbench: the repository's benchmark of the paper-width BlurNet stack.
//
//   perfbench --workload <serve_light|net_overload|rp2_eval> --seed <n>
//             --seconds <s> --trace <0|1> [--rev <id>] [--trace-out <path>]
//
// Normally started through perfbench/run.py, which builds this binary from
// the checkout and passes the source revision.
//
// --trace 0 (end-to-end run): sets the workload up five times (setup_s is
// the median), then measures one pass of --seconds and prints
//
//   setup_s        set-up time: engine, server, inputs, references, warm-up
//   p50_ms         latency of one operation, from its scheduled start: a
//                  request (serve_light, net_overload) or one whitebox
//                  sweep (rp2_eval)
//   goodput_rps    useful work per second: correct replies inside the
//                  latency limit, or RP2 iterations of correct sweeps
//   admitted_frac  share of attempted operations not shed by overload
//
// All but setup_s are medians over the pass's measurement windows. The p99
// latency is printed on the summary line and kept as the per-layer metric
// gen.latency_ms.p99, not as an end-to-end figure: on a shared 4-vCPU host
// its run-to-run spread (interquartile range over median, ten runs) reached
// 0.26-0.52 on serve_light, past any usable regression bound.
//
// --trace 1 (traced run): runs the named workload untraced and then traced
// for half of --seconds each (their p50 difference is trace.overhead_frac),
// short traced passes of the other two workloads for their layer counters,
// and the per-layer probes (probes.h). Spans go to --trace-out as Chrome
// trace-event JSON; the per-layer metrics are printed.
//
// Every reply is checked bitwise against in-process classify() of the same
// image on the same variant, every sweep against the run's first sweep. Any
// mismatch is a failed operation and the exit code is 1. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/util/cpu_caps.h"
#include "src/util/parallel.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr double kCrossPassSeconds = 1.5;
/// A run is flagged when the generator's send-lag p99 exceeds this share of
/// p50_ms: its latency figures then carry scheduler noise.
constexpr double kLagFlagShare = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string rev = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--rev") {
      args.rev = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0.0) ||
      (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return args;
}

// ---- build stamp ----------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

/// Numbers from Debug, assert-enabled or sanitizer builds are refused.
std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    return "build type \"" + type + "\" is not an optimized build";
  }
  if (!kAssertsOff) return "NDEBUG is not defined";
  if (kSanitized || std::strlen(PERFBENCH_SANITIZE) > 0) {
    return std::string("sanitizer build (") + PERFBENCH_SANITIZE + ")";
  }
  return "";
}

std::string stamp_json(const Args& args) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"kernel\": \"%s\", \"nproc\": %u, \"pool_workers\": %d, "
                "\"build_type\": \"%s\", \"sanitize\": \"%s\", \"rev\": \"%s\"}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace,
                blurnet::util::kernel_target_name(blurnet::util::active_kernel_target()),
                std::thread::hardware_concurrency(), blurnet::util::parallel_workers(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE, args.rev.c_str());
  return buffer;
}

// ---- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median over the pass's windows of `per_window` (windows it maps to a
/// negative value are skipped).
template <typename Fn>
double window_median(const PassResult& pass, Fn per_window) {
  std::vector<double> values;
  for (const Window& window : pass.windows) {
    const double value = per_window(window);
    if (value >= 0.0) values.push_back(value);
  }
  return median(values);
}

double latency_quantile(const PassResult& pass, double q) {
  return window_median(pass, [q](const Window& w) {
    return w.latency_ms.empty() ? -1.0 : quantile(w.latency_ms, q);
  });
}

std::vector<Metric> end_to_end(const PassResult& pass, const std::vector<double>& setup_s) {
  return {
      {"setup_s", median(setup_s), "s"},
      {"p50_ms", latency_quantile(pass, 0.50), "ms"},
      {"goodput_rps",
       window_median(pass, [](const Window& w) { return ratio(w.good_work, w.seconds); }),
       "1/s"},
      {"admitted_frac", window_median(pass, [](const Window& w) {
         return w.attempted > 0 ? ratio(static_cast<double>(w.attempted - w.shed),
                                        static_cast<double>(w.attempted))
                                : -1.0;
       }),
       "1"},
  };
}

const char* unit_of(const std::string& name) {
  auto has = [&](const char* part) { return name.find(part) != std::string::npos; };
  if (has("_us")) return "us";
  if (has("_ms")) return "ms";
  if (has("gmacs")) return "GMAC/s";
  if (has("frac")) return "1";
  if (has("bytes")) return "B";
  return "count";
}

void print_summary(const char* label, const PassResult& pass) {
  std::printf("# %s: attempted=%lld succeeded=%lld shed=%lld failed=%lld latency_samples=%zu "
              "p99_ms=%.3f lag_p50_us=%.1f lag_p99_us=%.1f threads=%d connections=%d "
              "pool_workers=%d\n",
              label, static_cast<long long>(pass.ops.attempted),
              static_cast<long long>(pass.ops.succeeded), static_cast<long long>(pass.ops.shed),
              static_cast<long long>(pass.ops.failed), pass.latency_ms.size(),
              latency_quantile(pass, 0.99), quantile(pass.send_lag_us, 0.5),
              quantile(pass.send_lag_us, 0.99), pass.threads, pass.connections,
              pass.pool_workers);
  if (!pass.latency_ms.empty() && pass.latency_ms.size() <= 32) {
    std::printf("# %s: latency_ms", label);
    for (const double ms : pass.latency_ms) std::printf(" %.1f", ms);
    std::printf("\n");
  }
  const double p50_ms = quantile(pass.latency_ms, 0.5);
  const double lag_p99_ms = quantile(pass.send_lag_us, 0.99) / 1e3;
  if (p50_ms > 0 && lag_p99_ms > kLagFlagShare * p50_ms) {
    std::printf("# WARNING %s: generator send-lag p99 %.3f ms is large next to p50 %.3f ms; "
                "its latencies include scheduler delay\n",
                label, lag_p99_ms, p50_ms);
  }
}

void print_result(bool correct, const OpCounts& ops, const std::vector<Metric>& metrics) {
  std::string body;
  char buffer[256];
  for (const Metric& m : metrics) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit);
    body += buffer;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(ops.attempted),
              static_cast<long long>(ops.failed), body.c_str());
}

OpCounts add(OpCounts a, const OpCounts& b) {
  a.attempted += b.attempted;
  a.succeeded += b.succeeded;
  a.shed += b.shed;
  a.failed += b.failed;
  return a;
}

// ---- runs -----------------------------------------------------------------------

int end_to_end_run(const Args& args, Workload workload) {
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    bench = make_bench(workload, args.seed);
    setup_s.push_back(micros(t0, Clock::now()) / 1e6);
  }
  const PassResult pass = bench->pass(args.seconds);
  bench.reset();
  print_summary(args.workload.c_str(), pass);
  const bool correct = pass.ops.failed == 0;
  print_result(correct, pass.ops, end_to_end(pass, setup_s));
  return correct ? 0 : 1;
}

int traced_run(const Args& args, Workload workload) {
  Tracer& tracer = Tracer::instance();
  MetricMap layer;
  OpCounts ops;

  // The named workload: untraced, then traced, on one set-up.
  PassResult untraced, traced;
  {
    auto bench = make_bench(workload, args.seed);
    untraced = bench->pass(args.seconds / 2);
    tracer.set_enabled(true);
    traced = bench->pass(args.seconds / 2);
    bench->idle_probes(layer);
    tracer.set_enabled(false);
  }
  print_summary((args.workload + " untraced").c_str(), untraced);
  print_summary((args.workload + " traced").c_str(), traced);
  ops = add(add(ops, untraced.ops), traced.ops);
  const double p50_untraced = latency_quantile(untraced, 0.5);
  layer["trace.overhead_frac"] =
      ratio(latency_quantile(traced, 0.5) - p50_untraced, p50_untraced);
  layer["gen.latency_ms.p99"] = latency_quantile(untraced, 0.99);
  layer["gen.send_lag_us.p50"] = quantile(untraced.send_lag_us, 0.5);
  layer["gen.send_lag_us.p99"] = quantile(untraced.send_lag_us, 0.99);
  layer["gen.threads"] = untraced.threads;
  layer["gen.connections"] = untraced.connections;

  // Short traced passes of the other workloads, for their layer counters.
  tracer.set_enabled(true);
  for (const Workload other : {Workload::kServeLight, Workload::kNetOverload, Workload::kRp2Eval}) {
    PassResult pass;
    if (other == workload) {
      pass = traced;
    } else {
      auto bench = make_bench(other, args.seed);
      pass = bench->pass(other == Workload::kRp2Eval ? 0.0 : kCrossPassSeconds);
      bench->idle_probes(layer);
      print_summary(workload_name(other), pass);
      ops = add(ops, pass.ops);
    }
    for (const auto& [name, value] : pass.layer) layer[name] = value;
    if (other == Workload::kServeLight) {
      layer["serve.submit_call_us.p50"] = quantile(pass.call_us, 0.5);
      layer["serve.submit_call_us.p99"] = quantile(pass.call_us, 0.99);
      layer["serve.future_wait_us.p50"] = quantile(pass.wait_us, 0.5);
    } else if (other == Workload::kNetOverload) {
      layer["net.send_call_us.p50"] = quantile(pass.call_us, 0.5);
    }
  }

  std::string error;
  const bool probes_ok = run_probes(args.seed, layer, error);
  tracer.set_enabled(false);
  if (!probes_ok) std::printf("# probe check failed: %s\n", error.c_str());
  if (!args.trace_out.empty()) {
    tracer.write_chrome_json(args.trace_out);
    std::printf("# trace: %zu spans -> %s\n", tracer.span_count(), args.trace_out.c_str());
  }

  std::vector<Metric> metrics;
  for (const auto& [name, value] : layer) metrics.push_back({name, value, unit_of(name)});
  const bool correct = probes_ok && ops.failed == 0;
  print_result(correct, ops, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  Workload workload;
  try {
    args = parse_args(argc, argv);
    workload = parse_workload(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", refusal.c_str());
    return 2;
  }
  std::printf("# stamp %s\n", stamp_json(args).c_str());
  std::fflush(stdout);
  try {
    return args.trace == 1 ? traced_run(args, workload) : end_to_end_run(args, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
