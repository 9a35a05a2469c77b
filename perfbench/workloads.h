// The three benchmark workloads. Each is set up once per Bench object (the
// constructor is the timed set-up) and then measured by pass(): an
// open-loop, fixed-rate request stream for serve_light and net_overload, and
// back-to-back whitebox sweeps for rp2_eval.
//
//   serve_light   in-process InferenceEngine::submit(), Poisson at 600 req/s,
//                 mix base 2 : defended 1 : median5 1, latency limit 10 ms.
//                 One sender thread plus one harvester per variant. The
//                 process pool is pinned to one worker while it is set up,
//                 so each request's forward runs whole on its replica worker.
//   net_overload  blurnetd (net::Server) over loopback, Poisson at 6000 req/s,
//                 mix base 1 : defended 1, latency limit 250 ms. Two client
//                 connections, each with a sender and a receiver thread.
//   rp2_eval      eval::WhiteboxSweep against "defended": 8 stop signs,
//                 4 targets, 4 EOT poses, kRp2Iterations iterations, crafted
//                 on 2 replica lanes. Runnable by name, but not one of
//                 BENCHMARK.json's workloads: on a shared 4-vCPU host its
//                 whole-run sweep times varied by about a quarter from run
//                 to run, past any usable regression bound. Traced runs
//                 still run it briefly for its eval.* counters.
//
// Every engine is the paper-width (16/32/64) LisaCnn with seed-initialised
// weights, 2 replicas per variant, queue capacity 64 and OverloadPolicy::
// kReject; "defended" is a 5x5 box blur after layer 1 and "median5" the base
// weights behind a 5x5 median input transform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/serve/engine.h"

namespace perfbench {

enum class Workload { kServeLight, kNetOverload, kRp2Eval };

/// Throws std::invalid_argument on an unknown name.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload workload);

inline constexpr int kRp2Iterations = 6;

/// One measurement window of a pass: kWindowSeconds of scheduled sends
/// (long enough for ten samples beyond p99 at 600 req/s), or
/// kSweepsPerWindow consecutive sweeps. The end-to-end figures are medians
/// over a pass's windows, so a burst of outside interference moves one
/// window rather than the result.
struct Window {
  double seconds = 0.0;
  std::int64_t attempted = 0;
  std::int64_t shed = 0;
  double good_work = 0.0;          // correct replies inside the limit, or RP2 iterations
  std::vector<double> latency_ms;  // correct operations, from their scheduled start
};

inline constexpr double kWindowSeconds = 2.0;
inline constexpr int kSweepsPerWindow = 3;

/// What one measured pass observed.
struct PassResult {
  OpCounts ops;
  std::vector<Window> windows;
  std::vector<double> latency_ms;   // every window's samples, in order
  std::vector<double> send_lag_us;  // actual minus scheduled send
  std::vector<double> call_us;      // submit() / send_classify() call time
  std::vector<double> wait_us;      // in-process future wait
  int threads = 0;                  // generator threads
  int connections = 0;              // client connections
  int pool_workers = 0;             // util::parallel_workers() during the pass
  MetricMap layer;                  // engine / server / eval counters seen by the pass
};

class Bench {
 public:
  virtual ~Bench() = default;
  /// Run the workload for about `seconds`. Wrong answers count as failed
  /// operations, never as exceptions.
  virtual PassResult pass(double seconds) = 0;
  /// Idle-path probes that need this workload's running system (for example
  /// the ping round trip of net_overload). Called only by the traced run.
  virtual void idle_probes(MetricMap& /*out*/) {}
};

/// The engine every workload serves from (see the file comment).
std::unique_ptr<blurnet::serve::InferenceEngine> make_engine();

/// Build (set up) a workload: engine, server, inputs, reference outputs,
/// warm-up. The whole constructor is what setup_s times.
std::unique_ptr<Bench> make_bench(Workload workload, std::uint64_t seed);

}  // namespace perfbench
