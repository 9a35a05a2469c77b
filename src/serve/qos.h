// Serving-QoS latency summaries, shared by the engine and the load generator.
//
// summarize() turns a set of latency samples into a LatencySnapshot (mean,
// max and nearest-rank p50/p99/p999; p(q) is the ceil(q * n)-th smallest
// sample). The load generator summarizes each run's per-request latencies
// with it.
//
// LatencyRing is the engine's fixed-size sliding-window reservoir: record()
// is O(1) under a private mutex (safe from any number of replica workers),
// snapshot() copies the window out and summarizes it. Snapshots are readable
// mid-run — the engine exposes one per variant shard through EngineStats, so
// an operator can watch p99 move while traffic is in flight. The window is
// fixed at construction, so a long benchmark sees the *latest* capacity
// samples — steady-state tails — rather than averaging warm-up spikes into
// the run.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/util/lockdep.h"

namespace blurnet::serve {

struct LatencySnapshot {
  std::int64_t count = 0;   // samples ever recorded
  std::int64_t window = 0;  // samples in this snapshot (<= ring capacity)
  double mean_us = 0.0;     // over the window
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;      // over the window
};

class LatencyRing {
 public:
  explicit LatencyRing(std::size_t capacity);

  LatencyRing(const LatencyRing&) = delete;
  LatencyRing& operator=(const LatencyRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Record one latency sample (microseconds). Thread-safe.
  void record(double micros);

  /// Order statistics over the current window. Thread-safe, readable mid-run.
  LatencySnapshot snapshot() const;

 private:
  const std::size_t capacity_;
  /// Leaf of the lock hierarchy: record()/snapshot() call out to nothing.
  mutable util::DebugMutex mutex_ BLURNET_LOCK_CLASS("serve::LatencyRing");
  std::vector<double> samples_;  // ring buffer, size grows to capacity_ once
  std::size_t next_ = 0;
  std::int64_t count_ = 0;
};

/// Order statistics over `samples` (sorted once, in place); count and window
/// are both the sample count.
LatencySnapshot summarize(std::vector<double> samples);

/// Nearest-rank quantile of an unsorted sample vector (q in [0, 1]); sorts a
/// copy. The reference the tests check summarize() against.
double latency_quantile(std::vector<double> samples, double q);

}  // namespace blurnet::serve
