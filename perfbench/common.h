// Shared plumbing for the perfbench binary: clocks, order statistics, the
// in-memory span recorder behind the traced run, and the result types the
// workloads and probes fill in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

// ---- tracing ----------------------------------------------------------------
//
// Spans are recorded only around the benchmark's own calls into the library.
// Each span has a name, start, end, id and parent id; the spans of one
// request share its schedule index (`req`, -1 for spans outside a request).
// Every thread appends to its own buffer, so recording takes no lock; the
// buffers are merged and written as Chrome trace-event JSON at exit, which
// chrome://tracing and Perfetto load directly.

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::int64_t req = -1;
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id (ids start at 1; 0 means "no span").
  std::int64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Append a finished span to the calling thread's buffer. No-op when
  /// tracing is off; returns the span's id (0 when off).
  std::int64_t record(const char* name, Clock::time_point start, Clock::time_point end,
                      std::int64_t req = -1, std::int64_t parent = 0, std::int64_t id = 0);

  std::size_t span_count() const;
  /// Write every recorded span as Chrome trace-event JSON. Call only after
  /// all recording threads have been joined.
  void write_chrome_json(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{1};
  Clock::time_point epoch_;
};

/// RAII span around a scope: start at construction, recorded at destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t req = -1, std::int64_t parent = 0)
      : name_(name), req_(req), parent_(parent) {
    if (Tracer::instance().enabled()) {
      id_ = Tracer::instance().next_id();
      start_ = Clock::now();
    }
  }
  ~ScopedSpan() {
    if (id_ != 0) Tracer::instance().record(name_, start_, Clock::now(), req_, parent_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  const char* name_;
  std::int64_t req_;
  std::int64_t parent_;
  std::int64_t id_ = 0;
  Clock::time_point start_;
};

// ---- results ----------------------------------------------------------------

/// Operations of one workload pass. A shed is a typed overload reply; a
/// failure is a wrong answer, a transport error or an untyped error.
struct OpCounts {
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;
};

/// Named metric values; the caller picks which ones it prints.
using MetricMap = std::map<std::string, double>;

}  // namespace perfbench
