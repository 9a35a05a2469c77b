#include "src/serve/qos.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace blurnet::serve {

LatencyRing::LatencyRing(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("LatencyRing: capacity must be positive");
  }
  samples_.reserve(capacity_);
}

void LatencyRing::record(double micros) {
  std::lock_guard<util::DebugMutex> lock(mutex_);
  if (samples_.size() < capacity_) {
    samples_.push_back(micros);
  } else {
    samples_[next_] = micros;
  }
  next_ = (next_ + 1) % capacity_;
  ++count_;
}

LatencySnapshot LatencyRing::snapshot() const {
  std::vector<double> window;
  std::int64_t count = 0;
  {
    std::lock_guard<util::DebugMutex> lock(mutex_);
    window = samples_;
    count = count_;
  }
  LatencySnapshot snap = summarize(std::move(window));
  snap.count = count;
  return snap;
}

LatencySnapshot summarize(std::vector<double> samples) {
  LatencySnapshot snap;
  snap.count = snap.window = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return snap;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  snap.mean_us = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double q) {
    const auto r = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(snap.window)));
    return samples[static_cast<std::size_t>(std::clamp<std::int64_t>(r, 1, snap.window) - 1)];
  };
  snap.max_us = samples.back();
  snap.p50_us = rank(0.50);
  snap.p99_us = rank(0.99);
  snap.p999_us = rank(0.999);
  return snap;
}

double latency_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("latency_quantile: q must be in [0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<std::int64_t>(samples.size());
  std::int64_t r = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  if (r < 1) r = 1;
  if (r > n) r = n;
  return samples[static_cast<std::size_t>(r - 1)];
}

}  // namespace blurnet::serve
