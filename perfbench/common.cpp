#include "perfbench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  return samples[index];
}

namespace {

// Per-thread span buffers. Owned by the registry so they outlive the threads
// that filled them; each thread caches a pointer to its own buffer.
struct Registry {
  std::mutex mutex;
  std::deque<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::vector<Span>& thread_buffer(std::uint32_t& tid) {
  thread_local std::vector<Span>* buffer = nullptr;
  thread_local std::uint32_t my_tid = 0;
  if (buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<std::vector<Span>>());
    buffer = reg.buffers.back().get();
    buffer->reserve(std::size_t{1} << 15);
    my_tid = static_cast<std::uint32_t>(reg.buffers.size());
  }
  tid = my_tid;
  return *buffer;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                            std::int64_t req, std::int64_t parent, std::int64_t id) {
  if (!enabled()) return 0;
  if (id == 0) id = next_id();
  std::uint32_t tid = 0;
  std::vector<Span>& buffer = thread_buffer(tid);
  buffer.push_back(Span{name, start, end, id, parent, req, tid});
  return id;
}

std::size_t Tracer::span_count() const {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) total += buffer->size();
  return total;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("perfbench: cannot write trace " + path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  bool first = true;
  for (const auto& buffer : reg.buffers) {
    for (const Span& span : *buffer) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, \"req\": %lld}}",
                   first ? "" : ",\n", span.name, span.tid, micros(epoch_, span.start),
                   micros(span.start, span.end), static_cast<long long>(span.id),
                   static_cast<long long>(span.parent), static_cast<long long>(span.req));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("perfbench: cannot flush trace " + path);
}

}  // namespace perfbench
