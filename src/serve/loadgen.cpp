#include "src/serve/loadgen.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/net/client.h"
#include "src/serve/engine.h"
#include "src/util/lockdep.h"
#include "src/util/rng.h"

namespace blurnet::serve {

using Clock = std::chrono::steady_clock;

const char* to_string(ArrivalProcess arrival) {
  switch (arrival) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kOnOff: return "onoff";
    case ArrivalProcess::kUniform: return "uniform";
  }
  return "?";
}

void LoadConfig::validate() const {
  if (!(offered_rps > 0.0)) {
    throw std::invalid_argument("LoadConfig: offered_rps must be > 0 (got " +
                                std::to_string(offered_rps) + ")");
  }
  if (requests < 1) {
    throw std::invalid_argument("LoadConfig: requests must be >= 1 (got " +
                                std::to_string(requests) + ")");
  }
  if (max_batch < 0) {
    throw std::invalid_argument("LoadConfig: max_batch must be >= 0 (0 = engine default, got " +
                                std::to_string(max_batch) + ")");
  }
  if (arrival == ArrivalProcess::kOnOff) {
    if (!(on_fraction > 0.0) || on_fraction > 1.0) {
      throw std::invalid_argument("LoadConfig: on_fraction must be in (0, 1] (got " +
                                  std::to_string(on_fraction) + ")");
    }
    if (!(burst_cycle_s > 0.0)) {
      throw std::invalid_argument("LoadConfig: burst_cycle_s must be > 0 (got " +
                                  std::to_string(burst_cycle_s) + ")");
    }
  }
  for (const auto& entry : mix) {
    if (entry.variant.empty()) {
      throw std::invalid_argument("LoadConfig: mix entries must name a variant");
    }
    if (!(entry.weight > 0.0)) {
      throw std::invalid_argument("LoadConfig: mix weight for variant \"" + entry.variant +
                                  "\" must be > 0 (got " + std::to_string(entry.weight) + ")");
    }
  }
  for (std::size_t i = 0; i < mix.size(); ++i) {
    for (std::size_t j = i + 1; j < mix.size(); ++j) {
      if (mix[i].variant == mix[j].variant) {
        throw std::invalid_argument("LoadConfig: variant \"" + mix[i].variant +
                                    "\" appears twice in the mix; merge the weights");
      }
    }
  }
}

void SocketTransport::validate() const {
  if (host.empty()) {
    throw std::invalid_argument("SocketTransport: host must not be empty");
  }
  if (connections < 1) {
    throw std::invalid_argument("SocketTransport: connections must be >= 1 (got " +
                                std::to_string(connections) + ")");
  }
}

LoadGenerator::LoadGenerator(LoadConfig config) : config_(std::move(config)) {
  config_.validate();
  mix_ = config_.mix;
  if (mix_.empty()) mix_.push_back({kBaseVariant, 1.0});
  build_schedule();
}

void LoadGenerator::build_schedule() {
  // One generator, fixed draw order (inter-arrival, then variant, per
  // request): the schedule is a pure function of the config.
  util::Rng rng(config_.seed);
  const auto n = static_cast<std::size_t>(config_.requests);
  offsets_.reserve(n);
  variants_.reserve(n);

  double total_weight = 0.0;
  for (const auto& entry : mix_) total_weight += entry.weight;

  // kOnOff generates Poisson arrivals in *active* time at the boosted on-rate
  // and maps active time onto wall time by skipping every cycle's off window,
  // so the long-run mean stays offered_rps while bursts run hotter.
  const double on_len = config_.on_fraction * config_.burst_cycle_s;
  const double rate = config_.arrival == ArrivalProcess::kOnOff
                          ? config_.offered_rps / config_.on_fraction
                          : config_.offered_rps;
  double active = 0.0;  // kPoisson/kOnOff clock; kUniform paces directly
  for (std::size_t i = 0; i < n; ++i) {
    double offset;
    switch (config_.arrival) {
      case ArrivalProcess::kUniform:
        offset = static_cast<double>(i) / config_.offered_rps;
        break;
      case ArrivalProcess::kPoisson:
        active += -std::log(1.0 - rng.uniform()) / rate;
        offset = active;
        break;
      case ArrivalProcess::kOnOff: {
        active += -std::log(1.0 - rng.uniform()) / rate;
        const double cycles = std::floor(active / on_len);
        offset = cycles * config_.burst_cycle_s + (active - cycles * on_len);
        break;
      }
    }
    offsets_.push_back(offset);

    double pick = rng.uniform() * total_weight;
    std::size_t chosen = mix_.size() - 1;
    for (std::size_t m = 0; m < mix_.size(); ++m) {
      pick -= mix_[m].weight;
      if (pick < 0.0) {
        chosen = m;
        break;
      }
    }
    variants_.push_back(chosen);
  }
}

void LoadGenerator::sleep_until_due(Clock::time_point t0, std::size_t i) const {
  std::this_thread::sleep_until(
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(offsets_[i])));
}

LoadReport LoadGenerator::run(InferenceEngine& engine, const tensor::Tensor& image) {
  // Fail before any traffic if the mix names an unknown variant.
  for (const auto& entry : mix_) {
    if (!engine.has_variant(entry.variant)) {
      throw std::invalid_argument("LoadGenerator: mix variant \"" + entry.variant +
                                  "\" is not registered with the engine");
    }
  }

  // Engine completions fill the records and count `outstanding` down; run()
  // returns only once it reaches zero, so no completion outlives them.
  std::vector<Record> records(offsets_.size());
  util::DebugMutex mutex BLURNET_LOCK_CLASS("serve::LoadGenerator::run");
  util::DebugConditionVariable all_done;
  std::size_t outstanding = 0;

  // Open-loop sender: fire each request at its scheduled absolute time,
  // regardless of how far behind the engine is. A shed (OverloadError) is
  // counted and never retried.
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    sleep_until_due(t0, i);
    Options options;
    options.variant = mix_[variants_[i]].variant;
    options.max_batch = config_.max_batch;
    {
      std::lock_guard<util::DebugMutex> lock(mutex);
      ++outstanding;  // before submit(): the completion may run before it returns
    }
    try {
      engine.submit(image, std::move(options), [&, i](Prediction, std::exception_ptr error) {
        records[i].outcome = error ? Record::Outcome::kFailed : Record::Outcome::kServed;
        records[i].completion = Clock::now();
        std::lock_guard<util::DebugMutex> lock(mutex);
        if (--outstanding == 0) all_done.notify_all();
      });
      continue;
    } catch (const OverloadError&) {
      records[i].outcome = Record::Outcome::kRejected;
    } catch (const std::exception&) {
      records[i].outcome = Record::Outcome::kFailed;
    }
    std::lock_guard<util::DebugMutex> lock(mutex);
    --outstanding;
  }
  std::unique_lock<util::DebugMutex> lock(mutex);
  all_done.wait(lock, [&] { return outstanding == 0; });
  return report(records, t0);
}

namespace {

/// One client connection plus its share of the pipelined schedule.
struct SocketLane {
  std::unique_ptr<net::Client> client;
  util::DebugMutex mutex BLURNET_LOCK_CLASS("serve::LoadGenerator::lane");
  util::DebugConditionVariable cv;
  std::deque<std::pair<std::size_t, std::uint32_t>> inbox;  // (schedule idx, request id)
  bool done = false;
};

}  // namespace

LoadReport LoadGenerator::run(const SocketTransport& transport, const tensor::Tensor& image) {
  transport.validate();
  const auto lanes_n = static_cast<std::size_t>(transport.connections);
  std::vector<SocketLane> lanes(lanes_n);
  for (auto& lane : lanes) {
    lane.client = std::make_unique<net::Client>(transport.host, transport.port);
    lane.client->ping();  // fail before any traffic if nothing answers
  }

  // One receiver per lane collects its replies in send order and fills the
  // records; the server may answer out of order, and the client stashes
  // early replies until their turn.
  std::vector<Record> records(offsets_.size());
  std::vector<std::thread> receivers;
  receivers.reserve(lanes_n);
  for (auto& lane : lanes) {
    receivers.emplace_back([&lane, &records] {
      for (;;) {
        std::pair<std::size_t, std::uint32_t> item;
        {
          std::unique_lock<util::DebugMutex> lock(lane.mutex);
          lane.cv.wait(lock, [&] { return lane.done || !lane.inbox.empty(); });
          if (lane.inbox.empty()) return;  // done and drained
          item = lane.inbox.front();
          lane.inbox.pop_front();
        }
        Record& record = records[item.first];
        try {
          lane.client->receive_classify(item.second);
          record.outcome = Record::Outcome::kServed;
        } catch (const OverloadError&) {
          record.outcome = Record::Outcome::kRejected;  // server-side shed
        } catch (const std::exception&) {
          record.outcome = Record::Outcome::kFailed;
        }
        record.completion = Clock::now();
      }
    });
  }

  // Open-loop sender, same absolute-time firing as run(); the wire write is
  // the only thing that differs. A send failure (server gone) is recorded as
  // a failed request.
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    SocketLane& lane = lanes[i % lanes_n];
    sleep_until_due(t0, i);
    std::uint32_t request_id = 0;
    try {
      request_id = lane.client->send_classify(image, mix_[variants_[i]].variant, config_.max_batch);
    } catch (const std::exception&) {
      records[i].outcome = Record::Outcome::kFailed;
      continue;
    }
    {
      std::lock_guard<util::DebugMutex> lock(lane.mutex);
      lane.inbox.emplace_back(i, request_id);
    }
    lane.cv.notify_one();
  }
  for (auto& lane : lanes) {
    {
      std::lock_guard<util::DebugMutex> lock(lane.mutex);
      lane.done = true;
    }
    lane.cv.notify_one();
  }
  for (auto& t : receivers) t.join();
  return report(records, t0);
}

LoadReport LoadGenerator::report(const std::vector<Record>& records, Clock::time_point t0) const {
  LoadReport report;
  report.offered_rps = config_.offered_rps;
  report.offered = static_cast<std::int64_t>(records.size());
  report.duration_s = std::chrono::duration<double>(Clock::now() - t0).count();
  report.variants.resize(mix_.size());
  std::vector<std::vector<double>> samples(mix_.size());
  for (std::size_t m = 0; m < mix_.size(); ++m) report.variants[m].variant = mix_[m].variant;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t m = variants_[i];
    VariantLoadStats& vs = report.variants[m];
    ++vs.offered;
    switch (records[i].outcome) {
      case Record::Outcome::kServed:
        ++vs.served;
        samples[m].push_back(
            std::chrono::duration<double, std::micro>(records[i].completion - t0).count() -
            offsets_[i] * 1e6);
        break;
      case Record::Outcome::kRejected: ++vs.rejected; break;
      case Record::Outcome::kPending:
      case Record::Outcome::kFailed: ++vs.failed; break;
    }
  }
  std::vector<double> merged;
  for (std::size_t m = 0; m < mix_.size(); ++m) {
    VariantLoadStats& vs = report.variants[m];
    merged.insert(merged.end(), samples[m].begin(), samples[m].end());
    vs.latency = summarize(std::move(samples[m]));
    report.served += vs.served;
    report.rejected += vs.rejected;
    report.failed += vs.failed;
  }
  report.latency = summarize(std::move(merged));
  if (report.duration_s > 0.0) {
    report.achieved_rps = static_cast<double>(report.served) / report.duration_s;
  }
  return report;
}

}  // namespace blurnet::serve
