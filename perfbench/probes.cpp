#include "perfbench/probes.h"

#include <cstring>
#include <functional>
#include <map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/attack/eot.h"
#include "src/attack/masks.h"
#include "src/attack/nps.h"
#include "src/attack/rp2.h"
#include "src/autograd/ops.h"
#include "src/data/dataset.h"
#include "src/defense/input_transform.h"
#include "src/eval/experiments.h"
#include "src/linalg/gemm.h"
#include "src/net/wire.h"
#include "src/nn/lisa_cnn.h"
#include "src/serve/engine.h"
#include "src/signal/kernels.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace perfbench {

namespace autograd = blurnet::autograd;
namespace nn = blurnet::nn;
namespace serve = blurnet::serve;
using autograd::Variable;
using blurnet::tensor::Shape;
using blurnet::tensor::Tensor;

namespace {

/// Median microseconds of `reps` calls of `fn`.
double time_us(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(micros(t0, Clock::now()));
  }
  return median(times);
}

/// Median per-call microseconds of short calls, timed in blocks of `block`.
double time_us_per_call(int blocks, int block, const std::function<void()>& fn) {
  return time_us(blocks, [&] {
           for (int i = 0; i < block; ++i) fn();
         }) /
         block;
}

Tensor random_images(std::int64_t n, blurnet::util::Rng& rng) {
  return Tensor::rand_uniform(Shape::nchw(n, 3, 32, 32), rng);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// ---- nn: op-by-op forward replay -----------------------------------------------

enum Op { kConv1, kBlur, kConv2, kConv3, kRelu, kDense, kOps };
const char* const kOpNames[kOps] = {"conv1", "blur5", "conv2", "conv3", "relu", "dense"};
const char* const kOpSpans[kOps] = {"nn.conv1", "nn.blur5", "nn.conv2",
                                    "nn.conv3", "nn.relu",  "nn.dense"};

/// The forward of LisaCnn, one public autograd op at a time, from the
/// model's named_parameters(). Adds each op's microseconds into `op_us`.
class ForwardReplay {
 public:
  explicit ForwardReplay(const nn::LisaCnn& model) : config_(model.config()) {
    for (const auto& [name, param] : model.named_parameters()) params_[name] = param;
    const auto& filter = config_.fixed_filter;
    if (filter.placement != nn::FilterPlacement::kNone) {
      if (filter.placement != nn::FilterPlacement::kAfterLayer1) {
        throw std::invalid_argument("ForwardReplay: only after-layer-1 blur is replayed");
      }
      // LisaCnn's fixed blur: one kernel shared by every channel.
      const Tensor kernel = blurnet::signal::make_blur_kernel(filter.kernel, filter.kind);
      const std::int64_t k2 = static_cast<std::int64_t>(filter.kernel) * filter.kernel;
      Tensor stack(Shape{config_.conv1_filters, filter.kernel, filter.kernel});
      for (std::int64_t c = 0; c < config_.conv1_filters; ++c) {
        std::memcpy(stack.data() + c * k2, kernel.data(),
                    static_cast<std::size_t>(k2) * sizeof(float));
      }
      blur_ = Variable::constant(stack);
    }
  }

  Tensor run(const Tensor& batch, double op_us[kOps]) const {
    autograd::NoGradGuard no_grad;
    ScopedSpan replay("nn.forward");
    Variable h = Variable::constant(batch);
    auto step = [&](Op op, const std::function<Variable()>& fn) {
      ScopedSpan span(kOpSpans[op], -1, replay.id());
      const Clock::time_point t0 = Clock::now();
      h = fn();
      op_us[op] += micros(t0, Clock::now());
    };
    auto conv = [&](const char* layer, int stride, int kernel) {
      return autograd::conv2d(h, param(std::string(layer) + ".w"), param(std::string(layer) + ".b"),
                              stride, kernel / 2);
    };
    step(kConv1, [&] { return conv("conv1", config_.conv1_stride, config_.conv1_kernel); });
    step(kRelu, [&] { return autograd::relu(h); });
    if (blur_.defined()) {
      step(kBlur, [&] { return autograd::depthwise_conv2d_same(h, blur_, Variable()); });
    }
    step(kConv2, [&] { return conv("conv2", config_.conv2_stride, config_.conv2_kernel); });
    step(kRelu, [&] { return autograd::relu(h); });
    step(kConv3, [&] { return conv("conv3", config_.conv3_stride, config_.conv3_kernel); });
    step(kRelu, [&] { return autograd::relu(h); });
    step(kDense, [&] {
      return autograd::dense(autograd::flatten2d(h), param("fc.w"), param("fc.b"));
    });
    return h.value();
  }

 private:
  const Variable& param(const std::string& name) const { return params_.at(name); }

  nn::LisaCnnConfig config_;
  std::map<std::string, Variable> params_;
  Variable blur_;
};

/// Per-image op times of `reps` replays at `batch`; checks the replay's
/// logits against LisaCnn::logits first.
bool replay_layer_metrics(const nn::LisaCnn& model, const Tensor& batch, int reps,
                          const std::string& suffix, MetricMap& out, std::string& error) {
  const ForwardReplay replay(model);
  double scratch[kOps] = {};
  if (!bitwise_equal(replay.run(batch, scratch), model.logits(batch))) {
    error = "op replay logits differ from LisaCnn::logits at " + suffix;
    return false;
  }
  std::vector<std::vector<double>> per_op(kOps);
  std::vector<double> total;
  for (int r = 0; r < reps; ++r) {
    double op_us[kOps] = {};
    replay.run(batch, op_us);
    double sum = 0.0;
    for (int op = 0; op < kOps; ++op) {
      per_op[static_cast<std::size_t>(op)].push_back(op_us[op]);
      sum += op_us[op];
    }
    total.push_back(sum);
  }
  const double n = static_cast<double>(batch.dim(0));
  for (int op = 0; op < kOps; ++op) {
    out[std::string("nn.") + kOpNames[op] + "_us." + suffix] =
        median(per_op[static_cast<std::size_t>(op)]) / n;
  }
  out["nn.forward_us." + suffix] = median(total) / n;
  return true;
}

/// Graph forward (with the targeted cross-entropy) and backward at batch 32.
void gradient_metrics(const nn::LisaCnn& served, blurnet::util::Rng& rng, MetricMap& out) {
  const nn::LisaCnn model = served.clone();  // own parameters: grads land here
  const Tensor batch = random_images(32, rng);
  const std::vector<int> labels(32, 1);
  std::vector<double> forward, backward;
  for (int r = 0; r < 6; ++r) {
    const Variable x = Variable::leaf(batch, /*requires_grad=*/true);
    Clock::time_point t0 = Clock::now();
    Variable loss;
    {
      ScopedSpan span("nn.forward_grad");
      loss = autograd::softmax_cross_entropy(model.forward(x).logits, labels);
    }
    Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span("nn.backward");
      autograd::backward(loss);
    }
    Clock::time_point t2 = Clock::now();
    if (r == 0) continue;  // first pass grows gradient buffers
    forward.push_back(micros(t0, t1));
    backward.push_back(micros(t1, t2));
  }
  out["nn.forward_grad_us.b32"] = median(forward) / 32.0;
  out["nn.backward_us.b32"] = median(backward) / 32.0;
}

// ---- linalg ---------------------------------------------------------------------

void gemm_metrics(const nn::LisaCnnConfig& config, blurnet::util::Rng& rng, MetricMap& out) {
  // conv2 as the forward GEMM sees it per image: [F, C*k*k] x [C*k*k, oh*ow].
  const std::int64_t m = config.conv2_filters;
  const std::int64_t k =
      static_cast<std::int64_t>(config.conv1_filters) * config.conv2_kernel * config.conv2_kernel;
  const std::int64_t side = config.image_size / config.conv2_stride;
  const std::int64_t n = side * side;
  const std::int64_t batch = 64;
  const Tensor a = Tensor::rand_uniform(Shape::mat(m, k), rng);
  const Tensor b = Tensor::rand_uniform(Shape{batch, k, n}, rng);
  Tensor c(Shape{batch, m, n});
  const double macs = static_cast<double>(m * n * k);
  const double b1_us = time_us(400, [&] {
    ScopedSpan span("linalg.sgemm.conv2_b1");
    blurnet::linalg::sgemm_nn(m, n, k, a.data(), b.data(), c.data(), false);
  });
  const double b64_us = time_us(15, [&] {
    ScopedSpan span("linalg.sgemm.conv2_b64");
    blurnet::util::parallel_for(
        batch,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) {
            blurnet::linalg::sgemm_nn(m, n, k, a.data(), b.data() + i * k * n,
                                      c.data() + i * m * n, false);
          }
        },
        /*min_chunk=*/1);
  });
  out["linalg.gemm_gmacs.conv2_b1"] = macs / (b1_us * 1e3);
  out["linalg.gemm_gmacs.conv2_b64"] = macs * batch / (b64_us * 1e3);
}

// ---- defense --------------------------------------------------------------------

void defense_metrics(const serve::InferenceEngine& engine, blurnet::util::Rng& rng,
                     MetricMap& out) {
  const Tensor image = random_images(1, rng);
  const auto median5 = blurnet::defense::make_transform(blurnet::defense::TransformSpec::median(5));
  out["defense.median5_us"] = time_us(100, [&] {
    ScopedSpan span("defense.median5");
    median5->apply(image);
  });
  // Price of the blur: defended vs base forward at batch 1, interleaved.
  const nn::LisaCnn& base = engine.replica_model(serve::kBaseVariant, 0);
  const nn::LisaCnn& defended = engine.replica_model(serve::kDefendedVariant, 0);
  std::vector<double> base_us, defended_us;
  for (int r = 0; r < 300; ++r) {
    {
      ScopedSpan span("defense.forward_base");
      const Clock::time_point t0 = Clock::now();
      base.logits(image);
      base_us.push_back(micros(t0, Clock::now()));
    }
    {
      ScopedSpan span("defense.forward_defended");
      const Clock::time_point t0 = Clock::now();
      defended.logits(image);
      defended_us.push_back(micros(t0, Clock::now()));
    }
  }
  out["defense.blur_price_frac.b1"] = (median(defended_us) - median(base_us)) / median(base_us);
}

// ---- net codecs -----------------------------------------------------------------

void codec_metrics(const serve::InferenceEngine& engine, blurnet::util::Rng& rng,
                   MetricMap& out) {
  namespace net = blurnet::net;
  net::ClassifyRequest request;
  request.variant = serve::kDefendedVariant;
  request.images = random_images(1, rng).reshape(Shape{3, 32, 32});
  const std::vector<serve::Prediction> predictions =
      engine.classify(request.images, serve::Options{serve::kDefendedVariant});
  const auto request_bytes = net::encode_classify_request(request, /*batch=*/false);
  const auto prediction_bytes = net::encode_predictions(predictions, /*batch=*/false);
  out["net.encode_req_us"] = time_us_per_call(40, 50, [&] {
    net::encode_classify_request(request, false);
  });
  out["net.decode_req_us"] = time_us_per_call(40, 50, [&] {
    net::decode_classify_request(request_bytes.data(), request_bytes.size(), false);
  });
  out["net.encode_pred_us"] = time_us_per_call(40, 50, [&] {
    net::encode_predictions(predictions, false);
  });
  out["net.decode_pred_us"] = time_us_per_call(40, 50, [&] {
    net::decode_predictions(prediction_bytes.data(), prediction_bytes.size(), false);
  });
}

// ---- attack ---------------------------------------------------------------------

void attack_metrics(const nn::LisaCnn& served, std::uint64_t seed, blurnet::util::Rng& rng,
                    MetricMap& out) {
  namespace attack = blurnet::attack;
  // Per-sample affine_warp at the EOT batch (8 signs x 4 poses).
  attack::EotSampler sampler(seed, 32, attack::EotPoseRange{});
  const auto poses = sampler.sample_step(32, 32);
  const Tensor batch = random_images(32, rng);
  out["attack.warp_us.b32"] = time_us(20, [&] {
    ScopedSpan span("attack.warp");
    const Variable x = Variable::leaf(batch, true);
    autograd::backward(autograd::sum(autograd::affine_warp(x, poses)));
  });
  const Tensor palette = attack::printable_palette();
  const Tensor sticker = random_images(1, rng);
  out["attack.nps_us"] = time_us(50, [&] {
    ScopedSpan span("attack.nps");
    const Variable x = Variable::leaf(sticker, true);
    autograd::backward(autograd::nps_loss(x, palette));
  });
  // One RP2 iteration, as the difference of 4- and 1-iteration attacks (the
  // fixed clean/adversarial classify cost cancels).
  const nn::LisaCnn model = served.clone();
  blurnet::eval::ExperimentScale scale;
  scale.eot_poses = 4;
  const auto craft = blurnet::eval::attacker_craft_set(scale);
  const Tensor masks = attack::sticker_mask(craft.masks);
  auto attack_ms = [&](int iterations) {
    attack::Rp2Config config = blurnet::eval::paper_rp2_config(scale);
    config.iterations = iterations;
    config.seed = seed;
    return time_us(2, [&] {
             ScopedSpan span("attack.rp2");
             attack::rp2_attack(model, craft.images, masks, config);
           }) /
           1e3;
  };
  const double one = attack_ms(1);
  const double four = attack_ms(4);
  out["attack.step_ms"] = (four - one) / 3.0;
}

}  // namespace

bool run_probes(std::uint64_t seed, MetricMap& out, std::string& error) {
  const auto served = make_engine();
  const serve::InferenceEngine& engine = *served;
  const nn::LisaCnn& defended = engine.replica_model(serve::kDefendedVariant, 0);
  blurnet::util::Rng rng(seed ^ 0x5eedULL);
  if (!replay_layer_metrics(defended, random_images(1, rng), 300, "b1", out, error) ||
      !replay_layer_metrics(defended, random_images(64, rng), 9, "b64", out, error)) {
    return false;
  }
  gradient_metrics(defended, rng, out);
  gemm_metrics(defended.config(), rng, out);
  defense_metrics(engine, rng, out);
  codec_metrics(engine, rng, out);
  attack_metrics(defended, seed, rng, out);
  return true;
}

}  // namespace perfbench
