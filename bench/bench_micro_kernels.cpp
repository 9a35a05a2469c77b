// Micro-benchmarks (google-benchmark) for the computational kernels the
// experiments lean on: convolution forward/backward, FFT/DCT transforms,
// depthwise blur, the input-transform defense kernels, TV penalty, the
// persistent-pool parallel runtime, and the batched inference engine.
#include <benchmark/benchmark.h>

#include <future>
#include <vector>

#include "src/attack/eot.h"
#include "src/attack/masks.h"
#include "src/attack/rp2.h"
#include "src/autograd/ops.h"
#include "src/data/dataset.h"
#include "src/defense/input_transform.h"
#include "src/linalg/gemm.h"
#include "src/nn/lisa_cnn.h"
#include "src/serve/engine.h"
#include "src/signal/dct.h"
#include "src/signal/fft.h"
#include "src/signal/kernels.h"
#include "src/tensor/ops.h"
#include "src/util/cpu_caps.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

using namespace blurnet;

namespace {

tensor::Tensor random_nchw(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                           std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return tensor::Tensor::randn(tensor::Shape::nchw(n, c, h, w), rng);
}

void BM_Conv2dForward(benchmark::State& state) {
  const auto batch = state.range(0);
  const auto x = autograd::Variable::constant(random_nchw(batch, 3, 32, 32));
  util::Rng rng(2);
  const auto w = autograd::Variable::constant(
      tensor::Tensor::randn(tensor::Shape{8, 3, 5, 5}, rng, 0.0f, 0.1f));
  const auto b = autograd::Variable::constant(tensor::Tensor::zeros(tensor::Shape::vec(8)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(autograd::conv2d(x, w, b, 1, 2).value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2dForward)->Arg(1)->Arg(8)->Arg(32);

void BM_Conv2dBackward(benchmark::State& state) {
  const auto batch = state.range(0);
  util::Rng rng(3);
  for (auto _ : state) {
    auto x = autograd::Variable::leaf(random_nchw(batch, 3, 32, 32), true);
    auto w = autograd::Variable::leaf(
        tensor::Tensor::randn(tensor::Shape{8, 3, 5, 5}, rng, 0.0f, 0.1f), true);
    auto b = autograd::Variable::leaf(tensor::Tensor::zeros(tensor::Shape::vec(8)), true);
    auto loss = autograd::mean(autograd::conv2d(x, w, b, 1, 2));
    autograd::backward(loss);
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2dBackward)->Arg(1)->Arg(8);

void BM_DepthwiseBlur(benchmark::State& state) {
  const auto kernel_size = state.range(0);
  const auto x = random_nchw(8, 8, 32, 32);
  const auto kernel = signal::make_blur_kernel(static_cast<int>(kernel_size));
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::filter2d_depthwise(x, kernel).data());
  }
}
BENCHMARK(BM_DepthwiseBlur)->Arg(3)->Arg(5)->Arg(7);

// Many small planes, repeated: the workload that exposed the per-call
// thread-spawn overhead of the seed runtime. The parallel region is tiny, so
// with the worker count pinned above 1 the cost used to be dominated by
// std::thread creation; the persistent pool turns it into a wakeup.
void BM_DepthwiseBlurManySmallPlanes(benchmark::State& state) {
  util::set_parallel_workers(static_cast<int>(state.range(0)));
  const auto x = random_nchw(64, 16, 16, 16);
  const auto kernel = signal::make_blur_kernel(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::filter2d_depthwise(x, kernel).data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 16);
  util::reset_parallel_workers();
}
BENCHMARK(BM_DepthwiseBlurManySmallPlanes)->Arg(1)->Arg(2)->Arg(4);

// Pure parallel-region overhead: a near-empty body over a small range, so the
// timing is the runtime's dispatch cost rather than useful work.
void BM_ParallelForDispatch(benchmark::State& state) {
  util::set_parallel_workers(static_cast<int>(state.range(0)));
  std::vector<float> sink(1024, 1.0f);
  for (auto _ : state) {
    util::parallel_for(1024, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) sink[static_cast<std::size_t>(i)] += 1.0f;
    }, /*min_chunk=*/64);
    benchmark::DoNotOptimize(sink.data());
  }
  util::reset_parallel_workers();
}
BENCHMARK(BM_ParallelForDispatch)->Arg(2)->Arg(4);

// The seed runtime's strategy, kept here as the reference point: spawn and
// join fresh std::threads for every parallel region. Compare against
// BM_ParallelForDispatch at the same worker count to see what the persistent
// pool buys on dispatch-bound workloads.
void spawn_per_call_parallel_for(std::int64_t n, int workers,
                                 const std::function<void(std::int64_t, std::int64_t)>& fn,
                                 std::int64_t min_chunk) {
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(workers, (n + min_chunk - 1) / min_chunk));
  const std::int64_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    const std::int64_t begin = c * chunk;
    const std::int64_t end = std::min<std::int64_t>(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  for (auto& t : threads) t.join();
}

void BM_ParallelForDispatchSpawnBaseline(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  std::vector<float> sink(1024, 1.0f);
  for (auto _ : state) {
    spawn_per_call_parallel_for(1024, workers, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) sink[static_cast<std::size_t>(i)] += 1.0f;
    }, /*min_chunk=*/64);
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_ParallelForDispatchSpawnBaseline)->Arg(2)->Arg(4);

void BM_DepthwiseBlurManySmallPlanesSpawnBaseline(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto x = random_nchw(64, 16, 16, 16);
  const auto kernel = signal::make_blur_kernel(3);
  const std::int64_t planes = 64 * 16, side = 16, hw = side * side;
  tensor::Tensor out(x.shape());
  // Same per-plane arithmetic as filter_plane's interior, dispatched the seed
  // way (fresh threads per call) so only the dispatch strategy differs from
  // BM_DepthwiseBlurManySmallPlanes.
  const float* taps = kernel.data();
  for (auto _ : state) {
    spawn_per_call_parallel_for(planes, workers, [&](std::int64_t p0, std::int64_t p1) {
      for (std::int64_t p = p0; p < p1; ++p) {
        const float* src = x.data() + p * hw;
        float* dst = out.data() + p * hw;
        for (std::int64_t y = 0; y < side; ++y) {
          for (std::int64_t xx = 0; xx < side; ++xx) {
            double acc = 0.0;
            for (int fy = 0; fy < 3; ++fy) {
              const std::int64_t sy = y + fy - 1;
              if (sy < 0 || sy >= side) continue;
              for (int fx = 0; fx < 3; ++fx) {
                const std::int64_t sx = xx + fx - 1;
                if (sx < 0 || sx >= side) continue;
                acc += static_cast<double>(taps[fy * 3 + fx]) * src[sy * side + sx];
              }
            }
            dst[y * side + xx] = static_cast<float>(acc);
          }
        }
      }
    }, /*min_chunk=*/1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * planes);
}
BENCHMARK(BM_DepthwiseBlurManySmallPlanesSpawnBaseline)->Arg(1)->Arg(2)->Arg(4);

// ---- pose-batched EOT: the attack-side batching -----------------------------
// BM_AffineWarpBatch: forward + backward of the per-sample-transform warp on
// an [N,3,32,32] batch — the op the EOT pipeline leans on. The arg is the
// row count n*K of the tiled pose batch.
void BM_AffineWarpBatch(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  attack::EotSampler sampler(11, static_cast<int>(rows), attack::EotPoseRange{});
  const auto transforms = sampler.sample_step(32, 32);
  const auto base = random_nchw(rows, 3, 32, 32, 12);
  for (auto _ : state) {
    auto x = autograd::Variable::leaf(base.clone(), /*requires_grad=*/true);
    auto loss = autograd::sum(autograd::affine_warp(x, transforms));
    autograd::backward(loss);
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_AffineWarpBatch)->Arg(1)->Arg(8)->Arg(32);

// BM_Rp2EotPoses: whole RP2 crafting iterations at K poses per step. The
// per-iteration graph forwards an [n*K] batch, so the K sweep shows how the
// pose-batched gradient side amortizes over the packed GEMM microkernel
// (items = image×pose pairs forwarded; per-pair throughput should *rise*
// with K while wall time per iteration rises sublinearly).
void BM_Rp2EotPoses(benchmark::State& state) {
  const int poses = static_cast<int>(state.range(0));
  const nn::LisaCnn model{nn::LisaCnnConfig{}};  // paper width: 16/32/64 filters
  const auto stop_set = data::stop_sign_eval_set(2);
  const auto sticker = attack::sticker_mask(stop_set.masks);
  attack::Rp2Config rp2;
  rp2.iterations = 4;
  rp2.target_class = 5;
  rp2.eot_poses = poses;
  for (auto _ : state) {
    const auto result = attack::rp2_attack(model, stop_set.images, sticker, rp2);
    benchmark::DoNotOptimize(result.final_loss);
  }
  state.SetItemsProcessed(state.iterations() * rp2.iterations * stop_set.images.dim(0) *
                          poses);
}
BENCHMARK(BM_Rp2EotPoses)->Arg(1)->Arg(4)->Arg(16);

// ---- input-transform defenses: the engine's preprocess stage ----------------
// One [8,3,32,32] batch through each stateless transform kernel — the
// per-batch cost a transform-wrapped variant adds ahead of its forward pass.
void BM_InputTransformSqueeze(benchmark::State& state) {
  const auto x = random_nchw(8, 3, 32, 32, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(defense::bit_depth_squeeze(x, 4).data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_InputTransformSqueeze);

// Args: {kernel, batch}. Batch 1 is a served request alone, 64 a full
// max_batch, 8 the historical shape the other transform benches share.
void BM_InputTransformMedian(benchmark::State& state) {
  const auto kernel = static_cast<int>(state.range(0));
  const std::int64_t batch = state.range(1);
  const auto x = random_nchw(batch, 3, 32, 32, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(defense::median_filter_nchw(x, kernel).data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_InputTransformMedian)
    ->ArgNames({"kernel", "batch"})
    ->ArgsProduct({{3, 5}, {1, 8, 64}});

void BM_InputTransformDctQuant(benchmark::State& state) {
  const auto x = random_nchw(8, 3, 32, 32, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(defense::dct_quantize_nchw(x, 50).data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_InputTransformDctQuant);

void BM_Fft2d(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  std::vector<double> plane(static_cast<std::size_t>(side) * side);
  util::Rng rng(4);
  for (auto& v : plane) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::fft2d_real(plane, side, side));
  }
}
BENCHMARK(BM_Fft2d)->Arg(16)->Arg(32)->Arg(33)->Arg(64);

void BM_Dct2d(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  std::vector<double> plane(static_cast<std::size_t>(side) * side);
  util::Rng rng(5);
  for (auto& v : plane) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::dct2d(plane, side, side));
  }
}
BENCHMARK(BM_Dct2d)->Arg(16)->Arg(32);

void BM_TvLoss(benchmark::State& state) {
  auto x = autograd::Variable::leaf(random_nchw(8, 8, 32, 32), true);
  for (auto _ : state) {
    auto loss = autograd::tv_loss(x);
    autograd::backward(loss);
    x.zero_grad();
    benchmark::DoNotOptimize(loss.scalar_value());
  }
}
BENCHMARK(BM_TvLoss);

// ---- GEMM: packed microkernel vs the seed's naive ikj loop ------------------
// Args are {m, k, n}. The first three shapes are the im2col GEMMs of the
// LISA-CNN conv layers at 32x32 (filters x patch x out-pixels); the last is a
// square cache-unfriendly size. BM_GemmNaiveIkj reproduces the loop the
// microkernel replaced (minus its NaN-dropping zero-skip), so the ratio of
// the two is the speedup reported in the README perf section. Both sides run
// with the worker count pinned to 1: the ratio isolates kernel quality
// (packing, blocking, register tiling) from thread parallelism, and matches
// how the conv GEMMs actually run — nested inline under the batch
// parallel_for. The end-to-end benches (BM_Conv2d*, BM_Engine*) capture the
// threaded picture.
void gemm_bench_shapes(benchmark::internal::Benchmark* b) {
  b->Args({8, 75, 1024})    // conv1: 8 filters, 3x5x5 patch, 32x32 out
      ->Args({16, 200, 256})  // conv2: 16 filters, 8x5x5 patch, 16x16 out
      ->Args({32, 400, 64})   // conv3: 32 filters, 16x5x5 patch, 8x8 out
      ->Args({256, 256, 256});
}

void BM_GemmMicrokernel(benchmark::State& state) {
  util::set_parallel_workers(1);
  const std::int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  util::Rng rng(7);
  const auto a = tensor::Tensor::randn(tensor::Shape::mat(m, k), rng);
  const auto b = tensor::Tensor::randn(tensor::Shape::mat(k, n), rng);
  tensor::Tensor c(tensor::Shape::mat(m, n));
  for (auto _ : state) {
    linalg::sgemm_nn(m, n, k, a.data(), b.data(), c.data(), /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
  util::reset_parallel_workers();
}
BENCHMARK(BM_GemmMicrokernel)->Apply(gemm_bench_shapes);

void BM_GemmNaiveIkj(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  util::Rng rng(7);
  const auto a = tensor::Tensor::randn(tensor::Shape::mat(m, k), rng);
  const auto b = tensor::Tensor::randn(tensor::Shape::mat(k, n), rng);
  tensor::Tensor c(tensor::Shape::mat(m, n));
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (auto _ : state) {
    std::fill(pc, pc + m * n, 0.0f);
    for (std::int64_t i = 0; i < m; ++i) {
      float* crow = pc + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float aik = pa[i * k + kk];
        const float* brow = pb + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    benchmark::DoNotOptimize(pc);
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmNaiveIkj)->Apply(gemm_bench_shapes);

void BM_MatMul(benchmark::State& state) {
  const auto n = state.range(0);
  util::Rng rng(6);
  const auto a = tensor::Tensor::randn(tensor::Shape::mat(n, n), rng);
  const auto b = tensor::Tensor::randn(tensor::Shape::mat(n, n), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(256);

void BM_LisaCnnInference(benchmark::State& state) {
  const nn::LisaCnn model{nn::LisaCnnConfig{}};  // paper width: 16/32/64 filters
  const auto x = random_nchw(state.range(0), 3, 32, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.logits(x).data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LisaCnnInference)->Arg(1)->Arg(16);

// The paper-width (16/32/64) model with the deployed first-layer blur.
serve::EngineConfig bench_engine_config() {
  serve::EngineConfig config;
  config.defense = {nn::FilterPlacement::kAfterLayer1, 5, signal::KernelKind::kBox};
  return config;
}

// One coalesced forward pass over the whole batch...
void BM_EngineClassifyBatched(benchmark::State& state) {
  const serve::InferenceEngine engine(bench_engine_config());
  const auto batch = random_nchw(state.range(0), 3, 32, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.classify(batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineClassifyBatched)->Arg(16)->Arg(64);

// ...versus the same images pushed through one forward pass each. The batched
// path should win clearly on a 64-image batch.
void BM_EngineClassifyPerImage(benchmark::State& state) {
  const serve::InferenceEngine engine(bench_engine_config());
  const auto n = state.range(0);
  const auto batch = random_nchw(n, 3, 32, 32);
  const std::int64_t stride = 3 * 32 * 32;
  std::vector<tensor::Tensor> images;
  for (std::int64_t i = 0; i < n; ++i) {
    tensor::Tensor image(tensor::Shape{3, 32, 32});
    std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride, image.data());
    images.push_back(std::move(image));
  }
  for (auto _ : state) {
    for (const auto& image : images) {
      benchmark::DoNotOptimize(engine.classify(image));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineClassifyPerImage)->Arg(16)->Arg(64);

// Submit-path throughput under a replica sweep: 64 single-image requests are
// queued at once; each replica's worker coalesces up to max_batch of them
// into one forward pass, so with R replicas up to R batches are in flight
// concurrently. The 1 -> 2 -> 4 progression shows the scaling headroom of the
// sharded router (on a multicore host; a 1-CPU cgroup flattens wall clock).
void BM_EngineSubmitThroughput(benchmark::State& state) {
  serve::EngineConfig config = bench_engine_config();
  config.replicas = static_cast<int>(state.range(0));
  config.max_batch = 16;
  serve::InferenceEngine engine(config);
  constexpr std::int64_t kImages = 64;
  const auto batch = random_nchw(kImages, 3, 32, 32, 9);
  const std::int64_t stride = 3 * 32 * 32;
  std::vector<tensor::Tensor> images;
  for (std::int64_t i = 0; i < kImages; ++i) {
    tensor::Tensor image(tensor::Shape{3, 32, 32});
    std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride, image.data());
    images.push_back(std::move(image));
  }
  for (auto _ : state) {
    std::vector<std::future<serve::Prediction>> futures;
    futures.reserve(static_cast<std::size_t>(kImages));
    for (const auto& image : images) {
      futures.push_back(engine.submit(image, serve::Options{serve::kDefendedVariant}));
    }
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get().label);
    }
  }
  state.SetItemsProcessed(state.iterations() * kImages);
}
BENCHMARK(BM_EngineSubmitThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp the resolved SIMD kernel
// target into the benchmark context so every emitted JSON carries a
// top-level "kernel" field — scalar-vs-avx2 A/B runs stay distinguishable
// after the fact. Resolving the target here also fails fast on a bad
// BLURNET_FORCE_KERNEL before any timing starts.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "kernel", util::kernel_target_name(util::active_kernel_target()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
