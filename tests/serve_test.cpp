#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/defense/input_transform.h"
#include "src/serve/engine.h"
#include "src/serve/loadgen.h"
#include "src/serve/qos.h"
#include "src/tensor/ops.h"
#include "src/util/arena.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace blurnet::serve {
namespace {

nn::LisaCnnConfig small_model_config() {
  nn::LisaCnnConfig config;
  config.conv1_filters = 8;
  config.conv2_filters = 16;
  config.conv3_filters = 32;
  return config;
}

EngineConfig small_engine_config(int replicas = 1) {
  EngineConfig config;
  config.model = small_model_config();
  config.defense = {nn::FilterPlacement::kAfterLayer1, 3, signal::KernelKind::kBox};
  config.replicas = replicas;
  return config;
}

tensor::Tensor random_batch(std::int64_t n, std::uint64_t seed = 5) {
  util::Rng rng(seed);
  return tensor::Tensor::rand_uniform(tensor::Shape::nchw(n, 3, 32, 32), rng);
}

tensor::Tensor single_image(const tensor::Tensor& batch, std::int64_t i) {
  const std::int64_t stride = batch.dim(1) * batch.dim(2) * batch.dim(3);
  tensor::Tensor image(tensor::Shape{batch.dim(1), batch.dim(2), batch.dim(3)});
  std::copy(batch.data() + i * stride, batch.data() + (i + 1) * stride, image.data());
  return image;
}

/// The base weights behind `transform`, as register_variant() takes them.
VariantSpec behind(defense::TransformPtr transform) {
  VariantSpec spec;
  spec.transform = std::move(transform);
  return spec;
}

void expect_bitwise_equal(const Prediction& a, const Prediction& b,
                          const std::string& context) {
  EXPECT_EQ(a.label, b.label) << context;
  ASSERT_EQ(a.logits.size(), b.logits.size()) << context;
  for (std::size_t k = 0; k < a.logits.size(); ++k) {
    EXPECT_EQ(a.logits[k], b.logits[k]) << context << " logit " << k;
  }
}

TEST(Engine, RegistersBaseAndDefendedVariants) {
  const InferenceEngine engine(small_engine_config(2));
  EXPECT_TRUE(engine.has_variant(kBaseVariant));
  EXPECT_TRUE(engine.has_variant(kDefendedVariant));
  EXPECT_FALSE(engine.has_variant("nope"));
  const auto names = engine.variant_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], kBaseVariant);
  EXPECT_EQ(names[1], kDefendedVariant);
  EXPECT_EQ(engine.replica_count(kBaseVariant), 2);
  EXPECT_EQ(engine.replica_count(kDefendedVariant), 2);
}

TEST(Engine, BatchMatchesSingleImageBitwise) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(8);
  const auto batched = engine.classify(batch);
  ASSERT_EQ(batched.size(), 8u);
  for (std::int64_t i = 0; i < 8; ++i) {
    const auto single = engine.classify(single_image(batch, i));
    ASSERT_EQ(single.size(), 1u);
    // Bitwise agreement: batching must be purely a throughput decision.
    expect_bitwise_equal(single[0], batched[static_cast<std::size_t>(i)],
                         "image " + std::to_string(i));
  }
}

TEST(Engine, DeterministicForAnyWorkerCount) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(6, 7);
  const auto reference = engine.classify(batch, Options{kDefendedVariant});
  for (const int workers : {1, 2, 5, 16}) {
    util::set_parallel_workers(workers);
    const auto result = engine.classify(batch, Options{kDefendedVariant});
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      expect_bitwise_equal(result[i], reference[i], "workers " + std::to_string(workers));
    }
  }
  util::reset_parallel_workers();
}

TEST(Engine, ConcurrentClassifySpreadsAcrossReplicas) {
  const InferenceEngine engine(small_engine_config(2));
  const auto batch = random_batch(4, 11);
  const auto reference = engine.classify(batch);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        const auto result = engine.classify(batch);
        for (std::size_t i = 0; i < result.size(); ++i) {
          if (result[i].label != reference[i].label ||
              result[i].logits != reference[i].logits) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The router balanced the 41 calls over both base replicas: each served
  // some, and together they served everything.
  const auto stats = engine.stats();
  ASSERT_EQ(stats.variants[0].variant, kBaseVariant);
  ASSERT_EQ(stats.variants[0].replicas.size(), 2u);
  std::int64_t base_images = 0;
  for (const auto& rs : stats.variants[0].replicas) {
    // The first two routed calls always land on different replicas (the
    // round-robin cursor advances past a freshly-picked replica), so both
    // must have served.
    EXPECT_GT(rs.images, 0);
    base_images += rs.images;
  }
  EXPECT_EQ(base_images, 41 * 4);
}

TEST(Engine, SubmitCoalescesAndMatchesClassify) {
  InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(16, 13);
  const auto reference = engine.classify(batch);

  std::vector<std::future<Prediction>> futures;
  for (std::int64_t i = 0; i < 16; ++i) {
    futures.push_back(engine.submit(single_image(batch, i)));
  }
  for (std::int64_t i = 0; i < 16; ++i) {
    expect_bitwise_equal(futures[static_cast<std::size_t>(i)].get(),
                         reference[static_cast<std::size_t>(i)],
                         "queued image " + std::to_string(i));
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.requests, 16);
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.batches, 16);  // at least some coalescing is permitted
  EXPECT_GE(stats.largest_batch, 1);
  EXPECT_GE(stats.images, 16);
}

TEST(Engine, OversizedBatchIsSlicedBitwiseEqual) {
  // classify() bounds each forward pass by max_batch; slicing must not change
  // any per-image result, whether the cap comes from the engine or the call.
  EngineConfig config = small_engine_config();
  config.max_batch = 4;
  const InferenceEngine sliced(config);
  const InferenceEngine whole(small_engine_config());  // max_batch 64
  const auto batch = random_batch(11, 37);
  const auto a = sliced.classify(batch);
  const auto b = whole.classify(batch);
  const auto c = whole.classify(batch, Options{kBaseVariant, /*max_batch=*/3});
  ASSERT_EQ(a.size(), 11u);
  ASSERT_EQ(c.size(), 11u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bitwise_equal(a[i], b[i], "engine-cap slice, image " + std::to_string(i));
    expect_bitwise_equal(c[i], b[i], "per-call-cap slice, image " + std::to_string(i));
  }
}

TEST(Engine, DefendedVariantUsesFilteredModel) {
  const InferenceEngine engine(small_engine_config());
  ASSERT_TRUE(engine.defense_enabled());
  EXPECT_EQ(engine.replica_model(kDefendedVariant, 0).config().fixed_filter.kernel, 3);
  EXPECT_EQ(engine.replica_model(kBaseVariant, 0).config().fixed_filter.kernel, 0);
  EXPECT_EQ(engine.model().config().fixed_filter.kernel, 0);

  // The blur on the first-layer maps must actually change the logits.
  const auto batch = random_batch(2, 17);
  const auto plain = engine.classify(batch);
  const auto defended = engine.classify(batch, Options{kDefendedVariant});
  bool any_difference = false;
  for (std::size_t k = 0; k < plain[0].logits.size(); ++k) {
    if (plain[0].logits[k] != defended[0].logits[k]) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Engine, DisabledDefenseServesBaseWeightsAsDefended) {
  EngineConfig config;
  config.model = small_model_config();
  config.defense = {};  // kNone
  const InferenceEngine engine(config);
  EXPECT_FALSE(engine.defense_enabled());
  // "defended" aliases the base shard: same replicas, no extra weight clones,
  // and stats report a single variant entry.
  EXPECT_TRUE(engine.has_variant(kDefendedVariant));
  EXPECT_EQ(engine.replica_count(kDefendedVariant), engine.replica_count(kBaseVariant));
  EXPECT_EQ(engine.stats().variants.size(), 1u);
  const auto batch = random_batch(2, 19);
  const auto plain = engine.classify(batch);
  const auto defended = engine.classify(batch, Options{kDefendedVariant});
  EXPECT_EQ(plain[0].logits, defended[0].logits);
}

TEST(Engine, SubmitThroughDefendedVariantMatchesClassify) {
  InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(3, 23);
  const auto reference = engine.classify(batch, Options{kDefendedVariant});
  std::vector<std::future<Prediction>> futures;
  for (std::int64_t i = 0; i < 3; ++i) {
    futures.push_back(engine.submit(single_image(batch, i), Options{kDefendedVariant}));
  }
  for (std::int64_t i = 0; i < 3; ++i) {
    expect_bitwise_equal(futures[static_cast<std::size_t>(i)].get(),
                         reference[static_cast<std::size_t>(i)],
                         "queued defended image " + std::to_string(i));
  }
}

// The router satellite: concurrent submit() across replica counts must be
// bitwise-equal to single-replica single-image classification, regardless of
// which replica a request lands on or how batches were coalesced, and the
// per-replica counters must account for every request exactly.
TEST(Engine, ConcurrentSubmitBitwiseEqualAcrossReplicaCounts) {
  const auto batch = random_batch(24, 41);
  const InferenceEngine reference_engine(small_engine_config(1));
  std::vector<Prediction> reference_base, reference_defended;
  for (std::int64_t i = 0; i < 24; ++i) {
    reference_base.push_back(reference_engine.classify(single_image(batch, i))[0]);
    reference_defended.push_back(
        reference_engine.classify(single_image(batch, i), Options{kDefendedVariant})[0]);
  }

  for (const int replicas : {1, 2, 4}) {
    InferenceEngine engine(small_engine_config(replicas));
    std::vector<std::future<Prediction>> base_futures(24), defended_futures(24);
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&, t] {
        // Interleave variants so coalescing and routing orders differ between
        // runs — the results must not.
        for (std::int64_t i = t; i < 24; i += 4) {
          base_futures[static_cast<std::size_t>(i)] = engine.submit(single_image(batch, i));
          defended_futures[static_cast<std::size_t>(i)] =
              engine.submit(single_image(batch, i), Options{kDefendedVariant});
        }
      });
    }
    for (auto& producer : producers) producer.join();
    for (std::int64_t i = 0; i < 24; ++i) {
      expect_bitwise_equal(base_futures[static_cast<std::size_t>(i)].get(),
                           reference_base[static_cast<std::size_t>(i)],
                           "replicas " + std::to_string(replicas) + " base image " +
                               std::to_string(i));
      expect_bitwise_equal(defended_futures[static_cast<std::size_t>(i)].get(),
                           reference_defended[static_cast<std::size_t>(i)],
                           "replicas " + std::to_string(replicas) + " defended image " +
                               std::to_string(i));
    }

    // Per-replica stats account for every queued request and sum to totals.
    const auto stats = engine.stats();
    EXPECT_EQ(stats.requests, 48);
    EXPECT_EQ(stats.images, 48);
    std::int64_t replica_requests = 0, replica_images = 0, replica_batches = 0;
    for (const auto& vs : stats.variants) {
      EXPECT_EQ(vs.replicas.size(), static_cast<std::size_t>(replicas));
      std::int64_t variant_requests = 0;
      for (const auto& rs : vs.replicas) {
        replica_requests += rs.requests;
        replica_images += rs.images;
        replica_batches += rs.batches;
        variant_requests += rs.requests;
        EXPECT_LE(rs.largest_batch, stats.largest_batch);
      }
      EXPECT_EQ(variant_requests, 24) << "variant " << vs.variant;
    }
    EXPECT_EQ(replica_requests, stats.requests);
    EXPECT_EQ(replica_images, stats.images);
    EXPECT_EQ(replica_batches, stats.batches);
  }
}

// The one registration call over every weight source x every preprocess
// choice: each variant serves exactly the hand-run transform followed by its
// source model's forward, honors its replica count, and refreshes (or refuses
// to, naming its kind) by where its weights came from.
TEST(Engine, RegisterVariantServesEverySourceBehindEveryTransform) {
  InferenceEngine engine(small_engine_config(2));  // engine default: 2 replicas
  nn::LisaCnnConfig blur7 = small_model_config();
  blur7.fixed_filter = {nn::FilterPlacement::kAfterLayer1, 7, signal::KernelKind::kBox};
  const nn::LisaCnn blur7_reference = engine.model().clone_with_config(blur7);
  nn::LisaCnnConfig other_config = small_model_config();
  other_config.init_seed = 99;
  const nn::LisaCnn other(other_config);

  enum class Source { kBase, kTransfer, kForeign, kAlias };
  const std::vector<std::pair<Source, std::string>> sources = {
      {Source::kBase, "base-transfer"},
      {Source::kTransfer, "blur7-transfer"},
      {Source::kForeign, "foreign"},
      {Source::kAlias, "alias"}};
  const std::vector<std::optional<defense::TransformSpec>> transforms = {
      std::nullopt, defense::TransformSpec::median(3), defense::TransformSpec::none()};
  const auto batch = random_batch(3, 43);
  const auto plain = engine.classify(batch);
  std::size_t shards = engine.stats().variants.size();
  int row = 0;
  for (const auto& [source, source_name] : sources) {
    for (const auto& transform_spec : transforms) {
      const std::string name = source_name + "/" +
                               (transform_spec ? transform_spec->name() : std::string("plain"));
      const std::string context = "variant " + name;
      VariantSpec spec;
      const nn::LisaCnn* reference = &engine.model();
      if (source == Source::kTransfer) {
        spec.config = blur7;
        reference = &blur7_reference;
      } else if (source == Source::kForeign) {
        spec.model = &other;
        reference = &other;
      } else if (source == Source::kAlias) {
        spec.alias_of = kBaseVariant;
      }
      if (transform_spec) spec.transform = defense::make_transform(*transform_spec);
      const defense::TransformPtr transform = spec.transform;
      // Alternate the engine default (0) with an explicit count; an alias
      // takes its target's replicas.
      const int replicas = source == Source::kAlias ? 0 : row++ % 2;
      spec.replicas = replicas;
      if (source == Source::kAlias && transform) {
        EXPECT_THROW(engine.register_variant(name, std::move(spec)), std::invalid_argument)
            << context;
        EXPECT_FALSE(engine.has_variant(name)) << context;
        continue;
      }
      engine.register_variant(name, std::move(spec));
      ASSERT_TRUE(engine.has_variant(name)) << context;
      // kNone attaches no stage at all: structurally the plain path.
      EXPECT_EQ(engine.variant_transform(name), transform) << context;

      // Bitwise the hand-run transform followed by the source model.
      const auto input = transform ? defense::InputTransform(*transform_spec).apply(batch) : batch;
      const auto expected = reference->logits(input);
      const auto via_engine = engine.classify(batch, Options{name});
      for (std::int64_t i = 0; i < 3; ++i) {
        for (std::int64_t k = 0; k < expected.dim(1); ++k) {
          EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                    expected.at2(i, k))
              << context << " image " << i;
        }
      }
      // Only the base weights with no stage are the plain path.
      const bool is_plain = reference == &engine.model() && !transform;
      EXPECT_EQ(via_engine[0].logits == plain[0].logits, is_plain) << context;
      // Queued traffic reaches the variant too.
      expect_bitwise_equal(engine.submit(single_image(batch, 0), Options{name}).get(),
                           via_engine[0], context + " queued");

      if (source == Source::kAlias) {
        // Same shard: same replicas, same counters, no new stats entry.
        EXPECT_EQ(&engine.replica_model(name, 0), &engine.replica_model(kBaseVariant, 0))
            << context;
        EXPECT_EQ(engine.replica_count(name), engine.replica_count(kBaseVariant)) << context;
        EXPECT_EQ(engine.images_served(name), engine.images_served(kBaseVariant)) << context;
      } else {
        ++shards;
        EXPECT_EQ(engine.replica_count(name), replicas == 0 ? 2 : replicas) << context;
      }
      EXPECT_EQ(engine.stats().variants.size(), shards) << context;

      if (source == Source::kForeign) {
        const std::string kind = transform ? "transform-wrapped foreign-model (median3)"
                                           : "foreign-model";
        try {
          engine.refresh_variant(name);
          ADD_FAILURE() << "expected std::logic_error for " << context;
        } catch (const std::logic_error& e) {
          EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
          EXPECT_NE(std::string(e.what()).find(kind), std::string::npos) << e.what();
        }
      } else {
        EXPECT_NO_THROW(engine.refresh_variant(name)) << context;
      }
    }
  }
}

TEST(Engine, RegisterVariantRejectsInvalidSpecsNamingTheVariant) {
  InferenceEngine engine(small_engine_config());
  const nn::LisaCnn other(small_model_config());
  nn::LisaCnnConfig gray = small_model_config();
  gray.in_channels = 1;
  const nn::LisaCnn gray_model(gray);
  const auto names_before = engine.variant_names();

  const auto expect_rejected = [&](const std::string& name, VariantSpec spec,
                                   const std::string& fragment) {
    try {
      engine.register_variant(name, std::move(spec));
      ADD_FAILURE() << "expected std::invalid_argument mentioning \"" << fragment << "\"";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("\"" + name + "\""), std::string::npos) << message;
      EXPECT_NE(message.find(fragment), std::string::npos) << message;
    }
  };
  const auto make = [&](auto&& set) {
    VariantSpec spec;
    set(spec);
    return spec;
  };
  const auto transform = defense::make_transform(defense::TransformSpec::median(3));

  EXPECT_THROW(engine.register_variant("", {}), std::invalid_argument);
  expect_rejected(kBaseVariant, {}, "already registered");
  expect_rejected(kDefendedVariant, make([&](VariantSpec& s) { s.model = &other; }),
                  "already registered");
  expect_rejected("ghost", make([](VariantSpec& s) { s.alias_of = "no-such-variant"; }),
                  "no-such-variant");
  expect_rejected("gray", make([&](VariantSpec& s) { s.model = &gray_model; }),
                  "input shape");
  expect_rejected("gray_transfer", make([&](VariantSpec& s) { s.config = gray; }),
                  "input shape");
  expect_rejected("two", make([&](VariantSpec& s) {
                    s.config = small_model_config();
                    s.model = &other;
                  }),
                  "more than one weight source");
  expect_rejected("two", make([&](VariantSpec& s) {
                    s.model = &other;
                    s.alias_of = kBaseVariant;
                  }),
                  "more than one weight source");
  expect_rejected("two", make([&](VariantSpec& s) {
                    s.config = small_model_config();
                    s.alias_of = kBaseVariant;
                  }),
                  "more than one weight source");
  expect_rejected("canary", make([&](VariantSpec& s) {
                    s.alias_of = kBaseVariant;
                    s.transform = transform;
                  }),
                  "no transform or replicas");
  expect_rejected("canary", make([&](VariantSpec& s) {
                    s.alias_of = kBaseVariant;
                    s.replicas = 2;
                  }),
                  "no transform or replicas");
  expect_rejected("negative", make([](VariantSpec& s) { s.replicas = -1; }), "replicas");
  // A malformed stock stage fails where it is built, before registration.
  EXPECT_THROW(defense::make_transform(defense::TransformSpec::median(2)),
               std::invalid_argument);
  // Nothing was half-registered.
  EXPECT_EQ(engine.variant_names(), names_before);
}

TEST(Engine, ReplicaModelExposesBitwiseIdenticalClones) {
  InferenceEngine engine(small_engine_config(3));
  const auto batch = random_batch(2, 67);
  const auto reference = engine.model().logits(batch);
  for (int r = 0; r < 3; ++r) {
    const nn::LisaCnn& replica = engine.replica_model(kBaseVariant, r);
    const auto logits = replica.logits(batch);
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      ASSERT_EQ(logits[i], reference[i]) << "replica " << r;
    }
    // Distinct replicas own distinct parameter storage (no shared autograd
    // state between fan-out slots).
    if (r > 0) {
      EXPECT_FALSE(replica.parameters()[0].value().shares_storage_with(
          engine.replica_model(kBaseVariant, 0).parameters()[0].value()));
    }
  }
  EXPECT_THROW(engine.replica_model(kBaseVariant, 3), std::invalid_argument);
  EXPECT_THROW(engine.replica_model(kBaseVariant, -1), std::invalid_argument);
}

TEST(Engine, VariantStatsSnapshotCountsServedImages) {
  const InferenceEngine engine(small_engine_config(2));
  EXPECT_EQ(engine.images_served(kBaseVariant), 0);
  engine.classify(random_batch(7, 73));
  engine.classify(random_batch(2, 73), Options{kDefendedVariant});
  const auto base_stats = engine.variant_stats(kBaseVariant);
  EXPECT_EQ(base_stats.variant, kBaseVariant);
  ASSERT_EQ(base_stats.replicas.size(), 2u);
  std::int64_t total = 0;
  for (const auto& rs : base_stats.replicas) total += rs.images;
  EXPECT_EQ(total, 7);
  EXPECT_EQ(engine.images_served(kBaseVariant), 7);
  EXPECT_EQ(engine.images_served(kDefendedVariant), 2);
  EXPECT_THROW(engine.variant_stats("nope"), std::invalid_argument);
}

TEST(Engine, RefreshVariantPicksUpRetrainedBaseWeights) {
  InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(2, 47);
  const auto before = engine.classify(batch);

  // "Retrain" the adopted base model: the engine shares its parameter
  // handles, but the serving replicas hold deep clones — they must not move
  // until refresh_variant() re-transfers the weights.
  auto params = engine.model().parameters();
  params[0].mutable_value() = tensor::mul_scalar(params[0].value(), 0.5f);
  const auto stale = engine.classify(batch);
  EXPECT_EQ(stale[0].logits, before[0].logits);

  engine.refresh_variant(kBaseVariant);
  engine.refresh_variant(kDefendedVariant);
  const auto refreshed = engine.classify(batch);
  EXPECT_NE(refreshed[0].logits, before[0].logits);
  // And the refreshed replicas serve exactly the mutated weights.
  const auto expected = engine.model().logits(batch);
  for (std::int64_t k = 0; k < expected.dim(1); ++k) {
    EXPECT_EQ(refreshed[0].logits[static_cast<std::size_t>(k)], expected.at2(0, k));
  }
}

TEST(Engine, UnknownVariantThrowsDescriptively) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(1, 53);
  try {
    engine.classify(batch, Options{"no-such-variant"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-variant"), std::string::npos) << message;
    EXPECT_NE(message.find("base"), std::string::npos) << message;
  }
}

TEST(Engine, RejectsMalformedInputsWithDescriptiveErrors) {
  InferenceEngine engine(small_engine_config());
  const auto check = [](const auto& fn, const std::string& fragment) {
    try {
      fn();
      FAIL() << "expected std::invalid_argument mentioning \"" << fragment << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  // Wrong rank: neither CHW nor NCHW.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::mat(4, 4))); }, "rank");
  // Wrong channel count.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::nchw(1, 4, 32, 32))); },
        "channels");
  // Wrong spatial dims.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::nchw(1, 3, 16, 16))); },
        "spatial");
  // Empty batch.
  check([&] { engine.classify(tensor::Tensor::zeros(tensor::Shape::nchw(0, 3, 32, 32))); },
        "no images");
  // submit() rejects whole batches and bad shapes the same way.
  check([&] { engine.submit(tensor::Tensor::zeros(tensor::Shape::nchw(2, 3, 32, 32))); },
        "single image");
  check([&] { engine.submit(tensor::Tensor::zeros(tensor::Shape::nchw(1, 3, 8, 8))); },
        "spatial");
  // Negative per-call max_batch.
  check([&] { engine.classify(random_batch(1), Options{kBaseVariant, -1}); }, "max_batch");
}

TEST(Engine, ConfigValidationRejectsNonPositiveKnobs) {
  const auto check = [](EngineConfig config, const std::string& fragment) {
    try {
      config.validate();
      FAIL() << "expected std::invalid_argument mentioning \"" << fragment << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
    // The constructor runs the same validation before building any model.
    EXPECT_THROW(InferenceEngine{config}, std::invalid_argument);
  };
  EngineConfig bad_batch = small_engine_config();
  bad_batch.max_batch = 0;
  check(bad_batch, "max_batch");
  EngineConfig bad_replicas = small_engine_config();
  bad_replicas.replicas = -2;
  check(bad_replicas, "replicas");
  EXPECT_NO_THROW(small_engine_config().validate());
}

// The tentpole determinism proof: a transformed variant's per-image results
// are bitwise identical for any replica count, batch split, or queue
// coalescing — the preprocess stage rides inside the replica, so sharding
// stays a pure throughput decision.
TEST(Engine, TransformVariantBitwiseAcrossReplicaCountsAndBatchSplits) {
  const auto spec = defense::TransformSpec::dct_quant(50);
  const auto batch = random_batch(12, 89);

  std::vector<Prediction> reference;
  {
    InferenceEngine engine(small_engine_config(1));
    engine.register_variant("dctq50", behind(defense::make_transform(spec)));
    for (std::int64_t i = 0; i < 12; ++i) {
      reference.push_back(engine.classify(single_image(batch, i), Options{"dctq50"})[0]);
    }
  }

  for (const int replicas : {1, 2, 4}) {
    InferenceEngine engine(small_engine_config(replicas));
    engine.register_variant("dctq50", behind(defense::make_transform(spec)));
    const std::string context = "replicas " + std::to_string(replicas);

    // Whole batch, and a forced 5-image slicing of the same batch.
    const auto whole = engine.classify(batch, Options{"dctq50"});
    const auto sliced = engine.classify(batch, Options{"dctq50", /*max_batch=*/5});
    ASSERT_EQ(whole.size(), 12u);
    for (std::int64_t i = 0; i < 12; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      expect_bitwise_equal(whole[idx], reference[idx],
                           context + " whole-batch image " + std::to_string(i));
      expect_bitwise_equal(sliced[idx], reference[idx],
                           context + " sliced image " + std::to_string(i));
    }

    // The coalescing submit() path from concurrent producers.
    std::vector<std::future<Prediction>> futures(12);
    std::vector<std::thread> producers;
    for (int t = 0; t < 3; ++t) {
      producers.emplace_back([&, t] {
        for (std::int64_t i = t; i < 12; i += 3) {
          futures[static_cast<std::size_t>(i)] =
              engine.submit(single_image(batch, i), Options{"dctq50"});
        }
      });
    }
    for (auto& producer : producers) producer.join();
    for (std::int64_t i = 0; i < 12; ++i) {
      expect_bitwise_equal(futures[static_cast<std::size_t>(i)].get(),
                           reference[static_cast<std::size_t>(i)],
                           context + " queued image " + std::to_string(i));
    }
  }
}

TEST(Engine, NoneTransformVariantIsBitwiseThePlainPath) {
  // A kNone registration attaches no preprocess stage at all, so the variant
  // is structurally a plain weight-transfer shard — the "transform off"
  // anchor the BPDA-off attack equivalence builds on.
  InferenceEngine engine(small_engine_config());
  engine.register_variant("noop", behind(defense::make_transform(defense::TransformSpec::none())));
  EXPECT_EQ(engine.variant_transform("noop"), nullptr);
  const auto batch = random_batch(4, 97);
  const auto plain = engine.classify(batch);
  const auto noop = engine.classify(batch, Options{"noop"});
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_bitwise_equal(noop[i], plain[i], "noop image " + std::to_string(i));
  }
  // refresh works: it is an ordinary from-base shard.
  EXPECT_NO_THROW(engine.refresh_variant("noop"));
}

TEST(Engine, RefreshVariantErrorsNameTheVariantAndItsKind) {
  InferenceEngine engine(small_engine_config());
  const nn::LisaCnn other(small_model_config());
  VariantSpec foreign;
  foreign.model = &other;
  engine.register_variant("foreign", foreign);
  foreign.transform = defense::make_transform(defense::TransformSpec::median(3));
  engine.register_variant("foreign_med", foreign);
  engine.register_variant("base_med", behind(foreign.transform));

  const auto check = [&](const std::string& name, const std::string& kind) {
    try {
      engine.refresh_variant(name);
      FAIL() << "expected std::logic_error for " << name;
    } catch (const std::logic_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(name), std::string::npos) << message;
      EXPECT_NE(message.find(kind), std::string::npos) << message;
    }
  };
  check("foreign", "foreign-model");
  check("foreign_med", "transform-wrapped foreign-model (median3)");
  // Every weight-transfer shard refreshes, bare or transform-wrapped.
  EXPECT_NO_THROW(engine.refresh_variant(kBaseVariant));
  EXPECT_NO_THROW(engine.refresh_variant(kDefendedVariant));

  // A transform-wrapped *base* variant refreshes fine: weights re-transfer,
  // the preprocess stage is kept.
  const auto batch = random_batch(2, 103);
  const auto before = engine.classify(batch, Options{"base_med"});
  auto params = engine.model().parameters();
  params[0].mutable_value() = tensor::mul_scalar(params[0].value(), 0.5f);
  engine.refresh_variant("base_med");
  const auto refreshed = engine.classify(batch, Options{"base_med"});
  EXPECT_NE(refreshed[0].logits, before[0].logits);
  const defense::InputTransform transform(defense::TransformSpec::median(3));
  const auto expected = engine.model().logits(transform.apply(batch));
  for (std::int64_t k = 0; k < expected.dim(1); ++k) {
    EXPECT_EQ(refreshed[0].logits[static_cast<std::size_t>(k)], expected.at2(0, k));
  }
}

TEST(Engine, ConfidenceIsSoftmaxOfPredictedLabel) {
  const InferenceEngine engine(small_engine_config());
  const auto prediction = engine.classify(random_batch(1, 31))[0];
  EXPECT_GE(prediction.confidence, 1.0f / 18.0f - 1e-6f);  // at least uniform mass
  EXPECT_LE(prediction.confidence, 1.0f);
  EXPECT_EQ(prediction.logits.size(), 18u);
}

// ---- bounded queues that shed ----------------------------------------------

/// Preprocess stage whose apply() blocks until released — the deterministic
/// way to hold a variant's worker mid-batch and fill its bounded queue.
class GateTransform : public defense::InputTransform {
 public:
  GateTransform() : InputTransform(defense::TransformSpec::none(), "gate") {}

  tensor::Tensor apply(const tensor::Tensor& images) const override {
    entered_.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
    return images.clone();
  }

  /// Spin until `n` apply() calls have started (i.e. a worker holds a batch).
  void wait_entered(int n) const {
    while (entered_.load() < n) std::this_thread::yield();
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable std::atomic<int> entered_{0};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

TEST(EngineConfig, ValidatesQueueAndOverloadKnobs) {
  EngineConfig config = small_engine_config();
  config.queue_capacity = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(InferenceEngine{config}, std::invalid_argument);
  config.queue_capacity = -3;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Engine, RejectPolicyShedsWhenQueueIsFullAndServesAfterDraining) {
  EngineConfig config = small_engine_config();
  config.queue_capacity = 2;
  InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));

  const auto batch = random_batch(8, 71);
  const Options options{"gated"};
  std::vector<std::future<Prediction>> futures;
  // First submit: its worker takes it and parks inside the gate.
  futures.push_back(engine.submit(single_image(batch, 0), options));
  gate->wait_entered(1);
  // Two more fill the queue to capacity...
  futures.push_back(engine.submit(single_image(batch, 1), options));
  futures.push_back(engine.submit(single_image(batch, 2), options));
  // ...and the next one is shed.
  EXPECT_THROW(engine.submit(single_image(batch, 3), options), OverloadError);

  VariantStats stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.queue_depth, 2);
  EXPECT_EQ(stats.queue_peak, 2);
  EXPECT_EQ(stats.rejected, 1);

  // Release the gate: every admitted request resolves, bitwise equal to the
  // synchronous path, and the drained engine serves new traffic again.
  gate->open();
  const auto expected = engine.classify(batch, options);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bitwise_equal(futures[i].get(), expected[i], "admitted " + std::to_string(i));
  }
  auto after = engine.submit(single_image(batch, 3), options);
  expect_bitwise_equal(after.get(), expected[3], "post-drain");
  stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.rejected, 1);  // sheds are not forgotten
  EXPECT_EQ(stats.latency.count, 4);  // 3 admitted + 1 post-drain
  EXPECT_GT(stats.latency.p99_us, 0.0);
}

TEST(Engine, SubmitIsBitwiseDeterministicAcrossQueueCapacities) {
  const auto batch = random_batch(12, 79);
  const InferenceEngine reference(small_engine_config());
  const auto expected = reference.classify(batch);

  for (const int capacity : {1, 2, 8, 1024}) {
    for (const int replicas : {1, 3}) {
      EngineConfig config = small_engine_config(replicas);
      config.queue_capacity = capacity;
      InferenceEngine engine(config);
      // A full queue sheds; the test retries each refused request until a
      // worker frees a slot, so the comparison covers all 12 images.
      std::vector<std::promise<Prediction>> promises(static_cast<std::size_t>(batch.dim(0)));
      for (std::int64_t i = 0; i < batch.dim(0); ++i) {
        auto& promise = promises[static_cast<std::size_t>(i)];
        const auto done = [&promise](Prediction prediction, std::exception_ptr error) {
          if (error) {
            promise.set_exception(error);
          } else {
            promise.set_value(std::move(prediction));
          }
        };
        while (!engine.try_submit(single_image(batch, i), {}, done)) std::this_thread::yield();
      }
      for (std::size_t i = 0; i < promises.size(); ++i) {
        expect_bitwise_equal(promises[i].get_future().get(), expected[i],
                             "capacity " + std::to_string(capacity) + " replicas " +
                                 std::to_string(replicas) + " image " + std::to_string(i));
      }
    }
  }
}

// ---- completion callbacks ---------------------------------------------------

/// Preprocess stage that always fails: the error path of a replica forward.
class ThrowingTransform : public defense::InputTransform {
 public:
  ThrowingTransform() : InputTransform(defense::TransformSpec::none(), "throwing") {}

  tensor::Tensor apply(const tensor::Tensor&) const override {
    throw std::runtime_error("transform exploded");
  }
};

/// Records every completion it hands out, in completion order; wait_for(n)
/// blocks until n have run.
struct CompletionProbe {
  std::mutex mutex;
  std::condition_variable cv;
  int calls = 0;
  std::vector<std::exception_ptr> errors;
  std::vector<Prediction> predictions;

  Completion make() {
    return [this](Prediction prediction, std::exception_ptr error) {
      std::lock_guard<std::mutex> lock(mutex);
      ++calls;
      errors.push_back(error);
      predictions.push_back(std::move(prediction));
      cv.notify_all();
    };
  }
  void wait_for(int n) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return calls >= n; });
  }
};

TEST(Engine, CompletionRunsOnceOnAWorkerAfterStatsAndLatency) {
  InferenceEngine engine(small_engine_config());
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  const auto batch = random_batch(2, 101);
  const Options options{"gated"};

  // The completion snapshots the engine from inside itself: it runs with no
  // engine lock held, after its request is counted and timed.
  std::mutex mutex;
  std::vector<std::thread::id> threads;
  std::vector<std::int64_t> requests_seen, latency_seen;
  std::atomic<int> calls{0};
  const auto completion = [&](Prediction prediction, std::exception_ptr error) {
    EXPECT_FALSE(error);
    EXPECT_GE(prediction.label, 0);
    const VariantStats stats = engine.variant_stats("gated");
    std::lock_guard<std::mutex> lock(mutex);
    threads.push_back(std::this_thread::get_id());
    requests_seen.push_back(stats.replicas[0].requests);
    latency_seen.push_back(stats.latency.count);
    ++calls;
  };
  engine.submit(single_image(batch, 0), options, completion);
  gate->wait_entered(1);  // the worker holds the first request inside the gate
  EXPECT_TRUE(engine.try_submit(single_image(batch, 1), options, completion));
  // Neither submit nor try_submit ran its completion on the caller.
  EXPECT_EQ(calls.load(), 0);

  gate->open();
  while (calls.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), 2) << "a completion ran more than once";
  std::lock_guard<std::mutex> lock(mutex);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_NE(threads[i], std::this_thread::get_id()) << "completion " << i;
    // Request k's completion sees at least k + 1 requests served and timed.
    EXPECT_GE(requests_seen[i], static_cast<std::int64_t>(i) + 1);
    EXPECT_GE(latency_seen[i], static_cast<std::int64_t>(i) + 1);
  }
}

TEST(Engine, CompletionReceivesTheForwardsException) {
  InferenceEngine engine(small_engine_config());
  engine.register_variant("throwing", behind(std::make_shared<ThrowingTransform>()));
  const auto image = single_image(random_batch(1, 103), 0);

  CompletionProbe probe;
  engine.submit(image, Options{"throwing"}, probe.make());
  probe.wait_for(1);
  ASSERT_TRUE(probe.errors[0]);
  EXPECT_TRUE(probe.predictions[0].logits.empty());
  try {
    std::rethrow_exception(probe.errors[0]);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("transform exploded"), std::string::npos) << e.what();
  }
  // The future wrapper delivers the same exception.
  auto future = engine.submit(image, Options{"throwing"});
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Engine, CompletionResultsMatchTheFuturePathAcrossReplicaCounts) {
  const auto batch = random_batch(12, 107);
  for (const int replicas : {1, 2, 4}) {
    InferenceEngine engine(small_engine_config(replicas));
    CompletionProbe probe;
    std::vector<std::future<Prediction>> futures;
    for (std::int64_t i = 0; i < batch.dim(0); ++i) {
      engine.submit(single_image(batch, i), Options{kDefendedVariant}, probe.make());
      futures.push_back(engine.submit(single_image(batch, i), Options{kDefendedVariant}));
    }
    probe.wait_for(static_cast<int>(batch.dim(0)));
    // Completions arrive in completion order; match them back by content.
    const auto expected = engine.classify(batch, Options{kDefendedVariant});
    std::vector<bool> matched(expected.size(), false);
    for (const auto& prediction : probe.predictions) {
      bool found = false;
      for (std::size_t i = 0; i < expected.size() && !found; ++i) {
        if (!matched[i] && prediction.logits == expected[i].logits) matched[i] = found = true;
      }
      EXPECT_TRUE(found) << "replicas " << replicas << ": callback result matches no image";
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      expect_bitwise_equal(futures[i].get(), expected[i],
                           "replicas " + std::to_string(replicas) + " image " + std::to_string(i));
    }
  }
}

TEST(Engine, RefusedTrySubmitUnderRejectCountsOnceAndNeverCompletes) {
  EngineConfig config = small_engine_config();
  config.queue_capacity = 1;
  InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  const auto batch = random_batch(3, 109);
  const Options options{"gated"};

  CompletionProbe probe;
  ASSERT_TRUE(engine.try_submit(single_image(batch, 0), options, probe.make()));
  gate->wait_entered(1);
  ASSERT_TRUE(engine.try_submit(single_image(batch, 1), options, probe.make()));  // fills it
  EXPECT_FALSE(engine.try_submit(single_image(batch, 2), options, probe.make()));
  VariantStats stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.rejected, 1);

  gate->open();
  probe.wait_for(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(probe.calls, 2) << "the refused request's completion ran";
  stats = engine.variant_stats("gated");
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.latency.count, 2);
}

TEST(Engine, RequestMaxBatchCannotRaiseTheEngineCap) {
  // Options::max_batch may lower the engine's batch cap, never raise it: a
  // request asking for 4x the cap still leads coalesced batches of at most
  // EngineConfig::max_batch images.
  EngineConfig config = small_engine_config();
  config.max_batch = 2;
  InferenceEngine engine(config);
  auto gate = std::make_shared<GateTransform>();
  engine.register_variant("gated", behind(gate));
  const auto batch = random_batch(9, 127);
  Options options{"gated"};
  options.max_batch = 4 * config.max_batch;

  std::vector<std::future<Prediction>> futures;
  futures.push_back(engine.submit(single_image(batch, 0), options));
  gate->wait_entered(1);  // the worker holds image 0; the rest queue up behind it
  for (std::int64_t i = 1; i < batch.dim(0); ++i) {
    futures.push_back(engine.submit(single_image(batch, i), options));
  }
  gate->open();
  const auto expected = engine.classify(batch, options);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_bitwise_equal(futures[i].get(), expected[i], "image " + std::to_string(i));
  }
  // Eight queued images coalesce into batches of the engine's cap, no larger.
  EXPECT_EQ(engine.stats().largest_batch, config.max_batch);
}

// ---- request arena: allocation-free steady state ----------------------------

TEST(Engine, ArenaForwardPathMatchesUnscopedHeapPathBitwise) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(6, 83);
  // classify() runs inside an arena frame; calling the model directly on this
  // thread (no frame bound) takes the heap path. The arena must only move
  // bytes, never change arithmetic.
  const auto via_engine = engine.classify(batch);
  const auto expected = engine.replica_model(kBaseVariant, 0).logits(batch);
  for (std::int64_t i = 0; i < batch.dim(0); ++i) {
    for (std::int64_t k = 0; k < expected.dim(1); ++k) {
      EXPECT_EQ(via_engine[static_cast<std::size_t>(i)].logits[static_cast<std::size_t>(k)],
                expected.at2(i, k));
    }
  }
}

TEST(Engine, SteadyStateClassifyPerformsZeroScratchHeapAllocations) {
  const InferenceEngine engine(small_engine_config());
  const auto batch = random_batch(16, 89);
  // Warm-up: grows the caller thread's arena (and the conv scratch) to the
  // batch's high-water mark.
  for (int i = 0; i < 3; ++i) engine.classify(batch);

  const std::int64_t before = util::scratch_heap_allocations();
  const auto warm = engine.classify(batch);
  const auto again = engine.classify(batch);
  // Zero scratch-layer heap traffic: every tensor and autograd node of the
  // forward chain came out of the warmed arena.
  EXPECT_EQ(util::scratch_heap_allocations(), before);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_bitwise_equal(warm[i], again[i], "warm repeat " + std::to_string(i));
  }
}

TEST(Engine, SteadyStateSubmitForwardPathIsAllocationFree) {
  EngineConfig config = small_engine_config();
  InferenceEngine engine(config);
  const auto batch = random_batch(8, 97);
  std::vector<tensor::Tensor> images;
  for (std::int64_t i = 0; i < batch.dim(0); ++i) images.push_back(single_image(batch, i));
  // max_batch 1 pins every coalesced batch to one image, so the worker
  // arena's high-water mark is timing-independent and warm-up is exact.
  Options options;
  options.max_batch = 1;
  const auto submit_all = [&] {
    std::vector<std::future<Prediction>> futures;
    for (const auto& image : images) futures.push_back(engine.submit(image, options));
    std::vector<Prediction> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  // Warm-up: spawns the worker and grows its arena to steady state.
  for (int i = 0; i < 3; ++i) submit_all();

  const std::int64_t before = util::scratch_heap_allocations();
  const auto warm = submit_all();
  // The worker-side forward path is allocation-free; the only scratch-layer
  // heap events are the admission-side image clones (one per request), whose
  // storage must outlive submit() and so cannot live in any frame.
  EXPECT_EQ(util::scratch_heap_allocations(), before + batch.dim(0));
  const auto expected = engine.classify(batch);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    expect_bitwise_equal(warm[i], expected[i], "submit steady " + std::to_string(i));
  }
}

// ---- latency ring -----------------------------------------------------------

TEST(LatencyRing, NearestRankQuantilesOverKnownSamples) {
  LatencyRing ring(256);
  for (int v = 1; v <= 100; ++v) ring.record(static_cast<double>(v));
  const LatencySnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.window, 100);
  EXPECT_DOUBLE_EQ(snap.mean_us, 50.5);
  EXPECT_DOUBLE_EQ(snap.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(snap.p999_us, 100.0);
  EXPECT_DOUBLE_EQ(snap.max_us, 100.0);
}

TEST(LatencyRing, WindowKeepsTheLatestSamples) {
  LatencyRing ring(10);
  for (int v = 1; v <= 25; ++v) ring.record(static_cast<double>(v));
  const LatencySnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.count, 25);
  EXPECT_EQ(snap.window, 10);
  EXPECT_DOUBLE_EQ(snap.max_us, 25.0);
  // Window is exactly {16..25}.
  EXPECT_DOUBLE_EQ(snap.p50_us, 20.0);
  EXPECT_DOUBLE_EQ(snap.mean_us, 20.5);
}

TEST(LatencyRing, EmptyAndInvalid) {
  EXPECT_THROW(LatencyRing(0), std::invalid_argument);
  LatencyRing ring(4);
  const LatencySnapshot snap = ring.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.window, 0);
  EXPECT_DOUBLE_EQ(snap.p99_us, 0.0);
  EXPECT_DOUBLE_EQ(latency_quantile({}, 0.5), 0.0);
  EXPECT_THROW(latency_quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(latency_quantile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(latency_quantile({3.0, 1.0, 2.0}, 1.0), 3.0);
}

TEST(LatencyRing, SummarizeMatchesTheQuantileOracle) {
  util::Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 1001; ++i) samples.push_back(rng.uniform() * 1000.0);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  const LatencySnapshot snap = summarize(samples);
  EXPECT_EQ(snap.count, 1001);
  EXPECT_EQ(snap.window, 1001);
  EXPECT_EQ(snap.mean_us, sum / 1001.0);
  EXPECT_EQ(snap.max_us, *std::max_element(samples.begin(), samples.end()));
  EXPECT_EQ(snap.p50_us, latency_quantile(samples, 0.50));
  EXPECT_EQ(snap.p99_us, latency_quantile(samples, 0.99));
  EXPECT_EQ(snap.p999_us, latency_quantile(samples, 0.999));
  const LatencySnapshot empty = summarize({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.window, 0);
  EXPECT_EQ(empty.max_us, 0.0);
}

// ---- load generator ---------------------------------------------------------

TEST(LoadGen, ValidatesConfig) {
  InferenceEngine engine(small_engine_config());
  LoadConfig config;
  config.offered_rps = 0.0;
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = {};
  config.requests = 0;
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = {};
  config.arrival = ArrivalProcess::kOnOff;
  config.on_fraction = 1.5;
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config.on_fraction = 0.5;
  config.burst_cycle_s = 0.0;
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = {};
  config.mix = {{kBaseVariant, 1.0}, {kBaseVariant, 2.0}};
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config = {};
  config.mix = {{"nope", 1.0}};
  LoadGenerator generator(config);  // builds fine...
  EXPECT_THROW(generator.run(engine, single_image(random_batch(1), 0)),
               std::invalid_argument);  // ...fails fast against this engine
}

TEST(LoadGen, RejectsAnOutOfRangeArrivalProcess) {
  // An arrival outside the enum (a cast from a wire or CLI integer) must be
  // refused up front, not schedule indeterminate arrival times.
  LoadConfig config;
  config.arrival = static_cast<ArrivalProcess>(7);
  try {
    config.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("arrival"), std::string::npos) << e.what();
  }
  EXPECT_THROW(LoadGenerator{config}, std::invalid_argument);
  config.arrival = static_cast<ArrivalProcess>(-1);
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(LoadGen, ScheduleIsDeterministicPerSeed) {
  LoadConfig config;
  config.requests = 200;
  config.seed = 1234;
  config.mix = {{kBaseVariant, 3.0}, {kDefendedVariant, 1.0}};
  const LoadGenerator a(config), b(config);
  // Same seed ⇒ bitwise-identical arrivals and routing.
  ASSERT_EQ(a.arrival_offsets().size(), 200u);
  EXPECT_EQ(a.arrival_offsets(), b.arrival_offsets());
  EXPECT_EQ(a.variant_schedule(), b.variant_schedule());

  config.seed = 1235;
  const LoadGenerator c(config);
  EXPECT_NE(a.arrival_offsets(), c.arrival_offsets());

  // Arrivals are sorted and the mix is honored in rough proportion.
  double previous = 0.0;
  for (const double offset : a.arrival_offsets()) {
    EXPECT_GE(offset, previous);
    previous = offset;
  }
  std::size_t to_base = 0;
  for (const std::size_t m : a.variant_schedule()) {
    if (m == 0) ++to_base;
  }
  EXPECT_GT(to_base, 120u);  // ~150 expected of 200 at weight 3:1
  EXPECT_LT(to_base, 180u);
}

TEST(LoadGen, UniformPacingAndOnOffWindows) {
  LoadConfig config;
  config.arrival = ArrivalProcess::kUniform;
  config.offered_rps = 50.0;
  config.requests = 10;
  const LoadGenerator uniform(config);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(uniform.arrival_offsets()[i], static_cast<double>(i) / 50.0);
  }

  config.arrival = ArrivalProcess::kOnOff;
  config.offered_rps = 500.0;
  config.requests = 400;
  config.on_fraction = 0.25;
  config.burst_cycle_s = 0.1;
  const LoadGenerator bursty(config);
  const double on_len = 0.25 * 0.1;
  for (const double offset : bursty.arrival_offsets()) {
    const double in_cycle = std::fmod(offset, 0.1);
    // Every arrival lands inside its cycle's on-window.
    EXPECT_LE(in_cycle, on_len + 1e-9) << "offset " << offset;
  }
}

TEST(LoadGen, ReplayAccountsForEveryScheduledRequest) {
  EngineConfig engine_config = small_engine_config();
  InferenceEngine engine(engine_config);
  LoadConfig config;
  config.offered_rps = 2000.0;  // fast: ~25 ms of schedule
  config.requests = 50;
  config.seed = 7;
  config.mix = {{kBaseVariant, 1.0}, {kDefendedVariant, 1.0}};
  LoadGenerator generator(config);
  const LoadReport report = generator.run(engine, single_image(random_batch(1, 41), 0));

  EXPECT_EQ(report.offered, 50);
  EXPECT_EQ(report.served + report.rejected + report.failed, 50);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.rejected, 0);  // default queue capacity is ample
  EXPECT_GT(report.achieved_rps, 0.0);
  EXPECT_GT(report.duration_s, 0.0);
  EXPECT_EQ(report.latency.count, report.served);
  EXPECT_GT(report.latency.p99_us, 0.0);
  EXPECT_GE(report.latency.p99_us, report.latency.p50_us);

  ASSERT_EQ(report.variants.size(), 2u);
  std::int64_t offered_sum = 0, served_sum = 0;
  for (std::size_t m = 0; m < report.variants.size(); ++m) {
    const auto& vs = report.variants[m];
    // Offered counts are exactly the schedule's routing counts.
    std::int64_t scheduled = 0;
    for (const std::size_t idx : generator.variant_schedule()) {
      if (idx == m) ++scheduled;
    }
    EXPECT_EQ(vs.offered, scheduled) << vs.variant;
    EXPECT_EQ(vs.served, vs.offered) << vs.variant;
    offered_sum += vs.offered;
    served_sum += vs.served;
  }
  EXPECT_EQ(offered_sum, 50);
  EXPECT_EQ(served_sum, report.served);

  // Engine-side latency rings saw the same traffic.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 50);
  EXPECT_EQ(stats.rejected, 0);
}

}  // namespace
}  // namespace blurnet::serve
