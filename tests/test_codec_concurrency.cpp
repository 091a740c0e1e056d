// Multi-threaded codec soak: N threads drive mixed failure scenarios
// through one Codec — decode, plan_for, and lock-free stats reads all at
// once — while the sharded LRU plan cache churns (64+ scenarios through
// capacity 8). Every decoded stripe is verified byte-exact. The CI TSan
// job (PPM_SANITIZE=thread) runs this file to prove the absence of data
// races, not just the absence of wrong answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "codec/codec.h"
#include "test_util.h"

namespace ppm {
namespace {

std::vector<FailureScenario> distinct_scenarios(const ErasureCode& code,
                                                std::size_t want) {
  ScenarioGenerator gen(7001);
  std::set<std::vector<std::size_t>> seen;
  std::vector<FailureScenario> out;
  for (std::size_t guard = 0; out.size() < want && guard < want * 200;
       ++guard) {
    const auto g = gen.sd_worst_case(code, 2, 2, 1);
    const std::vector<std::size_t> key(g.scenario.faulty().begin(),
                                       g.scenario.faulty().end());
    if (seen.insert(key).second) out.push_back(g.scenario);
  }
  return out;
}

TEST(CodecSoak, ConcurrentMixedScenarioTraffic) {
  const SDCode code(8, 4, 2, 2, 8);
  constexpr std::size_t kScenarios = 64;
  constexpr std::size_t kBlock = 128;
  constexpr int kThreads = 8;
  constexpr int kRounds = 2;

  const auto scenarios = distinct_scenarios(code, kScenarios);
  ASSERT_EQ(scenarios.size(), kScenarios);

  Codec::Options opts;
  opts.cache_capacity = 8;  // 64 scenarios churn through 8 cached plans
  Codec codec(code, opts);
  ASSERT_GT(codec.cache_shards(), 1u);

  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> decodes{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread stripe; the codec and its cache are the shared state
      // under test.
      Stripe stripe(code, kBlock);
      const auto snap = test::fill_and_encode(code, stripe, 9000 + t);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          // Thread-dependent order so threads collide on different keys.
          const FailureScenario& sc =
              scenarios[(i * 7 + static_cast<std::size_t>(t) * 17) %
                        scenarios.size()];
          stripe.erase(sc);
          DecodeStats stats;
          if (!codec.decode(sc, stripe.block_ptrs(), kBlock, &stats) ||
              stats.mult_xors == 0 || !stripe.equals(snap)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          decodes.fetch_add(1, std::memory_order_relaxed);
          if (i % 8 == 0) {
            // Stats reads concurrent with decode traffic: lock-free,
            // must be race-free under TSan.
            (void)codec.cache_hits();
            (void)codec.cache_misses();
            (void)codec.cache_evictions();
            (void)codec.cache_size();
          }
          if (i % 16 == 0 && codec.plan_for(sc) == nullptr) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 32 == 0 && codec.metrics_json().empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  threads.clear();  // join

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(decodes.load(),
            static_cast<std::size_t>(kThreads) * kRounds * kScenarios);
  EXPECT_LE(codec.cache_size(), opts.cache_capacity);
  EXPECT_EQ(codec.metrics().decodes.value(), decodes.load());
  EXPECT_GT(codec.metrics().mult_xors.value(), 0u);
  EXPECT_EQ(codec.metrics().decode_seconds.count(), decodes.load());
  // Eviction accounting stays consistent after churn: every miss built a
  // plan that is either resident, evicted, or was beaten by a concurrent
  // insert of the same key (those count as misses but not evictions).
  EXPECT_GE(codec.cache_misses(), codec.cache_evictions());
  EXPECT_GT(codec.cache_hits(), 0u);
  EXPECT_GT(codec.cache_evictions(), 0u);
}

TEST(CodecSoak, ConcurrentBatchDecodesShareOnePool) {
  const SDCode code(8, 4, 2, 2, 8);
  constexpr std::size_t kBlock = 128;
  constexpr std::size_t kStripes = 8;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  ScenarioGenerator gen(7100);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);

  Codec::Options opts;
  opts.threads = 4;
  Codec codec(code, opts);

  std::atomic<std::size_t> failures{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::unique_ptr<Stripe>> stripes;
      std::vector<std::vector<std::uint8_t>> snaps;
      std::vector<std::uint8_t* const*> ptrs;
      for (std::size_t i = 0; i < kStripes; ++i) {
        stripes.push_back(std::make_unique<Stripe>(code, kBlock));
        snaps.push_back(test::fill_and_encode(
            code, *stripes.back(), 9500 + t * 100 + static_cast<int>(i)));
        ptrs.push_back(stripes.back()->block_ptrs());
      }
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& s : stripes) s->erase(g.scenario);
        const auto result = codec.decode_batch(g.scenario, ptrs, kBlock);
        if (!result.has_value() || result->stripes != kStripes) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t i = 0; i < kStripes; ++i) {
          if (!stripes[i]->equals(snaps[i])) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  threads.clear();  // join

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(codec.metrics().batches.value(),
            static_cast<std::size_t>(kThreads) * kRounds);
  EXPECT_EQ(codec.metrics().stripes_decoded.value(),
            static_cast<std::size_t>(kThreads) * kRounds * kStripes);
  EXPECT_EQ(codec.metrics().batch_seconds.count(),
            static_cast<std::size_t>(kThreads) * kRounds);
}

TEST(CodecSoak, ConcurrentSlicedTraffic) {
  // Four clients mix decode, encode and two-stripe decode_batch calls on
  // stripes large enough that each call is cut into slices, so client
  // fan-outs interleave their tasks on the codec's one pool.
  const SDCode code(8, 8, 2, 2, 8);
  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  ScenarioGenerator gen(7200);
  const auto sc = gen.sd_worst_case(code, 2, 2, 1).scenario;
  const auto encoding = FailureScenario::encoding_of(code);
  Codec codec(code, Codec::Options{.threads = 4});
  // Two slices of kMinSliceWork per stripe for the cheaper of the plans.
  const std::size_t cost =
      std::min(codec.plan_for(sc)->cost(), codec.plan_for(encoding)->cost());
  const std::size_t block = 2 * Codec::kMinSliceWork / cost + 1;

  std::atomic<std::size_t> failures{0};
  std::vector<std::jthread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::unique_ptr<Stripe>> stripes;
      std::vector<std::vector<std::uint8_t>> snaps;
      std::vector<std::uint8_t* const*> ptrs;
      for (int i = 0; i < 2; ++i) {
        stripes.push_back(std::make_unique<Stripe>(code, block));
        snaps.push_back(
            test::fill_and_encode(code, *stripes.back(), 9700 + c * 10 + i));
        ptrs.push_back(stripes.back()->block_ptrs());
      }
      const auto check = [&](bool ok, std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          ok = ok && stripes[i]->equals(snaps[i]);
        }
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      };
      for (int round = 0; round < kRounds; ++round) {
        stripes[0]->erase(sc);
        check(codec.decode(sc, ptrs[0], block), 1);
        stripes[0]->erase(encoding);
        check(codec.encode(ptrs[0], block), 1);
        for (const auto& s : stripes) s->erase(sc);
        check(codec.decode_batch(sc, ptrs, block).has_value(), 2);
      }
    });
  }
  clients.clear();  // join

  EXPECT_EQ(failures.load(), 0u);
  constexpr auto kOps = static_cast<std::size_t>(kClients) * kRounds;
  EXPECT_EQ(codec.metrics().decodes.value(), 2 * kOps);
  EXPECT_EQ(codec.metrics().batches.value(), kOps);
  // Every stripe of every call ran as more than one slice.
  EXPECT_EQ(codec.metrics().stripes_sliced.value(), 4 * kOps);
}

}  // namespace
}  // namespace ppm
