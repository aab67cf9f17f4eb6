// Harris-Michael hash map: semantics across buckets, collision-heavy
// small-directory stress (the TSan target — two buckets force every
// thread through the same segments), detectable recovery after node
// recycling, and the crash-engine integration (deterministic
// {seed, crash_point} replay + family fuzz sweeps).  The corpus entry
// replayed by test_corpus.cpp ("Isb-HashMap" in regressions.jsonl)
// pins the same triple bit-for-bit forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "repro/ds/hm_hashtable.hpp"
#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "repro/pmem/persist.hpp"

namespace {

using repro::ds::DtHashMap;
using repro::ds::HarrisHashMap;
using repro::ds::IsbHashMap;
using repro::ds::OpKind;
using repro::ds::PersistProfile;
using repro::ds::thread_slot;
using repro::harness::AlgoEntry;
using repro::harness::CrashPlan;
using repro::harness::FuzzReport;
using repro::harness::Registry;

IsbHashMap::Config cfg(int bucket_bits,
                       PersistProfile p = PersistProfile::general) {
  IsbHashMap::Config c;
  c.profile = p;
  c.bucket_bits = bucket_bits;
  return c;
}

template <typename Map>
void check_against_reference(Map& m, unsigned seed, std::int64_t range,
                             int ops) {
  std::mt19937 rng(seed);
  std::set<std::int64_t> ref;
  for (int i = 0; i < ops; ++i) {
    const std::int64_t k =
        1 + static_cast<std::int64_t>(rng() % static_cast<unsigned>(range));
    switch (rng() % 3) {
      case 0:
        EXPECT_EQ(m.insert(k), ref.insert(k).second) << "key " << k;
        break;
      case 1:
        EXPECT_EQ(m.erase(k), ref.erase(k) > 0) << "key " << k;
        break;
      default:
        EXPECT_EQ(m.find(k), ref.count(k) > 0) << "key " << k;
        break;
    }
  }
}

TEST(Hashmap, BasicSemanticsSpanBuckets) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(4));  // 16 buckets: the keys below hit several
  EXPECT_EQ(m.bucket_count(), 16u);
  // Widely-spread keys (different buckets) and near keys (hash
  // neighbours are NOT key neighbours) behave like one logical set.
  const std::int64_t keys[] = {1, 2, 3, 1'000'003, 999'999'937,
                               1'000'000'000'039};
  for (std::int64_t k : keys) {
    EXPECT_FALSE(m.find(k)) << k;
    EXPECT_TRUE(m.insert(k)) << k;
    EXPECT_FALSE(m.insert(k)) << k;  // duplicate across the whole map
  }
  for (std::int64_t k : keys) EXPECT_TRUE(m.find(k)) << k;
  EXPECT_EQ(m.size_slow(), 6u);
  EXPECT_TRUE(m.erase(keys[3]));
  EXPECT_FALSE(m.erase(keys[3]));
  EXPECT_FALSE(m.find(keys[3]));
  EXPECT_TRUE(m.insert(keys[3]));  // re-insert after erase
  EXPECT_EQ(m.size_slow(), 6u);
}

TEST(Hashmap, MatchesReferenceSetAcrossBucketCounts) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  // bucket_bits 0 degenerates to the flat list; 6 spreads 64 keys at
  // ~1 per bucket; both must be indistinguishable from std::set.
  for (int bits : {0, 2, 6}) {
    IsbHashMap m(cfg(bits));
    check_against_reference(m, 42u + static_cast<unsigned>(bits), 64,
                            4000);
  }
  DtHashMap dt(PersistProfile::optimized, 3);
  check_against_reference(dt, 7u, 64, 4000);
  HarrisHashMap vol(3);
  check_against_reference(vol, 8u, 64, 4000);
}

// The TSan stress: two buckets, eight threads, every operation
// contends on the same two Harris segments — marked-chain snips,
// helping, and retirement race exactly like the flat list but with the
// shared-tail topology in play.
TEST(Hashmap, CollisionHeavyTwoBucketChaos) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(1));
  constexpr int kThreads = 8;
  constexpr std::int64_t kRange = 128;
  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&m, t] {
      std::mt19937 rng(1234u + static_cast<unsigned>(t));
      for (int i = 0; i < 20000; ++i) {
        const std::int64_t k =
            1 + static_cast<std::int64_t>(rng() % kRange);
        switch (rng() % 3) {
          case 0: m.insert(k); break;
          case 1: m.erase(k); break;
          default: m.find(k); break;
        }
      }
    });
  }
  for (auto& w : ws) w.join();
  for (std::int64_t k = 1; k <= kRange; ++k) {
    if (m.find(k)) {
      EXPECT_FALSE(m.insert(k)) << "key " << k;
      EXPECT_TRUE(m.erase(k)) << "key " << k;
    } else {
      EXPECT_FALSE(m.erase(k)) << "key " << k;
      EXPECT_TRUE(m.insert(k)) << "key " << k;
    }
  }
}

// Threads own disjoint key ranges scattered over many buckets.
TEST(Hashmap, DisjointThreadRanges) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(5));
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 512;
  std::vector<std::thread> ws;
  for (int t = 0; t < kThreads; ++t) {
    ws.emplace_back([&m, t] {
      const std::int64_t base = t * kPerThread * 2;
      for (std::int64_t k = 0; k < kPerThread; ++k) {
        ASSERT_TRUE(m.insert(base + k));
      }
      for (std::int64_t k = 0; k < kPerThread; k += 2) {
        ASSERT_TRUE(m.erase(base + k));
      }
    });
  }
  for (auto& w : ws) w.join();
  for (int t = 0; t < kThreads; ++t) {
    const std::int64_t base = t * kPerThread * 2;
    for (std::int64_t k = 0; k < kPerThread; ++k) {
      EXPECT_EQ(m.find(base + k), k % 2 == 1) << "key " << base + k;
    }
  }
}

TEST(Hashmap, DurableWalkConcatenatesBuckets) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(3));
  std::set<std::int64_t> expect;
  for (std::int64_t k = 1; k <= 100; ++k) {
    m.insert(k);
    expect.insert(k);
  }
  for (std::int64_t k = 1; k <= 100; k += 3) {
    m.erase(k);
    expect.erase(k);
  }
  std::vector<std::int64_t> walked;
  ASSERT_TRUE(m.snapshot_keys(walked));
  // Bucket order, not key order — consumers sort; so do we.
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(std::vector<std::int64_t>(expect.begin(), expect.end()),
            walked);
  // The walk is deterministic: the chain fuzzer's idempotence re-walk
  // compares raw vectors.
  std::vector<std::int64_t> again;
  ASSERT_TRUE(m.snapshot_keys(again));
  std::vector<std::int64_t> walked2;
  ASSERT_TRUE(m.snapshot_keys(walked2));
  EXPECT_EQ(again, walked2);
}

// Descriptor recovery stays truthful after the map's nodes have been
// retired and recycled through the pool many times over (the board is
// never recycled; only list cells are).
TEST(Hashmap, RecoverAfterRecycle) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbHashMap m(cfg(2));
  for (int round = 0; round < 200; ++round) {
    for (std::int64_t k = 1; k <= 32; ++k) ASSERT_TRUE(m.insert(k));
    for (std::int64_t k = 1; k <= 32; ++k) ASSERT_TRUE(m.erase(k));
  }
  ASSERT_TRUE(m.insert(7));
  auto rec = m.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::insert);
  EXPECT_EQ(rec.key, 7);
  EXPECT_TRUE(rec.completed);
  EXPECT_TRUE(rec.ok);
  ASSERT_FALSE(m.erase(8));  // failed op: response still recovered
  rec = m.recover(thread_slot());
  EXPECT_EQ(rec.kind, OpKind::erase);
  EXPECT_EQ(rec.key, 8);
  EXPECT_TRUE(rec.completed);
  EXPECT_FALSE(rec.ok);
}

// ---------------------------------------------------------------------
// Crash-engine integration
// ---------------------------------------------------------------------

const AlgoEntry& algo(const char* name) {
  const AlgoEntry* e = Registry::instance().find(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

CrashPlan quick_plan(int points) {
  CrashPlan p;
  p.seed = 0xFACADEull;
  p.threads = 1;
  p.points = points;
  return p;
}

TEST(Hashmap, FuzzReplayOfSeedAndCrashPointIsDeterministic) {
  const AlgoEntry& hm = algo("Isb-HashMap");
  const CrashPlan plan = quick_plan(0);
  FuzzReport a, b;
  repro::harness::fuzz_one(hm, plan, /*iter_seed=*/0x4A5BA11ull,
                           /*crash_point=*/41, 0, a);
  repro::harness::fuzz_one(hm, plan, 0x4A5BA11ull, 41, 0, b);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(a.crashes, 1);
}

// Every hashmap variant survives a quick fuzz budget; the CI fuzz jobs
// run the full budgets through crash_recovery's trait:detectable
// selector, which now sweeps these automatically.
TEST(Hashmap, DetectableVariantsSurviveFuzzing) {
  for (const char* name :
       {"Isb-HashMap", "Isb-HashMap-Opt", "DT-HashMap"}) {
    const FuzzReport rep =
        repro::harness::fuzz_structure(algo(name), quick_plan(150));
    EXPECT_EQ(rep.violations, 0)
        << name << ": "
        << (rep.failures.empty() ? "?" : rep.failures.front().what);
    EXPECT_GT(rep.crashes, 0) << name;
    EXPECT_EQ(rep.points, 150) << name;
  }
}

}  // namespace
