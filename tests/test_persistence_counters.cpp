// Persistence-instruction invariants, measured in count_only mode —
// these are the deterministic properties Figures 1b/1c, 5 and 6 rest
// on: the tuned ISB placement issues strictly fewer pwbs and pbarriers
// than the general one, the read-only optimization makes find() free,
// capsule costs dominate, the volatile baselines issue none, exact
// per-op costs hold, and counts are independent of the execution mode.
#include <gtest/gtest.h>

#include <cstdint>

#include "repro/baselines/capsules_list.hpp"
#include "repro/baselines/log_queue.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/harness/registry.hpp"
#include "repro/pmem/persist.hpp"

namespace {

using repro::baselines::CapsulesList;
using repro::baselines::LogQueue;
using repro::ds::IsbList;
using repro::ds::IsbQueue;
using repro::ds::PersistProfile;
using repro::pmem::Counters;

template <typename F>
Counters count(F&& f) {
  const Counters before = repro::pmem::counters();
  f();
  return repro::pmem::counters() - before;
}

template <typename Set>
void churn(Set& s) {
  for (std::int64_t k = 1; k <= 64; ++k) s.insert(k);
  for (std::int64_t k = 1; k <= 64; ++k) s.find(k);
  for (std::int64_t k = 1; k <= 64; ++k) s.erase(k);
}

TEST(PersistenceCounters, IsbOptimizedStrictlyCheaper) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbList general(IsbList::Config{PersistProfile::general, true});
  IsbList optimized(IsbList::Config{PersistProfile::optimized, true});
  const Counters cg = count([&] { churn(general); });
  const Counters co = count([&] { churn(optimized); });
  EXPECT_LT(co.flushes, cg.flushes);
  EXPECT_LT(co.fences, cg.fences);
  EXPECT_EQ(co.psyncs, cg.psyncs);  // one durable point per update
  EXPECT_GT(co.psyncs, 0u);
}

TEST(PersistenceCounters, ReadOnlyOptimizationMakesFindsFree) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  for (const auto profile :
       {PersistProfile::general, PersistProfile::optimized}) {
    IsbList with_opt(IsbList::Config{profile, true});
    IsbList without_opt(IsbList::Config{profile, false});
    for (std::int64_t k = 1; k <= 32; ++k) {
      with_opt.insert(k);
      without_opt.insert(k);
    }
    const Counters free_finds = count([&] {
      for (std::int64_t k = 1; k <= 32; ++k) with_opt.find(k);
    });
    EXPECT_EQ(free_finds.flushes, 0u);
    EXPECT_EQ(free_finds.fences, 0u);
    EXPECT_EQ(free_finds.psyncs, 0u);
    const Counters paid_finds = count([&] {
      for (std::int64_t k = 1; k <= 32; ++k) without_opt.find(k);
    });
    EXPECT_GT(paid_finds.flushes, 0u);
    EXPECT_GT(paid_finds.psyncs, 0u);
  }
}

TEST(PersistenceCounters, CapsulesGeneralPaysPerRead) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  CapsulesList general(CapsulesList::Variant::general);
  CapsulesList optimized(CapsulesList::Variant::optimized);
  const Counters cg = count([&] { churn(general); });
  const Counters co = count([&] { churn(optimized); });
  // The general construction checkpoints a capsule at every shared
  // read, so its traversal cost dwarfs the optimized variant's.
  EXPECT_GT(cg.flushes, 2 * co.flushes);
  EXPECT_GT(cg.fences, 2 * co.fences);
}

TEST(PersistenceCounters, IsbQueueBeatsLogQueuePerOp) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbQueue isb;
  LogQueue log;
  const Counters ci = count([&] {
    for (std::uint64_t v = 0; v < 128; ++v) isb.enqueue(v);
    for (std::uint64_t v = 0; v < 128; ++v) isb.dequeue();
  });
  const Counters cl = count([&] {
    for (std::uint64_t v = 0; v < 128; ++v) log.enqueue(v);
    for (std::uint64_t v = 0; v < 128; ++v) log.dequeue();
  });
  EXPECT_LT(ci.flushes, cl.flushes);
  // Fences are tied since the queue's persist-link-before-tail-swing
  // rule (IsbPolicy::expose) added one ordering fence per enqueue —
  // the price of staying crash-consistent when concurrent enqueuers
  // build on each other's links.
  EXPECT_LE(ci.fences, cl.fences);
}

// The volatile baselines are the paper's original structures: they
// issue no persistence instruction at all, removals included (retiring
// a node is a reclaimer matter, never a persistence one).  The
// no-reclaim ablations are skipped: they never retire, and their churn
// leaks by design, which LeakSanitizer builds would report.
TEST(PersistenceCounters, VolatileBaselinesIssueNoPersistence) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  const auto entries =
      repro::harness::Registry::instance().select("trait:volatile");
  ASSERT_FALSE(entries.empty());
  for (const repro::harness::AlgoEntry* e : entries) {
    if (e->has_trait("no-reclaim")) continue;
    auto s = e->make();
    const Counters c = count([&] {
      if (auto* set = dynamic_cast<repro::harness::SetIface*>(s.get())) {
        churn(*set);
      } else if (auto* q =
                     dynamic_cast<repro::harness::QueueIface*>(s.get())) {
        std::uint64_t out = 0;
        for (std::uint64_t v = 0; v < 64; ++v) q->enqueue(v);
        for (int i = 0; i <= 64; ++i) q->dequeue(out);
      } else {
        ADD_FAILURE() << e->name << ": no churn for this kind";
      }
    });
    EXPECT_EQ(c.flushes, 0u) << e->name;
    EXPECT_EQ(c.fences, 0u) << e->name;
    EXPECT_EQ(c.psyncs, 0u) << e->name;
  }
}

// Exact per-op costs of the evaluated queue (tuned placement).  An
// enqueue: pre_publish pwb+pfence, link pwb, expose pfence, commit
// pfence+pwb+pfence+psync.  A dequeue: head pwb, retired node pwb,
// commit pfence+pwb+pfence+psync — the commit's fence also orders the
// retired node, so retiring costs no fence of its own.
TEST(PersistenceCounters, IsbQueueExactPerOpCosts) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbQueue q;
  constexpr std::uint64_t kOps = 64;
  const Counters enq = count([&] {
    for (std::uint64_t v = 0; v < kOps; ++v) q.enqueue(v);
  });
  const Counters deq = count([&] {
    for (std::uint64_t v = 0; v < kOps; ++v) ASSERT_TRUE(q.dequeue().ok);
  });
  EXPECT_EQ(enq.flushes, 3 * kOps);
  EXPECT_EQ(enq.fences, 4 * kOps);
  EXPECT_EQ(enq.psyncs, kOps);
  EXPECT_EQ(deq.flushes, 3 * kOps);
  EXPECT_EQ(deq.fences, 2 * kOps);
  EXPECT_EQ(deq.psyncs, kOps);
}

// Exact cost of a successful general-profile erase: announcement
// pwb+pfence, mark pwb+pfence, unlink pwb+pfence, retired node pwb,
// commit pwb+pfence+psync.
TEST(PersistenceCounters, IsbGeneralEraseExactCost) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  IsbList list(IsbList::Config{PersistProfile::general, true});
  constexpr std::uint64_t kOps = 64;
  for (std::uint64_t k = 1; k <= kOps; ++k) {
    list.insert(static_cast<std::int64_t>(k));
  }
  const Counters c = count([&] {
    for (std::uint64_t k = 1; k <= kOps; ++k) {
      ASSERT_TRUE(list.erase(static_cast<std::int64_t>(k)));
    }
  });
  EXPECT_EQ(c.flushes, 5 * kOps);
  EXPECT_EQ(c.fences, 4 * kOps);
  EXPECT_EQ(c.psyncs, kOps);
}

TEST(PersistenceCounters, CountsIndependentOfMode) {
  // The same operation sequence must tally identically whether the
  // instructions execute (shared_cache / private_cache) or not
  // (count_only) — this is what makes Figures 1b/1c deterministic.
  Counters per_mode[3];
  const repro::pmem::Mode modes[3] = {repro::pmem::Mode::shared_cache,
                                      repro::pmem::Mode::private_cache,
                                      repro::pmem::Mode::count_only};
  for (int i = 0; i < 3; ++i) {
    repro::pmem::ModeGuard guard(modes[i]);
    IsbList list;
    per_mode[i] = count([&] { churn(list); });
  }
  EXPECT_EQ(per_mode[0].flushes, per_mode[1].flushes);
  EXPECT_EQ(per_mode[1].flushes, per_mode[2].flushes);
  EXPECT_EQ(per_mode[0].fences, per_mode[1].fences);
  EXPECT_EQ(per_mode[1].fences, per_mode[2].fences);
  EXPECT_EQ(per_mode[0].psyncs, per_mode[2].psyncs);
}

TEST(PersistenceCounters, PersistWordHelpers) {
  repro::pmem::ModeGuard guard(repro::pmem::Mode::count_only);
  repro::pmem::persist<std::uint64_t> w{0};
  const Counters c = count([&] {
    w.store_flush(1);
    w.store_persist(2);
  });
  EXPECT_EQ(w.load(), 2u);
  EXPECT_EQ(c.flushes, 2u);
  EXPECT_EQ(c.fences, 1u);
}

TEST(PersistenceCounters, PersistCasAndCasWeak) {
  repro::pmem::persist<std::uint64_t> w{5};
  std::uint64_t expected = 4;
  EXPECT_FALSE(w.cas(expected, 9));
  EXPECT_EQ(expected, 5u);  // failure loads the observed value
  EXPECT_TRUE(w.cas(expected, 9));
  EXPECT_EQ(w.load(), 9u);

  // cas_weak may fail spuriously but must succeed in a retry loop and
  // never lose the expected-value contract.
  expected = 9;
  while (!w.cas_weak(expected, 12)) {
    EXPECT_EQ(expected, 9u);
  }
  EXPECT_EQ(w.load(), 12u);

  // Explicit orders are accepted (the satellite API surface).
  expected = 12;
  EXPECT_TRUE(w.cas(expected, 13, std::memory_order_seq_cst,
                    std::memory_order_relaxed));
  EXPECT_EQ(w.load(), 13u);
}

}  // namespace
