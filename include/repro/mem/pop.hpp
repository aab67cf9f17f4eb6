// Publish-on-ping epoch reclamation (the PPoPP'25 "POP" idea applied
// to the three-epoch scheme in ebr.hpp) — the third scheme behind the
// Reclaimer concept.
//
// EBR's steady-state guard cost is two loads and a branch: one of the
// *global* epoch counter (shared, invalidated on every advance) and
// one of the slot's own announcement.  ebr.hpp's header documents why
// the re-announcement store is expensive (~20% of throughput when paid
// per-op); POP removes the remaining shared-read too.  A POP guard
// never reads the global epoch on entry — it checks only two
// slot-local words: its announcement (is the slot quiescent?) and a
// `ping` flag that *reclaiming* threads set when they find the slot's
// announcement lagging.  Steady state is therefore entirely
// slot-local: no shared-cache-line traffic at all until someone
// actually needs this thread to move.  The asymmetry matches the
// workload — guard entries happen every operation, epoch advances once
// per kAdvanceEvery retires per thread.
//
// Safety is unchanged from EBR: an announcement, once published, is
// refreshed only at guard *entry* (outside any critical section), so a
// lagging announcement is conservative — it holds the epoch back,
// never lets reclamation run early.  try_advance refuses to advance
// past a lagging pinned slot and instead sets its ping; the slot
// re-announces (seq_cst) on its next operation, and the advance
// succeeds on a later scan.  The liveness trade is one extra
// advance-scan round-trip per epoch per lagging thread.
//
// Everything else — three limbo lists per slot, grace = two advances,
// the pause-parking fix, the shared
// process-wide ReclaimPause, the cross-scheme drain/walk hooks — is
// deliberately identical to EpochDomain so the matrix benchmarks
// isolate exactly one variable: how the announcement is kept fresh.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/mem/ebr.hpp"

namespace repro::mem {

class PopDomain {
 public:
  static PopDomain& instance() {
    static PopDomain d;
    return d;
  }

 private:
  struct Slot;

 public:
  // RAII operation scope.  Entry re-announces only when the slot is
  // quiescent or has been pinged by a reclaimer — the steady-state
  // path reads two slot-local words and branches, touching no shared
  // line.  Pins persist between operations exactly as in EBR.
  class Guard {
   public:
    Guard() : slot_(PopDomain::instance().slots_[ds::thread_slot()]) {
      if (slot_.depth++ == 0) {
        PopDomain& d = PopDomain::instance();
        d.arm_exit_cleanup(slot_);
        if (slot_.announce.load(std::memory_order_relaxed) ==
                kQuiescent ||
            slot_.ping.load(std::memory_order_relaxed) != 0) {
          slot_.ping.store(0, std::memory_order_relaxed);
          slot_.announce.store(
              d.epoch_.load(std::memory_order_relaxed),
              std::memory_order_seq_cst);
        }
      }
    }
    ~Guard() { --slot_.depth; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    static constexpr bool kHazards = false;
    void protect(int, const void*) {}

   private:
    PopDomain::Slot& slot_;
  };

  void release_pin() {
    Slot& s = slots_[ds::thread_slot()];
    if (s.depth == 0) {
      s.announce.store(kQuiescent, std::memory_order_seq_cst);
    }
  }

  using Deleter = void (*)(void*);

  // Identical shape to EpochDomain::retire, including the pause-parking
  // fix for the stale-limbo drain.
  void retire(void* p, Deleter del, std::size_t bytes = kCacheLine) {
    Slot& s = slots_[ds::thread_slot()];
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    Limbo& l = s.limbo[e % kEpochLists];
    if (l.epoch != e) {
      if (reclaim_paused()) {
        s.parked.insert(s.parked.end(), l.items.begin(), l.items.end());
        l.items.clear();
      } else {
        reclaim(l);
      }
      l.epoch = e;
    }
    l.items.push_back({p, del, bytes});
    ++detail::tl_stats.retires;
    if (++s.retire_ticks >= kAdvanceEvery) {
      s.retire_ticks = 0;
      if (reclaim_paused()) return;
      try_advance();
      reclaim_ready(s);
    }
  }

  bool reclaim_paused() const { return mem::reclaim_paused(); }

  void reset_slot_pin(int slot) {
    if (slot < 0 || slot >= ds::kMaxThreads) return;
    slots_[slot].announce.store(kQuiescent, std::memory_order_seq_cst);
  }

  // One advancement step.  Where EBR's scan just fails on a lagging
  // pinned slot (the slot will notice the moved epoch by itself on its
  // next entry), POP must *tell* the slot to refresh — that is the
  // ping.  The seq_cst ping store orders with the slot's next guard
  // entry; the refresh there re-establishes the same happens-before
  // chain EBR gets from re-reading the global epoch.
  bool try_advance() {
    if (reclaim_paused()) return false;
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    bool lagging = false;
    for (int i = 0; i < ds::kMaxThreads; ++i) {
      const std::uint64_t a =
          slots_[i].announce.load(std::memory_order_seq_cst);
      if (a != kQuiescent && a != e) {
        slots_[i].ping.store(1, std::memory_order_seq_cst);
        lagging = true;
      }
    }
    if (lagging) return false;
    return epoch_.compare_exchange_strong(e, e + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst);
  }

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  std::size_t limbo_size() {
    const Slot& s = slots_[ds::thread_slot()];
    std::size_t n = s.parked.size();
    for (const Limbo& l : s.limbo) n += l.items.size();
    return n;
  }

  void quiesce() {
    release_pin();
    for (int i = 0; i < 2 * kEpochLists; ++i) {
      try_advance();
    }
    reclaim_ready(slots_[ds::thread_slot()]);
  }

  PopDomain(const PopDomain&) = delete;
  PopDomain& operator=(const PopDomain&) = delete;

 private:
  struct Retired {
    void* p;
    Deleter del;
    std::size_t bytes;
  };
  struct Limbo {
    std::uint64_t epoch = 0;
    std::vector<Retired> items;
  };
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> announce{kQuiescent};
    // Set by try_advance when this slot's announcement lags the epoch;
    // cleared by the slot's next guard entry, which re-announces.
    std::atomic<std::uint8_t> ping{0};
    int depth = 0;
    int retire_ticks = 0;
    Limbo limbo[kEpochLists];
    std::vector<Retired> parked;
  };

  PopDomain() {
    detail::register_reclaimer_hooks(&PopDomain::walk_parked,
                                     &PopDomain::drain_current_slot);
  }

  static void drain_current_slot() {
    PopDomain& d = instance();
    d.try_advance();
    d.reclaim_ready(d.slots_[ds::thread_slot()]);
  }
  static void walk_parked(void* ctx, detail::ParkedVisitor visit) {
    PopDomain& d = instance();
    for (Slot& s : d.slots_) {
      for (const Limbo& l : s.limbo) {
        for (const Retired& r : l.items) visit(ctx, r.p, r.bytes);
      }
      for (const Retired& r : s.parked) visit(ctx, r.p, r.bytes);
    }
  }

  void arm_exit_cleanup(Slot& s) {
    struct Cleanup {
      std::atomic<std::uint64_t>* announce = nullptr;
      ~Cleanup() {
        if (announce != nullptr) {
          announce->store(kQuiescent, std::memory_order_seq_cst);
        }
      }
    };
    thread_local Cleanup cleanup;
    cleanup.announce = &s.announce;
  }

  static void reclaim(Limbo& l) {
    for (const Retired& r : l.items) {
      r.del(r.p);
      ++detail::tl_stats.reclaims;
    }
    l.items.clear();
  }

  void reclaim_ready(Slot& s) {
    if (reclaim_paused()) return;
    if (!s.parked.empty()) {
      for (const Retired& r : s.parked) {
        r.del(r.p);
        ++detail::tl_stats.reclaims;
      }
      s.parked.clear();
    }
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    for (Limbo& l : s.limbo) {
      if (!l.items.empty() && l.epoch + 2 <= e) reclaim(l);
    }
  }

  std::atomic<std::uint64_t> epoch_{kEpochLists};
  Slot slots_[ds::kMaxThreads];
};

// Reclaimer facade: identical surface to EbrReclaimer, announcement
// kept fresh by pings instead of per-entry epoch reads.
struct PopReclaimer {
  using Guard = PopDomain::Guard;

  template <typename T, typename... Args>
  static T* create(Args&&... args) {
    return NodePool<T>::instance().create(std::forward<Args>(args)...);
  }

  template <typename T>
  static void destroy(T* p) {
    NodePool<T>::instance().destroy(p);
  }

  template <typename T>
  static void retire(T* p) {
    PopDomain::instance().retire(
        p,
        [](void* q) {
          NodePool<T>::instance().destroy(static_cast<T*>(q));
        },
        sizeof(T));
  }
};

}  // namespace repro::mem
