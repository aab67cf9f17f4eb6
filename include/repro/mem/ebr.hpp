// Epoch-based reclamation (EBR) for the lock-free structures.
//
// The classic three-epoch scheme (Fraser '04, the same shape as the
// setbench record managers): a global epoch counter, one announcement
// word per thread slot, and three per-slot limbo lists.  Every
// structure operation runs inside a Guard that announces the current
// epoch; a physically-unlinked node is retired into the limbo list
// tagged with the epoch at retire time, and a list tagged `t` may be
// reclaimed once the global epoch reaches `t + 2` — by then every guard
// that could have observed the node while it was linked has exited.
// Reclaimed cells go back to the retiring thread's NodePool shard
// (pool.hpp), so "freed" nodes are recycled hot instead of leaked.
//
// Grace-period advancement is amortised: every kAdvanceEvery retires a
// thread scans the announcement array (O(kMaxThreads), ~2 loads per
// retire amortised) and CASes the global epoch forward if every pinned
// thread has caught up.  A stalled thread therefore stalls reclamation
// but never safety; limbo growth between advances is bounded by the
// retire rate times the scan interval.
//
// ABA note: recycling node addresses reintroduces the classic CAS ABA
// hazard that the old leak-everything convention side-stepped.  The
// guard discipline closes it again — a cell cannot be handed out anew
// while any thread that might still compare against its old identity is
// pinned, which is exactly the use-after-free argument.
//
// Announcement cost (the DEBRA-style amortisation): publishing an
// announcement needs a store->load barrier (a seq_cst store), and on
// x86 locked operations also order pending clflush write-backs — paying
// that every operation puts DRAM write-back latency on the critical
// path of every single op in the shared-cache model (~20% of
// throughput, measured).  Guards therefore stay *pinned between
// operations*: exit only decrements the nesting depth, and entry
// re-announces (the expensive store) only when the global epoch moved
// or the slot was explicitly released.  The steady-state guard is two
// relaxed loads and a branch.  The trade-off is that an idle pinned
// thread stalls advancement (never safety) until it runs another
// operation, exits, or calls release_pin() — run_threads releases the
// driving thread's pin before each measured interval, and a thread's
// pin is cleared automatically at thread exit.
//
// Memory-order note: re-announcement stores and the epoch counter use
// seq_cst.  The reclaim path then has a full happens-before chain to
// every reader it must wait for: reader's quiescent store -> advance
// scan -> epoch CAS (RMWs form a release sequence) -> retirer's epoch
// load -> deleter run.  This is the canonical published EBR placement.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/mem/pool.hpp"

namespace repro::mem {

inline constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};
inline constexpr int kEpochLists = 3;
inline constexpr int kAdvanceEvery = 64;  // retires between advance scans

class EpochDomain {
 public:
  static EpochDomain& instance() {
    static EpochDomain d;
    return d;
  }

 private:
  struct Slot;

 public:
  // RAII critical section: pins the current epoch for this thread slot.
  // Re-entrant (an operation may nest another guarded operation, e.g.
  // the elimination stack calling into the exchanger).  The pin is NOT
  // dropped on destruction — it persists until the next entry observes
  // a newer epoch, the thread exits, or release_pin() is called — so
  // back-to-back operations pay no barrier (see the header comment).
  class Guard {
   public:
    Guard() : slot_(EpochDomain::instance().slots_[ds::thread_slot()]) {
      if (slot_.depth++ == 0) {
        EpochDomain& d = EpochDomain::instance();
        d.arm_exit_cleanup(slot_);
        const std::uint64_t e = d.epoch_.load(std::memory_order_relaxed);
        if (slot_.announce.load(std::memory_order_relaxed) != e) {
          // Epoch moved (or the slot was quiescent): publish with the
          // full barrier the grace-period argument needs.  A stale
          // relaxed epoch read only delays this refresh; the pin we
          // already hold keeps the old epoch's guarantee meanwhile.
          slot_.announce.store(e, std::memory_order_seq_cst);
        }
      }
    }
    ~Guard() { --slot_.depth; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // Reclaimer-concept hook (see HpDomain::Guard for the real one):
    // the epoch pin already protects everything reachable, so EBR
    // needs no per-pointer hazards and kHazards == false lets the
    // cores compile out the protect/validate re-reads entirely.
    static constexpr bool kHazards = false;
    void protect(int, const void*) {}

   private:
    EpochDomain::Slot& slot_;
  };

  // Drop this thread's epoch pin (outside any Guard only): advancement
  // no longer waits on this thread until its next operation.  The
  // harness calls this on the driving thread before each measured
  // interval; tests call it (via quiesce()) before forcing grace
  // periods.
  void release_pin() {
    Slot& s = slots_[ds::thread_slot()];
    if (s.depth == 0) {
      s.announce.store(kQuiescent, std::memory_order_seq_cst);
    }
  }

  using Deleter = void (*)(void*);

  // Hand a physically-unlinked node to the reclaimer.  The deleter runs
  // on this thread once the grace period has elapsed (it typically
  // returns the cell to this thread's NodePool shard).  `bytes` is the
  // cell's size, recorded so the crash-during-reclaim walker can check
  // every line the parked node occupies.
  void retire(void* p, Deleter del, std::size_t bytes = kCacheLine) {
    Slot& s = slots_[ds::thread_slot()];
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    Limbo& l = s.limbo[e % kEpochLists];
    if (l.epoch != e) {
      // The list last collected nodes at epoch e - 3 (same index mod
      // 3), which is already two advances stale.  Drain it — unless a
      // ReclaimPause is in force: draining here unconditionally was
      // the pause-bypass bug (a cell could recycle in the middle of
      // crash verification).  The stale items are ripe by construction
      // (their grace period elapsed three advances ago), so they are
      // spliced onto the slot's epoch-free parked list and freed by
      // the first unpaused reclaim_ready — including the final
      // resume_reclaim()'s.
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
      if (reclaim_paused()) return;  // park in limbo; drained on resume
      try_advance();
      reclaim_ready(s);
    }
  }

  // While paused, retired nodes stay in their limbo lists and no cell
  // is recycled — the crash engine relies on this so a rewound durable
  // link can never resurface as a recycled (re-initialised) node while
  // the post-crash image is being verified.  Pausing affects progress
  // only, never safety; nesting is allowed.
  // The pause depth is process-wide and shared by every reclamation
  // scheme (pool.hpp detail::pause_depth_cell): one ReclaimPause
  // freezes EBR, HP and POP recycling alike.
  bool reclaim_paused() const { return mem::reclaim_paused(); }
  void pause_reclaim() {
    detail::pause_depth_cell().fetch_add(1, std::memory_order_relaxed);
  }
  // Nested resumes only decrement; the *final* resume drains what this
  // thread parked during the pause (retire() defers both the advance
  // scan and reclaim_ready while paused, so without this a fuzz
  // iteration's garbage would sit in limbo until the next iteration's
  // retire tick — and a crash landing inside recover() under a nested
  // pause would leak the chain's whole footprint).  The drain runs
  // through the cross-scheme hook table, so whichever scheme parked
  // garbage during the pause (EBR limbo, HP batches, POP limbo) gets
  // its drain.  Opportunistic: with other threads pinned this reclaims
  // only what their progress allows.
  void resume_reclaim() {
    if (detail::pause_depth_cell().fetch_sub(
            1, std::memory_order_relaxed) == 1) {
      detail::drain_all_schemes();
    }
  }

  // Harness control for the adversarial crash scenarios (per-thread
  // death, stalled workers): force a slot's announcement quiescent so
  // an abandoned pin cannot stall epoch advancement forever.  Only safe
  // when the caller knows the slot's owner is dead or parked outside
  // any structure operation — the crash drivers call it for a lane
  // whose worker unwound via CrashUnwind before a fresh thread adopts
  // the slot.
  void reset_slot_pin(int slot) {
    if (slot < 0 || slot >= ds::kMaxThreads) return;
    slots_[slot].announce.store(kQuiescent, std::memory_order_seq_cst);
  }

  // One amortised advancement step: move the global epoch forward iff
  // every pinned thread has announced it.  Returns true on advance.
  bool try_advance() {
    if (reclaim_paused()) return false;  // epoch frozen under pause
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    for (int i = 0; i < ds::kMaxThreads; ++i) {
      const std::uint64_t a =
          slots_[i].announce.load(std::memory_order_seq_cst);
      if (a != kQuiescent && a != e) return false;
    }
    return epoch_.compare_exchange_strong(e, e + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst);
  }

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  // Retired-but-not-yet-reclaimed nodes parked on this thread's slot
  // (limbo lists plus the pause-parked overflow).
  std::size_t limbo_size() {
    const Slot& s = slots_[ds::thread_slot()];
    std::size_t n = s.parked.size();
    for (const Limbo& l : s.limbo) n += l.items.size();
    return n;
  }

  // Drain everything this thread retired whose grace period can be
  // forced to elapse.  Must be called outside any Guard; used by tests
  // and teardown paths.  With other threads pinned this reclaims only
  // what their progress allows — safety never depends on it.
  void quiesce() {
    release_pin();
    for (int i = 0; i < 2 * kEpochLists; ++i) {
      try_advance();
    }
    reclaim_ready(slots_[ds::thread_slot()]);
  }

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

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
    int depth = 0;         // guard nesting (owner thread only)
    int retire_ticks = 0;  // retires since the last advance scan
    Limbo limbo[kEpochLists];
    // Already-ripe items displaced from a stale limbo list while a
    // ReclaimPause was in force; freed by the first unpaused
    // reclaim_ready with no grace check (their epoch elapsed before
    // they were parked).
    std::vector<Retired> parked;
  };

  EpochDomain() {
    detail::register_reclaimer_hooks(&EpochDomain::walk_parked,
                                     &EpochDomain::drain_current_slot);
  }

  // Cross-scheme hooks (pool.hpp): the final resume_reclaim drains
  // through these, and the crash-during-reclaim scenario walks every
  // parked cell through them.
  static void drain_current_slot() {
    EpochDomain& d = instance();
    d.try_advance();
    d.reclaim_ready(d.slots_[ds::thread_slot()]);
  }
  static void walk_parked(void* ctx, detail::ParkedVisitor visit) {
    EpochDomain& d = instance();
    for (Slot& s : d.slots_) {
      for (const Limbo& l : s.limbo) {
        for (const Retired& r : l.items) visit(ctx, r.p, r.bytes);
      }
      for (const Retired& r : s.parked) visit(ctx, r.p, r.bytes);
    }
  }

  // A thread that exits while pinned must not stall reclamation
  // forever: a thread_local sentinel clears the announcement on thread
  // exit.  It is (re)armed on guard entry, after ds::thread_slot()'s
  // own thread_local holder, so it runs — and clears the slot — before
  // the slot is released for reuse by another thread.
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

  // Free every limbo list of `s` that is at least two epochs behind,
  // plus anything a pause displaced onto the parked list (ripe by
  // construction — no grace check needed).
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

  // Epoch 0 is never used as a limbo tag's "stale" sentinel problem:
  // starting at kEpochLists keeps `l.epoch + 2 <= e` exact from the
  // first retire on.
  std::atomic<std::uint64_t> epoch_{kEpochLists};
  Slot slots_[ds::kMaxThreads];
};

// RAII reclaim pause (crash-engine iterations, teardown-sensitive
// tests): retired cells stay intact until the scope ends.
class ReclaimPause {
 public:
  ReclaimPause() { EpochDomain::instance().pause_reclaim(); }
  ~ReclaimPause() { EpochDomain::instance().resume_reclaim(); }
  ReclaimPause(const ReclaimPause&) = delete;
  ReclaimPause& operator=(const ReclaimPause&) = delete;
};

// ---------------------------------------------------------------------
// Reclaimer facades — the template parameter the cores take.
// ---------------------------------------------------------------------

// The production reclaimer: pool-backed allocation, epoch-protected
// reclamation.  Structure operations instantiate `Reclaimer::Guard` for
// their duration; unlinked nodes go through retire<T>() and resurface
// in the owning pool after their grace period.
struct EbrReclaimer {
  using Guard = EpochDomain::Guard;

  template <typename T, typename... Args>
  static T* create(Args&&... args) {
    return NodePool<T>::instance().create(std::forward<Args>(args)...);
  }

  // Immediate destruction: only for nodes that were never published
  // (lost-race allocations, destructor teardown of a quiesced
  // structure).
  template <typename T>
  static void destroy(T* p) {
    NodePool<T>::instance().destroy(p);
  }

  // Deferred destruction for published-then-unlinked nodes.  The
  // cores hand a node over only after their operation committed, so
  // its lines are already durable (ds::RetireAfterCommit).
  template <typename T>
  static void retire(T* p) {
    EpochDomain::instance().retire(
        p,
        [](void* q) {
          NodePool<T>::instance().destroy(static_cast<T*>(q));
        },
        sizeof(T));
  }
};

// The seed's original behaviour, kept as an ablation point: raw `new`
// per node, unlinked nodes leaked.  Registered under the `-leak`
// structure names so the reclamation win is measurable in-tree.
struct LeakReclaimer {
  struct Guard {
    static constexpr bool kHazards = false;
    void protect(int, const void*) {}
  };

  template <typename T, typename... Args>
  static T* create(Args&&... args) {
    ++detail::tl_stats.allocs;
    return new T(std::forward<Args>(args)...);
  }

  template <typename T>
  static void destroy(T* p) {
    delete p;
  }

  template <typename T>
  static void retire(T*) {
    ++detail::tl_stats.retires;  // counted, then leaked (seed semantics)
  }
};

}  // namespace repro::mem
