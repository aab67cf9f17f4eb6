// Shadow-NVM mode for the simulated persistent-memory layer.
//
// In the counting modes a pmem::persist<T> store reaches its home
// location immediately, so nothing in the repo can *lose* an
// un-persisted write — a missing pwb or pfence in any structure is
// invisible to every test.  Shadow mode closes that hole: each tracked
// word keeps two values, the volatile ("cache") contents that running
// code reads and writes, and a durable shadow image that only advances
// at commit points.  The persistence instructions map onto the model
// as:
//
//   store/cas  — volatile only; the word's line becomes dirty
//   pwb        — marks the line flushable (pending) in program order
//   pfence     — commits every pending line: durable := volatile
//   psync      — same commit, plus the drain guarantee
//   crash      — discards everything not durable (see fidelity below)
//
// A simulated crash physically rewrites every dirty tracked word back
// to its durable value, so post-crash verification — recover() against
// the announcement board, durable-contents walks — runs against the
// durable image with no special read path.  uncrash() re-applies the
// saved volatile values afterwards so the structure can be verified,
// destroyed, and reclaimed normally (a real crash never runs
// destructors; the simulation must).
//
// Crash fidelity:
//   strict      — every line not committed by a pfence/psync is lost.
//                 Deterministic; what the unit tests pin down
//                 ("un-fenced writes are lost", "pwb without fence is
//                 lost").
//   adversarial — lines pwb'd but not yet fenced at the crash are
//                 individually kept or lost by the crash PRNG,
//                 modelling clwb/clflushopt write-backs completing in
//                 any order before the missing fence.  This is what
//                 gives the crash-point fuzzer teeth: eliding one
//                 pfence creates an interleaving where the commit
//                 record persists but the structural update does not,
//                 and the PRNG finds it within a few hundred crash
//                 points (see tests/test_crash_engine.cpp's mutation
//                 self-test).  Stores that were never pwb'd are always
//                 lost under both fidelities.
//
// Interaction with the PR3 pwb-coalescing window: coalescing defers
// and dedups the *execution* of write-backs, but the pwb instruction
// itself is issued at flush() time — so the shadow pending mark is
// taken there, duplicates included (marking an already-pending line is
// a no-op), and a window overflow that executes a clflush early still
// leaves the line pending until the next fence.  The deferred window
// therefore spills into the shadow log with exactly the semantics the
// coalescing contract promises: nothing is durable before the fence.
//
// Granularity is one 64-byte line (what pwb flushes), tracked as up to
// eight 8-byte words; every pmem::persist<T> cell in the tree is an
// 8-byte-aligned word inside a line-aligned host object (descriptors,
// list/queue links, pool cells).  Tracking starts when shadow mode is
// enabled: words never stored after that point keep their values
// across a crash, which models state persisted before the crash plan
// started (construction, prefill).
//
// Thread-safety: the line table is sharded and mutex-protected so
// multi-threaded shadow runs (the shadow-overhead benches) are
// race-free; pending lists are thread-local, matching pfence's
// per-thread semantics.  crash()/uncrash()/reset() are single-threaded
// operations — the fuzzer calls them with no concurrent mutators,
// exactly like a real post-mortem.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace repro::pmem::shadow {

enum class CrashFidelity { strict, adversarial };

// What one simulated crash did; the fuzzer folds these into its report.
struct CrashStats {
  std::uint64_t words_restored = 0;   // rewound to the durable image
  std::uint64_t lines_committed = 0;  // pending lines the PRNG kept
  std::uint64_t lines_dropped = 0;    // pending lines the PRNG lost
};

using LoadFn = std::uint64_t (*)(void* cell);
using StoreFn = void (*)(void* cell, std::uint64_t bits);

namespace detail {

inline constexpr std::uintptr_t kLineMask = ~std::uintptr_t{63};
inline constexpr int kShards = 16;

struct Word {
  void* cell = nullptr;
  LoadFn load = nullptr;
  StoreFn store = nullptr;
  std::uint64_t durable = 0;  // value at the last commit (or first sight)
  bool dirty = false;         // volatile differs from durable
};

struct LineRec {
  Word words[8];  // indexed by (addr >> 3) & 7
  bool pending = false;  // pwb issued since the last commit
  std::uint64_t order = 0;  // when tracking of this line began
};

struct Shard {
  std::mutex mu;
  std::unordered_map<std::uintptr_t, LineRec> lines;
};

struct Engine {
  std::atomic<bool> enabled{false};
  Shard shards[kShards];
  std::atomic<std::uint64_t> lines_seen{0};  // LineRec::order source
  // Saved volatile values of words rewound by the last crash(), so
  // uncrash() can restore the pre-crash machine state.
  std::vector<Word> undo;

  static Engine& instance() {
    static Engine e;
    return e;
  }

  Shard& shard_for(std::uintptr_t line) {
    return shards[(line >> 6) % kShards];
  }
};

// Per-thread pending lines: pwb'd since this thread's last fence.
// (pfence commits the issuing thread's own write-backs.)
struct PendingLines {
  std::vector<std::uintptr_t> lines;
};
inline PendingLines& tl_pending() {
  thread_local PendingLines p;
  return p;
}

inline void commit_line(Engine& e, std::uintptr_t line) {
  Shard& sh = e.shard_for(line);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.lines.find(line);
  if (it == sh.lines.end()) return;
  it->second.pending = false;
  for (Word& w : it->second.words) {
    if (w.cell != nullptr && w.dirty) {
      w.durable = w.load(w.cell);
      w.dirty = false;
    }
  }
}

}  // namespace detail

inline bool enabled() {
  return detail::Engine::instance().enabled.load(
      std::memory_order_relaxed);
}

// Tracked word count (tests); walks every shard, not hot-path safe.
inline std::size_t tracked_words() {
  detail::Engine& e = detail::Engine::instance();
  std::size_t n = 0;
  for (detail::Shard& sh : e.shards) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const auto& [line, rec] : sh.lines) {
      for (const detail::Word& w : rec.words) n += w.cell != nullptr;
    }
  }
  return n;
}

// Drop all tracking state (between fuzz iterations).  Does not touch
// the enabled flag.
inline void reset() {
  detail::Engine& e = detail::Engine::instance();
  for (detail::Shard& sh : e.shards) {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.lines.clear();
  }
  e.lines_seen.store(0, std::memory_order_relaxed);
  e.undo.clear();
  detail::tl_pending().lines.clear();
}

inline void set_enabled(bool on) {
  detail::Engine::instance().enabled.store(on,
                                           std::memory_order_relaxed);
}

// Called on the storing thread after each tracked store or CAS lands,
// with the cell's address.  It lets a test snapshot memory between two
// stores of one sequence, which is the state a killed process (or a
// line written back mid-sequence) can leave behind and which no crash
// at a persistence instruction can reach.  Null by default.
using StoreObserver = void (*)(void* cell);
inline StoreObserver& store_observer() {
  thread_local StoreObserver observer = nullptr;
  return observer;
}

// persist<T>::store/cas route their mutation through here: `mutate`
// runs under the word's shard lock, after the word is marked dirty.
// Logging and mutating as one critical section is what keeps a
// concurrent fence honest: commit_line takes the same lock, so it
// either sees the word clean with the old value or dirty with the new
// one — never dirty-then-cleared with the mutation still to land
// untracked.  The cell's value before the mutation becomes the word's
// durable baseline the first time shadow mode sees it.
template <typename Mutate>
auto on_store(void* cell, LoadFn load, StoreFn store, Mutate&& mutate) {
  struct Notify {  // runs after the lock below is released
    void* cell;
    ~Notify() {
      if (StoreObserver o = store_observer()) o(cell);
    }
  } notify{cell};
  detail::Engine& e = detail::Engine::instance();
  const auto addr = reinterpret_cast<std::uintptr_t>(cell);
  const std::uintptr_t line = addr & detail::kLineMask;
  detail::Shard& sh = e.shard_for(line);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto [it, fresh] = sh.lines.try_emplace(line);
  detail::LineRec& rec = it->second;
  if (fresh) {
    rec.order = e.lines_seen.fetch_add(1, std::memory_order_relaxed);
  }
  detail::Word& w = rec.words[(addr >> 3) & 7];
  if (w.cell == nullptr) {
    w.cell = cell;
    w.load = load;
    w.store = store;
    w.durable = load(cell);
  }
  w.dirty = true;
  return mutate();
}

// pwb issued for `addr`'s line (called from pmem::flush while enabled,
// coalesced or not — issuing is what marks the line flushable).  The
// line lands in the *issuing* thread's pending list even when another
// thread's pwb already marked it: on real hardware my clwb + my sfence
// makes the line durable no matter whose write-back raced mine, and a
// helper persisting a stalled thread's link (MsQueueCore's expose
// rule) relies on exactly that.  Duplicates within one thread's list
// are possible and harmless — commit_line is idempotent.
inline void on_pwb(const void* addr) {
  const std::uintptr_t line =
      reinterpret_cast<std::uintptr_t>(addr) & detail::kLineMask;
  detail::Engine& e = detail::Engine::instance();
  {
    detail::Shard& sh = e.shard_for(line);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.lines.find(line);
    if (it == sh.lines.end()) return;  // no tracked words on this line
    it->second.pending = true;
  }
  detail::tl_pending().lines.push_back(line);
}

// pfence/psync: commit this thread's pending lines.
inline void on_fence() {
  detail::PendingLines& p = detail::tl_pending();
  detail::Engine& e = detail::Engine::instance();
  for (std::uintptr_t line : p.lines) detail::commit_line(e, line);
  p.lines.clear();
}

// Simulated power failure: every tracked line reverts to its durable
// image.  Under adversarial fidelity each line still pending (pwb'd,
// unfenced) is first committed or dropped by `coin`, a PRNG callback
// returning true to keep the line; strict fidelity drops them all.
// The volatile values being overwritten are saved for uncrash().
// Single-threaded: call with no concurrent mutators.
//
// `keep_undo` supports the chained-crash scenario (crash, recover on
// the durable image, crash again mid-recovery): the machine stays
// crashed between links — uncrash() bypasses dirty-flag bookkeeping,
// so rewinding a restored machine a second time would be a no-op for
// the words it revived — and each link appends its rewinds to the
// previous link's undo log instead of replacing it.  One final
// uncrash() replays the whole log in push order, so the latest saved
// volatile value of a word rewound by several links wins.
template <typename Coin>
CrashStats crash(CrashFidelity fidelity, Coin&& coin,
                 bool keep_undo = false) {
  detail::Engine& e = detail::Engine::instance();
  CrashStats stats;
  if (!keep_undo) e.undo.clear();
  // The coin decides pending lines in the order their tracking began,
  // not in hash-table order: that order follows addresses, so a
  // {seed, crash_point} replay would keep different lines under
  // another heap layout (another build, a longer command line).
  std::vector<detail::LineRec*> pending;
  for (detail::Shard& sh : e.shards) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto& [line, rec] : sh.lines) {
      if (rec.pending) pending.push_back(&rec);
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const detail::LineRec* a, const detail::LineRec* b) {
              return a->order < b->order;
            });
  for (detail::LineRec* rec : pending) {
    rec->pending = false;
    const bool keep = fidelity == CrashFidelity::adversarial &&
                      static_cast<bool>(coin());
    if (!keep) {
      ++stats.lines_dropped;
      continue;
    }
    ++stats.lines_committed;
    for (detail::Word& w : rec->words) {
      if (w.cell != nullptr && w.dirty) {
        w.durable = w.load(w.cell);
        w.dirty = false;
      }
    }
  }
  for (detail::Shard& sh : e.shards) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto& [line, rec] : sh.lines) {
      for (detail::Word& w : rec.words) {
        if (w.cell == nullptr || !w.dirty) continue;
        detail::Word u = w;
        u.durable = w.load(w.cell);  // repurposed: pre-crash volatile
        e.undo.push_back(u);
        w.store(w.cell, w.durable);
        w.dirty = false;
        ++stats.words_restored;
      }
    }
  }
  // Pending lists of every thread are stale after a crash; ours is the
  // only live one in the single-threaded fuzz loop.
  detail::tl_pending().lines.clear();
  return stats;
}

inline CrashStats crash_strict() {
  return crash(CrashFidelity::strict, [] { return false; });
}

// Undo the last crash(): re-apply the saved volatile values so the
// structure is back in its pre-crash (fully consistent) state and can
// be torn down through the normal destructor/reclaimer path.
inline void uncrash() {
  detail::Engine& e = detail::Engine::instance();
  for (const detail::Word& u : e.undo) u.store(u.cell, u.durable);
  e.undo.clear();
}

// True if any tracked word in [p, p+bytes) is dirty — stored since the
// last commit of its line.  A pwb'd-but-unfenced word still counts: at
// a crash the adversarial coin may drop its line, so it is not durable.
// The crash-during-reclaim scenario checks this over every parked
// (retired, unreclaimed) cell: retire after commit promises a parked
// cell's lines were fenced before the cell entered any limbo/batch
// list, so a dirty word there is a violated ordering, not a race.
inline bool range_dirty(const void* p, std::size_t bytes) {
  detail::Engine& e = detail::Engine::instance();
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  for (std::uintptr_t line = base & detail::kLineMask;
       line < base + bytes; line += 64) {
    detail::Shard& sh = e.shard_for(line);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.lines.find(line);
    if (it == sh.lines.end()) continue;
    for (const detail::Word& w : it->second.words) {
      if (w.cell != nullptr && w.dirty) {
        const auto wa = reinterpret_cast<std::uintptr_t>(w.cell);
        if (wa >= base && wa < base + bytes) return true;
      }
    }
  }
  return false;
}

// Durable value of a tracked word, if shadow mode has seen it (tests).
inline bool durable_value(const void* cell, std::uint64_t& out) {
  detail::Engine& e = detail::Engine::instance();
  const auto addr = reinterpret_cast<std::uintptr_t>(cell);
  detail::Shard& sh = e.shard_for(addr & detail::kLineMask);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.lines.find(addr & detail::kLineMask);
  if (it == sh.lines.end()) return false;
  const detail::Word& w = it->second.words[(addr >> 3) & 7];
  if (w.cell == nullptr) return false;
  out = w.durable;
  return true;
}

}  // namespace repro::pmem::shadow
