// The crash-point fuzzer: the dynamic half of the crash-simulation
// engine.  One driver, any number of lanes:
//
// One iteration builds a fresh structure, prefills it, switches the
// pmem layer into shadow-NVM mode, arms a crash at a PRNG-chosen
// persistence-instruction boundary (pmem/crash.hpp), and drives
// `plan.lanes()` workers, each recorded into its own history lane
// (harness/history.hpp).  With one lane the worker runs inline on the
// calling thread and the whole iteration is a deterministic function
// of {seed, crash_point}; with more, the workers race and the crash
// lands on whichever thread issues the armed instruction — the
// power-failed latch then stops every other worker at its next tracked
// store or persistence instruction.
//
// The simulated power failure rewinds every tracked word to the
// durable image (pmem/shadow.hpp, adversarial fidelity: write-backs
// pending at the crash complete or not per the same PRNG), and one
// verdict decides the iteration (harness/linearize.hpp):
//
//   - lin::judge_lane holds every lane's recovered descriptor to the
//     lane's history: it names the last completed op that announced
//     (with exactly its response) or the pending one (same kind and
//     key); a committed pending op becomes a `must` with the
//     descriptor's response;
//   - lin::check then requires the history to linearize with a
//     durable cut equal to the walked durable contents (sets and
//     queues with a snapshot surface; a walk into never-persisted
//     memory or a cycle fails on its own).  A one-lane history has no
//     other lane to hold a link hostage, so every effectful completed
//     or committed op must lie inside the cut: the durable image is the
//     lane's completed effects plus or minus its one pending op.
//
// Scenario families (ScenarioKind) add their own adversary: chained
// crashes inside recovery, one thread's death with its slot adopted,
// a worker stalled across crash and recovery, and an erase-heavy mix
// whose parked (retired) cells must be durably clean at the crash.
//
// Determinism: everything derives from {seed, iteration}; a one-lane
// failure's {structure, seed, crash_point} triple replays bit-for-bit
// through fuzz_one().  A racing iteration does not replay its
// interleaving, so every failure also carries the recorded history
// (JSONL), which re-checks deterministically.  Reclamation is paused
// for the span of an iteration so a rewound durable link can never
// target a recycled cell; after verification the crash is undone
// (shadow::uncrash) and the structure torn down through the normal
// destructor path — a real crash never runs destructors, but a
// simulation has to.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/harness/history.hpp"
#include "repro/harness/linearize.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/mem/hp.hpp"
#include "repro/mem/pop.hpp"
#include "repro/pmem/crash.hpp"
#include "repro/pmem/persist.hpp"
#include "repro/pmem/shadow.hpp"

namespace repro::harness {

// Which adversarial crash family an iteration runs (README "Crash
// scenarios").
enum class ScenarioKind {
  single_crash,    // one full-system stop, one recovery pass
  repeated_crash,  // chained crashes landing inside recovery (K <= 4)
  thread_death,    // one thread dies; survivors race on; slot adopted
  stalled_thread,  // a worker parks across crash+recovery, resumes late
  reclaim_crash,   // erase-heavy mix; parked cells checked for durability
};

inline const char* scenario_name(ScenarioKind k) {
  switch (k) {
    case ScenarioKind::repeated_crash: return "repeated-crash";
    case ScenarioKind::thread_death: return "thread-death";
    case ScenarioKind::stalled_thread: return "stalled-thread";
    case ScenarioKind::reclaim_crash: return "reclaim-crash";
    default: return "single-crash";
  }
}

// REPRO_SCENARIO parsing (bench drivers).  Returns false on an
// unknown name, leaving `out` untouched.
inline bool scenario_from_name(const std::string& name,
                               ScenarioKind& out) {
  for (ScenarioKind k :
       {ScenarioKind::single_crash, ScenarioKind::repeated_crash,
        ScenarioKind::thread_death, ScenarioKind::stalled_thread,
        ScenarioKind::reclaim_crash}) {
    if (name == scenario_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

// The crash-schedule dimension of an ExperimentSpec: how many crash
// points to fuzz per structure, over how many lanes, and where they
// land.
struct CrashPlan {
  std::uint64_t seed = 0;  // 0 → global_seed() (REPRO_SEED)
  // Racing workers per iteration.  1 runs the deterministic inline
  // driver; thread_death and stalled_thread floor it at 2 (they need a
  // victim and a survivor).
  int threads = 1;
  int points = 0;  // fuzz iterations per structure; 0 → off
  // Horizon for the random crash-point draw, sized so most draws land
  // inside the workload's persistence-instruction stream.
  // 0 → 192 for one lane, 160 for racing lanes.
  std::uint64_t max_events = 0;
  ScenarioKind scenario = ScenarioKind::single_crash;
  // repeated_crash: maximum chained crashes after the first (clamped to
  // [1, 3], so one iteration sees at most 4 power failures).  Each
  // chain point is derived from {iter_seed, crash_point, depth}, so a
  // {seed, crash_point} pair replays the whole chain bit-for-bit;
  // `replay_chain` overrides the derivation with explicit points (the
  // reproducer's crash_chain field).
  int chain_depth = 3;
  std::vector<std::uint64_t> replay_chain;

  std::uint64_t effective_seed() const {
    return seed != 0 ? seed : global_seed();
  }
  int lanes() const {
    const bool needs_bystander =
        scenario == ScenarioKind::thread_death ||
        scenario == ScenarioKind::stalled_thread;
    return std::clamp(needs_bystander ? std::max(threads, 2) : threads,
                      1, 64);
  }
  // Operations per lane: 256 for one lane, 10 per racing lane.
  int lane_ops() const { return lanes() == 1 ? 256 : 10; }
  std::uint64_t horizon() const {
    return max_events > 0 ? max_events : lanes() == 1 ? 192 : 160;
  }
};

// One confirmed violation, with everything needed to replay it (the CI
// artifact's payload).  `seed` is the per-iteration seed for a
// fuzz_one() replay; `base_seed` is the run's plan seed —
// REPRO_SEED=<base_seed> re-runs the whole failing point, reaching the
// same iteration.
struct FuzzFailure {
  std::string structure;
  std::uint64_t seed = 0;         // iteration seed fed to fuzz_one
  std::uint64_t base_seed = 0;    // the run's CrashPlan seed
  std::uint64_t crash_point = 0;  // persistence-instruction index
  int threads = 0;                // lanes the iteration ran
  int iteration = -1;
  std::string what;
  // The metadata line (with, for repeated_crash, the chained crash
  // points that had fired before the violation, in order) followed by
  // the recorded events.
  std::string history_jsonl;
};

// Aggregate over one structure's fuzz run.
struct FuzzReport {
  int points = 0;   // iterations executed
  int crashes = 0;  // iterations where the crash (or a death) fired
  // repeated_crash: crashes that landed inside a recovery pass, on top
  // of `crashes` (which keeps its one-per-iteration meaning).
  int chain_crashes = 0;
  int violations = 0;  // failed checks (0 == pass)
  int undecided = 0;   // checker state-budget exhaustions (not failures)
  std::uint64_t total_ops = 0;       // completed ops across iterations
  std::uint64_t checker_states = 0;  // DFS nodes across iterations
  double recovery_us_total = 0;
  std::vector<FuzzFailure> failures;  // first few, for the reproducer
};

namespace fuzz_detail {

inline constexpr std::int64_t kKeyRange = 24;
inline constexpr std::uint64_t kCheckerStates = 4'000'000;

// The recovery pass itself (AnnouncementBoard::recover) is pure loads,
// so a crash re-armed "inside recovery" would have no persistence
// instruction to land on.  Real recovery procedures checkpoint what
// they computed, and that consolidation write is exactly where the
// repeated-crash adversary aims: after every recovery pass the driver
// persists a {seq, valid} pair on two separate cache lines with the
// ordered protocol
//
//   seq := epoch;   pwb(seq);   pfence;        <- the ordering fence
//   valid := epoch; pwb(valid); pfence;
//
// whose invariant — valid durable at epoch e implies seq durable at e —
// is checked after each chained crash.  REPRO_MUTATE_DROP_RECOVERY_FENCE
// elides the first pfence, leaving both lines pending at the second
// fence; an adversarial crash there can commit valid while dropping
// seq, the classic recovery-path ordering bug this family exists to
// catch (the repeated-crash mutation self-test pins the detection
// budget).
struct RecoverySeal {
  struct alignas(64) Cell {
    pmem::persist<std::uint64_t> v;
  };
  Cell seq;
  Cell valid;

  // Persistence instructions one write() issues: 4 unmutated, 3 with
  // the fence dropped.  Chain points are drawn from [1, kSealWindow];
  // a point past the seal's instruction stream simply lets the seal
  // complete and ends the chain.
  static constexpr std::uint64_t kSealWindow = 5;

  void write(std::uint64_t epoch) {
    seq.v.store(epoch);
    pmem::flush(&seq.v);
#if !defined(REPRO_MUTATE_DROP_RECOVERY_FENCE)
    pmem::fence();
#endif
    valid.v.store(epoch);
    pmem::flush(&valid.v);
    pmem::fence();
  }

  // Post-crash invariant over the (physically rewound) durable values.
  bool durable_consistent() const {
    const std::uint64_t s = seq.v.load();
    const std::uint64_t ok = valid.v.load();
    return ok == 0 || s >= ok;
  }
};

inline lin::Semantics semantics_of(Kind k) {
  switch (k) {
    case Kind::set: return lin::Semantics::set;
    case Kind::queue: return lin::Semantics::queue;
    case Kind::stack: return lin::Semantics::stack;
    case Kind::exchanger: return lin::Semantics::exchanger;
  }
  return lin::Semantics::set;
}

// Prefill before shadow tracking starts: its state is durable by
// construction.  Sets draw each key of [1, kKeyRange] with a coin;
// queues and stacks take 1..n.
inline void prefill(Structure& s, Kind kind, Rng& rng, std::uint64_t n,
                    lin::Spec& spec) {
  if (kind == Kind::set) {
    for (std::int64_t k = 1; k <= kKeyRange; ++k) {
      if (rng.below(2) == 0 && static_cast<SetIface&>(s).insert(k)) {
        spec.initial_keys.push_back(k);
      }
    }
  } else if (kind == Kind::queue || kind == Kind::stack) {
    for (std::uint64_t v = 1; v <= n; ++v) {
      if (kind == Kind::queue) {
        static_cast<QueueIface&>(s).enqueue(v);
      } else {
        static_cast<StackIface&>(s).push(v);
      }
      spec.initial_values.push_back(v);
    }
  }
}

// One lane's workload, written once for every kind: `ops` operations
// drawn from `rng`.  A one-lane run draws its values from `rng` too
// (the corpus's {seed, crash_point} triples pin that draw order);
// racing lanes offer unique values ((lane+1)*100 + op, above the
// prefill range) so FIFO/LIFO order violations — and the zero/stale
// payloads a dropped pre_publish leaves durable — cannot alias a
// legitimate value.
inline void drive_lane(Structure& s, Kind kind, LaneRecorder rec,
                       Rng& rng, int lane, int ops, bool one_lane,
                       ScenarioKind scenario) {
  auto unique = [lane](int o) {
    return static_cast<std::uint64_t>((lane + 1) * 100 + o);
  };
  for (int o = 0; o < ops; ++o) {
    if (pmem::crash::crashed()) break;
    if (kind == Kind::set) {
      auto& set = static_cast<SetIface&>(s);
      const auto key = static_cast<std::int64_t>(
          1 + rng.below(static_cast<std::uint64_t>(kKeyRange)));
      const std::uint64_t dice = rng.below(10);
      // Erase-biased under reclaim_crash: each successful erase retires
      // a node, so the armed crash point lands between an unlink and
      // its commit, or among fresh retirements, far more often.
      const bool reclaim = scenario == ScenarioKind::reclaim_crash;
      const ds::OpKind k = dice < (reclaim ? 3u : 4u) ? ds::OpKind::insert
                           : dice < (reclaim ? 9u : 8u) ? ds::OpKind::erase
                                                        : ds::OpKind::find;
      rec(k, key, [&](std::uint64_t& r) {
        r = k == ds::OpKind::insert  ? set.insert(key)
            : k == ds::OpKind::erase ? set.erase(key)
                                     : set.find(key);
        return r != 0;
      });
    } else if (kind == Kind::queue || kind == Kind::stack) {
      const bool is_queue = kind == Kind::queue;
      if (rng.below(2) == 0) {
        const std::uint64_t v = one_lane ? 1 + (rng.next() >> 1) : unique(o);
        rec(is_queue ? ds::OpKind::enqueue : ds::OpKind::push,
            static_cast<std::int64_t>(v), [&](std::uint64_t& r) {
              if (is_queue) {
                static_cast<QueueIface&>(s).enqueue(v);
              } else {
                static_cast<StackIface&>(s).push(v);
              }
              r = v;
              return true;
            });
      } else {
        rec(is_queue ? ds::OpKind::dequeue : ds::OpKind::pop, 0,
            [&](std::uint64_t& r) {
              return is_queue ? static_cast<QueueIface&>(s).dequeue(r)
                              : static_cast<StackIface&>(s).pop(r);
            });
      }
    } else {
      // A lone lane's exchange is unpaired and times out quickly.
      const std::uint64_t v = one_lane ? rng.next() >> 1 : unique(o);
      rec(ds::OpKind::exchange, static_cast<std::int64_t>(v),
          [&](std::uint64_t& r) {
            return static_cast<ExchangerIface&>(s).exchange(
                v, one_lane ? 2 : 24, r);
          });
    }
  }
}

}  // namespace fuzz_detail

// Runs one fuzz iteration.  `crash_point` of 0 lets the iteration's own
// PRNG draw it (as fuzz_structure does); a non-zero value replays an
// exact reported failure.  Appends to `report`.
inline void fuzz_one(const AlgoEntry& algo, const CrashPlan& plan,
                     std::uint64_t iter_seed, std::uint64_t crash_point,
                     int iteration, FuzzReport& report) {
  namespace shadow = pmem::shadow;
  using fuzz_detail::kCheckerStates;

  Rng rng(iter_seed);
  // The crash-point draw is consumed unconditionally so that replaying
  // a reported failure with an explicit crash_point leaves the Rng in
  // the same state as the original iteration — otherwise every
  // subsequent prefill/op draw would shift by one and the replayed
  // workload would differ.
  const std::uint64_t drawn = 1 + rng.below(plan.horizon());
  if (crash_point == 0) crash_point = drawn;

  ++report.points;
  // Retired cells must stay intact until the durable image has been
  // verified (a rewound link may point at them); the braces end the
  // pause before the final quiesce() so the iteration's limbo actually
  // drains.
  {
  mem::ReclaimPause pause;
  auto holder = algo.make();
  Structure* s = holder.get();
  const bool is_set = algo.kind == Kind::set;
  const int nlanes = plan.lanes();
  const bool one_lane = nlanes == 1;
  const int lane_ops = plan.lane_ops();
  // The durable-image walk vouches for pointers by checking them
  // against the pool slab directory; the no-reclaim ablations allocate
  // with raw `new` outside any pool, so they are verified at the
  // descriptor and linearizability level only.
  const bool contents_checked =
      s->has_snapshot() && (is_set || algo.kind == Kind::queue) &&
      !algo.has_trait("no-reclaim");

  lin::Spec spec;
  spec.kind = fuzz_detail::semantics_of(algo.kind);
  spec.max_states = kCheckerStates;
  fuzz_detail::prefill(*s, algo.kind, rng, one_lane ? 8 : 6, spec);

  struct alignas(64) LaneState {
    int slot = -1;
    ds::Recovered base;    // descriptor before the lane's first op
    bool unwound = false;  // left via CrashUnwind
  };
  std::vector<LaneState> lanes(static_cast<std::size_t>(nlanes));
  HistoryRecorder rec(nlanes, static_cast<std::size_t>(lane_ops));
  auto run_lane = [&](int t, Rng& r) {
    LaneState& l = lanes[static_cast<std::size_t>(t)];
    l.slot = ds::thread_slot();
    // Own-slot descriptor reads are race-free: only this thread writes
    // it.
    l.base = s->recover(l.slot);
    try {
      fuzz_detail::drive_lane(*s, algo.kind,
                              LaneRecorder(rec, t, *s, l.slot), r, t,
                              lane_ops, one_lane, plan.scenario);
    } catch (const pmem::crash::CrashUnwind&) {
      // The lane's last invoke stays dangling: pending at the crash (or
      // at this thread's own death in latch mode).
      l.unwound = true;
    }
  };

  // Chained crash points that have fired so far this iteration
  // (repeated_crash); recorded into any failure as its crash_chain.
  std::vector<std::uint64_t> chain_points;
  auto fail = [&](const std::string& what) {
    ++report.violations;
    if (report.failures.size() >= 8) return;
    FuzzFailure f;
    f.structure = algo.name;
    f.seed = iter_seed;
    f.base_seed = plan.effective_seed();
    f.crash_point = crash_point;
    f.threads = nlanes;
    f.iteration = iteration;
    f.what = what;
    std::string meta = "{\"structure\":\"" + algo.name +
                       "\",\"seed\":" + std::to_string(iter_seed) +
                       ",\"base_seed\":" +
                       std::to_string(f.base_seed) +
                       ",\"crash_point\":" + std::to_string(crash_point) +
                       ",\"threads\":" + std::to_string(nlanes) +
                       ",\"iteration\":" + std::to_string(iteration);
    if (!chain_points.empty()) {
      meta += ",\"crash_chain\":[";
      for (std::size_t i = 0; i < chain_points.size(); ++i) {
        meta += (i == 0 ? "" : ",") + std::to_string(chain_points[i]);
      }
      meta += "]";
    }
    // The prefilled contents, so the dumped history re-checks alone.
    meta += ",\"initial\":[";
    const std::size_t n_init = is_set ? spec.initial_keys.size()
                                      : spec.initial_values.size();
    for (std::size_t i = 0; i < n_init; ++i) {
      meta += (i == 0 ? "" : ",") +
              (is_set ? std::to_string(spec.initial_keys[i])
                      : std::to_string(spec.initial_values[i]));
    }
    meta += "],\"scenario\":\"" +
            std::string(scenario_name(plan.scenario)) +
            "\",\"what\":\"" + what + "\"}\n";
    f.history_jsonl = meta + rec.to_jsonl();
    report.failures.push_back(std::move(f));
  };
  double recovery_us = 0;
  auto recover = [&](int slot) {
    const auto t0 = std::chrono::steady_clock::now();
    const ds::Recovered d = s->recover(slot);
    recovery_us += std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    return d;
  };

  bool crashed = false;
  bool parked = false;  // stalled_thread: a worker is parked on the gate
  {
    pmem::ModeGuard mode(pmem::Mode::shadow);
    shadow::reset();
    if (plan.scenario == ScenarioKind::thread_death) {
      pmem::crash::set_thread_latch(true);
    }
    if (plan.scenario == ScenarioKind::stalled_thread) {
      // Stall strictly before the crash so the parked worker spans the
      // failure: both countdowns drain on the same instruction stream,
      // and the parked thread stops consuming instructions, so the
      // crash lands on a survivor.
      const std::uint64_t stall_point =
          1 + rng.below(std::max<std::uint64_t>(1, plan.horizon() / 2));
      if (crash_point <= stall_point) {
        crash_point = stall_point + 1 + (crash_point % 8);
      }
      pmem::crash::arm_stall(stall_point);
    }
    pmem::crash::arm(crash_point);
    // Quiescence: every worker finished — or, in the stalled
    // scenario, everyone except the parked worker.  The parked thread
    // sits inside on_instruction's gate spin, before the
    // instruction's effect, holding no shard locks — so crash rewind
    // and verification can run around it; its join is deferred until
    // after release.
    std::atomic<int> finished{0};
    auto quiescent = [&] {
      const int n = finished.load(std::memory_order_acquire);
      return n == nlanes ||
             (n == nlanes - 1 && pmem::crash::stall_hit());
    };
    std::vector<std::thread> workers;
    if (one_lane) {
      run_lane(0, rng);
    } else {
      workers.reserve(static_cast<std::size_t>(nlanes));
      for (int t = 0; t < nlanes; ++t) {
        workers.emplace_back([&, t] {
          Rng wrng(mix_seed(iter_seed,
                            0x777u + static_cast<std::uint64_t>(t)));
          run_lane(t, wrng);
          finished.fetch_add(1, std::memory_order_release);
          // Hold the slot until every lane is done: slots recycle when
          // a thread exits, and a lane that finished early must not
          // hand its descriptor to a lane that starts late.
          while (!quiescent()) std::this_thread::yield();
        });
      }
      if (plan.scenario == ScenarioKind::stalled_thread) {
        while (!quiescent()) std::this_thread::yield();
        parked = finished.load(std::memory_order_acquire) < nlanes;
      }
      if (!parked) {
        for (std::thread& th : workers) th.join();
      }
    }
    crashed = pmem::crash::crashed();
    pmem::crash::disarm();

    // Crash-during-reclaim invariant, checked against the *pre-rewind*
    // tracking state (dirty flags are consumed by shadow::crash): every
    // parked cell — retired into any scheme's limbo/batch under the
    // iteration's ReclaimPause — must be durably equal to its volatile
    // contents.  Retire after commit (ds::RetireAfterCommit: the
    // policy pwbs the node at the unlink, the commit's fence orders
    // it, only then does the reclaimer see it) guarantees it; the
    // REPRO_MUTATE_DROP_RETIRE_PERSIST build retires at the unlink
    // without the pwb and must be caught here (a retired-but-dirty
    // cell means a rewound durable link could reach a torn image).
    if (crashed && plan.scenario == ScenarioKind::reclaim_crash) {
      struct ParkedScan {
        std::size_t parked = 0;
        std::size_t dirty = 0;
      } pscan;
      mem::for_each_parked_cell(
          &pscan, [](void* ctx, const void* cell, std::size_t bytes) {
            auto* d = static_cast<ParkedScan*>(ctx);
            ++d->parked;
            if (pmem::shadow::range_dirty(cell, bytes)) ++d->dirty;
          });
      if (pscan.dirty != 0) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "%zu of %zu parked cells hold unpersisted "
                      "stores at crash (retire after commit)",
                      pscan.dirty, pscan.parked);
        fail(buf);
      }
    }

    std::vector<lin::Op> ops = lin::ops_from_history(rec);
    // Per-thread death: the machine never lost power — the latch-mode
    // countdown killed exactly one worker mid-op while the survivors
    // raced to completion on the live structure.  A fresh thread adopts
    // the dead lane's slot and runs recover() against it; the volatile
    // state is the ground truth, so there is no durable cut.
    int dead_lane = -1;
    if (plan.scenario == ScenarioKind::thread_death) {
      for (int t = 0; t < nlanes; ++t) {
        if (lanes[static_cast<std::size_t>(t)].unwound) dead_lane = t;
      }
    }
    if (crashed) {
      ++report.crashes;
      rec.mark_crash();
      // Power failure: rewind to the durable image.
      Rng coin_rng(mix_seed(iter_seed, crash_point));
      shadow::crash(pmem::shadow::CrashFidelity::adversarial,
                    [&coin_rng] { return coin_rng.below(2) == 0; });
    } else if (dead_lane >= 0) {
      ++report.crashes;  // the adversary fired
      // The dead worker's thread-exit cleanup already cleared its epoch
      // pin; reset_slot_pin makes the harness's "this lane is dead"
      // claim explicit before the slot is adopted.
      const int slot = lanes[static_cast<std::size_t>(dead_lane)].slot;
      mem::EpochDomain::instance().reset_slot_pin(slot);
      mem::PopDomain::instance().reset_slot_pin(slot);
    }

    // The per-lane descriptor judgement, which also turns each
    // committed pending op into a `must`.
    std::vector<ds::Recovered> recovered(static_cast<std::size_t>(nlanes));
    std::string lane_diag;
    if (crashed || dead_lane >= 0) {
      for (int t = 0; t < nlanes; ++t) {
        const LaneState& l = lanes[static_cast<std::size_t>(t)];
        if (l.slot < 0) continue;
        ds::Recovered& d = recovered[static_cast<std::size_t>(t)];
        if (t == dead_lane) {
          std::thread adopter([&] { d = recover(l.slot); });
          adopter.join();
        } else {
          d = recover(l.slot);
        }
        const std::string v = lin::judge_lane(ops, t, l.base, d);
        if (!v.empty()) fail(v);
        for (const lin::Op& op : ops) {
          if (op.lane != t || op.response_ts != lin::kNever) continue;
          char diag[128];
          std::snprintf(diag, sizeof(diag),
                        "; lane %d pending %s(%lld) verdict=%s ok=%d "
                        "result=%llu",
                        t, op_kind_name(op.kind),
                        static_cast<long long>(op.input),
                        op.pending == lin::Pending::must ? "must" : "may",
                        op.ok ? 1 : 0,
                        static_cast<unsigned long long>(op.result));
          lane_diag += diag;
        }
      }
      report.recovery_us_total += recovery_us;
    }

    // Durable contents, walked while the structure physically holds the
    // durable image.
    bool walk_failed = false;
    if (crashed && contents_checked) {
      if (is_set ? s->snapshot_keys(spec.durable_keys)
                 : s->snapshot_values(spec.durable_values)) {
        // Stalled-thread + set: the parked worker can hold an unfenced
        // incoming link across the whole window, so later completed
        // inserts build durably on top of it and the durable image
        // need not be a prefix of any linearization — the cross-thread
        // hostage window (linearize.hpp) held open for the stall's full
        // duration.  The walk integrity check and the linearization
        // itself still run; only the prefix-cut constraint is waived.
        // Queues/stacks keep it: persist-link-before-publish closes the
        // window.
        spec.check_durable =
            !(plan.scenario == ScenarioKind::stalled_thread && is_set);
        // With one lane no other thread can hold a link hostage.
        spec.pin_effects = one_lane;
      } else {
        walk_failed = true;
        fail("durable image walk failed: link into never-persisted "
             "memory or a cycle");
      }
    }

    // A one-lane run the crash never reached is a plain sequential run
    // with nothing to recover; racing lanes are still checked for
    // plain linearizability.
    if (!walk_failed && (crashed || !one_lane)) {
      const lin::Result res = lin::check(ops, spec);
      report.checker_states += res.states;
      if (res.verdict == lin::Verdict::violation) {
        // The walked durable image is part of the verdict's input;
        // carry it in the diagnostic so a dumped failure is
        // self-contained.
        std::string what = res.what;
        if (spec.check_durable) {
          what += "; durable image = [";
          if (is_set) {
            for (std::int64_t k : spec.durable_keys) {
              what += " " + std::to_string(k);
            }
          } else {
            for (std::uint64_t v : spec.durable_values) {
              what += " " + std::to_string(v);
            }
          }
          what += " ]";
        }
        fail(what + lane_diag);
      } else if (res.verdict == lin::Verdict::budget_exhausted) {
        ++report.undecided;
      }
    }
    for (const lin::Op& op : ops) {
      report.total_ops += op.response_ts != lin::kNever;
    }

    // Repeated-crash scenario: the adversary crashes again inside the
    // recovery pass — at the RecoverySeal consolidation write — up to
    // chain_depth times, re-recovering after each and holding recovery
    // to idempotence.  The machine stays crashed between links (each
    // shadow::crash keeps the accumulated undo log); the single
    // uncrash() below restores the whole pre-crash state.
    if (crashed && plan.scenario == ScenarioKind::repeated_crash) {
      fuzz_detail::RecoverySeal seal;
      const int depth_cap = std::clamp(plan.chain_depth, 1, 3);
      for (int depth = 0; depth < depth_cap; ++depth) {
        const auto du = static_cast<std::uint64_t>(depth);
        const std::uint64_t chain_point =
            static_cast<std::size_t>(depth) < plan.replay_chain.size()
                ? plan.replay_chain[static_cast<std::size_t>(depth)]
                : 1 + mix_seed(mix_seed(iter_seed, crash_point), du) %
                          fuzz_detail::RecoverySeal::kSealWindow;
        pmem::crash::arm(chain_point);
        bool chained = false;
        try {
          seal.write(du + 1);
        } catch (const pmem::crash::CrashUnwind&) {
          chained = true;
        }
        pmem::crash::disarm();
        if (!chained) break;  // seal completed; the chain ends here
        ++report.chain_crashes;
        chain_points.push_back(chain_point);
        Rng chain_coin(mix_seed(mix_seed(iter_seed, crash_point),
                                0x5EA1'0000ull + du));
        shadow::crash(
            pmem::shadow::CrashFidelity::adversarial,
            [&chain_coin] { return chain_coin.below(2) == 0; },
            /*keep_undo=*/true);
        if (!seal.durable_consistent()) {
          fail("recovery seal ordering violated: valid durable "
               "without its seq (crash inside recover())");
        }
        // Idempotence: the K-th recovery pass must return the verdict
        // the first one did — the chained crash could only have touched
        // the seal's own lines.
        recovery_us = 0;
        for (int t = 0; t < nlanes; ++t) {
          const LaneState& l = lanes[static_cast<std::size_t>(t)];
          if (l.slot < 0) continue;
          const ds::Recovered again = recover(l.slot);
          ds::Recovered& prev = recovered[static_cast<std::size_t>(t)];
          if (again.seq != prev.seq || again.completed != prev.completed ||
              again.kind != prev.kind || again.key != prev.key ||
              again.ok != prev.ok || again.result != prev.result) {
            fail("recovery is not idempotent across a crash inside "
                 "recover()");
          }
          prev = again;
        }
        report.recovery_us_total += recovery_us;
        // Nor can the structure's durable contents have moved.
        if (contents_checked && !walk_failed) {
          std::vector<std::int64_t> keys_again;
          std::vector<std::uint64_t> values_again;
          const bool rewalk_ok = is_set ? s->snapshot_keys(keys_again)
                                        : s->snapshot_values(values_again);
          if (!rewalk_ok || (is_set ? keys_again != spec.durable_keys
                                    : values_again != spec.durable_values)) {
            fail("chained recovery mutated the durable contents");
          }
        }
      }
    }

    // Back to the pre-crash machine state so teardown and reclamation
    // run on consistent memory.
    if (crashed) shadow::uncrash();

    if (parked) {
      // Power is back (uncrash restored the volatile image) and the
      // plan is disarmed: release the parked worker.  It finishes the
      // op it was parked inside — its late stores land on the restored
      // state — and runs the rest of its budget as ordinary ops.
      pmem::crash::release_stall();
      for (std::thread& th : workers) th.join();
      pmem::crash::disarm_stall();

      std::vector<lin::Op> ops_post = lin::ops_from_history(rec);
      // The resumed response must agree with any `must` verdict the
      // durable descriptor issued while the thread was parked: a
      // committed-at-crash op cannot come back claiming a different
      // outcome.
      for (const lin::Op& before : ops) {
        if (before.response_ts != lin::kNever ||
            before.pending != lin::Pending::must) {
          continue;
        }
        for (const lin::Op& after : ops_post) {
          if (after.lane == before.lane && after.id == before.id &&
              after.response_ts != lin::kNever &&
              (after.ok != before.ok || after.result != before.result)) {
            fail("stalled thread resumed with a response disagreeing "
                 "with its durable must-verdict");
          }
        }
      }
      // And the full post-resume history must still linearize (no
      // durable cut: the machine is back on) — the staller's late
      // stores must not have corrupted the recovered state.
      lin::Spec post_spec;
      post_spec.kind = spec.kind;
      post_spec.initial_keys = spec.initial_keys;
      post_spec.initial_values = spec.initial_values;
      post_spec.max_states = kCheckerStates;
      const lin::Result post_res = lin::check(ops_post, post_spec);
      report.checker_states += post_res.states;
      if (post_res.verdict == lin::Verdict::violation) {
        fail("post-resume history fails to linearize: " + post_res.what +
             lane_diag);
      } else if (post_res.verdict == lin::Verdict::budget_exhausted) {
        ++report.undecided;
      }
    }
    shadow::reset();
  }
  holder.reset();
  }  // ReclaimPause ends here
  mem::EpochDomain::instance().quiesce();
  mem::PopDomain::instance().quiesce();
  mem::HpDomain::instance().quiesce();
}

// Appends the failing reproducers — per failure, one metadata line
// ({structure, seed, base_seed, crash_point, threads, iteration,
// [crash_chain,] scenario, what}) followed by the recorded history as
// JSON lines — to `path`.  Replay a one-lane failure bit-for-bit with
// fuzz_one(algo, plan, seed, crash_point, ...) (or the whole point with
// REPRO_SEED=<base_seed>); re-check any failure's history through
// parse_history_jsonl → lin::ops_from_events → lin::check
// (tests/test_corpus.cpp).  The first write of a process truncates the
// file; later failing structures in the same run append.
inline void write_reproducer(const FuzzReport& report,
                             const std::string& path) {
  static bool truncated_once = false;
  std::FILE* f = std::fopen(path.c_str(), truncated_once ? "a" : "w");
  if (f == nullptr) return;
  truncated_once = true;
  for (const FuzzFailure& x : report.failures) {
    std::fwrite(x.history_jsonl.data(), 1, x.history_jsonl.size(), f);
  }
  std::fclose(f);
}

// Fuzzes one structure across plan.points crash points.  The one-lane
// and racing families salt their seed streams apart, so running both
// off one REPRO_SEED explores different workloads.  Failing runs write
// their reproducers to REPRO_HISTORY_DUMP when it is set, from any
// caller — bench or unit test — and otherwise to `fallback_dump`:
// none by default, so a unit test that is meant to fail (a mutation
// self-test) leaves no file behind; the bench binaries pass
// crash_history.jsonl, the CI artifact.
inline FuzzReport fuzz_structure(const AlgoEntry& algo,
                                 const CrashPlan& plan,
                                 const char* fallback_dump = nullptr) {
  FuzzReport report;
  const std::uint64_t base = plan.effective_seed();
  const std::uint64_t salt = plan.lanes() == 1 ? 0 : 0xC0C0'0000ull;
  for (int i = 0; i < plan.points; ++i) {
    fuzz_one(algo, plan,
             mix_seed(base, salt + static_cast<std::uint64_t>(i)), 0, i,
             report);
  }
  const char* path = std::getenv("REPRO_HISTORY_DUMP");
  if (path == nullptr || path[0] == '\0') path = fallback_dump;
  if (!report.failures.empty() && path != nullptr) {
    write_reproducer(report, path);
  }
  return report;
}

}  // namespace repro::harness
