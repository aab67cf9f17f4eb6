// The experiment engine: a declarative ExperimentSpec names a figure's
// grid — structures (registry names, globs, or trait selectors), key
// ranges, operation mixes, thread series, pmem modes, key distribution,
// and an optional crash schedule — and the driver expands it, runs each
// point through run_threads, and emits self-contained rows to the
// configured ResultSinks.  A figure binary is therefore a spec literal
// plus one experiment_main() call (bench/bench_common.hpp); nothing
// re-implements the grid by hand.
//
// Crash-recovery scenario (crash_after_ms > 0): workers run the normal
// workload; at the crash point the run stops, modelling a cache-erasing
// crash with one operation in flight per thread (announced in the
// thread's program state, never applied to the structure — in this
// simulation every completed store already reached its DRAM-backed home
// location, which is exactly the paper's persistency model after the
// flush/fence placement the policies issue).  The driver then replays
// every thread's AnnouncementBoard::recover() and verifies
// detectability: the last completed operation must be reported
// completed-with-response (kind, key, ok, and result all matching what
// the thread observed), and the in-flight operation must be reported
// not-applied (the descriptor still shows the previous sequence
// number).  The recover()-replay wall time is reported as recovery
// latency.
//
// Scope of the model: the crash lands at an operation boundary, so the
// in-flight operation was never announced on the *board* — the
// not-applied verdict here checks that completed operations leave
// exactly one trace (a descriptor that over-counted seq would fail
// it).  The announced-but-uncommitted descriptor state (a crash
// between announce and commit) cannot be produced through the
// type-erased structure API; that half of the protocol is pinned at
// the descriptor level by test_detectable's
// UncommittedOpReportsIncomplete.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "repro/harness/crashfuzz.hpp"
#include "repro/harness/registry.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/sinks.hpp"
#include "repro/harness/workload.hpp"
#include "repro/pmem/persist.hpp"

namespace repro::harness {

inline const char* mode_name(pmem::Mode m) {
  switch (m) {
    case pmem::Mode::shared_cache: return "shared_cache";
    case pmem::Mode::private_cache: return "private_cache";
    case pmem::Mode::count_only: return "count_only";
    case pmem::Mode::shadow: return "shadow";
    case pmem::Mode::mmap: return "mmap";
  }
  return "?";
}

// The paper's thread series: 1..max_threads() in powers of two.
inline std::vector<int> thread_series() {
  std::vector<int> s;
  for (int t = 1; t <= max_threads(); t *= 2) s.push_back(t);
  return s;
}

// Declarative description of one figure's grid.
struct ExperimentSpec {
  std::string figure;  // row prefix / benchmark name prefix ("fig1a")
  std::string what;    // header line shown by the table sink
  // Registry selectors: exact names, globs ("Isb*"), or "trait:..."
  std::vector<std::string> structures;
  // Set-kind axes (ignored by queues/stacks/exchangers).
  std::vector<std::int64_t> key_ranges = {};  // empty → {500}
  std::vector<Mix> mixes = {};                // empty → {kReadIntensive}
  std::vector<int> threads = {};              // empty → thread_series()
  std::vector<pmem::Mode> modes = {pmem::Mode::shared_cache};
  KeyDist dist = KeyDist::uniform;
  double zipf_theta = 0.99;
  int prefill_pct = -1;          // < 0 → REPRO_PREFILL_PCT / 40
  std::size_t queue_prefill = 0;  // 0 → REPRO_QUEUE_PREFILL / 100000
  int crash_after_ms = 0;  // > 0 → crash-recovery scenario points
  // Crash-point fuzzing (crashfuzz.hpp): crash_plan.points > 0 turns
  // every selected trait:detectable structure into one shadow-NVM fuzz
  // point of crash_plan.lanes() racing workers.  Mutually exclusive
  // with crash_after_ms.
  CrashPlan crash_plan;

  bool is_crash_fuzz() const { return crash_plan.points > 0; }
};

// One expanded grid point.
struct Point {
  const AlgoEntry* algo = nullptr;
  pmem::Mode mode = pmem::Mode::shared_cache;
  std::int64_t key_range = 0;  // set kind only
  Mix mix{"", 0, 0, 100};      // valid iff has_mix
  bool has_mix = false;
  int threads = 1;
};

namespace detail {
inline std::atomic<int>& spec_error_cell() {
  static std::atomic<int> c{0};
  return c;
}
}  // namespace detail

// Spec configuration errors observed so far (selectors matching no
// registered structure); experiment_main turns a non-zero count into a
// failing exit code so a typo'd series name cannot "pass" a smoke run
// while silently measuring nothing.
inline int spec_errors() {
  return detail::spec_error_cell().load(std::memory_order_relaxed);
}

// The structures a spec actually runs: selector matches, minus the
// entries a crash schedule cannot model (crash scenarios require the
// announcement-board recovery protocol on sets/queues).  Unmatched
// selectors are diagnosed here and counted as spec errors; pass
// diagnose=false when re-querying a spec that expand() already checked.
inline std::vector<const AlgoEntry*> selected_structures(
    const ExperimentSpec& spec, bool diagnose = true) {
  const Registry& reg = Registry::instance();
  if (diagnose) {
    for (const std::string& sel : spec.structures) {
      if (reg.select(sel).empty()) {
        std::fprintf(stderr,
                     "repro: spec %s: selector '%s' matches no "
                     "registered structure\n",
                     spec.figure.c_str(), sel.c_str());
        detail::spec_error_cell().fetch_add(1,
                                            std::memory_order_relaxed);
      }
    }
  }
  std::vector<const AlgoEntry*> out;
  for (const AlgoEntry* algo : reg.select_all(spec.structures)) {
    if (spec.crash_after_ms > 0 &&
        (!algo->has_trait("detectable") ||
         (algo->kind != Kind::set && algo->kind != Kind::queue))) {
      continue;
    }
    // The fuzzers cover every kind, but only structures speaking the
    // announcement-board protocol can be verified.
    if (spec.is_crash_fuzz() && !algo->has_trait("detectable")) {
      continue;
    }
    out.push_back(algo);
  }
  return out;
}

// Expands the spec's grid.  Exchanger points need pairs, so thread
// counts below 2 are dropped for that kind.
inline std::vector<Point> expand(const ExperimentSpec& spec) {
  std::vector<Point> points;
  const std::vector<int> threads =
      spec.threads.empty() ? thread_series() : spec.threads;
  const std::vector<std::int64_t> ranges =
      spec.key_ranges.empty() ? std::vector<std::int64_t>{500}
                              : spec.key_ranges;
  const std::vector<Mix> mixes =
      spec.mixes.empty() ? std::vector<Mix>{kReadIntensive} : spec.mixes;

  const std::vector<const AlgoEntry*> algos = selected_structures(spec);

  // Crash-point fuzzing drives its own pmem mode (shadow) and
  // workload: exactly one point per structure, at the fuzzer's lane
  // count.
  if (spec.is_crash_fuzz()) {
    for (const AlgoEntry* algo : algos) {
      Point p;
      p.algo = algo;
      p.mode = pmem::Mode::shadow;
      p.threads = spec.crash_plan.lanes();
      points.push_back(p);
    }
    return points;
  }

  for (pmem::Mode mode : spec.modes) {
    for (const AlgoEntry* algo : algos) {
      if (algo->kind == Kind::set) {
        for (std::int64_t range : ranges) {
          for (const Mix& mix : mixes) {
            for (int t : threads) {
              points.push_back({algo, mode, range, mix, true, t});
            }
          }
        }
      } else {
        for (int t : threads) {
          if (algo->kind == Kind::exchanger && t < 2) continue;
          Point p;
          p.algo = algo;
          p.mode = mode;
          p.threads = t;
          points.push_back(p);
        }
      }
    }
  }
  return points;
}

// Benchmark name for a point: figure/algo[/range/mix][/mode]/threads:N
// — the shape --benchmark_filter has always matched against.
inline std::string point_name(const ExperimentSpec& spec,
                              const Point& p) {
  std::string n = spec.figure + "/" + p.algo->name;
  if (p.has_mix) {
    n += "/" + std::to_string(p.key_range) + "/" + p.mix.name;
  }
  if (spec.modes.size() > 1) {
    n += std::string("/") + mode_name(p.mode);
  }
  return n + "/threads:" + std::to_string(p.threads);
}

// Human-readable scenario column for the table sink.
inline std::string point_scenario(const ExperimentSpec& spec,
                                  const Point& p) {
  std::string s;
  if (p.has_mix) {
    s = "range=" + std::to_string(p.key_range) + " " + p.mix.name;
    if (spec.dist == KeyDist::zipfian) s += " zipfian";
  } else {
    s = spec.figure;
  }
  if (spec.crash_after_ms > 0) {
    s += " crash@" + std::to_string(spec.crash_after_ms) + "ms";
  }
  if (spec.is_crash_fuzz()) {
    s += " fuzz=" + std::to_string(spec.crash_plan.points);
    if (p.threads > 1) s += "x" + std::to_string(p.threads) + "t";
    if (spec.crash_plan.scenario != ScenarioKind::single_crash) {
      s += std::string(" ") + scenario_name(spec.crash_plan.scenario);
    }
  }
  return s;
}

// Machine-readable scenario-family column for the CSV/JSONL sinks:
// empty for plain measurement points, the ScenarioKind name for fuzz
// points (including the default single-crash family, so a sweep over
// families is self-describing).
inline std::string point_crash_scenario(const ExperimentSpec& spec) {
  if (spec.is_crash_fuzz()) {
    return scenario_name(spec.crash_plan.scenario);
  }
  if (spec.crash_after_ms > 0) return "timed-stop";
  return "";
}

namespace detail {

// google-benchmark's DoNotOptimize, without the dependency: the
// experiment driver is part of the library and is exercised by the unit
// tests, which do not link benchmark.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

inline std::atomic<std::uint64_t>& point_counter() {
  static std::atomic<std::uint64_t> c{0};
  return c;
}

inline std::atomic<int>& crash_failure_cell() {
  static std::atomic<int> c{0};
  return c;
}

// Parsed as long long: prefill sizes above INT_MAX are legitimate
// (the paper uses one million; bigger hosts may use more).
inline std::size_t resolve_queue_prefill(const ExperimentSpec& spec) {
  if (spec.queue_prefill > 0) return spec.queue_prefill;
  if (const char* v = std::getenv("REPRO_QUEUE_PREFILL")) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 100'000;
}

}  // namespace detail

// Detectability violations observed by crash-scenario points so far;
// experiment_main turns a non-zero count into a failing exit code.
inline int crash_failures() {
  return detail::crash_failure_cell().load(std::memory_order_relaxed);
}

// Grid points executed so far in this process (the same counter that
// stamps RunResult::point_index).
inline std::uint64_t points_run() {
  return detail::point_counter().load(std::memory_order_relaxed);
}

// What one crash-scenario point measured and verified.
struct CrashReport {
  RunResult run;       // throughput/counters up to the crash
  int completed = 0;   // threads whose last op recovered with response
  int not_applied = 0;  // in-flight intents confirmed left no trace
  int mismatches = 0;  // detectability violations (must be 0)
  double recovery_us = 0;  // wall time of the recover() replay
};

// Runs the crash-recovery scenario on one (detectable set/queue) point.
inline CrashReport run_crash_point(const ExperimentSpec& spec,
                                   const Point& p) {
  CrashReport rep;
  auto holder = p.algo->make();
  Structure* s = holder.get();

  // Guard against a trait/adapter mismatch (e.g. a registration tagged
  // "detectable" whose recover(int) is not const-qualified, so the
  // adapter's concept check failed): that is a configuration error, not
  // a detectability violation, and deserves a distinct message.
  if (!s->detectable()) {
    std::fprintf(stderr,
                 "repro: %s is tagged 'detectable' but its adapter "
                 "exposes no recovery protocol (is recover(int) const?)"
                 "\n",
                 p.algo->name.c_str());
    rep.mismatches = 1;
    return rep;
  }

  struct OpRecord {
    std::uint64_t seq = 0;
    ds::OpKind kind = ds::OpKind::none;
    std::int64_t key = 0;
    bool ok = false;
    std::uint64_t result = 0;
  };
  struct alignas(64) ThreadLog {
    int slot = -1;
    OpRecord last;
  };
  std::vector<ThreadLog> logs(static_cast<std::size_t>(p.threads));

  const bool is_set = p.algo->kind == Kind::set;
  SetIface* set = is_set ? static_cast<SetIface*>(s) : nullptr;
  QueueIface* queue = is_set ? nullptr : static_cast<QueueIface*>(s);
  // Queue crash points drive their own 50/50 enqueue/dequeue split and
  // have no workload of their own.
  std::optional<Workload> w;
  if (is_set) {
    w = Workload(p.key_range, p.mix, spec.dist, spec.zipf_theta);
    prefill(*set, p.key_range, spec.prefill_pct);
  } else {
    const std::size_t pre = detail::resolve_queue_prefill(spec);
    for (std::size_t i = 0; i < pre; ++i) {
      queue->enqueue(static_cast<std::uint64_t>(i));
    }
  }

  rep.run = run_threads(
      p.threads,
      [&](int tid, Rng& rng) {
        ThreadLog& log = logs[static_cast<std::size_t>(tid)];
        if (log.slot < 0) log.slot = ds::thread_slot();
        OpRecord rec;
        rec.seq = log.last.seq + 1;
        if (is_set) {
          rec.key = w->pick_key(rng);
          switch (w->pick_op(rng)) {
            case OpType::insert:
              rec.kind = ds::OpKind::insert;
              rec.ok = set->insert(rec.key);
              break;
            case OpType::erase:
              rec.kind = ds::OpKind::erase;
              rec.ok = set->erase(rec.key);
              break;
            case OpType::find:
              rec.kind = ds::OpKind::find;
              rec.ok = set->find(rec.key);
              break;
          }
          rec.result = rec.ok ? 1 : 0;
        } else if (rng.below(2) == 0) {
          const std::uint64_t v = rng.next() >> 1;
          queue->enqueue(v);
          rec.kind = ds::OpKind::enqueue;
          rec.key = static_cast<std::int64_t>(v);
          rec.ok = true;
          rec.result = v;
        } else {
          std::uint64_t out = 0;
          rec.ok = queue->dequeue(out);
          rec.kind = ds::OpKind::dequeue;
          rec.key = 0;
          rec.result = out;
        }
        log.last = rec;
      },
      spec.crash_after_ms);

  // The crash happened: replay recovery for every thread and verify
  // detectability (see the header comment for the crash model).
  const auto t0 = std::chrono::steady_clock::now();
  for (const ThreadLog& log : logs) {
    if (log.slot < 0) continue;  // thread never completed an operation
    const ds::Recovered rec = s->recover(log.slot);
    // The in-flight operation (seq last+1) must have left no trace.
    const bool intent_clear = rec.seq == log.last.seq;
    if (log.last.seq == 0) {
      if (intent_clear && !rec.completed) {
        ++rep.not_applied;
      } else {
        ++rep.mismatches;
      }
      continue;
    }
    const bool match = rec.completed && intent_clear &&
                       rec.kind == log.last.kind &&
                       rec.key == log.last.key &&
                       rec.ok == log.last.ok &&
                       rec.result == log.last.result;
    if (match) {
      ++rep.completed;
      ++rep.not_applied;
    } else {
      ++rep.mismatches;
    }
  }
  rep.recovery_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return rep;
}

// Runs one grid point (normal measurement, crash scenario, or
// crash-point fuzzing) and returns its self-contained result row.
inline ResultRow run_point(const ExperimentSpec& spec, const Point& p) {
  ResultRow row;
  row.figure = spec.figure;
  row.algo = p.algo->name;
  row.mode = mode_name(p.mode);
  row.scenario = point_scenario(spec, p);
  row.crash_scenario = point_crash_scenario(spec);
  row.reclaimer = p.algo->has_trait("reclaimer-hp")    ? "hp"
                  : p.algo->has_trait("reclaimer-pop") ? "pop"
                  : p.algo->has_trait("no-reclaim")    ? "leak"
                  : p.algo->has_trait("reclaimer-ebr") ? "ebr"
                                                       : "";
  row.seed = spec.is_crash_fuzz() ? spec.crash_plan.effective_seed()
                                  : global_seed();
  if (p.has_mix) {
    row.dist = key_dist_name(spec.dist);
    row.key_range = p.key_range;
    row.mix = p.mix.name;
  }

  if (spec.is_crash_fuzz()) {
    // The fuzzer manages the pmem mode per iteration itself, and
    // writes failing histories to REPRO_HISTORY_DUMP (default
    // crash_history.jsonl, the CI artifact).
    const FuzzReport rep =
        fuzz_structure(*p.algo, spec.crash_plan, "crash_history.jsonl");
    row.run.total_ops = rep.total_ops;
    row.run.threads = p.threads;
    row.crash_points = rep.points;
    row.crash_violations = rep.violations;
    if (rep.crashes > 0) {
      row.recovery_us = rep.recovery_us_total / rep.crashes;
    }
    if (rep.undecided > 0) {
      std::fprintf(stderr,
                   "repro: %s: %d fuzz point(s) exhausted the checker "
                   "state budget (undecided, not failed)\n",
                   p.algo->name.c_str(), rep.undecided);
    }
    if (rep.violations > 0) {
      detail::crash_failure_cell().fetch_add(rep.violations,
                                             std::memory_order_relaxed);
      for (const FuzzFailure& f : rep.failures) {
        std::fprintf(stderr,
                     "repro: %s: detectability violation at "
                     "{seed=%llu, crash_point=%llu, threads=%d} "
                     "(REPRO_SEED=%llu, iteration %d): %s\n",
                     f.structure.c_str(),
                     static_cast<unsigned long long>(f.seed),
                     static_cast<unsigned long long>(f.crash_point),
                     f.threads,
                     static_cast<unsigned long long>(f.base_seed),
                     f.iteration, f.what.c_str());
      }
    }
    row.run.point_index =
        detail::point_counter().fetch_add(1, std::memory_order_relaxed);
    return row;
  }

  pmem::ModeGuard guard(p.mode);
  if (spec.crash_after_ms > 0) {
    const CrashReport rep = run_crash_point(spec, p);
    row.run = rep.run;
    row.recovery_us = rep.recovery_us;
    if (rep.mismatches > 0) {
      detail::crash_failure_cell().fetch_add(rep.mismatches,
                                             std::memory_order_relaxed);
      std::fprintf(stderr,
                   "repro: %s: %d detectability violation(s) after "
                   "simulated crash\n",
                   point_name(spec, p).c_str(), rep.mismatches);
    }
  } else {
    auto holder = p.algo->make();
    switch (p.algo->kind) {
      case Kind::set: {
        auto* set = static_cast<SetIface*>(holder.get());
        prefill(*set, p.key_range, spec.prefill_pct);
        const Workload w(p.key_range, p.mix, spec.dist,
                         spec.zipf_theta);
        row.run = run_threads(p.threads, [&](int, Rng& rng) {
          const auto key = w.pick_key(rng);
          switch (w.pick_op(rng)) {
            case OpType::insert: detail::keep(set->insert(key)); break;
            case OpType::erase: detail::keep(set->erase(key)); break;
            case OpType::find: detail::keep(set->find(key)); break;
          }
        });
        break;
      }
      case Kind::queue: {
        auto* q = static_cast<QueueIface*>(holder.get());
        const std::size_t pre = detail::resolve_queue_prefill(spec);
        for (std::size_t i = 0; i < pre; ++i) {
          q->enqueue(static_cast<std::uint64_t>(i));
        }
        row.run = run_threads(p.threads, [&](int, Rng& rng) {
          q->enqueue(rng.next());
          std::uint64_t out = 0;
          detail::keep(q->dequeue(out));
        });
        break;
      }
      case Kind::stack: {
        auto* st = static_cast<StackIface*>(holder.get());
        for (int i = 0; i < 1024; ++i) {
          st->push(static_cast<std::uint64_t>(i));
        }
        row.run = run_threads(p.threads, [&](int, Rng& rng) {
          if (rng.below(2) == 0) {
            st->push(rng.next());
          } else {
            std::uint64_t out = 0;
            detail::keep(st->pop(out));
          }
        });
        break;
      }
      case Kind::exchanger: {
        auto* ex = static_cast<ExchangerIface*>(holder.get());
        row.run = run_threads(p.threads, [&](int, Rng& rng) {
          std::uint64_t out = 0;
          detail::keep(ex->exchange(rng.next(), 256, out));
        });
        break;
      }
    }
  }
  row.run.point_index =
      detail::point_counter().fetch_add(1, std::memory_order_relaxed);
  return row;
}

// Standalone driver: expands the grid and streams every row to the
// sinks.  The figure binaries go through google-benchmark registration
// instead (bench/bench_common.hpp) so --benchmark_filter keeps working;
// tests and embedders use this directly.
inline void run_spec(const ExperimentSpec& spec, SinkSet& sinks) {
  sinks.begin(spec.figure, spec.what);
  for (const Point& p : expand(spec)) {
    sinks.row(run_point(spec, p));
  }
}

}  // namespace repro::harness
