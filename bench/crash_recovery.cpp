// Crash engine driver: three specs over the shared experiment engine.
//
//   crash-fuzz       — the crash-point fuzzer (harness/crashfuzz.hpp),
//                      one lane, over every registered
//                      trait:detectable structure: REPRO_FUZZ_POINTS
//                      simulated crashes per structure at PRNG-chosen
//                      persistence-instruction boundaries under
//                      shadow-NVM mode, each verified against the
//                      detectability contract.  Any violation makes
//                      the binary exit non-zero (the ctest / CI gate)
//                      and writes the reproducers (metadata line +
//                      recorded history) to REPRO_HISTORY_DUMP
//                      (default crash_history.jsonl — the CI artifact;
//                      tests/test_corpus.cpp shows the local replay).
//   chain-fuzz       — the repeated-crash adversary: every fuzz point
//                      crashes again inside the recovery pass (at the
//                      RecoverySeal consolidation write), up to
//                      REPRO_CHAIN_DEPTH times, re-recovering after
//                      each link and holding recovery to idempotence.
//                      REPRO_CHAIN_POINTS iterations per structure.
//   conc-fuzz        — the same fuzzer with REPRO_CONC_FUZZ_THREADS
//                      racing lanes: REPRO_CONC_FUZZ_POINTS iterations
//                      per structure, the crash landing at a
//                      persistence boundary on whichever thread issues
//                      it.
//   tdeath-fuzz      — per-thread death: the armed instruction kills
//                      only the thread that hits it; survivors race
//                      on, a fresh thread adopts the dead lane's slot
//                      and runs recover(), and the checker audits the
//                      merged history.  REPRO_TDEATH_POINTS
//                      iterations per structure.
//   stall-fuzz       — the stalled-thread adversary: one worker parks
//                      at a persistence boundary across a full
//                      crash+recovery, resumes afterwards, and both
//                      the durable cut and the post-resume history
//                      must stay consistent.  REPRO_STALL_POINTS
//                      iterations per structure.
//   reclaim-fuzz     — the crash-during-reclaim adversary: an
//                      erase-biased workload densifies unlinks so
//                      crash points land between an unlink and its
//                      commit, and after each crash every parked
//                      (retired, unreclaimed) cell across all three
//                      reclamation schemes is checked for unpersisted
//                      stores (the retire-after-commit invariant).
//                      Sweeps the reclaimer matrix plus Isb-Opt, whose
//                      fence-free post_update flushes are what a
//                      retire before the commit fence would leave
//                      dirty.  REPRO_RECLAIM_POINTS iterations per
//                      structure.
//   reclaim-matrix   — throughput of the structure x reclaimer x mode
//                      grid (the BENCH_PR10 perf trajectory).
//   crash-lists/-q   — the PR2 wall-clock crash scenario kept as a
//                      regression point: multi-threaded workload,
//                      crash at an operation boundary, recover()
//                      replay per thread.
//   shadow-overhead  — per-backend persistence cost vs. count_only
//                      for the Isb list and queue at 1 and 8 threads:
//                      shadow (interception + write log) and mmap
//                      (real clwb+sfence) relative to bare counting
//                      (the BENCH_PR4/PR6 perf-smoke trajectories).
//
// Replaying a CI-reported reproducer (use its base_seed field):
//   REPRO_SEED=<base_seed> REPRO_FUZZ_POINTS=<points> ./crash_recovery \
//     --benchmark_filter='^crash-fuzz/<structure>/'
// reruns the exact iteration sequence (iteration seeds derive from
// {REPRO_SEED, iteration}); tests/test_crash_engine.cpp shows the
// single-iteration fuzz_one() replay of one one-lane {seed,
// crash_point} pair.  A chain-fuzz reproducer additionally carries a
// crash_chain array; replay it with CrashPlan::replay_chain
// (tests/test_corpus.cpp).
//
// REPRO_RECLAIMER=<ebr|hp|pop> narrows every fuzz-family figure to the
// structures of one reclamation scheme (the CI matrix legs).
//
// REPRO_SCENARIO=<single-crash|repeated-crash|thread-death|
// stalled-thread|reclaim-crash> retargets the base crash-fuzz /
// conc-fuzz figures at a different scenario family (the dedicated
// chain/tdeath/stall/reclaim figures are usually more convenient; the
// override exists for replaying a reproducer under the exact figure
// name CI reported).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

int env_points(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro::harness;

  ExperimentSpec fuzz;
  fuzz.figure = "crash-fuzz";
  fuzz.what =
      "shadow-NVM crash-point fuzzing, detectability verified per "
      "crash";
  fuzz.structures = {"trait:detectable"};
  fuzz.crash_plan.points = env_points("REPRO_FUZZ_POINTS", 200);

  ExperimentSpec conc;
  conc.figure = "conc-fuzz";
  conc.what =
      "concurrent crash-point fuzzing, durable-linearizability "
      "checked per crash";
  conc.structures = {"trait:detectable"};
  conc.crash_plan.points = env_points("REPRO_CONC_FUZZ_POINTS", 100);
  conc.crash_plan.threads = env_points("REPRO_CONC_FUZZ_THREADS", 3);

  // REPRO_SCENARIO retargets the two base fuzz figures (reproducer
  // replay under the figure name CI reported); the dedicated scenario
  // figures below are the normal way to run the families.
  if (const char* sc = std::getenv("REPRO_SCENARIO");
      sc != nullptr && sc[0] != '\0') {
    ScenarioKind kind = ScenarioKind::single_crash;
    if (!scenario_from_name(sc, kind)) {
      std::fprintf(stderr, "repro: unknown REPRO_SCENARIO '%s'\n", sc);
      return 2;
    }
    fuzz.crash_plan.scenario = kind;
    conc.crash_plan.scenario = kind;
  }

  ExperimentSpec chain;
  chain.figure = "chain-fuzz";
  chain.what =
      "repeated-crash adversary: chained crashes inside recovery, "
      "recovery held to idempotence";
  chain.structures = {"trait:detectable"};
  chain.crash_plan.points = env_points("REPRO_CHAIN_POINTS", 100);
  chain.crash_plan.scenario = ScenarioKind::repeated_crash;
  chain.crash_plan.chain_depth = env_points("REPRO_CHAIN_DEPTH", 3);

  ExperimentSpec tdeath;
  tdeath.figure = "tdeath-fuzz";
  tdeath.what =
      "per-thread death: survivors race on, a fresh thread adopts the "
      "dead lane and recovers it";
  tdeath.structures = {"trait:detectable"};
  tdeath.crash_plan.points = env_points("REPRO_TDEATH_POINTS", 60);
  tdeath.crash_plan.threads = env_points("REPRO_CONC_FUZZ_THREADS", 3);
  tdeath.crash_plan.scenario = ScenarioKind::thread_death;

  ExperimentSpec stall;
  stall.figure = "stall-fuzz";
  stall.what =
      "stalled-thread adversary: a worker parks across crash+recovery "
      "and resumes late";
  stall.structures = {"trait:detectable"};
  stall.crash_plan.points = env_points("REPRO_STALL_POINTS", 60);
  stall.crash_plan.threads = env_points("REPRO_CONC_FUZZ_THREADS", 3);
  stall.crash_plan.scenario = ScenarioKind::stalled_thread;

  // The reclaimer matrix: one list, one queue, one hash map per
  // scheme.  Isb-Opt rides along in the fuzz figure because its
  // optimized profile leaves post_update flushes unfenced — exactly
  // the window a retire before the commit fence exposes (the
  // REPRO_MUTATE_DROP_RETIRE_PERSIST self-test detects through it).
  const std::vector<std::string> matrix = {
      "Isb",          "Isb-Queue",     "DT-HashMap",
      "Isb-List-HP",  "Isb-Queue-HP",  "DT-HashMap-HP",
      "Isb-List-POP", "Isb-Queue-POP", "DT-HashMap-POP"};

  ExperimentSpec reclaim;
  reclaim.figure = "reclaim-fuzz";
  reclaim.what =
      "crash-during-reclaim fuzzing: parked cells checked for "
      "unpersisted stores across EBR/HP/POP";
  reclaim.structures = matrix;
  reclaim.structures.push_back("Isb-Opt");
  reclaim.crash_plan.points = env_points("REPRO_RECLAIM_POINTS", 200);
  reclaim.crash_plan.scenario = ScenarioKind::reclaim_crash;

  ExperimentSpec rmatrix;
  rmatrix.figure = "reclaim-matrix";
  rmatrix.what =
      "structure x reclaimer x mode throughput grid (EBR vs HP vs POP)";
  rmatrix.structures = matrix;
  rmatrix.key_ranges = {500};
  rmatrix.mixes = {kUpdateIntensive};
  rmatrix.threads = {1, 4};
  rmatrix.modes = {repro::pmem::Mode::count_only,
                   repro::pmem::Mode::shadow};

  // One reclamation scheme at a time (the CI fuzz legs): narrow every
  // fuzz family to the structures carrying that scheme's trait.
  if (const std::string rf = detail::reclaimer_filter(); !rf.empty()) {
    const std::string atom = "&trait:reclaimer-" + rf;
    for (ExperimentSpec* spec :
         {&fuzz, &chain, &conc, &tdeath, &stall, &reclaim}) {
      for (std::string& sel : spec->structures) sel += atom;
    }
  }

  ExperimentSpec lists;
  lists.figure = "crash-lists";
  lists.what = "detectable recovery after a mid-interval crash (lists)";
  lists.structures = {"Isb", "Isb-Opt", "DT-Opt"};
  lists.key_ranges = {500};
  lists.mixes = {kUpdateIntensive};
  lists.crash_after_ms = 30;

  ExperimentSpec queues = lists;
  queues.figure = "crash-queues";
  queues.what = "detectable recovery after a mid-interval crash (queues)";
  queues.structures = {"trait:paper-queue"};  // non-detectable are skipped

  ExperimentSpec overhead;
  overhead.figure = "shadow-overhead";
  overhead.what =
      "persistence-backend cost vs count_only (Isb list & queue): "
      "shadow write-log tracking and mmap clwb+sfence";
  overhead.structures = {"Isb", "Isb-Queue"};
  overhead.key_ranges = {500};
  overhead.mixes = {kUpdateIntensive};
  overhead.threads = {1, 8};
  // Mode::mmap here measures the instruction cost (clwb + sfence on
  // the nodes' cache lines) without a mapped heap file attached — the
  // instructions run on whatever memory the pool hands out, which is
  // exactly the overhead the backend adds on top of count_only.
  overhead.modes = {repro::pmem::Mode::count_only,
                    repro::pmem::Mode::shadow,
                    repro::pmem::Mode::mmap};

  return repro::bench::experiment_main(
      argc, argv,
      {fuzz, chain, conc, tdeath, stall, reclaim, lists, queues,
       overhead, rmatrix});
}
