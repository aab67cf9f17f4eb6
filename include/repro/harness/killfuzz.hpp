// Fork-kill-recover fuzzing: the true-crash half of the crash engine.
//
// The shadow-NVM fuzzer (crashfuzz.hpp) simulates power failure inside
// one process.  This harness makes the durability claim for real: the
// parent forks a CHILD that attaches the mmap heap (pmem/mmap_heap.hpp),
// builds a detectable structure as a heap root and runs a journaled
// workload against it in Mode::mmap; the child is SIGKILLed — either at
// a deterministic persistence-instruction boundary
// (pmem::crash::arm_kill, replayable from a {seed, kill_point} pair) or
// by a parent-timed signal — and a FRESH verifier process then maps the
// same heap file and holds what the dead process durably left behind to
// the same verdict as the shadow fuzzer (harness/linearize.hpp):
//
//   - lin::judge_lane holds each worker lane's durable descriptor to
//     the lane's journal (last completed op that announced, with
//     exactly its response, or the pending op, which becomes `must`
//     when the descriptor commits it);
//   - lin::check holds each list lane's slice of the durable walk (the
//     lanes own disjoint key ranges) and a one-lane queue's durable
//     sequence to a durable cut of that lane's history, with every
//     effectful completed or committed op inside it;
//   - racing queue lanes get a value audit instead (verify_queue_lanes
//     says why).
//
// What a SIGKILL does and does not test: the page cache survives the
// signal, so every store the child executed — fenced or not — is in
// the reattached image; the kill boundary truncates the *instruction
// stream*, not the write-back queue.  The harness therefore exercises
// reattach/recovery machinery and store-ORDER protocol bugs (a "done"
// record written before its response, a link published before its
// node).  The REPRO_MUTATE_DROP_MSYNC build (detectable.hpp) emulates
// exactly such a reorder and must be caught here; unordered write-back
// LOSS remains the shadow fuzzer's jurisdiction.
//
// Journaling: the child writes the history.hpp JSONL events — an
// invoke line before each operation and a response line (with the
// lane's descriptor seq) after it — one write(2) per line, so each line
// is in the page cache when the SIGKILL lands; a per-lane hello line
// binds the lane to its descriptor slot before its first operation,
// and the verifier tolerates a torn final line.  Each lane stamps its
// own events, so the journal orders events within a lane only.  Each
// trial uses a private heap file (REPRO_HEAP_PATH or
// /tmp/repro_heap.<pid>.pmem) that the driver deletes or reuses —
// nothing accumulates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "repro/ds/dt_list.hpp"
#include "repro/ds/hm_hashtable.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/harness/history.hpp"
#include "repro/harness/linearize.hpp"
#include "repro/harness/runner.hpp"
#include "repro/pmem/crash.hpp"
#include "repro/pmem/mmap_heap.hpp"

namespace repro::harness::kill {

// The detectable structure families the kill harness drives.  These
// are the concrete non-virtual templates, not registry wrappers: a
// polymorphic object's vtable pointer is process-specific and would be
// stale in the verifier, so the heap root must be vtable-free.
enum class Family { isb_list, isb_queue, dt_list, hm_map };

inline const char* family_name(Family f) {
  switch (f) {
    case Family::isb_list: return "isb-list";
    case Family::isb_queue: return "isb-queue";
    case Family::dt_list: return "dt-list";
    case Family::hm_map: return "hm-map";
  }
  return "?";
}

inline const std::vector<Family>& all_families() {
  static const std::vector<Family> fams = {
      Family::isb_list, Family::isb_queue, Family::dt_list,
      Family::hm_map};
  return fams;
}

// The one place a Family meets its concrete type: `fn` receives a null
// pointer of that type as a tag.
template <typename F>
decltype(auto) with_family(Family f, F&& fn) {
  switch (f) {
    case Family::isb_queue:
      return fn(static_cast<ds::IsbQueueT<>*>(nullptr));
    case Family::dt_list:
      return fn(static_cast<ds::DtListT<>*>(nullptr));
    case Family::hm_map:
      // The map's whole bucket directory (blocks + sentinels) is carved
      // from the arena during construction, so the fresh verifier walks
      // it through the same fixed-base pointers; it drives like a list
      // (the same insert/erase/find + recover surface, the per-lane key
      // spans scattered across buckets by the map's hash).
      return fn(static_cast<ds::IsbHashMapT<>*>(nullptr));
    case Family::isb_list:
      break;
  }
  return fn(static_cast<ds::IsbListT<>*>(nullptr));
}

template <typename S>
inline constexpr bool kIsQueue = requires(S& s) { s.dequeue(); };

// One trial's full parameterisation; {family, seed, threads,
// kill_point} replays a deterministic single-lane trial bit-for-bit.
struct KillPlan {
  Family family = Family::isb_list;
  std::string heap_path = "/tmp/repro_heap.pmem";
  std::uint64_t seed = 1;
  int threads = 1;
  int ops_budget = 512;          // operations per lane
  std::uint64_t kill_point = 0;  // >0: SIGKILL at n-th persistence instr
  int kill_delay_us = 0;         // >0: parent-timed SIGKILL instead
  std::size_t heap_bytes = pmem::MmapHeap::kDefaultBytes;
  // Double-kill scenario: after the workload child dies, a second
  // SIGKILL (its instruction index derived from `seed`) is armed
  // inside the first VERIFIER's recovery/verify pass, and a third
  // fresh process then delivers the verdict — crash-during-recovery
  // with real process death.
  bool double_kill = false;

  std::string journal_path() const { return heap_path + ".journal"; }
  std::string detail_path() const { return heap_path + ".viol"; }
};

struct TrialResult {
  bool infra_ok = true;  // fork/attach/exec machinery worked
  bool killed = false;   // the SIGKILL landed (else the budget ran out)
  bool vacuous = false;  // killed before the root finished setup
  bool verifier_killed = false;  // double_kill: pass one died mid-verify
  int violations = 0;
  std::string what;  // first violation's diagnostic
};

struct KillFailure {
  std::string family;
  std::uint64_t seed = 0;
  std::uint64_t kill_point = 0;
  int delay_us = 0;
  int threads = 0;
  std::string what;
  bool double_kill = false;
};

struct KillReport {
  int trials = 0;
  int kills = 0;       // trials where the SIGKILL landed
  int completed = 0;   // child ran out its budget before the kill
  int vacuous = 0;
  int verifier_kills = 0;  // double_kill: verifier passes SIGKILLed
  int infra_skips = 0; // environment failures (not violations)
  int violations = 0;
  std::vector<KillFailure> failures;  // first few, for the reproducer
};

namespace detail {

inline constexpr std::int64_t kLaneKeySpan = 32;
inline constexpr const char* kRootName = "structure";
inline constexpr const char* kSealRootName = "vseal";

// Verifier-pass seal (double-kill scenario).  verify_in_process is
// pure loads — it issues no persistence instructions of its own — so
// a kill armed inside the verifier would never fire.  The seal gives
// the second SIGKILL a deterministic landing zone: a monotone
// started/done counter pair bracketing the verify pass, written
// through counted persist<> cells.  Each store_persist is a pwb +
// pfence, so the bracket spans exactly kSealInstructions counted
// instructions and a kill point in [1, kSealInstructions] always
// lands (unless the pass exits vacuous between the brackets).
// Invariant any later pass may check: started >= done.
struct VerifySeal {
  alignas(64) pmem::persist<std::uint64_t> started;
  alignas(64) pmem::persist<std::uint64_t> done;
};
inline constexpr std::uint64_t kSealInstructions = 4;

inline std::int64_t lane_key_base(int lane) {
  return static_cast<std::int64_t>(lane) * kLaneKeySpan;
}

// Queue values are unique and lane-tagged so the global audit can
// attribute every durable value.
inline std::uint64_t lane_value(int lane, int op) {
  return static_cast<std::uint64_t>(lane + 1) * 1'000'000u +
         static_cast<std::uint64_t>(op) + 1;
}

// One write(2) per line: atomic for O_APPEND regular files and already
// in the page cache when the SIGKILL lands — the journal needs no
// flush discipline beyond "don't buffer in userspace".
struct JournalWriter {
  int fd = -1;
  bool open_trunc(const std::string& path) {
    fd = ::open(path.c_str(),
                O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                0644);
    return fd >= 0;
  }
  void line(const std::string& l) {
    [[maybe_unused]] ssize_t w = ::write(fd, l.data(), l.size());
  }
};

inline std::string read_file(const std::string& path) {
  std::string data;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return data;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

// The verifier's view of the journal: hello'd lanes and their slots,
// and the recorded history as checker ops.
struct Journal {
  std::map<int, int> lane_slot;
  std::vector<lin::Op> ops;

  // Tolerates a missing file (killed before the journal opened) and a
  // torn final line (killed mid-write).  False on a malformed line.
  bool read(const std::string& path) {
    std::string data = read_file(path);
    data.resize(data.rfind('\n') + 1);  // npos + 1 == 0: nothing whole
    std::vector<HistoryEvent> events;
    if (!parse_history_jsonl(data, events)) return false;
    ops = lin::ops_from_events(events);
    for (std::size_t pos = 0; pos < data.size();) {
      const std::size_t eol = data.find('\n', pos);
      const std::string l = data.substr(pos, eol - pos);
      pos = eol + 1;
      std::int64_t lane = 0, slot = 0;
      if (l.find("\"slot\":") != std::string::npos &&
          history_detail::field_i64(l.c_str(), "\"lane\":", lane) &&
          history_detail::field_i64(l.c_str(), "\"slot\":", slot)) {
        lane_slot[static_cast<int>(lane)] = static_cast<int>(slot);
      }
    }
    return true;
  }
};

// ------------------------------------------------------------------
// Child side: the workload that gets killed.
// ------------------------------------------------------------------

// All lanes must hold their thread slots SIMULTANEOUSLY before any
// operation runs: slots recycle when a thread exits, so without the
// start barrier a fast early lane can finish and die before a later
// lane spawns, which would hand two lanes one descriptor and make the
// journal→slot binding meaningless.
struct StartBarrier {
  std::atomic<int> ready{0};
  void arrive_and_wait(int parties) {
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < parties) {
    }
  }
};

// Lists draw 40/40/20 insert/erase/find over the lane's own key span;
// queues 60/40 enqueue/dequeue of lane-tagged values.
template <typename S>
void run_lanes(const KillPlan& plan, S* s, JournalWriter& j) {
  std::vector<std::thread> lanes;
  lanes.reserve(static_cast<std::size_t>(plan.threads));
  StartBarrier barrier;
  for (int t = 0; t < plan.threads; ++t) {
    lanes.emplace_back([&, t] {
      const int slot = ds::thread_slot();
      j.line("{\"lane\":" + std::to_string(t) +
             ",\"slot\":" + std::to_string(slot) + "}\n");
      barrier.arrive_and_wait(plan.threads);
      Rng rng(mix_seed(plan.seed, static_cast<std::uint64_t>(t)));
      int enq = 0;
      HistoryEvent e;
      e.lane = t;
      for (int o = 0; o < plan.ops_budget; ++o) {
        e.type = EventType::invoke;
        e.op = static_cast<std::uint64_t>(o);
        e.ts = 2 * e.op + 1;
        bool ok = true;
        std::uint64_t result = 0;
        if constexpr (kIsQueue<S>) {
          if (rng.below(10) < 6) {
            const std::uint64_t v = lane_value(t, enq++);
            e.kind = ds::OpKind::enqueue;
            e.input = static_cast<std::int64_t>(v);
            j.line(event_jsonl(e));
            s->enqueue(v);
            result = v;
          } else {
            e.kind = ds::OpKind::dequeue;
            e.input = 0;
            j.line(event_jsonl(e));
            const ds::DequeueResult r = s->dequeue();
            ok = r.ok;
            result = r.value;
          }
        } else {
          e.input = lane_key_base(t) + 1 +
                    static_cast<std::int64_t>(rng.below(
                        static_cast<std::uint64_t>(kLaneKeySpan)));
          const std::uint64_t dice = rng.below(10);
          e.kind = dice < 4   ? ds::OpKind::insert
                   : dice < 8 ? ds::OpKind::erase
                              : ds::OpKind::find;
          j.line(event_jsonl(e));
          ok = e.kind == ds::OpKind::insert  ? s->insert(e.input)
               : e.kind == ds::OpKind::erase ? s->erase(e.input)
                                             : s->find(e.input);
          result = ok ? 1 : 0;
        }
        e.type = EventType::response;
        e.ts = 2 * e.op + 2;
        e.ok = ok;
        e.result = result;
        e.seq = s->recover(slot).seq;
        j.line(event_jsonl(e));
      }
    });
  }
  for (std::thread& th : lanes) th.join();
}

// The forked child's whole life.  Exit 0 = budget completed; the
// interesting exits are the ones that never happen (SIGKILL).
[[noreturn]] inline void run_child_workload(const KillPlan& plan,
                                            int notify_fd) {
  ::signal(SIGPIPE, SIG_IGN);  // parent may not be reading the pipe
  pmem::MmapHeap* heap =
      pmem::MmapHeap::attach(plan.heap_path, plan.heap_bytes);
  if (heap == nullptr) ::_exit(120);
  pmem::set_mode(pmem::Mode::mmap);
  with_family(plan.family, [&](auto* tag) {
    using S = std::remove_pointer_t<decltype(tag)>;
    S* s = heap->root<S>(kRootName);
    JournalWriter j;
    if (s == nullptr || !j.open_trunc(plan.journal_path())) ::_exit(120);
    // Setup is durable; tell the parent it may start the kill timer.
    if (notify_fd >= 0) {
      const char ready = 'r';
      [[maybe_unused]] ssize_t w = ::write(notify_fd, &ready, 1);
      ::close(notify_fd);
    }
    // Armed AFTER setup: heap bookkeeping persists through the raw
    // (uncounted) path, so instruction n is the n-th *algorithm*
    // persistence instruction — the deterministic replay anchor.
    if (plan.kill_point > 0) pmem::crash::arm_kill(plan.kill_point);
    run_lanes(plan, s, j);
  });
  ::_exit(0);
}

// ------------------------------------------------------------------
// Verifier side: runs in a FRESH process that maps the heap file.
// ------------------------------------------------------------------

// Racing queue lanes get a value audit instead of lin::check: each
// lane stamps its own journal events, so the journal carries no
// cross-lane real-time order, and a linearizability search over 4×512
// mutually unordered ops is infeasible.  What holds in every order is
// checked: every durable value was enqueued, no value is dequeued
// twice or both dequeued and still durable, a committed in-flight
// enqueue's value is durable or already dequeued, and values go
// missing only where an announced, uncommitted dequeue can account for
// them.
inline void verify_queue_lanes(const std::vector<lin::Op>& ops,
                               const std::vector<std::uint64_t>& durable,
                               const std::function<void(std::string)>& fail) {
  const std::set<std::uint64_t> durable_set(durable.begin(), durable.end());
  std::set<std::uint64_t> enq_done, deq_done, inflight_enq;
  int pending_deq = 0;
  for (const lin::Op& op : ops) {
    const bool completed = op.response_ts != lin::kNever;
    const auto v = static_cast<std::uint64_t>(op.input);
    if (op.kind == ds::OpKind::enqueue) {
      if (completed) {
        enq_done.insert(v);
      } else if (op.pending != lin::Pending::must_not) {
        inflight_enq.insert(v);
      }
    } else if (completed && op.ok && !deq_done.insert(op.result).second) {
      fail("value " + std::to_string(op.result) +
           " journaled as dequeued twice");
    }
  }
  for (const lin::Op& op : ops) {
    if (op.response_ts != lin::kNever) continue;
    const std::string who = "lane " + std::to_string(op.lane) + ": ";
    if (op.kind == ds::OpKind::enqueue && op.pending == lin::Pending::must) {
      if (!op.ok || op.result != static_cast<std::uint64_t>(op.input)) {
        fail(who + "committed in-flight enqueue carries a stale/wrong "
                   "response");
      } else if (durable_set.count(op.result) == 0 &&
                 deq_done.count(op.result) == 0) {
        fail(who + "committed enqueue's value is durably lost");
      }
    } else if (op.kind == ds::OpKind::dequeue &&
               op.pending == lin::Pending::must && op.ok) {
      const std::uint64_t v = op.result;
      if (enq_done.count(v) == 0 && inflight_enq.count(v) == 0) {
        fail(who + "committed dequeue returned a never-enqueued value "
                   "(stale response?)");
      } else if (durable_set.count(v) != 0) {
        fail(who + "committed dequeue's value is still durably enqueued");
      } else if (!deq_done.insert(v).second) {
        fail("value " + std::to_string(v) + " dequeued twice");
      }
    } else if (op.kind == ds::OpKind::dequeue &&
               op.pending == lin::Pending::may) {
      ++pending_deq;
    }
  }
  for (std::uint64_t v : durable) {
    if (enq_done.count(v) == 0 && inflight_enq.count(v) == 0) {
      fail("durable value " + std::to_string(v) +
           " was never enqueued (lost node payload?)");
      break;
    }
  }
  for (std::uint64_t v : deq_done) {
    if (durable_set.count(v) != 0) {
      fail("journaled dequeue of " + std::to_string(v) +
           " left the value durably enqueued");
      break;
    }
  }
  int missing = 0;
  for (std::uint64_t v : enq_done) {
    if (deq_done.count(v) == 0 && durable_set.count(v) == 0) ++missing;
  }
  if (missing > pending_deq) {
    fail(std::to_string(missing) +
         " enqueued values durably lost with only " +
         std::to_string(pending_deq) + " in-flight dequeues");
  }
}

template <typename S>
int verify(S* s, const Journal& j, std::string& detail) {
  int violations = 0;
  auto fail = [&](const std::string& w) {
    ++violations;
    if (detail.empty()) detail = w;
  };
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> values;
  bool walked = false;
  if constexpr (kIsQueue<S>) {
    walked = s->snapshot_values(values);
  } else {
    walked = s->snapshot_keys(keys);
  }
  if (!walked) {
    fail("durable walk failed: link into unowned memory or a cycle");
    return violations;
  }

  std::vector<lin::Op> ops = j.ops;
  for (const auto& [lane, slot] : j.lane_slot) {
    const ds::Recovered d = s->recover(slot);
    // A fresh heap's descriptors start zeroed: Recovered{} is the base.
    const std::string v = lin::judge_lane(ops, lane, ds::Recovered{}, d);
    if (!v.empty()) fail(v);
    // A SIGKILL loses no executed store, so a pending op whose
    // announcement the descriptor does not show never began its
    // structural work: it left no trace.
    std::uint64_t last = 0;
    lin::Op* pending = nullptr;
    for (lin::Op& op : ops) {
      if (op.lane != lane) continue;
      if (op.response_ts == lin::kNever) {
        pending = &op;
      } else {
        last = op.seq;
      }
    }
    if (pending != nullptr && d.seq != last + 1) {
      pending->pending = lin::Pending::must_not;
    }
  }

  if constexpr (kIsQueue<S>) {
    if (j.lane_slot.size() > 1) {
      verify_queue_lanes(ops, values, fail);
      return violations;
    }
  }
  // One lane's history against its slice of the durable image: a
  // list lane owns its key span, and a queue is checked only with one
  // lane, so no other lane can hold a link hostage — every effectful
  // completed or committed op lies inside the cut.
  std::size_t attributed = 0;
  for (const auto& [lane, slot] : j.lane_slot) {
    lin::Spec spec;
    spec.kind = kIsQueue<S> ? lin::Semantics::queue : lin::Semantics::set;
    spec.check_durable = true;
    spec.pin_effects = true;
    spec.durable_values = values;
    for (std::int64_t k : keys) {
      if (k > lane_key_base(lane) && k <= lane_key_base(lane) + kLaneKeySpan) {
        spec.durable_keys.push_back(k);
      }
    }
    attributed += spec.durable_keys.size();
    std::vector<lin::Op> lane_ops;
    for (const lin::Op& op : ops) {
      if (op.lane == lane) lane_ops.push_back(op);
    }
    const lin::Result r = lin::check(lane_ops, spec);
    if (r.verdict != lin::Verdict::linearizable) {
      fail("lane " + std::to_string(lane) + ": " + r.what);
    }
  }
  // Keys no hello'd lane owns cannot exist: lanes write their hello
  // before their first operation.
  if (attributed != keys.size()) {
    fail(std::to_string(keys.size() - attributed) +
         " durable keys belong to no journaled lane");
  }
  return violations;
}

// Attach + dispatch inside the verifier process.  Returns violations,
// -1 for a vacuous trial (setup never finished), -2 for environment
// failure.  A non-zero kill2_point arms a SIGKILL over the seal's
// counted instructions (double-kill scenario) — this pass may never
// return; the caller's parent process observes the signal instead.
inline int verify_in_process(const KillPlan& plan, std::string& detail,
                             std::uint64_t kill2_point = 0) {
  pmem::MmapHeap* heap =
      pmem::MmapHeap::attach(plan.heap_path, plan.heap_bytes);
  if (heap == nullptr) return -2;
  Journal j;
  if (!j.read(plan.journal_path())) {
    detail = "journal holds a malformed line";
    return 1;
  }
  VerifySeal* seal = nullptr;
  if (plan.double_kill) {
    // The seal's writes must run through the counted mmap persistence
    // path (the root directory itself persists through the raw,
    // uncounted path, so creating the root consumes no countdown).
    pmem::set_mode(pmem::Mode::mmap);
    seal = heap->root<VerifySeal>(kSealRootName);
    if (seal == nullptr) return -2;
    if (seal->done.load() > seal->started.load()) {
      if (detail.empty()) {
        detail = "verify seal corrupted: done counter ran ahead of "
                 "started (recovery-pass bracket ordering broke)";
      }
      return 1;
    }
    if (kill2_point > 0) pmem::crash::arm_kill(kill2_point);
    seal->started.store_persist(seal->started.load() + 1);
  }
  const int v = with_family(plan.family, [&](auto* tag) {
    using S = std::remove_pointer_t<decltype(tag)>;
    S* s = heap->find_root<S>(kRootName);
    return s == nullptr ? -1 : verify(s, j, detail);
  });
  if (seal != nullptr) seal->done.store_persist(seal->done.load() + 1);
  return v;
}

}  // namespace detail

// Verification exit-code protocol (the verifier is a forked fresh
// process; its address space must never have seen the child's heap).
inline constexpr int kVerifyVacuous = 110;
inline constexpr int kVerifyInfraFail = 120;
// Sentinel (never an exit code): the armed verifier pass was itself
// SIGKILLed — the double-kill landed mid-recovery.  The caller runs a
// third fresh-process pass for the verdict.
inline constexpr int kVerifyKilled = -3;

// Forks a fresh process that maps the heap file, recovers, verifies,
// and reports through its exit code (violations capped at 99).  The
// first diagnostic lands in plan.detail_path().  kill2_point > 0 arms
// the double-kill inside the verifier child; if that SIGKILL lands
// the parent returns kVerifyKilled instead of an exit code.
inline int fork_verify(const KillPlan& plan,
                       std::uint64_t kill2_point = 0) {
  const pid_t pid = ::fork();
  if (pid < 0) return kVerifyInfraFail;
  if (pid == 0) {
    std::string detail;
    const int v = detail::verify_in_process(plan, detail, kill2_point);
    if (v == -2) ::_exit(kVerifyInfraFail);
    if (v == -1) ::_exit(kVerifyVacuous);
    if (v > 0) {
      if (std::FILE* f =
              std::fopen(plan.detail_path().c_str(), "w")) {
        std::fprintf(f, "%s\n", detail.c_str());
        std::fclose(f);
      }
      ::_exit(v > 99 ? 99 : v);
    }
    ::_exit(0);
  }
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) return kVerifyKilled;
  if (!WIFEXITED(st)) return kVerifyInfraFail;
  return WEXITSTATUS(st);
}

// One full trial: fresh heap file, forked workload child, SIGKILL
// (armed or parent-timed), then TWO independent fresh-process
// verifications — recovery must be idempotent, so pass two re-walks
// everything pass one recovered and must agree with it.  With
// plan.double_kill the first verifier pass is itself SIGKILLed at a
// seed-derived point inside its recovery seal and a third fresh
// process becomes "pass one" — the idempotence agreement then spans a
// state that already absorbed a crash during recovery.
inline TrialResult kill_one(const KillPlan& plan) {
  TrialResult r;
  ::unlink(plan.heap_path.c_str());
  ::unlink(plan.journal_path().c_str());
  ::unlink(plan.detail_path().c_str());

  int pfd[2] = {-1, -1};
  if (::pipe(pfd) != 0) {
    r.infra_ok = false;
    return r;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pfd[0]);
    ::close(pfd[1]);
    r.infra_ok = false;
    return r;
  }
  if (pid == 0) {
    ::close(pfd[0]);
    detail::run_child_workload(plan, pfd[1]);  // never returns
  }
  ::close(pfd[1]);
  char ready = 0;
  [[maybe_unused]] ssize_t got = ::read(pfd[0], &ready, 1);
  if (plan.kill_delay_us > 0) {
    ::usleep(static_cast<useconds_t>(plan.kill_delay_us));
    ::kill(pid, SIGKILL);
  }
  ::close(pfd[0]);
  int st = 0;
  ::waitpid(pid, &st, 0);
  if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
    r.killed = true;
  } else if (WIFEXITED(st) && WEXITSTATUS(st) == 0) {
    r.killed = false;  // budget ran out first; still verified
  } else {
    r.infra_ok = false;
    return r;
  }

  // Double-kill scenario: arm a second SIGKILL inside the first
  // verifier's recovery pass (point derived from the trial seed, so
  // the reproducer replays it).  When it lands, a THIRD fresh process
  // delivers the verdict — verifying that crashing during recovery
  // leaves a state a later recovery still handles.
  std::uint64_t kill2_point = 0;
  if (plan.double_kill) {
    kill2_point =
        1 + mix_seed(plan.seed, 0xD0B13ull) % detail::kSealInstructions;
  }
  int first = fork_verify(plan, kill2_point);
  if (first == kVerifyKilled) {
    r.verifier_killed = true;
    first = fork_verify(plan);
  }
  if (first == kVerifyInfraFail) {
    r.infra_ok = false;
    return r;
  }
  if (first == kVerifyVacuous) {
    r.vacuous = true;
    return r;
  }
  r.violations = first;
  const int second = fork_verify(plan);
  if (second != first) {
    ++r.violations;
    r.what = "recovery is not idempotent: verifier passes disagree (" +
             std::to_string(first) + " vs " + std::to_string(second) +
             ")";
  } else if (first > 0) {
    r.what = detail::read_file(plan.detail_path());
  }
  return r;
}

// Randomized campaign over one family: `trials` forked kills, each
// with a fresh {seed, kill point} pair.  Deterministic mode (default)
// arms the kill at a drawn persistence-instruction index — each
// failure is replayable via kill_one{seed, kill_point}; timed mode
// SIGKILLs after a drawn microsecond delay instead.
inline KillReport kill_many(const KillPlan& proto, int trials,
                            bool timed = false) {
  KillReport rep;
  const std::uint64_t base =
      proto.seed != 0 ? proto.seed : global_seed();
  Rng rng(mix_seed(base, 0x6B116Cull));
  const std::uint64_t horizon =
      static_cast<std::uint64_t>(proto.ops_budget) *
      static_cast<std::uint64_t>(proto.threads) * 6u;
  for (int i = 0; i < trials; ++i) {
    KillPlan p = proto;
    p.seed = mix_seed(base, static_cast<std::uint64_t>(i));
    if (timed) {
      p.kill_point = 0;
      p.kill_delay_us = 50 + static_cast<int>(rng.below(5'000));
      // The default budgets finish in well under the shortest delay;
      // give the child enough work that the wall-clock kill lands
      // mid-run instead of reaping a finished process.
      p.ops_budget = std::max(p.ops_budget, 200'000);
    } else {
      p.kill_point = 1 + rng.below(horizon);
      p.kill_delay_us = 0;
    }
    const TrialResult t = kill_one(p);
    ++rep.trials;
    if (!t.infra_ok) {
      ++rep.infra_skips;
      continue;
    }
    if (t.killed) {
      ++rep.kills;
    } else {
      ++rep.completed;
    }
    if (t.vacuous) ++rep.vacuous;
    if (t.verifier_killed) ++rep.verifier_kills;
    rep.violations += t.violations;
    if (t.violations > 0 && rep.failures.size() < 8) {
      KillFailure f;
      f.family = family_name(p.family);
      f.seed = p.seed;
      f.kill_point = p.kill_point;
      f.delay_us = p.kill_delay_us;
      f.threads = p.threads;
      f.what = t.what;
      f.double_kill = p.double_kill;
      rep.failures.push_back(std::move(f));
    }
  }
  return rep;
}

// Failing-trial reproducers as JSON lines (the CI artifact); same
// truncate-once-per-process convention as crashfuzz's
// write_reproducer.  Replay one line with
//   kill_one({family, seed, threads, kill_point})
// (deterministic for threads == 1; timed failures replay the same
// workload draws, not the same kill instant).
inline void write_kill_reproducer(const KillReport& report,
                                  const std::string& path) {
  static bool truncated_once = false;
  std::FILE* f = std::fopen(path.c_str(), truncated_once ? "a" : "w");
  if (f == nullptr) return;
  truncated_once = true;
  for (const KillFailure& x : report.failures) {
    std::fprintf(f,
                 "{\"family\":\"%s\",\"seed\":%llu,\"kill_point\":%llu,"
                 "\"delay_us\":%d,\"threads\":%d,\"double_kill\":%d,"
                 "\"what\":\"%s\"}\n",
                 x.family.c_str(),
                 static_cast<unsigned long long>(x.seed),
                 static_cast<unsigned long long>(x.kill_point),
                 x.delay_us, x.threads, x.double_kill ? 1 : 0,
                 x.what.c_str());
  }
  std::fclose(f);
}

// Default heap path: REPRO_HEAP_PATH, or a pid-scoped /tmp file so
// concurrent CI jobs never collide.  The caller deletes it afterwards
// (see kill_recovery's teardown and the tests' RAII guard).
inline std::string default_heap_path() {
  if (const char* p = std::getenv("REPRO_HEAP_PATH")) return p;
  return "/tmp/repro_heap." + std::to_string(::getpid()) + ".pmem";
}

// Remove a trial's on-disk residue (heap file + journal + detail).
inline void cleanup_heap_files(const KillPlan& plan) {
  ::unlink(plan.heap_path.c_str());
  ::unlink(plan.journal_path().c_str());
  ::unlink(plan.detail_path().c_str());
}

}  // namespace repro::harness::kill
