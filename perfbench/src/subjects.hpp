// Subjects: one structure instance under test plus everything the
// benchmark records about the calls made on it.
//
// A Subject owns the structure, its prefill, the per-worker operation
// generators and the ledgers the checkers read (checks.hpp).  Workers
// call run() once per slice; the inner loop is a template on the
// structure type and on whether the slice is traced, so an untraced
// slice pays only the call, the generator, the ledger update and a
// clock read on about one operation in kSampleEvery.  A traced slice also
// snapshots pmem::counters() and mem::stats() around every call and
// charges the difference to the call's operation type.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "crew.hpp"
#include "repro/ds/detectable.hpp"
#include "repro/harness/runner.hpp"
#include "repro/harness/workload.hpp"
#include "repro/mem/ebr.hpp"
#include "repro/pmem/persist.hpp"

namespace perfbench {

// On average one latency sample in every kSampleEvery operations: a
// clock read costs tens of ns on a VM, which timing every call would add
// to it.  The gap between samples is drawn at random (uniform in
// [1, 2 * kSampleEvery - 1]) so the sampled calls do not lock onto a
// period of the workload, such as the queue's enqueue/dequeue
// alternation or EBR's scan on every 64th retire.
inline constexpr std::uint32_t kSampleEvery = 32;

enum class Op : std::uint8_t { find, insert, erase, enqueue, dequeue };
inline constexpr int kOpTypes = 5;
inline constexpr const char* kOpNames[kOpTypes] = {
    "find", "insert", "erase", "enqueue", "dequeue"};

using repro::harness::Rng;

// Generator streams of one structure: its prefill, each worker's
// operations and each worker's sampling gaps.
enum class Stream : std::uint64_t { prefill = 0, ops = 1, sampling = 2 };

// Seed of stream `s` of worker `w` for the structure in `role`: the same
// seed gives every structure and worker the same sequence in every run.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t role,
                                 Stream s, int w = 0) {
  return repro::harness::mix_seed(
      seed, (role * 4 + static_cast<std::uint64_t>(s)) * 256 +
                static_cast<std::uint64_t>(w));
}

// When a worker next times a call.
class Sampler {
 public:
  explicit Sampler(std::uint64_t seed) : rng_(seed) { rearm(); }
  bool tick() { return --countdown_ == 0; }
  void rearm() {
    countdown_ =
        1 + static_cast<std::uint32_t>(rng_.below(2 * kSampleEvery - 1));
  }

 private:
  Rng rng_;
  std::uint32_t countdown_ = 0;
};

struct Sample {
  std::int64_t start_ns;  // since the run's time origin
  std::uint32_t ns;
  Op op;
};

struct OpTally {
  std::uint64_t n = 0;
  std::uint64_t ok = 0;
  repro::pmem::Counters pc;  // traced slices only
  repro::mem::Stats ms;      // traced slices only
};

// What one worker accumulated over the slices of one series.
struct alignas(64) Tally {
  std::uint64_t ops = 0;
  repro::pmem::Counters pc;
  repro::mem::Stats ms;
  OpTally op[kOpTypes];
  std::uint64_t limbo_sum = 0;
  std::uint64_t limbo_samples = 0;
  // This slice's latency samples; main.cpp drains them after every
  // slice, so their memory does not grow with throughput.
  std::vector<Sample> samples;

  void merge(const Tally& o) {
    ops += o.ops;
    pc += o.pc;
    ms += o.ms;
    for (int i = 0; i < kOpTypes; ++i) {
      op[i].n += o.op[i].n;
      op[i].ok += o.op[i].ok;
      op[i].pc += o.op[i].pc;
      op[i].ms += o.op[i].ms;
    }
    limbo_sum += o.limbo_sum;
    limbo_samples += o.limbo_samples;
  }
};

struct RunCtl {
  const std::atomic<bool>* stop = nullptr;
  std::uint64_t max_ops = ~std::uint64_t{0};
  // Snapshot counters around every call, and record this worker's EBR
  // limbo depth at the end of the slice.
  bool traced = false;
  Clock::time_point origin;
};

struct Spec {
  const char* name;
  std::int64_t range;           // set keys are uniform in [1, range]
  int prefill_pct;              // share of the key range inserted first
  repro::harness::Mix mix;      // set operation mix
  int bucket_bits;              // hash map only
  std::uint64_t queue_prefill;  // queue only
  std::uint64_t warmup_ops;     // per worker, part of set-up
};

class Subject {
 public:
  explicit Subject(std::string name) : name_(std::move(name)) {}
  virtual ~Subject() = default;
  Subject(const Subject&) = delete;
  Subject& operator=(const Subject&) = delete;

  const std::string& name() const { return name_; }

  // Main thread, workers idle.
  virtual void prefill() = 0;
  // Worker w; returns when ctl.stop is raised or ctl.max_ops are done.
  virtual void run(int w, const RunCtl& ctl, Tally& t) = 0;
  // Main thread, workers idle, after the last slice: returns the number
  // of failed checks and explains each kind on stderr.
  virtual std::uint64_t check(const Crew& crew) = 0;
  // Calls the workers made on this structure.
  virtual std::uint64_t attempted() const = 0;

 protected:
  static void end_slice(const RunCtl& ctl, Tally& t) {
    if (ctl.traced) {
      t.limbo_sum += repro::mem::EpochDomain::instance().limbo_size();
      ++t.limbo_samples;
    }
    // Idle workers must not stall epoch advancement for the others.
    repro::mem::EpochDomain::instance().release_pin();
  }

  void report(std::uint64_t failed, const char* what) const {
    if (failed == 0) return;
    std::fprintf(stderr, "perfbench: CHECK FAILED %s: %llu %s\n",
                 name_.c_str(), static_cast<unsigned long long>(failed),
                 what);
  }

 private:
  std::string name_;
};

template <typename S>
concept Detectable = requires(const S& s) { s.recover(0); };

// Times one call when the sampler says so, and in traced slices
// charges the persistence and memory counters it moved to its type.
template <bool Traced>
class CallProbe {
 public:
  CallProbe(Sampler& sampler, const RunCtl& ctl)
      : timed_(sampler.tick()), sampler_(sampler), ctl_(ctl) {
    if constexpr (Traced) {
      pc0_ = repro::pmem::counters();
      ms0_ = repro::mem::stats();
    }
    if (timed_) t0_ = Clock::now();
  }
  void done(Tally& t, Op op, bool ok) {
    if (timed_) {
      const Clock::time_point t1 = Clock::now();
      t.samples.push_back(
          {std::chrono::duration_cast<std::chrono::nanoseconds>(t0_ -
                                                                ctl_.origin)
               .count(),
           static_cast<std::uint32_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_)
                   .count()),
           op});
      sampler_.rearm();
    }
    OpTally& o = t.op[static_cast<int>(op)];
    ++o.n;
    o.ok += ok ? 1 : 0;
    if constexpr (Traced) {
      o.pc += repro::pmem::counters() - pc0_;
      o.ms += repro::mem::stats() - ms0_;
    }
  }

 private:
  bool timed_;
  Sampler& sampler_;
  const RunCtl& ctl_;
  Clock::time_point t0_;
  repro::pmem::Counters pc0_;
  repro::mem::Stats ms0_;
};

// ---------------------------------------------------------------------
// Sets: list and hash map.
// ---------------------------------------------------------------------
template <typename S>
class SetSubject final : public Subject {
 public:
  SetSubject(std::string name, const Spec& spec, std::uint64_t seed,
             std::uint64_t role, int workers,
             const std::function<std::unique_ptr<S>()>& make)
      : Subject(std::move(name)), spec_(spec), work_(spec.range, spec.mix),
        seed_(seed), role_(role), s_(make()),
        initial_(static_cast<std::size_t>(spec.range) + 1, 0) {
    for (int w = 0; w < workers; ++w) {
      per_.push_back(std::make_unique<PerWorker>(
          spec.range, stream_seed(seed, role, Stream::ops, w),
          stream_seed(seed, role, Stream::sampling, w)));
    }
  }

  // Inserts a uniform sample of prefill_pct% of the keys, in random
  // order, from the main thread.
  void prefill() override {
    Rng rng(stream_seed(seed_, role_, Stream::prefill));
    std::vector<std::int64_t> keys(static_cast<std::size_t>(spec_.range));
    std::iota(keys.begin(), keys.end(), std::int64_t{1});
    const std::size_t n = keys.size() *
                          static_cast<std::size_t>(spec_.prefill_pct) / 100;
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(keys[i], keys[i + rng.below(keys.size() - i)]);
      if (!s_->insert(keys[i])) ++prefill_failed_;
      initial_[static_cast<std::size_t>(keys[i])] = 1;
    }
    repro::mem::EpochDomain::instance().release_pin();
  }

  void run(int w, const RunCtl& ctl, Tally& t) override {
    const repro::pmem::Counters pc0 = repro::pmem::counters();
    const repro::mem::Stats ms0 = repro::mem::stats();
    PerWorker& me = *per_[static_cast<std::size_t>(w)];
    const std::uint64_t n =
        ctl.traced ? loop<true>(me, ctl, t) : loop<false>(me, ctl, t);
    t.ops += n;
    t.pc += repro::pmem::counters() - pc0;
    t.ms += repro::mem::stats() - ms0;
    end_slice(ctl, t);
  }

  std::uint64_t check(const Crew& crew) override {
    std::uint64_t failed = prefill_failed_;
    report(prefill_failed_, "prefill inserts of distinct keys returned false");
    std::vector<std::int64_t> snap;
    const std::vector<std::int64_t>* snapshot = nullptr;
    if constexpr (Detectable<S>) {
      if (s_->snapshot_keys(snap)) {
        snapshot = &snap;
      } else {
        ++failed;
        report(1, "snapshot_keys walk failed");
      }
      std::uint64_t bad = 0;
      for (int w = 0; w < crew.size(); ++w) {
        if (!recover_matches(s_->recover(crew.slot(w)),
                             per_[static_cast<std::size_t>(w)]->last)) {
          ++bad;
        }
      }
      report(bad, "workers whose recover(slot) differs from their last call");
      failed += bad;
    }
    std::vector<const SetLedger*> ledgers;
    for (const auto& p : per_) ledgers.push_back(&p->ledger);
    const std::uint64_t bad = check_set(
        initial_, ledgers, [this](std::int64_t k) { return s_->find(k); },
        snapshot);
    report(bad, "keys whose insert/erase accounting disagrees with find/snapshot");
    repro::mem::EpochDomain::instance().release_pin();
    return failed + bad;
  }

  std::uint64_t attempted() const override {
    std::uint64_t n = 0;
    for (const auto& p : per_) n += p->last.count;
    return n;
  }

 private:
  struct alignas(64) PerWorker {
    PerWorker(std::int64_t range, std::uint64_t ops_seed,
              std::uint64_t sampling_seed)
        : ledger(range), rng(ops_seed), sampler(sampling_seed) {}
    SetLedger ledger;
    Rng rng;
    Sampler sampler;
    LastOp last;
  };

  template <bool Traced>
  std::uint64_t loop(PerWorker& me, const RunCtl& ctl, Tally& t) {
    using repro::harness::OpType;
    S& s = *s_;
    std::uint64_t n = 0;
    while (n < ctl.max_ops && !ctl.stop->load(std::memory_order_relaxed)) {
      const OpType type = work_.pick_op(me.rng);
      const std::int64_t key = work_.pick_key(me.rng);
      CallProbe<Traced> probe(me.sampler, ctl);
      bool ok = false;
      Op op = Op::find;
      OpKind kind = OpKind::find;
      switch (type) {
        case OpType::insert:
          ok = s.insert(key);
          op = Op::insert;
          kind = OpKind::insert;
          break;
        case OpType::erase:
          ok = s.erase(key);
          op = Op::erase;
          kind = OpKind::erase;
          break;
        default:
          ok = s.find(key);
          break;
      }
      probe.done(t, op, ok);
      me.ledger.record(kind, key, ok);
      me.last = {kind, key, ok, ok ? 1u : 0u, me.last.count + 1};
      ++n;
    }
    return n;
  }

  Spec spec_;
  repro::harness::Workload work_;
  std::uint64_t seed_;
  std::uint64_t role_;
  std::unique_ptr<S> s_;
  std::vector<std::uint8_t> initial_;
  std::uint64_t prefill_failed_ = 0;
  std::vector<std::unique_ptr<PerWorker>> per_;
};

// ---------------------------------------------------------------------
// Queues: each worker alternates enqueue and dequeue.
// ---------------------------------------------------------------------
template <typename Q>
class QueueSubject final : public Subject {
 public:
  QueueSubject(std::string name, const Spec& spec, std::uint64_t seed,
               std::uint64_t role, int workers,
               const std::function<std::unique_ptr<Q>()>& make)
      : Subject(std::move(name)), spec_(spec), q_(make()) {
    for (int w = 0; w < workers; ++w) {
      per_.push_back(std::make_unique<PerWorker>(
          workers + 1, stream_seed(seed, role, Stream::sampling, w)));
    }
  }

  // Producer 0 is the prefill; worker w produces as producer w + 1.
  void prefill() override {
    for (std::uint64_t i = 0; i < spec_.queue_prefill; ++i) {
      q_->enqueue(queue_value(0, i));
    }
    repro::mem::EpochDomain::instance().release_pin();
  }

  void run(int w, const RunCtl& ctl, Tally& t) override {
    const repro::pmem::Counters pc0 = repro::pmem::counters();
    const repro::mem::Stats ms0 = repro::mem::stats();
    PerWorker& me = *per_[static_cast<std::size_t>(w)];
    const std::uint64_t n = ctl.traced ? loop<true>(me, w, ctl, t)
                                       : loop<false>(me, w, ctl, t);
    t.ops += n;
    t.pc += repro::pmem::counters() - pc0;
    t.ms += repro::mem::stats() - ms0;
    end_slice(ctl, t);
  }

  std::uint64_t check(const Crew& crew) override {
    std::uint64_t failed = 0;
    std::vector<std::uint64_t> snap;
    bool have_snapshot = false;
    if constexpr (Detectable<Q>) {
      std::uint64_t bad = 0;
      for (int w = 0; w < crew.size(); ++w) {
        if (!recover_matches(q_->recover(crew.slot(w)),
                             per_[static_cast<std::size_t>(w)]->last)) {
          ++bad;
        }
      }
      report(bad, "workers whose recover(slot) differs from their last call");
      failed += bad;
      have_snapshot = q_->snapshot_values(snap);
      if (!have_snapshot) {
        ++failed;
        report(1, "snapshot_values walk failed");
      }
    }
    std::vector<std::uint64_t> produced{spec_.queue_prefill};
    std::vector<const QueueLedger*> consumers;
    std::uint64_t enqueued = spec_.queue_prefill, dequeued = 0;
    for (const auto& p : per_) {
      produced.push_back(p->produced);
      consumers.push_back(&p->ledger);
      enqueued += p->produced;
      for (int i = 0; i <= crew.size(); ++i) dequeued += p->ledger.count(i);
    }
    const std::uint64_t left = enqueued > dequeued ? enqueued - dequeued : 0;
    // Drain from the main thread: the drain is one more consumer.  A
    // broken queue may never run empty, so stop one value past what it
    // can still hold; the surplus then fails check_queue.
    QueueLedger drain(crew.size() + 1);
    std::vector<std::uint64_t> drained;
    for (repro::ds::DequeueResult r = q_->dequeue();
         r.ok && drained.size() <= left; r = q_->dequeue()) {
      drained.push_back(r.value);
      drain.record(r.value);
    }
    repro::mem::EpochDomain::instance().release_pin();
    if (have_snapshot && snap != drained) {
      ++failed;
      report(1, "snapshot_values differs from the drained contents");
    }
    consumers.push_back(&drain);
    const std::uint64_t bad = check_queue(produced, consumers);
    report(bad, "values lost, duplicated, invented or out of producer order");
    return failed + bad;
  }

  std::uint64_t attempted() const override {
    std::uint64_t n = 0;
    for (const auto& p : per_) n += p->last.count;
    return n;
  }

 private:
  struct alignas(64) PerWorker {
    PerWorker(int producers, std::uint64_t sampling_seed)
        : ledger(producers), sampler(sampling_seed) {}
    QueueLedger ledger;
    Sampler sampler;
    LastOp last;
    std::uint64_t produced = 0;
    bool dequeue_next = false;
  };

  template <bool Traced>
  std::uint64_t loop(PerWorker& me, int w, const RunCtl& ctl, Tally& t) {
    Q& q = *q_;
    std::uint64_t n = 0;
    while (n < ctl.max_ops && !ctl.stop->load(std::memory_order_relaxed)) {
      CallProbe<Traced> probe(me.sampler, ctl);
      if (me.dequeue_next) {
        const repro::ds::DequeueResult r = q.dequeue();
        probe.done(t, Op::dequeue, r.ok);
        if (r.ok) me.ledger.record(r.value);
        me.last = {OpKind::dequeue, 0, r.ok, r.value, me.last.count + 1};
      } else {
        const std::uint64_t v = queue_value(w + 1, me.produced++);
        q.enqueue(v);
        probe.done(t, Op::enqueue, true);
        me.last = {OpKind::enqueue, static_cast<std::int64_t>(v), true, v,
                   me.last.count + 1};
      }
      me.dequeue_next = !me.dequeue_next;
      ++n;
    }
    return n;
  }

  Spec spec_;
  std::unique_ptr<Q> q_;
  std::vector<std::unique_ptr<PerWorker>> per_;
};

}  // namespace perfbench
