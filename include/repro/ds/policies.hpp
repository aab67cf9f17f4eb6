// Persistence policies: the detectable-recovery transformations the
// paper compares, expressed against the hook concept defined in
// harris_core.hpp / msqueue_core.hpp.  Each policy decides where
// pwb/pfence/psync are issued and what per-thread recovery metadata is
// maintained; the list and queue cores supply the traversal/CAS logic.
//
//   IsbPolicy      — the paper's tracking approach: one announcement
//                    descriptor per thread (detectable.hpp), a constant
//                    number of persistence instructions per operation,
//                    and the Algorithm-2 read-only optimization.
//   DtPolicy       — direct tracking: like ISB but additionally
//                    persists every logically-deleted node the search
//                    traverses, so its barrier count grows with update
//                    concurrency.
//   CapsulesPolicy — the capsules transformation (Ben-David et al.):
//                    execution is chopped into persistent continuation
//                    capsules; the general variant checkpoints at every
//                    shared read, the optimized variant only at helping
//                    points and CASes, and the normalized variant pays
//                    the extra capsule boundaries of the normalized
//                    three-phase form.
//   LogPolicy      — per-thread operation log (the log-queue baseline):
//                    an intent record is persisted before the operation
//                    and completed after it.
#pragma once

#include <cstdint>
#include <optional>

#include "repro/ds/detectable.hpp"

namespace repro::ds {

class IsbPolicy {
 public:
  struct Options {
    PersistProfile profile = PersistProfile::general;
    bool read_only_opt = true;
  };

  IsbPolicy() = default;
  explicit IsbPolicy(Options o) : opt_(o) {}

  void op_start(OpKind kind, std::int64_t key, bool read_only) {
    PerThread& t = tls_[thread_slot()];
    t.read_only = read_only;
    t.owes_fence = false;
    // Algorithm 2: a read-only operation that finds the structure
    // unchanged needs no durable trace at all.
    const bool persist_op = !(read_only && opt_.read_only_opt);
    t.op.emplace(board_, kind, key, opt_.profile, persist_op);
  }

  void visit(const void*, bool) {}
  void pre_cas(const void*) {}

  // A freshly initialised node is about to be published by a CAS: its
  // contents must be durable before any durable pointer to it exists,
  // or a crash could leave a link into never-persisted memory.  Both
  // profiles pay the pwb+pfence here — it is not one of the redundant
  // instructions the optimized placement may elide.
  void pre_publish(const void* node) {
    const PerThread& t = tls_[thread_slot()];
    if (t.read_only && opt_.read_only_opt) return;
    pmem::flush(node);
    pmem::fence();
  }

  void post_update(const void* primary, const void*) {
    PerThread& t = tls_[thread_slot()];
    pmem::flush(primary);
    if (t.read_only && opt_.read_only_opt) {
      // A read that snipped a marked chain retires the cells it
      // unlinked, so the snip must be durable before they can be
      // reused: one fence in op_end orders it with their pwbs.
      t.owes_fence = true;
      return;
    }
    if (opt_.profile == PersistProfile::general) {
      // The general transformation orders every written line
      // immediately; the tuned placement coalesces the link's
      // write-back into the commit's ordering fence.
      pmem::fence();
    }
  }

  // The link behind a tail swing must be durable before any thread
  // can build on it: the concurrent crash fuzzer caught the torn
  // durable chain a pending write-back leaves behind (an in-flight
  // enqueuer's link lost while every later thread's fenced effects
  // hang off it, durably unreachable).  On the success path
  // post_update just pwb'd the word, so only the ordering fence is
  // owed (+1 pfence per enqueue); on the helping path — a stalled
  // enqueuer's link, observed but never ours to pwb — the full
  // pwb+pfence fires, and only under contention.
  void expose(const void* addr) {
    if (!pmem::pwb_pending_mine(addr)) pmem::flush(addr);
    pmem::fence();
  }

  // The node's line, ordered by the commit's fence (or, for a read,
  // the one op_end owes).
  void pre_retire(const void* node) { pmem::flush(node); }

  void op_end(bool ok, std::uint64_t result, bool) {
    PerThread& t = tls_[thread_slot()];
    if (t.owes_fence) pmem::fence();
    if (t.op) {
      t.op->commit(ok, result);
      t.op.reset();
    }
  }

  AnnouncementBoard& board() { return board_; }
  const AnnouncementBoard& board() const { return board_; }

 private:
  struct alignas(64) PerThread {
    bool read_only = false;
    bool owes_fence = false;
    std::optional<DetectableOp> op;
  };

  Options opt_;
  AnnouncementBoard board_;
  PerThread tls_[kMaxThreads];
};

class DtPolicy {
 public:
  DtPolicy() = default;
  explicit DtPolicy(PersistProfile profile) : profile_(profile) {}

  void op_start(OpKind kind, std::int64_t key, bool) {
    tls_[thread_slot()].op.emplace(board_, kind, key, profile_);
  }

  // Direct tracking persists every logically-deleted node it reads so
  // that recovery can replay the helping it may have performed: one
  // pwb+pfence per marked node traversed.  This is the term that grows
  // with update concurrency in Figures 1b/1c.
  void visit(const void* node, bool marked) {
    if (marked) {
      pmem::flush(node);
      pmem::fence();
    }
  }

  void pre_cas(const void*) {}

  // See IsbPolicy::pre_publish: node contents durable before the link.
  void pre_publish(const void* node) {
    pmem::flush(node);
    pmem::fence();
  }

  void post_update(const void* primary, const void*) {
    pmem::flush(primary);
    // REPRO_MUTATE_DROP_PFENCE is the crash engine's mutation
    // self-test: building with it elides exactly this ordering fence,
    // and the fuzzer must then report a detectability violation (the
    // commit record can persist while the structural update is lost).
#ifndef REPRO_MUTATE_DROP_PFENCE
    pmem::fence();
#endif
  }

  // See IsbPolicy::expose.
  void expose(const void* addr) {
    if (!pmem::pwb_pending_mine(addr)) pmem::flush(addr);
    pmem::fence();
  }

  // See IsbPolicy::pre_retire; every DT operation commits durably.
  void pre_retire(const void* node) { pmem::flush(node); }

  void op_end(bool ok, std::uint64_t result, bool) {
    PerThread& t = tls_[thread_slot()];
    if (t.op) {
      t.op->commit(ok, result);
      t.op.reset();
    }
  }

  AnnouncementBoard& board() { return board_; }

 private:
  struct alignas(64) PerThread {
    std::optional<DetectableOp> op;
  };

  PersistProfile profile_ = PersistProfile::general;
  AnnouncementBoard board_;
  PerThread tls_[kMaxThreads];
};

class CapsulesPolicy {
 public:
  enum class Variant { general, optimized, normalized };

  CapsulesPolicy() = default;
  explicit CapsulesPolicy(Variant v) : variant_(v) {}

  void op_start(OpKind kind, std::int64_t key, bool) {
    Capsule& c = tls_[thread_slot()].cap;
    c.kind.store(static_cast<std::uint64_t>(kind));
    c.key.store(key);
    c.phase.store(0);
    checkpoint(c);
  }

  void visit(const void* node, bool marked) {
    Capsule& c = tls_[thread_slot()].cap;
    if (variant_ == Variant::optimized) {
      // The optimized construction only closes a capsule where the
      // continuation is not idempotent: helping a marked node.
      if (marked) checkpoint(c);
    } else {
      // General (and normalized) capsules persist the continuation at
      // every shared-memory read, so the cost scales with the length
      // of the traversal.
      (void)node;
      checkpoint(c);
    }
  }

  // Capsule continuations already checkpoint around the CAS; the new
  // node's line persists with the capsule machinery, so no extra
  // pre-publication instructions are counted for this transformation.
  void pre_publish(const void*) {}

  // Capsules recovery replays from the persisted continuation, not
  // from structure reachability, so exposure needs no extra
  // instructions (keeping the paper's instruction counts intact).
  void expose(const void*) {}

  void pre_cas(const void*) {
    Capsule& c = tls_[thread_slot()].cap;
    checkpoint(c);
    if (variant_ == Variant::normalized) {
      // The normalized form splits every CAS into the
      // generator/execution/wrap-up stages, each a capsule boundary.
      checkpoint(c);
      checkpoint(c);
    }
  }

  void post_update(const void* primary, const void*) {
    pmem::flush(primary);
    pmem::fence();
  }

  // Ordered by op_end's fence, like IsbPolicy::pre_retire.
  void pre_retire(const void* node) { pmem::flush(node); }

  void op_end(bool ok, std::uint64_t result, bool) {
    Capsule& c = tls_[thread_slot()].cap;
    c.ok.store(ok ? 1 : 0);
    c.result.store(result);
    pmem::flush(&c);
    pmem::fence();
    pmem::psync();
  }

 private:
  struct alignas(64) Capsule {
    pmem::persist<std::uint64_t> kind{0};
    pmem::persist<std::int64_t> key{0};
    pmem::persist<std::uint64_t> phase{0};
    pmem::persist<std::uint64_t> ok{0};
    pmem::persist<std::uint64_t> result{0};
  };
  struct alignas(64) PerThread {
    Capsule cap;
  };

  void checkpoint(Capsule& c) {
    c.phase.store(c.phase.load(std::memory_order_relaxed) + 1);
    pmem::flush(&c);
    pmem::fence();
  }

  Variant variant_ = Variant::general;
  PerThread tls_[kMaxThreads];
};

// Per-thread intent log, as used by the log-queue baseline: persist the
// operation record before touching the structure, complete it after.
class LogPolicy {
 public:
  void op_start(OpKind kind, std::int64_t key, bool) {
    Entry& e = tls_[thread_slot()].entry;
    e.seq.store(e.seq.load(std::memory_order_relaxed) + 1);
    e.kind.store(static_cast<std::uint64_t>(kind));
    e.value.store(static_cast<std::uint64_t>(key));
    e.done.store(0);
    pmem::flush(&e);
    pmem::fence();
  }

  void visit(const void*, bool) {}
  void pre_publish(const void*) {}
  void pre_cas(const void*) {}
  // Log recovery replays from the per-thread operation log, not from
  // structure reachability: no exposure instructions (paper counts
  // intact).
  void expose(const void*) {}

  void post_update(const void* primary, const void*) {
    pmem::flush(primary);
    pmem::fence();
  }

  // Ordered by op_end's fence, like IsbPolicy::pre_retire.
  void pre_retire(const void* node) { pmem::flush(node); }

  void op_end(bool ok, std::uint64_t result, bool) {
    Entry& e = tls_[thread_slot()].entry;
    e.ok.store(ok ? 1 : 0);
    e.value.store(result);
    e.done.store(1);
    pmem::flush(&e);
    pmem::fence();
    pmem::psync();
  }

 private:
  struct alignas(64) Entry {
    pmem::persist<std::uint64_t> seq{0};
    pmem::persist<std::uint64_t> kind{0};
    pmem::persist<std::uint64_t> ok{0};
    pmem::persist<std::uint64_t> value{0};
    pmem::persist<std::uint64_t> done{0};
  };
  struct alignas(64) PerThread {
    Entry entry;
  };

  PerThread tls_[kMaxThreads];
};

}  // namespace repro::ds
