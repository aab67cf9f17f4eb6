// The shared "detectable operation" API.
//
// Every recoverable structure in ds/ announces each update in a
// per-thread operation descriptor before touching the structure and
// commits its response into the same descriptor afterwards.  After a
// (simulated) crash, recover() reads the descriptor back and tells the
// owning thread whether its last operation took effect and what it
// returned — the paper's definition of detectable recovery.  Keeping
// announce/commit/recover here means IsbList, IsbQueue, DtList, the
// BST, the skiplist, the stack and the exchanger all share one
// implementation of the recovery protocol instead of re-deriving it.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "repro/pmem/persist.hpp"

namespace repro::ds {

using pmem::PersistProfile;

// Unified queue/stack response: `ok` is false when the container was
// observed empty.  Every queue in ds/ and baselines/ returns this from
// dequeue(), including the volatile MS-queue baseline.
struct DequeueResult {
  bool ok = false;
  std::uint64_t value = 0;
};

enum class OpKind : std::uint64_t {
  none = 0,
  insert,
  erase,
  find,
  enqueue,
  dequeue,
  push,
  pop,
  exchange,
};

// Fixed upper bound on concurrently announcing threads; descriptors are
// indexed by a process-wide thread slot.  Slots are recycled when a
// thread exits, so any number of threads may run over a process's
// lifetime — but more than kMaxThreads *live* at once is a hard error
// (two live threads sharing a descriptor would corrupt recovery state
// silently).
inline constexpr int kMaxThreads = 128;

namespace detail {
inline std::atomic<bool>* slot_table() {
  static std::atomic<bool> used[kMaxThreads];
  return used;
}
}  // namespace detail

inline int thread_slot() {
  struct Holder {
    int id;
    Holder() : id(-1) {
      std::atomic<bool>* used = detail::slot_table();
      for (int i = 0; i < kMaxThreads; ++i) {
        if (!used[i].exchange(true, std::memory_order_acq_rel)) {
          id = i;
          return;
        }
      }
      std::fprintf(stderr,
                   "repro: more than %d concurrent threads announcing "
                   "operations\n",
                   kMaxThreads);
      std::abort();
    }
    ~Holder() {
      detail::slot_table()[id].store(false, std::memory_order_release);
    }
  };
  thread_local const Holder holder;
  return holder.id;
}

// One cache line of notionally-persistent announcement state per
// thread.  Two records alternate by seq parity, and one word carries
// both the seq and the done bit, so every change to what recover()
// reports lands with a single 8-byte store: an announcement fills the
// next op's record and then advances the word; a commit fills the
// response and then sets the done bit.  A crash that tears either
// write — a line written back between two of its stores, or a killed
// process whose other threads stop at arbitrary stores — leaves the
// word naming a record that is whole.  The response is two separate
// values (ok packed beside the kind, result on its own) so the full
// 64-bit value space survives recovery intact.
struct alignas(64) OpDesc {
  struct Record {
    pmem::persist<std::uint64_t> kind_ok{0};  // OpKind | ok << 8
    pmem::persist<std::int64_t> key{0};       // operand (key / value)
    pmem::persist<std::uint64_t> result{0};   // committed response value
  };
  pmem::persist<std::uint64_t> seq_done{0};  // op counter << 1 | done
  Record records[2];

  static constexpr std::uint64_t kOk = std::uint64_t{1} << 8;
  Record& record(std::uint64_t seq) { return records[seq & 1]; }
  const Record& record(std::uint64_t seq) const { return records[seq & 1]; }
};
static_assert(sizeof(OpDesc) == 64, "one descriptor, one cache line");

// What a recovering thread learns from its descriptor.
struct Recovered {
  std::uint64_t seq = 0;
  OpKind kind = OpKind::none;
  std::int64_t key = 0;
  bool completed = false;      // commit reached the descriptor
  bool ok = false;             // operation's boolean response
  std::uint64_t result = 0;    // operation's value (valid when completed)
};

// The per-structure array of descriptors (the paper's Info structures).
class AnnouncementBoard {
 public:
  OpDesc& mine() { return slots_[thread_slot()]; }
  const OpDesc& slot(int i) const { return slots_[i]; }

  Recovered recover(int slot) const {
    const OpDesc& d = slots_[slot];
    const std::uint64_t word = d.seq_done.load();
    Recovered r;
    r.seq = word >> 1;
    r.completed = (word & 1) != 0;
    const OpDesc::Record& rec = d.record(r.seq);
    const std::uint64_t kind_ok = rec.kind_ok.load();
    r.kind = static_cast<OpKind>(kind_ok & 0xFF);
    r.ok = (kind_ok & OpDesc::kOk) != 0;
    r.key = rec.key.load();
    r.result = rec.result.load();
    return r;
  }

 private:
  OpDesc slots_[kMaxThreads];
};

// RAII announce/commit for one detectable operation.
//
// Persistence placement by profile (this is the Isb vs Isb-Opt split the
// figures plot):
//   general   — the announcement itself is flushed and fenced before the
//               structure is touched, and the commit is flushed and
//               fenced before the final psync: 2 pwb + 2 pfence + 1
//               psync of descriptor traffic per operation.
//   optimized — the announcement write stays in the store buffer (a
//               crash before the structure's durable CAS makes the op a
//               no-op either way, so persisting it early is redundant);
//               only the commit is flushed, with a leading pfence that
//               orders the structure's pending write-backs before the
//               "done" record: 1 pwb + 2 pfence + 1 psync.
//
// Structure-specific pwbs (the modified link, the new node) are issued
// by the caller between announce and commit.
class DetectableOp {
 public:
  DetectableOp(AnnouncementBoard& board, OpKind kind, std::int64_t key,
               PersistProfile profile, bool persist_this_op = true)
      : d_(board.mine()),
        seq_((d_.seq_done.load(std::memory_order_relaxed) >> 1) + 1),
        rec_(d_.record(seq_)),
        kind_(static_cast<std::uint64_t>(kind)),
        profile_(profile),
        persisted_(persist_this_op) {
    rec_.kind_ok.store(kind_);
    rec_.key.store(key);
    d_.seq_done.store(seq_ << 1);  // announced, pending
    if (persisted_ && profile_ == PersistProfile::general) {
      pmem::flush(&d_);
      pmem::fence();
    }
  }

  // Record the response and make the whole operation durable.  The
  // effect must be durable before the "done" record is: the general
  // profile got that ordering from the pfence its policy issues after
  // every structural update, but the optimized placement leaves the
  // structure's pwbs pending, so an adversarial crash (shadow-NVM
  // mode, unordered write-backs) could persist the response while
  // losing the effect — a detectability violation the crash fuzzer
  // finds immediately.  The leading pfence closes that window.
  void commit(bool ok, std::uint64_t result) {
    if (persisted_ && profile_ == PersistProfile::optimized) {
      pmem::fence();
    }
#ifdef REPRO_MUTATE_DROP_MSYNC
    // Mutation self-test for the fork-kill harness (killfuzz.hpp): in
    // the mmap backend the commit's pwb/pfence/psync mapping is what
    // orders the response words before the durable "done" bit.
    // Eliding that mapping permits the write-back carrying `done` to
    // reach the file ahead of the response; a real SIGKILL cannot
    // reorder a single thread's stores, so the mutated build emulates
    // the permitted reorder explicitly — the done bit first, then a
    // persistence boundary (where an armed kill lands), then the
    // response.  A kill in that window leaves a descriptor that
    // durably says done with a stale response, which the kill
    // verifier must flag.
    if (pmem::mode() == pmem::Mode::mmap) {
      d_.seq_done.store(seq_ << 1 | 1);
      if (persisted_) {
        pmem::flush(&d_);
        pmem::psync();
      }
      rec_.result.store(result);
      rec_.kind_ok.store(kind_ | (ok ? OpDesc::kOk : 0));
      if (persisted_) pmem::fence();
      committed_ = true;
      return;
    }
#endif
    rec_.result.store(result);
    rec_.kind_ok.store(kind_ | (ok ? OpDesc::kOk : 0));
    d_.seq_done.store(seq_ << 1 | 1);  // done
    if (persisted_) {
      pmem::flush(&d_);
      pmem::fence();
      pmem::psync();
    }
    committed_ = true;
  }

  // An uncommitted descriptor left behind models a crash mid-operation;
  // recover() will report it as not completed.
  ~DetectableOp() = default;

  DetectableOp(const DetectableOp&) = delete;
  DetectableOp& operator=(const DetectableOp&) = delete;

  bool committed() const { return committed_; }

 private:
  OpDesc& d_;
  std::uint64_t seq_;
  OpDesc::Record& rec_;
  std::uint64_t kind_;
  PersistProfile profile_;
  bool persisted_;
  bool committed_ = false;
};

// No-op persistence policy: instantiating a core with it yields the
// original volatile structure (the Harris-LL / MS-Queue baselines).
struct NullPolicy {
  void op_start(OpKind, std::int64_t, bool) {}
  void visit(const void*, bool) {}
  void pre_publish(const void*) {}
  void pre_cas(const void*) {}
  void post_update(const void*, const void*) {}
  // A durable word is about to become reachable through a shared hot
  // pointer (the queue's tail swing): tracking policies must make it
  // durable *now*, or effects other threads durably commit on top of
  // it are orphaned by a crash (see MsQueueCore::enqueue).
  void expose(const void*) {}
  // A node this operation unlinked will be retired after op_end.
  void pre_retire(const void*) {}
  void op_end(bool, std::uint64_t, bool) {}
};

// Retire after commit: the nodes an operation unlinked wait in a
// reused per-thread buffer (operations never nest over one node type)
// until the operation has committed.  The policy pwbs each node's line
// at the unlink (pre_retire; pool cells are line-aligned) and the
// commit's fence orders it, so a parked cell is already durable and
// retiring costs no fence of its own.  A crash that unwinds the
// operation drops the buffer: a real crash parks no cells.
// REPRO_MUTATE_DROP_RETIRE_PERSIST (reclaim-crash fuzzer self-test)
// retires at the unlink instead, before the commit fence, without the
// pwb.
template <typename Reclaimer, typename Node>
class RetireAfterCommit {
 public:
  RetireAfterCommit() = default;
  RetireAfterCommit(const RetireAfterCommit&) = delete;
  RetireAfterCommit& operator=(const RetireAfterCommit&) = delete;
  ~RetireAfterCommit() {
    if (buf_ != nullptr) buf_->clear();
  }

  template <typename Policy>
  void add(Policy& policy, Node* node) {
#ifdef REPRO_MUTATE_DROP_RETIRE_PERSIST
    (void)policy;
    Reclaimer::template retire<Node>(node);
#else
    policy.pre_retire(node);
    if (buf_ == nullptr) buf_ = &buffer();
    buf_->push_back(node);
#endif
  }

  // After op_end / commit.
  void retire() {
    if (buf_ == nullptr) return;
    for (Node* n : *buf_) Reclaimer::template retire<Node>(n);
    buf_->clear();
  }

 private:
  static std::vector<Node*>& buffer() {
    thread_local std::vector<Node*> b;
    return b;
  }
  std::vector<Node*>* buf_ = nullptr;
};

}  // namespace repro::ds
