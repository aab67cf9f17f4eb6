// Michael-Scott lock-free queue, parameterised by the same persistence
// policy concept as HarrisListCore (see harris_core.hpp) and the same
// memory reclaimer.  MsQueue, IsbQueue, LogQueue and CapsulesQueue are
// all instantiations of this core; they differ only in the
// pwb/pfence/psync placement and the per-thread recovery metadata their
// policies maintain.
//
// A dequeue retires the node it uninstalled from head_ (the old dummy)
// once its head CAS succeeds and the operation has committed
// (RetireAfterCommit) — the winner of that CAS is unique, so each node
// is retired exactly once and recycled into the pool after its epoch
// grace period.  The epoch guard around each operation is
// also what makes node reuse ABA-safe: head_/tail_/next CASes can only
// observe a recycled address after every thread that read the old
// identity has gone quiescent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/mem/ebr.hpp"

namespace repro::ds {

// One queue cell; shared by every policy instantiation so all MS-queue
// variants draw from the same node pool.  Both words are pmem::persist
// cells and the constructor initialises them through store() rather
// than member-init: persist<T> construction is never shadow-logged,
// but these stores are, so a node created while a crash plan is armed
// has durable baseline 0/nullptr until pre_publish flushes it.  That
// is what makes an elided pre_publish *visible* to the crash engine —
// a durable link can then reach a node whose payload rewinds to zero
// (the REPRO_MUTATE_DROP_PREPUBLISH self-test relies on it).  Pool
// cells are cache-line-aligned, so one pwb of the node covers both
// words.
struct QueueNode {
  QueueNode(std::uint64_t v, QueueNode* n) {
    value.store(v, std::memory_order_relaxed);
    next.store(n, std::memory_order_relaxed);
  }
  pmem::persist<std::uint64_t> value;
  pmem::persist<QueueNode*> next;
};

template <typename Policy, typename Reclaimer = mem::EbrReclaimer>
class MsQueueCore {
 public:
  // Policies hold atomics and cannot be moved; construct in place.
  template <typename... Args>
  explicit MsQueueCore(Args&&... args)
      : policy_(std::forward<Args>(args)...) {
    Node* dummy = Reclaimer::template create<Node>(0, nullptr);
    head_.store(dummy, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  // Teardown: everything reachable from head_ — the current dummy plus
  // all still-enqueued nodes — is freed here; every *dequeued* node was
  // already retired by its dequeuer and is reclaimed independently of
  // this structure's lifetime (audited against the list destructor:
  // neither can skip a linked node, and neither touches unlinked ones).
  ~MsQueueCore() {
    Node* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* nx = n->next.load(std::memory_order_relaxed);
      Reclaimer::template destroy<Node>(n);
      n = nx;
    }
  }

  MsQueueCore(const MsQueueCore&) = delete;
  MsQueueCore& operator=(const MsQueueCore&) = delete;

  void enqueue(std::uint64_t value) {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    policy_.op_start(OpKind::enqueue, static_cast<std::int64_t>(value),
                     false);
    Node* node = Reclaimer::template create<Node>(value, nullptr);
    // Persist the initialised node before any durable link to it can
    // exist; its fields never change afterwards, so once is enough
    // even across CAS retries.  REPRO_MUTATE_DROP_PREPUBLISH is the
    // concurrent crash fuzzer's mutation self-test: eliding exactly
    // this call lets a durable link reach a node whose payload was
    // never persisted, and the fuzzer must report it.
#ifndef REPRO_MUTATE_DROP_PREPUBLISH
    policy_.pre_publish(node);
#endif
    while (true) {
      Node* last = tail_.load(std::memory_order_acquire);
      if constexpr (Reclaimer::Guard::kHazards) {
        // Protect-then-validate before the first dereference of last:
        // if tail_ still holds it after the (seq_cst) hazard store,
        // last was not yet uninstalled, so no scan can free it while
        // the hazard stands.
        guard.protect(0, last);
        if (last != tail_.load(std::memory_order_acquire)) continue;
      }
      Node* next = last->next.load(std::memory_order_acquire);
      policy_.visit(last, false);
      if (last != tail_.load(std::memory_order_acquire)) continue;
      if (next == nullptr) {
        policy_.pre_cas(&last->next);
        Node* expected = nullptr;
        if (last->next.cas(expected, node)) {
          // The link CAS is the (durable) linearization point; the tail
          // swing below is volatile bookkeeping that recovery rebuilds.
          policy_.post_update(&last->next, node);
          // Persist-link-before-tail-swing: once tail_ points at this
          // node, other threads will append behind it and durably
          // commit — if this link were still pending in a write-back
          // queue, a crash would orphan every one of their effects
          // (the durable chain would break here).  The concurrent
          // crash fuzzer found exactly that tear; see expose() in the
          // policies and the durable-queue literature (Friedman et
          // al.) for the rule.
          policy_.expose(&last->next);
          Node* expl = last;
          tail_.cas(expl, node);
          break;
        }
      } else {
        // Helping a stalled enqueuer: the observed link may still be
        // volatile-only (the enqueuer crashed or was preempted before
        // exposing it).  Persist it before swinging tail past it, or
        // the chain built on top of it is durably unreachable.
        policy_.expose(&last->next);
        Node* expl = last;  // help a stalled enqueuer
        tail_.cas(expl, next);
      }
    }
    policy_.op_end(true, value, false);
  }

  DequeueResult dequeue() {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    RetireAfterCommit<Reclaimer, Node> unlinked;
    policy_.op_start(OpKind::dequeue, 0, false);
    DequeueResult r;
    while (true) {
      Node* first = head_.load(std::memory_order_acquire);
      if constexpr (Reclaimer::Guard::kHazards) {
        // Protect first before dereferencing its next link (below).
        guard.protect(0, first);
        if (first != head_.load(std::memory_order_acquire)) continue;
      }
      Node* last = tail_.load(std::memory_order_acquire);
      Node* next = first->next.load(std::memory_order_acquire);
      policy_.visit(first, false);
      if (first != head_.load(std::memory_order_acquire)) continue;
      if (next == nullptr) {
        r = {false, 0};  // observed empty
        break;
      }
      if (first == last) {
        // Same rule as the enqueue helper: never swing tail past a
        // link that is not yet durable.
        policy_.expose(&first->next);
        Node* expl = last;  // tail lagging: help
        tail_.cas(expl, next);
        continue;
      }
      if constexpr (Reclaimer::Guard::kHazards) {
        // Protect next before reading its value: head_ still holding
        // first means first was not uninstalled, so next is still the
        // first real node — reachable, hence not retired.
        guard.protect(1, next);
        if (first != head_.load(std::memory_order_acquire)) continue;
      }
      const std::uint64_t value =
          next->value.load(std::memory_order_acquire);
      policy_.pre_cas(&head_);
      Node* expf = first;
      if (head_.cas(expf, next)) {
        policy_.post_update(&head_, nullptr);
        // This CAS (uniquely) uninstalled `first` as the dummy.
        unlinked.add(policy_, first);
        r = {true, value};
        break;
      }
    }
    policy_.op_end(r.ok, r.value, false);
    unlinked.retire();
    return r;
  }

  // Crash-time enumeration for the crash engine: the values reachable
  // from the durable head (the node after the dummy onward), front to
  // back.  Same defensive contract as HarrisListCore::durable_keys —
  // pointer-validated against the pool directory and step-capped; the
  // (volatile, recovery-rebuilt) tail is deliberately ignored.
  // Single-threaded: call with no concurrent mutators.
  bool durable_values(std::vector<std::uint64_t>& out,
                      std::size_t max_steps = 1u << 20) const {
    out.clear();
    Node* dummy = head_.load();
    if (!mem::SlabDirectory::instance().owns(dummy)) return false;
    Node* c = dummy->next.load();
    std::size_t steps = 0;
    while (c != nullptr) {
      if (++steps > max_steps) return false;  // cycle / runaway chain
      if (!mem::SlabDirectory::instance().owns(c)) return false;
      out.push_back(c->value.load());
      c = c->next.load();
    }
    return true;
  }

  Policy& policy() { return policy_; }

 private:
  using Node = QueueNode;

  alignas(64) pmem::persist<Node*> head_;
  alignas(64) pmem::persist<Node*> tail_;
  Policy policy_;
};

}  // namespace repro::ds
