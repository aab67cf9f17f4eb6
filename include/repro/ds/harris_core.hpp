// Harris lock-free linked list, parameterised by a persistence policy
// and a memory reclaimer.
//
// The paper evaluates one underlying list (Harris's marked-pointer list)
// under several detectable-recovery transformations that differ only in
// *where* they place pwb/pfence/psync and what per-thread recovery
// metadata they maintain.  The core therefore owns all traversal and CAS
// logic exactly once and surfaces the transformation points as policy
// hooks:
//
//   op_start(kind, key, read_only)      — operation announced
//   visit(node, marked)                 — node traversed during search
//   pre_cas(addr)                       — about to attempt a CAS
//   post_update(primary, secondary)     — a structural CAS succeeded
//   pre_retire(node)                    — this op's CAS unlinked node
//   op_end(ok, result, read_only)       — operation response decided
//
// The algorithm itself lives in HarrisOps: static functions over an
// explicit (head, tail) *segment* — a head sentinel, a tail sentinel,
// and the chain between them.  HarrisListCore runs them over its single
// segment; the Harris-Michael hash map (hm_hashtable.hpp) runs them
// over one segment per bucket, sharing one policy and one tail
// sentinel, so every persistence transformation transfers to the hash
// map without a line of new CAS logic.
//
// baselines::HarrisList instantiates the core with the no-op policy;
// the ISB, DT and Capsules lists instantiate it with their respective
// policies (see isb_list.hpp / dt_list.hpp / baselines/capsules_list.hpp).
//
// Memory management (the Reclaimer parameter, default mem::EbrReclaimer):
// nodes come from the per-thread pool, every operation runs inside an
// epoch guard, and each physically-unlinked node is retired exactly once
// — by the thread whose CAS removed it from the list (erase's unlink CAS
// or search's marked-chain snip; expected-value CAS semantics make the
// winner unique), after that thread's operation commits
// (RetireAfterCommit).  After its grace period a retired node is
// recycled into the owning pool instead of leaked.  mem::LeakReclaimer
// recovers the seed's leak-everything behaviour for ablation runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "repro/ds/detectable.hpp"
#include "repro/mem/ebr.hpp"

namespace repro::ds {

// One list cell; shared by every policy instantiation so all Harris
// variants draw from (and recycle into) the same node pool.  The link
// is a pmem::persist word: it is the state the persistence policies
// flush, so in shadow-NVM mode its mutations route through the
// write-log and a simulated crash can rewind it to the durable image.
// Construction is not logged (a node's initial fields model its state
// before it was ever published); outside shadow mode persist<> is a
// plain atomic.
struct ListNode {
  ListNode(std::int64_t k, ListNode* n) : key(k), next(n) {}
  std::int64_t key;
  pmem::persist<ListNode*> next;
};

// ---------------------------------------------------------------------
// The algorithm layer: Harris search/insert/erase/find over one
// (head, tail) segment.  Each entry point brackets itself with the
// policy's op_start/op_end and an epoch guard, so a caller owning many
// segments (the hash map) announces exactly one operation per call —
// the detectability contract is per *operation*, not per segment.
// ---------------------------------------------------------------------
template <typename Policy, typename Reclaimer = mem::EbrReclaimer>
struct HarrisOps {
  using Node = ListNode;
  using Unlinked = RetireAfterCommit<Reclaimer, Node>;

  static bool is_marked(Node* p) {
    return (reinterpret_cast<std::uintptr_t>(p) & 1u) != 0;
  }
  static Node* mark(Node* p) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) |
                                   1u);
  }
  static Node* unmark(Node* p) {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) &
                                   ~std::uintptr_t{1});
  }

  static bool insert(Node* head, Node* tail, Policy& policy,
                     std::int64_t key) {
    typename Reclaimer::Guard guard;
    Unlinked unlinked;
    policy.op_start(OpKind::insert, key, false);
    Node* node = nullptr;
    bool ok = false;
    while (true) {
      Node* left = nullptr;
      Node* right =
          search(head, tail, policy, guard, unlinked, key, &left);
      if (right != tail && right->key == key) {
        ok = false;
        break;
      }
      if (node == nullptr) {
        node = Reclaimer::template create<Node>(key, nullptr);
      }
      node->next.store(right, std::memory_order_relaxed);
      // Persist the initialised node before any durable link to it can
      // exist (see the policies' pre_publish contract).
      policy.pre_publish(node);
      policy.pre_cas(&left->next);
      Node* expected = right;
      if (left->next.cas(expected, node)) {
        policy.post_update(&left->next, node);
        ok = true;
        break;
      }
    }
    if (!ok && node != nullptr) {
      Reclaimer::template destroy<Node>(node);  // never linked
    }
    policy.op_end(ok, ok ? 1 : 0, false);
    unlinked.retire();
    return ok;
  }

  static bool erase(Node* head, Node* tail, Policy& policy,
                    std::int64_t key) {
    typename Reclaimer::Guard guard;
    Unlinked unlinked;
    policy.op_start(OpKind::erase, key, false);
    bool ok = false;
    while (true) {
      Node* left = nullptr;
      Node* right =
          search(head, tail, policy, guard, unlinked, key, &left);
      if (right == tail || right->key != key) {
        ok = false;
        break;
      }
      Node* right_next = right->next.load(std::memory_order_acquire);
      if (!is_marked(right_next)) {
        policy.pre_cas(&right->next);
        Node* expected = right_next;
        // Logical deletion: set the mark bit on right's next pointer.
        if (right->next.cas(expected, mark(right_next))) {
          policy.post_update(&right->next, nullptr);
          // Best-effort physical unlink; search() will finish the job
          // if this fails.
          policy.pre_cas(&left->next);
          Node* expl = right;
          if (left->next.cas(expl, right_next)) {
            policy.post_update(&left->next, nullptr);
            // This CAS (uniquely) unlinked right: it is ours to retire.
            unlinked.add(policy, right);
          }
          ok = true;
          break;
        }
      }
    }
    policy.op_end(ok, ok ? 1 : 0, false);
    unlinked.retire();
    return ok;
  }

  static bool find(Node* head, Node* tail, Policy& policy,
                   std::int64_t key) {
    typename Reclaimer::Guard guard;
    Unlinked unlinked;
    policy.op_start(OpKind::find, key, true);
    Node* left = nullptr;
    Node* right =
        search(head, tail, policy, guard, unlinked, key, &left);
    const bool ok = (right != tail && right->key == key);
    policy.op_end(ok, ok ? 1 : 0, true);
    unlinked.retire();
    return ok;
  }

  // Harris search: returns the first unmarked node with key >= `key`
  // and its unmarked predecessor, unlinking any marked chain in between
  // into `unlinked`.
  //
  // Under a hazard-pointer reclaimer (Guard::kHazards) every step runs
  // the protect/validate protocol: the candidate is published in a
  // hazard cell, then the link it was read from is re-read — a
  // mismatch means the candidate may already be unlinked (and past a
  // scan), so the traversal restarts.  Three hazard cells suffice:
  // slot 0 pins `left` (the CAS target after the search returns) and
  // slots 1/2 alternate between the current node and its source, so
  // the node a link was read *from* stays protected while the node it
  // points *to* is validated.  Epoch reclaimers compile all of it out
  // (kHazards == false).
  static Node* search(Node* head, Node* tail, Policy& policy,
                      typename Reclaimer::Guard& guard,
                      Unlinked& unlinked, std::int64_t key,
                      Node** left_node) {
    (void)guard;
    while (true) {
      Node* left = head;
      Node* left_next = head->next.load(std::memory_order_acquire);
      Node* t = head;
      Node* t_next = left_next;
      [[maybe_unused]] int hz = 1;
      bool restart = false;
      // Phase 1: advance until the first unmarked node with key >= key,
      // remembering the last unmarked predecessor.
      do {
        if (!is_marked(t_next)) {
          left = t;
          left_next = t_next;
          if constexpr (Reclaimer::Guard::kHazards) {
            // t is already covered by a rotating slot; slot 0 keeps it
            // covered after the rotation moves on.
            guard.protect(0, left);
          }
        }
        [[maybe_unused]] Node* src = t;
        [[maybe_unused]] Node* link = t_next;
        t = unmark(t_next);
        if (t == tail) break;
        if constexpr (Reclaimer::Guard::kHazards) {
          guard.protect(hz, t);
          // Validate: src (head, or protected by the other rotating
          // slot) must still link to t exactly as first read, or t may
          // already be unlinked — and reclaimed the moment our hazard
          // store lost the race with a scan.
          if (src->next.load(std::memory_order_acquire) != link) {
            restart = true;
            break;
          }
          hz ^= 3;  // 1 <-> 2: keep t protected while its successor is
                    // validated against it next iteration
        }
        t_next = t->next.load(std::memory_order_acquire);
        policy.visit(t, is_marked(t_next));
      } while (is_marked(t_next) || t->key < key);
      if (restart) continue;
      Node* right = t;

      // Phase 2: adjacent — done, unless right got marked meanwhile.
      if (left_next == right) {
        if (right != tail &&
            is_marked(right->next.load(std::memory_order_acquire))) {
          continue;
        }
        *left_node = left;
        return right;
      }

      // Phase 3: snip out the marked chain between left and right.
      policy.pre_cas(&left->next);
      Node* expected = left_next;
      if (left->next.cas(expected, right)) {
        policy.post_update(&left->next, nullptr);
        // The snip succeeded, so this thread exclusively owns the
        // marked chain [left_next, right): retire each node once.
        for (Node* p = unmark(left_next); p != right;) {
          Node* nx = unmark(p->next.load(std::memory_order_relaxed));
          unlinked.add(policy, p);
          p = nx;
        }
        if (right != tail &&
            is_marked(right->next.load(std::memory_order_acquire))) {
          continue;
        }
        *left_node = left;
        return right;
      }
    }
  }

  // Crash-time enumeration of one segment: appends the logical
  // (unmarked) keys reachable from `head` (exclusive) up to `tail`, in
  // link order.  After a simulated crash the links physically hold the
  // durable image, so an ordinary traversal reads durable truth — but
  // a detectability bug can leave a durable link into memory that was
  // never durably initialised, so the walk is defensive: each candidate
  // node must be a pool cell (mem::SlabDirectory) and the walk shares a
  // caller-owned step budget capping cycles across *all* of a caller's
  // segments.  Returns false — a verification failure, not UB — on any
  // anomaly.  Single-threaded: call with no concurrent mutators.
  static bool durable_segment(Node* head, Node* tail,
                              std::vector<std::int64_t>& out,
                              std::size_t& steps,
                              std::size_t max_steps) {
    Node* c = unmark(head->next.load());
    while (c != tail) {
      if (++steps > max_steps) return false;  // cycle / runaway chain
      if (!mem::SlabDirectory::instance().owns(c)) return false;
      Node* nx = c->next.load();
      if (!is_marked(nx)) out.push_back(c->key);
      c = unmark(nx);
    }
    return true;
  }

  // Unmarked-node count of one segment; only meaningful while no other
  // thread mutates.
  static std::size_t size_segment(Node* head, Node* tail) {
    std::size_t n = 0;
    for (Node* c = unmark(head->next.load()); c != tail;
         c = unmark(c->next.load())) {
      if (!is_marked(c->next.load())) ++n;
    }
    return n;
  }

  // Teardown: destroys every node linked from `head` (inclusive) until
  // `stop` (exclusive; pass nullptr to run off the end of the chain) —
  // including marked (logically-deleted but not yet physically
  // unlinked) nodes, which the unmark() walk reaches like any other
  // cell.  Unlinked nodes are not the destructor's to free: their
  // unlinker retired them and the epoch reclaimer returns them to the
  // pool independently of the structure's lifetime.
  static void destroy_segment(Node* head, Node* stop) {
    Node* n = head;
    while (n != stop) {
      Node* nx = unmark(n->next.load(std::memory_order_relaxed));
      Reclaimer::template destroy<Node>(n);
      n = nx;
    }
  }
};

template <typename Policy, typename Reclaimer = mem::EbrReclaimer>
class HarrisListCore {
 public:
  // Policies hold atomics (announcement boards, capsules) and cannot be
  // moved, so the core constructs its policy in place.
  template <typename... Args>
  explicit HarrisListCore(Args&&... args)
      : policy_(std::forward<Args>(args)...) {
    head_ = Reclaimer::template create<Node>(
        std::numeric_limits<std::int64_t>::min(), nullptr);
    tail_ = Reclaimer::template create<Node>(
        std::numeric_limits<std::int64_t>::max(), nullptr);
    head_->next.store(tail_, std::memory_order_relaxed);
  }

  ~HarrisListCore() { Ops::destroy_segment(head_, nullptr); }

  HarrisListCore(const HarrisListCore&) = delete;
  HarrisListCore& operator=(const HarrisListCore&) = delete;

  bool insert(std::int64_t key) {
    return Ops::insert(head_, tail_, policy_, key);
  }

  bool erase(std::int64_t key) {
    return Ops::erase(head_, tail_, policy_, key);
  }

  bool find(std::int64_t key) {
    return Ops::find(head_, tail_, policy_, key);
  }

  // Crash-time enumeration for the crash engine: collects the logical
  // (unmarked) keys reachable from head_, in order; see
  // HarrisOps::durable_segment for the defensive-walk contract.
  bool durable_keys(std::vector<std::int64_t>& out,
                    std::size_t max_steps = 1u << 20) const {
    out.clear();
    std::size_t steps = 0;
    return Ops::durable_segment(head_, tail_, out, steps, max_steps);
  }

  // Unmarked-node count; only meaningful while no other thread mutates.
  std::size_t size_slow() const {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    return Ops::size_segment(head_, tail_);
  }

  Policy& policy() { return policy_; }

 private:
  using Node = ListNode;
  using Ops = HarrisOps<Policy, Reclaimer>;

  Node* head_;
  Node* tail_;
  Policy policy_;
};

}  // namespace repro::ds
