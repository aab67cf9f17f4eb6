// Recoverable Treiber stack with optional elimination (Section 6's
// direct-tracking elimination stack).  Every push/pop announces through
// the Detectable API and persists the top-of-stack line it modifies.
// With Config::elimination, a contended CAS retries through a
// recoverable exchanger instead: a push offering its value can cancel
// against a pop, and both complete without touching the stack.
//
// Popped nodes are retired through the epoch reclaimer after the pop
// commits (RetireAfterCommit) and recycled into the pool.  The classic
// Treiber ABA hazard that address reuse would reintroduce is closed by
// the epoch guard around each operation: a node's cell cannot be
// handed out again while any thread that read its old identity is
// still pinned.  Elimination descriptors hold no persistent words;
// they are retired directly (never destroyed in place) because the
// partner dereferences them inside its own guard.
#pragma once

#include <atomic>
#include <cstdint>

#include "repro/ds/detectable.hpp"
#include "repro/ds/isb_exchanger.hpp"
#include "repro/ds/policies.hpp"
#include "repro/mem/ebr.hpp"

namespace repro::ds {

template <typename Reclaimer = mem::EbrReclaimer>
class DtStackT {
 public:
  struct Config {
    bool elimination = false;
  };

  DtStackT() = default;
  explicit DtStackT(Config c) : cfg_(c) {}
  DtStackT(const DtStackT&) = delete;
  DtStackT& operator=(const DtStackT&) = delete;

  ~DtStackT() {
    Node* n = top_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* nx = n->next;
      Reclaimer::template destroy<Node>(n);
      n = nx;
    }
  }

  void push(std::uint64_t value) {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    DetectableOp op(board_, OpKind::push,
                    static_cast<std::int64_t>(value),
                    PersistProfile::general);
    Node* node = Reclaimer::template create<Node>(value, nullptr);
    while (true) {
      Node* old = top_.load(std::memory_order_acquire);
      node->next = old;
      if (top_.compare_exchange_strong(old, node,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        pmem::flush(&top_);
        pmem::fence();
        break;
      }
      if (cfg_.elimination) {
        // Contended: offer the value to a concurrent pop.
        ElimOp* offer = Reclaimer::template create<ElimOp>(true, value);
        const auto ex =
            exchanger_.exchange(reinterpret_cast<std::uint64_t>(offer),
                                kElimSpin);
        const bool eliminated =
            ex.ok && !reinterpret_cast<ElimOp*>(ex.value)->is_push;
        if (ex.ok) {
          // A partner holds the pointer and may still be reading it
          // inside its guard: defer the free past the grace period.
          Reclaimer::template retire<ElimOp>(offer);
        } else {
          Reclaimer::template destroy<ElimOp>(offer);  // never seen
        }
        if (eliminated) {
          Reclaimer::template destroy<Node>(node);  // pop took the value
          break;
        }
      }
    }
    op.commit(true, value);
  }

  DequeueResult pop() {
    [[maybe_unused]] typename Reclaimer::Guard guard;
    RetireAfterCommit<Reclaimer, Node> unlinked;
    DetectableOp op(board_, OpKind::pop, 0, PersistProfile::general);
    DequeueResult r{false, 0};
    while (true) {
      Node* old = top_.load(std::memory_order_acquire);
      if (old == nullptr) break;  // observed empty
      if (top_.compare_exchange_strong(old, old->next,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        pmem::flush(&top_);
        pmem::fence();
        r = {true, old->value};
        // This CAS (uniquely) unlinked old: retire it for recycling.
        unlinked.add(*this, old);
        break;
      }
      if (cfg_.elimination) {
        ElimOp* offer = Reclaimer::template create<ElimOp>(false, 0);
        const auto ex =
            exchanger_.exchange(reinterpret_cast<std::uint64_t>(offer),
                                kElimSpin);
        if (ex.ok) {
          const ElimOp* other = reinterpret_cast<ElimOp*>(ex.value);
          const bool matched_push = other->is_push;
          const std::uint64_t v = other->value;
          Reclaimer::template retire<ElimOp>(offer);
          if (matched_push) {
            r = {true, v};
            break;
          }
        } else {
          Reclaimer::template destroy<ElimOp>(offer);
        }
      }
    }
    op.commit(r.ok, r.value);
    unlinked.retire();
    return r;
  }

  Recovered recover(int slot) const { return board_.recover(slot); }

  // The stack is its own persistence policy for RetireAfterCommit: the
  // popped node's line, ordered by the commit's fence.
  static void pre_retire(const void* node) { pmem::flush(node); }

 private:
  struct Node {
    Node(std::uint64_t v, Node* n) : value(v), next(n) {}
    std::uint64_t value;
    Node* next;  // immutable once the node is linked
  };

  // Elimination protocol: both sides exchange pointers to an ElimOp
  // descriptor (never a raw value, so the full 64-bit value space is
  // preserved); a pairing only cancels when a push meets a pop.
  struct ElimOp {
    ElimOp(bool p, std::uint64_t v) : is_push(p), value(v) {}
    bool is_push;
    std::uint64_t value;
  };
  static constexpr int kElimSpin = 64;

  Config cfg_;
  std::atomic<Node*> top_{nullptr};
  AnnouncementBoard board_;
  IsbExchangerT<Reclaimer> exchanger_;
};

using DtStack = DtStackT<>;

}  // namespace repro::ds
