// Golden accept/reject histories for the durable-linearizability
// checker (harness/linearize.hpp), per registry Kind: plain
// linearizability over completed ops, real-time precedence, the
// exchanger pairing rule, and the durable-cut extension — must / may /
// must_not pending verdicts against a walked durable image, including
// a crash history where the same pending op both may linearize (may +
// effect durable) and must not (must_not + effect durable), and the
// buffered-cut case a strict end-state check would wrongly reject.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "repro/harness/history.hpp"
#include "repro/harness/linearize.hpp"

namespace {

using namespace repro;
using harness::HistoryEvent;
using harness::lin::check;
using harness::lin::judge_lane;
using harness::lin::kNever;
using harness::lin::Op;
using harness::lin::Pending;
using harness::lin::Result;
using harness::lin::Semantics;
using harness::lin::Spec;
using harness::lin::Verdict;
using ds::OpKind;

Op op(int lane, OpKind k, std::int64_t input, std::uint64_t inv,
      std::uint64_t resp, bool ok, std::uint64_t result,
      Pending p = Pending::completed) {
  Op o;
  o.lane = lane;
  o.kind = k;
  o.input = input;
  o.invoke_ts = inv;
  o.response_ts = resp;
  o.ok = ok;
  o.result = result;
  o.pending = p;
  return o;
}

Spec spec_of(Semantics s) {
  Spec sp;
  sp.kind = s;
  return sp;
}

// ---------------------------------------------------------------------
// Set
// ---------------------------------------------------------------------

TEST(LinearizeSet, SequentialHistoryAccepted) {
  const std::vector<Op> ops = {
      op(0, OpKind::insert, 5, 1, 2, true, 1),
      op(0, OpKind::find, 5, 3, 4, true, 1),
      op(0, OpKind::erase, 5, 5, 6, true, 1),
      op(0, OpKind::find, 5, 7, 8, false, 0),
  };
  EXPECT_EQ(check(ops, spec_of(Semantics::set)).verdict,
            Verdict::linearizable);
}

TEST(LinearizeSet, FindOfNeverInsertedKeyRejected) {
  const std::vector<Op> ops = {
      op(0, OpKind::insert, 5, 1, 2, true, 1),
      op(1, OpKind::find, 7, 3, 4, true, 1),  // 7 was never inserted
  };
  const Result r = check(ops, spec_of(Semantics::set));
  EXPECT_EQ(r.verdict, Verdict::violation);
}

TEST(LinearizeSet, OverlappingInsertsOfOneKeyOneWins) {
  // Two concurrent inserts of 5: exactly one may succeed.
  const std::vector<Op> both_ok = {
      op(0, OpKind::insert, 5, 1, 10, true, 1),
      op(1, OpKind::insert, 5, 2, 11, true, 1),
  };
  EXPECT_EQ(check(both_ok, spec_of(Semantics::set)).verdict,
            Verdict::violation);
  const std::vector<Op> one_ok = {
      op(0, OpKind::insert, 5, 1, 10, true, 1),
      op(1, OpKind::insert, 5, 2, 11, false, 0),
  };
  EXPECT_EQ(check(one_ok, spec_of(Semantics::set)).verdict,
            Verdict::linearizable);
}

TEST(LinearizeSet, RealTimePrecedenceEnforced) {
  // erase(5)=true completes strictly before insert(5) is invoked, so
  // the erase cannot linearize after the insert even though that
  // ordering would explain the responses.
  const std::vector<Op> ops = {
      op(0, OpKind::erase, 5, 1, 2, true, 1),   // needs 5 present
      op(1, OpKind::insert, 5, 3, 4, true, 1),  // starts after the erase
  };
  Spec sp = spec_of(Semantics::set);
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
  sp.initial_keys = {5};  // prefilled: erase first is now legal
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
}

// ---------------------------------------------------------------------
// Queue / stack
// ---------------------------------------------------------------------

TEST(LinearizeQueue, FifoOrderAccepted) {
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, 2, true, 101),
      op(0, OpKind::enqueue, 102, 3, 4, true, 102),
      op(1, OpKind::dequeue, 0, 5, 6, true, 101),
      op(1, OpKind::dequeue, 0, 7, 8, true, 102),
  };
  EXPECT_EQ(check(ops, spec_of(Semantics::queue)).verdict,
            Verdict::linearizable);
}

TEST(LinearizeQueue, NonFifoHistoryRejected) {
  // The known-non-linearizable queue history: both enqueues complete
  // (in real time) before the dequeues run, yet the dequeues observe
  // LIFO order.
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, 2, true, 101),
      op(0, OpKind::enqueue, 102, 3, 4, true, 102),
      op(1, OpKind::dequeue, 0, 5, 6, true, 102),
      op(1, OpKind::dequeue, 0, 7, 8, true, 101),
  };
  const Result r = check(ops, spec_of(Semantics::queue));
  EXPECT_EQ(r.verdict, Verdict::violation);
}

TEST(LinearizeQueue, OverlappingEnqueuesDequeueEitherOrder) {
  // The two enqueues overlap, so the dequeue order is free.
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, 10, true, 101),
      op(1, OpKind::enqueue, 102, 2, 11, true, 102),
      op(2, OpKind::dequeue, 0, 12, 13, true, 102),
      op(2, OpKind::dequeue, 0, 14, 15, true, 101),
  };
  EXPECT_EQ(check(ops, spec_of(Semantics::queue)).verdict,
            Verdict::linearizable);
}

TEST(LinearizeQueue, EmptyDequeueOnlyWhenEmptyExplainable) {
  Spec sp = spec_of(Semantics::queue);
  sp.initial_values = {7};
  const std::vector<Op> ops = {
      op(0, OpKind::dequeue, 0, 1, 2, false, 0),  // before the drain?
      op(0, OpKind::dequeue, 0, 3, 4, true, 7),
  };
  // Sequential: the failed dequeue runs first but the queue holds 7.
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
}

TEST(LinearizeStack, LifoAcceptedAndRejected) {
  const std::vector<Op> good = {
      op(0, OpKind::push, 1, 1, 2, true, 1),
      op(0, OpKind::push, 2, 3, 4, true, 2),
      op(1, OpKind::pop, 0, 5, 6, true, 2),
      op(1, OpKind::pop, 0, 7, 8, true, 1),
  };
  EXPECT_EQ(check(good, spec_of(Semantics::stack)).verdict,
            Verdict::linearizable);
  const std::vector<Op> bad = {
      op(0, OpKind::push, 1, 1, 2, true, 1),
      op(0, OpKind::push, 2, 3, 4, true, 2),
      op(1, OpKind::pop, 0, 5, 6, true, 1),  // FIFO order: not a stack
      op(1, OpKind::pop, 0, 7, 8, true, 2),
  };
  EXPECT_EQ(check(bad, spec_of(Semantics::stack)).verdict,
            Verdict::violation);
}

// ---------------------------------------------------------------------
// Exchanger
// ---------------------------------------------------------------------

TEST(LinearizeExchanger, OverlappingPairSwapsValues) {
  const std::vector<Op> ops = {
      op(0, OpKind::exchange, 10, 1, 4, true, 20),
      op(1, OpKind::exchange, 20, 2, 5, true, 10),
  };
  EXPECT_EQ(check(ops, spec_of(Semantics::exchanger)).verdict,
            Verdict::linearizable);
}

TEST(LinearizeExchanger, MismatchedOrNonOverlappingPairRejected) {
  const std::vector<Op> wrong_value = {
      op(0, OpKind::exchange, 10, 1, 4, true, 99),  // nobody offered 99
      op(1, OpKind::exchange, 20, 2, 5, true, 10),
  };
  EXPECT_EQ(check(wrong_value, spec_of(Semantics::exchanger)).verdict,
            Verdict::violation);
  const std::vector<Op> disjoint = {
      op(0, OpKind::exchange, 10, 1, 2, true, 20),  // done before #2
      op(1, OpKind::exchange, 20, 3, 4, true, 10),  // starts after #1
  };
  EXPECT_EQ(check(disjoint, spec_of(Semantics::exchanger)).verdict,
            Verdict::violation);
  const std::vector<Op> timeouts = {
      op(0, OpKind::exchange, 10, 1, 2, false, 0),
      op(1, OpKind::exchange, 20, 3, 4, false, 0),
  };
  EXPECT_EQ(check(timeouts, spec_of(Semantics::exchanger)).verdict,
            Verdict::linearizable);
}

// ---------------------------------------------------------------------
// Durable cut: crash histories
// ---------------------------------------------------------------------

// One crash history, the verdict spectrum for the same pending
// insert(5):
//   may      + 5 durable     → accepted (cut after the insert)
//   may      + 5 not durable → accepted (insert excluded / after cut)
//   must     + 5 not durable → accepted for sets — the hostage window
//              (see lin::check) means a committed set op's effect can
//              be durably unreachable through an upstream thread's
//              unfenced link, so only the response is pinned
//   must     + wrong response → rejected (descriptor lies about the
//              response: insert(5)=false is impossible on an empty set)
//   must_not + 5 durable     → rejected (trace of an op that left none)
TEST(LinearizeDurable, PendingVerdictsAgainstTheDurableImage) {
  auto pending_insert = [](Pending p, bool ok) {
    Op o = op(0, OpKind::insert, 5, 1, kNever, ok, ok ? 1 : 0, p);
    return std::vector<Op>{o};
  };
  Spec with5 = spec_of(Semantics::set);
  with5.check_durable = true;
  with5.durable_keys = {5};
  Spec without5 = spec_of(Semantics::set);
  without5.check_durable = true;

  EXPECT_EQ(check(pending_insert(Pending::may, false), with5).verdict,
            Verdict::linearizable);
  EXPECT_EQ(check(pending_insert(Pending::may, false), without5).verdict,
            Verdict::linearizable);
  EXPECT_EQ(check(pending_insert(Pending::must, true), without5).verdict,
            Verdict::linearizable);
  EXPECT_EQ(check(pending_insert(Pending::must, true), with5).verdict,
            Verdict::linearizable);
  // A must verdict still pins the response: a durably-committed
  // insert(5)=false on an empty initial set cannot linearize.
  EXPECT_EQ(check(pending_insert(Pending::must, false), without5).verdict,
            Verdict::violation);
  EXPECT_EQ(
      check(pending_insert(Pending::must_not, true), with5).verdict,
      Verdict::violation);
  EXPECT_EQ(
      check(pending_insert(Pending::must_not, true), without5).verdict,
      Verdict::linearizable);
}

TEST(LinearizeDurable, MustEnqueueInsideTheCut) {
  // Descriptor-committed enqueue: its value must be in the durable
  // queue, at a FIFO-consistent position.
  Spec sp = spec_of(Semantics::queue);
  sp.initial_values = {1};
  sp.check_durable = true;
  sp.durable_values = {1};  // effect missing
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, kNever, true, 101, Pending::must),
  };
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
  sp.durable_values = {1, 101};  // effect present
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
}

TEST(LinearizeDurable, BufferedCutAcceptsVolatileSuffix) {
  // Thread 1 completes find(5)=true having observed thread 0's still
  // in-flight insert(5); the crash then loses the insert.  A strict
  // end-state check would reject this history, but the durable image
  // is a legal *cut* (before both ops), and the suffix [insert, find]
  // linearizes on volatile state — exactly the flush-on-read window
  // the Isb/DT policies leave open (pre_cas is a no-op).
  Spec sp = spec_of(Semantics::set);
  sp.check_durable = true;  // durable image: empty
  const std::vector<Op> ops = {
      op(0, OpKind::insert, 5, 1, kNever, false, 0, Pending::may),
      op(1, OpKind::find, 5, 2, 3, true, 1),
  };
  const Result r = check(ops, sp);
  EXPECT_EQ(r.verdict, Verdict::linearizable);
  EXPECT_EQ(r.cut, 0);  // the durable prefix is empty
}

TEST(LinearizeDurable, CompletedEffectAfterCutIsLegal) {
  // A completed insert built on another thread's unpersisted link can
  // be rewound wholesale; buffered durable linearizability places it
  // after the cut rather than rejecting the history.
  Spec sp = spec_of(Semantics::set);
  sp.check_durable = true;  // durable image: empty
  const std::vector<Op> ops = {
      op(0, OpKind::insert, 7, 1, 2, true, 1),
  };
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
}

// The no-hostage rule: where no other lane can hold a link hostage
// (one lane, or a lane's disjoint key slice of a killed process), the
// same one-lane history's completed insert must be in the durable
// image — the buffered acceptance above does not apply.
TEST(LinearizeDurable, PinnedCompletedEffectMissingFromTheCutRejected) {
  Spec sp = spec_of(Semantics::set);
  sp.check_durable = true;  // durable image: empty
  sp.pin_effects = true;
  const std::vector<Op> ops = {
      op(0, OpKind::insert, 7, 1, 2, true, 1),
      op(0, OpKind::find, 9, 3, 4, false, 0),  // reads may follow the cut
  };
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
  sp.durable_keys = {7};
  const Result r = check(ops, sp);
  EXPECT_EQ(r.verdict, Verdict::linearizable);
  EXPECT_GE(r.cut, 1);
  // A pending may-insert is free either way; a must one is pinned.
  std::vector<Op> pending = {
      op(0, OpKind::insert, 7, 1, 2, true, 1),
      op(0, OpKind::insert, 8, 3, kNever, false, 0, Pending::may),
  };
  EXPECT_EQ(check(pending, sp).verdict, Verdict::linearizable);
  sp.durable_keys = {7, 8};
  EXPECT_EQ(check(pending, sp).verdict, Verdict::linearizable);
  pending[1] = op(0, OpKind::insert, 8, 3, kNever, true, 1, Pending::must);
  sp.durable_keys = {7};
  EXPECT_EQ(check(pending, sp).verdict, Verdict::violation);
}

TEST(LinearizeDurable, PinnedQueueDurableImageIsTheCompletedPrefix) {
  // One-lane queue: a completed enqueue after the cut is a lost
  // effect, not a buffered suffix.
  Spec sp = spec_of(Semantics::queue);
  sp.initial_values = {1};
  sp.check_durable = true;
  sp.pin_effects = true;
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, 2, true, 101),
      op(0, OpKind::dequeue, 0, 3, 4, true, 1),
  };
  sp.durable_values = {1, 101};  // the dequeue's effect lost
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
  sp.durable_values = {101};
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
}

TEST(LinearizeDurable, DurableValueNobodyEnqueuedRejected) {
  // The durable queue contains a value no operation produced — what a
  // dropped pre_publish leaves behind (zero/stale payload).
  Spec sp = spec_of(Semantics::queue);
  sp.initial_values = {1, 2};
  sp.check_durable = true;
  sp.durable_values = {1, 2, 0};
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, kNever, false, 0, Pending::may),
  };
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
}

// ---------------------------------------------------------------------
// Adversarial crash scenarios: stalled threads, dead-lane adoption,
// crash-during-recovery cuts (the shapes the scenario fuzzers feed the
// checker, pinned here as goldens)
// ---------------------------------------------------------------------

// Stalled-thread resume: a worker parked across the crash finally
// responds; resolve_pending turns its pending op into a completed one
// with the late response, and the verdict must follow the response.
TEST(LinearizeScenario, StalledThreadResumeResolvesToCompleted) {
  std::vector<Op> ops = {
      op(1, OpKind::insert, 9, 2, 3, true, 1),
      op(0, OpKind::insert, 5, 1, kNever, false, 0, Pending::may),
  };
  ASSERT_TRUE(harness::lin::resolve_pending(ops, 0, /*response_ts=*/10,
                                            /*ok=*/true, /*result=*/1));
  EXPECT_EQ(ops[1].pending, Pending::completed);
  EXPECT_EQ(ops[1].response_ts, 10u);
  EXPECT_EQ(check(ops, spec_of(Semantics::set)).verdict,
            Verdict::linearizable);
  // A lane with nothing pending resolves nothing.
  EXPECT_FALSE(harness::lin::resolve_pending(ops, 1, 11, true, 1));
}

// A stalled worker resuming with a STALE response: it claims
// insert(5)=true, but another lane's successful insert(5) completed
// before the stalled op was even invoked — no linearization explains
// two winning inserts of one key.
TEST(LinearizeScenario, StalledThreadStaleResponseRejected) {
  std::vector<Op> ops = {
      op(1, OpKind::insert, 5, 1, 2, true, 1),
      op(0, OpKind::insert, 5, 3, kNever, false, 0, Pending::may),
  };
  ASSERT_TRUE(harness::lin::resolve_pending(ops, 0, 10, true, 1));
  EXPECT_EQ(check(ops, spec_of(Semantics::set)).verdict,
            Verdict::violation);
  // The consistent late response (false: 5 was already there) passes.
  std::vector<Op> ok_ops = {
      op(1, OpKind::insert, 5, 1, 2, true, 1),
      op(0, OpKind::insert, 5, 3, kNever, false, 0, Pending::may),
  };
  ASSERT_TRUE(harness::lin::resolve_pending(ok_ops, 0, 10, false, 0));
  EXPECT_EQ(check(ok_ops, spec_of(Semantics::set)).verdict,
            Verdict::linearizable);
}

// Dead-lane adoption: the adopter's recover() finds the dead lane's
// enqueue descriptor-committed, upgrading its pending verdict to must
// — the value must then sit in the durable queue.
TEST(LinearizeScenario, DeadLaneAdoptionUpgradesPendingToMust) {
  Spec sp = spec_of(Semantics::queue);
  sp.check_durable = true;
  const std::vector<Op> ops = {
      op(1, OpKind::enqueue, 7, 1, 2, true, 7),
      op(0, OpKind::enqueue, 101, 3, kNever, true, 101, Pending::must),
  };
  sp.durable_values = {7, 101};
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
  sp.durable_values = {7};  // committed effect durably lost
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
}

// Dead-lane adoption, the other verdict: recover() reports the dead
// lane's op NOT applied (must_not) — any durable trace of it is a
// violation.
TEST(LinearizeScenario, DeadLaneMustNotWithDurableTraceRejected) {
  Spec sp = spec_of(Semantics::queue);
  sp.check_durable = true;
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, kNever, false, 0,
         Pending::must_not),
  };
  sp.durable_values = {};
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
  sp.durable_values = {101};
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
}

// Crash-during-recovery (repeated crash): however many links the
// chain had, the final durable image must still be a PREFIX of some
// linearization.  Holding the second of two sequential enqueues while
// dropping the first is no prefix — the cut shape a broken
// consolidation write leaves behind.
TEST(LinearizeScenario, ChainedCrashCutMustRemainAPrefix) {
  Spec sp = spec_of(Semantics::queue);
  sp.check_durable = true;
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, 2, true, 101),
      op(0, OpKind::enqueue, 102, 3, 4, true, 102),
  };
  sp.durable_values = {101};  // cut between the enqueues: legal
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
  sp.durable_values = {101, 102};  // cut after both: legal
  EXPECT_EQ(check(ops, sp).verdict, Verdict::linearizable);
  sp.durable_values = {102};  // second without the first: no prefix
  EXPECT_EQ(check(ops, sp).verdict, Verdict::violation);
}

// A stalled worker's late dequeue may return a value enqueued while
// it was parked (its interval spans the enqueue), but never a value
// whose enqueue began after the dequeue responded.
TEST(LinearizeScenario, StalledDequeueRespectsRealTimeOrder) {
  std::vector<Op> ops = {
      op(0, OpKind::dequeue, 0, 1, kNever, false, 0, Pending::may),
      op(1, OpKind::enqueue, 55, 5, 6, true, 55),
  };
  ASSERT_TRUE(harness::lin::resolve_pending(ops, 0, 10, true, 55));
  EXPECT_EQ(check(ops, spec_of(Semantics::queue)).verdict,
            Verdict::linearizable);
  std::vector<Op> bad = {
      op(0, OpKind::dequeue, 0, 1, kNever, false, 0, Pending::may),
      op(1, OpKind::enqueue, 55, 5, 6, true, 55),
  };
  // Resume BEFORE the enqueue was invoked, yet return its value.
  ASSERT_TRUE(harness::lin::resolve_pending(bad, 0, 3, true, 55));
  EXPECT_EQ(check(bad, spec_of(Semantics::queue)).verdict,
            Verdict::violation);
}

// ---------------------------------------------------------------------
// Per-lane descriptor judgement (judge_lane)
// ---------------------------------------------------------------------

// A completed op as the drivers record it: `seq` is the lane's
// descriptor seq right after the response.
Op done_op(OpKind k, std::int64_t input, std::uint64_t ts, bool ok,
           std::uint64_t result, std::uint64_t seq) {
  Op o = op(0, k, input, ts, ts + 1, ok, result);
  o.seq = seq;
  return o;
}

ds::Recovered desc(std::uint64_t seq, OpKind k, std::int64_t key,
                   bool completed, bool ok = false,
                   std::uint64_t result = 0) {
  ds::Recovered d;
  d.seq = seq;
  d.kind = k;
  d.key = key;
  d.completed = completed;
  d.ok = ok;
  d.result = result;
  return d;
}

// Lane 0 after prefill (base seq 3): insert(5)=true, find(5)=true under
// the read-only optimization (no announcement), then a pending
// erase(5).
std::vector<Op> lane_history() {
  std::vector<Op> ops = {
      done_op(OpKind::insert, 5, 1, true, 1, 4),
      done_op(OpKind::find, 5, 3, true, 1, 4),
      op(0, OpKind::erase, 5, 5, kNever, false, 0, Pending::may),
  };
  ops[0].id = 0;
  ops[1].id = 1;
  ops[2].id = 2;
  return ops;
}
const ds::Recovered kBase = desc(3, OpKind::insert, 24, true, true, 1);

TEST(JudgeLane, LegalDescriptorsAndTheMustUpgrade) {
  // The last announcing op with its exact response; the find after it
  // needs no trace.
  auto ops = lane_history();
  EXPECT_EQ(judge_lane(ops, 0, kBase,
                       desc(4, OpKind::insert, 5, true, true, 1)),
            "");
  EXPECT_EQ(ops[2].pending, Pending::may);
  // The pending erase announced but not committed: stays may.
  EXPECT_EQ(judge_lane(ops, 0, kBase, desc(5, OpKind::erase, 5, false)),
            "");
  EXPECT_EQ(ops[2].pending, Pending::may);
  // Committed: becomes must with the descriptor's response.
  EXPECT_EQ(judge_lane(ops, 0, kBase,
                       desc(5, OpKind::erase, 5, true, true, 1)),
            "");
  EXPECT_EQ(ops[2].pending, Pending::must);
  EXPECT_TRUE(ops[2].ok);
  EXPECT_EQ(ops[2].result, 1u);
}

TEST(JudgeLane, SeqTooOldOrTooNewRejected) {
  auto ops = lane_history();
  // Behind the completed insert: its commit was lost.
  EXPECT_NE(judge_lane(ops, 0, kBase, kBase), "");
  // Two ahead of the last completed op: no operation ran there.
  EXPECT_NE(judge_lane(ops, 0, kBase, desc(6, OpKind::erase, 5, false)),
            "");
  // An update that did not advance the seq broke one-announcement-
  // per-op.
  auto flat = lane_history();
  flat[0].seq = 3;
  EXPECT_NE(judge_lane(flat, 0, kBase, kBase), "");
}

TEST(JudgeLane, PendingKindOrKeyMismatchRejected) {
  auto ops = lane_history();
  EXPECT_NE(judge_lane(ops, 0, kBase, desc(5, OpKind::erase, 6, false)),
            "");
  EXPECT_NE(judge_lane(ops, 0, kBase, desc(5, OpKind::insert, 5, true)),
            "");
  EXPECT_EQ(ops[2].pending, Pending::may);  // no upgrade on a mismatch
}

TEST(JudgeLane, StaleCommittedResponseRejected) {
  auto ops = lane_history();
  // The completed insert's record reports the wrong response.
  EXPECT_NE(judge_lane(ops, 0, kBase,
                       desc(4, OpKind::insert, 5, true, false, 0)),
            "");
  // Not committed at all, though the insert returned.
  EXPECT_NE(judge_lane(ops, 0, kBase, desc(4, OpKind::insert, 5, false)),
            "");
  // A committed pending erase(5)=false with 5 present: the upgrade is
  // legal, but the stale response cannot linearize.
  EXPECT_EQ(judge_lane(ops, 0, kBase,
                       desc(5, OpKind::erase, 5, true, false, 0)),
            "");
  ASSERT_EQ(ops[2].pending, Pending::must);
  EXPECT_EQ(check(ops, spec_of(Semantics::set)).verdict,
            Verdict::violation);
}

TEST(JudgeLane, PreWorkloadDescriptorMustSurviveUntouched) {
  // Only a find ran (no trace owed): the pre-workload descriptor is
  // legal, byte for byte.
  std::vector<Op> reads = {done_op(OpKind::find, 5, 1, false, 0, 3)};
  EXPECT_EQ(judge_lane(reads, 0, kBase, kBase), "");
  ds::Recovered corrupted = kBase;
  corrupted.result = 7;
  EXPECT_NE(judge_lane(reads, 0, kBase, corrupted), "");
  corrupted = kBase;
  corrupted.key = 23;
  EXPECT_NE(judge_lane(reads, 0, kBase, corrupted), "");
}

// ---------------------------------------------------------------------
// Determinism and event plumbing
// ---------------------------------------------------------------------

TEST(Linearize, VerdictIsDeterministic) {
  const std::vector<Op> ops = {
      op(0, OpKind::enqueue, 101, 1, 10, true, 101),
      op(1, OpKind::enqueue, 102, 2, 11, true, 102),
      op(2, OpKind::dequeue, 0, 3, 12, true, 102),
      op(2, OpKind::dequeue, 0, 13, 14, true, 101),
      op(1, OpKind::enqueue, 103, 15, kNever, false, 0, Pending::may),
  };
  Spec sp = spec_of(Semantics::queue);
  sp.check_durable = true;
  sp.durable_values = {103};
  const Result a = check(ops, sp);
  const Result b = check(ops, sp);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.cut, b.cut);
}

TEST(Linearize, OpsFromEventsPairsInterleavedLanes) {
  using harness::EventType;
  std::vector<HistoryEvent> ev(5);
  ev[0] = {1, 0, EventType::invoke, 0, OpKind::enqueue, 101, false, 0};
  ev[1] = {2, 1, EventType::invoke, 0, OpKind::dequeue, 0, false, 0};
  ev[2] = {3, 0, EventType::response, 0, OpKind::enqueue, 101, true, 101};
  ev[3] = {4, 1, EventType::response, 0, OpKind::dequeue, 0, true, 101};
  ev[4] = {5, 0, EventType::invoke, 1, OpKind::enqueue, 102, false, 0};
  const auto ops = harness::lin::ops_from_events(ev);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].pending, Pending::completed);
  EXPECT_EQ(ops[1].pending, Pending::completed);
  EXPECT_EQ(ops[1].result, 101u);
  EXPECT_EQ(ops[2].pending, Pending::may);
  EXPECT_EQ(ops[2].response_ts, kNever);
  EXPECT_EQ(check(ops, spec_of(Semantics::queue)).verdict,
            Verdict::linearizable);
}

TEST(Linearize, JsonlRoundTripsThroughTheParser) {
  harness::HistoryRecorder rec(2, 4);
  const auto a = rec.invoke(0, OpKind::enqueue, 101);
  rec.response(0, a, true, 101);
  const auto b = rec.invoke(1, OpKind::dequeue, 0);
  rec.response(1, b, true, 101);
  rec.invoke(0, OpKind::enqueue, 102);  // pending
  rec.mark_crash();

  std::vector<HistoryEvent> parsed;
  ASSERT_TRUE(harness::parse_history_jsonl(rec.to_jsonl(), parsed));
  ASSERT_EQ(parsed.size(), 6u);
  const auto ops = harness::lin::ops_from_events(parsed);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[2].pending, Pending::may);
  const auto direct = harness::lin::ops_from_history(rec);
  ASSERT_EQ(direct.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].kind, direct[i].kind) << i;
    EXPECT_EQ(ops[i].invoke_ts, direct[i].invoke_ts) << i;
    EXPECT_EQ(ops[i].response_ts, direct[i].response_ts) << i;
  }
}

}  // namespace
