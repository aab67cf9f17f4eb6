// Self-test of the benchmark's checkers (checks.hpp): each planted fault
// must be reported as a failure, and the same scenario without the
// fault must pass.  Exit status 0 only if every case behaves.
//
//   perfbench_selftest
#include <cstdint>
#include <cstdio>
#include <vector>

#include "checks.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

// Producer 1 enqueued three values; two consumers dequeued them.
std::uint64_t queue_case(bool plant_duplicate) {
  QueueLedger a(2), b(2);
  a.record(queue_value(1, 0));
  a.record(queue_value(1, 1));
  if (plant_duplicate) b.record(queue_value(1, 1));
  b.record(queue_value(1, 2));
  return check_queue({0, 3}, {&a, &b});
}

// A real list; the worker's ledger says insert(5) succeeded.  The lost
// insert is planted by erasing 5 behind the ledger's back.
std::uint64_t set_case(bool plant_lost_insert) {
  repro::ds::IsbList list;
  SetLedger worker(8);
  const std::vector<std::uint8_t> initial(9, 0);
  worker.record(OpKind::insert, 5, list.insert(5));
  worker.record(OpKind::insert, 6, list.insert(6));
  worker.record(OpKind::erase, 6, list.erase(6));
  if (plant_lost_insert) list.erase(5);
  std::vector<std::int64_t> snap;
  list.snapshot_keys(snap);
  return check_set(initial, {&worker},
                   [&](std::int64_t k) { return list.find(k); }, &snap);
}

// The worker's record of its last call against what recover() reports.
bool recover_case(bool plant_mismatch) {
  repro::ds::IsbList list;
  list.insert(7);
  const bool ok = list.insert(9);
  LastOp last{OpKind::insert, 9, ok, ok ? 1u : 0u, 2};
  if (plant_mismatch) last.ok = !last.ok, last.result ^= 1;
  return recover_matches(list.recover(repro::ds::thread_slot()), last);
}

bool queue_recover_case(bool plant_mismatch) {
  repro::ds::IsbQueue q;
  q.enqueue(queue_value(1, 0));
  const repro::ds::DequeueResult r = q.dequeue();
  LastOp last{OpKind::dequeue, 0, r.ok, r.value, 2};
  if (plant_mismatch) last.result = queue_value(1, 1);
  return recover_matches(q.recover(repro::ds::thread_slot()), last);
}

}  // namespace

int main() {
  expect(queue_case(false) == 0, "queue checker passes a clean history");
  expect(queue_case(true) > 0, "queue checker reports a planted duplicate");
  {
    QueueLedger c(2);
    c.record(queue_value(1, 1));
    c.record(queue_value(1, 0));
    expect(check_queue({0, 2}, {&c}) > 0,
           "queue checker reports per-producer FIFO order broken");
  }
  {
    QueueLedger c(2);
    c.record(queue_value(1, 0));
    expect(check_queue({0, 2}, {&c}) > 0,
           "queue checker reports a value never dequeued");
  }
  expect(set_case(false) == 0, "set checker passes a clean history");
  expect(set_case(true) > 0, "set checker reports a planted lost insert");
  expect(recover_case(false), "recover comparison accepts the true response");
  expect(!recover_case(true),
         "recover comparison reports a mismatched response");
  expect(queue_recover_case(false),
         "queue recover comparison accepts the true response");
  expect(!queue_recover_case(true),
         "queue recover comparison reports a mismatched response");
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
              failures);
  return failures ? 1 : 0;
}
