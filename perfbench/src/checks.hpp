// Correctness and detectability checkers of the benchmark.
//
// Workers record what every structure call returned (ledgers below);
// after the measured interval main.cpp feeds each checker
// the structure's final state.  The checkers are plain bookkeeping with
// no dependence on how the state was produced, so selftest.cpp can feed
// them planted faults and require that each one is reported.
//
// Every checker returns a failure count: one per key, value or worker
// whose accounting disagrees with the structure.  main.cpp adds the
// counts to `failed` and exits non-zero when any is positive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "repro/ds/detectable.hpp"

namespace perfbench {

using repro::ds::OpKind;
using repro::ds::Recovered;

// ---------------------------------------------------------------------
// Sets: per-key net insert/erase accounting.
// ---------------------------------------------------------------------

// One worker's net effect on keys [1, range]: +1 per successful insert,
// -1 per successful erase.  Summed over workers and added to the
// prefill, every key must end at 0 or 1 and agree with the structure.
class SetLedger {
 public:
  explicit SetLedger(std::int64_t range)
      : net_(static_cast<std::size_t>(range) + 1, 0) {}

  void record(OpKind kind, std::int64_t key, bool ok) {
    if (!ok) return;
    if (kind == OpKind::insert) ++net_[static_cast<std::size_t>(key)];
    if (kind == OpKind::erase) --net_[static_cast<std::size_t>(key)];
  }

  std::int64_t range() const {
    return static_cast<std::int64_t>(net_.size()) - 1;
  }
  std::int32_t net(std::int64_t key) const {
    return net_[static_cast<std::size_t>(key)];
  }

 private:
  std::vector<std::int32_t> net_;
};

// `initial[k]` is 1 when the prefill inserted k.  `present(k)` asks the
// structure (find); `snapshot`, when the structure has one, is its
// enumerated contents.  Counts every key whose expected presence is
// impossible (not 0 or 1) or disagrees with find or the snapshot, and
// every snapshot entry that is out of range or repeated.
template <typename PresentFn>
std::uint64_t check_set(const std::vector<std::uint8_t>& initial,
                        const std::vector<const SetLedger*>& ledgers,
                        PresentFn&& present,
                        const std::vector<std::int64_t>* snapshot) {
  const std::int64_t range = static_cast<std::int64_t>(initial.size()) - 1;
  std::uint64_t failed = 0;
  std::vector<std::uint8_t> listed;
  if (snapshot != nullptr) {
    listed.assign(initial.size(), 0);
    for (std::int64_t k : *snapshot) {
      if (k < 1 || k > range ||
          listed[static_cast<std::size_t>(k)]++ != 0) {
        ++failed;
      }
    }
  }
  for (std::int64_t k = 1; k <= range; ++k) {
    std::int64_t want = initial[static_cast<std::size_t>(k)];
    for (const SetLedger* l : ledgers) want += l->net(k);
    const bool has = present(k);
    bool bad = (want != 0 && want != 1) || has != (want == 1);
    if (snapshot != nullptr) {
      bad = bad || (listed[static_cast<std::size_t>(k)] != 0) != has;
    }
    if (bad) ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------
// Queues: unique values, conservation, no duplicates, per-producer FIFO.
// ---------------------------------------------------------------------

// A value carries its producer in the high bits and the producer's
// sequence number (0, 1, 2, ...) in the low bits, so every value is
// unique and its enqueue order within the producer is known.
inline constexpr int kProducerShift = 40;
inline constexpr std::uint64_t kSeqMask =
    (std::uint64_t{1} << kProducerShift) - 1;

inline std::uint64_t queue_value(int producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) << kProducerShift) | seq;
}

// Multiset hash of one producer's sequence numbers: a sum of mixed
// values, so it can be accumulated in any order and in constant memory.
inline std::uint64_t seq_hash(std::uint64_t seq) {
  std::uint64_t z = (seq + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// One consumer's view of each producer: how many of its values it
// dequeued, their multiset hash, and whether they reached it in
// enqueue order.  A value at or below the last sequence number already
// seen from its producer breaks per-producer FIFO (or repeats a value)
// and counts as a violation on the spot.  Memory is constant, so the
// ledger does not move peak RSS with throughput.
class QueueLedger {
 public:
  explicit QueueLedger(int producers)
      : last_(static_cast<std::size_t>(producers), -1),
        count_(static_cast<std::size_t>(producers), 0),
        hash_(static_cast<std::size_t>(producers), 0) {}

  void record(std::uint64_t value) {
    const std::uint64_t p = value >> kProducerShift;
    const std::uint64_t seq = value & kSeqMask;
    if (p >= last_.size()) {
      ++violations_;
      return;
    }
    if (static_cast<std::int64_t>(seq) <= last_[p]) {
      ++violations_;
    } else {
      last_[p] = static_cast<std::int64_t>(seq);
    }
    ++count_[p];
    hash_[p] += seq_hash(seq);
  }

  int producers() const { return static_cast<int>(last_.size()); }
  std::uint64_t violations() const { return violations_; }
  std::int64_t last(int p) const { return last_[static_cast<std::size_t>(p)]; }
  std::uint64_t count(int p) const {
    return count_[static_cast<std::size_t>(p)];
  }
  std::uint64_t hash(int p) const { return hash_[static_cast<std::size_t>(p)]; }

 private:
  std::vector<std::int64_t> last_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> hash_;
  std::uint64_t violations_ = 0;
};

// `produced[p]` values were enqueued by producer p (sequence numbers
// 0 .. produced[p]-1); `consumers` are every dequeuer's ledger,
// including the final drain's.  Each producer's values were delivered
// exactly once iff the consumers' counts add up to produced[p] and
// their hashes add up to the hash of 0 .. produced[p]-1; a duplicate
// paired with a loss escapes only on a 64-bit hash collision.  Counts
// order violations, values no producer enqueued, and per producer the
// surplus or shortfall of deliveries (at least 1 when only the hash
// disagrees).
inline std::uint64_t check_queue(
    const std::vector<std::uint64_t>& produced,
    const std::vector<const QueueLedger*>& consumers) {
  std::uint64_t failed = 0;
  for (const QueueLedger* c : consumers) {
    failed += c->violations();
    if (c->producers() != static_cast<int>(produced.size())) ++failed;
  }
  for (std::size_t p = 0; p < produced.size(); ++p) {
    const int pi = static_cast<int>(p);
    std::uint64_t count = 0, hash = 0;
    for (const QueueLedger* c : consumers) {
      if (c->producers() != static_cast<int>(produced.size())) continue;
      if (c->last(pi) >= static_cast<std::int64_t>(produced[p])) ++failed;
      count += c->count(pi);
      hash += c->hash(pi);
    }
    std::uint64_t want = 0;
    for (std::uint64_t s = 0; s < produced[p]; ++s) want += seq_hash(s);
    if (count != produced[p]) {
      failed += count > produced[p] ? count - produced[p] : produced[p] - count;
    } else if (hash != want) {
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------
// Detectability: recover(slot) against the worker's own record.
// ---------------------------------------------------------------------

// A worker's last completed call on one structure, and how many calls
// it made there (each call announces once, so the descriptor's
// sequence number must equal the count).
struct LastOp {
  OpKind kind = OpKind::none;
  std::int64_t key = 0;
  bool ok = false;
  std::uint64_t result = 0;
  std::uint64_t count = 0;
};

inline bool recover_matches(const Recovered& r, const LastOp& want) {
  return r.completed && r.kind == want.kind && r.key == want.key &&
         r.ok == want.ok && r.result == want.result && r.seq == want.count;
}

}  // namespace perfbench
