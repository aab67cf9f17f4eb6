// Process-wide registry of the evaluated structures.
//
// Every structure in ds/ and baselines/ registers exactly once, under
// its paper name (Section 5 / Section 6 naming), as a trait-tagged
// factory producing a type-erased instance.  Experiment specs select
// series by exact name, shell glob ("Isb*"), trait ("trait:paper-
// list"), kind ("kind:set"), or an '&'-composition of those atoms
// ("trait:detectable&kind:set"), so adding a structure to every
// relevant figure is one registration — no bench binary changes.
//
// Kinds and their type-erased interfaces:
//   set       — insert/erase/find over int64 keys (lists, BST, skiplist)
//   queue     — enqueue/dequeue of uint64 values
//   stack     — push/pop of uint64 values
//   exchanger — paired exchange of uint64 values
//
// Structures exposing the announcement-board recovery protocol
// (detectable.hpp) surface it through Structure::recover(); the crash
// scenario in experiment.hpp requires it (trait "detectable").
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "repro/baselines/capsules_list.hpp"
#include "repro/baselines/capsules_queue.hpp"
#include "repro/baselines/harris_list.hpp"
#include "repro/baselines/log_queue.hpp"
#include "repro/baselines/ms_queue.hpp"
#include "repro/ds/detectable.hpp"
#include "repro/ds/dt_list.hpp"
#include "repro/ds/dt_skiplist.hpp"
#include "repro/ds/dt_stack.hpp"
#include "repro/ds/isb_bst.hpp"
#include "repro/ds/isb_exchanger.hpp"
#include "repro/ds/hm_hashtable.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "repro/mem/hp.hpp"
#include "repro/mem/pop.hpp"

namespace repro::harness {

enum class Kind { set, queue, stack, exchanger };

inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::set: return "set";
    case Kind::queue: return "queue";
    case Kind::stack: return "stack";
    case Kind::exchanger: return "exchanger";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Type-erased structure interfaces
// ---------------------------------------------------------------------

class Structure {
 public:
  virtual ~Structure() = default;
  // Detectable recovery, when the implementation supports it: what
  // thread `slot` would learn about its last operation after a crash.
  virtual bool detectable() const { return false; }
  virtual ds::Recovered recover(int /*slot*/) const { return {}; }
  // Crash-engine enumeration of the durable image, when the
  // implementation exposes one (lists: logical key set; queues: values
  // front to back).  Returning false means "no snapshot surface" from
  // the default, or "the durable image is inconsistent" from an
  // implementation — the fuzz verifier distinguishes the two by
  // checking the capability before the crash.
  virtual bool snapshot_keys(std::vector<std::int64_t>& /*out*/) const {
    return false;
  }
  virtual bool snapshot_values(
      std::vector<std::uint64_t>& /*out*/) const {
    return false;
  }
  virtual bool has_snapshot() const { return false; }
};

class SetIface : public Structure {
 public:
  virtual bool insert(std::int64_t k) = 0;
  virtual bool erase(std::int64_t k) = 0;
  virtual bool find(std::int64_t k) = 0;
};

class QueueIface : public Structure {
 public:
  virtual void enqueue(std::uint64_t v) = 0;
  virtual bool dequeue(std::uint64_t& out) = 0;
};

class StackIface : public Structure {
 public:
  virtual void push(std::uint64_t v) = 0;
  virtual bool pop(std::uint64_t& out) = 0;
};

class ExchangerIface : public Structure {
 public:
  virtual bool exchange(std::uint64_t v, int attempts,
                        std::uint64_t& out) = 0;
};

namespace detail {
template <typename T>
concept Recoverable = requires(const T& t) {
  { t.recover(0) } -> std::convertible_to<ds::Recovered>;
};

template <typename T>
concept KeySnapshottable =
    requires(const T& t, std::vector<std::int64_t>& out) {
      { t.snapshot_keys(out) } -> std::convertible_to<bool>;
    };

template <typename T>
concept ValueSnapshottable =
    requires(const T& t, std::vector<std::uint64_t>& out) {
      { t.snapshot_values(out) } -> std::convertible_to<bool>;
    };
}  // namespace detail

// Adapters: recovery support is detected from the implementation, so a
// structure gains the "detectable" surface by merely exposing
// recover(int) (the shared AnnouncementBoard protocol).
template <typename Impl, typename Base>
class AdapterBase : public Base {
 public:
  template <typename... Args>
  explicit AdapterBase(Args&&... args)
      : impl(std::forward<Args>(args)...) {}

  bool detectable() const override { return detail::Recoverable<Impl>; }
  ds::Recovered recover(int slot) const override {
    if constexpr (detail::Recoverable<Impl>) {
      return impl.recover(slot);
    } else {
      (void)slot;
      return {};
    }
  }

  bool has_snapshot() const override {
    return detail::KeySnapshottable<Impl> ||
           detail::ValueSnapshottable<Impl>;
  }
  bool snapshot_keys(std::vector<std::int64_t>& out) const override {
    if constexpr (detail::KeySnapshottable<Impl>) {
      return impl.snapshot_keys(out);
    } else {
      (void)out;
      return false;
    }
  }
  bool snapshot_values(std::vector<std::uint64_t>& out) const override {
    if constexpr (detail::ValueSnapshottable<Impl>) {
      return impl.snapshot_values(out);
    } else {
      (void)out;
      return false;
    }
  }

 protected:
  Impl impl;
};

template <typename L>
struct SetAdapter final : AdapterBase<L, SetIface> {
  using AdapterBase<L, SetIface>::AdapterBase;
  bool insert(std::int64_t k) override { return this->impl.insert(k); }
  bool erase(std::int64_t k) override { return this->impl.erase(k); }
  bool find(std::int64_t k) override { return this->impl.find(k); }
};

template <typename Q>
struct QueueAdapter final : AdapterBase<Q, QueueIface> {
  using AdapterBase<Q, QueueIface>::AdapterBase;
  void enqueue(std::uint64_t v) override { this->impl.enqueue(v); }
  // Every queue, including the volatile MS-queue baseline, returns the
  // unified ds::DequeueResult, so one adapter body covers them all.
  bool dequeue(std::uint64_t& out) override {
    const auto r = this->impl.dequeue();
    out = r.value;
    return r.ok;
  }
};

template <typename S>
struct StackAdapter final : AdapterBase<S, StackIface> {
  using AdapterBase<S, StackIface>::AdapterBase;
  void push(std::uint64_t v) override { this->impl.push(v); }
  bool pop(std::uint64_t& out) override {
    const auto r = this->impl.pop();
    out = r.value;
    return r.ok;
  }
};

template <typename E>
struct ExchangerAdapter final : AdapterBase<E, ExchangerIface> {
  using AdapterBase<E, ExchangerIface>::AdapterBase;
  bool exchange(std::uint64_t v, int attempts,
                std::uint64_t& out) override {
    const auto r = this->impl.exchange(v, attempts);
    out = r.value;
    return r.ok;
  }
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

struct AlgoEntry {
  std::string name;  // paper name, unique within the registry
  Kind kind;
  std::vector<std::string> traits;  // e.g. "detectable", "paper-list"
  std::function<std::unique_ptr<Structure>()> make;

  bool has_trait(std::string_view t) const {
    if (t == kind_name(kind)) return true;
    for (const auto& x : traits) {
      if (x == t) return true;
    }
    return false;
  }
};

// Shell-style glob over names: `*` any run, `?` any one character.
inline bool glob_match(std::string_view pat, std::string_view s) {
  if (pat.empty()) return s.empty();
  if (pat[0] == '*') {
    for (std::size_t i = 0; i <= s.size(); ++i) {
      if (glob_match(pat.substr(1), s.substr(i))) return true;
    }
    return false;
  }
  if (s.empty()) return false;
  if (pat[0] != '?' && pat[0] != s[0]) return false;
  return glob_match(pat.substr(1), s.substr(1));
}

class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  // Idempotent: a second registration under an existing name is
  // ignored (the inline-variable self-registration below runs once per
  // process, but user code re-registering a name is not an error).
  bool add(AlgoEntry e) {
    if (find(e.name) != nullptr) return false;
    entries_.push_back(std::move(e));
    return true;
  }

  const AlgoEntry* find(std::string_view name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  // One selector atom against one entry:
  //   "trait:X" — entries carrying trait X (the kind name counts as a
  //               trait, so "trait:set" works too);
  //   "kind:K"  — entries of kind K (the explicit spelling, clearer in
  //               composed selectors than the trait alias);
  //   glob      — anything containing `*`/`?` globs over names;
  //   otherwise — an exact name.
  static bool matches_atom(std::string_view atom, const AlgoEntry& e) {
    constexpr std::string_view kTrait = "trait:";
    constexpr std::string_view kKind = "kind:";
    if (atom.substr(0, kTrait.size()) == kTrait) {
      return e.has_trait(atom.substr(kTrait.size()));
    }
    if (atom.substr(0, kKind.size()) == kKind) {
      return atom.substr(kKind.size()) == kind_name(e.kind);
    }
    if (atom.find('*') != std::string_view::npos ||
        atom.find('?') != std::string_view::npos) {
      return glob_match(atom, e.name);
    }
    return atom == e.name;
  }

  // A selector is one or more atoms joined by '&'; an entry matches
  // when every atom does, so "trait:detectable&kind:set" selects
  // exactly the detectable sets (fuzzable key-value structures) and
  // "trait:hashmap&Isb-*" narrows a trait by name.  No registered name
  // contains '&', so the split is unambiguous.
  static bool matches(std::string_view selector, const AlgoEntry& e) {
    while (true) {
      const std::size_t amp = selector.find('&');
      const std::string_view atom = selector.substr(0, amp);
      if (!matches_atom(atom, e)) return false;
      if (amp == std::string_view::npos) return true;
      selector.remove_prefix(amp + 1);
    }
  }

  std::vector<const AlgoEntry*> select(std::string_view selector) const {
    std::vector<const AlgoEntry*> out;
    for (const auto& e : entries_) {
      if (matches(selector, e)) out.push_back(&e);
    }
    return out;
  }

  // Union over selectors, de-duplicated, selector order preserved.
  // Membership is tracked in a pointer set so N overlapping selectors
  // over an R-entry registry cost O(N·R) instead of the quadratic
  // every-entry-against-every-kept scan this used to do.
  std::vector<const AlgoEntry*> select_all(
      const std::vector<std::string>& selectors) const {
    std::vector<const AlgoEntry*> out;
    std::unordered_set<const AlgoEntry*> seen;
    for (const auto& sel : selectors) {
      for (const AlgoEntry* e : select(sel)) {
        if (seen.insert(e).second) out.push_back(e);
      }
    }
    return out;
  }

  const std::deque<AlgoEntry>& entries() const { return entries_; }

 private:
  Registry() = default;
  // A deque keeps AlgoEntry references/pointers stable across add():
  // expanded Points and registered benchmark lambdas hold AlgoEntry*,
  // and user code may register structures at any time.
  std::deque<AlgoEntry> entries_;
};

// ---------------------------------------------------------------------
// Built-in registrations (the paper's evaluated structures)
// ---------------------------------------------------------------------

namespace detail {

// Bucket-count override for the hash-map registrations: the registry
// factories are shared by benches, fuzzers and tests, so the knob is an
// environment variable rather than a per-spec field.  Clamped to the
// core's supported range; unset/garbage keeps the default.
inline int hm_bucket_bits() {
  int bits = 13;  // 8192 buckets
  if (const char* v = std::getenv("REPRO_HM_BUCKET_BITS")) {
    const long parsed = std::atol(v);
    if (parsed >= 0 && parsed <= 15) bits = static_cast<int>(parsed);
  }
  return bits;
}

// REPRO_RECLAIMER=ebr|hp|pop narrows reclaimer-tagged selectors to one
// scheme (the CI fuzz legs sweep the matrix one column at a time).
// Returns the validated scheme name, or "" when unset/garbage — the
// caller then runs its full default selection.
inline std::string reclaimer_filter() {
  if (const char* v = std::getenv("REPRO_RECLAIMER")) {
    const std::string s = v;
    if (s == "ebr" || s == "hp" || s == "pop") return s;
  }
  return "";
}

inline bool register_builtins() {
  using baselines::CapsulesList;
  using baselines::CapsulesQueue;
  using baselines::HarrisList;
  using baselines::LogQueue;
  using baselines::MsQueue;
  using ds::DtList;
  using ds::DtSkipList;
  using ds::DtStack;
  using ds::IsbBst;
  using ds::IsbExchanger;
  using ds::IsbList;
  using ds::IsbQueue;
  using ds::PersistProfile;

  Registry& r = Registry::instance();

  auto isb_list = [](PersistProfile p, bool ro) {
    return [p, ro]() -> std::unique_ptr<Structure> {
      IsbList::Config c;
      c.profile = p;
      c.read_only_opt = ro;
      return std::make_unique<SetAdapter<IsbList>>(c);
    };
  };

  // Section 5 list series (Figures 1, 3-6): trait "paper-list".
  r.add({"Isb", Kind::set,
         {"detectable", "persistent", "paper-list", "isb-list",
          "reclaimer-ebr"},
         isb_list(PersistProfile::general, true)});
  // reclaimer-ebr keeps Isb-Opt inside the REPRO_RECLAIMER=ebr CI leg:
  // it rides along in the reclaim-fuzz figure (its fence-free
  // post_update flushes are the retire-after-commit detection path).
  r.add({"Isb-Opt", Kind::set,
         {"detectable", "persistent", "paper-list", "isb-list",
          "reclaimer-ebr"},
         isb_list(PersistProfile::optimized, true)});
  r.add({"Capsules", Kind::set, {"persistent", "paper-list", "capsules"},
         [] {
           return std::make_unique<SetAdapter<CapsulesList>>(
               CapsulesList::Variant::general);
         }});
  r.add({"Capsules-Opt", Kind::set,
         {"persistent", "paper-list", "capsules"}, [] {
           return std::make_unique<SetAdapter<CapsulesList>>(
               CapsulesList::Variant::optimized);
         }});
  r.add({"DT-Opt", Kind::set,
         {"detectable", "persistent", "paper-list", "dt"}, [] {
           return std::make_unique<SetAdapter<DtList>>(
               PersistProfile::optimized);
         }});
  // Outside the headline series: the general DT placement and the
  // volatile Harris baseline (Figure 4).
  r.add({"DT", Kind::set, {"detectable", "persistent", "dt"}, [] {
           return std::make_unique<SetAdapter<DtList>>(
               PersistProfile::general);
         }});
  r.add({"Harris-LL", Kind::set, {"volatile", "baseline"},
         [] { return std::make_unique<SetAdapter<HarrisList>>(); }});
  // Memory-subsystem ablations: the seed's raw-new / leak-everything
  // allocation, so the EBR+pool win stays measurable in-tree.
  r.add({"Harris-LL-leak", Kind::set,
         {"volatile", "baseline", "ablation", "no-reclaim"}, [] {
           return std::make_unique<SetAdapter<baselines::HarrisListLeaky>>();
         }});
  r.add({"Isb-leak", Kind::set,
         {"detectable", "persistent", "isb-list", "ablation",
          "no-reclaim"},
         [] {
           return std::make_unique<
               SetAdapter<ds::IsbListT<mem::LeakReclaimer>>>();
         }});
  // Ablation variants: Algorithm-2 read-only optimization disabled.
  r.add({"Isb-noROopt", Kind::set,
         {"detectable", "persistent", "isb-list", "ablation"},
         isb_list(PersistProfile::general, false)});
  r.add({"Isb-Opt-noROopt", Kind::set,
         {"detectable", "persistent", "isb-list", "ablation"},
         isb_list(PersistProfile::optimized, false)});

  // Harris-Michael hash map (ROADMAP item 1): the same transformations
  // over per-bucket Harris segments — trait "hashmap", and
  // "detectable" so every fuzz family sweeps the detectable variants
  // automatically.
  auto isb_hm = [](PersistProfile p, bool ro) {
    return [p, ro]() -> std::unique_ptr<Structure> {
      ds::IsbHashMap::Config c;
      c.profile = p;
      c.read_only_opt = ro;
      c.bucket_bits = hm_bucket_bits();
      return std::make_unique<SetAdapter<ds::IsbHashMap>>(c);
    };
  };
  r.add({"Isb-HashMap", Kind::set,
         {"detectable", "persistent", "hashmap", "isb-list"},
         isb_hm(PersistProfile::general, true)});
  r.add({"Isb-HashMap-Opt", Kind::set,
         {"detectable", "persistent", "hashmap", "isb-list"},
         isb_hm(PersistProfile::optimized, true)});
  r.add({"DT-HashMap", Kind::set,
         {"detectable", "persistent", "hashmap", "dt", "reclaimer-ebr"},
         [] {
           return std::make_unique<SetAdapter<ds::DtHashMap>>(
               PersistProfile::general, hm_bucket_bits());
         }});
  r.add({"Harris-HashMap", Kind::set,
         {"volatile", "baseline", "hashmap"}, [] {
           return std::make_unique<SetAdapter<ds::HarrisHashMap>>(
               hm_bucket_bits());
         }});

  // Reclamation-scheme matrix (ROADMAP item 2): the same structures
  // under hazard pointers and publish-on-ping epochs.  One list, one
  // queue and one hash map per scheme keeps the cross-product useful
  // without doubling every fuzz sweep; trait "reclaimer-<scheme>"
  // selects a column (the EBR bases above carry "reclaimer-ebr").
  r.add({"Isb-List-HP", Kind::set,
         {"detectable", "persistent", "isb-list", "reclaimer-hp"}, [] {
           return std::make_unique<
               SetAdapter<ds::IsbListT<mem::HpReclaimer>>>();
         }});
  r.add({"Isb-List-POP", Kind::set,
         {"detectable", "persistent", "isb-list", "reclaimer-pop"}, [] {
           return std::make_unique<
               SetAdapter<ds::IsbListT<mem::PopReclaimer>>>();
         }});
  r.add({"Isb-Queue-HP", Kind::queue,
         {"detectable", "persistent", "reclaimer-hp"}, [] {
           return std::make_unique<
               QueueAdapter<ds::IsbQueueT<mem::HpReclaimer>>>();
         }});
  r.add({"Isb-Queue-POP", Kind::queue,
         {"detectable", "persistent", "reclaimer-pop"}, [] {
           return std::make_unique<
               QueueAdapter<ds::IsbQueueT<mem::PopReclaimer>>>();
         }});
  r.add({"DT-HashMap-HP", Kind::set,
         {"detectable", "persistent", "hashmap", "dt", "reclaimer-hp"},
         [] {
           return std::make_unique<
               SetAdapter<ds::DtHashMapT<mem::HpReclaimer>>>(
               PersistProfile::general, hm_bucket_bits());
         }});
  r.add({"DT-HashMap-POP", Kind::set,
         {"detectable", "persistent", "hashmap", "dt", "reclaimer-pop"},
         [] {
           return std::make_unique<
               SetAdapter<ds::DtHashMapT<mem::PopReclaimer>>>(
               PersistProfile::general, hm_bucket_bits());
         }});

  // Queue series (Figure 7): trait "paper-queue".
  r.add({"Isb-Queue", Kind::queue,
         {"detectable", "persistent", "paper-queue", "reclaimer-ebr"},
         [] { return std::make_unique<QueueAdapter<IsbQueue>>(); }});
  r.add({"Log-Queue", Kind::queue, {"persistent", "paper-queue"},
         [] { return std::make_unique<QueueAdapter<LogQueue>>(); }});
  r.add({"Capsules-General", Kind::queue,
         {"persistent", "paper-queue", "capsules"}, [] {
           return std::make_unique<QueueAdapter<CapsulesQueue>>(
               CapsulesQueue::Variant::general);
         }});
  r.add({"Capsules-Normal", Kind::queue,
         {"persistent", "paper-queue", "capsules"}, [] {
           return std::make_unique<QueueAdapter<CapsulesQueue>>(
               CapsulesQueue::Variant::normalized);
         }});
  r.add({"MS-Queue", Kind::queue, {"volatile", "baseline"},
         [] { return std::make_unique<QueueAdapter<MsQueue>>(); }});
  r.add({"MS-Queue-leak", Kind::queue,
         {"volatile", "baseline", "ablation", "no-reclaim"}, [] {
           return std::make_unique<QueueAdapter<baselines::MsQueueLeaky>>();
         }});

  // Section 6 structures.
  r.add({"Bst-Isb", Kind::set, {"detectable", "persistent", "bst"}, [] {
           return std::make_unique<SetAdapter<IsbBst>>(
               PersistProfile::general);
         }});
  r.add({"Bst-Isb-Opt", Kind::set, {"detectable", "persistent", "bst"},
         [] {
           return std::make_unique<SetAdapter<IsbBst>>(
               PersistProfile::optimized);
         }});
  r.add({"DT-SkipList", Kind::set,
         {"detectable", "persistent", "skiplist"},
         [] { return std::make_unique<SetAdapter<DtSkipList>>(); }});
  r.add({"DT-Treiber", Kind::stack, {"detectable", "persistent"}, [] {
           return std::make_unique<StackAdapter<DtStack>>();
         }});
  r.add({"DT-Elimination", Kind::stack,
         {"detectable", "persistent", "elimination"}, [] {
           DtStack::Config c;
           c.elimination = true;
           return std::make_unique<StackAdapter<DtStack>>(c);
         }});
  r.add({"Isb-Exchanger", Kind::exchanger, {"detectable", "persistent"},
         [] {
           return std::make_unique<ExchangerAdapter<IsbExchanger>>();
         }});
  return true;
}

// Self-registration: including this header anywhere in the program
// populates the registry during static initialisation, once.
inline const bool builtins_registered = register_builtins();

}  // namespace detail

}  // namespace repro::harness
