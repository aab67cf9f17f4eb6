// perfbench: the repository's benchmark.
//
//   perfbench --workload list-read|queue-pairs|map-update --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Two pinned closed-loop workers drive one structure at a time in short
// slices of a fixed wall interval; the main thread raises a stop flag at the
// end of each slice and switches pmem::set_mode only between slices,
// while no worker runs.  Series that are compared with each other run
// in round-robin slices of the same process, so host drift moves them
// together and cancels in their ratio or difference.  Wall-clock
// figures (rates and latency percentiles) are medians over a series'
// slices, so a few slices slowed by the host do not move them.
//
// Untraced (--trace 0): the detectable structure in shared_cache
// alternates with its volatile EBR counterpart in private_cache.  The
// detectable series gives ops/s, sampled latency and persistence
// instructions per op; the pair gives vs_volatile.  Set-up (construct,
// prefill, fixed-count warm-up) is timed on several fresh instances.
//
// Traced (--trace 1): the layer ladder, five series in round robin:
//   rung 4  detectable, shared_cache             (untraced)
//   traced  detectable, shared_cache, counters snapshotted per call
//   rung 1  volatile core + LeakReclaimer, private_cache
//   rung 2  volatile core + EBR, private_cache
//   rung 3  detectable, private_cache
// plus a timed flush+fence probe.  Per-layer metrics are rung
// differences and per-call counter deltas.
//
// After the last slice every structure is checked (checks.hpp); the
// last stdout line is the JSON result, and any failed check makes the
// exit status 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crew.hpp"
#include "repro/baselines/harris_list.hpp"
#include "repro/baselines/ms_queue.hpp"
#include "repro/ds/hm_hashtable.hpp"
#include "repro/ds/isb_list.hpp"
#include "repro/ds/isb_queue.hpp"
#include "subjects.hpp"

namespace perfbench {
namespace {

using repro::mem::EbrReclaimer;
using repro::mem::LeakReclaimer;
using repro::pmem::Mode;

constexpr int kWorkers = 2;
constexpr double kSliceSeconds = 0.1;
constexpr int kSetupRuns = 5;
constexpr std::size_t kMaxCallSpans = 20000;

// Isb variants use the general profile with the read-only optimisation
// (the registry's "Isb" / "Isb-HashMap"); the queue is the registry's
// "Isb-Queue".
constexpr Spec kSpecs[] = {
    // name, range, prefill%, set mix, bucket bits, queue prefill,
    // warm-up ops per worker
    {"list-read", 500, 40, repro::harness::kReadIntensive, 0, 0, 400000},
    {"queue-pairs", 0, 0, {}, 0, 100000, 400000},
    {"map-update", 1000000, 40, repro::harness::kUpdateIntensive, 15, 0,
     100000},
};

enum Role : std::uint64_t { kDetectable = 1, kVolatile = 2, kLeak = 3 };

using Factory = std::function<std::unique_ptr<Subject>()>;
struct Factories {
  Factory detectable, volatile_ebr, volatile_leak;
};

template <typename S, typename... Args>
Factory set_factory(const char* name, const Spec& spec, std::uint64_t seed,
                    Role role, Args... args) {
  return [=] {
    return std::make_unique<SetSubject<S>>(
        name, spec, seed, role, kWorkers,
        [=] { return std::make_unique<S>(args...); });
  };
}

template <typename Q>
Factory queue_factory(const char* name, const Spec& spec, std::uint64_t seed,
                      Role role) {
  return [=] {
    return std::make_unique<QueueSubject<Q>>(
        name, spec, seed, role, kWorkers,
        [] { return std::make_unique<Q>(); });
  };
}

Factories factories(const Spec& spec, std::uint64_t seed) {
  namespace ds = repro::ds;
  namespace bl = repro::baselines;
  if (std::strcmp(spec.name, "list-read") == 0) {
    return {set_factory<ds::IsbListT<EbrReclaimer>>("Isb", spec, seed,
                                                    kDetectable),
            set_factory<bl::HarrisListT<EbrReclaimer>>("Harris-LL", spec,
                                                       seed, kVolatile),
            set_factory<bl::HarrisListT<LeakReclaimer>>("Harris-LL-leak",
                                                        spec, seed, kLeak)};
  }
  if (std::strcmp(spec.name, "queue-pairs") == 0) {
    return {queue_factory<ds::IsbQueueT<EbrReclaimer>>("Isb-Queue", spec,
                                                       seed, kDetectable),
            queue_factory<bl::MsQueueT<EbrReclaimer>>("MS-Queue", spec, seed,
                                                      kVolatile),
            queue_factory<bl::MsQueueT<LeakReclaimer>>("MS-Queue-leak", spec,
                                                       seed, kLeak)};
  }
  ds::IsbHashMapT<EbrReclaimer>::Config c;
  c.bucket_bits = spec.bucket_bits;
  return {set_factory<ds::IsbHashMapT<EbrReclaimer>>("Isb-HashMap", spec,
                                                     seed, kDetectable, c),
          set_factory<ds::HarrisHashMapT<EbrReclaimer>>(
              "Harris-HashMap", spec, seed, kVolatile, spec.bucket_bits),
          set_factory<ds::HarrisHashMapT<LeakReclaimer>>(
              "Harris-HashMap-leak", spec, seed, kLeak, spec.bucket_bits)};
}

const char* mode_name(Mode m) {
  return m == Mode::shared_cache ? "shared_cache" : "private_cache";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Nearest-rank percentile of sorted latencies.
double percentile(const std::vector<std::uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  i = std::clamp<std::size_t>(i, 1, sorted.size());
  return sorted[i - 1];
}

// Latency percentiles of one kind of sampled call: each slice's p50, p99
// and p999, reported as medians over slices.  Every latency figure the
// benchmark prints comes from one of these.
struct Latency {
  static constexpr std::array<double, 3> kQ = {0.50, 0.99, 0.999};
  std::array<std::vector<double>, 3> per_slice;
  std::uint64_t samples = 0;

  void add_slice(std::vector<std::uint32_t>& ns) {
    if (ns.empty()) return;
    std::sort(ns.begin(), ns.end());
    samples += ns.size();
    for (std::size_t i = 0; i < kQ.size(); ++i) {
      per_slice[i].push_back(percentile(ns, kQ[i]));
    }
  }
  double p50() const { return median(per_slice[0]); }
  double p99() const { return median(per_slice[1]); }
  double p999() const { return median(per_slice[2]); }
};

// ---------------------------------------------------------------------
// Spans: one per phase and slice, plus a bounded number of the sampled
// calls of traced slices; kept in memory and written out at the end.
// ---------------------------------------------------------------------
struct Span {
  int parent;
  std::string name;
  std::int64_t start_ns, end_ns;
  std::uint64_t ops;
};

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}
  int open(std::string name, int parent = -1) {
    spans_.push_back({parent, std::move(name), now(), 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::uint64_t ops = 0) {
    spans_[static_cast<std::size_t>(id)].end_ns = now();
    spans_[static_cast<std::size_t>(id)].ops = ops;
  }
  // A sampled call, child of the slice span `parent`.
  void call(const Sample& s, int parent) {
    if (calls_.size() < kMaxCallSpans) calls_.push_back({s, parent});
  }
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_ns\":"
                   "%lld,\"end_ns\":%lld,\"ops\":%llu}\n",
                   i, s.parent, s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.ops));
    }
    for (const auto& [c, parent] : calls_) {
      std::fprintf(f,
                   "{\"parent\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   parent, kOpNames[static_cast<int>(c.op)],
                   static_cast<long long>(c.start_ns),
                   static_cast<long long>(c.start_ns + c.ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::pair<Sample, int>> calls_;
};

// ---------------------------------------------------------------------
// Series: one structure in one pmem mode, measured over many slices.
// ---------------------------------------------------------------------
struct Series {
  Series(std::string l, Subject* s, Mode m, bool tr = false,
         double slice = kSliceSeconds)
      : label(std::move(l)), subject(s), mode(m), traced(tr),
        slice_s(slice) {}

  std::string label;
  Subject* subject;
  Mode mode;
  bool traced;
  double slice_s;
  std::vector<Tally> tally = std::vector<Tally>(kWorkers);
  std::vector<double> rates;  // one per slice
  Latency all, by_op[kOpTypes];

  Tally merged() const {
    Tally m;
    for (const Tally& t : tally) m.merge(t);
    return m;
  }
  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const Tally& t : tally) n += t.ops;
    return n;
  }
  double ops_per_s() const { return median(rates); }
  double p50_ns() const { return all.p50(); }
  double p99_ns() const { return all.p99(); }
};

struct Env {
  Crew& crew;
  Spans& spans;
  Clock::time_point origin;
};

void run_slice(Env& env, Series& s, int parent) {
  repro::pmem::set_mode(s.mode);
  const int span = env.spans.open(s.label, parent);
  std::atomic<bool> stop{false};
  RunCtl ctl;
  ctl.stop = &stop;
  ctl.traced = s.traced;
  ctl.origin = env.origin;
  const std::uint64_t before = s.ops();
  const std::function<void(int)> job = [&](int w) {
    s.subject->run(w, ctl, s.tally[static_cast<std::size_t>(w)]);
  };
  const double wall = env.crew.run_for(job, s.slice_s, stop);
  const std::uint64_t ops = s.ops() - before;
  env.spans.close(span, ops);
  s.rates.push_back(static_cast<double>(ops) / wall);

  // Drain the slice's latency samples: this slice's percentiles, over
  // all calls and per operation type, and (traced) call spans.
  std::vector<std::uint32_t> all, by_op[kOpTypes];
  for (Tally& t : s.tally) {
    for (const Sample& x : t.samples) {
      all.push_back(x.ns);
      by_op[static_cast<int>(x.op)].push_back(x.ns);
      if (s.traced) env.spans.call(x, span);
    }
    t.samples.clear();
  }
  s.all.add_slice(all);
  for (int o = 0; o < kOpTypes; ++o) s.by_op[o].add_slice(by_op[o]);
}

// Construct, prefill from the main thread, then a fixed number of
// operations per worker in the mode the structure is measured in.
std::unique_ptr<Subject> set_up(Env& env, const Factory& make, Mode mode,
                                std::uint64_t warmup_ops) {
  repro::pmem::set_mode(mode);
  std::unique_ptr<Subject> s = make();
  const int span = env.spans.open("setup " + s->name());
  s->prefill();
  std::atomic<bool> never{false};
  RunCtl ctl;
  ctl.stop = &never;
  ctl.max_ops = warmup_ops;
  ctl.origin = env.origin;
  std::vector<Tally> discarded(kWorkers);
  const std::function<void(int)> job = [&](int w) {
    s->run(w, ctl, discarded[static_cast<std::size_t>(w)]);
  };
  env.crew.run(job);
  env.spans.close(span, warmup_ops * kWorkers);
  return s;
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void describe(const Series& s) {
  std::vector<double> r = s.rates;
  std::sort(r.begin(), r.end());
  std::printf("  %-20s %-13s %s ops/s=%.0f (slices %.0f..%.0f) p50=%.0fns "
              "p99=%.0fns p999=%.0fns samples=%llu slices=%zu\n",
              s.subject->name().c_str(), mode_name(s.mode),
              s.traced ? "traced  " : "untraced", s.ops_per_s(),
              r.empty() ? 0 : r.front(), r.empty() ? 0 : r.back(),
              s.p50_ns(), s.p99_ns(), s.all.p999(),
              static_cast<unsigned long long>(s.all.samples), r.size());
}

// Timed pwb+pfence of a just-written pool cell, in ns: batches of
// store+flush+fence minus batches of the store alone, medians of each.
double probe_pwb_pfence_ns() {
  repro::pmem::ModeGuard guard(Mode::shared_cache);
  using Node = repro::ds::ListNode;
  Node* cell = EbrReclaimer::create<Node>(0, nullptr);
  constexpr int kBatch = 256, kBatches = 400;
  std::vector<double> with, without;
  for (int b = 0; b < kBatches; ++b) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      cell->next.store(reinterpret_cast<Node*>(std::uintptr_t(i) << 6));
      repro::pmem::flush(cell);
      repro::pmem::fence();
    }
    with.push_back(seconds_since(t0) * 1e9 / kBatch);
    t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      cell->next.store(reinterpret_cast<Node*>(std::uintptr_t(i) << 6));
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    without.push_back(seconds_since(t0) * 1e9 / kBatch);
  }
  EbrReclaimer::destroy<Node>(cell);
  return median(with) - median(without);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double per(std::uint64_t count, double ops) {
  return static_cast<double>(count) / ops;
}

std::vector<Metric> end_to_end(const Series& d, const Series& v,
                               const std::vector<double>& setup_s) {
  const Tally t = d.merged();
  const double ops = static_cast<double>(std::max<std::uint64_t>(t.ops, 1));
  std::vector<double> pair_ratio;
  for (std::size_t i = 0; i < d.rates.size() && i < v.rates.size(); ++i) {
    pair_ratio.push_back(ratio(d.rates[i], v.rates[i]));
  }
  std::printf("  setup_s runs:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  return {
      {"ops_per_s", d.ops_per_s(), "1/s"},
      {"p50_ns", d.p50_ns(), "ns"},
      {"p99_ns", d.p99_ns(), "ns"},
      {"pwb_per_op", per(t.pc.flushes, ops), "1/op"},
      {"pfence_per_op", per(t.pc.fences, ops), "1/op"},
      {"psync_per_op", per(t.pc.psyncs, ops), "1/op"},
      {"vs_volatile", median(pair_ratio), "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// series: rung4, traced, rung1, rung2, rung3 (see the header comment).
std::vector<Metric> per_layer(const std::vector<Series>& series,
                              double pwb_pfence_ns) {
  const Series& traced = series[1];
  const Tally d = traced.merged();
  const Tally r4 = series[0].merged();
  const double ops = static_cast<double>(std::max<std::uint64_t>(d.ops, 1));
  const double rung[4] = {series[2].p50_ns(), series[3].p50_ns(),
                          series[4].p50_ns(), series[0].p50_ns()};
  std::vector<Metric> m;
  for (int o = 0; o < kOpTypes; ++o) {
    const OpTally& t = d.op[o];
    const Latency& h = traced.by_op[o];
    const double n = static_cast<double>(std::max<std::uint64_t>(t.n, 1));
    const std::string op = kOpNames[o];
    m.push_back({"ds." + op + "_p50_ns", h.p50(), "ns"});
    m.push_back({"ds." + op + "_p99_ns", h.p99(), "ns"});
    m.push_back({"ds." + op + "_ok_frac", per(t.ok, n), "ratio"});
    m.push_back({"pmem.pwb_per_" + op, per(t.pc.flushes, n), "1/op"});
    m.push_back({"pmem.pfence_per_" + op, per(t.pc.fences, n), "1/op"});
    m.push_back({"pmem.psync_per_" + op, per(t.pc.psyncs, n), "1/op"});
    if (t.n != 0) {
      std::printf("  %-8s share=%.4f ok=%.4f pwb=%.4f pfence=%.4f "
                  "psync=%.4f p50=%.0fns p99=%.0fns\n",
                  op.c_str(), per(t.n, ops), per(t.ok, n),
                  per(t.pc.flushes, n), per(t.pc.fences, n),
                  per(t.pc.psyncs, n), h.p50(), h.p99());
    }
  }
  const double r4_ops =
      static_cast<double>(std::max<std::uint64_t>(r4.ops, 1));
  std::printf("  per-op counts, traced: pwb=%.5f pfence=%.5f psync=%.5f; "
              "rung4 (untraced): pwb=%.5f pfence=%.5f psync=%.5f\n",
              per(d.pc.flushes, ops), per(d.pc.fences, ops),
              per(d.pc.psyncs, ops), per(r4.pc.flushes, r4_ops),
              per(r4.pc.fences, r4_ops), per(r4.pc.psyncs, r4_ops));
  const double allocs = static_cast<double>(d.ms.allocs);
  m.insert(m.end(),
           {
               {"ds.core_ns", rung[0], "ns"},
               {"ds.tracking_ns", rung[2] - rung[1], "ns"},
               {"mem.allocs_per_op", per(d.ms.allocs, ops), "1/op"},
               {"mem.reuse_frac", ratio(static_cast<double>(d.ms.reuses), allocs),
                "ratio"},
               {"mem.retires_per_op", per(d.ms.retires, ops), "1/op"},
               {"mem.reclaims_per_op", per(d.ms.reclaims, ops), "1/op"},
               // Mean over slice ends of the workers' summed limbo lists.
               {"mem.limbo_depth",
                ratio(static_cast<double>(d.limbo_sum),
                      static_cast<double>(d.limbo_samples) / kWorkers),
                "count"},
               {"mem.reclaim_ns", rung[1] - rung[0], "ns"},
               {"pmem.coalesced_per_op", per(d.pc.coalesced, ops), "1/op"},
               {"pmem.exec_ns", rung[3] - rung[2], "ns"},
               {"pmem.pwb_pfence_ns", pwb_pfence_ns, "ns"},
               {"ladder.rung1_volatile_leak_ns", rung[0], "ns"},
               {"ladder.rung2_volatile_ebr_ns", rung[1], "ns"},
               {"ladder.rung3_detectable_private_ns", rung[2], "ns"},
               {"ladder.rung4_detectable_shared_ns", rung[3], "ns"},
               {"trace.overhead_frac",
                1.0 - ratio(traced.ops_per_s(), series[0].ops_per_s()),
                "ratio"},
           });
  return m;
}

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      for (const Spec& s : kSpecs) {
        if (std::strcmp(s.name, v) == 0) a.spec = &s;
      }
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') a.seconds = 0;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.spec != nullptr && have_seed && a.seconds > 0 &&
         a.seconds <= 120 && a.trace >= 0;
}

// Workers on the second and third allowed CPUs (the first usually takes
// the most interrupts), the main thread on the fourth.
std::vector<int> worker_cpus(const std::vector<int>& cpus) {
  std::vector<int> out;
  for (int w = 0; w < kWorkers; ++w) {
    const std::size_t i = static_cast<std::size_t>(w) + 1;
    out.push_back(cpus.size() > i ? cpus[i] : -1);
  }
  return out;
}

int run(const Args& a) {
  const Spec& spec = *a.spec;
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > kWorkers + 1) pin_current_thread(cpus[kWorkers + 1]);
  Crew crew(worker_cpus(cpus));
  const Clock::time_point origin = Clock::now();
  Spans spans(origin);
  Env env{crew, spans, origin};
  const Factories f = factories(spec, a.seed);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d workers=%d "
              "pinned=%s\n",
              spec.name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, kWorkers,
              crew.pinned(0) && crew.pinned(1) ? "yes" : "no");

  std::uint64_t failed = 0, attempted = 0;
  auto retire_subject = [&](std::unique_ptr<Subject>& s) {
    const int span = spans.open("check " + s->name());
    failed += s->check(crew);
    attempted += s->attempted();
    spans.close(span);
    s.reset();
  };

  std::vector<std::unique_ptr<Subject>> subjects;
  std::vector<Series> series;
  std::vector<double> setup_s;
  if (a.trace == 0) {
    std::unique_ptr<Subject> d;
    for (int r = 0; r < kSetupRuns; ++r) {
      if (d) retire_subject(d);
      const Clock::time_point t0 = Clock::now();
      d = set_up(env, f.detectable, Mode::shared_cache, spec.warmup_ops);
      setup_s.push_back(seconds_since(t0));
    }
    subjects.push_back(std::move(d));
    subjects.push_back(set_up(env, f.volatile_ebr, Mode::private_cache,
                              spec.warmup_ops));
    series.emplace_back("detectable", subjects[0].get(), Mode::shared_cache);
    // The yardstick gets short slices: enough for a per-round rate, and
    // a tenth of the exposure to host stalls, during which a pinned
    // worker holds back EBR and the other grows the pool (peak RSS).
    // The volatile queue retires 2.5 times as fast as the detectable
    // one, so its slices set most of queue-pairs' peak.
    series.emplace_back("volatile", subjects[1].get(), Mode::private_cache,
                        false, kSliceSeconds / 10);
  } else {
    subjects.push_back(set_up(env, f.detectable, Mode::shared_cache,
                              spec.warmup_ops));
    subjects.push_back(set_up(env, f.volatile_leak, Mode::private_cache,
                              spec.warmup_ops));
    subjects.push_back(set_up(env, f.volatile_ebr, Mode::private_cache,
                              spec.warmup_ops));
    Subject* d = subjects[0].get();
    series.emplace_back("rung4", d, Mode::shared_cache);
    series.emplace_back("traced", d, Mode::shared_cache, true);
    // Every call the leak rung retires stays allocated until exit, so
    // its slices are short: enough samples for a median, bounded RSS.
    series.emplace_back("rung1", subjects[1].get(), Mode::private_cache,
                        false, kSliceSeconds / 5);
    series.emplace_back("rung2", subjects[2].get(), Mode::private_cache);
    series.emplace_back("rung3", d, Mode::private_cache);
  }

  const int measure = spans.open("measure");
  double round_s = 0;
  for (const Series& s : series) round_s += s.slice_s;
  const long rounds = std::max(1L, std::lround(a.seconds / round_s));
  for (long r = 0; r < rounds; ++r) {
    for (Series& s : series) run_slice(env, s, measure);
  }
  spans.close(measure);
  const double pwb_pfence_ns = a.trace == 1 ? probe_pwb_pfence_ns() : 0;
  repro::pmem::set_mode(Mode::shared_cache);

  for (const Series& s : series) describe(s);
  std::printf("  peak RSS %.1f MB\n", peak_rss_mb());
  // Check every structure before reporting anything.
  for (auto& s : subjects) retire_subject(s);
  if (!crew.error().empty()) {
    std::fprintf(stderr, "perfbench: worker failed: %s\n",
                 crew.error().c_str());
    ++failed;
  }

  const std::vector<Metric> metrics =
      a.trace == 0 ? end_to_end(series[0], series[1], setup_s)
                   : per_layer(series, pwb_pfence_ns);
  if (a.trace == 1 && !a.trace_out.empty() && !spans.write(a.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  }
  // A broken structure can fail more checks than calls were made; the
  // result reports failures as a share of calls, the details are above.
  const bool correct = failed == 0;
  attempted = std::max<std::uint64_t>(attempted, 1);
  print_result(correct, attempted, std::min(failed, attempted), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload list-read|queue-pairs|"
                 "map-update --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return perfbench::run(a);
}
