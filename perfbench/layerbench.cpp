// layerbench: the repository benchmark, timed end to end and layer by layer.
//
// One process runs one workload with one caller in a closed loop: each call
// into the library starts when the previous one returns, and the only worker
// threads are the library's own (at most kWorkers). Simulated arrivals come
// from the generated trace and are measured in device cycles, never in host
// time.
//
//   tune_cold    cold plan store; Table-1 networks x {MAS-Attention, FLAT} on
//                `edge` through runner::SweepRunner::RunJobs at 2 workers.
//   serve_chat   the `chat` preset through one serve::ServeSession with
//                default options on a warm plan store.
//   fleet_mixed  the `mixed_sd` preset through a 4-device fleet::FleetRouter
//                (edge;npu;gpu, p2c, weighted tenants, Poisson arrivals,
//                adaptive TTFT latch, crash faults with retries, deadline).
//
// Set-up (trace generation, backend resolution, plan-cache load and one
// untimed warm-up pass) is repeated kSetupReps times and reported as the
// median `setup_s`. The timed passes then run back to back for --seconds.
// Every pass is checked (see the Check* functions); a failed check or a
// layer call that throws fails the run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the time
// untraced and half traced on the same inputs, records a span around every
// layer call the benchmark makes, probes single calls (plan miss/hit,
// simulate, empty fan-out), prints the per-layer metrics plus the tracing
// overhead, and writes the spans as a Chrome trace to --span-out.
//
// The timing model has no hardware reference in this repository, so no
// accuracy figure is reported; simulated statistics are pinned instead by
// the printed output digests.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/status.h"
#include "common/table.h"
#include "dataflow/workloads.h"
#include "fleet/fleet.h"
#include "planner/planner.h"
#include "runner/sweep_runner.h"
#include "runner/thread_pool.h"
#include "serve/arrival.h"
#include "serve/fault.h"
#include "serve/serve_planner.h"
#include "serve/session.h"
#include "serve/slo.h"
#include "serve/trace.h"
#include "sim/backend.h"

namespace {

using namespace mas;
using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 2;      // worker threads of the sweep and the fleet
constexpr int kSetupReps = 3;    // set-ups per run; setup_s is their median
constexpr int kSimulateReps = 5; // Simulate() calls per probed plan
// Plan cache of the warm workloads, relative to the repository root.
constexpr const char* kPlanCache = "perfbench/plan_cache.json";

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Independent seed for one input stream of a run.
enum Stream : std::uint64_t { kTraceStream = 1, kRouterStream = 2, kFaultStream = 3 };
std::uint64_t StreamSeed(std::uint64_t seed, Stream stream) {
  return SplitMix64(SplitMix64(seed) ^ stream);
}

std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Shortest text that reads back as the same double.
std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t EngineTasks(const sim::SimResult& sim) {
  std::uint64_t tasks = 0;
  for (const sim::ResourceStats& r : sim.resources) tasks += r.task_count;
  return tasks;
}

// ------------------------------------------------------------------ spans

// In-memory span recorder. Spans carry a name, start/end (µs since the
// tracer was made), the id of the span that caused them and a lane (the
// worker that recorded them). Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int Begin(const std::string& name, int parent, std::size_t lane = 0) {
    if (!enabled_) return -1;
    const double now = Micros();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, lane, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Ends span `id` (a no-op for the -1 a disabled tracer hands out).
  void End(int id) {
    if (id < 0) return;
    const double now = Micros();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = now;
  }

  // Per span: its duration minus the part of it that child spans cover.
  std::vector<double> SelfMicros() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.start_us, s.end_us});
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::vector<std::pair<double, double>>& iv = children[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double reach = spans_[i].start_us;
      for (const auto& [start, end] : iv) {
        const double lo = std::max(start, reach);
        const double hi = std::min(end, spans_[i].end_us);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, end);
      }
      self[i] = (spans_[i].end_us - spans_[i].start_us) - covered;
    }
    return self;
  }

  // Chrome/Perfetto trace-event JSON ("X" events; args carry id, parent and
  // self time).
  void WriteChromeJson(const std::string& path) const {
    const std::vector<double> self = SelfMicros();
    JsonWriter json;
    json.BeginObject();
    json.BeginArray("traceEvents");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.BeginObject();
      json.KeyValue("name", s.name);
      json.KeyValue("ph", "X");
      json.KeyValue("pid", static_cast<std::int64_t>(1));
      json.KeyValue("tid", static_cast<std::int64_t>(s.lane));
      json.KeyValue("ts", s.start_us);
      json.KeyValue("dur", s.end_us - s.start_us);
      json.BeginObject("args");
      json.KeyValue("id", static_cast<std::int64_t>(i));
      json.KeyValue("parent", static_cast<std::int64_t>(s.parent));
      json.KeyValue("self_us", self[i]);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    WriteFile(path, json.Take() + "\n");
  }

  // Count, total and self time per span name, in first-seen order.
  void PrintSummary(std::ostream& out) const {
    const std::vector<double> self = SelfMicros();
    std::vector<std::string> order;
    std::map<std::string, std::vector<double>> rows;  // count, total, self
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto [it, fresh] = rows.try_emplace(s.name, std::vector<double>{0, 0, 0});
      if (fresh) order.push_back(s.name);
      it->second[0] += 1;
      it->second[1] += s.end_us - s.start_us;
      it->second[2] += self[i];
    }
    out << "span summary (name, count, total ms, self ms):\n";
    for (const std::string& name : order) {
      const std::vector<double>& r = rows[name];
      char line[160];
      std::snprintf(line, sizeof(line), "  %-24s %8.0f %12.3f %12.3f\n", name.c_str(), r[0],
                    r[1] / 1e3, r[2] / 1e3);
      out << line;
    }
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::size_t lane;
    double start_us;
    double end_us;
  };

  double Micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::mutex mu_;  // guards spans_ (probe spans come from worker threads)
  std::vector<Span> spans_;
};

// RAII span: ends when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ----------------------------------------------------------- bookkeeping

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class MetricSet {
 public:
  void Set(const std::string& name, const std::string& unit, double value) {
    for (Metric& m : items_) {
      if (m.name == name) {
        m.unit = unit;
        m.value = value;
        return;
      }
    }
    items_.push_back(Metric{name, unit, value});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// Correctness checks and layer-call failures, counted against attempts.
// Thread-safe: probes call layers from worker threads.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cout << "check FAILED: " << what << "\n";
  }
  // A call into a layer: counts as an attempt; if it throws, counts as a
  // failure and rethrows (the run cannot go on without its result).
  template <typename Fn>
  auto Call(const std::string& what, Fn&& fn) -> decltype(fn()) {
    ++attempted_;
    try {
      return fn();
    } catch (const std::exception& e) {
      ++failed_;
      std::cout << "layer call FAILED: " << what << ": " << e.what() << "\n";
      throw;
    }
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs, one set-up (the benchmark's own smoke test)
  std::string span_out;
};

struct Bench {
  const RunConfig& cfg;
  Tracer tracer;
  Checks checks;
  MetricSet e2e;    // printed with --trace 0
  MetricSet layer;  // printed with --trace 1
  std::string digest;
  int root_span = -1;
};

// Timed-pass statistics shared by all workloads.
struct PassStats {
  std::vector<double> seconds;
  std::vector<double> requests_per_s;
  std::vector<double> plans_per_s;
};

// Calls `pass` back to back until `seconds` of wall time have passed (at
// least once).
template <typename Pass>
void ClosedLoop(double seconds, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  do {
    pass();
  } while (Seconds(start, Clock::now()) < seconds);
}

// Splits a traced run's time: half untraced, half traced, same inputs.
struct Phase {
  bool traced;
  double seconds;
};
std::vector<Phase> TimedPhases(const RunConfig& cfg) {
  if (!cfg.trace) return {{false, cfg.seconds}};
  return {{false, cfg.seconds / 2}, {true, cfg.seconds / 2}};
}

void RecordDigest(Bench& b, const std::string& json) {
  const std::string d = Hex64(Fnv1a64(json));
  if (b.digest.empty()) {
    b.digest = d;
    std::cout << "digest " << b.cfg.workload << " seed=" << b.cfg.seed << " fnv1a64=" << d
              << " bytes=" << json.size() << "\n";
  }
  b.checks.Expect(d == b.digest, "deterministic output identical on every pass");
}

// Throughput and overhead metrics common to every workload.
void ReportThroughput(Bench& b, const PassStats& untraced, const PassStats& traced) {
  std::cerr << "layerbench: " << untraced.seconds.size() << " untraced passes, seconds:";
  for (double s : untraced.seconds) std::cerr << " " << FormatFixed(s, 3);
  std::cerr << "\n";
  b.e2e.Set("requests_per_s", "1/s", Median(untraced.requests_per_s));
  b.e2e.Set("plans_per_s", "1/s", Median(untraced.plans_per_s));
  if (b.cfg.trace) {
    b.layer.Set("trace.plans_per_s_delta", "1/s",
                Median(traced.plans_per_s) - Median(untraced.plans_per_s));
    b.layer.Set("trace.requests_per_s_delta", "1/s",
                Median(traced.requests_per_s) - Median(untraced.requests_per_s));
  }
}

// Cost of one empty ParallelForWorkers call at kWorkers workers: median of
// 21 blocks of 100 calls.
double FanoutMicros(Bench& b) {
  ScopedSpan span(b.tracer, "runner.fanout", b.root_span);
  std::vector<double> blocks;
  for (int block = 0; block < 21; ++block) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 100; ++i) {
      runner::ParallelForWorkers(kWorkers, kWorkers, [](std::size_t, std::size_t) {});
    }
    blocks.push_back(Seconds(t0, Clock::now()) * 1e6 / 100);
  }
  return Median(blocks);
}

void StoreRoundTrip(Bench& b, const PlanStore& store, std::vector<double>* save_ms,
                    std::vector<double>* load_ms, std::size_t* bytes) {
  Clock::time_point t0 = Clock::now();
  const std::string text = b.checks.Call("PlanStore::ToJson", [&] { return store.ToJson(); });
  save_ms->push_back(Seconds(t0, Clock::now()) * 1e3);
  t0 = Clock::now();
  const PlanStore back =
      b.checks.Call("PlanStore::FromJson", [&] { return PlanStore::FromJson(text); });
  load_ms->push_back(Seconds(t0, Clock::now()) * 1e3);
  *bytes = text.size();
  b.checks.Expect(back.ToJson() == text, "plan store round-trips FromJson(ToJson()) byte for byte");
}

// Every per-layer metric, zero where the workload bypasses or does not
// measure that layer; workloads overwrite what they measure.
void DeclareLayerMetrics(MetricSet& m) {
  const std::vector<std::pair<const char*, const char*>> all = {
      {"runner.sweep_s", "s"},          {"runner.fanout_us", "us"},
      {"planner.plans_tuned", "count"}, {"planner.plans_reused", "count"},
      {"planner.hit_ratio", "ratio"},   {"planner.plan_miss_ms.p50", "ms"},
      {"planner.plan_hit_us", "us"},    {"planner.store_load_ms", "ms"},
      {"planner.store_save_ms", "ms"},  {"planner.store_bytes", "bytes"},
      {"search.evaluations", "count"},  {"search.evals_per_s", "1/s"},
      {"sim.simulate_us.tuned", "us"},  {"sim.simulate_us.prefill", "us"},
      {"sim.simulate_us.decode", "us"}, {"sim.tasks", "count"},
      {"sim.tasks_per_s", "1/s"},       {"serve.run_s", "s"},
      {"serve.rounds", "count"},        {"serve.prefill_sims", "count"},
      {"serve.decode_sims", "count"},   {"serve.rounds_per_s", "1/s"},
      {"serve.plan_count", "count"},    {"serve.trace_gen_ms", "ms"},
      {"serve.json_emit_ms", "ms"},     {"serve.sim_share_est", "ratio"},
      {"serve.self_s_est", "s"},        {"fleet.run_s", "s"},
      {"fleet.rounds", "count"},        {"fleet.sims", "count"},
      {"fleet.retries", "count"},       {"fleet.shed", "count"},
      {"fleet.timed_out", "count"},     {"fleet.crashed", "count"},
      {"fleet.imbalance", "ratio"},     {"fleet.slo_eval_us", "us"},
      {"fleet.json_emit_ms", "ms"},     {"trace.plans_per_s_delta", "1/s"},
      {"trace.requests_per_s_delta", "1/s"},
  };
  for (const auto& [name, unit] : all) m.Set(name, unit, 0.0);
}

// Set-up timing wrapper: `once()` performs one full set-up; the median of
// kSetupReps (1 in smoke mode) becomes setup_s.
template <typename Once>
void MeasureSetup(Bench& b, Once&& once) {
  ScopedSpan span(b.tracer, "setup", b.root_span);
  std::vector<double> reps;
  const int n = b.cfg.smoke ? 1 : kSetupReps;
  for (int i = 0; i < n; ++i) {
    ScopedSpan rep(b.tracer, "setup.rep", span.id());
    const Clock::time_point t0 = Clock::now();
    once(rep.id());
    reps.push_back(Seconds(t0, Clock::now()));
  }
  b.e2e.Set("setup_s", "s", Median(reps));
}

double GeomeanMcycles(const std::vector<double>& cycles) {
  if (cycles.empty()) return 0.0;
  double log_sum = 0.0;
  for (double c : cycles) log_sum += std::log(c / 1e6);
  return std::exp(log_sum / static_cast<double>(cycles.size()));
}

// Geomean of predicted Mcycles over every plan in `store`.
double StoreGeomeanMcycles(const PlanStore& store) {
  std::vector<double> cycles;
  const json::Value doc = json::Parse(store.ToJson());
  for (const json::Value& plan : doc.Get("plans").AsArray()) {
    cycles.push_back(TuningPlan::FromJson(plan).predicted_cycles);
  }
  return GeomeanMcycles(cycles);
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Planner work counters: a snapshot (Of) or the work between two (Since).
struct PlannerCounters {
  std::int64_t evaluations = 0;
  std::int64_t tuned = 0;
  std::int64_t reused = 0;
  static PlannerCounters Of(const Planner& p) {
    return {p.search_evaluations(), p.plans_tuned(), p.plans_reused()};
  }
  PlannerCounters Since(const PlannerCounters& before) const {
    return {evaluations - before.evaluations, tuned - before.tuned, reused - before.reused};
  }
};

// The planner.* counters of one timed pass.
void SetPlannerWork(Bench& b, const PlannerCounters& work) {
  b.layer.Set("planner.plans_tuned", "count", static_cast<double>(work.tuned));
  b.layer.Set("planner.plans_reused", "count", static_cast<double>(work.reused));
  b.layer.Set("planner.hit_ratio", "ratio",
              static_cast<double>(work.reused) /
                  static_cast<double>(std::max<std::int64_t>(1, work.tuned + work.reused)));
}

// One probed Simulate(): the median host time of kSimulateReps calls on a
// reused engine (as the search and the session run them) and the engine
// tasks one call retires.
struct SimProbe {
  double seconds = 0.0;
  std::uint64_t tasks = 0;
};
SimProbe ProbeSimulate(Bench& b, const Planner& planner, const TuningPlan& plan,
                       const sim::HardwareConfig& hw, sim::Engine& engine, int parent) {
  std::vector<double> reps;
  SimProbe probe;
  for (int r = 0; r < kSimulateReps; ++r) {
    ScopedSpan span(b.tracer, "planner.simulate", parent);
    const Clock::time_point t0 = Clock::now();
    const sim::SimResult sim = b.checks.Call(
        "Planner::Simulate", [&] { return planner.Simulate(plan, hw, false, &engine); });
    reps.push_back(Seconds(t0, Clock::now()));
    probe.tasks = EngineTasks(sim);
  }
  probe.seconds = Median(reps);
  return probe;
}

// Median host time of a store-hit Plan() over every stored plan placed on
// one of `hws`; checks that none of them had to be tuned.
double ProbePlanHits(Bench& b, Planner& planner, const std::vector<sim::HardwareConfig>& hws,
                     int parent) {
  const std::int64_t tuned = planner.plans_tuned();
  const json::Value doc = json::Parse(planner.store().ToJson());
  std::vector<double> hit_us;
  for (const json::Value& entry : doc.Get("plans").AsArray()) {
    const TuningPlan plan = TuningPlan::FromJson(entry);
    for (const sim::HardwareConfig& hw : hws) {
      if (plan.hardware != hw.name) continue;
      ScopedSpan span(b.tracer, "planner.plan.hit", parent);
      const Clock::time_point t0 = Clock::now();
      b.checks.Call("Planner::Plan (hit)", [&] { return planner.Plan(plan.shape, plan.method, hw); });
      hit_us.push_back(Seconds(t0, Clock::now()) * 1e6);
      break;
    }
  }
  b.checks.Expect(planner.plans_tuned() == tuned, "stored plans are served without tuning");
  return Median(hit_us);
}

// ------------------------------------------------------------- tune_cold

// The Table-1 grid in table order. It has no random stream, so the seed
// does not change it.
std::vector<runner::SweepJob> TuneJobs(const RunConfig& cfg) {
  const sim::HardwareConfig hw = sim::ResolveBackend("edge");
  std::vector<NetworkWorkload> networks = Table1Networks();
  if (cfg.smoke) networks.resize(1);
  std::vector<runner::SweepJob> jobs;
  for (const NetworkWorkload& net : networks) {
    for (Method method : {Method::kMas, Method::kFlat}) {
      runner::SweepJob job;
      job.shape = net.shape;
      job.method = method;
      job.hw = hw;
      jobs.push_back(job);
    }
  }
  return jobs;
}

void RunTuneCold(Bench& b) {
  std::vector<runner::SweepJob> jobs;
  MeasureSetup(b, [&](int parent) {
    {
      ScopedSpan span(b.tracer, "setup.jobs", parent);
      jobs = TuneJobs(b.cfg);
    }
    // Warm-up: tune the first network pair on a throwaway cold runner.
    ScopedSpan span(b.tracer, "warmup", parent);
    runner::SweepRunner warm(runner::SweepOptions{kWorkers, true});
    const std::vector<runner::SweepJob> first(jobs.begin(), jobs.begin() + 2);
    b.checks.Call("SweepRunner::RunJobs (warm-up)", [&] { return warm.RunJobs(first); });
  });

  PassStats stats[2];
  std::vector<double> evals_per_s, save_ms, load_ms, tuned_mcycles;
  PlannerCounters work;  // of the last pass (a fresh planner per pass)
  std::size_t store_bytes = 0;
  std::uint64_t tasks = 0;
  for (const Phase& phase : TimedPhases(b.cfg)) {
    Tracer& tracer = b.tracer;
    ScopedSpan phase_span(tracer, phase.traced ? "timed.traced" : "timed.untraced",
                          b.root_span);
    PassStats& s = stats[phase.traced ? 1 : 0];
    ClosedLoop(phase.seconds, [&] {
      runner::SweepRunner runner(runner::SweepOptions{kWorkers, true});  // cold store
      const int id = phase.traced ? tracer.Begin("runner.run_jobs", phase_span.id()) : -1;
      const Clock::time_point t0 = Clock::now();
      const runner::SweepReport report =
          b.checks.Call("SweepRunner::RunJobs", [&] { return runner.RunJobs(jobs); });
      const double dt = Seconds(t0, Clock::now());
      tracer.End(id);

      const Planner& planner = runner.planner();
      work = PlannerCounters::Of(planner);
      s.seconds.push_back(dt);
      s.requests_per_s.push_back(static_cast<double>(jobs.size()) / dt);
      s.plans_per_s.push_back(static_cast<double>(work.tuned + work.reused) / dt);
      evals_per_s.push_back(static_cast<double>(work.evaluations) / dt);

      ScopedSpan check(tracer, "checks", phase_span.id());
      bool all_ok = report.results.size() == jobs.size() && report.stats.failed_jobs == 0;
      tuned_mcycles.clear();
      tasks = 0;
      for (const runner::JobResult& r : report.results) {
        all_ok = all_ok && r.ok();
        tuned_mcycles.push_back(static_cast<double>(r.sim.cycles));
        tasks += EngineTasks(r.sim);
      }
      b.checks.Expect(all_ok, "every sweep job succeeds");
      b.checks.Expect(work.tuned > 0 && work.evaluations == report.stats.search_evaluations,
                      "a cold store tunes plans; planner and sweep agree on evaluations");
      StoreRoundTrip(b, planner.store(), &save_ms, &load_ms, &store_bytes);
      RecordDigest(b, report.ToJson());
    });
  }
  ReportThroughput(b, stats[0], stats[1]);
  b.e2e.Set("tuned_mcycles_geomean", "Mcycles", GeomeanMcycles(tuned_mcycles));
  if (!b.cfg.trace) return;

  const PassStats& traced = stats[1];
  b.layer.Set("runner.sweep_s", "s", Median(traced.seconds));
  SetPlannerWork(b, work);
  b.layer.Set("search.evaluations", "count", static_cast<double>(work.evaluations));
  b.layer.Set("search.evals_per_s", "1/s", Median(evals_per_s));
  b.layer.Set("planner.store_save_ms", "ms", Median(save_ms));
  b.layer.Set("planner.store_load_ms", "ms", Median(load_ms));
  b.layer.Set("planner.store_bytes", "bytes", static_cast<double>(store_bytes));
  b.layer.Set("sim.tasks", "count", static_cast<double>(tasks));

  // Probes: each job's cold Plan() (a miss) at kWorkers workers, then
  // serially a store hit and a few Simulate() calls per plan.
  ScopedSpan probe(b.tracer, "probe", b.root_span);
  Planner planner;
  std::vector<TuningPlan> plans(jobs.size());
  std::vector<double> miss_ms(jobs.size());
  runner::ParallelForWorkers(jobs.size(), kWorkers, [&](std::size_t worker, std::size_t i) {
    const runner::SweepJob& job = jobs[i];
    const int id = b.tracer.Begin("planner.plan.miss", probe.id(), worker);
    const Clock::time_point t0 = Clock::now();
    plans[i] = b.checks.Call("Planner::Plan (miss)", [&] {
      return planner.Plan(job.shape, job.method, job.hw, job.policy);
    });
    miss_ms[i] = Seconds(t0, Clock::now()) * 1e3;
    b.tracer.End(id);
  });
  b.layer.Set("planner.plan_hit_us", "us", ProbePlanHits(b, planner, {jobs[0].hw}, probe.id()));
  sim::Engine engine(jobs[0].hw);
  std::vector<double> simulate_us;
  double simulate_s = 0.0;
  std::uint64_t probe_tasks = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SimProbe p = ProbeSimulate(b, planner, plans[i], jobs[i].hw, engine, probe.id());
    simulate_us.push_back(p.seconds * 1e6);
    simulate_s += p.seconds;
    probe_tasks += p.tasks;
  }
  b.layer.Set("planner.plan_miss_ms.p50", "ms", Median(miss_ms));
  b.layer.Set("sim.simulate_us.tuned", "us", Median(simulate_us));
  b.layer.Set("sim.tasks_per_s", "1/s",
              simulate_s > 0 ? static_cast<double>(probe_tasks) / simulate_s : 0.0);
}

// ------------------------------------------------------ serving workloads

// Session-request checks shared by serve_chat and each fleet device.
void CheckLatencyOrder(Checks& checks, const std::string& who, double p50, double p95,
                       double p99, double max, const char* what) {
  checks.Expect(p50 <= p95 && p95 <= p99 && p99 <= max,
                who + ": " + what + " p50 <= p95 <= p99 <= max");
}

// Every trace request appears exactly once among `ids`.
bool SameIds(const serve::RequestTrace& trace, std::vector<std::int64_t> ids) {
  std::vector<std::int64_t> want;
  for (const serve::ServeRequest& r : trace.requests) want.push_back(r.id);
  std::sort(want.begin(), want.end());
  std::sort(ids.begin(), ids.end());
  return want == ids;
}

// Requests with a terminal outcome (each request has exactly one).
std::int64_t OutcomeTotal(const serve::ServeMetrics& m) {
  return m.completed + m.shed + m.timed_out + m.crashed;
}

void LoadCache(Bench& b, Planner& planner, int parent, std::vector<double>* load_ms,
               std::size_t* bytes) {
  const std::string text = ReadText(kPlanCache);
  if (text.empty()) {
    std::cerr << "layerbench: no plan cache at " << kPlanCache
              << "; the warm-up pass tunes every plan\n";
    return;
  }
  ScopedSpan span(b.tracer, "planner.store_load", parent);
  const Clock::time_point t0 = Clock::now();
  planner.store() = b.checks.Call("PlanStore::FromJson", [&] { return PlanStore::FromJson(text); });
  load_ms->push_back(Seconds(t0, Clock::now()) * 1e3);
  *bytes = text.size();
}

serve::SyntheticTraceSpec PresetShape(const RunConfig& cfg, const std::string& preset,
                                      std::int64_t full_requests) {
  serve::SyntheticTraceSpec shape =
      serve::FindTracePreset(preset, cfg.smoke ? 32 : full_requests);
  shape.seed = StreamSeed(cfg.seed, kTraceStream);
  return shape;
}

// ------------------------------------------------------------ serve_chat

struct ChatSetup {
  serve::RequestTrace trace;
  sim::HardwareConfig hw;
  std::unique_ptr<Planner> planner;
};

void CheckServeResult(Bench& b, const serve::RequestTrace& trace,
                      const serve::ServeResult& result) {
  const serve::ServeMetrics& m = result.metrics;
  Checks& c = b.checks;
  std::vector<std::int64_t> ids;
  std::int64_t prompt = 0, decode = 0;
  bool one_outcome = true;
  for (const serve::RequestMetrics& r : result.requests) {
    ids.push_back(r.id);
    prompt += r.prompt_len;
    decode += r.decode_len;
    one_outcome = one_outcome && r.outcome == serve::RequestOutcome::kCompleted;
  }
  c.Expect(SameIds(trace, ids) && m.requests == static_cast<std::int64_t>(trace.requests.size()),
           "serve: every trace request reported exactly once");
  c.Expect(one_outcome && !m.fault_layer_active,
           "serve: every request reaches exactly one outcome (completed)");
  c.Expect(prompt == trace.TotalPromptTokens() && m.prompt_tokens == prompt,
           "serve: prompt token total matches the trace");
  c.Expect(decode == trace.TotalDecodeTokens() && m.decode_tokens == decode,
           "serve: decode token total matches the trace");
  c.Expect(m.generated_tokens == m.requests + m.decode_tokens,
           "serve: generated tokens = one per prefill + every decode token");
  CheckLatencyOrder(c, "serve", m.p50_ttft_cycles, m.p95_ttft_cycles, m.p99_ttft_cycles,
                    m.max_ttft_cycles, "TTFT");
  CheckLatencyOrder(c, "serve", m.p50_tpot_cycles, m.p95_tpot_cycles, m.p99_tpot_cycles,
                    m.max_tpot_cycles, "TPOT");
}

// Replays the session's plan demand for a fault-free trace: how many sims
// each plan serves (prefill once per request, one decode sim per step),
// keyed by plan key.
struct PlanUse {
  const TuningPlan* plan = nullptr;
  std::int64_t sims = 0;
  bool prefill = false;
};
std::map<std::string, PlanUse> PlanDemand(serve::ServePlanner& sp,
                                          const serve::RequestTrace& trace) {
  std::map<std::string, PlanUse> demand;
  auto use = [&](const TuningPlan& plan, bool prefill) {
    PlanUse& u = demand[plan.key];
    u.plan = &plan;
    u.prefill = prefill;
    ++u.sims;
  };
  for (const serve::ServeRequest& r : trace.requests) {
    use(sp.PrefillPlan(r.prompt_len), true);
    for (std::int64_t done = 0; done < r.decode_len;) {
      const std::int64_t queries = std::min(r.speculation, r.decode_len - done);
      use(sp.DecodePlan(r.prompt_len + done, queries), false);
      done += queries;
    }
  }
  return demand;
}

void RunServeChat(Bench& b) {
  ChatSetup setup;
  std::vector<double> trace_gen_ms, load_ms;
  std::size_t cache_bytes = 0;
  std::int64_t warm_tuned = 0;
  MeasureSetup(b, [&](int parent) {
    ChatSetup s;
    {
      ScopedSpan span(b.tracer, "serve.trace_gen", parent);
      const Clock::time_point t0 = Clock::now();
      s.trace = b.checks.Call("serve::GenerateTrace", [&] {
        return serve::GenerateTrace(PresetShape(b.cfg, "chat", 1024));
      });
      trace_gen_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    s.hw = sim::ResolveBackend("edge");
    s.planner = std::make_unique<Planner>();
    LoadCache(b, *s.planner, parent, &load_ms, &cache_bytes);
    ScopedSpan span(b.tracer, "warmup", parent);
    serve::ServePlanner sp(*s.planner, s.hw, Llama3Geometry());
    serve::ServeSession session(sp);
    b.checks.Call("ServeSession::Run (warm-up)", [&] { return session.Run(s.trace); });
    warm_tuned = s.planner->plans_tuned();
    setup = std::move(s);
  });
  if (warm_tuned > 0) {
    std::cerr << "layerbench: warm-up tuned " << warm_tuned
              << " plans missing from the plan cache\n";
  }

  Planner& planner = *setup.planner;
  const double requests = static_cast<double>(setup.trace.requests.size());
  PassStats stats[2];
  std::vector<double> json_ms, rounds_per_s;
  serve::ServeMetrics last;
  PlannerCounters last_work;
  std::int64_t plan_count = 0;
  for (const Phase& phase : TimedPhases(b.cfg)) {
    Tracer& tracer = b.tracer;
    ScopedSpan phase_span(tracer, phase.traced ? "timed.traced" : "timed.untraced",
                          b.root_span);
    PassStats& s = stats[phase.traced ? 1 : 0];
    ClosedLoop(phase.seconds, [&] {
      serve::ServePlanner sp(planner, setup.hw, Llama3Geometry());
      serve::ServeSession session(sp);
      const PlannerCounters before = PlannerCounters::Of(planner);
      const int id = phase.traced ? tracer.Begin("serve.run", phase_span.id()) : -1;
      const Clock::time_point t0 = Clock::now();
      const serve::ServeResult result =
          b.checks.Call("ServeSession::Run", [&] { return session.Run(setup.trace); });
      const double dt = Seconds(t0, Clock::now());
      tracer.End(id);
      const PlannerCounters work = PlannerCounters::Of(planner).Since(before);
      s.seconds.push_back(dt);
      s.requests_per_s.push_back(requests / dt);
      s.plans_per_s.push_back(static_cast<double>(work.tuned + work.reused) / dt);
      rounds_per_s.push_back(static_cast<double>(result.metrics.steps) / dt);
      last = result.metrics;
      last_work = work;
      plan_count = sp.plan_count();

      ScopedSpan check(tracer, "checks", phase_span.id());
      b.checks.Expect(work.evaluations == 0 && work.tuned == 0,
                      "serve: the timed pass performs zero search evaluations");
      CheckServeResult(b, setup.trace, result);
      const Clock::time_point j0 = Clock::now();
      JsonWriter json;
      json.BeginObject();
      result.WriteJson(json, setup.hw);
      json.EndObject();
      const std::string text = json.Take();
      json_ms.push_back(Seconds(j0, Clock::now()) * 1e3);
      RecordDigest(b, text);
    });
  }
  ReportThroughput(b, stats[0], stats[1]);
  b.e2e.Set("tuned_mcycles_geomean", "Mcycles", StoreGeomeanMcycles(planner.store()));
  if (!b.cfg.trace) return;

  const double run_s = Median(stats[1].seconds);
  b.layer.Set("serve.run_s", "s", run_s);
  b.layer.Set("serve.rounds", "count", static_cast<double>(last.steps));
  b.layer.Set("serve.prefill_sims", "count", static_cast<double>(last.prefill_sims));
  b.layer.Set("serve.decode_sims", "count", static_cast<double>(last.decode_sims));
  b.layer.Set("serve.rounds_per_s", "1/s", Median(rounds_per_s));
  b.layer.Set("serve.plan_count", "count", static_cast<double>(plan_count));
  b.layer.Set("serve.trace_gen_ms", "ms", Median(trace_gen_ms));
  b.layer.Set("serve.json_emit_ms", "ms", Median(json_ms));
  SetPlannerWork(b, last_work);
  b.layer.Set("planner.store_load_ms", "ms", Median(load_ms));
  b.layer.Set("planner.store_bytes", "bytes", static_cast<double>(cache_bytes));
  {
    ScopedSpan span(b.tracer, "planner.store_save", b.root_span);
    const Clock::time_point t0 = Clock::now();
    b.checks.Call("PlanStore::ToJson", [&] { return planner.store().ToJson(); });
    b.layer.Set("planner.store_save_ms", "ms", Seconds(t0, Clock::now()) * 1e3);
  }

  // Probe: the timed pass's plan demand, a few Simulate() calls per plan and
  // one store hit per stored plan. sims x per-plan Simulate cost estimates
  // the share of serve.run_s the simulations take.
  ScopedSpan probe(b.tracer, "probe", b.root_span);
  serve::ServePlanner sp(planner, setup.hw, Llama3Geometry());
  const auto demand = PlanDemand(sp, setup.trace);
  std::int64_t demand_sims = 0;
  double est_s = 0.0, prefill_s = 0.0, decode_s = 0.0;
  std::int64_t prefill_n = 0, decode_n = 0;
  double tasks = 0.0;
  sim::Engine engine(setup.hw);
  for (const auto& [key, use] : demand) {
    const SimProbe p = ProbeSimulate(b, planner, *use.plan, setup.hw, engine, probe.id());
    const double sims = static_cast<double>(use.sims);
    demand_sims += use.sims;
    est_s += p.seconds * sims;
    tasks += static_cast<double>(p.tasks) * sims;
    (use.prefill ? prefill_s : decode_s) += p.seconds * sims;
    (use.prefill ? prefill_n : decode_n) += use.sims;
  }
  b.checks.Expect(demand_sims == last.prefill_sims + last.decode_sims,
                  "serve: replayed plan demand matches the session's simulation count");
  b.layer.Set("planner.plan_hit_us", "us", ProbePlanHits(b, planner, {setup.hw}, probe.id()));
  b.layer.Set("sim.simulate_us.prefill", "us",
              prefill_n > 0 ? prefill_s * 1e6 / static_cast<double>(prefill_n) : 0.0);
  b.layer.Set("sim.simulate_us.decode", "us",
              decode_n > 0 ? decode_s * 1e6 / static_cast<double>(decode_n) : 0.0);
  b.layer.Set("sim.tasks", "count", tasks);
  b.layer.Set("sim.tasks_per_s", "1/s", est_s > 0 ? tasks / est_s : 0.0);
  b.layer.Set("serve.sim_share_est", "ratio", run_s > 0 ? est_s / run_s : 0.0);
  b.layer.Set("serve.self_s_est", "s", run_s - est_s);
}

// ----------------------------------------------------------- fleet_mixed

struct FleetSetup {
  serve::RequestTrace trace;
  fleet::FleetOptions options;
  serve::SloTargets slo;
  std::unique_ptr<Planner> planner;
};

// The equivalent of `mas_fleet --trace=mixed_sd --requests=1024 --devices=4
// --device-hw='edge;npu;gpu' --router=p2c --synth-tenants=3
// --tenants=weighted:t0=2 --arrival=poisson:rate=400 --slo-ttft-us=20000
// --slo-tpot-us=2000 --adaptive --fault=crash:prob=0.01 --max-retries=2
// --deadline-total-us=2000000 --jobs=2`, with every stream seeded from
// the run's seed.
void BuildFleetOptions(const RunConfig& cfg, fleet::FleetOptions* options,
                       serve::SloTargets* slo) {
  options->devices = 4;
  options->jobs = kWorkers;
  options->router = fleet::RouterSpec::Parse("p2c");
  options->router_seed = StreamSeed(cfg.seed, kRouterStream);
  options->tenants = fleet::TenantPolicySpec::Parse("weighted:t0=2");
  options->device_hw = sim::ResolveBackendList("edge;npu;gpu", options->devices);
  slo->ttft_us = 20000;
  slo->tpot_us = 2000;
  const double cycles_per_us = options->device_hw[0].frequency_ghz * 1e3;
  serve::ServeSessionOptions& session = options->session;
  session.pressure.enabled = true;
  session.pressure.ttft_target_cycles = slo->ttft_us * cycles_per_us;
  session.pressure.relief_method = "FLAT";
  session.fault = serve::FaultSpec::Parse("crash:prob=0.01");
  session.fault_seed = StreamSeed(cfg.seed, kFaultStream);
  session.resilience.max_retries = 2;
  session.resilience.total_deadline_cycles = static_cast<std::uint64_t>(2000000 * cycles_per_us);
}

serve::RequestTrace FleetTrace(const RunConfig& cfg, const sim::HardwareConfig& hw0) {
  serve::ArrivalCalibration calibration;
  calibration.frequency_ghz = hw0.frequency_ghz;
  calibration.cycles_per_tick = 1e6;
  const std::unique_ptr<serve::ArrivalModel> model =
      serve::ArrivalModelRegistry::Instance().Create(
          serve::ArrivalSpec::Parse("poisson:rate=400"), calibration);
  serve::SyntheticTraceSpec shape = PresetShape(cfg, "mixed_sd", 1024);
  shape.tenants = 3;
  return serve::RequestTrace::FromArrivalModel(*model, shape);
}

void CheckFleetResult(Bench& b, const serve::RequestTrace& trace,
                      const fleet::FleetResult& result, const serve::SloReport& slo) {
  Checks& c = b.checks;
  const fleet::FleetMetrics& fm = result.metrics;
  std::vector<std::int64_t> ids;
  std::int64_t prompt = 0, decode = 0, completed = 0;
  bool outcomes_add_up = true;
  double max_ttft = 0.0, max_tpot = 0.0;
  for (const fleet::DeviceReport& d : result.devices) {
    const serve::ServeMetrics& m = d.result.metrics;
    outcomes_add_up = outcomes_add_up && OutcomeTotal(m) == m.requests &&
                      m.requests == d.routed_requests;
    completed += m.completed;
    for (const serve::RequestMetrics& r : d.result.requests) {
      ids.push_back(r.id);
      prompt += r.prompt_len;
      decode += r.decode_len;
      if (r.outcome != serve::RequestOutcome::kCompleted) continue;
      max_ttft = std::max(max_ttft, static_cast<double>(r.TtftCycles()));
      if (r.decode_len > 0) max_tpot = std::max(max_tpot, r.TpotCycles());
    }
    const std::string who = "fleet device " + std::to_string(d.device);
    if (m.completed > 0) {
      CheckLatencyOrder(c, who, m.p50_ttft_cycles, m.p95_ttft_cycles, m.p99_ttft_cycles,
                        m.max_ttft_cycles, "TTFT");
      CheckLatencyOrder(c, who, m.p50_tpot_cycles, m.p95_tpot_cycles, m.p99_tpot_cycles,
                        m.max_tpot_cycles, "TPOT");
    }
  }
  const auto n = static_cast<std::int64_t>(trace.requests.size());
  c.Expect(SameIds(trace, ids) && fm.requests == n &&
               static_cast<std::int64_t>(result.assignments.size()) == n,
           "fleet: every trace request routed and reported exactly once");
  c.Expect(outcomes_add_up && completed == fm.completed,
           "fleet: every request reaches exactly one outcome");
  c.Expect(prompt == trace.TotalPromptTokens() && fm.prompt_tokens == prompt,
           "fleet: prompt token total matches the trace");
  c.Expect(decode == trace.TotalDecodeTokens() && fm.decode_tokens == decode,
           "fleet: decode token total matches the trace");
  CheckLatencyOrder(c, "fleet", fm.p50_ttft_cycles, fm.p95_ttft_cycles, fm.p99_ttft_cycles,
                    max_ttft, "TTFT");
  CheckLatencyOrder(c, "fleet", fm.p50_tpot_cycles, fm.p95_tpot_cycles, fm.p99_tpot_cycles,
                    max_tpot, "TPOT");
  c.Expect(slo.requests == n && slo.joint_ok <= fm.completed,
           "fleet: SLO report covers every request, only completed ones attain");
}

void RunFleetMixed(Bench& b) {
  FleetSetup setup;
  std::vector<double> trace_gen_ms, load_ms;
  std::size_t cache_bytes = 0;
  std::int64_t warm_tuned = 0;
  MeasureSetup(b, [&](int parent) {
    FleetSetup s;
    BuildFleetOptions(b.cfg, &s.options, &s.slo);
    {
      ScopedSpan span(b.tracer, "serve.trace_gen", parent);
      const Clock::time_point t0 = Clock::now();
      s.trace = b.checks.Call("RequestTrace::FromArrivalModel",
                              [&] { return FleetTrace(b.cfg, s.options.device_hw[0]); });
      trace_gen_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    }
    s.planner = std::make_unique<Planner>();
    LoadCache(b, *s.planner, parent, &load_ms, &cache_bytes);
    ScopedSpan span(b.tracer, "warmup", parent);
    fleet::FleetRouter router(*s.planner, s.options);
    b.checks.Call("FleetRouter::Run (warm-up)", [&] { return router.Run(s.trace); });
    warm_tuned = s.planner->plans_tuned();
    setup = std::move(s);
  });
  if (warm_tuned > 0) {
    std::cerr << "layerbench: warm-up tuned " << warm_tuned
              << " plans missing from the plan cache\n";
  }

  Planner& planner = *setup.planner;
  const double requests = static_cast<double>(setup.trace.requests.size());
  PassStats stats[2];
  std::vector<double> slo_us, json_ms;
  fleet::FleetMetrics last;
  std::int64_t rounds = 0, sims = 0, retries = 0, shed = 0, timed_out = 0, crashed = 0;
  PlannerCounters last_work;
  for (const Phase& phase : TimedPhases(b.cfg)) {
    Tracer& tracer = b.tracer;
    ScopedSpan phase_span(tracer, phase.traced ? "timed.traced" : "timed.untraced",
                          b.root_span);
    PassStats& s = stats[phase.traced ? 1 : 0];
    ClosedLoop(phase.seconds, [&] {
      fleet::FleetRouter router(planner, setup.options);
      const PlannerCounters before = PlannerCounters::Of(planner);
      const int id = phase.traced ? tracer.Begin("fleet.run", phase_span.id()) : -1;
      const Clock::time_point t0 = Clock::now();
      const fleet::FleetResult result =
          b.checks.Call("FleetRouter::Run", [&] { return router.Run(setup.trace); });
      const double dt = Seconds(t0, Clock::now());
      tracer.End(id);
      const PlannerCounters work = PlannerCounters::Of(planner).Since(before);
      s.seconds.push_back(dt);
      s.requests_per_s.push_back(requests / dt);
      s.plans_per_s.push_back(static_cast<double>(work.tuned + work.reused) / dt);
      last_work = work;

      serve::SloReport slo;
      {
        const int slo_id = phase.traced ? tracer.Begin("fleet.slo_eval", phase_span.id()) : -1;
        const Clock::time_point s0 = Clock::now();
        slo = b.checks.Call("fleet::EvaluateFleetSlo",
                            [&] { return fleet::EvaluateFleetSlo(result, setup.slo); });
        slo_us.push_back(Seconds(s0, Clock::now()) * 1e6);
        tracer.End(slo_id);
      }
      ScopedSpan check(tracer, "checks", phase_span.id());
      b.checks.Expect(work.evaluations == 0 && work.tuned == 0,
                      "fleet: the timed pass performs zero search evaluations");
      CheckFleetResult(b, setup.trace, result, slo);
      const Clock::time_point j0 = Clock::now();
      JsonWriter json;
      json.BeginObject();
      serve::WriteSloJson(json, setup.slo, slo);
      result.WriteJson(json);
      json.EndObject();
      const std::string text = json.Take();
      json_ms.push_back(Seconds(j0, Clock::now()) * 1e3);
      RecordDigest(b, text);

      last = result.metrics;
      rounds = sims = retries = shed = timed_out = crashed = 0;
      for (const fleet::DeviceReport& d : result.devices) {
        const serve::ServeMetrics& m = d.result.metrics;
        rounds += m.steps;
        sims += m.prefill_sims + m.decode_sims;
        retries += m.retries;
        shed += m.shed;
        timed_out += m.timed_out;
        crashed += m.crashed;
      }
    });
  }
  ReportThroughput(b, stats[0], stats[1]);
  b.e2e.Set("tuned_mcycles_geomean", "Mcycles", StoreGeomeanMcycles(planner.store()));
  if (!b.cfg.trace) return;

  b.layer.Set("fleet.run_s", "s", Median(stats[1].seconds));
  b.layer.Set("fleet.rounds", "count", static_cast<double>(rounds));
  b.layer.Set("fleet.sims", "count", static_cast<double>(sims));
  b.layer.Set("fleet.retries", "count", static_cast<double>(retries));
  b.layer.Set("fleet.shed", "count", static_cast<double>(shed));
  b.layer.Set("fleet.timed_out", "count", static_cast<double>(timed_out));
  b.layer.Set("fleet.crashed", "count", static_cast<double>(crashed));
  b.layer.Set("fleet.imbalance", "ratio", last.imbalance);
  b.layer.Set("fleet.slo_eval_us", "us", Median(slo_us));
  b.layer.Set("fleet.json_emit_ms", "ms", Median(json_ms));
  b.layer.Set("serve.trace_gen_ms", "ms", Median(trace_gen_ms));
  SetPlannerWork(b, last_work);
  b.layer.Set("planner.store_load_ms", "ms", Median(load_ms));
  b.layer.Set("planner.store_bytes", "bytes", static_cast<double>(cache_bytes));
  {
    ScopedSpan span(b.tracer, "planner.store_save", b.root_span);
    const Clock::time_point t0 = Clock::now();
    b.checks.Call("PlanStore::ToJson", [&] { return planner.store().ToJson(); });
    b.layer.Set("planner.store_save_ms", "ms", Seconds(t0, Clock::now()) * 1e3);
  }
  ScopedSpan probe(b.tracer, "probe", b.root_span);
  b.layer.Set("planner.plan_hit_us", "us",
              ProbePlanHits(b, planner, setup.options.device_hw, probe.id()));
}

// ---------------------------------------------------------- cache regen

// Tunes every plan a serving preset can ask for on `hw`: each prefill
// bucket of the prompt range and each decode bucket of the context range at
// every query width up to the preset's speculation.
void CoverPreset(Planner& planner, const sim::HardwareConfig& hw, const std::string& preset) {
  const serve::SyntheticTraceSpec shape = serve::FindTracePreset(preset);
  serve::ServePlanner sp(planner, hw, Llama3Geometry());
  const std::int64_t min_bucket = sp.options().min_context_bucket;
  const std::int64_t lo = serve::ServePlanner::Bucket(shape.prompt_min, min_bucket);
  for (std::int64_t b = lo; b <= serve::ServePlanner::Bucket(shape.prompt_max, min_bucket);
       b *= 2) {
    sp.PrefillPlan(b);
  }
  const std::int64_t hi =
      serve::ServePlanner::Bucket(shape.prompt_max + shape.decode_max, min_bucket);
  for (std::int64_t b = lo; b <= hi; b *= 2) {
    for (std::int64_t q = 1; q <= shape.speculation; ++q) sp.DecodePlan(b, q);
  }
}

int RegenCache(const std::string& path) {
  Planner planner;
  CoverPreset(planner, sim::ResolveBackend("edge"), "chat");
  for (const sim::HardwareConfig& hw : sim::ResolveBackendList("edge;npu;gpu", 3)) {
    CoverPreset(planner, hw, "mixed_sd");
  }
  planner.store().SaveFile(path);
  std::cout << "wrote " << planner.store().size() << " plans (" << planner.search_evaluations()
            << " search evaluations) to " << path << "\n";
  return 0;
}

// ----------------------------------------------------------------- main

void PrintTable(const char* title, const MetricSet& metrics) {
  std::cout << title << ":\n";
  for (const Metric& m : metrics.items()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line;
  }
}

// Human-readable tables, then the result line: end-to-end metrics from an
// untraced run, per-layer metrics from a traced one (whose end-to-end table
// comes from its untraced half and is shown for reference only).
void PrintResult(const Bench& b, bool correct) {
  PrintTable("end-to-end metrics", b.e2e);
  if (b.cfg.trace) PrintTable("per-layer metrics (traced run)", b.layer);
  const MetricSet& shown = b.cfg.trace ? b.layer : b.e2e;
  std::cout << "checks: " << b.checks.attempted() << " attempted, " << b.checks.failed()
            << " failed\n";
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::int64_t>(1, b.checks.attempted())
      << ", \"failed\": " << b.checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : shown.items()) {
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << Number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void Usage() {
  std::cerr << "usage: layerbench --workload tune_cold|serve_chat|fleet_mixed --seed N "
               "--seconds S --trace 0|1 [--smoke] [--span-out FILE]\n"
               "       layerbench --regen-cache FILE\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string regen;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        MAS_CHECK(i + 1 < argc) << arg << " needs a value";
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = value() != "0";
      } else if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--span-out") {
        cfg.span_out = value();
      } else if (arg == "--regen-cache") {
        regen = value();
      } else {
        MAS_FAIL() << "unknown argument '" << arg << "'";
      }
    }
    if (!regen.empty()) return RegenCache(regen);
    MAS_CHECK(cfg.seconds > 0) << "--seconds must be positive";
  } catch (const std::exception& e) {
    std::cerr << "layerbench: " << e.what() << "\n";
    Usage();
    return 2;
  }

  Bench b{cfg, Tracer(cfg.trace), {}, {}, {}, {}, -1};
  if (cfg.trace) DeclareLayerMetrics(b.layer);
  bool ran = false;
  try {
    ScopedSpan root(b.tracer, cfg.workload, -1);
    b.root_span = root.id();
    if (cfg.workload == "tune_cold") {
      RunTuneCold(b);
    } else if (cfg.workload == "serve_chat") {
      RunServeChat(b);
    } else if (cfg.workload == "fleet_mixed") {
      RunFleetMixed(b);
    } else {
      std::cerr << "layerbench: unknown workload '" << cfg.workload
                << "'; options: tune_cold, serve_chat, fleet_mixed\n";
      return 2;
    }
    if (cfg.trace) b.layer.Set("runner.fanout_us", "us", FanoutMicros(b));
    ran = true;
  } catch (const std::exception& e) {
    // An exception that escapes ends the workload and counts as one more
    // failed check on top of the layer call that threw.
    b.checks.Expect(false, cfg.workload + " ran to completion (" + e.what() + ")");
  }
  b.e2e.Set("peak_rss_mb", "MB", PeakRssMb());
  b.e2e.Set("ok_ratio", "ratio",
            1.0 - static_cast<double>(b.checks.failed()) /
                      static_cast<double>(std::max<std::int64_t>(1, b.checks.attempted())));
  if (cfg.trace) {
    b.tracer.PrintSummary(std::cerr);
    if (!cfg.span_out.empty()) b.tracer.WriteChromeJson(cfg.span_out);
  }
  const bool correct = ran && b.checks.failed() == 0;
  PrintResult(b, correct);
  return correct ? 0 : 1;
}
