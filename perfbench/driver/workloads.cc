#include "workloads.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "check/oracle.h"
#include "check/reference.h"
#include "check/scenario.h"
#include "common/log.h"
#include "exp/runner.h"
#include "exp/sink.h"
#include "exp/workload_factory.h"
#include "harness/stream_pump.h"
#include "sim/trace.h"
#include "sim/trace_check.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

namespace perfbench {

using namespace mrapid;

namespace {

// ---- geometry ---------------------------------------------------------

// figures: Fig. 7 at 10 MB per file and Fig. 10 at 4 blocks, on the
// smaller end of each paper axis so one pass takes a few seconds.
const std::vector<long long> kFig7Files = {1, 2};
const std::vector<long long> kFig10RowsK = {100, 200, 400};

// wide-job: uniform A3 nodes, 40 per rack, one PI job per mode.
constexpr std::size_t kWideNodes = 768;
constexpr int kWideMaps = 3072;
constexpr int kWideReducers = 48;
constexpr std::int64_t kWideFidelityCap = 16;

// fuzz: a fixed scenario set, the same for every --seed, so the pass
// cost does not swing with how many tenant-stream scenarios (5-15 s
// and 0.4-1 GB each) a seed window happens to contain: the first
// single-job seeds of the range ci.sh fuzzes, plus one stream seed.
constexpr std::size_t kFuzzSingleJobs = 12;
constexpr std::uint64_t kFuzzStreamSeed = 9;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- pass state -------------------------------------------------------

// Span and split records are reserved up front so that they rarely grow
// while a heap window is open; HeapWindow subtracts any growth anyway.
constexpr std::size_t kReservedSpans = std::size_t{1} << 16;
constexpr std::size_t kReservedSplits = std::size_t{1} << 14;

struct PassState {
  explicit PassState(bool traced) : trace(traced) {
    if (trace) {
      out.spans.reserve(kReservedSpans);
      splits.reserve(kReservedSplits);
    }
  }

  bool trace;
  PassResult out;
  Fingerprint fingerprint;
  WorldCounters counters;
  std::vector<SplitKey> splits;
  double heap_retained_bytes = 0.0;
  std::uint64_t worlds = 0;
  std::uint64_t jobs = 0;
  std::uint64_t single_job_events = 0;  // events + wheel fires of single-job worlds
  std::uint64_t trace_events = 0;
  std::uint64_t scenarios = 0;
  std::uint64_t stream_scenarios = 0;

  SpanRecorder& recorder() { return out.spans; }

  // Heap the benchmark's own records hold.
  double record_bytes() const {
    return out.spans.heap_bytes() + static_cast<double>(splits.capacity() * sizeof(SplitKey));
  }
};

// Live heap growth across one world's life, less the growth of the
// benchmark's own span and split records.
class HeapWindow {
 public:
  explicit HeapWindow(const PassState& state) : state_(state), start_(heap()) {}
  double growth() const { return heap() - start_; }

 private:
  double heap() const { return live_heap_bytes() - state_.record_bytes(); }

  const PassState& state_;
  double start_;
};

std::uint64_t fired_events(harness::World& world) {
  return world.simulation().queue_stats().fired + world.simulation().wheel_stats().fired;
}

// Brackets one trial: a root "trial" span and its TrialRecord.
class TrialScope {
 public:
  explicit TrialScope(PassState& state) : state_(state), index_(state.out.trials.size()) {
    state_.out.trials.emplace_back();
    state_.recorder().set_trial(static_cast<int>(index_));
    span_ = state_.recorder().begin("trial");
  }

  void finish(bool ok, const std::string& error, const std::string& label) {
    SpanRecorder& recorder = state_.recorder();
    recorder.end(span_);
    const std::vector<Span>& spans = recorder.spans();
    TrialRecord& record = state_.out.trials[index_];
    record.start = spans[static_cast<std::size_t>(span_)].start;
    record.end = spans[static_cast<std::size_t>(span_)].end;
    record.ok = ok;
    for (std::size_t i = static_cast<std::size_t>(span_); i < spans.size(); ++i) {
      const std::string_view name = spans[i].name;
      if (name == "workloads.build" || name == "harness.world_build" || name == "harness.boot") {
        record.setup_s += spans[i].end - spans[i].start;
      } else if (name == "check.stream_scenario") {
        record.stream_s += spans[i].end - spans[i].start;
      }
    }
    if (!ok) state_.out.errors.push_back(label + ": " + error);
    recorder.set_trial(-1);
  }

  std::size_t index() const { return index_; }

 private:
  PassState& state_;
  std::size_t index_;
  int span_ = -1;
};

// ---- one single-job world --------------------------------------------

struct JobTrial {
  std::string label;
  harness::WorldConfig config;
  harness::RunMode mode = harness::RunMode::kHadoop;
  std::function<std::unique_ptr<wl::Workload>()> make;
  std::function<void(mr::JobSpec&)> adjust;  // may be empty
  // "" when the result is correct, else what is wrong with it.
  std::function<std::string(wl::Workload&, const mr::JobResult&)> check;
};

// Workload built, world built, booted, run and checked. The simulated
// elapsed time, result digest and event count enter the fingerprint.
exp::TrialResult run_job_trial(PassState& state, const JobTrial& job) {
  TrialScope trial(state);
  SpanRecorder& recorder = state.recorder();
  exp::TrialResult out;
  std::string error;
  double elapsed = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double check_bytes = 0.0;  // heap a check keeps (cached ground truth)
  std::optional<HeapWindow> heap;
  if (state.trace) heap.emplace(state);
  try {
    std::unique_ptr<wl::Workload> workload;
    {
      ScopedSpan span(&recorder, "workloads.build");
      workload = job.make();
    }
    std::optional<ProxyWorkload> proxy;
    if (state.trace) proxy.emplace(*workload, recorder, &state.splits);
    wl::Workload& target = proxy ? static_cast<wl::Workload&>(*proxy) : *workload;

    std::unique_ptr<harness::World> world;
    {
      ScopedSpan span(&recorder, "harness.world_build");
      world = std::make_unique<harness::World>(job.config, job.mode);
    }
    {
      ScopedSpan span(&recorder, "harness.boot");
      world->boot();
    }
    std::optional<mr::JobResult> result;
    {
      ScopedSpan span(&recorder, "harness.run");
      result = job.adjust ? world->run(target, job.adjust) : world->run(target);
    }
    events = fired_events(*world);
    state.counters.add(*world);
    state.single_job_events += events;
    ++state.worlds;
    ++state.jobs;
    {
      ScopedSpan span(&recorder, "check.output");
      if (!result.has_value()) {
        error = "hit the simulated deadline";
      } else if (!result->succeeded || result->killed) {
        error = "job failed or was killed";
      } else {
        const double before_check = state.trace ? live_heap_bytes() : 0.0;
        error = job.check(*workload, *result);
        if (state.trace) check_bytes = live_heap_bytes() - before_check;
        digest = workload->result_digest(*result);
        elapsed = result->profile.elapsed_seconds();
        exp::fill_breakdown(out, result->profile);
      }
    }
    world.reset();
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }
  if (heap) state.heap_retained_bytes += heap->growth() - check_bytes;

  const bool ok = error.empty();
  state.fingerprint.mix(static_cast<std::uint64_t>(trial.index()));
  state.fingerprint.mix(static_cast<std::uint64_t>(ok));
  state.fingerprint.mix(elapsed);
  state.fingerprint.mix(digest);
  state.fingerprint.mix(events);
  trial.finish(ok, error, job.label);
  out.ok = ok;
  out.error = error;
  return out;
}

harness::WorldConfig a3_config(std::uint64_t seed) {
  harness::WorldConfig config;
  config.cluster = cluster::a3_paper_cluster();
  config.seed = seed;
  return config;
}

// ---- figures -----------------------------------------------------------

void run_sweep(const std::string& name, const exp::ScenarioSpec& spec) {
  exp::SweepOptions options;
  options.jobs = 1;
  exp::ExperimentRun run{name, spec, exp::SweepRunner(options).run(spec)};
  // Rendered as mrapid_bench would; the text itself is not needed.
  std::ostringstream sink;
  exp::render_report(run, sink);
}

void run_figures(PassState& state, std::uint64_t seed) {
  const std::uint64_t world_seed = derive(seed, 1);
  const std::uint64_t text_seed = derive(seed, 2);
  const std::uint64_t teragen_seed = derive(seed, 3);

  // Whole-input ground truth per file count, computed on first use.
  std::map<std::size_t, wl::WordCounts> word_refs;
  exp::ScenarioSpec fig7;
  fig7.title = "Fig. 7 - WordCount, 10 MB files, A3 cluster (elapsed s)";
  fig7.baseline_series = "Hadoop";
  fig7.axes = {exp::int_axis("files", kFig7Files)};
  fig7.modes = exp::figure_modes();
  fig7.seeds = {world_seed};
  fig7.run = [&](const exp::Trial& trial) {
    const auto files = static_cast<std::size_t>(trial.num("files"));
    JobTrial job;
    job.label = "fig7 " + trial.label();
    job.config = a3_config(trial.seed);
    job.mode = *trial.mode;
    job.make = [files, text_seed] {
      wl::WordCountParams params;
      params.num_files = files;
      params.bytes_per_file = 10_MB;
      params.seed = text_seed;
      return std::make_unique<wl::WordCount>(params);
    };
    job.check = [&word_refs, files](wl::Workload& workload, const mr::JobResult& result) {
      const auto& wordcount = static_cast<const wl::WordCount&>(workload);
      auto it = word_refs.find(files);
      if (it == word_refs.end()) it = word_refs.emplace(files, wordcount.reference_counts()).first;
      const auto counts = wl::WordCount::result_of(result);
      if (counts == nullptr) return std::string("no word counts");
      if (*counts != it->second) return std::string("word counts differ from reference_counts()");
      return std::string();
    };
    exp::TrialResult result = run_job_trial(state, job);
    result.trial = trial;
    return result;
  };
  run_sweep("fig7", fig7);

  exp::ScenarioSpec fig10;
  fig10.title = "Fig. 10 - TeraSort, 4 blocks, A3 cluster (elapsed s)";
  fig10.x_label = "rows (k)";
  fig10.baseline_series = "Hadoop";
  fig10.axes = {exp::int_axis("rows_k", kFig10RowsK)};
  fig10.modes = exp::figure_modes();
  fig10.seeds = {world_seed};
  fig10.run = [&](const exp::Trial& trial) {
    const auto rows = static_cast<std::int64_t>(trial.num("rows_k")) * 1000;
    JobTrial job;
    job.label = "fig10 " + trial.label();
    job.config = a3_config(trial.seed);
    job.mode = *trial.mode;
    job.make = [rows, teragen_seed] {
      wl::TeraSortParams params;
      params.rows = rows;
      params.blocks = 4;
      params.seed = teragen_seed;
      return std::make_unique<wl::TeraSort>(params);
    };
    job.check = [rows](wl::Workload&, const mr::JobResult& result) {
      const auto sorted = wl::TeraSort::result_of(result);
      if (sorted == nullptr) return std::string("no rows");
      if (static_cast<std::int64_t>(sorted->size()) != rows) return std::string("row count differs");
      if (!std::is_sorted(sorted->begin(), sorted->end())) return std::string("rows not in order");
      return std::string();
    };
    exp::TrialResult result = run_job_trial(state, job);
    result.trial = trial;
    return result;
  };
  run_sweep("fig10", fig10);
}

// ---- wide-job ------------------------------------------------------------

// Independent PI ground truth: each map's Halton range counted directly.
wl::PiResult direct_halton(const wl::PiParams& params) {
  wl::PiResult total;
  const std::int64_t per_map = (params.total_samples + params.num_maps - 1) / params.num_maps;
  for (std::int64_t m = 0; m < params.num_maps; ++m) {
    const std::int64_t begin = m * per_map;
    const std::int64_t samples = std::min(per_map, params.total_samples - begin);
    const std::int64_t evaluated = std::min(samples, params.fidelity_cap);
    std::int64_t inside = 0;
    for (std::int64_t i = begin; i < begin + evaluated; ++i) {
      const auto [x, y] = wl::Pi::halton_point(i);
      if ((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) <= 0.25) ++inside;
    }
    total.inside += evaluated == samples ? inside : (inside * samples + evaluated / 2) / evaluated;
    total.total += samples;
  }
  return total;
}

void run_wide_job(PassState& state, std::uint64_t seed) {
  wl::PiParams params;
  params.num_maps = kWideMaps;
  params.fidelity_cap = kWideFidelityCap;
  params.total_samples =
      static_cast<std::int64_t>(1'000'000 + derive(seed, 2) % 1'000'000) * kWideMaps;
  // Ground truth, computed on first use so it counts as checking, not set-up.
  std::optional<wl::PiResult> expected;

  for (harness::RunMode mode : {harness::RunMode::kHadoop, harness::RunMode::kDPlus}) {
    JobTrial job;
    job.label = std::string("wide-job ") + harness::run_mode_name(mode);
    job.config.cluster =
        cluster::ClusterConfig::uniform(kWideNodes, kWideNodes / 40, cluster::azure_a3());
    job.config.seed = derive(seed, 1);
    job.mode = mode;
    job.make = [params] { return std::make_unique<wl::Pi>(params); };
    job.adjust = [](mr::JobSpec& spec) { spec.num_reducers = kWideReducers; };
    job.check = [&expected, params](wl::Workload&, const mr::JobResult& result) {
      if (!expected) expected = direct_halton(params);
      const auto pi = wl::Pi::result_of(result);
      if (pi == nullptr) return std::string("no pi result");
      if (pi->inside != expected->inside || pi->total != expected->total) {
        return std::string("pi counts differ from the direct Halton count");
      }
      return std::string();
    };
    run_job_trial(state, job);
  }
}

// ---- fuzz ----------------------------------------------------------------

std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; seeds.size() < kFuzzSingleJobs; ++s) {
    if (!check::is_stream(check::generate_scenario(s))) seeds.push_back(s);
  }
  seeds.push_back(kFuzzStreamSeed);
  return seeds;
}

// What one scenario's oracle reports, as far as it enters the pass's
// fingerprint: check::OracleReport's verdict, reference digest and
// per-mode digests.
struct OracleOutcome {
  bool ok = false;
  std::string error;
  std::uint64_t reference = 0;
  std::vector<std::pair<std::string, std::uint64_t>> mode_digests;
};

void mix_outcome(Fingerprint& fingerprint, std::uint64_t scenario_seed,
                 const OracleOutcome& outcome) {
  fingerprint.mix(scenario_seed);
  fingerprint.mix(static_cast<std::uint64_t>(outcome.ok));
  fingerprint.mix(outcome.reference);
  for (const auto& [mode, digest] : outcome.mode_digests) {
    fingerprint.mix(mode);
    fingerprint.mix(digest);
  }
}

// FNV-1a over (label, digest) pairs: one digest per stream mode, as
// check/oracle.cc combines them into OracleReport::mode_digests.
std::uint64_t combine_digests(const std::map<std::string, std::uint64_t>& digests) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [label, digest] : digests) {
    for (const char c : label) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (digest >> (8 * byte)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// One traced mode run. Only words leave the heap window, so what the
// window sees retained belongs to the world and the workload.
struct TracedMode {
  bool produced = false;
  bool succeeded = false;
  std::uint64_t digest = 0;     // single job: result; stream: combined per-job
  std::uint64_t canonical = 0;  // hash of the canonical trace text
  bool trace_ok = false;
  bool drained = false;         // stream only
  bool conserved = true;        // stream only
};

void finish_traced_world(PassState& state, harness::World& world, const sim::Tracer& tracer,
                         TracedMode& run) {
  {
    ScopedSpan span(&state.recorder(), "sim.trace_canonical");
    Fingerprint canonical;
    canonical.mix(sim::canonical_text(tracer.events()));
    run.canonical = canonical.value();
  }
  {
    ScopedSpan span(&state.recorder(), "sim.trace_check");
    run.trace_ok = sim::check_trace(tracer.events()).empty();
  }
  state.trace_events += tracer.events().size();
  state.counters.add(world);
  ++state.worlds;
}

// check/oracle.cc's run_mode, one step per span.
TracedMode traced_single_mode(PassState& state, const check::FuzzScenario& scenario,
                              harness::RunMode mode, wl::Workload& workload) {
  SpanRecorder& recorder = state.recorder();
  TracedMode run;
  const HeapWindow heap(state);
  {
    const harness::WorldConfig config = check::world_config(scenario);
    sim::Tracer tracer;
    std::unique_ptr<harness::World> world;
    {
      ScopedSpan span(&recorder, "harness.world_build");
      world = std::make_unique<harness::World>(config, mode);
    }
    world->attach_tracer(tracer);
    {
      ScopedSpan span(&recorder, "harness.boot");
      world->boot();
    }
    std::optional<mr::JobResult> result;
    {
      ScopedSpan span(&recorder, "harness.run");
      result = world->run(workload,
                          [&scenario](mr::JobSpec& spec) { spec.num_reducers = scenario.reducers; });
    }
    run.produced = result.has_value();
    if (run.produced) {
      run.succeeded = result->succeeded && !result->killed;
      if (run.succeeded) run.digest = workload.result_digest(*result);
    }
    state.single_job_events += fired_events(*world);
    ++state.jobs;
    finish_traced_world(state, *world, tracer, run);
  }
  state.heap_retained_bytes += heap.growth();
  return run;
}

// check/oracle.cc's run_stream_mode. StreamPump builds each job's
// workload itself, so payload time stays inside harness.stream_run.
TracedMode traced_stream_mode(PassState& state, const check::FuzzScenario& scenario,
                              harness::RunMode mode) {
  SpanRecorder& recorder = state.recorder();
  TracedMode run;
  const HeapWindow heap(state);
  {
    const harness::WorldConfig config = check::world_config(scenario);
    sim::Tracer tracer;
    std::map<std::string, std::uint64_t> digests;  // label -> result digest
    std::unique_ptr<harness::World> world;
    std::unique_ptr<harness::StreamPump> pump;
    {
      ScopedSpan span(&recorder, "harness.world_build");
      world = std::make_unique<harness::World>(config, mode);
      world->attach_tracer(tracer);
      harness::StreamPumpOptions options;
      options.horizon_seconds = static_cast<double>(scenario.stream_horizon_ms) / 1000.0;
      options.on_job_complete = [&digests](const harness::StreamJobRecord& record,
                                           wl::Workload& workload, const mr::JobResult& result) {
        if (record.succeeded) digests[record.label] = workload.result_digest(result);
      };
      pump = std::make_unique<harness::StreamPump>(*world, check::make_tenant_specs(scenario),
                                                   options);
    }
    {
      ScopedSpan span(&recorder, "harness.stream_run");
      run.drained = pump->run();
    }
    for (const harness::StreamJobRecord& record : pump->records()) {
      if (!record.completed || !record.succeeded) run.conserved = false;
    }
    run.digest = combine_digests(digests);
    state.jobs += pump->submitted_jobs();
    finish_traced_world(state, *world, tracer, run);
    pump.reset();
  }
  state.heap_retained_bytes += heap.growth();
  return run;
}

// check::run_oracle rebuilt from check's public functions: the same
// worlds in the same order, with the same verdict and digests.
OracleOutcome traced_oracle(PassState& state, const check::FuzzScenario& scenario) {
  const auto& modes = exp::figure_modes();
  const std::size_t pick = static_cast<std::size_t>(scenario.seed % modes.size());
  OracleOutcome outcome;
  bool ok = true;
  std::vector<std::uint64_t> canonicals;

  if (check::is_stream(scenario)) {
    for (harness::RunMode mode : modes) {
      const TracedMode run = traced_stream_mode(state, scenario, mode);
      canonicals.push_back(run.canonical);
      ok = ok && run.drained && run.conserved && run.trace_ok;
      // Equal combined digests stand for equal per-job digest maps.
      ok = ok && (outcome.mode_digests.empty() || run.digest == outcome.mode_digests[0].second);
      outcome.mode_digests.emplace_back(harness::run_mode_name(mode), run.digest);
    }
    const TracedMode rerun = traced_stream_mode(state, scenario, modes[pick]);
    outcome.ok = ok && rerun.canonical == canonicals[pick];
    return outcome;
  }

  SpanRecorder& recorder = state.recorder();
  std::unique_ptr<wl::Workload> workload;
  {
    ScopedSpan span(&recorder, "workloads.build");
    workload = check::make_workload(scenario);
  }
  ProxyWorkload proxy(*workload, recorder, &state.splits);
  {
    ScopedSpan span(&recorder, "check.reference");
    outcome.reference = check::reference_digest(scenario, proxy);
  }
  for (harness::RunMode mode : modes) {
    const TracedMode run = traced_single_mode(state, scenario, mode, proxy);
    canonicals.push_back(run.canonical);
    ok = ok && run.produced && run.succeeded && run.digest == outcome.reference && run.trace_ok;
    if (run.produced && run.succeeded) {
      outcome.mode_digests.emplace_back(harness::run_mode_name(mode), run.digest);
    }
  }
  const TracedMode rerun = traced_single_mode(state, scenario, modes[pick], proxy);
  outcome.ok = ok && rerun.canonical == canonicals[pick];
  return outcome;
}

OracleOutcome untraced_oracle(const check::FuzzScenario& scenario) {
  const check::OracleReport report = check::run_oracle(scenario);
  OracleOutcome outcome;
  outcome.ok = report.ok();
  outcome.error = report.violations_text();
  outcome.reference = report.reference;
  outcome.mode_digests = report.mode_digests;
  return outcome;
}

// One trial: the whole campaign, as one `mrapid_fuzz --seeds` run is
// one wait for its user. Each scenario is a span of its own, and each
// runs check::run_oracle, the call run_fuzz makes per seed.
void run_fuzz_pass(PassState& state) {
  const std::vector<std::uint64_t> seeds = fuzz_seeds();
  TrialScope trial(state);
  std::string errors;
  for (const std::uint64_t scenario_seed : seeds) {
    const check::FuzzScenario scenario = check::generate_scenario(scenario_seed);
    const bool stream = check::is_stream(scenario);
    ScopedSpan span(&state.recorder(), stream ? "check.stream_scenario" : "check.scenario");
    OracleOutcome outcome;
    try {
      ScopedLogThreshold quiet(LogLevel::kError);  // as run_fuzz's sweep sets it
      outcome = state.trace ? traced_oracle(state, scenario) : untraced_oracle(scenario);
      if (!outcome.ok && outcome.error.empty()) outcome.error = "oracle violations";
    } catch (const std::exception& e) {
      outcome = OracleOutcome{};
      outcome.error = std::string("exception: ") + e.what();
    }
    ++state.scenarios;
    if (stream) ++state.stream_scenarios;
    mix_outcome(state.fingerprint, scenario_seed, outcome);
    if (!outcome.ok) errors += "seed " + std::to_string(scenario_seed) + ": " + outcome.error + "\n";
  }
  trial.finish(errors.empty(), errors, "fuzz");
}

// ---- per-module metrics -------------------------------------------------

void add_metrics(PassState& state) {
  const std::map<std::string, NameTotals> totals = totals_by_name(state.out.spans.spans());
  auto self = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto total = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto count = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const WorldCounters& c = state.counters;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double sim_self = self("harness.run");

  state.out.metrics = {
      {"workloads.build_s", total("workloads.build")},
      {"workloads.map_s", self("workloads.map")},
      {"workloads.map_calls", count("workloads.map")},
      {"workloads.reduce_s", self("workloads.reduce")},
      {"workloads.reduce_calls", count("workloads.reduce")},
      {"workloads.partition_s", self("workloads.partition")},
      {"workloads.partition_calls", count("workloads.partition")},
      {"workloads.repeat_map_ratio",
       ratio(count("workloads.map"), static_cast<double>(distinct_splits(state.splits)))},
      {"hdfs.stage_s", self("hdfs.stage")},
      {"hdfs.node_local_reads", d(c.node_local_reads)},
      {"hdfs.rack_local_reads", d(c.rack_local_reads)},
      {"hdfs.off_rack_reads", d(c.off_rack_reads)},
      {"harness.world_build_s", total("harness.world_build")},
      {"harness.boot_s", total("harness.boot")},
      {"harness.run_s", total("harness.run") + total("harness.stream_run")},
      {"harness.stream_run_s", total("harness.stream_run")},
      {"harness.sim_self_s", sim_self},
      {"harness.worlds", d(state.worlds)},
      {"harness.jobs", d(state.jobs)},
      {"harness.heap_retained_mb",
       ratio(state.heap_retained_bytes / (1024.0 * 1024.0), d(state.worlds))},
      {"sim.events_fired", d(c.events_fired)},
      {"sim.events_cancelled", d(c.events_cancelled)},
      {"sim.heap_peak", d(c.heap_peak)},
      {"sim.wheel_fired", d(c.wheel_fired)},
      {"sim.wheel_cascaded", d(c.wheel_cascaded)},
      {"sim.host_ns_per_event", ratio(sim_self * 1e9, d(state.single_job_events))},
      {"sim.trace_events", d(state.trace_events)},
      {"sim.trace_canonical_s", total("sim.trace_canonical")},
      {"sim.trace_check_s", total("sim.trace_check")},
      {"cluster.net_flows_started", d(c.net_flows_started)},
      {"cluster.net_replans", d(c.net_replans)},
      {"cluster.net_links_scanned", d(c.net_links_scanned)},
      {"cluster.net_links_per_replan", ratio(d(c.net_links_scanned), d(c.net_replans))},
      {"yarn.first_fit_calls", d(c.first_fit_calls)},
      {"yarn.first_fit_nodes_visited", d(c.first_fit_nodes_visited)},
      {"yarn.node_lookups", d(c.node_lookups)},
      {"mapreduce.shuffle_fetches", d(c.shuffle_fetches)},
      {"mapreduce.shuffle_coalesced_flows", d(c.shuffle_coalesced_flows)},
      {"mapreduce.shuffle_partition_calls", d(c.shuffle_partition_calls)},
      {"check.output_s", self("check.output")},
      {"check.reference_s", self("check.reference")},
      {"check.scenarios", d(state.scenarios)},
      {"check.stream_scenarios", d(state.stream_scenarios)},
  };
}

}  // namespace

std::vector<std::string> metric_names() {
  PassState empty(true);
  add_metrics(empty);
  std::vector<std::string> names;
  for (const auto& metric : empty.out.metrics) names.push_back(metric.first);
  return names;
}

PassResult run_pass(const std::string& workload, std::uint64_t seed, bool trace) {
  PassState state(trace);
  if (workload == "figures") {
    run_figures(state, seed);
  } else if (workload == "wide-job") {
    run_wide_job(state, seed);
  } else if (workload == "fuzz") {
    run_fuzz_pass(state);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  state.out.fingerprint = state.fingerprint.value();
  if (trace) add_metrics(state);
  return std::move(state.out);
}

}  // namespace perfbench
