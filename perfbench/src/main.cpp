// Campaign benchmark.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//                  [--out DIR]
//
// Runs one workload's campaigns on one worker, in whole rounds, until S
// seconds have passed (at least two rounds).  Every round runs each
// program's uninstrumented golden run four times, interleaved with every
// experiment of the workload, through CampaignRunner with the result store
// on.  An operation is one experiment, or one program's golden-output check
// (once per round).  Short slices of a fixed calibration loop run between
// them; host-time metrics rescale each repetition of a unit of work by the
// slices around it and take, per unit, the lower quartile.  After the rounds
// the outputs are checked, and the last stdout line is the result JSON.
// With --trace 1, odd rounds record spans around the layer calls, a layer
// pass times the layers the rounds do not reach, and the spans are written
// to DIR/trace-<workload>-<seed>.json.  See ../README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "analysis/anatomy.h"
#include "analysis/result_store.h"
#include "calibration.h"
#include "common/rng.h"
#include "core/campaign.h"
#include "core/permanent_injector.h"
#include "core/transient_injector.h"
#include "golden_checks.h"
#include "probes.h"
#include "staticanalysis/static_site.h"
#include "trace/taint_tracker.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace fi = nvbitfi::fi;
namespace sim = nvbitfi::sim;
namespace analysis = nvbitfi::analysis;

const std::int64_t g_process_start_ns = NowNs();

// ---- workloads ----------------------------------------------------------------

struct TransientSpec {
  const char* program;
  int experiments;  // strata of the program's fault timeline, one experiment each
  bool taint;       // propagation-traced campaign (the trace tool factory)
};

struct WorkloadSpec {
  const char* name;
  std::vector<TransientSpec> transient;
  std::vector<const char*> sweeps;  // permanent opcode sweeps
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"replay", {{"360.ilbdc", 96, false}, {"304.olbm", 96, false}}, {}},
      {"live", {{"314.omriq", 48, false}, {"350.md", 48, false}, {"303.ostencil", 48, false}}, {}},
      {"instrumented", {{"314.omriq", 64, true}}, {"354.cg", "352.ep"}},
  };
  return workloads;
}

// Each transient experiment is drawn from a pool of this many campaign
// experiments per stratum.
constexpr int kPoolPerStratum = 8;
constexpr int kQuickExperiments = 3;
// Golden runs per program and round.  A transient campaign runs in as many
// chunks, each after a golden run; a sweep follows all of them.
constexpr std::size_t kGoldensPerRound = 4;
// Experiments between two calibration slices.
constexpr std::size_t kSliceEvery = 4;
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".bench_out";
};

// ---- per-program state -----------------------------------------------------------

struct Program {
  const fi::TargetProgram* target = nullptr;
  std::unique_ptr<fi::CampaignRunner> runner;
  fi::RunArtifacts golden;
  std::shared_ptr<const sim::CheckpointStream> checkpoints;
  fi::ProgramProfile profile;
  std::uint64_t profiling_cycles = 0;
  std::optional<nvbitfi::staticanalysis::StaticSiteAnalysis> oracle;
  double profile_s = 0, oracle_s = 0;
  const TransientSpec* transient = nullptr;
  int pool = 0;                        // campaign size the experiments come from
  std::vector<std::size_t> selected;   // experiment indexes, ascending
  std::map<std::size_t, std::uint64_t> target_ordinal;  // fault's global launch
  bool sweep = false;
  std::vector<Interval> golden_runs[2];  // [untraced, traced]
  int output_checked_round = -1;
};

// The deterministic part of one experiment's result; identical in every round.
struct Signature {
  fi::Classification classification;
  std::uint64_t cycles = 0;
  std::uint64_t executed = 0;  // thread-instructions the executor ran
  std::uint64_t lane_events = 0;
  std::uint64_t saved = 0;     // thread-instructions fast-forwarded
  std::uint64_t fallbacks = 0;
  std::uint64_t pre_target = 0;
  std::uint64_t activations = 0;
  bool pruned = false;
  bool operator==(const Signature&) const = default;
};

struct Slot {
  std::size_t program = 0;
  bool permanent = false;
  std::size_t index = 0;
  std::string request;
  std::optional<Signature> reference;  // from the first round
  std::optional<fi::InjectionRun> transient_run;
  std::optional<fi::PermanentRun> permanent_run;
  std::vector<Interval> samples[2];      // per round, [untraced, traced]
};

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double MinSeconds(const std::vector<Interval>& v) {
  double best = v.empty() ? 0.0 : v.front().seconds();
  for (const Interval& i : v) best = std::min(best, i.seconds());
  return best;
}

bool SameArtifacts(const fi::RunArtifacts& a, const fi::RunArtifacts& b) {
  return a.stdout_text == b.stdout_text && a.output_file == b.output_file &&
         a.exit_code == b.exit_code && a.crashed == b.crashed &&
         a.timed_out == b.timed_out && a.app_check_failed == b.app_check_failed &&
         a.cuda_errors == b.cuda_errors && a.dmesg == b.dmesg && a.cycles == b.cycles &&
         a.thread_instructions == b.thread_instructions &&
         a.dynamic_kernels == b.dynamic_kernels;
}

bool SameRecord(const fi::InjectionRecord& a, const fi::InjectionRecord& b) {
  return a.activated == b.activated && a.kernel_name == b.kernel_name &&
         a.kernel_count == b.kernel_count && a.static_index == b.static_index &&
         a.opcode == b.opcode && a.corrupted == b.corrupted &&
         a.target_register == b.target_register && a.before_bits == b.before_bits &&
         a.after_bits == b.after_bits && a.mask == b.mask;
}

// Distinct checkpoint bytes: memory pages are shared between consecutive
// snapshots, so each page counts once.
double StreamMb(const sim::CheckpointStream& stream) {
  std::map<const void*, std::size_t> pages;
  std::size_t other = 0;
  for (const sim::LaunchCheckpoint& cp : stream.launches()) {
    for (const auto& page : cp.post_state.memory.pages) {
      if (page != nullptr) pages.emplace(page.get(), page->size());
    }
    other += sizeof(cp) + cp.params.size() * sizeof(std::uint64_t) +
             cp.post_state.memory.pages.size() * (sizeof(void*) * 2 + sizeof(std::uint64_t)) +
             cp.post_state.log_entries.size() * sizeof(sim::DeviceLogEntry);
  }
  std::size_t bytes = other;
  for (const auto& [ptr, size] : pages) bytes += size;
  return static_cast<double>(bytes) / 1e6;
}

class Bench {
 public:
  explicit Bench(Options options) : opt_(std::move(options)) {}

  int Run();

 private:
  void Problem(const std::string& what) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  std::string Path(const std::string& leaf) const { return run_dir_ + "/" + leaf; }

  void Setup();
  void SelectExperiments(Program& p);
  void RunRound(int round, bool traced);
  void GoldenSample(std::size_t pi, int round, bool traced, std::uint64_t parent);
  void RunTransient(std::size_t pi, int round, bool traced, std::uint64_t parent);
  void RunSweep(std::size_t pi, int round, bool traced, std::uint64_t parent);
  void Observe(Slot& slot, const Signature& signature, int round, bool traced,
               const Interval& time);
  double RescaledLowerQuartile(const std::vector<Interval>& samples) const;
  fi::TransientCampaignConfig TransientConfig(const Program& p) const;
  std::unique_ptr<fi::TransientExperimentTool> ExperimentTool(
      const Program& p, const fi::TransientFaultParams& params) const;
  void Checks();
  void LayerPass();
  void PrintResult();

  Options opt_;
  const WorkloadSpec* spec_ = nullptr;
  std::string run_dir_;
  fi::RunCache cache_;
  std::vector<Program> programs_;
  std::vector<Slot> slots_;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> transient_slot_;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> permanent_slot_;
  SpanLog spans_;
  Calibration calibration_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int rounds_ = 0;
  double setup_s_ = 0;      // rescaled
  double setup_raw_s_ = 0;
  double peak_rss_mb_ = 0;
  // Layer pass (traced runs).
  double record_s_ = 0;
  double replay_s_ = 0;
  std::uint64_t replay_launches_ = 0;
  double profiler_excess_s_ = 0;  // profiling runs minus golden runs
  std::uint64_t profiler_lane_events_ = 0;
  std::uint64_t warp_issues_ = 0;  // of the profiling runs, equal to golden's
  std::uint64_t sweep_lane_events_ = 0;
};

// ---- setup -----------------------------------------------------------------------

void Bench::Setup() {
  calibration_.Slice();
  const sim::DeviceProps device;
  auto add_program = [&](const char* name) -> Program& {
    for (Program& p : programs_) {
      if (p.target->name() == name) return p;
    }
    const fi::TargetProgram* target = nvbitfi::workloads::FindWorkload(name);
    if (target == nullptr) throw std::runtime_error(std::string("unknown program ") + name);
    Program& p = programs_.emplace_back();
    p.target = target;
    p.runner = std::make_unique<fi::CampaignRunner>(*target, &cache_);
    return p;
  };
  programs_.reserve(spec_->transient.size() + spec_->sweeps.size());
  for (const TransientSpec& t : spec_->transient) add_program(t.program).transient = &t;
  for (const char* s : spec_->sweeps) add_program(s).sweep = true;

  for (Program& p : programs_) {
    const std::string name = p.target->name();
    if (p.transient != nullptr) {
      const ScopedSpan span(spans_, 0, "setup.golden_checkpointed", name);
      fi::RunCache::GoldenEntry entry = p.runner->GoldenCheckpointed(device);
      p.golden = std::move(entry.run);
      p.checkpoints = std::move(entry.checkpoints);
    } else {
      // A sweep needs no checkpoints.
      const ScopedSpan span(spans_, 0, "setup.golden", name);
      p.golden = p.runner->Golden(device);
    }
    {
      const ScopedSpan span(spans_, 0, "core.profile", name);
      const std::int64_t start = NowNs();
      fi::RunArtifacts profiling_run;
      p.profile = p.runner->Profile(fi::ProfilerTool::Mode::kExact, device, &profiling_run);
      p.profiling_cycles = profiling_run.cycles;
      p.profile_s = (NowNs() - start) * 1e-9;
    }
    if (p.transient != nullptr) {
      const ScopedSpan span(spans_, 0, "static.oracle", name);
      const std::int64_t start = NowNs();
      p.oracle.emplace(
          nvbitfi::staticanalysis::StaticSiteAnalysis::ForProgram(*p.target, device));
      p.oracle_s = (NowNs() - start) * 1e-9;
    }
  }
  // The set-up, from process start, rescaled to the reference host like
  // every other host time: by a calibration slice run just before its work
  // and three just after it (not counted in it).
  setup_raw_s_ = (NowNs() - g_process_start_ns) * 1e-9;
  for (int i = 0; i < 3; ++i) calibration_.Slice();
  setup_s_ = setup_raw_s_ * calibration_.RecentFactor(4);

  // The benchmark's own input generation is not part of the set-up time.
  for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
    Program& p = programs_[pi];
    const std::string name = p.target->name();
    if (p.transient != nullptr) SelectExperiments(p);
    if (p.profile.TotalInstructions() != p.golden.thread_instructions) {
      Problem(name + ": profiled opcode counts sum to " +
              std::to_string(p.profile.TotalInstructions()) + ", golden run executed " +
              std::to_string(p.golden.thread_instructions));
    }
    for (const std::size_t i : p.selected) {
      transient_slot_[{pi, i}] = slots_.size();
      Slot& slot = slots_.emplace_back();
      slot.program = pi;
      slot.index = i;
      slot.request = name + "/t" + std::to_string(i);
    }
    if (p.sweep) {
      const std::size_t runs = p.profile.ExecutedOpcodes().size();
      for (std::size_t i = 0; i < runs; ++i) {
        permanent_slot_[{pi, i}] = slots_.size();
        Slot& slot = slots_.emplace_back();
        slot.program = pi;
        slot.permanent = true;
        slot.index = i;
        slot.request = name + "/p" + std::to_string(i);
      }
    }
  }
}

// Stratified draw.  A pool of campaign experiments is cut into equal
// strata twice: by static site (kernel, instruction), which largely decides
// whether a fault traps and ends the run early, and by position on the
// golden timeline, which decides how much of the run is fast-forwarded and
// how much runs live.  Each site stratum contributes one experiment, from
// the timeline stratum a seeded permutation assigns it (or the nearest one
// the pool offers).  The sites change with the seed while the mix of costs
// stays nearly the same, as in a Latin-hypercube sample.
void Bench::SelectExperiments(Program& p) {
  const std::size_t strata = static_cast<std::size_t>(
      opt_.quick ? std::min(p.transient->experiments, kQuickExperiments)
                 : p.transient->experiments);
  p.pool = static_cast<int>(strata) * kPoolPerStratum;
  fi::TransientCampaignConfig config = TransientConfig(p);
  const std::vector<fi::TransientDraw> draws =
      fi::PreviewTransientFaults(p.profile, config, p.target->name());
  struct Candidate {
    std::string kernel;
    std::uint32_t static_index = 0;
    std::pair<std::uint64_t, std::uint64_t> position{kNever, 0};
    std::size_t index = 0;
    std::size_t timeline_stratum = 0;
  };
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> global_ordinal;
  for (const sim::LaunchCheckpoint& cp : p.checkpoints->launches()) {
    global_ordinal.emplace(std::make_pair(cp.kernel_name, cp.launch_ordinal), cp.global_ordinal);
  }
  std::vector<Candidate> pool(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    pool[i].index = i;
    if (!draws[i].params.has_value()) continue;
    const fi::TransientFaultParams& params = *draws[i].params;
    pool[i].kernel = params.kernel_name;
    pool[i].static_index = p.oracle->Evaluate(p.profile, params).static_index;
    const auto ordinal = global_ordinal.find({params.kernel_name, params.kernel_count});
    pool[i].position = {ordinal != global_ordinal.end() ? ordinal->second : kNever,
                        params.instruction_count};
  }
  std::vector<Candidate*> by_position;
  for (Candidate& c : pool) by_position.push_back(&c);
  std::sort(by_position.begin(), by_position.end(), [](const Candidate* a, const Candidate* b) {
    return std::tie(a->position, a->index) < std::tie(b->position, b->index);
  });
  for (std::size_t rank = 0; rank < by_position.size(); ++rank) {
    by_position[rank]->timeline_stratum = rank * strata / by_position.size();
  }
  std::sort(pool.begin(), pool.end(), [](const Candidate& a, const Candidate& b) {
    return std::tie(a.kernel, a.static_index, a.position, a.index) <
           std::tie(b.kernel, b.static_index, b.position, b.index);
  });
  std::vector<std::size_t> timeline(strata);
  for (std::size_t s = 0; s < strata; ++s) timeline[s] = s;
  nvbitfi::Rng rng(nvbitfi::Rng::SeedFrom(opt_.seed, p.target->name() + "/strata"));
  for (std::size_t s = strata; s > 1; --s) {
    std::swap(timeline[s - 1], timeline[rng.UniformInt(0, s - 1)]);
  }
  for (std::size_t s = 0; s < strata; ++s) {
    const Candidate* best = nullptr;
    std::size_t best_distance = 0;
    for (std::size_t j = s * kPoolPerStratum; j < (s + 1) * kPoolPerStratum; ++j) {
      const std::size_t t = pool[j].timeline_stratum;
      const std::size_t distance = t > timeline[s] ? t - timeline[s] : timeline[s] - t;
      if (best == nullptr || distance < best_distance ||
          (distance == best_distance && pool[j].index < best->index)) {
        best = &pool[j];
        best_distance = distance;
      }
    }
    p.selected.push_back(best->index);
    p.target_ordinal[best->index] = best->position.first;
  }
  std::sort(p.selected.begin(), p.selected.end());
}

fi::TransientCampaignConfig Bench::TransientConfig(const Program& p) const {
  fi::TransientCampaignConfig config;
  config.seed = opt_.seed;
  config.num_injections = p.pool;
  config.num_workers = 1;
  config.checkpoints = true;
  config.trace = p.transient->taint;
  config.static_mode = fi::StaticSiteMode::kPrune;
  config.static_oracle = p.oracle.has_value() ? &*p.oracle : nullptr;
  config.tool_factory = [this, &p](std::size_t, const fi::TransientFaultParams& params) {
    return ExperimentTool(p, params);
  };
  return config;
}

std::unique_ptr<fi::TransientExperimentTool> Bench::ExperimentTool(
    const Program& p, const fi::TransientFaultParams& params) const {
  if (p.transient->taint) return std::make_unique<nvbitfi::trace::TaintTracker>(params);
  return std::make_unique<fi::TransientInjectorTool>(params);
}

// ---- rounds ------------------------------------------------------------------------

void Bench::Observe(Slot& slot, const Signature& signature, int round, bool traced,
                    const Interval& time) {
  slot.samples[traced ? 1 : 0].push_back(time);
  if (round == 0) {
    slot.reference = signature;
  } else if (!slot.reference.has_value() || !(*slot.reference == signature)) {
    Problem(slot.request + ": round " + std::to_string(round) +
            " result differs from round 0 (" + (traced ? "traced" : "untraced") + ")");
  }
}

void Bench::RunTransient(std::size_t pi, int round, bool traced, std::uint64_t parent) {
  Program& p = programs_[pi];
  const std::string name = p.target->name();
  fi::TransientCampaignConfig config = TransientConfig(p);
  std::vector<RunProbe> probes(static_cast<std::size_t>(p.pool));
  std::vector<std::optional<sim::ReplayStats>> replay(probes.size());
  config.tool_factory = [&](std::size_t i, const fi::TransientFaultParams& params)
      -> std::unique_ptr<fi::TransientExperimentTool> {
    probes[i].factory_ns = NowNs();
    probes[i].target_ordinal = p.target_ordinal.at(i);
    return std::make_unique<ProbedExperimentTool>(ExperimentTool(p, params), &probes[i],
                                                  traced);
  };
  config.on_run_replay = [&](std::size_t i, const sim::ReplayStats* stats) {
    if (stats != nullptr) replay[i] = *stats;
  };

  const std::string store_path = Path(name + "-transient.jsonl");
  std::string error;
  std::unique_ptr<analysis::ResultStore> store = analysis::ResultStore::Open(
      store_path,
      analysis::TransientStoreMeta(name, config, p.golden, p.profiling_cycles, p.profile),
      /*resume=*/false, &error);
  if (store == nullptr) {
    std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(), error.c_str());
    failed_ += p.selected.size();
    return;
  }

  const ScopedSpan campaign(spans_, parent, "campaign.transient", name);
  std::map<std::size_t, fi::Classification> completed;
  std::int64_t last_end = 0;
  config.on_run_complete = [&](std::size_t i, const fi::InjectionRun& run) {
    const std::int64_t classify_end = NowNs();
    const RunProbe& probe = probes[i];
    const std::string& request = slots_[transient_slot_.at({pi, i})].request;
    const std::uint64_t experiment = spans_.NextId();
    std::optional<analysis::SdcAnatomy> anatomy;
    if (run.classification.outcome == fi::Outcome::kSdc) {
      const ScopedSpan span(spans_, experiment, "analysis.anatomy", request);
      anatomy = analysis::AnalyzeSdc(p.golden, run.artifacts);
    }
    const std::int64_t append_start = NowNs();
    store->AppendTransient(i, run, anatomy.has_value() ? &*anatomy : nullptr);
    const std::int64_t end = NowNs();
    const std::int64_t start =
        last_end != 0 ? last_end : (probe.factory_ns != 0 ? probe.factory_ns : classify_end);
    last_end = end;
    completed[i] = run.classification;

    Signature sig;
    sig.classification = run.classification;
    sig.cycles = run.artifacts.cycles;
    sig.pruned = run.statically_masked;
    sig.lane_events = probe.lane_events;
    sig.pre_target = probe.pre_target_thread_instructions;
    if (replay[i].has_value()) {
      sig.saved = replay[i]->thread_instructions_saved;
      sig.fallbacks = replay[i]->host_divergences + replay[i]->watchdog_fallbacks;
    }
    sig.executed = probe.launch_thread_instructions - sig.saved;
    Slot& slot = slots_[transient_slot_.at({pi, i})];
    if (round == 0) slot.transient_run = run;
    Observe(slot, sig, round, traced, Interval{start, end});
    if (completed.size() % kSliceEvery == 0) {
      calibration_.Slice();
      last_end = NowNs();
    }

    if (traced) {
      spans_.Record(experiment, campaign.id(), "experiment", request, start, end);
      if (probe.factory_ns != 0) {
        spans_.Record(spans_.NextId(), experiment, "core.inject", request, probe.factory_ns,
                      probe.inject_end_ns);
        spans_.Record(spans_.NextId(), experiment, "sassim.module_load", request,
                      probe.attach_ns, probe.module_loaded_ns);
        spans_.Record(spans_.NextId(), experiment, "nvbit.callbacks", request,
                      probe.attach_ns, probe.attach_ns + probe.callback_ns, probe.callbacks);
        spans_.Record(spans_.NextId(), experiment, "core.classify", request,
                      probe.classify_start_ns, classify_end);
      }
      spans_.Record(spans_.NextId(), experiment, "analysis.append", request, append_start,
                    end);
    }
  };

  const std::size_t chunk_size = (p.selected.size() + kGoldensPerRound - 1) / kGoldensPerRound;
  for (std::size_t first = 0; first < p.selected.size(); first += chunk_size) {
    GoldenSample(pi, round, traced, campaign.id());
    const std::size_t last = std::min(first + chunk_size, p.selected.size());
    const std::vector<std::size_t> chunk(p.selected.begin() + static_cast<std::ptrdiff_t>(first),
                                         p.selected.begin() + static_cast<std::ptrdiff_t>(last));
    config.index_set = &chunk;
    last_end = 0;
    const std::size_t before = completed.size();
    try {
      const fi::TransientCampaignResult result = p.runner->RunTransientCampaign(config);
      if (result.counts.total() != completed.size() - before) {
        Problem(name + ": SDC + DUE + Masked = " + std::to_string(result.counts.total()) +
                ", experiments run = " + std::to_string(completed.size() - before));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s campaign threw: %s\n", name.c_str(), e.what());
    }
    calibration_.Slice();
  }
  store.reset();
  // An experiment fails when it did not complete or its record did not reach
  // the store intact.
  const std::optional<analysis::LoadedStore> loaded =
      analysis::LoadResultStore(store_path, &error);
  for (const std::size_t i : p.selected) {
    const auto done = completed.find(i);
    bool ok = done != completed.end() && loaded.has_value();
    if (ok) {
      const auto stored = loaded->transient.find(i);
      ok = stored != loaded->transient.end() &&
           stored->second.classification == done->second;
    }
    if (!ok) ++failed_;
  }
}

void Bench::RunSweep(std::size_t pi, int round, bool traced, std::uint64_t parent) {
  Program& p = programs_[pi];
  const std::string name = p.target->name();
  fi::PermanentCampaignConfig config;
  config.seed = opt_.seed;
  config.num_workers = 1;
  const std::size_t runs = p.profile.ExecutedOpcodes().size();

  const std::string store_path = Path(name + "-permanent.jsonl");
  std::string error;
  std::unique_ptr<analysis::ResultStore> store = analysis::ResultStore::Open(
      store_path, analysis::PermanentStoreMeta(name, config, runs, p.golden, p.profile),
      /*resume=*/false, &error);
  if (store == nullptr) {
    std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(), error.c_str());
    failed_ += runs;
    return;
  }

  const ScopedSpan campaign(spans_, parent, "campaign.permanent", name);
  for (std::size_t k = 0; k < kGoldensPerRound; ++k) {
    GoldenSample(pi, round, traced, campaign.id());
  }
  std::map<std::size_t, fi::Classification> completed;
  std::int64_t last_end = NowNs();
  config.on_run_complete = [&](std::size_t i, const fi::PermanentRun& run) {
    const std::string& request = slots_[permanent_slot_.at({pi, i})].request;
    const std::uint64_t experiment = spans_.NextId();
    std::optional<analysis::SdcAnatomy> anatomy;
    if (run.classification.outcome == fi::Outcome::kSdc) {
      const ScopedSpan span(spans_, experiment, "analysis.anatomy", request);
      anatomy = analysis::AnalyzeSdc(p.golden, run.artifacts);
    }
    const std::int64_t append_start = NowNs();
    store->AppendPermanent(i, run, anatomy.has_value() ? &*anatomy : nullptr);
    const std::int64_t end = NowNs();
    const std::int64_t start = last_end;
    last_end = end;
    completed[i] = run.classification;

    Signature sig;
    sig.classification = run.classification;
    sig.cycles = run.artifacts.cycles;
    sig.executed = run.artifacts.thread_instructions;
    sig.activations = run.activations;
    Slot& slot = slots_[permanent_slot_.at({pi, i})];
    if (round == 0) slot.permanent_run = run;
    Observe(slot, sig, round, traced, Interval{start, end});
    if (completed.size() % kSliceEvery == 0) {
      calibration_.Slice();
      last_end = NowNs();
    }
    if (traced) {
      spans_.Record(experiment, campaign.id(), "experiment", request, start, end);
      spans_.Record(spans_.NextId(), experiment, "analysis.append", request, append_start,
                    end);
    }
  };

  fi::PermanentCampaignResult result;
  bool threw = false;
  try {
    result = p.runner->RunPermanentCampaign(config, p.profile);
  } catch (const std::exception& e) {
    threw = true;
    std::fprintf(stderr, "perfbench: %s sweep threw: %s\n", name.c_str(), e.what());
  }
  store.reset();
  if (!threw && result.counts.total() != completed.size()) {
    Problem(name + " sweep: SDC + DUE + Masked = " + std::to_string(result.counts.total()) +
            ", experiments run = " + std::to_string(completed.size()));
  }
  const std::optional<analysis::LoadedStore> loaded =
      analysis::LoadResultStore(store_path, &error);
  for (std::size_t i = 0; i < runs; ++i) {
    const auto done = completed.find(i);
    bool ok = done != completed.end() && loaded.has_value();
    if (ok) {
      const auto stored = loaded->permanent.find(i);
      ok = stored != loaded->permanent.end() &&
           stored->second.classification == done->second;
    }
    if (!ok) ++failed_;
  }
}

// One uninstrumented golden run, timed; the rounds interleave these with the
// experiments so that its host-time estimate draws on many samples.
void Bench::GoldenSample(std::size_t pi, int round, bool traced, std::uint64_t parent) {
  Program& p = programs_[pi];
  calibration_.Slice();
  const ScopedSpan span(spans_, parent, "sassim.golden", p.target->name());
  const std::int64_t start = NowNs();
  const fi::RunArtifacts golden = p.runner->RunGolden(sim::DeviceProps{});
  p.golden_runs[traced ? 1 : 0].push_back(Interval{start, NowNs()});
  if (!SameArtifacts(golden, p.golden)) {
    Problem(p.target->name() + ": golden run differs from the set-up's golden run");
  }
  // One operation per program and round: the round's first golden output,
  // checked apart from the program.  The golden run does not depend on the
  // seed, so a program whose output is wrong fails this every round.
  if (p.output_checked_round != round) {
    p.output_checked_round = round;
    ++attempted_;
    if (const std::string why = CheckGoldenOutput(p.target->name(), golden); !why.empty()) {
      ++failed_;
      if (round == 0) {
        std::fprintf(stderr, "perfbench: OPERATION FAILED: %s: golden output: %s\n",
                     p.target->name().c_str(), why.c_str());
      }
    }
  }
}

void Bench::RunRound(int round, bool traced) {
  spans_.set_enabled(traced);
  const ScopedSpan span(spans_, 0, "round", std::to_string(round));
  for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
    if (programs_[pi].transient != nullptr) RunTransient(pi, round, traced, span.id());
    if (programs_[pi].sweep) RunSweep(pi, round, traced, span.id());
  }
  attempted_ += slots_.size();
  spans_.set_enabled(false);
}

// ---- checks after the rounds -----------------------------------------------------

void Bench::Checks() {
  const sim::DeviceProps device;
  for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
    Program& p = programs_[pi];
    const std::string name = p.target->name();
    if (p.transient != nullptr) {
      // Replay sample: the experiment with the longest fast-forwarded prefix,
      // re-executed with checkpoints off, must give the same result; the
      // checkpointed run's executed plus saved thread-instructions must
      // equal the uncheckpointed run's, and only launches before the fault's
      // launch may be saved.
      const Slot* sample = nullptr;
      std::vector<std::size_t> pruned;
      for (const Slot& slot : slots_) {
        if (slot.program != pi || slot.permanent || !slot.reference.has_value()) continue;
        if (slot.reference->pruned) {
          pruned.push_back(slot.index);
        } else if (sample == nullptr || slot.reference->saved > sample->reference->saved) {
          sample = &slot;
        }
      }
      if (sample != nullptr) {
        fi::TransientCampaignConfig config = TransientConfig(p);
        config.checkpoints = false;
        config.static_mode = fi::StaticSiteMode::kOff;
        const std::vector<std::size_t> one{sample->index};
        config.index_set = &one;
        RunProbe probe;
        config.tool_factory = [&](std::size_t, const fi::TransientFaultParams& params)
            -> std::unique_ptr<fi::TransientExperimentTool> {
          return std::make_unique<ProbedExperimentTool>(ExperimentTool(p, params), &probe,
                                                        false);
        };
        const fi::TransientCampaignResult live = p.runner->RunTransientCampaign(config);
        const fi::InjectionRun& a = *sample->transient_run;
        const fi::InjectionRun& b = live.injections[sample->index];
        if (!(a.classification == b.classification) || !SameArtifacts(a.artifacts, b.artifacts) ||
            !SameRecord(a.record, b.record)) {
          Problem(sample->request + ": checkpointed and uncheckpointed runs differ");
        }
        const Signature& ref = *sample->reference;
        if (ref.executed + ref.saved != probe.launch_thread_instructions ||
            probe.launch_thread_instructions != b.artifacts.thread_instructions ||
            ref.saved > ref.pre_target) {
          Problem(sample->request + ": executed " + std::to_string(ref.executed) + " + saved " +
                  std::to_string(ref.saved) + " != uncheckpointed " +
                  std::to_string(probe.launch_thread_instructions));
        }
      }
      // Every statically pruned experiment, simulated, is Masked.
      if (!pruned.empty()) {
        fi::TransientCampaignConfig config = TransientConfig(p);
        config.static_mode = fi::StaticSiteMode::kOff;
        config.index_set = &pruned;
        const fi::TransientCampaignResult simulated = p.runner->RunTransientCampaign(config);
        for (const std::size_t i : pruned) {
          if (simulated.injections[i].classification.outcome != fi::Outcome::kMasked) {
            Problem(name + "/t" + std::to_string(i) + ": pruned site simulates to " +
                    std::string(fi::OutcomeName(simulated.injections[i].classification.outcome)));
          }
        }
      }
    }
    if (p.sweep) {
      // Fig. 3 weights sum to one; no opcode activates more often than the
      // profile executed it.
      double weights = 0;
      for (const Slot& slot : slots_) {
        if (slot.program != pi || !slot.permanent || !slot.permanent_run.has_value()) continue;
        const fi::PermanentRun& run = *slot.permanent_run;
        weights += run.weight;
        if (run.activations > p.profile.OpcodeTotal(run.params.opcode())) {
          Problem(slot.request + ": " + std::to_string(run.activations) +
                  " activations exceed the opcode's dynamic count");
        }
      }
      if (std::abs(weights - 1.0) > 1e-9) {
        Problem(name + " sweep: Fig. 3 weights sum to " + std::to_string(weights));
      }
    }
  }
}

// ---- layer pass (traced runs) --------------------------------------------------------

void Bench::LayerPass() {
  spans_.set_enabled(true);
  const ScopedSpan pass(spans_, 0, "layer_pass");
  const sim::DeviceProps device;
  auto timed = [&](const std::string& name, const std::string& request, auto&& work) {
    const ScopedSpan span(spans_, pass.id(), name, request);
    const std::int64_t start = NowNs();
    work();
    return (NowNs() - start) * 1e-9;
  };
  for (std::size_t pi = 0; pi < programs_.size(); ++pi) {
    Program& p = programs_[pi];
    const std::string name = p.target->name();
    const double golden_s = MinSeconds(p.golden_runs[0]);
    const std::uint64_t watchdog =
        20 * std::max<std::uint64_t>(p.golden.max_launch_thread_instructions, 1000);

    // Instrumentation cost per lane event: the exact profiler instruments
    // every instruction of every launch.
    {
      RunProbe probe;
      ForwardingTool<nvbitfi::nvbit::Tool> tool(
          std::make_unique<fi::ProfilerTool>(name, fi::ProfilerTool::Mode::kExact), &probe,
          false);
      profiler_excess_s_ +=
          timed("nvbit.profiler_run", name, [&] { (void)p.runner->Execute(&tool, device, 0); }) -
          golden_s;
      profiler_lane_events_ += probe.lane_events;
      warp_issues_ += probe.warp_issues;
    }

    if (p.transient != nullptr) {
      // Recording cost: checkpointed minus plain golden runs, alternated,
      // fastest of each.
      std::vector<double> plain, recorded;
      for (int rep = 0; rep < 3; ++rep) {
        plain.push_back(timed("sassim.golden", name, [&] { (void)p.runner->RunGolden(device); }));
        recorded.push_back(timed("checkpoint.record", name,
                                 [&] { (void)p.runner->RunGoldenCheckpointed(device); }));
      }
      record_s_ += Min(recorded) - Min(plain);
      sim::ReplayStats stats;
      replay_s_ += timed("checkpoint.replay_full", name, [&] {
        (void)p.runner->Execute(nullptr, device, 0, p.checkpoints.get(), kNever, &stats);
      });
      replay_launches_ += stats.launches_fast_forwarded;
      // One propagation-traced run with the trace tool factory's tool, on
      // the first simulated experiment's site.
      for (const Slot& slot : slots_) {
        if (slot.program != pi || slot.permanent || slot.reference->pruned) continue;
        const fi::TransientFaultParams& params = slot.transient_run->params;
        nvbitfi::trace::TaintTracker tracker(params);
        const std::uint64_t target =
            p.checkpoints->GlobalOrdinalOf(params.kernel_name, params.kernel_count)
                .value_or(0);
        timed("trace.inject", slot.request, [&] {
          (void)p.runner->Execute(&tracker, device, watchdog, p.checkpoints.get(), target,
                                  nullptr);
        });
        break;
      }
    }

    // Permanent-fault runs through a forwarding tool: every run of a sweep
    // again (their lane events; cycles must not change), or, for a program
    // without a sweep, its most executed opcode with a zero XOR mask, which
    // pays the full instrumentation without ending the run early.
    std::vector<fi::PermanentFaultParams> runs;
    if (p.sweep) {
      for (const Slot& slot : slots_) {
        if (slot.program == pi && slot.permanent) runs.push_back(slot.permanent_run->params);
      }
    } else {
      const std::vector<sim::Opcode> opcodes = p.profile.ExecutedOpcodes();
      fi::PermanentFaultParams params;
      params.opcode_id = static_cast<int>(*std::max_element(
          opcodes.begin(), opcodes.end(), [&](sim::Opcode a, sim::Opcode b) {
            return p.profile.OpcodeTotal(a) < p.profile.OpcodeTotal(b);
          }));
      params.bit_mask = 0;
      runs.push_back(params);
    }
    for (std::size_t k = 0; k < runs.size(); ++k) {
      RunProbe probe;
      ForwardingTool<nvbitfi::nvbit::Tool> tool(
          std::make_unique<fi::PermanentInjectorTool>(runs[k]), &probe, false);
      fi::RunArtifacts run;
      timed("core.permanent_run", name + "/p" + std::to_string(k),
            [&] { run = p.runner->Execute(&tool, device, watchdog); });
      if (p.sweep) {
        sweep_lane_events_ += probe.lane_events;
        if (run.cycles != slots_[permanent_slot_.at({pi, k})].permanent_run->artifacts.cycles) {
          Problem(name + " sweep run " + std::to_string(k) +
                  ": re-execution through the forwarding tool changed its cycles");
        }
      }
    }
  }
  spans_.set_enabled(false);
}

// ---- metrics ------------------------------------------------------------------------

// The lower quartile, interpolated, of a unit's repetitions rescaled to the
// reference host.  Not the fastest: a repetition next to a slow slice is
// rescaled too far, and the minimum would pick exactly that one.
double Bench::RescaledLowerQuartile(const std::vector<Interval>& samples) const {
  if (samples.empty()) return 0.0;
  std::vector<double> rescaled;
  for (const Interval& sample : samples) rescaled.push_back(calibration_.Rescaled(sample));
  std::sort(rescaled.begin(), rescaled.end());
  const double rank = 0.25 * static_cast<double>(rescaled.size() - 1);
  const std::size_t below = static_cast<std::size_t>(rank);
  if (below + 1 >= rescaled.size()) return rescaled[below];
  const double share = rank - static_cast<double>(below);
  return rescaled[below] * (1 - share) + rescaled[below + 1] * share;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Bench::PrintResult() {
  // Host-time aggregates: each unit of work's repetitions rescaled to the
  // reference host, and their lower quartile.
  auto experiments_per_s = [&](int kind) {
    double total = 0;
    for (const Slot& slot : slots_) total += RescaledLowerQuartile(slot.samples[kind]);
    return total > 0 ? static_cast<double>(slots_.size()) / total : 0.0;
  };
  double golden_s = 0, golden_minstr = 0;
  for (const Program& p : programs_) {
    std::vector<Interval> all = p.golden_runs[0];
    all.insert(all.end(), p.golden_runs[1].begin(), p.golden_runs[1].end());
    golden_s += RescaledLowerQuartile(all);
    golden_minstr += static_cast<double>(p.golden.thread_instructions) / 1e6;
  }
  // Deterministic aggregates from the first round.
  double executed = 0, cycles = 0, lane_events = 0, saved = 0, pre_target = 0,
         fallbacks = 0, pruned = 0;
  for (const Program& p : programs_) cycles += static_cast<double>(p.profiling_cycles);
  for (const Slot& slot : slots_) {
    if (!slot.reference.has_value()) continue;
    const Signature& s = *slot.reference;
    executed += static_cast<double>(s.executed);
    cycles += static_cast<double>(s.cycles);
    lane_events += static_cast<double>(s.lane_events);
    saved += static_cast<double>(s.saved);
    pre_target += static_cast<double>(s.pre_target);
    fallbacks += static_cast<double>(s.fallbacks);
    pruned += s.pruned ? 1 : 0;
  }
  const double n = static_cast<double>(slots_.size());

  std::vector<Metric> metrics;
  if (!opt_.trace) {
    metrics = {
        {"experiments_per_s", experiments_per_s(0), "experiments/s"},
        {"setup_s", setup_s_, "s"},
        {"golden_minstr_per_s", golden_minstr / golden_s, "Minstr/s"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
        {"sim_minstr_per_experiment", executed / n / 1e6, "Minstr"},
        {"campaign_sim_gcycles", cycles / 1e9, "Gcycles"},
    };
  } else {
    // Per-layer figures from the spans of the traced rounds and layer pass:
    // per request, the fastest traced repetition; then a mean or a sum.
    std::map<std::pair<std::string, std::string>, double> fastest;
    for (const Span& s : spans_.spans()) {
      const double seconds = (s.end_ns - s.start_ns) * 1e-9;
      auto [it, fresh] = fastest.try_emplace({s.name, s.request}, seconds);
      if (!fresh) it->second = std::min(it->second, seconds);
    }
    auto sum = [&](const std::string& name) {
      double total = 0;
      for (const auto& [key, seconds] : fastest) total += key.first == name ? seconds : 0;
      return total;
    };
    auto mean = [&](const std::string& name) {
      double count = 0;
      for (const auto& [key, seconds] : fastest) count += key.first == name ? 1 : 0;
      return count > 0 ? sum(name) / count : 0.0;
    };
    double profile_s = 0, oracle_s = 0, stream_mb = 0;
    for (const Program& p : programs_) {
      profile_s += p.profile_s;
      oracle_s += p.oracle_s;
      if (p.checkpoints != nullptr) stream_mb += StreamMb(*p.checkpoints);
    }
    const double traced_eps = experiments_per_s(1);
    const double untraced_eps = experiments_per_s(0);
    const double traced_golden_s = sum("sassim.golden");
    metrics = {
        {"sassim.golden_s", traced_golden_s, "s"},
        {"sassim.ns_per_warp_issue", traced_golden_s / static_cast<double>(warp_issues_) * 1e9, "ns"},
        {"sassim.module_load_ms", mean("sassim.module_load") * 1e3, "ms"},
        {"checkpoint.record_s", record_s_, "s"},
        {"checkpoint.stream_mb", stream_mb, "MB"},
        {"checkpoint.replay_us_per_launch",
         replay_s_ / std::max<double>(1, static_cast<double>(replay_launches_)) * 1e6, "us"},
        {"checkpoint.replay_fraction", pre_target > 0 ? saved / pre_target : 0.0, "ratio"},
        {"checkpoint.fallbacks", fallbacks, "count"},
        {"nvbit.lane_events_per_experiment",
         (lane_events + static_cast<double>(sweep_lane_events_)) / n, "count"},
        {"nvbit.ns_per_lane_event",
         profiler_excess_s_ / std::max<double>(1, static_cast<double>(profiler_lane_events_)) * 1e9,
         "ns"},
        {"core.profile_s", profile_s, "s"},
        {"core.inject_s", mean("core.inject"), "s"},
        {"core.classify_us", mean("core.classify") * 1e6, "us"},
        {"core.permanent_run_s", mean("core.permanent_run"), "s"},
        {"static.oracle_s", oracle_s, "s"},
        {"static.pruned_experiments", pruned, "count"},
        {"trace.inject_s", mean("trace.inject"), "s"},
        {"analysis.append_us", mean("analysis.append") * 1e6, "us"},
        {"trace.overhead_pct", (untraced_eps / traced_eps - 1.0) * 100.0, "%"},
    };
    const std::string trace_path = opt_.out_dir + "/trace-" + opt_.workload + "-" +
                                   std::to_string(opt_.seed) + ".json";
    if (!spans_.WriteChromeTrace(trace_path)) {
      Problem("cannot write spans to " + trace_path);
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans_.spans().size(),
                   trace_path.c_str());
    }
  }

  std::fprintf(stderr, "perfbench: %s seed %llu: %d rounds, %zu experiments per round\n",
               opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed), rounds_,
               slots_.size());
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Bench::Run() {
  for (const WorkloadSpec& w : Workloads()) {
    if (opt_.workload == w.name) spec_ = &w;
  }
  if (spec_ == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt_.workload.c_str());
    return 2;
  }
  run_dir_ = opt_.out_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(run_dir_);

  spans_.set_enabled(opt_.trace);
  Setup();
  spans_.set_enabled(false);

  // Whole rounds, at least two, for about --seconds: another round starts
  // while more than half a round's time is left.
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(opt_.seconds * 1e9);
  for (;;) {
    const std::int64_t round_start = NowNs();
    RunRound(rounds_, opt_.trace && rounds_ % 2 == 1);
    ++rounds_;
    const std::int64_t now = NowNs();
    if (rounds_ >= 2 && (opt_.quick || deadline - now < (now - round_start) / 2)) break;
  }
  const std::int64_t rounds_end = NowNs();
  peak_rss_mb_ = PeakRssMb();
  Checks();
  if (opt_.trace) LayerPass();
  std::fprintf(stderr,
               "perfbench: set-up %.4f s (raw %.4f s), input selection %.2f s, "
               "%d rounds %.2f s, checks%s %.2f s\n",
               setup_s_, setup_raw_s_, (start - g_process_start_ns) * 1e-9 - setup_raw_s_,
               rounds_,
               (rounds_end - start) * 1e-9, opt_.trace ? " and layer pass" : "",
               (NowNs() - rounds_end) * 1e-9);
  PrintResult();
  std::filesystem::remove_all(run_dir_);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      options.quick = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    return perfbench::Bench(options).Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
