// ml_iter and shuffle_text: one driver runs the workload's programs back to
// back (a closed loop) on one SparkEngine and, when a Hadoop program is in
// the list, one HadoopEngine.
#include <algorithm>
#include <fstream>
#include <memory>

#include "perfbench/ledger.h"
#include "perfbench/programs.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kWorkers = 4;
constexpr int kSetups = 3;  // setup_s is the median of this many set-ups

// The engines of one driver and the workload objects bound to them.
struct EnginePair {
  EnginePair(bool with_hadoop, bool traced) {
    spark = std::make_unique<gerenuk::SparkEngine>(MeasuredConfig(kWorkers, traced));
    spark_workloads = std::make_unique<gerenuk::SparkWorkloads>(*spark);
    if (with_hadoop) {
      gerenuk::HadoopConfig config;
      config.engine = MeasuredConfig(kWorkers, traced);
      hadoop = std::make_unique<gerenuk::HadoopEngine>(config);
      hadoop_workloads = std::make_unique<gerenuk::HadoopWorkloads>(*hadoop);
    }
  }
  Drivers drivers() const { return Drivers{spark_workloads.get(), hadoop_workloads.get()}; }
  gerenuk::Trace* trace(bool for_hadoop) const {
    return for_hadoop ? hadoop->trace() : spark->trace();
  }
  // Starts a fresh merged timeline on every traced engine (engines idle).
  void ResetTraces() {
    spark->trace()->ResetMerged();
    if (hadoop != nullptr) {
      hadoop->trace()->ResetMerged();
    }
  }

  std::unique_ptr<gerenuk::SparkEngine> spark;
  std::unique_ptr<gerenuk::SparkWorkloads> spark_workloads;
  std::unique_ptr<gerenuk::HadoopEngine> hadoop;
  std::unique_ptr<gerenuk::HadoopWorkloads> hadoop_workloads;
};

struct Job {
  size_t program = 0;
  double ms = 0.0;
  int64_t peak_bytes = 0;
};

double JobMs(const Job& job) { return job.ms; }
double PeakMb(const Job& job) { return static_cast<double>(job.peak_bytes) / 1e6; }

class ClosedLoop {
 public:
  ClosedLoop(const Options& options, const std::vector<std::string>& names, RunResult* result)
      : programs_(ProgramsNamed(names)),
        inputs_(MakeInputs(programs_, Scale::kLarge, options.seed)),
        reference_(RunReference(programs_, inputs_)),
        result_(result) {
    for (const Program* p : programs_) {
      with_hadoop_ = with_hadoop_ || p->hadoop;
    }
  }

  // Builds a fresh engine pair and runs the warm-up pass; returns seconds.
  double SetUp(bool traced) {
    pair_.reset();
    const int64_t start = SteadyNowNs();
    pair_ = std::make_unique<EnginePair>(with_hadoop_, traced);
    std::vector<Job> warm;
    Pass(&warm, nullptr, /*counted=*/false);
    return static_cast<double>(SteadyNowNs() - start) / 1e9;
  }

  // Runs passes until `seconds` have elapsed (at least one); returns the
  // elapsed seconds. With a ledger, every pass starts a fresh merged trace,
  // so the traces hold the last pass when this returns.
  double Measure(double seconds, std::vector<Job>* jobs, Ledger* ledger) {
    const int64_t start = SteadyNowNs();
    double elapsed = 0.0;
    do {
      if (ledger != nullptr) {
        pair_->ResetTraces();
      }
      Pass(jobs, ledger, /*counted=*/true);
      elapsed = static_cast<double>(SteadyNowNs() - start) / 1e9;
    } while (elapsed < seconds);
    return elapsed;
  }

  std::vector<double> ProgramMedians(const std::vector<Job>& jobs,
                                     double (*value)(const Job&) = JobMs) const {
    return MediansByProgram(jobs, programs_.size(), value);
  }

  int64_t Records(const Job& job) const { return programs_[job.program]->records(inputs_); }
  const std::vector<const Program*>& programs() const { return programs_; }
  const EnginePair& pair() const { return *pair_; }
  bool with_hadoop() const { return with_hadoop_; }

 private:
  // Runs every program once and checks each output against the reference.
  void Pass(std::vector<Job>* jobs, Ledger* ledger, bool counted) {
    for (size_t i = 0; i < programs_.size(); ++i) {
      const Program& program = *programs_[i];
      gerenuk::Trace* trace = pair_->trace(program.hadoop);
      const size_t first_event = trace != nullptr ? trace->events().size() : 0;
      const SpanClock clock(trace != nullptr ? trace->driver() : nullptr);
      Span wall;
      Span ingest;
      wall.start_ns = clock.Now();
      gerenuk::WorkloadResult out = program.run(pair_->drivers(), inputs_, clock, &ingest);
      wall.end_ns = clock.Now();

      const bool ok = SameOutput(out, reference_[i]);
      if (!ok) {
        result_->notes.push_back(std::string("output mismatch against the baseline reference: ") +
                                 program.name);
      }
      if (counted) {
        result_->Check(ok);
      } else if (!ok) {
        result_->correct = false;
      }
      const gerenuk::EngineStats& stats =
          program.hadoop ? pair_->hadoop->stats() : pair_->spark->stats();
      const int64_t peak = program.hadoop ? pair_->hadoop->peak_memory_bytes()
                                          : pair_->spark->peak_memory_bytes();
      if (ledger != nullptr) {
        ledger->AddJob(*trace, first_event, wall, ingest, stats, kWorkers, program.hadoop);
      }
      jobs->push_back({i, static_cast<double>(wall.ns()) / 1e6, peak});
    }
  }

  std::vector<const Program*> programs_;
  Inputs inputs_;
  std::vector<gerenuk::WorkloadResult> reference_;
  RunResult* result_;
  bool with_hadoop_ = false;
  std::unique_ptr<EnginePair> pair_;
};

}  // namespace

// Large enough that no worker ring overflows between two stage barriers.
constexpr size_t kTraceBufferEvents = size_t{1} << 18;
constexpr int64_t kProfileStride = 64;

gerenuk::EngineConfig MeasuredConfig(int workers, bool traced) {
  gerenuk::EngineConfig config = GerenukConfig(workers);
  if (traced) {
    config.observability.trace = true;
    config.observability.trace_buffer_events = kTraceBufferEvents;
    config.observability.plan_profile_stride = kProfileStride;
  }
  return config;
}

std::string TracePath(const Options& options, const std::string& name) {
  return options.out_dir + "/" + name + ".trace.json";
}

void WriteChromeTrace(const gerenuk::Trace& trace, const std::string& path) {
  std::ofstream file(path);
  gerenuk::TraceExporter(trace).WriteChromeJson(file);
}

RunResult RunClosedLoop(const Options& options, const std::vector<std::string>& names) {
  RunResult result;
  ClosedLoop loop(options, names, &result);

  if (!options.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      setups.push_back(loop.SetUp(/*traced=*/false));
    }
    std::vector<Job> jobs;
    const double seconds = loop.Measure(options.seconds, &jobs, nullptr);
    std::vector<double> ms;
    double records = 0.0;
    for (const Job& job : jobs) {
      ms.push_back(job.ms);
      records += static_cast<double>(loop.Records(job));
    }
    const std::vector<double> peaks = loop.ProgramMedians(jobs, PeakMb);
    result.Add("job_ms_geomean", GeoMean(loop.ProgramMedians(jobs)), "ms");
    result.Add("records_per_s", records / seconds, "rec/s");
    result.Add("job_ms_p50", Percentile(ms, 0.5), "ms");
    result.Add("job_ms_p90", Percentile(ms, 0.9), "ms");
    result.Add("sustained_jobs_per_s", static_cast<double>(jobs.size()) / seconds, "jobs/s");
    result.Add("peak_mem_mb", GeoMean(peaks), "MB");
    result.Add("setup_s", Median(setups), "s");
    result.notes.push_back(std::to_string(jobs.size()) + " jobs in " + std::to_string(seconds) +
                           " s, " + std::to_string(jobs.size() / loop.programs().size()) +
                           " per program");
    return result;
  }

  // Traced run: an untraced phase, then a traced phase on fresh engines; the
  // ratio of their job-time geomeans is the tracing overhead.
  loop.SetUp(/*traced=*/false);
  std::vector<Job> untraced;
  loop.Measure(options.seconds / 2, &untraced, nullptr);
  loop.SetUp(/*traced=*/true);
  std::vector<Job> traced;
  Ledger ledger;
  loop.Measure(options.seconds / 2, &traced, &ledger);

  ledger.Export(&result);
  result.Add("compile.ms_per_plan", CompileMsPerPlan(), "ms");
  int64_t dropped = 0;
  for (bool hadoop : {false, true}) {
    if (hadoop && !loop.with_hadoop()) {
      continue;
    }
    const gerenuk::Trace& trace = *loop.pair().trace(hadoop);
    const std::string path = TracePath(options, options.workload + (hadoop ? ".hadoop" : ""));
    WriteChromeTrace(trace, path);
    result.notes.push_back("chrome trace of the last pass: " + path);
    dropped += trace.dropped_events();
  }
  result.Add("trace.dropped_events", static_cast<double>(dropped), "count");
  result.Add("trace.overhead_pct",
             100.0 * (GeoMean(loop.ProgramMedians(traced)) /
                          GeoMean(loop.ProgramMedians(untraced)) -
                      1.0),
             "%");

  // SO-App's share of the workload's job time (its slow path grows faster
  // than its input, so the input is sized to keep this a minority).
  double so_ms = 0.0;
  double all_ms = 0.0;
  for (const Job& job : traced) {
    all_ms += job.ms;
    if (std::string(loop.programs()[job.program]->name) == "SO") {
      so_ms += job.ms;
    }
  }
  result.Add("workloads.so_app_share", all_ms > 0 ? so_ms / all_ms : 0.0, "ratio");
  return result;
}

}  // namespace perfbench
