#include "perfbench/ledger.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "src/dataflow/spark.h"
#include "src/dataflow/stage_compiler.h"
#include "src/exec/plan.h"
#include "src/workloads/spark_workloads.h"

namespace perfbench {
namespace {

using gerenuk::TraceEvent;
using gerenuk::TraceEventKind;
using gerenuk::TraceEventType;

using Interval = std::pair<int64_t, int64_t>;

// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const Interval& iv : intervals) {
    const int64_t start = std::max(iv.first, reach);
    const int64_t end = std::min(iv.second, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

int64_t End(const TraceEvent& e) { return e.ts_ns + e.dur_ns; }

int StageIndex(const char* name, const char* const* kinds, int n) {
  for (int i = 0; i < n; ++i) {
    if (std::strcmp(name, kinds[i]) == 0) {
      return i;
    }
  }
  return -1;
}

const char* const kSparkStages[] = {"narrow", "shuffle", "reduce", "join"};
const char* const kHadoopStages[] = {"map", "reduce"};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void Ledger::AddJob(const gerenuk::Trace& trace, size_t first_event, const Span& wall,
                    const Span& ingest, const gerenuk::EngineStats& stats, int workers,
                    bool hadoop) {
  const std::vector<TraceEvent>& events = trace.events();
  std::vector<const TraceEvent*> stages;
  std::vector<const TraceEvent*> tasks;
  std::vector<const TraceEvent*> fast;
  std::vector<const TraceEvent*> aborts;
  for (size_t i = first_event; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.type == TraceEventType::kAbort) {
      aborts.push_back(&e);
    }
    if (e.kind != TraceEventKind::kSpan) {
      continue;
    }
    switch (e.type) {
      case TraceEventType::kStage: {
        stages.push_back(&e);
        int k = hadoop ? StageIndex(e.name, kHadoopStages, 2) : StageIndex(e.name, kSparkStages, 4);
        if (k >= 0) {
          (hadoop ? hadoop_stage_ns_ : spark_stage_ns_)[k] += e.dur_ns;
        }
        worker_stage_ns_ += workers * e.dur_ns;
        break;
      }
      case TraceEventType::kTask:
        tasks.push_back(&e);
        task_ns_ += e.dur_ns;
        break;
      case TraceEventType::kFastPath:
        fast.push_back(&e);
        fast_ns_ += e.dur_ns;
        break;
      case TraceEventType::kSlowPath:
        slow_ns_ += e.dur_ns;
        break;
      case TraceEventType::kGcPause:
        gc_pauses_ += 1;
        gc_ns_ += e.dur_ns;
        break;
      default:
        break;
    }
  }
  jobs_ += 1;
  stages_ += static_cast<int64_t>(stages.size());
  tasks_ += static_cast<int64_t>(tasks.size());

  // Skew: a stage's tasks are the task spans that start inside its span.
  for (const TraceEvent* s : stages) {
    int64_t n = 0;
    int64_t sum = 0;
    int64_t max = 0;
    for (const TraceEvent* t : tasks) {
      if (t->ts_ns >= s->ts_ns && t->ts_ns <= End(*s)) {
        n += 1;
        sum += t->dur_ns;
        max = std::max(max, t->dur_ns);
      }
    }
    if (n > 0 && sum > 0) {
      skew_sum_ += static_cast<double>(max) * static_cast<double>(n) / static_cast<double>(sum);
      skew_stages_ += 1;
    }
  }

  // Wasted speculation: fast-path spans of the attempt an abort fired in.
  std::vector<bool> wasted(fast.size(), false);
  for (const TraceEvent* a : aborts) {
    for (size_t f = 0; f < fast.size(); ++f) {
      const TraceEvent& span = *fast[f];
      if (!wasted[f] && span.worker == a->worker && span.task == a->task &&
          span.attempt == a->attempt && span.ts_ns <= a->ts_ns && a->ts_ns <= End(span)) {
        wasted[f] = true;
        wasted_fast_ns_ += span.dur_ns;
        break;
      }
    }
  }

  std::vector<Interval> covered;
  for (const TraceEvent* s : stages) {
    covered.emplace_back(s->ts_ns, End(*s));
  }
  driver_ns_ += wall.ns() - CoveredNs(covered, wall.start_ns, wall.end_ns);
  if (ingest.ns() > 0) {
    covered.emplace_back(ingest.start_ns, ingest.end_ns);
  }
  unattributed_ns_ += wall.ns() - CoveredNs(covered, wall.start_ns, wall.end_ns);
  wall_ns_ += wall.ns();
  ingest_ns_ += ingest.ns();
  stats_ += stats;
}

void Ledger::Export(RunResult* out) const {
  const double jobs = std::max<double>(1.0, static_cast<double>(jobs_));
  auto per_job_ms = [&](const char* name, int64_t ns) { out->Add(name, Ms(ns) / jobs, "ms"); };
  auto per_job = [&](const char* name, double count, const char* unit) {
    out->Add(name, count / jobs, unit);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  per_job_ms("workloads.ingest_ms", ingest_ns_);
  per_job_ms("dataflow.driver_ms", driver_ns_);
  per_job("dataflow.stages", static_cast<double>(stages_), "count");
  for (int i = 0; i < 4; ++i) {
    per_job_ms((std::string("dataflow.stage_ms.") + kSparkStages[i]).c_str(), spark_stage_ns_[i]);
  }
  for (int i = 0; i < 2; ++i) {
    per_job_ms((std::string("mapreduce.stage_ms.") + kHadoopStages[i]).c_str(),
               hadoop_stage_ns_[i]);
  }
  per_job("exec.plans_compiled", stats_.plans_compiled, "count");
  per_job("scheduler.tasks", static_cast<double>(tasks_), "count");
  per_job_ms("scheduler.task_ms", task_ns_);
  out->Add("scheduler.parallel_eff",
           ratio(static_cast<double>(task_ns_), static_cast<double>(worker_stage_ns_)), "ratio");
  out->Add("scheduler.task_skew", ratio(skew_sum_, static_cast<double>(skew_stages_)), "ratio");

  int64_t sampled_ns = 0;
  int64_t vec = 0;
  for (int op = 0; op < static_cast<int>(gerenuk::PlanOpCode::kCount); ++op) {
    sampled_ns += stats_.plan_ops.sampled_nanos[op];
    if (gerenuk::IsVecOp(static_cast<gerenuk::PlanOpCode>(op))) {
      vec += stats_.plan_ops.dispatches[op];
    }
  }
  const double dispatches = static_cast<double>(stats_.plan_ops.total_dispatches());
  per_job_ms("exec.fast_path_ms", fast_ns_);
  per_job("exec.dispatches", dispatches, "count");
  out->Add("exec.ns_per_dispatch", ratio(static_cast<double>(sampled_ns), dispatches), "ns");
  out->Add("exec.vec_dispatch_share", ratio(static_cast<double>(vec), dispatches), "ratio");
  per_job_ms("exec.task_other_ms", task_ns_ - fast_ns_ - slow_ns_);
  per_job_ms("exec.slow_path_ms", slow_ns_);
  per_job("exec.aborts", stats_.aborts, "count");
  out->Add("exec.abort_ratio",
           ratio(stats_.aborts, static_cast<double>(stats_.fast_path_commits + stats_.aborts)),
           "ratio");
  per_job_ms("exec.wasted_fast_ms", wasted_fast_ns_);

  per_job("shuffle.bytes", static_cast<double>(stats_.shuffle_bytes), "bytes");
  per_job("shuffle.spill_bytes_stored", static_cast<double>(stats_.spill_bytes_stored), "bytes");
  per_job("shuffle.fetches", static_cast<double>(stats_.shuffle_fetches), "count");
  per_job("shuffle.backpressure_waits", static_cast<double>(stats_.fetch_backpressure_waits),
          "count");
  per_job("mapreduce.spills", stats_.spills, "count");
  per_job("mapreduce.combine_calls", static_cast<double>(stats_.combine_calls), "count");

  per_job_ms("runtime.gc_pause_ms", gc_ns_);
  per_job("runtime.gc_pauses", static_cast<double>(gc_pauses_), "count");
  out->Add("trace.unattributed_pct",
           100.0 * ratio(static_cast<double>(unattributed_ns_), static_cast<double>(wall_ns_)),
           "%");
}

double CompileMsPerPlan() {
  constexpr int kReps = 5;
  gerenuk::SparkEngine engine(GerenukConfig(1));
  gerenuk::SparkWorkloads workloads(engine);
  const gerenuk::SerProgram& udfs = workloads.udfs();
  std::vector<double> per_plan;
  for (int r = 0; r < kReps; ++r) {
    gerenuk::TransformStats stats;
    int64_t plans = 0;
    const int64_t start = SteadyNowNs();
    for (const auto& fn : udfs.functions) {
      gerenuk::CompiledFunction compiled = gerenuk::CompileSingleFunction(
          gerenuk::EngineMode::kGerenuk, engine.layouts(), udfs, fn.get(), &stats);
      if (compiled.transformed != nullptr) {
        compiled.plan = gerenuk::CompilePlan(*compiled.transformed, engine.layouts());
        plans += 1;
      }
    }
    per_plan.push_back(Ms(SteadyNowNs() - start) / static_cast<double>(std::max<int64_t>(plans, 1)));
  }
  return Median(per_plan);
}

}  // namespace perfbench
