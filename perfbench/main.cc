// gerenuk_perfbench: runs one benchmark workload and prints its metrics.
//
//   gerenuk_perfbench --workload ml_iter|shuffle_text|service_open
//                     [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any job's output differs from the baseline-mode
// reference, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"job_ms_geomean", "ms"},       {"records_per_s", "rec/s"}, {"job_ms_p50", "ms"},
    {"job_ms_p90", "ms"},           {"sustained_jobs_per_s", "jobs/s"},
    {"peak_mem_mb", "MB"},          {"setup_s", "s"},
};

const MetricSpec kPerLayer[] = {
    {"workloads.ingest_ms", "ms"},
    {"workloads.so_app_share", "ratio"},
    {"dataflow.driver_ms", "ms"},
    {"dataflow.stages", "count"},
    {"dataflow.stage_ms.narrow", "ms"},
    {"dataflow.stage_ms.shuffle", "ms"},
    {"dataflow.stage_ms.reduce", "ms"},
    {"dataflow.stage_ms.join", "ms"},
    {"mapreduce.stage_ms.map", "ms"},
    {"mapreduce.stage_ms.reduce", "ms"},
    {"exec.plans_compiled", "count"},
    {"compile.ms_per_plan", "ms"},
    {"scheduler.tasks", "count"},
    {"scheduler.task_ms", "ms"},
    {"scheduler.parallel_eff", "ratio"},
    {"scheduler.task_skew", "ratio"},
    {"exec.fast_path_ms", "ms"},
    {"exec.dispatches", "count"},
    {"exec.ns_per_dispatch", "ns"},
    {"exec.vec_dispatch_share", "ratio"},
    {"exec.task_other_ms", "ms"},
    {"exec.slow_path_ms", "ms"},
    {"exec.aborts", "count"},
    {"exec.abort_ratio", "ratio"},
    {"exec.wasted_fast_ms", "ms"},
    {"shuffle.bytes", "bytes"},
    {"shuffle.spill_bytes_stored", "bytes"},
    {"shuffle.fetches", "count"},
    {"shuffle.backpressure_waits", "count"},
    {"mapreduce.spills", "count"},
    {"mapreduce.combine_calls", "count"},
    {"runtime.gc_pause_ms", "ms"},
    {"runtime.gc_pauses", "count"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p90", "ms"},
    {"service.exec_ms_p50", "ms"},
    {"service.plan_cache_hit_rate", "ratio"},
    {"service.rejected", "count"},
    {"service.breaker_opens", "count"},
    {"bench.gen_late_ms_max", "ms"},
    {"trace.dropped_events", "count"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

// Why a per-layer metric may read 0 on a healthy run.
const std::map<std::string, const char*> kWhyZero = {
    {"shuffle.spill_bytes_stored",
     "the engine default shuffle_spill_threshold_bytes = 0 never spills the Spark shuffle"},
    {"shuffle.fetches", "fetches only read spilled blocks, and nothing spills at defaults"},
    {"shuffle.backpressure_waits", "fetch credit is only spent on spilled blocks"},
    {"exec.aborts", "no program of this workload violates its speculation"},
    {"exec.slow_path_ms", "no task aborted, so no slow path ran"},
    {"exec.wasted_fast_ms", "no task aborted"},
    {"runtime.gc_pause_ms", "Gerenuk mode keeps records native; no collection ran"},
    {"runtime.gc_pauses", "Gerenuk mode keeps records native; no collection ran"},
    {"service.rejected", "admission refused nothing at the reference rate"},
    {"service.breaker_opens", "no slot failed"},
    {"trace.dropped_events", "the trace rings are sized for the largest stage"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: gerenuk_perfbench --workload ml_iter|shuffle_text|service_open "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) {
      Usage();
    }
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      options.out_dir = value;
    } else {
      Usage();
    }
  }
  if (options.seconds <= 0) {
    Usage();
  }
  return options;
}

// JSON has no infinity; a failed job's latency is reported as this.
double Finite(double v) { return std::isfinite(v) ? v : 1e12; }

// Keeps exactly the metrics of `specs`, in order; a metric the workload
// does not produce reads 0, with a note.
std::vector<Metric> Select(const RunResult& result, const MetricSpec* specs, size_t n,
                           std::vector<std::string>* notes) {
  std::vector<Metric> out;
  for (size_t i = 0; i < n; ++i) {
    Metric metric{specs[i].name, 0.0, specs[i].unit};
    bool found = false;
    for (const Metric& m : result.metrics) {
      if (m.name == metric.name) {
        metric.value = Finite(m.value);
        found = true;
      }
    }
    if (!found) {
      notes->push_back(metric.name + " = 0: not produced by this workload");
    } else if (metric.value == 0.0 && kWhyZero.count(metric.name) > 0) {
      notes->push_back(metric.name + " = 0: " + kWhyZero.at(metric.name));
    }
    out.push_back(metric);
  }
  return out;
}

int Main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  RunResult result;
  if (options.workload == "ml_iter") {
    result = RunClosedLoop(options, {"KM", "LR", "GB", "CS"});
  } else if (options.workload == "shuffle_text") {
    result = RunClosedLoop(options, {"PR", "CC", "WC", "SO", "IUF", "UAH", "SPF", "UED", "CED",
                                     "IMC", "TFC"});
  } else if (options.workload == "service_open") {
    result = RunServiceOpen(options);
  } else {
    Usage();
  }

  std::vector<std::string> notes = result.notes;
  const std::vector<Metric> metrics =
      options.trace ? Select(result, kPerLayer, std::size(kPerLayer), &notes)
                    : Select(result, kEndToEnd, std::size(kEndToEnd), &notes);
  for (const std::string& note : notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# failed_frac = %lld / %lld\n", static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
