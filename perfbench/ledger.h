// The per-layer ledger of a traced run. Each job adds its own numbers from
// three sources: the spans the benchmark records around its calls (job wall
// time, Hadoop ingest), the engine's trace events of that job (stage, task,
// fast/slow path and GC spans, abort instants), and the job's EngineStats
// delta (counters and the sampled plan profile). Export() turns the sums
// into per-job means, ratios and shares.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "perfbench/programs.h"
#include "perfbench/report.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace perfbench {

class Ledger {
 public:
  // One job: its trace events are events()[first_event, end), `wall` and
  // `ingest` are read with the same trace's clock, `stats` is the job's
  // EngineStats delta.
  void AddJob(const gerenuk::Trace& trace, size_t first_event, const Span& wall,
              const Span& ingest, const gerenuk::EngineStats& stats, int workers, bool hadoop);

  // Appends the ledger's per-layer metrics (per-job means unless a ratio).
  void Export(RunResult* out) const;

 private:
  int64_t jobs_ = 0;
  int64_t wall_ns_ = 0;
  int64_t ingest_ns_ = 0;
  int64_t driver_ns_ = 0;        // wall minus the union of stage spans
  int64_t unattributed_ns_ = 0;  // wall minus the union of stage and ingest spans
  int64_t stages_ = 0;
  int64_t spark_stage_ns_[4] = {};   // narrow, shuffle, reduce, join
  int64_t hadoop_stage_ns_[2] = {};  // map, reduce
  int64_t worker_stage_ns_ = 0;      // sum of workers x stage span
  int64_t tasks_ = 0;
  int64_t task_ns_ = 0;
  double skew_sum_ = 0.0;
  int64_t skew_stages_ = 0;
  int64_t fast_ns_ = 0;
  int64_t slow_ns_ = 0;
  int64_t wasted_fast_ns_ = 0;
  int64_t gc_pauses_ = 0;
  int64_t gc_ns_ = 0;
  gerenuk::EngineStats stats_;
};

// Times the public compile pipeline — CompileSingleFunction, then
// CompilePlan over the transformed program — for every function of the
// Spark workloads' UDF program. Returns the median over five repetitions of
// the mean milliseconds per compiled plan.
double CompileMsPerPlan();

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
