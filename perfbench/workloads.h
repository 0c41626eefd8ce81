// The benchmark's workloads. Each generates its inputs from Options::seed,
// computes the baseline-mode reference, sets up (timed as setup_s), then
// measures for Options::seconds. With Options::trace it instead runs an
// untraced and a traced phase of equal length and reports the per-layer
// ledger.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/report.h"
#include "src/dataflow/engine_config.h"
#include "src/support/trace.h"

namespace perfbench {

// One driver runs `programs` back to back on 4 workers at the kLarge scale,
// each job starting when the previous one returned.
RunResult RunClosedLoop(const Options& options, const std::vector<std::string>& programs);

// One generator thread submits a seeded mix of every program at the kFig6a
// scale, from 4 tenants, to a 2-slot x 2-worker EngineService at fixed rates.
RunResult RunServiceOpen(const Options& options);

// <out_dir>/<name>.trace.json
std::string TracePath(const Options& options, const std::string& name);
// Writes `trace` as Chrome trace-event JSON (TraceExporter) to `path`.
void WriteChromeTrace(const gerenuk::Trace& trace, const std::string& path);

// Engine settings of a measured engine: Gerenuk mode and engine defaults;
// traced engines also sample the plan profiler and size the trace rings so
// no worker ring overflows between two stage barriers.
gerenuk::EngineConfig MeasuredConfig(int workers, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
