// The shared engine configuration: both the mini-Spark and mini-Hadoop
// engines are configured through these knobs, so the task scheduler, the
// managed heap, and the partitioning are wired identically in both systems.
//
// Knobs are grouped by concern: `execution` (mode, heap, parallelism,
// process model), `fault` (retries, deadlines, governor), `shuffle` (spill
// + fetch backpressure), `observability` (trace + plan profiler). A whole
// config is checked in one place — EngineConfig::Validate() — and both
// engine constructors refuse an invalid one with the descriptive error it
// returns.
#ifndef SRC_DATAFLOW_ENGINE_CONFIG_H_
#define SRC_DATAFLOW_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "src/dataflow/stage_compiler.h"  // EngineMode, PlanOptions
#include "src/exec/fault.h"               // RetryPolicy, QuarantinePolicy
#include "src/runtime/heap.h"             // GcKind

namespace gerenuk {

// Service-mode hook generalizing the SpeculationGovernor from per-engine to
// per-tenant-per-SER: `should_speculate(sig)` is consulted (in addition to
// the engine's own governor) before each speculative stage, keyed by the
// stage's ProgramSignature hash; `observe(sig, tasks, aborts)` is fed at
// the stage barrier. Both driver-side, never from workers. Installed via
// EngineCore::set_speculation_oracle (both engines).
struct SpeculationOracle {
  std::function<bool(uint64_t signature_hash)> should_speculate;
  std::function<void(uint64_t signature_hash, int tasks, int aborts)> observe;
};

// --- Execution: mode, heap, parallelism, process model ---
struct ExecutionOptions {
  EngineMode mode = EngineMode::kBaseline;
  size_t heap_bytes = 64u << 20;
  GcKind gc = GcKind::kGenerational;
  // Partitions per dataset; also the number of tasks per stage (Hadoop: the
  // number of map tasks / input splits).
  int num_partitions = 4;
  // Size of the worker pool Gerenuk-mode stages fan out to. Each worker owns
  // an isolated executor context (its own mini-heap, sharing the engine's
  // class registry). Baseline stages always run serially on the engine heap
  // (it is single-mutator), whatever this is set to. Output bytes and
  // abort/commit counts are identical for every worker count.
  int num_workers = 1;
  // Lower transformed SERs to flat direct-threaded plans (SerPlan) and run
  // the fast path through the PlanExecutor with batched record channels.
  // Off — or for a program with a reachable heap-object op, which gets no
  // plan — the tree-walking Interpreter runs the fast path (the reference
  // implementation — also the abort/slow-path fallback either way). Output
  // bytes are identical in both settings; see tests/plan_test.cc.
  bool use_plan_compiler = true;
  // Lower counted loops inside compiled plans to columnar batch kernels
  // (kVec* opcodes, see DESIGN.md §13). The layout cost model still falls
  // back to row execution per SER when the loop body is pointer-chasing;
  // a vec strip that hits a runtime hazard replays through the scalar path,
  // so output bytes are identical in all settings and at any worker count.
  bool vectorize = true;
  // Lanes per vectorized strip (column length). Power of two not required.
  int32_t vector_batch_size = 256;
  // Test-only: vectorized loops hand control to the scalar path after this
  // many strips (-1 = never) — exercises the mid-loop bail/replay seam.
  int64_t vec_bail_after_strips = -1;

  // --- Process-mode execution (see DESIGN.md "Process model & shuffle") ---
  // Run Gerenuk-mode stages in forked executor processes supervised by the
  // driver: sealed partition bytes cross a real process boundary, executor
  // death (SIGKILL) is a recoverable TaskError{kExecutorLost}, and wedged
  // executors are reaped by heartbeat timeout. Output bytes stay identical
  // to in-process mode for every executor count. Baseline mode and stages
  // without a wire codec run in-process regardless.
  bool process_executors = false;
  // Child heartbeat period / supervisor liveness timeout (ms).
  int64_t executor_heartbeat_ms = 25;
  int64_t executor_heartbeat_timeout_ms = 1000;
  // Fresh processes allowed per executor slot after the initial launch.
  int max_executor_relaunches = 3;
};

// --- Fault tolerance (see DESIGN.md "Fault model & recovery") ---
struct FaultToleranceOptions {
  // Scheduler retry budget per task. 1 = the seed's fail-fast behavior.
  int max_task_attempts = 1;
  // Deterministic backoff before attempt n: retry_backoff_ms << (n - 2).
  int64_t retry_backoff_ms = 0;
  // Per-attempt deadline (cooperative); 0 disables straggler detection.
  int64_t task_deadline_ms = 0;
  // Deterministic jitter added to the exponential backoff term: a seeded
  // hash of (task, attempt) in [0, retry_backoff_jitter_ms]. Reproducible —
  // the same seed gives the same schedule on every run and worker count.
  int64_t retry_backoff_jitter_ms = 0;
  uint64_t retry_jitter_seed = 0;
  // What happens to a task whose input fails its integrity checksum.
  QuarantinePolicy quarantine = QuarantinePolicy::kFailFast;

  // --- Adaptive speculation governor ---
  // Once the cumulative abort rate over speculative tasks reaches this
  // threshold (with at least governor_min_tasks observed), remaining stages
  // run the slow path directly. <= 0 disables the governor.
  double governor_abort_threshold = -1.0;
  int governor_min_tasks = 4;
};

// --- Shuffle service (Spark-side reduce/join exchange) ---
struct ShuffleOptions {
  // Spill threshold: once resident shuffle bytes would exceed this, newly
  // added partitions are sealed, compressed, and spilled to disk; reducers
  // fetch them on demand. 0 = never spill (all-resident, the default).
  int64_t shuffle_spill_threshold_bytes = 0;
  // Compress spilled blocks (LZ-style; stored verbatim when incompressible).
  bool shuffle_compress = true;
  // Bounded-credit backpressure: total bytes of spilled blocks allowed
  // in flight to consumers at once. A slow consumer blocks further fetches
  // instead of ballooning producer-side memory.
  int64_t shuffle_fetch_budget_bytes = 16ll << 20;
  // Directory for spill files ("" = $TMPDIR or /tmp). Files are unlinked at
  // creation, so they vanish with the process no matter how it dies.
  std::string shuffle_spill_dir;
};

// --- Observability (see DESIGN.md "Observability") ---
struct ObservabilityOptions {
  // Record a per-task event timeline: stage/task/fast-path/slow-path spans,
  // abort + retry/relaunch/quarantine instants, GC pauses, ser/deser spans,
  // shuffle-byte counters. Off by default: no Trace is allocated and every
  // instrumentation site reduces to one null-pointer test. Export with
  // TraceExporter (Chrome trace-event JSON or a text timeline).
  bool trace = false;
  // Per-worker event ring capacity; overflowing events are dropped and
  // counted (Trace::dropped_events), never blocked on.
  size_t trace_buffer_events = 1u << 16;
  // Sampled plan-op profiler: every dispatch counts its opcode, every
  // `stride`-th dispatch takes a clock read. <= 0 disables (the dispatch
  // loop then runs the unprofiled instantiation — zero overhead). Results
  // land in EngineStats::plan_ops.
  int64_t plan_profile_stride = 0;
};

// The plan-compiler knobs of ExecutionOptions. One value feeds both the
// SER's canonical signature (see ComputeProgramSignature) and CompilePlan,
// so a PlanCache key always matches the plan compiled under it.
inline PlanOptions PlanOptionsOf(const ExecutionOptions& execution) {
  PlanOptions options;
  options.vectorize = execution.vectorize;
  options.vector_batch_size = execution.vector_batch_size;
  options.vec_bail_after_strips = execution.vec_bail_after_strips;
  return options;
}

struct EngineConfig {
  ExecutionOptions execution;
  FaultToleranceOptions fault;
  ShuffleOptions shuffle;
  ObservabilityOptions observability;

  RetryPolicy retry_policy() const {
    RetryPolicy policy;
    policy.max_attempts = fault.max_task_attempts;
    policy.backoff_base_ms = fault.retry_backoff_ms;
    policy.backoff_jitter_ms = fault.retry_backoff_jitter_ms;
    policy.jitter_seed = fault.retry_jitter_seed;
    policy.task_deadline_ms = fault.task_deadline_ms;
    policy.quarantine = fault.quarantine;
    return policy;
  }

  // Checks the whole config for contradictions and out-of-range knobs.
  // Returns "" when valid, otherwise a descriptive one-line error naming
  // the offending field(s). Both engine constructors call this and refuse
  // an invalid config.
  std::string Validate() const;
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_ENGINE_CONFIG_H_
