// The part of an engine that does not depend on the system it models: one
// compiler and one runtime, applied unchanged to Spark and to Hadoop
// (PAPER.md §1). SparkEngine and HadoopEngine derive from EngineCore and
// describe only their stage shapes; everything else lives here once:
//   * the wiring — managed heap, WellKnown, offset-expression pool, layouts,
//     Kryo serde, memory tracker, task scheduler (retry policy, executor
//     supervision), trace, stats, fault plan and speculation governor;
//   * the compile-and-cache pipeline — signature lookup, transform on a
//     miss, constant folding, CompilePlan, PlanCache insert, and the
//     stages_compiled / plans_compiled / plan_cache_hits counts;
//   * the driver-side stage helpers — task-ordinal claiming, speculation
//     decisions and their barrier-side feed, Gerenuk-mode TaskIo wiring and
//     the speculative-or-direct task run.
//
// Public inheritance keeps the engines' accessors (`engine.stats()`,
// `engine.layouts()`, ...) where callers already use them; the core has no
// virtual functions.
#ifndef SRC_DATAFLOW_ENGINE_CORE_H_
#define SRC_DATAFLOW_ENGINE_CORE_H_

#include <memory>
#include <vector>

#include "src/dataflow/dataset.h"
#include "src/dataflow/engine_config.h"
#include "src/exec/plan_cache.h"
#include "src/exec/ser_executor.h"
#include "src/exec/task_scheduler.h"
#include "src/serde/heap_serializer.h"

namespace gerenuk {

class EngineCore {
 public:
  Heap& heap() { return *heap_; }
  WellKnown& wk() { return *wk_; }
  EngineMode mode() const { return config_.execution.mode; }
  int num_workers() const { return scheduler_->num_workers(); }

  // §3.1 annotation: top-level data types must be registered before any
  // stage touching them is compiled.
  void RegisterDataType(const Klass* klass);
  const DataStructAnalyzer& layouts() const { return layouts_; }

  // Builds and seals a source dataset of `count` records; record i lands in
  // partition i % num_partitions, in ascending i. `make` writes record i
  // through a RecordWriter straight into the inline format. kGerenuk runs
  // one scheduler task per partition under a "source" stage span, appending
  // each record's bytes to the partition and sealing it: no heap object is
  // built, so there is no ingest garbage to collect. kBaseline runs the
  // same callback serially and reads every record back into engine-heap
  // objects (the input deserialization a JVM job pays; the oracle). The
  // ingest stage claims no task ordinals and its stats are discarded, so
  // fault plans and EngineStats see only the job's stages. Call
  // ResetMetrics() afterwards to exclude generation cost.
  DatasetPtr Source(const Klass* klass, int64_t count, const SourceFn& make);

  const EngineStats& stats() const { return stats_; }
  int64_t peak_memory_bytes() const { return memory_.peak_bytes(); }
  // Engine-wide heap + native footprint. Exact at stage barriers (see
  // NativePartition); between them it reads low by under one chunk per
  // growing partition.
  const MemoryTracker& memory() const { return memory_; }
  // Used bytes of the engine heap plus every worker heap. Between stages only.
  int64_t heap_used_bytes() const { return heap_->used_bytes() + scheduler_->heap_used_bytes(); }
  // Starts a job's accounting: zeroes the stats and rebases the peak on the
  // live bytes. In kGerenuk it first collects the driver heap. Earlier jobs
  // leave their driver-side objects there (CollectToHeap results, broadcast
  // objects) as garbage that a 64 MB heap would carry for hundreds of jobs
  // before its first collection, so every later job's peak would count it.
  // The live set is what the caller still roots, so the collection is
  // short; kBaseline keeps its heap untouched (its input lives there).
  void ResetMetrics();

  // The engine's event timeline (null when config.trace is off). Complete —
  // merged and histogram-fed — after any stage barrier; export it with
  // TraceExporter.
  Trace* trace() { return trace_.get(); }

  // Unified metrics snapshot: every EngineStats counter (completeness pinned
  // by the field-count static_assert in metrics.h), per-phase times, plan-op
  // profile totals, and — when tracing — the trace's derived histograms
  // (task duration, GC pause, abort-to-slow-path-commit) and drop counter.
  MetricsRegistry metrics() const;

  // Fig. 10(b) hook: plans forced aborts for the next `n` submitted Gerenuk
  // tasks (late in each task, so nearly all speculative work is wasted).
  void ForceAborts(int n) {
    for (int i = 0; i < n; ++i) {
      fault_plan_.AbortTask(task_seq_ + i);
    }
  }
  // Direct fault-plan access for targeting specific (task, record) pairs;
  // ordinals are assigned in submission order starting at next_task_ordinal().
  FaultPlan& fault_plan() { return fault_plan_; }
  int64_t next_task_ordinal() const { return task_seq_; }

  // Driver-side speculation governor (consulted at stage submission, fed at
  // stage barriers; see src/exec/fault.h). Flip counts and direct-slow-path
  // task counts surface through stats().
  const SpeculationGovernor& governor() const { return governor_; }

  // Service-mode hooks. Both must be installed while the engine is idle
  // (between jobs): the compiler and the stage barriers read them without
  // synchronization.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }
  PlanCache* plan_cache() const { return plan_cache_; }
  void set_speculation_oracle(SpeculationOracle oracle) { oracle_ = std::move(oracle); }
  // Job-level cooperative cancellation (see TaskScheduler::set_cancel_check):
  // probed at every task-attempt boundary of every stage this engine runs.
  void set_cancel_check(CancelCheck check) { scheduler_->set_cancel_check(std::move(check)); }

 protected:
  // Refuses an invalid `config` before any member that consumes a knob (the
  // heap, the scheduler) is built.
  explicit EngineCore(const EngineConfig& config);
  ~EngineCore();

  // Builds the stage body (deserialize -> narrow chain -> serialize) and
  // runs the whole compile-and-cache pipeline over it. A null
  // `broadcast_klass` means the stage takes no broadcast argument; a `fold`
  // composes a ReduceByKey map stage's emit-site fold (EmitFoldSpec).
  StagePrograms CompileStage(const Klass* in_klass, const SerProgram& udfs,
                             const std::vector<NarrowOp>& ops, const Klass* broadcast_klass,
                             const EmitFoldSpec* fold = nullptr);
  // Same pipeline for one self-contained key/reduce/combine function; a
  // reduce that qualifies also gets its accumulate form (acc_fn), compiled
  // into the same plan and cached in the same entry.
  CompiledFunction CompileFn(const SerProgram& udfs, const Function* fn);

  // Reserves `n` driver-assigned task ordinals (for the fault plan) and
  // returns the first. Every stage claims its ordinals before submission, in
  // both modes, so a plan means the same tasks for any worker count.
  int64_t ClaimTaskOrdinals(int n) {
    int64_t base = task_seq_;
    task_seq_ += n;
    return base;
  }
  const FaultPlan* ActiveFaults() const { return fault_plan_.empty() ? nullptr : &fault_plan_; }
  // Driver-side sink for stage spans (null when tracing is off).
  TraceSink* DriverSink() const { return trace_ != nullptr ? trace_->driver() : nullptr; }

  // Stage-submission speculation decision: the engine governor AND the
  // per-tenant-per-SER oracle (when installed) both have veto power.
  bool ShouldSpeculateFor(uint64_t signature_hash) const;
  // Barrier-side governor feed: counts one completed speculative stage and
  // records a flip in stats_. Driver-only, so decisions never depend on the
  // in-flight schedule.
  void ObserveSpeculation(uint64_t signature_hash, int tasks, int aborts_delta);

  // Fills the fields every Gerenuk-mode task shares: input, diagnostic
  // label and partition, fault ordinal, attempt, cancellation probe, and
  // the worker's trace sink and plan-op profiler.
  void BindTaskIo(TaskIo* io, WorkerContext& ctx, const char* label,
                  const NativePartition* input, int partition, int64_t ordinal) const;
  // Runs the task speculatively (fast path, slow-path re-execution on
  // abort) or — when the governor or oracle vetoed speculation — straight
  // on the slow path, and counts the outcome into the worker's stats.
  static void RunTask(SerExecutor& exec, TaskIo& io, WorkerContext& ctx, bool speculate);

  // Runs a Gerenuk-mode job stage on the worker pool, merging into stats_.
  // Nothing a task allocates on its worker heap outlives it (committed
  // output is native), so each task ends by collecting whatever it left
  // there — its slow path's objects — instead of letting that garbage count
  // against the worker's later stages and jobs. A task that stayed on the
  // fast path leaves the heap empty and pays nothing.
  void RunWorkerStage(int num_tasks, const TaskScheduler::Task& task, const StageCodec* codec);

  // Process-mode wire codec for a stage whose task `t` commits one sealed
  // partition into `(*parts)[t]`. Encode ships the partition's shuffle-wire
  // bytes (seal included); decode lands them in the driver's slot. Parse
  // failures are reclassified as the fail-closed TaskError{kCorruptInput}.
  StageCodec PartitionVectorCodec(std::vector<NativePartition>* parts);

  EngineConfig config_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<WellKnown> wk_;
  ExprPool pool_;
  DataStructAnalyzer layouts_{pool_};
  HeapSerializer kryo_;
  MemoryTracker memory_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<Trace> trace_;  // allocated only when config.trace
  EngineStats stats_;
  FaultPlan fault_plan_;
  SpeculationGovernor governor_;
  SpeculationOracle oracle_;
  PlanCache* plan_cache_ = nullptr;  // not owned; null outside service mode
  int64_t task_seq_ = 0;

 private:
  // The cache this engine compiles through: consulted only when the plan
  // compiler is on, since an entry always carries (transformed, plan) as a
  // unit and a mixed-configuration engine must never receive a plan it was
  // told not to use.
  PlanCache* ActivePlanCache() const {
    return config_.execution.use_plan_compiler ? plan_cache_ : nullptr;
  }
  // The tail of the pipeline: counts a cache hit, or lowers a freshly
  // transformed program to a SerPlan and publishes it under `signature`.
  void LowerAndCache(const ProgramSignature& signature, bool cache_hit,
                     const std::shared_ptr<const SerProgram>& transformed, const Function* fast_fn,
                     const Function* acc_fn, std::shared_ptr<const SerPlan>* plan);
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_ENGINE_CORE_H_
