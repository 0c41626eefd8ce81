// A miniature Spark: the data-parallel substrate the Gerenuk evaluation
// transforms. It provides partitioned datasets, fused narrow stages
// (map/flatMap/filter), hash-partitioned shuffles with reduceByKey and
// joins, broadcast variables, and per-phase time/memory accounting.
//
// Two engine modes mirror the paper's comparison:
//   * kBaseline — the unmodified system: records live as managed-heap
//     objects; every shuffle serializes with the Kryo-like HeapSerializer on
//     the map side and deserializes on the reduce side; the GC pays for all
//     data objects.
//   * kGerenuk  — the transformed system: records live as inlined native
//     bytes; every stage's SER is compiled (SER analyzer + Algorithm 1) and
//     speculatively executed over the buffers; shuffles are byte copies in
//     the same format; input regions are freed wholesale after each task.
//
// Gerenuk-mode stages fan their per-partition tasks out to a TaskScheduler
// worker pool (each worker owns an isolated executor context); baseline
// stages run serially on the engine heap, which is single-mutator. Output
// bytes and abort/commit counts are identical for every worker count — see
// the threading model in src/exec/task_scheduler.h.
#ifndef SRC_DATAFLOW_SPARK_H_
#define SRC_DATAFLOW_SPARK_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dataflow/dataset.h"
#include "src/dataflow/engine_config.h"
#include "src/exec/plan_cache.h"
#include "src/exec/ser_executor.h"
#include "src/exec/task_scheduler.h"
#include "src/serde/heap_serializer.h"
#include "src/shuffle/shuffle_service.h"

namespace gerenuk {

// A driver-built value shipped to every task (e.g. KMeans' current centers).
struct BroadcastVar {
  const Klass* klass = nullptr;
  ObjRef heap = kNullRef;          // kBaseline representation
  NativePartition native;          // kGerenuk representation (single record)
};

class SparkEngine {
 public:
  explicit SparkEngine(const EngineConfig& config);
  ~SparkEngine();

  Heap& heap() { return *heap_; }
  WellKnown& wk() { return *wk_; }
  EngineMode mode() const { return config_.execution.mode; }
  int num_partitions() const { return config_.execution.num_partitions; }
  int num_workers() const { return scheduler_->num_workers(); }

  // §3.1 annotation: top-level data types must be registered before any
  // stage touching them is compiled.
  void RegisterDataType(const Klass* klass);
  const DataStructAnalyzer& layouts() const { return layouts_; }

  // Builds a sealed source dataset. `make` returns record `index` built in
  // the SourceScope it is handed (see MakeSourceDataset: in kGerenuk the
  // partitions are built in parallel on the worker pool). Call
  // ResetMetrics() afterwards to exclude generation cost.
  DatasetPtr Source(const Klass* klass, int64_t count, const SourceFn& make);

  BroadcastVar MakeBroadcast(ObjRef obj, const Klass* klass);

  // A fused narrow stage (no shuffle).
  DatasetPtr RunStage(const DatasetPtr& input, const SerProgram& udfs,
                      const std::vector<NarrowOp>& ops, const BroadcastVar* broadcast = nullptr);

  // Narrow pre-ops, shuffle by key, then pairwise reduction per key.
  DatasetPtr ReduceByKey(const DatasetPtr& input, const SerProgram& udfs,
                         const std::vector<NarrowOp>& pre_ops, const KeySpec& key,
                         const Function* reduce_fn, const BroadcastVar* broadcast = nullptr);

  // Inner hash join: shuffle both sides by key, combine matching pairs.
  DatasetPtr JoinByKey(const DatasetPtr& left, const KeySpec& left_key, const DatasetPtr& right,
                       const KeySpec& right_key, const SerProgram& udfs,
                       const Function* combine_fn, const Klass* out_klass);

  // Driver-side materialization as heap objects (rooted in `scope`).
  std::vector<size_t> CollectToHeap(const DatasetPtr& dataset, RootScope& scope);
  int64_t Count(const DatasetPtr& dataset) const { return dataset->TotalRecords(); }

  const EngineStats& stats() const { return stats_; }
  int64_t peak_memory_bytes() const { return memory_.peak_bytes(); }
  // Engine-wide heap + native footprint. Exact at stage barriers (see
  // NativePartition); between them it reads low by under one chunk per
  // growing partition.
  const MemoryTracker& memory() const { return memory_; }
  // Used bytes of the engine heap plus every worker heap. Between stages only.
  int64_t heap_used_bytes() const { return heap_->used_bytes() + scheduler_->heap_used_bytes(); }
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

 private:
  using CompiledStage = StagePrograms;
  using CompiledFn = CompiledFunction;

  // The plan-compiler knobs derived from EngineConfig::execution; must agree
  // with VecSignatureOf so the cache key always matches the compiled plan.
  PlanOptions plan_options() const {
    PlanOptions options;
    options.vectorize = config_.execution.vectorize;
    options.vector_batch_size = config_.execution.vector_batch_size;
    options.vec_bail_after_strips = config_.execution.vec_bail_after_strips;
    return options;
  }

  // Builds the stage body: deserialize -> narrow chain -> serialize.
  CompiledStage CompileStage(const Klass* in_klass, const SerProgram& udfs,
                             const std::vector<NarrowOp>& ops, bool has_broadcast,
                             const Klass* broadcast_klass);
  CompiledFn CompileFn(const SerProgram& udfs, const Function* fn);

  using ShuffleKeyValue = ShuffleKey;
  using ShuffleKeyHash = ShuffleKey::Hash;

  // Mode-specific stage executors.
  DatasetPtr RunNarrowBaseline(const DatasetPtr& input, const CompiledStage& stage,
                               const BroadcastVar* broadcast);
  DatasetPtr RunNarrowGerenuk(const DatasetPtr& input, const CompiledStage& stage,
                              const BroadcastVar* broadcast);
  // Shuffle write: per-map-task, per-bucket outputs — the analogue of map
  // output files, so an aborted task discards only its own contribution.
  // Outer index: map task; inner index: reduce bucket.
  void ShuffleBaseline(const DatasetPtr& input, const CompiledStage& stage, const KeySpec& key,
                       const CompiledFn& key_fn, const BroadcastVar* broadcast,
                       std::vector<std::vector<ByteBuffer>>* buckets,
                       std::vector<std::vector<int64_t>>* bucket_counts);
  // With a `combine_fn` (ReduceByKey's reduce function), each speculating
  // map task pre-folds its buckets by key before they leave the task.
  void ShuffleGerenuk(const DatasetPtr& input, const CompiledStage& stage, const KeySpec& key,
                      const CompiledFn& key_fn, const BroadcastVar* broadcast,
                      const CompiledFn* combine_fn,
                      std::vector<std::vector<NativePartition>>* buckets);
  void CombineMapOutput(WorkerContext& ctx, const KeySpec& key, const CompiledFn& key_fn,
                        const CompiledFn& reduce_fn, const Klass* rec_klass,
                        std::vector<NativePartition>* buckets);

  // Reserves `n` driver-assigned task ordinals (for the fault plan) and
  // returns the first. Every stage claims its ordinals before submission, in
  // both modes, so a plan means the same tasks for any worker count.
  int64_t ClaimTaskOrdinals(int n) {
    int64_t base = task_seq_;
    task_seq_ += n;
    return base;
  }
  const FaultPlan* ActiveFaults() const { return fault_plan_.empty() ? nullptr : &fault_plan_; }
  // Shuffle-service knobs for this engine's reduce/join exchanges.
  ShuffleConfig shuffle_config() {
    ShuffleConfig sc;
    sc.spill_threshold_bytes = config_.shuffle.shuffle_spill_threshold_bytes;
    sc.compress = config_.shuffle.shuffle_compress;
    sc.fetch_budget_bytes = config_.shuffle.shuffle_fetch_budget_bytes;
    sc.spill_dir = config_.shuffle.shuffle_spill_dir;
    sc.tracker = &memory_;
    return sc;
  }
  // Driver-side sink for stage spans (null when tracing is off).
  TraceSink* DriverSink() const { return trace_ != nullptr ? trace_->driver() : nullptr; }
  // Shared TaskIo tracing/profiling wiring for every Gerenuk-mode stage.
  void BindObservability(TaskIo* io, WorkerContext& ctx) const {
    io->trace = ctx.trace_sink();
    if (config_.observability.plan_profile_stride > 0) {
      io->plan_profile = &ctx.stats().plan_ops;
      io->plan_profile_stride = config_.observability.plan_profile_stride;
    }
  }

  EngineConfig config_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<WellKnown> wk_;
  ExprPool pool_;
  DataStructAnalyzer layouts_{pool_};
  HeapSerializer kryo_;
  InlineSerializer inline_serde_;
  MemoryTracker memory_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<Trace> trace_;  // allocated only when config.trace
  EngineStats stats_;
  FaultPlan fault_plan_;
  SpeculationGovernor governor_;
  SpeculationOracle oracle_;
  PlanCache* plan_cache_ = nullptr;  // not owned; null outside service mode
  int64_t task_seq_ = 0;

  // Stage-submission speculation decision: the engine governor AND the
  // per-tenant-per-SER oracle (when installed) both have veto power.
  bool ShouldSpeculateFor(uint64_t signature_hash) const {
    if (!governor_.ShouldSpeculate()) {
      return false;
    }
    if (oracle_.should_speculate != nullptr && !oracle_.should_speculate(signature_hash)) {
      return false;
    }
    return true;
  }

  // Barrier-side governor feed: counts one completed speculative stage and
  // records a flip in stats_. Driver-only, so decisions never depend on the
  // in-flight schedule.
  void ObserveSpeculation(uint64_t signature_hash, int tasks, int aborts_delta) {
    if (governor_.Observe(tasks, aborts_delta)) {
      stats_.governor_flips += 1;
    }
    if (oracle_.observe != nullptr) {
      oracle_.observe(signature_hash, tasks, aborts_delta);
    }
  }
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_SPARK_H_
