// A miniature Hadoop MapReduce: the second system the paper transforms.
//
// A job runs map tasks over input splits; each map emits (key, value)
// records into a sort buffer that is partitioned by reducer, sorted by key,
// optionally run through a combiner, and spilled to IFile-like segments.
// Reducers merge their partition's runs from every segment, group equal
// keys, and fold each group with the reduce function.
//
// The two engine modes mirror the paper's comparison:
//   * kBaseline — records are heap objects; the sort buffer and segments
//     hold *serialized* bytes (Hadoop's map-output buffer design, which is
//     why the paper observes small ser/deser savings for Hadoop); the
//     combiner and reducer deserialize values before folding.
//   * kGerenuk  — records are inlined native bytes end to end; sorting and
//     merging move byte ranges; the combiner and reducer run transformed
//     code over the buffers. The deserialization point the paper names
//     (WritableDeserializer.deserialize in ReduceContextImpl) simply
//     disappears.
#ifndef SRC_MAPREDUCE_HADOOP_H_
#define SRC_MAPREDUCE_HADOOP_H_

#include <memory>
#include <vector>

#include "src/dataflow/dataset.h"
#include "src/dataflow/engine_config.h"
#include "src/exec/ser_executor.h"
#include "src/exec/task_scheduler.h"
#include "src/serde/heap_serializer.h"

namespace gerenuk {

// The mini-Hadoop composes the shared knobs (`engine`) with its own;
// `engine.execution.num_partitions` is the number of map tasks (input
// splits). Composition — not inheritance — so brace-init stays unambiguous
// and the grouped sub-structs of EngineConfig nest cleanly.
struct HadoopConfig {
  EngineConfig engine;
  int num_reducers = 2;
  size_t sort_buffer_bytes = 1u << 20;  // spill threshold
  // Yak comparison (Figure 9): with gc == GcKind::kRegion, wrap every map
  // and reduce task in an epoch (the paper's epoch_start in setup() /
  // epoch_end in cleanup() annotation). Baseline mode only.
  bool yak_epochs = false;

  // Checks the engine knobs plus the Hadoop-specific ones.
  std::string Validate() const {
    if (num_reducers < 1) {
      return "num_reducers must be >= 1 (got " + std::to_string(num_reducers) + ")";
    }
    if (sort_buffer_bytes == 0) {
      return "sort_buffer_bytes must be non-zero: every emit would spill";
    }
    return engine.Validate();
  }
};

class HadoopEngine {
 public:
  explicit HadoopEngine(const HadoopConfig& config);
  ~HadoopEngine();

  Heap& heap() { return *heap_; }
  WellKnown& wk() { return *wk_; }
  EngineMode mode() const { return config_.engine.execution.mode; }

  void RegisterDataType(const Klass* klass);
  const DataStructAnalyzer& layouts() const { return layouts_; }

  // Builds a sealed source dataset; same contract as SparkEngine::Source.
  DatasetPtr Source(const Klass* klass, int64_t count, const SourceFn& make);

  // Runs one MapReduce job.
  //   map_fn      — flatMap-style: input record -> out_klass[] (the emits)
  //   key         — key extraction over out_klass records
  //   reduce_fn   — pairwise fold: (acc, value) -> merged (same klass)
  //   combiner_fn — optional map-side combiner, same signature as reduce_fn
  DatasetPtr RunJob(const DatasetPtr& input, const SerProgram& udfs, const Function* map_fn,
                    const Klass* out_klass, const KeySpec& key, const Function* reduce_fn,
                    const Function* combiner_fn = nullptr);

  const EngineStats& stats() const { return stats_; }
  int64_t peak_memory_bytes() const { return memory_.peak_bytes(); }
  int num_workers() const { return scheduler_->num_workers(); }
  void ResetMetrics();

  // The engine's event timeline (null when config.trace is off); complete
  // after RunJob returns. Export with TraceExporter.
  Trace* trace() { return trace_.get(); }
  // Unified metrics snapshot: every EngineStats counter, phase times,
  // plan-op profile totals, and (when tracing) the trace-derived histograms.
  MetricsRegistry metrics() const;

  // Fault injection: ordinals are assigned in submission order (all map
  // tasks of a job, then all reduce tasks), starting at next_task_ordinal().
  FaultPlan& fault_plan() { return fault_plan_; }
  int64_t next_task_ordinal() const { return task_seq_; }

  // Driver-side speculation governor, shared semantics with SparkEngine
  // (see src/exec/fault.h): both the map and reduce phases consult it.
  const SpeculationGovernor& governor() const { return governor_; }

  // Service-mode hooks, shared semantics with SparkEngine: install only
  // while the engine is idle.
  void set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }
  PlanCache* plan_cache() const { return plan_cache_; }
  void set_speculation_oracle(SpeculationOracle oracle) { oracle_ = std::move(oracle); }
  // Job-level cooperative cancellation, shared semantics with SparkEngine:
  // probed at every map/reduce task-attempt boundary.
  void set_cancel_check(CancelCheck check) { scheduler_->set_cancel_check(std::move(check)); }

 private:
  // The plan-compiler knobs derived from EngineConfig::execution; must agree
  // with VecSignatureOf so the cache key always matches the compiled plan.
  PlanOptions plan_options() const {
    PlanOptions options;
    options.vectorize = config_.engine.execution.vectorize;
    options.vector_batch_size = config_.engine.execution.vector_batch_size;
    options.vec_bail_after_strips = config_.engine.execution.vec_bail_after_strips;
    return options;
  }

  // One spilled, sorted map-output segment. Per reducer partition: records
  // in key order. Baseline keeps Kryo bytes; Gerenuk keeps native records.
  struct Segment {
    // Per partition, parallel arrays sorted by key.
    std::vector<std::vector<ShuffleKey>> keys;
    std::vector<ByteBuffer> wire;                 // kBaseline: concatenated records
    std::vector<std::vector<size_t>> wire_offsets;
    std::vector<NativePartition> native;          // kGerenuk
    explicit Segment(int partitions, MemoryTracker* tracker, EngineMode mode);
  };

  int64_t ClaimTaskOrdinals(int n) {
    int64_t base = task_seq_;
    task_seq_ += n;
    return base;
  }

  HadoopConfig config_;
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

  // Driver-side sink for phase spans (null when tracing is off).
  TraceSink* DriverSink() const { return trace_ != nullptr ? trace_->driver() : nullptr; }

  bool ShouldSpeculateFor(uint64_t signature_hash) const {
    if (!governor_.ShouldSpeculate()) {
      return false;
    }
    if (oracle_.should_speculate != nullptr && !oracle_.should_speculate(signature_hash)) {
      return false;
    }
    return true;
  }

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

#endif  // SRC_MAPREDUCE_HADOOP_H_
