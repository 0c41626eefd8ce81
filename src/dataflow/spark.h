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

#include <vector>

#include "src/dataflow/engine_core.h"
#include "src/shuffle/shuffle_service.h"

namespace gerenuk {

// A driver-built value shipped to every task (e.g. KMeans' current centers).
struct BroadcastVar {
  const Klass* klass = nullptr;
  ObjRef heap = kNullRef;          // kBaseline representation
  NativePartition native;          // kGerenuk representation (single record)
};

class SparkEngine : public EngineCore {
 public:
  explicit SparkEngine(const EngineConfig& config);
  ~SparkEngine();

  int num_partitions() const { return config_.execution.num_partitions; }

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

 private:
  using CompiledStage = StagePrograms;
  using CompiledFn = CompiledFunction;
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

  InlineSerializer inline_serde_;
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_SPARK_H_
