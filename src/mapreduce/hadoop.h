// A miniature Hadoop MapReduce: the second system the paper transforms.
//
// A job runs map tasks over input splits. Each emit joins its (reducer
// partition, key) group in the map task's sort buffer; a spill sorts the
// distinct keys, optionally runs each key's records through a combiner, and
// writes an IFile-like segment of key runs: per partition, one run per key,
// in key order, holding the key, its record count and its records. Reducers
// merge their partition's runs from every segment by key and fold each
// key's records with the reduce function.
//
// Value order: a key's records reach the combiner and the reducer in map
// task order, then spill order, then emit order — the same in both modes,
// at any worker count and in process mode.
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

#include <cstdint>
#include <string>
#include <vector>

#include "src/dataflow/engine_core.h"

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

// One spilled map-output segment. Per reducer partition: the spill's key
// runs in ascending key order, and the runs' records back to back in run
// order — a run's records in emit order, or the one combined record when a
// combiner folded them. Baseline keeps Kryo bytes; Gerenuk keeps native
// records.
struct MapSegment {
  struct Run {
    ShuffleKey key;
    uint32_t count;  // records of this run in the partition's bytes
  };
  std::vector<std::vector<Run>> runs;   // per partition
  std::vector<ByteBuffer> wire;         // kBaseline: concatenated records
  std::vector<NativePartition> native;  // kGerenuk
  MapSegment(int partitions, MemoryTracker* tracker, EngineMode mode);
};

// Process-mode wire codec of one Gerenuk map task's segment list: the
// segment count; per segment and partition, the run count, each run as
// {u8 is_string, i64 i, varlen string, u32 count}, then the partition's
// native wire form; last, a SealHash of every byte before it. Decoding
// fails closed: a truncated, over-long or damaged list throws
// TaskError{kCorruptInput} naming `task`, never a fatal bounds check.
void EncodeMapSegments(const std::vector<MapSegment>& segments, ByteBuffer* out);
std::vector<MapSegment> DecodeMapSegments(ByteReader* in, int partitions, int task,
                                          MemoryTracker* tracker);

class HadoopEngine : public EngineCore {
 public:
  explicit HadoopEngine(const HadoopConfig& config);
  ~HadoopEngine();

  // Runs one MapReduce job.
  //   map_fn      — flatMap-style: input record -> out_klass[] (the emits)
  //   key         — key extraction over out_klass records
  //   reduce_fn   — pairwise fold: (acc, value) -> merged (same klass)
  //   combiner_fn — optional map-side combiner, same signature as reduce_fn
  // Fault-plan ordinals are assigned in submission order: all map tasks of
  // a job, then all reduce tasks. Both phases consult the speculation
  // governor, and every map/reduce task-attempt boundary probes the cancel
  // check.
  DatasetPtr RunJob(const DatasetPtr& input, const SerProgram& udfs, const Function* map_fn,
                    const Klass* out_klass, const KeySpec& key, const Function* reduce_fn,
                    const Function* combiner_fn = nullptr);

 private:
  // The Hadoop-specific knobs of HadoopConfig (the engine knobs live in the
  // core's config_).
  const int num_reducers_;
  const size_t sort_buffer_bytes_;
  const bool yak_epochs_;
};

}  // namespace gerenuk

#endif  // SRC_MAPREDUCE_HADOOP_H_
