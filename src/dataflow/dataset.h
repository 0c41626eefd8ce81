// Mode-dependent partitioned collections shared by the engines.
//
// kBaseline keeps records as managed-heap objects (each partition vector is
// a GC root, like an RDD cached in deserialized form); kGerenuk keeps them
// as native inline partitions (the Gerenuk buffer format).
#ifndef SRC_DATAFLOW_DATASET_H_
#define SRC_DATAFLOW_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dataflow/stage_compiler.h"
#include "src/exec/interpreter.h"
#include "src/nativebuf/native_buffer.h"
#include "src/nativebuf/record_writer.h"
#include "src/runtime/roots.h"
#include "src/serde/inline_serializer.h"

namespace gerenuk {

class Dataset {
 public:
  Dataset(Heap& heap, const Klass* klass, int num_partitions, MemoryTracker* tracker);
  ~Dataset();
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  const Klass* klass;
  std::vector<std::vector<ObjRef>> heap_parts;   // kBaseline (GC-rooted)
  std::vector<NativePartition> native_parts;     // kGerenuk
  int64_t TotalRecords() const;
  int64_t TotalBytes() const;  // native only

 private:
  Heap& heap_;
};

using DatasetPtr = std::shared_ptr<Dataset>;

// A source callback writes record `index` through `out`, field by field in
// declared order (see RecordWriter); the engine opens and closes the record
// around the call. A callback must be a pure function of its index that only
// reads its captured inputs: in kGerenuk, tasks on different workers call it
// concurrently, each with its own writer.
using SourceFn = std::function<void(int64_t index, RecordWriter& out)>;

// Key extraction for shuffles: an IR function T -> i64, or T -> String when
// is_string is set.
struct KeySpec {
  const Function* fn = nullptr;
  bool is_string = false;
};

struct ShuffleKey {
  bool is_string = false;
  int64_t i = 0;
  std::string s;

  bool operator==(const ShuffleKey& o) const {
    return is_string == o.is_string && i == o.i && s == o.s;
  }
  bool operator<(const ShuffleKey& o) const { return is_string ? s < o.s : i < o.i; }

  struct Hash {
    size_t operator()(const ShuffleKey& k) const {
      return k.is_string
                 ? std::hash<std::string>()(k.s)
                 : std::hash<uint64_t>()(static_cast<uint64_t>(k.i) * 0x9e3779b97f4a7c15ULL);
    }
  };
};

// Evaluates `key_fn` on `record` inside `runner` (which must be able to
// execute the function: matching path, self-contained body).
ShuffleKey EvalShuffleKey(SerRunner& runner, const Function* key_fn, Value record,
                          bool is_string);

// Scratch-reusing variant: overwrites `*key` in place instead of building a
// fresh ShuffleKey. Returns true when the reuse avoided a string-buffer
// allocation (the scratch capacity already covered the key's bytes) — the
// engines count these into EngineStats::key_allocs_saved. Integer keys
// involve no allocation and return false.
bool EvalShuffleKeyInto(SerRunner& runner, const Function* key_fn, Value record,
                        bool is_string, ShuffleKey* key);
// The same from a key function's return value `v`.
bool ShuffleKeyInto(SerRunner& runner, Value v, bool is_string, ShuffleKey* key);

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_DATASET_H_
