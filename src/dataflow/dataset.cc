#include "src/dataflow/dataset.h"

namespace gerenuk {

Dataset::Dataset(Heap& heap, const Klass* klass_in, int num_partitions, MemoryTracker* tracker)
    : klass(klass_in), heap_(heap) {
  heap_parts.resize(static_cast<size_t>(num_partitions));
  for (auto& part : heap_parts) {
    heap_.AddRootVector(&part);
  }
  native_parts.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    native_parts.emplace_back(tracker);
  }
}

Dataset::~Dataset() {
  for (auto& part : heap_parts) {
    heap_.RemoveRootVector(&part);
  }
}

int64_t Dataset::TotalRecords() const {
  int64_t total = 0;
  for (const auto& part : heap_parts) {
    total += static_cast<int64_t>(part.size());
  }
  for (const auto& part : native_parts) {
    total += static_cast<int64_t>(part.record_count());
  }
  return total;
}

int64_t Dataset::TotalBytes() const {
  int64_t total = 0;
  for (const auto& part : native_parts) {
    total += part.bytes_used();
  }
  return total;
}

ShuffleKey EvalShuffleKey(SerRunner& runner, const Function* key_fn, Value record,
                          bool is_string) {
  ShuffleKey key;
  EvalShuffleKeyInto(runner, key_fn, record, is_string, &key);
  return key;
}

bool EvalShuffleKeyInto(SerRunner& runner, const Function* key_fn, Value record,
                        bool is_string, ShuffleKey* key) {
  return ShuffleKeyInto(runner, runner.CallFunction(key_fn, &record, 1), is_string, key);
}

bool ShuffleKeyInto(SerRunner& runner, Value v, bool is_string, ShuffleKey* key) {
  key->is_string = is_string;
  if (is_string) {
    size_t capacity_before = key->s.capacity();
    runner.ReadStringBytes(v, &key->s);
    return key->s.capacity() == capacity_before;
  }
  key->s.clear();
  key->i = v.tag == ValueTag::kF64 ? static_cast<int64_t>(v.d) : v.i;
  return false;
}

}  // namespace gerenuk
