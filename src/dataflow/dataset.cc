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

DatasetPtr MakeSourceDataset(Heap& heap, WellKnown& wk, TaskScheduler& scheduler,
                             MemoryTracker* tracker, TraceSink* driver_sink, EngineMode mode,
                             const Klass* klass, int num_partitions, int64_t count,
                             const SourceFn& make) {
  auto dataset = std::make_shared<Dataset>(heap, klass, num_partitions, tracker);
  if (mode == EngineMode::kBaseline) {
    for (int64_t i = 0; i < count; ++i) {
      RootScope roots(heap);
      SourceScope scope{heap, wk, roots};
      ObjRef rec = make(i, scope);
      dataset->heap_parts[static_cast<size_t>(i % num_partitions)].push_back(rec);
    }
    for (NativePartition& part : dataset->native_parts) {
      part.Seal();
    }
    return dataset;
  }
  EngineStats ingest_stats;  // not merged: ingest is input generation, not job work
  TraceSpan stage_span(driver_sink, TraceEventType::kStage, "source");
  scheduler.RunStage(
      num_partitions,
      [&](WorkerContext& ctx, int p) {
        NativePartition& part = dataset->native_parts[static_cast<size_t>(p)];
        try {
          RootScope roots(ctx.heap());
          SourceScope scope{ctx.heap(), ctx.wk(), roots};
          ByteBuffer record;
          for (int64_t i = p; i < count; i += num_partitions) {
            record.Clear();
            ctx.serde().WriteRecord(make(i, scope), klass, record);
            roots.Clear();
            part.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
          }
          // Committed data carries an integrity seal from the moment it
          // exists (DESIGN.md "Fault model & recovery").
          part.Seal();
        } catch (...) {
          part.Release();
          throw;
        }
        // Every object the task built is dead now. Collecting here keeps
        // each worker heap from carrying an eden of ingest garbage (and its
        // tracked bytes) through the rest of the job.
        ctx.heap().CollectNow();
      },
      &ingest_stats);
  return dataset;
}

ShuffleKey EvalShuffleKey(SerRunner& runner, const Function* key_fn, Value record,
                          bool is_string) {
  ShuffleKey key;
  EvalShuffleKeyInto(runner, key_fn, record, is_string, &key);
  return key;
}

bool EvalShuffleKeyInto(SerRunner& runner, const Function* key_fn, Value record,
                        bool is_string, ShuffleKey* key) {
  key->is_string = is_string;
  Value v = runner.CallFunction(key_fn, &record, 1);
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
