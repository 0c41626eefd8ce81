#include "src/dataflow/spark.h"

#include <memory>
#include <string>

#include "src/analysis/ser_analyzer.h"
#include "src/dataflow/key_index.h"
#include "src/dataflow/native_fold.h"
#include "src/ir/builder.h"
#include "src/runtime/roots.h"
#include "src/shuffle/shuffle_service.h"
#include "src/transform/transformer.h"

namespace gerenuk {

namespace {

// Process-mode wire codec for shuffle-map stages (the bucket-row analogue of
// EngineCore::PartitionVectorCodec): task `t` commits one sealed partition per
// reduce bucket into `(*buckets)[t]`, concatenated on the wire in bucket
// order (each partition's trailer delimits it).
StageCodec BucketRowCodec(std::vector<std::vector<NativePartition>>* buckets,
                          MemoryTracker* memory) {
  StageCodec codec;
  codec.encode = [buckets](int task, ByteBuffer* out) {
    for (NativePartition& bucket : (*buckets)[static_cast<size_t>(task)]) {
      bucket.SerializeTo(*out);
    }
  };
  codec.decode = [buckets, memory](int task, ByteReader* in) {
    std::vector<NativePartition>& row = (*buckets)[static_cast<size_t>(task)];
    try {
      for (size_t b = 0; b < row.size(); ++b) {
        row[b] = NativePartition::Parse(*in, memory);
      }
    } catch (const WireFormatError& e) {
      throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                      std::string("executor shuffle output failed wire parse: ") + e.what());
    }
  };
  return codec;
}

// Task-local lazy broadcast materialization for the slow path: the broadcast
// lives as native bytes (shareable across workers) and as an object in the
// *engine* heap — which a worker-heap interpreter must not touch. The first
// slow-path record deserializes the bytes into the executing worker's heap
// and roots the result for the rest of the task; every record then re-reads
// the root slot, since a worker-heap GC may have moved the object.
class TaskBroadcast {
 public:
  TaskBroadcast(WorkerContext& ctx, const BroadcastVar* bc) : ctx_(ctx), bc_(bc) {}
  ~TaskBroadcast() {
    if (rooted_) {
      ctx_.heap().RemoveRootSlot(&ref_);
    }
  }
  TaskBroadcast(const TaskBroadcast&) = delete;
  TaskBroadcast& operator=(const TaskBroadcast&) = delete;

  void Bind(TaskIo* io) {
    if (bc_ == nullptr) {
      return;
    }
    io->fast_args.push_back(Value::Addr(bc_->native.record_addr(0)));
    io->slow_args.push_back(Value::None());  // placeholder; filled per record
    io->refresh_slow_args = [this](std::vector<Value>& args) {
      if (!rooted_) {
        ScopedPhase phase(ctx_.stats().times, Phase::kDeserialize);
        ByteReader reader(reinterpret_cast<const uint8_t*>(bc_->native.record_addr(0)),
                          bc_->native.record_size(0));
        ref_ = ctx_.serde().ReadBody(bc_->klass, reader);
        ctx_.heap().AddRootSlot(&ref_);
        rooted_ = true;
      }
      args[0] = Value::Ref(static_cast<int64_t>(ref_));
    };
  }

 private:
  WorkerContext& ctx_;
  const BroadcastVar* bc_;
  ObjRef ref_ = kNullRef;
  bool rooted_ = false;
};

using FoldTables = std::vector<std::unique_ptr<KeyedNativeFold>>;

// The map task's side of a composed stage's kFoldSlot statements: one keyed
// table per reduce bucket, picked by the key's hash exactly as a rendered
// record's bucket would be. The hash is computed once per statement and
// handed to the table's index.
class BucketFolds : public EmitFold {
 public:
  BucketFolds(const FoldTables* tables, const Klass* klass, bool key_is_string,
              EngineStats* stats)
      : tables_(tables), klass_(klass), key_is_string_(key_is_string), stats_(stats) {}

  int64_t Slot(FoldSlotMode mode, int64_t record, Value key, SerRunner& runner,
               BuilderStore& builders) override {
    if (ShuffleKeyInto(runner, key, key_is_string_, &key_)) {
      stats_->key_allocs_saved += 1;
    }
    const size_t hash = ShuffleKey::Hash()(key_);
    KeyedNativeFold& table = *(*tables_)[hash % tables_->size()];
    switch (mode) {
      case FoldSlotMode::kLookup:
        return table.Slot(builders, key_, hash, record, klass_);
      case FoldSlotMode::kStage:
        return table.Stage(builders, record, klass_);
      case FoldSlotMode::kReduce:
        table.Reduce(runner, builders, key_, hash, record);
        return 0;
      case FoldSlotMode::kProbe:
        return table.Probe(key_, hash);
    }
    return 0;
  }

 private:
  const FoldTables* tables_;
  const Klass* klass_;
  bool key_is_string_;
  EngineStats* stats_;
  ShuffleKey key_;  // scratch: the string buffer survives across records
};

// The heap bodies of the keyed stages, shared by baseline mode's reduce and
// join tasks and by Gerenuk mode's slow path for the same buckets. They run
// the original key and reduce/combine functions on the interpreter over heap
// objects. `for_each(visit)` calls visit(rec) for every input record in
// arrival order; each output record leaves through emit(ref), in order.

// ReduceByKey: one record per key, in first-seen key order, folding the
// key's records with the reduce function in arrival order.
template <typename ForEach, typename Emit>
void HeapReduceByKey(Heap& heap, const WellKnown& wk, const DataStructAnalyzer& layouts,
                     PhaseTimes& times, const CompiledFunction& key_c, bool key_is_string,
                     const CompiledFunction& reduce_c, const ForEach& for_each,
                     const Emit& emit) {
  Interpreter reduce_interp(*reduce_c.original, heap, wk, &layouts, nullptr);
  Interpreter key_interp(*key_c.original, heap, wk, &layouts, nullptr);
  ComputePhaseScope compute(times);
  KeyIndex agg;  // group id: the key's slot in `values`
  std::vector<ObjRef> values;
  heap.AddRootVector(&values);
  for_each([&](ObjRef rec) {
    RootScope scope(heap);
    const size_t rec_slot = scope.Push(rec);
    const ShuffleKey k = EvalShuffleKey(key_interp, key_c.orig_fn,
                                        Value::Ref(static_cast<int64_t>(rec)), key_is_string);
    bool first = false;
    const uint32_t slot = agg.Insert(k, ShuffleKey::Hash()(k), &first);
    if (first) {
      values.push_back(scope.Get(rec_slot));
    } else {
      Value merged = reduce_interp.CallFunction(
          reduce_c.orig_fn, {Value::Ref(static_cast<int64_t>(values[slot])),
                             Value::Ref(static_cast<int64_t>(scope.Get(rec_slot)))});
      values[slot] = static_cast<ObjRef>(merged.i);
    }
  });
  for (ObjRef ref : values) {
    emit(ref);
  }
  heap.RemoveRootVector(&values);
}

// JoinByKey (inner): for every right record, in arrival order, the combine
// of each left record with its key, in the left side's arrival order.
template <typename ForEachLeft, typename ForEachRight, typename Emit>
void HeapJoin(Heap& heap, const WellKnown& wk, const DataStructAnalyzer& layouts,
              PhaseTimes& times, const CompiledFunction& lkey, bool lkey_is_string,
              const CompiledFunction& rkey, bool rkey_is_string,
              const CompiledFunction& combine, const ForEachLeft& for_each_left,
              const ForEachRight& for_each_right, const Emit& emit) {
  Interpreter key_interp_l(*lkey.original, heap, wk, &layouts, nullptr);
  Interpreter key_interp_r(*rkey.original, heap, wk, &layouts, nullptr);
  Interpreter combine_interp(*combine.original, heap, wk, &layouts, nullptr);
  ComputePhaseScope compute(times);
  KeyIndex index;
  std::vector<std::vector<uint32_t>> rows_of;  // per group: its rows in `lvalues`
  std::vector<ObjRef> lvalues;
  heap.AddRootVector(&lvalues);
  for_each_left([&](ObjRef rec) {
    lvalues.push_back(rec);
    const ShuffleKey k = EvalShuffleKey(key_interp_l, lkey.orig_fn,
                                        Value::Ref(static_cast<int64_t>(rec)), lkey_is_string);
    bool first = false;
    const uint32_t group = index.Insert(k, ShuffleKey::Hash()(k), &first);
    if (first) {
      rows_of.emplace_back();
    }
    rows_of[group].push_back(static_cast<uint32_t>(lvalues.size() - 1));
  });
  for_each_right([&](ObjRef rec) {
    RootScope scope(heap);
    const size_t rec_slot = scope.Push(rec);
    const ShuffleKey k = EvalShuffleKey(key_interp_r, rkey.orig_fn,
                                        Value::Ref(static_cast<int64_t>(rec)), rkey_is_string);
    const uint32_t group = index.Find(k, ShuffleKey::Hash()(k));
    if (group == KeyIndex::kNotFound) {
      return;
    }
    for (uint32_t row : rows_of[group]) {
      Value combined = combine_interp.CallFunction(
          combine.orig_fn, {Value::Ref(static_cast<int64_t>(lvalues[row])),
                            Value::Ref(static_cast<int64_t>(scope.Get(rec_slot)))});
      emit(static_cast<ObjRef>(combined.i));
    }
  });
  heap.RemoveRootVector(&lvalues);
}

// Baseline mode's input to a heap body: partition `p` of every map task's
// serialized buckets, deserialized into the engine heap.
template <typename Visit>
void ForEachBaselineRecord(HeapSerializer& kryo, const Klass* klass,
                           const std::vector<std::vector<ByteBuffer>>& buckets,
                           const std::vector<std::vector<int64_t>>& counts, int p,
                           PhaseTimes& times, const Visit& visit) {
  for (size_t task = 0; task < buckets.size(); ++task) {
    ByteReader reader(buckets[task][static_cast<size_t>(p)].bytes());
    for (int64_t r = 0; r < counts[task][static_cast<size_t>(p)]; ++r) {
      ObjRef rec;
      {
        ScopedPhase phase(times, Phase::kDeserialize);
        rec = kryo.Deserialize(klass, reader);
      }
      visit(rec);
    }
  }
}

// Gerenuk mode's slow path over bucket `p` of a shuffle run: each record
// read into the worker heap.
template <typename Visit>
void ForEachBucketRecord(WorkerContext& ctx, const ShuffleRun& run, int p, const Klass* klass,
                         const Visit& visit) {
  run.ForEachRecordInBucket(p, &ctx.stats(), ctx.trace_sink(), [&](int64_t addr, uint32_t size) {
    ObjRef rec;
    {
      ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
      ByteReader reader(reinterpret_cast<const uint8_t*>(addr), size);
      rec = ctx.serde().ReadBody(klass, reader);
    }
    visit(rec);
  });
}

// The slow path's output: `ref` rendered as a native record of `out`.
void AppendHeapRecord(WorkerContext& ctx, ObjRef ref, const Klass* klass, NativePartition& out) {
  ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
  ByteBuffer body;
  ctx.serde().WriteRecord(ref, klass, body);
  out.AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
}

// One Gerenuk-mode reduce or join task over bucket output `out`: `fast` when
// the stage speculates; on its abort, or when the governor has turned
// speculation off, the fast path's output is released and `slow` (a heap
// body) rebuilds it. Sibling tasks keep running either way.
template <typename Fast, typename Slow>
void RunBucketTask(WorkerContext& ctx, bool speculate, NativePartition& out, const Fast& fast,
                   const Slow& slow) {
  ctx.stats().tasks_run += 1;
  ctx.heap().set_phase_times(&ctx.stats().times);
  TraceSink* sink = ctx.trace_sink();
  bool fast_ok = speculate;
  const int64_t fast_start = (speculate && sink != nullptr) ? sink->Now() : 0;
  if (speculate) try {
    fast();
    ctx.stats().fast_path_commits += 1;
    if (sink != nullptr) {
      sink->Span(TraceEventType::kFastPath, "fast_path", fast_start);
    }
  } catch (const SerAbort& abort) {
    // Instant first, span second: the abort timestamp nests inside the
    // fast-path span, matching the SerExecutor emission order.
    if (sink != nullptr) {
      sink->Instant(TraceEventType::kAbort, "abort", static_cast<int64_t>(abort.reason));
      sink->Span(TraceEventType::kFastPath, "fast_path", fast_start);
    }
    fast_ok = false;
  }
  if (!fast_ok) {
    TraceSpan slow_span(sink, TraceEventType::kSlowPath, "slow_path", speculate ? 0 : 1);
    if (speculate) {
      ctx.stats().aborts += 1;
      out.Release();
    } else {
      ctx.stats().slow_path_direct += 1;
    }
    slow();
  }
  out.Seal();
  ctx.heap().set_phase_times(nullptr);
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

SparkEngine::SparkEngine(const EngineConfig& config)
    : EngineCore(config), inline_serde_(*heap_) {}

SparkEngine::~SparkEngine() = default;

BroadcastVar SparkEngine::MakeBroadcast(ObjRef obj, const Klass* klass) {
  BroadcastVar bc;
  bc.klass = klass;
  bc.heap = obj;  // the caller keeps `obj` rooted while the broadcast lives
  ByteBuffer record;
  inline_serde_.WriteRecord(obj, klass, record);
  bc.native = NativePartition(&memory_);
  bc.native.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
  return bc;
}

// ---------------------------------------------------------------------------
// Narrow stages
// ---------------------------------------------------------------------------

DatasetPtr SparkEngine::RunStage(const DatasetPtr& input, const SerProgram& udfs,
                                 const std::vector<NarrowOp>& ops,
                                 const BroadcastVar* broadcast) {
  CompiledStage stage =
      CompileStage(input->klass, udfs, ops, broadcast != nullptr ? broadcast->klass : nullptr);
  return mode() == EngineMode::kBaseline ? RunNarrowBaseline(input, stage, broadcast)
                                         : RunNarrowGerenuk(input, stage, broadcast);
}

DatasetPtr SparkEngine::RunNarrowBaseline(const DatasetPtr& input, const CompiledStage& stage,
                                          const BroadcastVar* broadcast) {
  int parts = config_.execution.num_partitions;
  auto out = std::make_shared<Dataset>(*heap_, stage.out_klass, parts, &memory_);
  ClaimTaskOrdinals(parts);
  std::vector<Value> args;
  if (broadcast != nullptr) {
    args.push_back(Value::Ref(static_cast<int64_t>(broadcast->heap)));
  }
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "narrow");
  scheduler_->RunStageSerial(
      parts,
      [&](WorkerContext& ctx, int p) {
        ctx.stats().tasks_run += 1;
        heap_->set_phase_times(&ctx.stats().times);
        Interpreter interp(*stage.original, *heap_, *wk_, &layouts_, nullptr);
        size_t cursor = 0;
        const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(p)];
        std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(p)];
        RecordChannel channel;
        channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
        channel.emit_heap_record = [&out_part](ObjRef ref, const Klass*) {
          out_part.push_back(ref);
        };
        interp.set_channel(&channel);
        {
          ComputePhaseScope compute(ctx.stats().times);
          for (cursor = 0; cursor < in_part.size(); ++cursor) {
            interp.CallFunction(stage.original->body, args);
          }
        }
        heap_->set_phase_times(nullptr);
      },
      &stats_);
  return out;
}

DatasetPtr SparkEngine::RunNarrowGerenuk(const DatasetPtr& input, const CompiledStage& stage,
                                         const BroadcastVar* broadcast) {
  int parts = config_.execution.num_partitions;
  auto out = std::make_shared<Dataset>(*heap_, stage.out_klass, parts, &memory_);
  const int64_t base = ClaimTaskOrdinals(parts);
  const bool speculate = ShouldSpeculateFor(stage.signature.hash);
  const int aborts_before = stats_.aborts;
  const StageCodec codec = PartitionVectorCodec(&out->native_parts);
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "narrow");
  RunWorkerStage(
      parts,
      [&](WorkerContext& ctx, int p) {
        ctx.stats().tasks_run += 1;
        SerExecutor exec(ctx.heap(), ctx.wk(), layouts_, *stage.original, *stage.transformed);
        NativePartition& out_part = out->native_parts[static_cast<size_t>(p)];
        TaskIo io;
        BindTaskIo(&io, ctx, "narrow", &input->native_parts[static_cast<size_t>(p)], p, base + p);
        TaskBroadcast bc(ctx, broadcast);
        bc.Bind(&io);
        io.plan = stage.plan.get();
        io.emit_native = [&out_part](int64_t addr, const Klass* klass, SerRunner&,
                                     BuilderStore& builders) {
          builders.Render(addr, klass, out_part);
        };
        io.emit_heap = [&ctx, &out_part](ObjRef ref, const Klass* klass, SerRunner&) {
          TraceSpan ser_span(ctx.trace_sink(), TraceEventType::kSerialize, "serialize");
          ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
          ByteBuffer body;
          ctx.serde().WriteRecord(ref, klass, body);
          out_part.AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
        };
        io.on_abort = [&out_part] { out_part.Release(); };
        RunTask(exec, io, ctx, speculate);
        out_part.Seal();
      },
      &codec);
  if (speculate) {
    ObserveSpeculation(stage.signature.hash, parts, stats_.aborts - aborts_before);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shuffles
// ---------------------------------------------------------------------------

void SparkEngine::ShuffleBaseline(const DatasetPtr& input, const CompiledStage& stage,
                                  const KeySpec& key, const CompiledFn& key_fn,
                                  const BroadcastVar* broadcast,
                                  std::vector<std::vector<ByteBuffer>>* buckets,
                                  std::vector<std::vector<int64_t>>* bucket_counts) {
  int parts = config_.execution.num_partitions;
  buckets->clear();
  bucket_counts->clear();
  for (int p = 0; p < parts; ++p) {
    buckets->emplace_back(static_cast<size_t>(parts));
    bucket_counts->emplace_back(static_cast<size_t>(parts), 0);
  }
  ClaimTaskOrdinals(parts);
  std::vector<Value> args;
  if (broadcast != nullptr) {
    args.push_back(Value::Ref(static_cast<int64_t>(broadcast->heap)));
  }
  ShuffleKeyHash hasher;
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "shuffle");
  scheduler_->RunStageSerial(
      parts,
      [&](WorkerContext& ctx, int p) {
        ctx.stats().tasks_run += 1;
        int64_t shuffle_before = ctx.stats().shuffle_bytes;
        heap_->set_phase_times(&ctx.stats().times);
        std::vector<ByteBuffer>& task_buckets = (*buckets)[static_cast<size_t>(p)];
        std::vector<int64_t>& task_counts = (*bucket_counts)[static_cast<size_t>(p)];
        Interpreter interp(*stage.original, *heap_, *wk_, &layouts_, nullptr);
        Interpreter key_interp(*key_fn.original, *heap_, *wk_, &layouts_, nullptr);
        size_t cursor = 0;
        const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(p)];
        RecordChannel channel;
        channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
        channel.emit_heap_record = [this, &ctx, &key_interp, &key_fn, &key, &task_buckets,
                                    &task_counts, &hasher](ObjRef ref, const Klass* klass) {
          ShuffleKeyValue k = EvalShuffleKey(key_interp, key_fn.orig_fn,
                                             Value::Ref(static_cast<int64_t>(ref)), key.is_string);
          size_t b = hasher(k) % task_buckets.size();
          ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
          size_t before = task_buckets[b].size();
          kryo_.Serialize(ref, klass, task_buckets[b]);
          ctx.stats().shuffle_bytes += static_cast<int64_t>(task_buckets[b].size() - before);
          task_counts[b] += 1;
        };
        interp.set_channel(&channel);
        {
          ComputePhaseScope compute(ctx.stats().times);
          for (cursor = 0; cursor < in_part.size(); ++cursor) {
            interp.CallFunction(stage.original->body, args);
          }
        }
        heap_->set_phase_times(nullptr);
        if (ctx.trace_sink() != nullptr) {
          ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                    ctx.stats().shuffle_bytes - shuffle_before);
        }
      },
      &stats_);
}

void SparkEngine::ShuffleGerenuk(const DatasetPtr& input, const CompiledStage& stage,
                                 const KeySpec& key, const CompiledFn& key_fn,
                                 const BroadcastVar* broadcast, const CompiledFn* combine_fn,
                                 std::vector<std::vector<NativePartition>>* buckets) {
  int parts = config_.execution.num_partitions;
  // Per-map-task, per-bucket outputs — the analogue of map output files, so
  // an aborted task discards only its own contribution. All slots are
  // constructed here, before the fan-out, so tasks never mutate the vectors.
  buckets->clear();
  for (int p = 0; p < parts; ++p) {
    std::vector<NativePartition>& task_buckets = buckets->emplace_back();
    task_buckets.reserve(static_cast<size_t>(parts));
    for (int i = 0; i < parts; ++i) {
      task_buckets.emplace_back(&memory_);
    }
  }
  const int64_t base = ClaimTaskOrdinals(parts);
  const bool speculate = ShouldSpeculateFor(stage.signature.hash);
  // Governor-degraded tasks never fold. A reduce with an accumulate form
  // folds at the emit sites the stage composed; any other reduce combines
  // the committed buckets.
  const bool fold_at_emit = speculate && stage.folds_at_emit;
  const int aborts_before = stats_.aborts;
  ShuffleKeyHash hasher;
  const StageCodec codec = BucketRowCodec(buckets, &memory_);
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "shuffle");
  RunWorkerStage(
      parts,
      [&](WorkerContext& ctx, int p) {
        ctx.stats().tasks_run += 1;
        int64_t shuffle_before = ctx.stats().shuffle_bytes;
        std::vector<NativePartition>& task_buckets = (*buckets)[static_cast<size_t>(p)];
        SerExecutor exec(ctx.heap(), ctx.wk(), layouts_, *stage.original, *stage.transformed);
        TaskIo io;
        BindTaskIo(&io, ctx, "shuffle", &input->native_parts[static_cast<size_t>(p)], p,
                   base + p);
        TaskBroadcast bc(ctx, broadcast);
        bc.Bind(&io);
        io.plan = stage.plan.get();
        // Emit-site fold: one keyed table per bucket. The fast path folds
        // into them from the composed body's kFoldSlot statements, so a
        // record is never rendered into its bucket and read back; slow-path
        // emits fold through their own fold runner.
        FoldTables tables;
        BuilderStore slow_builders(layouts_);
        std::unique_ptr<SerRunner> slow_runner;
        BucketFolds folds(&tables, stage.out_klass, key.is_string, &ctx.stats());
        if (fold_at_emit) {
          for (size_t b = 0; b < task_buckets.size(); ++b) {
            tables.push_back(std::make_unique<KeyedNativeFold>(
                combine_fn->fast_fn, combine_fn->acc_fn, stage.out_klass, &memory_));
          }
          io.fold = &folds;
          io.extra_plans.push_back(combine_fn->plan.get());  // the declined-fold reduce
        } else {
          io.extra_plans.push_back(key_fn.plan.get());
        }
        // Per-task scratch key: the string buffer survives across records,
        // so steady-state extractions allocate nothing.
        auto scratch = std::make_shared<ShuffleKeyValue>();
        io.emit_native = [&ctx, &key_fn, &key, &task_buckets, &hasher, scratch](
                             int64_t addr, const Klass* klass, SerRunner& runner,
                             BuilderStore& builders) {
          // Key extraction runs the transformed key function directly over
          // the emitted record (committed bytes or builder).
          if (EvalShuffleKeyInto(runner, key_fn.fast_fn, Value::Addr(addr), key.is_string,
                                 scratch.get())) {
            ctx.stats().key_allocs_saved += 1;
          }
          size_t b = hasher(*scratch) % task_buckets.size();
          int64_t before = task_buckets[b].bytes_used();
          builders.Render(addr, klass, task_buckets[b]);
          ctx.stats().shuffle_bytes += task_buckets[b].bytes_used() - before;
        };
        io.emit_heap = [&](ObjRef ref, const Klass* klass, SerRunner& runner) {
          if (EvalShuffleKeyInto(runner, key_fn.orig_fn, Value::Ref(static_cast<int64_t>(ref)),
                                 key.is_string, scratch.get())) {
            ctx.stats().key_allocs_saved += 1;
          }
          const ShuffleKeyValue& k = *scratch;
          const size_t hash = hasher(k);
          const size_t b = hash % task_buckets.size();
          TraceSpan ser_span(ctx.trace_sink(), TraceEventType::kSerialize, "serialize");
          ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
          ByteBuffer body;
          ctx.serde().WriteRecord(ref, klass, body);
          if (!tables.empty()) {
            if (slow_runner == nullptr) {
              slow_runner = MakeFastRunner(combine_fn->plan.get(), *combine_fn->transformed,
                                           ctx.heap(), ctx.wk(), &layouts_, &slow_builders);
            }
            tables[b]->AddEmitted(*slow_runner, slow_builders, k, hash,
                                  reinterpret_cast<int64_t>(body.data() + 4), klass);
            return;
          }
          task_buckets[b].AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
          ctx.stats().shuffle_bytes += static_cast<int64_t>(body.size());
        };
        io.on_abort = [&task_buckets, &tables] {
          for (NativePartition& bucket : task_buckets) {
            bucket.Release();
          }
          for (const std::unique_ptr<KeyedNativeFold>& table : tables) {
            table->Clear();
          }
        };
        RunTask(exec, io, ctx, speculate);
        for (size_t b = 0; b < tables.size(); ++b) {
          tables[b]->EmitTo(task_buckets[b]);
          ctx.stats().combine_calls += tables[b]->folds();
          ctx.stats().shuffle_bytes += task_buckets[b].bytes_used();
        }
        if (speculate && combine_fn != nullptr && !fold_at_emit) {
          CombineMapOutput(ctx, key, key_fn, *combine_fn, stage.out_klass, &task_buckets);
        }
        for (NativePartition& bucket : task_buckets) {
          bucket.Seal();
        }
        if (ctx.trace_sink() != nullptr) {
          ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                    ctx.stats().shuffle_bytes - shuffle_before);
        }
      },
      &codec);
  if (speculate) {
    ObserveSpeculation(stage.signature.hash, parts, stats_.aborts - aborts_before);
  }
}

// Map-side combine for a reduce with no accumulate form: folds each
// committed bucket by key with the compiled reduce function, in emit order,
// leaving one record per key in first-seen key order. A bucket is replaced
// only once its fold finished, so an abort leaves it — and, to keep the rule
// simple, every later bucket — exactly as the map task committed it; the
// reduce stage folds whatever arrives.
void SparkEngine::CombineMapOutput(WorkerContext& ctx, const KeySpec& key,
                                   const CompiledFn& key_fn, const CompiledFn& reduce_fn,
                                   const Klass* rec_klass,
                                   std::vector<NativePartition>* buckets) {
  TraceSink* sink = ctx.trace_sink();
  TraceSpan span(sink, TraceEventType::kCombine, "combine");
  ComputePhaseScope compute(ctx.stats().times);
  BuilderStore builders(layouts_);
  std::unique_ptr<SerRunner> runner =
      MakeFastRunner(reduce_fn.plan.get(), *reduce_fn.transformed, ctx.heap(), ctx.wk(),
                     &layouts_, &builders, {key_fn.plan.get()});
  ShuffleKeyValue scratch;
  for (NativePartition& bucket : *buckets) {
    KeyedNativeFold fold(reduce_fn.fast_fn, nullptr, rec_klass, &memory_);
    try {
      for (size_t r = 0; r < bucket.record_count(); ++r) {
        const int64_t addr = bucket.record_addr(r);
        if (EvalShuffleKeyInto(*runner, key_fn.fast_fn, Value::Addr(addr), key.is_string,
                               &scratch)) {
          ctx.stats().key_allocs_saved += 1;
        }
        fold.Add(*runner, builders, scratch, ShuffleKeyHash()(scratch), addr,
                 bucket.record_size(r));
      }
    } catch (const SerAbort& abort) {
      // Not an EngineStats abort: the map output already committed, and the
      // speculation governor must not see a failed optimization as one.
      if (sink != nullptr) {
        sink->Instant(TraceEventType::kCombineAbort, "combine_abort",
                      static_cast<int64_t>(abort.reason));
      }
      return;
    }
    if (fold.folds() == 0) {
      continue;  // every key distinct: the bucket is already its own combine
    }
    NativePartition combined(&memory_);
    fold.EmitTo(combined);
    ctx.stats().combine_calls += fold.folds();
    ctx.stats().shuffle_bytes += combined.bytes_used() - bucket.bytes_used();
    bucket = std::move(combined);
  }
}

// ---------------------------------------------------------------------------
// ReduceByKey
// ---------------------------------------------------------------------------

DatasetPtr SparkEngine::ReduceByKey(const DatasetPtr& input, const SerProgram& udfs,
                                    const std::vector<NarrowOp>& pre_ops, const KeySpec& key,
                                    const Function* reduce_fn, const BroadcastVar* broadcast) {
  CompiledFn key_c = CompileFn(udfs, key.fn);
  CompiledFn reduce_c = CompileFn(udfs, reduce_fn);
  const EmitFoldSpec fold{&key_c, &reduce_c};
  CompiledStage stage = CompileStage(input->klass, udfs, pre_ops,
                                     broadcast != nullptr ? broadcast->klass : nullptr, &fold);
  const Klass* rec_klass = stage.out_klass;
  auto out = std::make_shared<Dataset>(*heap_, rec_klass, config_.execution.num_partitions, &memory_);

  if (config_.execution.mode == EngineMode::kBaseline) {
    std::vector<std::vector<ByteBuffer>> buckets;
    std::vector<std::vector<int64_t>> counts;
    ShuffleBaseline(input, stage, key, key_c, broadcast, &buckets, &counts);

    ClaimTaskOrdinals(config_.execution.num_partitions);
    TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "reduce");
    scheduler_->RunStageSerial(
        config_.execution.num_partitions,
        [&](WorkerContext& ctx, int p) {
          ctx.stats().tasks_run += 1;
          heap_->set_phase_times(&ctx.stats().times);
          std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(p)];
          HeapReduceByKey(
              *heap_, *wk_, layouts_, ctx.stats().times, key_c, key.is_string, reduce_c,
              [&](const auto& visit) {
                ForEachBaselineRecord(kryo_, rec_klass, buckets, counts, p, ctx.stats().times,
                                      visit);
              },
              [&](ObjRef ref) { out_part.push_back(ref); });
          heap_->set_phase_times(nullptr);
        },
        &stats_);
    return out;
  }

  // Gerenuk mode: map tasks pre-fold their output by key (baseline mode,
  // the oracle, ships every record).
  std::vector<std::vector<NativePartition>> buckets;
  ShuffleGerenuk(input, stage, key, key_c, broadcast, &reduce_c, &buckets);

  // Hand the map outputs to the shuffle service at the barrier, in
  // task-major order (the determinism contract for spill decisions).
  // Resident unless the spill threshold says otherwise; reduce tasks fetch
  // spilled blocks on demand under the credit gate. The run is built before
  // the reduce stage submits, so process-mode executor children inherit the
  // resident blocks and the spill-file descriptor through fork.
  ShuffleRun shuffle(config_.execution.num_partitions, config_.execution.num_partitions, shuffle_config());
  for (int t = 0; t < config_.execution.num_partitions; ++t) {
    for (int b = 0; b < config_.execution.num_partitions; ++b) {
      shuffle.Add(t, b, std::move(buckets[static_cast<size_t>(t)][static_cast<size_t>(b)]),
                  &stats_, DriverSink());
    }
  }

  ClaimTaskOrdinals(config_.execution.num_partitions);
  const bool speculate = ShouldSpeculateFor(reduce_c.signature.hash);
  const int aborts_before = stats_.aborts;
  const StageCodec codec = PartitionVectorCodec(&out->native_parts);
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "reduce");
  RunWorkerStage(
      config_.execution.num_partitions,
      [&](WorkerContext& ctx, int p) {
        NativePartition& out_part = out->native_parts[static_cast<size_t>(p)];
        auto fast = [&] {
          BuilderStore builders(layouts_);
          std::unique_ptr<SerRunner> reduce_runner = MakeFastRunner(
              reduce_c.plan.get(), *reduce_c.transformed, ctx.heap(), ctx.wk(), &layouts_,
              &builders, {key_c.plan.get()});
          ComputePhaseScope compute(ctx.stats().times);
          KeyedNativeFold fold(reduce_c.fast_fn, reduce_c.acc_fn, rec_klass, &memory_);
          ShuffleKeyValue scratch;
          // Unfolded keys still point into the bucket's fetched blocks, so
          // the bucket stays open until they are emitted.
          const BucketReader bucket = shuffle.OpenBucket(p, &ctx.stats(), ctx.trace_sink());
          bucket.ForEachRecord([&](int64_t addr, uint32_t size) {
            if (EvalShuffleKeyInto(*reduce_runner, key_c.fast_fn, Value::Addr(addr),
                                   key.is_string, &scratch)) {
              ctx.stats().key_allocs_saved += 1;
            }
            fold.Add(*reduce_runner, builders, scratch, ShuffleKeyHash()(scratch), addr, size);
          });
          fold.EmitTo(out_part);
        };
        auto slow = [&] {
          HeapReduceByKey(
              ctx.heap(), ctx.wk(), layouts_, ctx.stats().times, key_c, key.is_string, reduce_c,
              [&](const auto& visit) { ForEachBucketRecord(ctx, shuffle, p, rec_klass, visit); },
              [&](ObjRef ref) { AppendHeapRecord(ctx, ref, rec_klass, out_part); });
        };
        RunBucketTask(ctx, speculate, out_part, fast, slow);
      },
      &codec);
  if (speculate) {
    ObserveSpeculation(reduce_c.signature.hash, config_.execution.num_partitions,
                       stats_.aborts - aborts_before);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JoinByKey
// ---------------------------------------------------------------------------

DatasetPtr SparkEngine::JoinByKey(const DatasetPtr& left, const KeySpec& left_key,
                                  const DatasetPtr& right, const KeySpec& right_key,
                                  const SerProgram& udfs, const Function* combine_fn,
                                  const Klass* out_klass) {
  CompiledStage left_stage = CompileStage(left->klass, udfs, {}, nullptr);
  CompiledStage right_stage = CompileStage(right->klass, udfs, {}, nullptr);
  CompiledFn lkey = CompileFn(udfs, left_key.fn);
  CompiledFn rkey = CompileFn(udfs, right_key.fn);
  CompiledFn combine = CompileFn(udfs, combine_fn);
  auto out = std::make_shared<Dataset>(*heap_, out_klass, config_.execution.num_partitions, &memory_);

  if (config_.execution.mode == EngineMode::kBaseline) {
    std::vector<std::vector<ByteBuffer>> lb;
    std::vector<std::vector<ByteBuffer>> rb;
    std::vector<std::vector<int64_t>> lc;
    std::vector<std::vector<int64_t>> rc;
    ShuffleBaseline(left, left_stage, left_key, lkey, nullptr, &lb, &lc);
    ShuffleBaseline(right, right_stage, right_key, rkey, nullptr, &rb, &rc);

    ClaimTaskOrdinals(config_.execution.num_partitions);
    TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "join");
    scheduler_->RunStageSerial(
        config_.execution.num_partitions,
        [&](WorkerContext& ctx, int p) {
          ctx.stats().tasks_run += 1;
          heap_->set_phase_times(&ctx.stats().times);
          std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(p)];
          HeapJoin(
              *heap_, *wk_, layouts_, ctx.stats().times, lkey, left_key.is_string, rkey,
              right_key.is_string, combine,
              [&](const auto& visit) {
                ForEachBaselineRecord(kryo_, left->klass, lb, lc, p, ctx.stats().times, visit);
              },
              [&](const auto& visit) {
                ForEachBaselineRecord(kryo_, right->klass, rb, rc, p, ctx.stats().times, visit);
              },
              [&](ObjRef ref) { out_part.push_back(ref); });
          heap_->set_phase_times(nullptr);
        },
        &stats_);
    return out;
  }

  // Gerenuk mode.
  std::vector<std::vector<NativePartition>> lb;
  std::vector<std::vector<NativePartition>> rb;
  ShuffleGerenuk(left, left_stage, left_key, lkey, nullptr, nullptr, &lb);
  ShuffleGerenuk(right, right_stage, right_key, rkey, nullptr, nullptr, &rb);

  // Both sides go through the shuffle service. The build (left) side is
  // held open for the whole probe — its record addresses back the hash
  // table — which is exactly the hold-and-wait shape the credit gate's
  // grace timeout exists for.
  ShuffleRun lrun(config_.execution.num_partitions, config_.execution.num_partitions, shuffle_config());
  ShuffleRun rrun(config_.execution.num_partitions, config_.execution.num_partitions, shuffle_config());
  for (int t = 0; t < config_.execution.num_partitions; ++t) {
    for (int b = 0; b < config_.execution.num_partitions; ++b) {
      lrun.Add(t, b, std::move(lb[static_cast<size_t>(t)][static_cast<size_t>(b)]), &stats_,
               DriverSink());
      rrun.Add(t, b, std::move(rb[static_cast<size_t>(t)][static_cast<size_t>(b)]), &stats_,
               DriverSink());
    }
  }

  ClaimTaskOrdinals(config_.execution.num_partitions);
  const bool speculate = ShouldSpeculateFor(combine.signature.hash);
  const int aborts_before = stats_.aborts;
  const StageCodec codec = PartitionVectorCodec(&out->native_parts);
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "join");
  RunWorkerStage(
      config_.execution.num_partitions,
      [&](WorkerContext& ctx, int p) {
        NativePartition& out_part = out->native_parts[static_cast<size_t>(p)];
        auto fast = [&] {
          BuilderStore builders(layouts_);
          std::unique_ptr<SerRunner> runner =
              MakeFastRunner(combine.plan.get(), *combine.transformed, ctx.heap(), ctx.wk(),
                             &layouts_, &builders, {lkey.plan.get(), rkey.plan.get()});
          SerRunner& interp = *runner;
          ComputePhaseScope compute(ctx.stats().times);
          // The build side by key. Each key's records chain in arrival order:
          // chain[group] holds the group's first and last row, and rows[r] a
          // record and the next row of its group (kNotFound after the last).
          KeyIndex index;
          std::vector<std::pair<int64_t, uint32_t>> rows;
          std::vector<std::pair<uint32_t, uint32_t>> chain;
          ShuffleKeyValue scratch_key;
          BucketReader build_side = lrun.OpenBucket(p, &ctx.stats(), ctx.trace_sink());
          build_side.ForEachRecord([&](int64_t addr, uint32_t /*size*/) {
            if (EvalShuffleKeyInto(interp, lkey.fast_fn, Value::Addr(addr), left_key.is_string,
                                   &scratch_key)) {
              ctx.stats().key_allocs_saved += 1;
            }
            const uint32_t row = static_cast<uint32_t>(rows.size());
            rows.emplace_back(addr, KeyIndex::kNotFound);
            bool first = false;
            const uint32_t group = index.Insert(scratch_key, ShuffleKeyHash()(scratch_key), &first);
            if (first) {
              chain.emplace_back(row, row);
            } else {
              rows[chain[group].second].second = row;
              chain[group].second = row;
            }
          });
          rrun.ForEachRecordInBucket(
              p, &ctx.stats(), ctx.trace_sink(), [&](int64_t addr, uint32_t /*size*/) {
                if (EvalShuffleKeyInto(interp, rkey.fast_fn, Value::Addr(addr),
                                       right_key.is_string, &scratch_key)) {
                  ctx.stats().key_allocs_saved += 1;
                }
                const uint32_t group = index.Find(scratch_key, ShuffleKeyHash()(scratch_key));
                if (group == KeyIndex::kNotFound) {
                  return;
                }
                for (uint32_t r = chain[group].first; r != KeyIndex::kNotFound; r = rows[r].second) {
                  Value combined = interp.CallFunction(
                      combine.fast_fn, {Value::Addr(rows[r].first), Value::Addr(addr)});
                  builders.Render(combined.i, out_klass, out_part);
                  builders.Clear();
                }
              });
        };
        auto slow = [&] {
          HeapJoin(
              ctx.heap(), ctx.wk(), layouts_, ctx.stats().times, lkey, left_key.is_string, rkey,
              right_key.is_string, combine,
              [&](const auto& visit) { ForEachBucketRecord(ctx, lrun, p, left->klass, visit); },
              [&](const auto& visit) { ForEachBucketRecord(ctx, rrun, p, right->klass, visit); },
              [&](ObjRef ref) { AppendHeapRecord(ctx, ref, out_klass, out_part); });
        };
        RunBucketTask(ctx, speculate, out_part, fast, slow);
      },
      &codec);
  if (speculate) {
    ObserveSpeculation(combine.signature.hash, config_.execution.num_partitions,
                       stats_.aborts - aborts_before);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driver-side materialization
// ---------------------------------------------------------------------------

std::vector<size_t> SparkEngine::CollectToHeap(const DatasetPtr& dataset, RootScope& scope) {
  std::vector<size_t> slots;
  if (config_.execution.mode == EngineMode::kBaseline) {
    for (const auto& part : dataset->heap_parts) {
      for (ObjRef ref : part) {
        slots.push_back(scope.Push(ref));
      }
    }
    return slots;
  }
  for (const auto& part : dataset->native_parts) {
    for (size_t r = 0; r < part.record_count(); ++r) {
      ByteReader reader(reinterpret_cast<const uint8_t*>(part.record_addr(r)),
                        part.record_size(r));
      slots.push_back(scope.Push(inline_serde_.ReadBody(dataset->klass, reader)));
    }
  }
  return slots;
}

}  // namespace gerenuk
