#include "src/mapreduce/hadoop.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "src/dataflow/native_fold.h"

namespace gerenuk {

namespace {

// One map-side sort-buffer entry: where the serialized/native record lives
// and how it routes.
struct BufferEntry {
  int part;
  ShuffleKey key;
  size_t offset;  // kBaseline: offset into the task's wire buffer
  size_t length;
  int64_t addr;   // kGerenuk: committed record address in the task region
  uint32_t size;
};

bool EntryOrder(const BufferEntry& a, const BufferEntry& b) {
  if (a.part != b.part) {
    return a.part < b.part;
  }
  return a.key < b.key;
}

// One validation gate for the whole config, crossed before any member that
// consumes a knob (the heap, the scheduler) is built.
const HadoopConfig& ValidatedHadoopConfig(const HadoopConfig& config) {
  const std::string error = config.Validate();
  GERENUK_CHECK(error.empty()) << "invalid HadoopConfig: " << error;
  return config;
}

}  // namespace

HadoopEngine::Segment::Segment(int partitions, MemoryTracker* tracker, EngineMode mode) {
  keys.resize(static_cast<size_t>(partitions));
  if (mode == EngineMode::kBaseline) {
    wire.resize(static_cast<size_t>(partitions));
    wire_offsets.resize(static_cast<size_t>(partitions));
  } else {
    native.reserve(static_cast<size_t>(partitions));
    for (int i = 0; i < partitions; ++i) {
      native.emplace_back(tracker);
    }
  }
}

HadoopEngine::HadoopEngine(const HadoopConfig& config)
    : EngineCore(ValidatedHadoopConfig(config).engine),
      num_reducers_(config.num_reducers),
      sort_buffer_bytes_(config.sort_buffer_bytes),
      yak_epochs_(config.yak_epochs) {}

HadoopEngine::~HadoopEngine() = default;

DatasetPtr HadoopEngine::RunJob(const DatasetPtr& input, const SerProgram& udfs,
                                const Function* map_fn, const Klass* out_klass,
                                const KeySpec& key, const Function* reduce_fn,
                                const Function* combiner_fn) {
  const int reducers = num_reducers_;
  StagePrograms map_stage =
      CompileStage(input->klass, udfs, {NarrowOp::FlatMap(map_fn, out_klass)}, nullptr);
  CompiledFunction key_c = CompileFn(udfs, key.fn);
  CompiledFunction reduce_c = CompileFn(udfs, reduce_fn);
  CompiledFunction combine_c;
  if (combiner_fn != nullptr) {
    combine_c = CompileFn(udfs, combiner_fn);
  }

  std::vector<Segment> segments;
  ShuffleKey::Hash hasher;

  // -------------------------------------------------------------------------
  // Map phase (with sort/spill/combine)
  // -------------------------------------------------------------------------
  // One map task per input split: chained jobs feed a previous job's output
  // in, whose partition count is the previous reducer count.
  int map_tasks = mode() == EngineMode::kBaseline ? static_cast<int>(input->heap_parts.size())
                                                  : static_cast<int>(input->native_parts.size());

  bool epochs = yak_epochs_ && mode() == EngineMode::kBaseline;
  const int64_t map_base = ClaimTaskOrdinals(map_tasks);

  if (mode() == EngineMode::kBaseline) {
    TraceSpan map_span(DriverSink(), TraceEventType::kStage, "map");
    scheduler_->RunStageSerial(
        map_tasks,
        [&](WorkerContext& ctx, int task) {
          ctx.stats().map_tasks += 1;
          ctx.stats().tasks_run += 1;
          int64_t shuffle_before = ctx.stats().shuffle_bytes;
          heap_->set_phase_times(&ctx.stats().times);
          if (epochs) {
            heap_->EpochStart();  // Yak: data objects of this task go to a region
          }
          Interpreter interp(*map_stage.original, *heap_, *wk_, &layouts_, nullptr);
          Interpreter key_interp(*key_c.original, *heap_, *wk_, &layouts_, nullptr);
          Interpreter combine_interp(combiner_fn != nullptr ? *combine_c.original
                                                            : *key_c.original,
                                     *heap_, *wk_, &layouts_, nullptr);
          ByteBuffer buffer;
          std::vector<BufferEntry> entries;

          auto spill = [&]() {
            if (entries.empty()) {
              return;
            }
            ctx.stats().spills += 1;
            std::sort(entries.begin(), entries.end(), EntryOrder);
            Segment segment(reducers, &memory_, mode());
            size_t i = 0;
            while (i < entries.size()) {
              size_t j = i + 1;
              while (j < entries.size() && entries[j].part == entries[i].part &&
                     entries[j].key == entries[i].key) {
                ++j;
              }
              int part = entries[i].part;
              ByteBuffer& out = segment.wire[static_cast<size_t>(part)];
              if (combiner_fn != nullptr && j - i > 1) {
                // Combine the run: deserialize, fold, re-serialize (the cost
                // Hadoop pays for map-side combining).
                RootScope scope(*heap_);
                size_t acc = 0;
                for (size_t r = i; r < j; ++r) {
                  ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
                  ByteReader reader(buffer.data() + entries[r].offset, entries[r].length);
                  size_t rec = scope.Push(kryo_.Deserialize(out_klass, reader));
                  if (r == i) {
                    acc = rec;
                  } else {
                    ctx.stats().combine_calls += 1;
                    Value merged = combine_interp.CallFunction(
                        combine_c.orig_fn,
                        {Value::Ref(static_cast<int64_t>(scope.Get(acc))),
                         Value::Ref(static_cast<int64_t>(scope.Get(rec)))});
                    scope.Set(acc, static_cast<ObjRef>(merged.i));
                  }
                }
                ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
                segment.keys[static_cast<size_t>(part)].push_back(entries[i].key);
                segment.wire_offsets[static_cast<size_t>(part)].push_back(out.size());
                kryo_.Serialize(scope.Get(acc), out_klass, out);
              } else {
                for (size_t r = i; r < j; ++r) {
                  segment.keys[static_cast<size_t>(part)].push_back(entries[r].key);
                  segment.wire_offsets[static_cast<size_t>(part)].push_back(out.size());
                  out.WriteBytes(buffer.data() + entries[r].offset, entries[r].length);
                }
              }
              i = j;
            }
            for (const ByteBuffer& out : segment.wire) {
              ctx.stats().shuffle_bytes += static_cast<int64_t>(out.size());
            }
            segments.push_back(std::move(segment));  // serial stage: task order
            buffer.Clear();
            entries.clear();
          };

          size_t cursor = 0;
          const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(task)];
          RecordChannel channel;
          channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
          channel.emit_heap_record = [&](ObjRef ref, const Klass* klass) {
            ShuffleKey k = EvalShuffleKey(key_interp, key_c.orig_fn,
                                          Value::Ref(static_cast<int64_t>(ref)), key.is_string);
            int part = static_cast<int>(hasher(k) % static_cast<size_t>(reducers));
            ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
            size_t offset = buffer.size();
            kryo_.Serialize(ref, klass, buffer);
            entries.push_back({part, std::move(k), offset, buffer.size() - offset, 0, 0});
          };
          interp.set_channel(&channel);
          {
            ComputePhaseScope compute(ctx.stats().times);
            for (cursor = 0; cursor < in_part.size(); ++cursor) {
              interp.CallFunction(map_stage.original->body, {});
              if (buffer.size() > sort_buffer_bytes_) {
                spill();
              }
            }
            spill();
            if (epochs) {
              heap_->EpochEnd();  // Yak's cleanup(): whole-region reclamation
            }
          }
          heap_->set_phase_times(nullptr);
          if (ctx.trace_sink() != nullptr) {
            ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                      ctx.stats().shuffle_bytes - shuffle_before);
          }
        },
        &stats_);
  } else {
    // Gerenuk map phase: native records throughout. Tasks fan out to the
    // worker pool; each task spills into its own segment list (the analogue
    // of per-task map output files), merged in task order at the barrier so
    // the reduce input is identical for every worker count.
    const bool map_speculate = ShouldSpeculateFor(map_stage.signature.hash);
    const int map_aborts_before = stats_.aborts;
    std::vector<std::vector<Segment>> task_segments(static_cast<size_t>(map_tasks));
    // Process-mode wire codec: a map task's output is its ordered segment
    // list — per segment, per reducer partition, the sorted key run
    // ({u8 is_string, i64 i, varlen string}) followed by the partition's
    // native record bytes (self-delimiting trailer). Hadoop's map output
    // stays resident in Segments (the IFile analogue that reducers merge
    // with the key runs alongside the bytes), so it ships whole over the
    // executor channel rather than routing through the spilling ShuffleRun.
    StageCodec map_codec;
    map_codec.encode = [&](int task, ByteBuffer* out) {
      const std::vector<Segment>& list = task_segments[static_cast<size_t>(task)];
      out->WriteU32(static_cast<uint32_t>(list.size()));
      for (const Segment& segment : list) {
        for (int r = 0; r < reducers; ++r) {
          const std::vector<ShuffleKey>& ks = segment.keys[static_cast<size_t>(r)];
          out->WriteU32(static_cast<uint32_t>(ks.size()));
          for (const ShuffleKey& k : ks) {
            out->WriteU8(k.is_string ? 1 : 0);
            out->WriteI64(k.i);
            out->WriteString(k.s);
          }
          segment.native[static_cast<size_t>(r)].SerializeTo(*out);
        }
      }
    };
    map_codec.decode = [&](int task, ByteReader* in) {
      // Fail closed on structural damage: guard every length against the
      // frame's remaining bytes before reading (ByteReader itself aborts on
      // overrun), and reclassify as the non-retryable kCorruptInput.
      auto require = [task](bool ok) {
        if (!ok) {
          throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                          "map segment wire bytes truncated or over-long");
        }
      };
      // ByteReader::ReadString aborts on an over-long varlen; decode the
      // prefix by hand so a damaged length fails closed instead.
      auto read_string = [&require](ByteReader* in) {
        uint32_t len = 0;
        int shift = 0;
        while (true) {
          require(in->remaining() >= 1);
          uint8_t byte = in->ReadU8();
          len |= static_cast<uint32_t>(byte & 0x7f) << shift;
          if ((byte & 0x80) == 0) {
            break;
          }
          shift += 7;
          require(shift <= 28);
        }
        require(len <= in->remaining());
        std::string s(len, '\0');
        if (len > 0) {
          in->ReadBytes(&s[0], len);
        }
        return s;
      };
      std::vector<Segment>& list = task_segments[static_cast<size_t>(task)];
      list.clear();
      try {
        require(in->remaining() >= 4);
        uint32_t num_segments = in->ReadU32();
        for (uint32_t s = 0; s < num_segments; ++s) {
          require(in->remaining() >= 4);  // a segment is at least one key count
          Segment segment(reducers, &memory_, mode());
          for (int r = 0; r < reducers; ++r) {
            require(in->remaining() >= 4);
            uint32_t num_keys = in->ReadU32();
            // Each key is >= 10 bytes (u8 + i64 + 1-byte varlen).
            require(num_keys <= in->remaining() / 10);
            std::vector<ShuffleKey>& ks = segment.keys[static_cast<size_t>(r)];
            ks.resize(num_keys);
            for (uint32_t k = 0; k < num_keys; ++k) {
              require(in->remaining() >= 10);
              ks[k].is_string = in->ReadU8() != 0;
              ks[k].i = in->ReadI64();
              ks[k].s = read_string(in);
            }
            segment.native[static_cast<size_t>(r)] = NativePartition::Parse(*in, &memory_);
          }
          list.push_back(std::move(segment));
        }
      } catch (const WireFormatError& e) {
        throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                        std::string("map segment failed wire parse: ") + e.what());
      }
    };
    TraceSpan map_span(DriverSink(), TraceEventType::kStage, "map");
    RunWorkerStage(
        map_tasks,
        [&](WorkerContext& ctx, int task) {
          ctx.stats().map_tasks += 1;
          ctx.stats().tasks_run += 1;
          int64_t shuffle_before = ctx.stats().shuffle_bytes;
          std::vector<Segment>& local_segments = task_segments[static_cast<size_t>(task)];
          SerExecutor exec(ctx.heap(), ctx.wk(), layouts_, *map_stage.original,
                           *map_stage.transformed);
          auto region = std::make_unique<NativePartition>(&memory_);  // map output region
          std::vector<BufferEntry> entries;
          // Governor-degraded tasks never combine; others stop after an abort.
          bool skip_combiner = !map_speculate;

          auto spill = [&]() {
            if (entries.empty()) {
              return;
            }
            ctx.stats().spills += 1;
            std::sort(entries.begin(), entries.end(), EntryOrder);
            Segment segment(reducers, &memory_, mode());
            BuilderStore builders(layouts_);
            std::unique_ptr<SerRunner> combine_runner = MakeFastRunner(
                combiner_fn != nullptr ? combine_c.plan.get() : key_c.plan.get(),
                combiner_fn != nullptr ? *combine_c.transformed : *key_c.transformed,
                ctx.heap(), ctx.wk(), &layouts_, &builders);
            NativeFolder folder(combine_c.fast_fn, combine_c.acc_fn, out_klass, region.get());
            size_t i = 0;
            while (i < entries.size()) {
              size_t j = i + 1;
              while (j < entries.size() && entries[j].part == entries[i].part &&
                     entries[j].key == entries[i].key) {
                ++j;
              }
              int part = entries[i].part;
              NativePartition& out = segment.native[static_cast<size_t>(part)];
              bool combined = false;
              if (combiner_fn != nullptr && !skip_combiner && j - i > 1) {
                try {
                  // Intermediates land in the map output region, which dies
                  // wholesale after the spill.
                  FoldAcc acc{entries[i].addr, entries[i].size, false};
                  for (size_t r = i + 1; r < j; ++r) {
                    ctx.stats().combine_calls += 1;
                    folder.Fold(*combine_runner, builders, &acc, entries[r].addr);
                  }
                  segment.keys[static_cast<size_t>(part)].push_back(entries[i].key);
                  out.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr), acc.size);
                  combined = true;
                } catch (const SerAbort& abort) {
                  // Not an EngineStats abort: the map output already
                  // committed, and the speculation governor must not see a
                  // failed optimization as one.
                  if (ctx.trace_sink() != nullptr) {
                    ctx.trace_sink()->Instant(TraceEventType::kCombineAbort, "combine_abort",
                                              static_cast<int64_t>(abort.reason));
                  }
                  skip_combiner = true;  // keep correctness, drop the optimization
                }
              }
              if (!combined) {
                for (size_t r = i; r < j; ++r) {
                  segment.keys[static_cast<size_t>(part)].push_back(entries[r].key);
                  out.AppendRecord(reinterpret_cast<const uint8_t*>(entries[r].addr),
                                   entries[r].size);
                }
              }
              i = j;
            }
            for (const NativePartition& out : segment.native) {
              ctx.stats().shuffle_bytes += out.bytes_used();
            }
            local_segments.push_back(std::move(segment));
            // Region-based reclamation: the spilled map outputs die wholesale.
            *region = NativePartition(&memory_);
            entries.clear();
          };

          TaskIo io;
          BindTaskIo(&io, ctx, "map", &input->native_parts[static_cast<size_t>(task)], task,
                     map_base + task);
          io.plan = map_stage.plan.get();
          if (key_c.plan != nullptr) {
            io.extra_plans.push_back(key_c.plan.get());
          }
          // Scratch key: extraction reuses the string buffer; the per-entry
          // copy below is unavoidable (entries own their keys), but the
          // extraction-side allocation is saved once the buffer warms up.
          auto scratch_key = std::make_shared<ShuffleKey>();
          io.emit_native = [&, scratch_key](int64_t addr, const Klass* klass, SerRunner& interp,
                                            BuilderStore& builders) {
            if (EvalShuffleKeyInto(interp, key_c.fast_fn, Value::Addr(addr), key.is_string,
                                   scratch_key.get())) {
              ctx.stats().key_allocs_saved += 1;
            }
            const ShuffleKey& k = *scratch_key;
            int part = static_cast<int>(hasher(k) % static_cast<size_t>(reducers));
            int64_t before = region->bytes_used();
            int64_t committed = builders.Render(addr, klass, *region);
            entries.push_back({part, k, 0, 0, committed,
                               static_cast<uint32_t>(region->bytes_used() - before - 4)});
            if (region->bytes_used() > static_cast<int64_t>(sort_buffer_bytes_)) {
              spill();
            }
          };
          // Slow path after an abort: records come off the heap but stay in
          // native form for the shuffle. The key interpreter is built once
          // per task (lazily), not once per record.
          auto key_interp = std::make_shared<std::unique_ptr<Interpreter>>();
          io.emit_heap = [&, scratch_key, key_interp](ObjRef ref, const Klass* klass,
                                                      SerRunner& interp) {
            if (!*key_interp) {
              *key_interp = std::make_unique<Interpreter>(*key_c.original, ctx.heap(), ctx.wk(),
                                                          &layouts_, nullptr);
            }
            if (EvalShuffleKeyInto(**key_interp, key_c.orig_fn,
                                   Value::Ref(static_cast<int64_t>(ref)), key.is_string,
                                   scratch_key.get())) {
              ctx.stats().key_allocs_saved += 1;
            }
            const ShuffleKey& k = *scratch_key;
            int part = static_cast<int>(hasher(k) % static_cast<size_t>(reducers));
            ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
            ByteBuffer record;
            ctx.serde().WriteRecord(ref, klass, record);
            int64_t committed =
                region->AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
            entries.push_back({part, k, 0, 0, committed,
                               static_cast<uint32_t>(record.size() - 4)});
            if (region->bytes_used() > static_cast<int64_t>(sort_buffer_bytes_)) {
              spill();
            }
          };
          io.on_abort = [&] {
            // Tear down everything this task produced: unspilled entries, the
            // output region, and its already-spilled segments. Sibling tasks'
            // segments live in their own lists and are untouched.
            entries.clear();
            *region = NativePartition(&memory_);
            local_segments.clear();
            skip_combiner = true;
          };
          // A governor-degraded task runs the original program directly; its
          // emits route through the same spill machinery.
          RunTask(exec, io, ctx, map_speculate);
          {
            ComputePhaseScope compute(ctx.stats().times);
            spill();
          }
          if (ctx.trace_sink() != nullptr) {
            ctx.trace_sink()->Counter(TraceEventType::kShuffleBytes, "shuffle_bytes",
                                      ctx.stats().shuffle_bytes - shuffle_before);
          }
        },
        &map_codec);
    if (map_speculate) {
      ObserveSpeculation(map_stage.signature.hash, map_tasks, stats_.aborts - map_aborts_before);
    }
    for (auto& list : task_segments) {
      for (Segment& segment : list) {
        segments.push_back(std::move(segment));
      }
    }
  }

  // -------------------------------------------------------------------------
  // Reduce phase (merge + group + fold)
  // -------------------------------------------------------------------------
  auto out = std::make_shared<Dataset>(*heap_, out_klass, reducers, &memory_);
  ClaimTaskOrdinals(reducers);

  // Gathers one reducer's runs from every segment, sorted by key. Segments
  // are complete and read-only by now (the map-stage barrier), so reduce
  // tasks may build this concurrently.
  struct SegRef {
    const Segment* segment;
    size_t index;
  };
  auto build_refs = [&segments](int r) {
    std::vector<SegRef> refs;
    for (const Segment& segment : segments) {
      for (size_t i = 0; i < segment.keys[static_cast<size_t>(r)].size(); ++i) {
        refs.push_back({&segment, i});
      }
    }
    std::sort(refs.begin(), refs.end(), [r](const SegRef& a, const SegRef& b) {
      return a.segment->keys[static_cast<size_t>(r)][a.index] <
             b.segment->keys[static_cast<size_t>(r)][b.index];
    });
    return refs;
  };
  auto key_at = [](const SegRef& ref, int r) -> const ShuffleKey& {
    return ref.segment->keys[static_cast<size_t>(r)][ref.index];
  };

  if (mode() == EngineMode::kBaseline) {
    TraceSpan reduce_span(DriverSink(), TraceEventType::kStage, "reduce");
    scheduler_->RunStageSerial(
        reducers,
        [&](WorkerContext& ctx, int r) {
          ctx.stats().reduce_tasks += 1;
          ctx.stats().tasks_run += 1;
          heap_->set_phase_times(&ctx.stats().times);
          std::vector<SegRef> refs = build_refs(r);
          Interpreter reduce_interp(*reduce_c.original, *heap_, *wk_, &layouts_, nullptr);
          if (epochs) {
            heap_->EpochStart();
          }
          {
            ComputePhaseScope compute(ctx.stats().times);
            std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(r)];
            size_t i = 0;
            while (i < refs.size()) {
              size_t j = i + 1;
              while (j < refs.size() && key_at(refs[j], r) == key_at(refs[i], r)) {
                ++j;
              }
              RootScope scope(*heap_);
              size_t acc = 0;
              for (size_t v = i; v < j; ++v) {
                const Segment& seg = *refs[v].segment;
                size_t idx = refs[v].index;
                ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
                const ByteBuffer& wire = seg.wire[static_cast<size_t>(r)];
                size_t off = seg.wire_offsets[static_cast<size_t>(r)][idx];
                ByteReader reader(wire.data() + off, wire.size() - off);
                size_t rec = scope.Push(kryo_.Deserialize(out_klass, reader));
                if (v == i) {
                  acc = rec;
                } else {
                  Value merged = reduce_interp.CallFunction(
                      reduce_c.orig_fn, {Value::Ref(static_cast<int64_t>(scope.Get(acc))),
                                         Value::Ref(static_cast<int64_t>(scope.Get(rec)))});
                  scope.Set(acc, static_cast<ObjRef>(merged.i));
                }
              }
              // Final output write ("HDFS"): the baseline serializes once more.
              {
                ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
                ByteBuffer sink;
                kryo_.Serialize(scope.Get(acc), out_klass, sink);
              }
              out_part.push_back(scope.Get(acc));
              i = j;
            }
            if (epochs) {
              heap_->EpochEnd();  // output records escape via out_part's roots
            }
          }
          heap_->set_phase_times(nullptr);
        },
        &stats_);
    return out;
  }

  // Gerenuk reduce: one task per reducer, fanned out to the worker pool.
  const bool reduce_speculate = ShouldSpeculateFor(reduce_c.signature.hash);
  const int reduce_aborts_before = stats_.aborts;
  // Process-mode wire codec: a reduce task commits one sealed output
  // partition; its shuffle-wire bytes (seal included) ship back whole.
  const StageCodec reduce_codec = PartitionVectorCodec(&out->native_parts);
  TraceSpan reduce_span(DriverSink(), TraceEventType::kStage, "reduce");
  RunWorkerStage(
      reducers,
      [&](WorkerContext& ctx, int r) {
        ctx.stats().reduce_tasks += 1;
        ctx.stats().tasks_run += 1;
        ctx.heap().set_phase_times(&ctx.stats().times);
        std::vector<SegRef> refs = build_refs(r);
        NativePartition& out_part = out->native_parts[static_cast<size_t>(r)];
        BuilderStore builders(layouts_);
        std::unique_ptr<SerRunner> reduce_runner = MakeFastRunner(
            reduce_c.plan.get(), *reduce_c.transformed, ctx.heap(), ctx.wk(), &layouts_,
            &builders);
        NativePartition scratch(&memory_);
        NativeFolder folder(reduce_c.fast_fn, reduce_c.acc_fn, out_klass, &scratch);
        Interpreter slow_interp(*reduce_c.original, ctx.heap(), ctx.wk(), &layouts_, nullptr);
        ComputePhaseScope compute(ctx.stats().times);
        // Fold runs sit inside fast_path spans, closed around each aborted
        // group's slow_path span so the two never overlap.
        TraceSink* sink = ctx.trace_sink();
        int64_t fast_start = (reduce_speculate && sink != nullptr) ? sink->Now() : -1;
        size_t i = 0;
        while (i < refs.size()) {
          size_t j = i + 1;
          while (j < refs.size() && key_at(refs[j], r) == key_at(refs[i], r)) {
            ++j;
          }
          auto addr_of = [r](const SegRef& ref) {
            return ref.segment->native[static_cast<size_t>(r)].record_addr(ref.index);
          };
          auto size_of = [r](const SegRef& ref) {
            return ref.segment->native[static_cast<size_t>(r)].record_size(ref.index);
          };
          bool fast_ok = reduce_speculate;
          if (reduce_speculate) try {
            FoldAcc acc{addr_of(refs[i]), size_of(refs[i]), false};
            for (size_t v = i + 1; v < j; ++v) {
              folder.Fold(*reduce_runner, builders, &acc, addr_of(refs[v]));
            }
            out_part.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr), acc.size);
          } catch (const SerAbort& abort) {
            // Re-execute this group on the slow path, inside the same worker.
            if (sink != nullptr) {
              sink->Instant(TraceEventType::kAbort, "abort", static_cast<int64_t>(abort.reason));
              sink->Span(TraceEventType::kFastPath, "fast_path", fast_start);
            }
            ctx.stats().aborts += 1;
            fast_ok = false;
          }
          if (!fast_ok) {
            TraceSpan slow_span(sink, TraceEventType::kSlowPath, "slow_path",
                                reduce_speculate ? 0 : 1);
            builders.Clear();
            RootScope scope(ctx.heap());
            size_t acc = 0;
            for (size_t v = i; v < j; ++v) {
              ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
              ByteReader reader(reinterpret_cast<const uint8_t*>(addr_of(refs[v])),
                                size_of(refs[v]));
              size_t rec = scope.Push(ctx.serde().ReadBody(out_klass, reader));
              if (v == i) {
                acc = rec;
              } else {
                Value merged = slow_interp.CallFunction(
                    reduce_c.orig_fn, {Value::Ref(static_cast<int64_t>(scope.Get(acc))),
                                       Value::Ref(static_cast<int64_t>(scope.Get(rec)))});
                scope.Set(acc, static_cast<ObjRef>(merged.i));
              }
            }
            ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
            ByteBuffer record;
            ctx.serde().WriteRecord(scope.Get(acc), out_klass, record);
            out_part.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
          }
          if (!fast_ok && reduce_speculate && sink != nullptr) {
            fast_start = sink->Now();  // the next group's fold run
          }
          i = j;
        }
        if (reduce_speculate && sink != nullptr) {
          sink->Span(TraceEventType::kFastPath, "fast_path", fast_start);
        }
        if (!reduce_speculate) {
          ctx.stats().slow_path_direct += 1;
        }
        out_part.Seal();
        ctx.heap().set_phase_times(nullptr);
      },
      &reduce_codec);
  if (reduce_speculate) {
    ObserveSpeculation(reduce_c.signature.hash, reducers, stats_.aborts - reduce_aborts_before);
  }
  return out;
}

}  // namespace gerenuk
