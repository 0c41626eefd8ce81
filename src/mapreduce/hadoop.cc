#include "src/mapreduce/hadoop.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "src/dataflow/key_index.h"
#include "src/dataflow/native_fold.h"
#include "src/support/fnv.h"

namespace gerenuk {

namespace {

// One map task's sort buffer. An emit joins its key's group through the key
// index, with the hash that picks its reducer partition, so an entry carries
// a group id instead of a key copy and a spill sorts the distinct
// (partition, key) groups only.
class SortBuffer {
 public:
  struct Entry {
    uint32_t group;
    uint32_t size;
    int64_t at;  // kBaseline: offset into the task's wire buffer; kGerenuk: record address
  };

  void Add(const ShuffleKey& key, int reducers, int64_t at, uint32_t size) {
    const size_t hash = ShuffleKey::Hash()(key);
    bool inserted = false;
    const uint32_t group = index_.Insert(key, hash, &inserted);
    if (inserted) {
      groups_.push_back({static_cast<int>(hash % static_cast<size_t>(reducers)), 0});
    }
    groups_[group].count += 1;
    entries_.push_back({group, size, at});
  }

  bool empty() const { return entries_.empty(); }

  // Spills into `segment`: calls write(part, first, last) once per group in
  // (partition, key) order, with [first, last) the group's entries in emit
  // order, and records the key's run with the record count `write` returns.
  // Then empties the buffer.
  template <typename WriteFn>
  void Drain(MapSegment* segment, WriteFn&& write) {
    order_.resize(groups_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
      const int x = groups_[a].part;
      const int y = groups_[b].part;
      return x != y ? x < y : index_.key(a) < index_.key(b);
    });
    // One counting pass: each entry goes to its group's next free slot, so
    // next_[g] ends at group g's end.
    next_.resize(groups_.size());
    uint32_t at = 0;
    for (uint32_t g : order_) {
      next_[g] = at;
      at += groups_[g].count;
    }
    placed_.resize(entries_.size());
    for (const Entry& e : entries_) {
      placed_[next_[e.group]++] = e;
    }
    for (uint32_t g : order_) {
      Group& group = groups_[g];
      const Entry* last = placed_.data() + next_[g];
      uint32_t count = write(group.part, last - group.count, last);
      segment->runs[static_cast<size_t>(group.part)].push_back({std::move(index_.key(g)), count});
    }
    Clear();
  }

  void Clear() {
    index_.Clear();
    groups_.clear();
    entries_.clear();
  }

 private:
  struct Group {
    int part;
    uint32_t count;
  };

  KeyIndex index_;
  std::vector<Group> groups_;    // by group id
  std::vector<Entry> entries_;   // emit order
  std::vector<uint32_t> order_;  // group ids in (partition, key) order
  std::vector<uint32_t> next_;
  std::vector<Entry> placed_;    // entries grouped in order_
};

// One run of a merged key: `count` records of `segment`'s partition from
// record `first` on.
struct RunSource {
  size_t segment;
  size_t first;
  uint32_t count;
};

// Merges reducer partition `r`'s key runs across `segments`: calls
// fold(sources) once per distinct key in key order, with the key's runs in
// segment order (map task, then spill). Segments are complete and read-only
// by now (the map-stage barrier), so reduce tasks merge concurrently.
template <typename FoldFn>
void MergeRuns(const std::vector<MapSegment>& segments, int r, FoldFn&& fold) {
  struct Cursor {
    size_t segment;
    size_t run;
    size_t record;
  };
  auto key_of = [&](const Cursor& c) -> const ShuffleKey& {
    return segments[c.segment].runs[static_cast<size_t>(r)][c.run].key;
  };
  // Heap order: the smallest key on top, and the earliest segment among equals.
  auto later = [&](const Cursor& a, const Cursor& b) {
    return key_of(b) < key_of(a) || (!(key_of(a) < key_of(b)) && a.segment > b.segment);
  };
  std::vector<Cursor> heap;
  for (size_t s = 0; s < segments.size(); ++s) {
    if (!segments[s].runs[static_cast<size_t>(r)].empty()) {
      heap.push_back({s, 0, 0});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<RunSource> sources;
  while (!heap.empty()) {
    const ShuffleKey& key = key_of(heap.front());
    sources.clear();
    do {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor& c = heap.back();
      const std::vector<MapSegment::Run>& runs = segments[c.segment].runs[static_cast<size_t>(r)];
      sources.push_back({c.segment, c.record, runs[c.run].count});
      c.record += runs[c.run].count;
      if (++c.run < runs.size()) {
        std::push_heap(heap.begin(), heap.end(), later);
      } else {
        heap.pop_back();
      }
    } while (!heap.empty() && key_of(heap.front()) == key);
    fold(sources);
  }
}

// Calls f(segment, record, first) for each record of a merged key, run by run.
template <typename Fn>
void ForEachRecord(const std::vector<RunSource>& sources, Fn&& f) {
  bool first = true;
  for (const RunSource& src : sources) {
    for (size_t i = src.first; i < src.first + src.count; ++i) {
      f(src.segment, i, first);
      first = false;
    }
  }
}

// A pairwise fold of heap records through an interpreted reduce, rooted in
// its own scope: the baseline combiner and reducer, and Gerenuk's slow path.
class HeapFold {
 public:
  HeapFold(Heap& heap, Interpreter& interp, const Function* fn)
      : scope_(heap), interp_(interp), fn_(fn) {}

  // Slot 0 holds the accumulator; each later record folds into it.
  void Add(ObjRef rec) {
    if (scope_.Push(rec) == 0) {
      return;
    }
    Value merged = interp_.CallFunction(fn_, {Value::Ref(static_cast<int64_t>(scope_.Get(0))),
                                              Value::Ref(static_cast<int64_t>(scope_.Get(1)))});
    scope_.Set(0, static_cast<ObjRef>(merged.i));
    scope_.Pop();
  }
  ObjRef result() const { return scope_.Get(0); }

 private:
  RootScope scope_;
  Interpreter& interp_;
  const Function* fn_;
};

// One validation gate for the whole config, crossed before any member that
// consumes a knob (the heap, the scheduler) is built.
const HadoopConfig& ValidatedHadoopConfig(const HadoopConfig& config) {
  const std::string error = config.Validate();
  GERENUK_CHECK(error.empty()) << "invalid HadoopConfig: " << error;
  return config;
}

}  // namespace

MapSegment::MapSegment(int partitions, MemoryTracker* tracker, EngineMode mode)
    : runs(static_cast<size_t>(partitions)) {
  if (mode == EngineMode::kBaseline) {
    wire.resize(static_cast<size_t>(partitions));
    return;
  }
  for (int i = 0; i < partitions; ++i) {
    native.emplace_back(tracker);
  }
}

void EncodeMapSegments(const std::vector<MapSegment>& segments, ByteBuffer* out) {
  const size_t start = out->size();
  out->WriteU32(static_cast<uint32_t>(segments.size()));
  for (const MapSegment& segment : segments) {
    for (size_t r = 0; r < segment.runs.size(); ++r) {
      out->WriteU32(static_cast<uint32_t>(segment.runs[r].size()));
      for (const MapSegment::Run& run : segment.runs[r]) {
        out->WriteU8(run.key.is_string ? 1 : 0);
        out->WriteI64(run.key.i);
        out->WriteU32(static_cast<uint32_t>(run.key.s.size()));
        out->WriteBytes(reinterpret_cast<const uint8_t*>(run.key.s.data()), run.key.s.size());
        out->WriteU32(run.count);
      }
      segment.native[r].SerializeTo(*out);
    }
  }
  SealHash hash;
  hash.Update(out->data() + start, out->size() - start);
  out->WriteU64(hash.digest());
}

std::vector<MapSegment> DecodeMapSegments(ByteReader* in, int partitions, int task,
                                          MemoryTracker* tracker) {
  // Every length is guarded against the remaining bytes before it is read
  // (ByteReader itself aborts on overrun); the trailing hash then catches
  // damage that still parses.
  auto require = [task](bool ok, const char* what) {
    if (!ok) {
      throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                      std::string("map segment wire bytes ") + what);
    }
  };
  require(in->remaining() >= 8, "truncated before the checksum");
  std::vector<uint8_t> frame(in->remaining());
  in->ReadBytes(frame.data(), frame.size());
  ByteReader body(frame.data(), frame.size() - 8);
  std::vector<MapSegment> segments;
  try {
    require(body.remaining() >= 4, "truncated before the segment count");
    // Counts are not trusted up front: each item read is guarded, so an
    // over-large count runs out of bytes instead of allocating.
    const uint32_t num_segments = body.ReadU32();
    for (uint32_t n = 0; n < num_segments; ++n) {
      MapSegment& segment = segments.emplace_back(partitions, tracker, EngineMode::kGerenuk);
      for (size_t r = 0; r < static_cast<size_t>(partitions); ++r) {
        require(body.remaining() >= 4, "truncated before a run count");
        const uint32_t num_runs = body.ReadU32();
        uint64_t records = 0;
        for (uint32_t k = 0; k < num_runs; ++k) {
          ShuffleKey key;
          require(body.remaining() >= 13, "truncated in a key");
          key.is_string = body.ReadU8() != 0;
          key.i = body.ReadI64();
          const uint32_t len = body.ReadU32();
          require(body.remaining() >= uint64_t{len} + 4, "truncated in a key");
          key.s.resize(len);
          body.ReadBytes(key.s.data(), len);
          const uint32_t count = body.ReadU32();
          std::vector<MapSegment::Run>& runs = segment.runs[r];
          require(count > 0 && (runs.empty() || runs.back().key < key),
                  "hold an empty or out-of-order run");
          records += count;
          runs.push_back({std::move(key), count});
        }
        segment.native[r] = NativePartition::Parse(body, tracker);
        require(records == segment.native[r].record_count(),
                "disagree with their partition's record count");
      }
    }
    require(body.AtEnd(), "run past the last segment");
  } catch (const WireFormatError& e) {
    throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                    std::string("map segment failed wire parse: ") + e.what());
  }
  SealHash hash;
  hash.Update(frame.data(), frame.size() - 8);
  ByteReader trailer(frame.data() + frame.size() - 8, 8);
  require(hash.digest() == trailer.ReadU64(), "fail their checksum");
  return segments;
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

  // Every spill's segment, in map task order and then spill order.
  std::vector<MapSegment> segments;

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
          SortBuffer sort_buffer;

          auto spill = [&]() {
            if (sort_buffer.empty()) {
              return;
            }
            ctx.stats().spills += 1;
            MapSegment segment(reducers, &memory_, mode());
            sort_buffer.Drain(&segment, [&](int part, const SortBuffer::Entry* first,
                                             const SortBuffer::Entry* last) -> uint32_t {
              ByteBuffer& out = segment.wire[static_cast<size_t>(part)];
              if (combiner_fn != nullptr && last - first > 1) {
                // Combine the run: deserialize, fold, re-serialize (the cost
                // Hadoop pays for map-side combining).
                HeapFold fold(*heap_, combine_interp, combine_c.orig_fn);
                for (const SortBuffer::Entry* e = first; e < last; ++e) {
                  ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
                  ByteReader reader(buffer.data() + e->at, e->size);
                  fold.Add(kryo_.Deserialize(out_klass, reader));
                }
                ctx.stats().combine_calls += last - first - 1;
                ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
                kryo_.Serialize(fold.result(), out_klass, out);
                return 1;
              }
              for (const SortBuffer::Entry* e = first; e < last; ++e) {
                out.WriteBytes(buffer.data() + e->at, e->size);
              }
              return static_cast<uint32_t>(last - first);
            });
            for (const ByteBuffer& out : segment.wire) {
              ctx.stats().shuffle_bytes += static_cast<int64_t>(out.size());
            }
            segments.push_back(std::move(segment));  // serial stage: task order
            buffer.Clear();
          };

          size_t cursor = 0;
          const std::vector<ObjRef>& in_part = input->heap_parts[static_cast<size_t>(task)];
          RecordChannel channel;
          channel.next_heap_record = [&in_part, &cursor]() { return in_part[cursor]; };
          channel.emit_heap_record = [&](ObjRef ref, const Klass* klass) {
            ShuffleKey k = EvalShuffleKey(key_interp, key_c.orig_fn,
                                          Value::Ref(static_cast<int64_t>(ref)), key.is_string);
            ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
            size_t offset = buffer.size();
            kryo_.Serialize(ref, klass, buffer);
            sort_buffer.Add(k, reducers, static_cast<int64_t>(offset),
                            static_cast<uint32_t>(buffer.size() - offset));
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
    std::vector<std::vector<MapSegment>> task_segments(static_cast<size_t>(map_tasks));
    // Process mode ships a map task's segment list whole over the executor
    // channel: Hadoop's map output stays resident in segments (the IFile
    // analogue reducers merge) rather than routing through the spilling
    // ShuffleRun.
    StageCodec map_codec;
    map_codec.encode = [&](int task, ByteBuffer* out) {
      EncodeMapSegments(task_segments[static_cast<size_t>(task)], out);
    };
    map_codec.decode = [&](int task, ByteReader* in) {
      task_segments[static_cast<size_t>(task)].clear();  // nothing partial on a throw
      task_segments[static_cast<size_t>(task)] = DecodeMapSegments(in, reducers, task, &memory_);
    };
    TraceSpan map_span(DriverSink(), TraceEventType::kStage, "map");
    RunWorkerStage(
        map_tasks,
        [&](WorkerContext& ctx, int task) {
          ctx.stats().map_tasks += 1;
          ctx.stats().tasks_run += 1;
          int64_t shuffle_before = ctx.stats().shuffle_bytes;
          std::vector<MapSegment>& local_segments = task_segments[static_cast<size_t>(task)];
          SerExecutor exec(ctx.heap(), ctx.wk(), layouts_, *map_stage.original,
                           *map_stage.transformed);
          auto region = std::make_unique<NativePartition>(&memory_);  // map output region
          SortBuffer sort_buffer;
          // Governor-degraded tasks never combine; others stop after an abort.
          bool skip_combiner = !map_speculate;

          auto spill = [&]() {
            if (sort_buffer.empty()) {
              return;
            }
            ctx.stats().spills += 1;
            MapSegment segment(reducers, &memory_, mode());
            BuilderStore builders(layouts_);
            std::unique_ptr<SerRunner> combine_runner = MakeFastRunner(
                combiner_fn != nullptr ? combine_c.plan.get() : key_c.plan.get(),
                combiner_fn != nullptr ? *combine_c.transformed : *key_c.transformed,
                ctx.heap(), ctx.wk(), &layouts_, &builders);
            NativeFolder folder(combine_c.fast_fn, combine_c.acc_fn, out_klass, region.get());
            sort_buffer.Drain(&segment, [&](int part, const SortBuffer::Entry* first,
                                             const SortBuffer::Entry* last) -> uint32_t {
              NativePartition& out = segment.native[static_cast<size_t>(part)];
              if (combiner_fn != nullptr && !skip_combiner && last - first > 1) {
                try {
                  // Intermediates land in the map output region, which dies
                  // wholesale after the spill.
                  FoldAcc acc{first->at, first->size, false};
                  for (const SortBuffer::Entry* e = first + 1; e < last; ++e) {
                    ctx.stats().combine_calls += 1;
                    folder.Fold(*combine_runner, builders, &acc, e->at);
                  }
                  out.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr), acc.size);
                  return 1;
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
              for (const SortBuffer::Entry* e = first; e < last; ++e) {
                out.AppendRecord(reinterpret_cast<const uint8_t*>(e->at), e->size);
              }
              return static_cast<uint32_t>(last - first);
            });
            for (const NativePartition& out : segment.native) {
              ctx.stats().shuffle_bytes += out.bytes_used();
            }
            local_segments.push_back(std::move(segment));
            // Region-based reclamation: the spilled map outputs die wholesale.
            *region = NativePartition(&memory_);
          };

          TaskIo io;
          BindTaskIo(&io, ctx, "map", &input->native_parts[static_cast<size_t>(task)], task,
                     map_base + task);
          io.plan = map_stage.plan.get();
          io.extra_plans.push_back(key_c.plan.get());
          // Scratch key: extraction reuses the string buffer, and the sort
          // buffer copies a key only the first time a spill sees it.
          auto scratch_key = std::make_shared<ShuffleKey>();
          auto add = [&](int64_t committed, uint32_t size) {
            sort_buffer.Add(*scratch_key, reducers, committed, size);
            if (region->bytes_used() > static_cast<int64_t>(sort_buffer_bytes_)) {
              spill();
            }
          };
          io.emit_native = [&, scratch_key](int64_t addr, const Klass* klass, SerRunner& interp,
                                            BuilderStore& builders) {
            if (EvalShuffleKeyInto(interp, key_c.fast_fn, Value::Addr(addr), key.is_string,
                                   scratch_key.get())) {
              ctx.stats().key_allocs_saved += 1;
            }
            int64_t before = region->bytes_used();
            int64_t committed = builders.Render(addr, klass, *region);
            add(committed, static_cast<uint32_t>(region->bytes_used() - before - 4));
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
            ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
            ByteBuffer record;
            ctx.serde().WriteRecord(ref, klass, record);
            const uint32_t size = static_cast<uint32_t>(record.size() - 4);
            add(region->AppendRecord(record.data() + 4, size), size);
          };
          io.on_abort = [&] {
            // Tear down everything this task produced: unspilled entries, the
            // output region, and its already-spilled segments. Sibling tasks'
            // segments live in their own lists and are untouched.
            sort_buffer.Clear();
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
      for (MapSegment& segment : list) {
        segments.push_back(std::move(segment));
      }
    }
  }

  // -------------------------------------------------------------------------
  // Reduce phase (merge runs + fold)
  // -------------------------------------------------------------------------
  auto out = std::make_shared<Dataset>(*heap_, out_klass, reducers, &memory_);
  ClaimTaskOrdinals(reducers);

  if (mode() == EngineMode::kBaseline) {
    TraceSpan reduce_span(DriverSink(), TraceEventType::kStage, "reduce");
    scheduler_->RunStageSerial(
        reducers,
        [&](WorkerContext& ctx, int r) {
          ctx.stats().reduce_tasks += 1;
          ctx.stats().tasks_run += 1;
          heap_->set_phase_times(&ctx.stats().times);
          // The merge visits each segment's runs in order, so every segment
          // is read front to back.
          std::vector<ByteReader> readers;
          for (const MapSegment& segment : segments) {
            const ByteBuffer& wire = segment.wire[static_cast<size_t>(r)];
            readers.emplace_back(wire.data(), wire.size());
          }
          Interpreter reduce_interp(*reduce_c.original, *heap_, *wk_, &layouts_, nullptr);
          if (epochs) {
            heap_->EpochStart();
          }
          {
            ComputePhaseScope compute(ctx.stats().times);
            std::vector<ObjRef>& out_part = out->heap_parts[static_cast<size_t>(r)];
            MergeRuns(segments, r, [&](const std::vector<RunSource>& sources) {
              HeapFold fold(*heap_, reduce_interp, reduce_c.orig_fn);
              ForEachRecord(sources, [&](size_t s, size_t, bool) {
                ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
                fold.Add(kryo_.Deserialize(out_klass, readers[s]));
              });
              // Final output write ("HDFS"): the baseline serializes once more.
              {
                ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
                ByteBuffer sink;
                kryo_.Serialize(fold.result(), out_klass, sink);
              }
              out_part.push_back(fold.result());
            });
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
        auto input_of = [&](size_t s) -> const NativePartition& {
          return segments[s].native[static_cast<size_t>(r)];
        };
        MergeRuns(segments, r, [&](const std::vector<RunSource>& sources) {
          bool fast_ok = reduce_speculate;
          if (reduce_speculate) try {
            FoldAcc acc;
            ForEachRecord(sources, [&](size_t s, size_t i, bool first) {
              if (first) {
                acc = {input_of(s).record_addr(i), input_of(s).record_size(i), false};
              } else {
                folder.Fold(*reduce_runner, builders, &acc, input_of(s).record_addr(i));
              }
            });
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
            HeapFold fold(ctx.heap(), slow_interp, reduce_c.orig_fn);
            ForEachRecord(sources, [&](size_t s, size_t i, bool) {
              ScopedPhase phase(ctx.stats().times, Phase::kDeserialize);
              ByteReader reader(reinterpret_cast<const uint8_t*>(input_of(s).record_addr(i)),
                                input_of(s).record_size(i));
              fold.Add(ctx.serde().ReadBody(out_klass, reader));
            });
            ScopedPhase phase(ctx.stats().times, Phase::kSerialize);
            ByteBuffer record;
            ctx.serde().WriteRecord(fold.result(), out_klass, record);
            out_part.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
          }
          if (!fast_ok && reduce_speculate && sink != nullptr) {
            fast_start = sink->Now();  // the next group's fold run
          }
        });
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
