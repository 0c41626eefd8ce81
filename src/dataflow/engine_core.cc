#include "src/dataflow/engine_core.h"

#include <string>

namespace gerenuk {

namespace {

// One validation gate for the whole config, crossed before any member that
// consumes a knob (the heap, the scheduler) is built.
const EngineConfig& ValidatedEngineConfig(const EngineConfig& config) {
  const std::string error = config.Validate();
  GERENUK_CHECK(error.empty()) << "invalid EngineConfig: " << error;
  return config;
}

// The engine heap and every worker heap: the configured capacity and
// collector, with HeapConfig's default generational sizing.
HeapConfig HeapConfigOf(const ExecutionOptions& execution) {
  HeapConfig heap;
  heap.capacity_bytes = execution.heap_bytes;
  heap.gc = execution.gc;
  return heap;
}

}  // namespace

EngineCore::EngineCore(const EngineConfig& config)
    : config_(ValidatedEngineConfig(config)),
      heap_(std::make_unique<Heap>(HeapConfigOf(config.execution))),
      wk_(std::make_unique<WellKnown>(*heap_)),
      kryo_(*heap_),
      governor_(config.fault.governor_abort_threshold, config.fault.governor_min_tasks) {
  heap_->set_memory_tracker(&memory_);
  // Worker heaps share the engine's class registry, so Klass pointers in the
  // driver-compiled programs are valid in every executor context. The engine
  // WellKnown is built first (above), so the worker contexts find its
  // classes already defined.
  // Process executors only make sense for Gerenuk-mode stages (baseline
  // stages mutate the shared engine heap and always run serially in the
  // driver).
  const bool process_mode =
      config.execution.process_executors && config.execution.mode == EngineMode::kGerenuk;
  scheduler_ = std::make_unique<TaskScheduler>(config.execution.num_workers,
                                               HeapConfigOf(config.execution),
                                               &heap_->klasses(), &memory_, process_mode);
  scheduler_->set_retry_policy(config.retry_policy());
  ExecutorSupervisorConfig supervision;
  supervision.heartbeat_ms = config.execution.executor_heartbeat_ms;
  supervision.heartbeat_timeout_ms = config.execution.executor_heartbeat_timeout_ms;
  supervision.max_executor_relaunches = config.execution.max_executor_relaunches;
  scheduler_->set_supervisor_config(supervision);
  if (config.observability.trace) {
    trace_ = std::make_unique<Trace>(scheduler_->num_workers(),
                                     config.observability.trace_buffer_events);
    scheduler_->set_trace(trace_.get());
    // Driver-side GC (the engine heap: sources, baseline stages, collect,
    // Yak epochs) reports into the driver's direct sink.
    heap_->set_trace_sink(trace_->driver());
  }
}

EngineCore::~EngineCore() = default;

void EngineCore::RegisterDataType(const Klass* klass) {
  std::string error;
  GERENUK_CHECK(layouts_.AnalyzeTopLevel(klass, &error)) << error;
  if (!klass->is_array()) {
    // The collection type T[] (§3.1's third annotation) joins the hierarchy
    // so flatMap results are recognized as data collections.
    const Klass* array = heap_->klasses().DefineArray(FieldKind::kRef, klass);
    GERENUK_CHECK(layouts_.AnalyzeTopLevel(array, &error)) << error;
  }
}

DatasetPtr EngineCore::Source(const Klass* klass, int64_t count, const SourceFn& make) {
  const int num_partitions = config_.execution.num_partitions;
  auto dataset = std::make_shared<Dataset>(*heap_, klass, num_partitions, &memory_);
  if (mode() == EngineMode::kBaseline) {
    // Input deserialization, as a JVM job pays it: every record's bytes are
    // read back into heap objects, serially on the engine heap.
    InlineSerializer serde(*heap_);
    RecordWriter writer;
    for (int64_t i = 0; i < count; ++i) {
      writer.Open(klass);
      make(i, writer);
      const std::span<const uint8_t> body = writer.Close();
      ByteReader in(body.data(), body.size());
      dataset->heap_parts[static_cast<size_t>(i % num_partitions)].push_back(
          serde.ReadBody(klass, in));
    }
    for (NativePartition& part : dataset->native_parts) {
      part.Seal();
    }
    return dataset;
  }
  EngineStats ingest_stats;  // not merged: ingest is input generation, not job work
  TraceSpan stage_span(DriverSink(), TraceEventType::kStage, "source");
  scheduler_->RunStage(
      num_partitions,
      [&](WorkerContext&, int p) {
        NativePartition& part = dataset->native_parts[static_cast<size_t>(p)];
        try {
          RecordWriter writer;
          for (int64_t i = p; i < count; i += num_partitions) {
            writer.Open(klass);
            make(i, writer);
            const std::span<const uint8_t> body = writer.Close();
            part.AppendRecord(body.data(), static_cast<uint32_t>(body.size()));
          }
          // Committed data carries an integrity seal from the moment it
          // exists (DESIGN.md "Fault model & recovery").
          part.Seal();
        } catch (...) {
          part.Release();
          throw;
        }
      },
      &ingest_stats);
  return dataset;
}

void EngineCore::ResetMetrics() {
  if (mode() == EngineMode::kGerenuk && heap_->used_bytes() > 0) {
    heap_->CollectNow();
  }
  stats_ = EngineStats{};
  memory_.ResetPeak();
  heap_->ResetStats();
}

MetricsRegistry EngineCore::metrics() const {
  MetricsRegistry registry;
  stats_.ExportTo(&registry);
  if (trace_ != nullptr) {
    registry.Merge(trace_->metrics());
  }
  return registry;
}

// ---------------------------------------------------------------------------
// Compile-and-cache pipeline
// ---------------------------------------------------------------------------

StagePrograms EngineCore::CompileStage(const Klass* in_klass, const SerProgram& udfs,
                                       const std::vector<NarrowOp>& ops,
                                       const Klass* broadcast_klass, const EmitFoldSpec* fold) {
  StagePrograms stage =
      CompileNarrowStage(mode(), layouts_, in_klass, udfs, ops, broadcast_klass != nullptr,
                         broadcast_klass, &stats_.transform, heap_->klasses(), ActivePlanCache(),
                         PlanOptionsOf(config_.execution), fold);
  if (mode() == EngineMode::kGerenuk) {
    stats_.stages_compiled += 1;
  }
  LowerAndCache(stage.signature, stage.cache_hit, stage.transformed, nullptr, nullptr,
                &stage.plan);
  return stage;
}

CompiledFunction EngineCore::CompileFn(const SerProgram& udfs, const Function* fn) {
  CompiledFunction compiled =
      CompileSingleFunction(mode(), layouts_, udfs, fn, &stats_.transform, ActivePlanCache(),
                            PlanOptionsOf(config_.execution));
  LowerAndCache(compiled.signature, compiled.cache_hit, compiled.transformed, compiled.fast_fn,
                compiled.acc_fn, &compiled.plan);
  return compiled;
}

void EngineCore::LowerAndCache(const ProgramSignature& signature, bool cache_hit,
                               const std::shared_ptr<const SerProgram>& transformed,
                               const Function* fast_fn, const Function* acc_fn,
                               std::shared_ptr<const SerPlan>* plan) {
  if (cache_hit) {
    stats_.plan_cache_hits += 1;
    return;
  }
  if (transformed == nullptr || !config_.execution.use_plan_compiler) {
    return;  // kBaseline (nothing transformed) or the interpreter-only fast path
  }
  // The transformer may have grown the offset-expression pool; re-fold
  // before lowering so every now-constant expression becomes an immediate.
  // Folding is idempotent, so folding before every plan is safe.
  pool_.FoldConstants();
  *plan = CompilePlan(*transformed, layouts_, PlanOptionsOf(config_.execution));
  if (*plan != nullptr) {
    stats_.plans_compiled += 1;
  }
  if (PlanCache* cache = ActivePlanCache(); cache != nullptr) {
    cache->Insert(signature, {transformed, *plan, fast_fn, acc_fn, 0});
  }
}

// ---------------------------------------------------------------------------
// Driver-side stage helpers
// ---------------------------------------------------------------------------

bool EngineCore::ShouldSpeculateFor(uint64_t signature_hash) const {
  if (!governor_.ShouldSpeculate()) {
    return false;
  }
  if (oracle_.should_speculate != nullptr && !oracle_.should_speculate(signature_hash)) {
    return false;
  }
  return true;
}

void EngineCore::ObserveSpeculation(uint64_t signature_hash, int tasks, int aborts_delta) {
  if (governor_.Observe(tasks, aborts_delta)) {
    stats_.governor_flips += 1;
  }
  if (oracle_.observe != nullptr) {
    oracle_.observe(signature_hash, tasks, aborts_delta);
  }
}

void EngineCore::BindTaskIo(TaskIo* io, WorkerContext& ctx, const char* label,
                            const NativePartition* input, int partition,
                            int64_t ordinal) const {
  io->input = input;
  io->stage_label = label;
  io->partition = partition;
  io->task_ordinal = ordinal;
  io->faults = ActiveFaults();
  io->attempt = ctx.attempt();
  io->cancelled = [&ctx] { return ctx.cancelled(); };
  io->trace = ctx.trace_sink();
  if (config_.observability.plan_profile_stride > 0) {
    io->plan_profile = &ctx.stats().plan_ops;
    io->plan_profile_stride = config_.observability.plan_profile_stride;
  }
}

void EngineCore::RunTask(SerExecutor& exec, TaskIo& io, WorkerContext& ctx, bool speculate) {
  if (!speculate) {
    exec.RunDirectSlowPath(io, ctx.stats().times);
    ctx.stats().slow_path_direct += 1;
    return;
  }
  SpecOutcome outcome = exec.RunTaskIo(io, ctx.stats().times);
  ctx.stats().plan_calls += outcome.plan_calls;
  if (outcome.committed_fast_path) {
    ctx.stats().fast_path_commits += 1;
  } else {
    ctx.stats().aborts += outcome.aborts;
  }
}

void EngineCore::RunWorkerStage(int num_tasks, const TaskScheduler::Task& task,
                                const StageCodec* codec) {
  scheduler_->RunStage(
      num_tasks,
      [&task](WorkerContext& ctx, int t) {
        task(ctx, t);
        if (ctx.heap().used_bytes() > 0) {
          ctx.heap().CollectNow();
        }
      },
      &stats_, codec);
}

StageCodec EngineCore::PartitionVectorCodec(std::vector<NativePartition>* parts) {
  StageCodec codec;
  codec.encode = [parts](int task, ByteBuffer* out) {
    (*parts)[static_cast<size_t>(task)].SerializeTo(*out);
  };
  codec.decode = [parts, memory = &memory_](int task, ByteReader* in) {
    try {
      (*parts)[static_cast<size_t>(task)] = NativePartition::Parse(*in, memory);
    } catch (const WireFormatError& e) {
      throw TaskError(TaskErrorKind::kCorruptInput, task, 1, 0,
                      std::string("executor result failed wire parse: ") + e.what());
    }
  };
  return codec;
}

}  // namespace gerenuk
