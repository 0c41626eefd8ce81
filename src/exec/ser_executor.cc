#include "src/exec/ser_executor.h"

#include <algorithm>

namespace gerenuk {



bool SerExecutor::RunFastPathIo(TaskIo& io, PhaseTimes& times, SpecOutcome* outcome) {
  BuilderStore builders(layouts_);
  std::unique_ptr<SerRunner> runner =
      MakeFastRunner(io.plan, transformed_, heap_, wk_, &layouts_, &builders, io.extra_plans);
  PlanExecutor* plan_exec = dynamic_cast<PlanExecutor*>(runner.get());
  if (plan_exec != nullptr && io.plan_profile != nullptr && io.plan_profile_stride > 0) {
    plan_exec->EnableProfiling(io.plan_profile, io.plan_profile_stride);
  }
  SerRunner& fast = *runner;

  size_t cursor = 0;
  RecordChannel channel;
  channel.next_native_record = [&io, &cursor]() {
    GERENUK_CHECK_LT(cursor, io.input->record_count());
    return io.input->record_addr(cursor);
  };
  channel.emit_native_record = [&io, &fast, &builders](int64_t addr, const Klass* klass) {
    io.emit_native(addr, klass, fast, builders);
  };
  // The plan path widens the channel: input addresses are handed out in runs
  // (one std::function hop per batch instead of per record) and emits arrive
  // as buffered runs. `batch_cursor` tracks handed-out prefetch positions;
  // the outer loop's `cursor` still drives per-record abort accounting, and
  // since the body consumes exactly one address per record the two agree.
  size_t batch_cursor = 0;
  if (plan_exec != nullptr) {
    channel.next_native_batch = [&io, &batch_cursor](int64_t* out, size_t cap) {
      size_t total = io.input->record_count();
      GERENUK_CHECK_LT(batch_cursor, total);
      size_t n = std::min(cap, total - batch_cursor);
      for (size_t i = 0; i < n; ++i) {
        out[i] = io.input->record_addr(batch_cursor + i);
      }
      batch_cursor += n;
      return n;
    };
    channel.emit_native_batch = [&io, &fast, &builders](const EmittedRecord* records,
                                                        size_t count) {
      for (size_t i = 0; i < count; ++i) {
        io.emit_native(records[i].addr, records[i].klass, fast, builders);
      }
    };
  }
  channel.fold = io.fold;
  fast.set_channel(&channel);

  const int64_t forced =
      io.faults != nullptr
          ? io.faults->RecordFor(io.task_ordinal, static_cast<int64_t>(io.input->record_count()),
                                 io.attempt)
          : -1;

  heap_.set_phase_times(&times);
  TraceSpan fast_span(io.trace, TraceEventType::kFastPath, "fast_path");
  try {
    ComputePhaseScope compute(times);
    if (plan_exec != nullptr) {
      // Builders stay live across a batch so buffered emits can still render
      // them; flush-then-clear runs at batch boundaries instead of per record.
      constexpr size_t kClearInterval = 64;
      for (cursor = 0; cursor < io.input->record_count(); ++cursor) {
        if (forced >= 0 && static_cast<int64_t>(cursor) == forced) {
          throw SerAbort{AbortReason::kForced, "forced abort (fault plan)"};
        }
        plan_exec->CallFunction(transformed_.body, io.fast_args);
        outcome->records_processed += 1;
        if ((cursor + 1) % kClearInterval == 0) {
          plan_exec->FlushEmits();
          builders.Clear();
        }
      }
      plan_exec->FlushEmits();
    } else {
      for (cursor = 0; cursor < io.input->record_count(); ++cursor) {
        if (forced >= 0 && static_cast<int64_t>(cursor) == forced) {
          throw SerAbort{AbortReason::kForced, "forced abort (fault plan)"};
        }
        fast.CallFunction(transformed_.body, io.fast_args);
        // Builders are per-record scratch state; a fresh record starts clean.
        builders.Clear();
        outcome->records_processed += 1;
      }
    }
  } catch (const SerAbort& abort) {
    outcome->plan_calls += fast.calls();
    // Buffered emits die with the runner: the abort contract discards every
    // intermediate buffer, and io.on_abort tears down engine-side output.
    // The instant is emitted before fast_span closes, so its timestamp nests
    // inside the fast-path span in the exported timeline.
    if (io.trace != nullptr) {
      io.trace->Instant(TraceEventType::kAbort, "abort",
                        static_cast<int64_t>(abort.reason));
    }
    outcome->aborts += 1;
    outcome->abort_reason = abort.reason;
    outcome->records_wasted += static_cast<int64_t>(cursor);
    outcome->records_processed = 0;
    heap_.set_phase_times(nullptr);
    return false;
  }
  outcome->plan_calls += fast.calls();
  heap_.set_phase_times(nullptr);
  return true;
}

void SerExecutor::RunSlowPathIo(TaskIo& io, PhaseTimes& times) {
  InlineSerializer serde(heap_);
  Interpreter interp(original_, heap_, wk_, &layouts_, nullptr);

  const Klass* record_klass = nullptr;
  for (const Statement& s : original_.body->body) {
    if (s.op == Op::kDeserialize) {
      record_klass = s.klass;
      break;
    }
  }
  GERENUK_CHECK(record_klass != nullptr) << "slow path body has no deserialization point";

  size_t cursor = 0;
  RecordChannel channel;
  channel.next_heap_record = [this, &serde, &io, &cursor, &times, record_klass]() {
    GERENUK_CHECK_LT(cursor, io.input->record_count());
    TraceSpan deser_span(io.trace, TraceEventType::kDeserialize, "deserialize");
    ScopedPhase phase(times, Phase::kDeserialize);
    int64_t addr = io.input->record_addr(cursor);
    uint32_t size = io.input->record_size(cursor);
    ByteReader reader(reinterpret_cast<const uint8_t*>(addr), size);
    return serde.ReadBody(record_klass, reader);
  };
  channel.emit_heap_record = [&io, &interp](ObjRef ref, const Klass* klass) {
    io.emit_heap(ref, klass, interp);
  };
  interp.set_channel(&channel);

  // Planned re-execution fault: at this record index the slow path runs out
  // of heap (the paper's executor would die and be relaunched; here the
  // scheduler retries the whole task in a fresh WorkerContext).
  const int64_t oom =
      io.faults != nullptr
          ? io.faults->OomRecordFor(io.task_ordinal,
                                    static_cast<int64_t>(io.input->record_count()), io.attempt)
          : -1;

  heap_.set_phase_times(&times);
  try {
    ComputePhaseScope compute(times);
    std::vector<Value> args = io.slow_args;
    for (cursor = 0; cursor < io.input->record_count(); ++cursor) {
      if (oom >= 0 && static_cast<int64_t>(cursor) == oom) {
        throw TaskError(TaskErrorKind::kOom, io.task_ordinal, io.attempt,
                        static_cast<int64_t>(io.input->record_count()),
                        "simulated heap exhaustion during re-execution");
      }
      if (io.refresh_slow_args) {
        io.refresh_slow_args(args);
      }
      interp.CallFunction(original_.body, args);
    }
  } catch (...) {
    heap_.set_phase_times(nullptr);
    throw;
  }
  heap_.set_phase_times(nullptr);
}

void SerExecutor::EnterTask(TaskIo& io) {
  if (io.faults != nullptr && !io.faults->empty()) {
    GERENUK_CHECK(io.task_ordinal >= 0)
        << "a fault plan requires a driver-assigned task ordinal";
    io.faults->AtTaskEntry(io.task_ordinal, io.attempt, io.input, io.cancelled);
  }
  // Stage-input integrity gate: sealed partitions carry a commit-time
  // checksum; a mismatch means the bytes rotted between commit and read,
  // which no retry can repair.
  if (io.input != nullptr && io.input->sealed() && !io.input->VerifyChecksum()) {
    std::string detail = "input partition failed its integrity checksum (stage ";
    detail += (io.stage_label != nullptr && io.stage_label[0] != '\0') ? io.stage_label
                                                                       : "<unlabeled>";
    detail += ", partition " + std::to_string(io.partition) + ", attempt " +
              std::to_string(io.attempt) + ")";
    throw TaskError(TaskErrorKind::kCorruptInput, io.task_ordinal, io.attempt,
                    static_cast<int64_t>(io.input->record_count()), detail);
  }
}

void SerExecutor::RunDirectSlowPath(TaskIo& io, PhaseTimes& times) {
  EnterTask(io);
  try {
    // arg 1 = governor-routed directly, without a preceding abort.
    TraceSpan slow_span(io.trace, TraceEventType::kSlowPath, "slow_path", 1);
    RunSlowPathIo(io, times);
  } catch (...) {
    if (io.on_abort) {
      io.on_abort();
    }
    throw;
  }
}

SpecOutcome SerExecutor::RunTaskIo(TaskIo& io, PhaseTimes& times) {
  EnterTask(io);
  SpecOutcome outcome;
  if (RunFastPathIo(io, times, &outcome)) {
    return outcome;
  }
  // Abort: terminate the executor — every intermediate buffer is discarded;
  // the input buffers are untouched (the interpreter aborts before any write
  // to committed records), so the fresh executor re-runs the original task
  // on the same input.
  if (io.on_abort) {
    io.on_abort();
  }
  if (launch_hook_) {
    launch_hook_();
  }
  try {
    TraceSpan slow_span(io.trace, TraceEventType::kSlowPath, "slow_path");
    RunSlowPathIo(io, times);
  } catch (...) {
    // The re-execution itself failed (e.g. simulated OOM). Tear down its
    // partial output too, so the task honors the scheduler's contract that
    // a throwing task leaves its output slot released.
    if (io.on_abort) {
      io.on_abort();
    }
    throw;
  }
  outcome.committed_fast_path = false;
  outcome.records_processed = static_cast<int64_t>(io.input->record_count());
  return outcome;
}

SpecOutcome SerExecutor::RunTask(const NativePartition& input, NativePartition* output,
                                 PhaseTimes& times, const FaultPlan* faults,
                                 int64_t task_ordinal) {
  InlineSerializer serde(heap_);
  TaskIo io;
  io.input = &input;
  io.faults = faults;
  io.task_ordinal = task_ordinal;
  io.emit_native = [output](int64_t addr, const Klass* klass, SerRunner&,
                            BuilderStore& builders) {
    builders.Render(addr, klass, *output);
  };
  io.emit_heap = [this, output, &serde, &times](ObjRef ref, const Klass* klass, SerRunner&) {
    ScopedPhase phase(times, Phase::kSerialize);
    ByteBuffer body;
    serde.WriteRecord(ref, klass, body);
    output->AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
  };

  io.on_abort = [output] { output->Release(); };  // discard partial output
  return RunTaskIo(io, times);
}

void SerExecutor::RunSlowPath(const NativePartition& input, NativePartition* output,
                              PhaseTimes& times) {
  InlineSerializer serde(heap_);
  TaskIo io;
  io.input = &input;
  io.emit_heap = [this, output, &serde, &times](ObjRef ref, const Klass* klass, SerRunner&) {
    ScopedPhase phase(times, Phase::kSerialize);
    ByteBuffer body;
    serde.WriteRecord(ref, klass, body);
    output->AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
  };
  RunSlowPathIo(io, times);
}

}  // namespace gerenuk
