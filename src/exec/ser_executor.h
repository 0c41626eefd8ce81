// The speculative execution engine (§3.6): runs a task's transformed SER
// over a native input partition; if an abort instruction fires, the
// executor is "terminated and relaunched" — every intermediate buffer and
// builder is discarded, the *original* program is re-executed over the same
// (immutable, hence intact) input buffers, deserializing each record into
// heap objects and re-serializing the outputs into the native format the
// downstream task expects.
//
// The per-phase time breakdown (compute / GC / serialize / deserialize)
// accumulates into the caller's PhaseTimes — the numbers behind Figure 6's
// stacked bars and Figure 10's re-execution costs.
#ifndef SRC_EXEC_SER_EXECUTOR_H_
#define SRC_EXEC_SER_EXECUTOR_H_

#include <functional>

#include "src/exec/fault.h"
#include "src/exec/plan.h"
#include "src/serde/inline_serializer.h"
#include "src/support/trace.h"

namespace gerenuk {

struct SpecOutcome {
  bool committed_fast_path = true;  // false => the slow path produced output
  int aborts = 0;
  AbortReason abort_reason = AbortReason::kForced;
  int64_t records_processed = 0;
  int64_t records_wasted = 0;  // fast-path work discarded by the abort
  int64_t plan_calls = 0;      // function invocations of the fast-path runner
};

// Engine-level task description: where records come from, where emitted
// records go (the engine may route them to shuffle buckets), and any extra
// arguments for the task body (e.g. a broadcast variable's record).
struct TaskIo {
  const NativePartition* input = nullptr;
  // Compiled plan for the transformed program; when set, the fast path runs
  // on the direct-threaded PlanExecutor instead of the tree-walking
  // Interpreter (identical semantics — the differential tests prove it).
  // `extra_plans` register auxiliary function plans (key extraction, reduce
  // folds) with the same runner.
  const SerPlan* plan = nullptr;
  std::vector<const SerPlan*> extra_plans;
  // Fast path: `addr` is a committed address or builder; the engine renders
  // it wherever it wants via `builders` and may call back into `runner`
  // (e.g. to evaluate a key-extraction function on the emitted record).
  std::function<void(int64_t addr, const Klass*, SerRunner& runner, BuilderStore& builders)>
      emit_native;
  // Slow path: emitted record as a rooted heap object.
  std::function<void(ObjRef, const Klass*, SerRunner& runner)> emit_heap;
  // Fast path of a composed map stage: the keyed tables its kFoldSlot
  // statements fold into (src/transform/emit_fold.h).
  EmitFold* fold = nullptr;
  // Extra body arguments. Fast path gets kAddr values, slow path kRef.
  std::vector<Value> fast_args;
  std::vector<Value> slow_args;
  // Invoked after a fast-path abort, before the slow path re-runs: the
  // engine discards whatever partial output its emit callbacks produced
  // (the simulator's analogue of tearing down the aborted executor's
  // intermediate buffers).
  std::function<void()> on_abort;
  // Invoked before every slow-path record with the current argument vector
  // (initialized from slow_args). Engines use it to materialize heap-side
  // arguments lazily (e.g. a broadcast object deserialized into the
  // executing worker's heap) and to re-read rooted references the GC may
  // have moved between records.
  std::function<void(std::vector<Value>& args)> refresh_slow_args;
  // Diagnostic context stamped into integrity-failure TaskErrors: which
  // stage this task belongs to and which input partition it reads. A seal
  // mismatch report that names (stage, partition, attempt) is actionable;
  // a bare "checksum failed" is not.
  const char* stage_label = "";
  int partition = -1;
  // Fault injection: this task's driver-assigned ordinal and the engine's
  // plan. A null plan disables injection. A non-empty plan requires a
  // non-negative ordinal (RunTaskIo checks).
  int64_t task_ordinal = -1;
  const FaultPlan* faults = nullptr;
  // Attempt number of this execution (1-based; the scheduler's retry state),
  // used to gate fault re-firing and stamped into TaskErrors.
  int attempt = 1;
  // Cooperative cancellation probe (WorkerContext::cancelled); polled by
  // long-running injected work so a deadline turns into a straggler error.
  std::function<bool()> cancelled;
  // Tracing sink of the executing worker (null = tracing off): the executor
  // emits fast-path/slow-path spans, abort instants, and per-record
  // deserialization spans into it.
  TraceSink* trace = nullptr;
  // Sampled plan-op profiler (see PlanExecutor::EnableProfiling): when
  // `plan_profile` is set and the stride is positive, the fast path's plan
  // dispatch records per-opcode counts and sampled time into it.
  OpProfile* plan_profile = nullptr;
  int64_t plan_profile_stride = 0;
};

class SerExecutor {
 public:
  SerExecutor(Heap& heap, WellKnown& wk, const DataStructAnalyzer& layouts,
              const SerProgram& original, const SerProgram& transformed)
      : heap_(heap),
        wk_(wk),
        layouts_(layouts),
        original_(original),
        transformed_(transformed) {}

  // The paper's user-provided `launch` method: invoked when a new executor
  // replaces an aborted one. Application-independent; defaults to nothing
  // (the simulator reuses the calling thread as the fresh executor).
  void set_launch_hook(std::function<void()> hook) { launch_hook_ = std::move(hook); }

  // Executes the task body once per input record. Output records are
  // appended to `*output` in the inline native format on both paths.
  // `faults`, when given, injects this task's planned faults (`task_ordinal`
  // keys into the plan and must be non-negative if the plan is non-empty —
  // the default matches TaskIo's "no ordinal assigned" sentinel).
  SpecOutcome RunTask(const NativePartition& input, NativePartition* output, PhaseTimes& times,
                      const FaultPlan* faults = nullptr, int64_t task_ordinal = -1);

  // Runs only the slow path (used by the unmodified-baseline engines and by
  // tests that need reference output).
  void RunSlowPath(const NativePartition& input, NativePartition* output, PhaseTimes& times);

  // General engine entry points with custom routing and body arguments.
  SpecOutcome RunTaskIo(TaskIo& io, PhaseTimes& times);
  void RunSlowPathIo(TaskIo& io, PhaseTimes& times);

  // Governor-degraded execution: skips speculation entirely and runs the
  // original program, but keeps the task-entry gates (fault injection, input
  // checksum) and the released-slot-on-throw contract of RunTaskIo.
  void RunDirectSlowPath(TaskIo& io, PhaseTimes& times);

 private:
  bool RunFastPathIo(TaskIo& io, PhaseTimes& times, SpecOutcome* outcome);
  // Task-entry gates: applies planned entry faults for this attempt, then
  // verifies a sealed input's integrity checksum (throws TaskError).
  void EnterTask(TaskIo& io);

  Heap& heap_;
  WellKnown& wk_;
  const DataStructAnalyzer& layouts_;
  const SerProgram& original_;
  const SerProgram& transformed_;
  std::function<void()> launch_hook_;
};

}  // namespace gerenuk

#endif  // SRC_EXEC_SER_EXECUTOR_H_
