// End-to-end tracing: the per-task event timeline behind the paper's
// evaluation story (when a task aborted, how long its slow-path
// re-execution took, where GC pauses landed).
//
// Design (see DESIGN.md "Observability"):
//   * One TraceSink per worker — a thread-confined, fixed-capacity event
//     buffer. Emitting is a bounds check and a struct store; on overflow
//     events are dropped and counted, never reallocated (no allocation or
//     locking on the task's hot path). The driver owns a direct sink that
//     appends straight to the merged timeline (driver code only runs
//     between stages, so there is no concurrent writer).
//   * Stage-barrier merge — the scheduler drains every worker sink at each
//     stage barrier (the barrier's mutex provides the happens-before edge)
//     and stable-sorts the drained events by (task, attempt). Task-to-worker
//     placement varies with the worker count, but the logical event sequence
//     per (task, attempt) does not, so the merged timeline is identical for
//     1/2/8 workers once timestamps and worker ids are scrubbed
//     (ScrubbedLines). GC pauses are physical per-heap events — which heap
//     fills up when depends on placement — so they are excluded from the
//     scrubbed sequence (but kept in exports).
//   * Off by default — engines allocate a Trace only when
//     EngineConfig::trace is set; everything else holds a TraceSink* that is
//     null when tracing is off, so the disabled cost is one predictable
//     branch per would-be event.
//
// TraceExporter renders the merged timeline as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing; pid = engine, tid = worker) or
// as a compact text timeline.
#ifndef SRC_SUPPORT_TRACE_H_
#define SRC_SUPPORT_TRACE_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/support/metrics.h"

namespace gerenuk {

enum class TraceEventType : uint8_t {
  kStage = 0,          // span: one scheduler stage (driver)
  kTask,               // span: one task attempt, body included
  kFastPath,           // span: speculative SER execution over native bytes
  kSlowPath,           // span: re-execution after an abort (or direct routing)
  kSerialize,          // span: one record serialized
  kDeserialize,        // span: one record deserialized
  kGcPause,            // span: one collection pause (physical; unscrubbed)
  kAbort,              // instant: SER abort fired (arg = AbortReason)
  kRetry,              // instant: failed attempt requeued (arg = next attempt)
  kStragglerRelaunch,  // instant: deadline relaunch on another worker
  kQuarantine,         // instant: poisoned input skipped (arg = records lost)
  kShuffleBytes,       // counter: bytes this task wrote to shuffle (arg)
  kExecutorDead,       // instant: executor process lost (arg = slot)
  kExecutorRelaunch,   // instant: fresh executor forked for a slot (arg = slot)
  kHeartbeat,          // counter: heartbeats received during a stage (arg)
  kSpillBytes,         // counter: stored bytes a shuffle block spilled (arg)
  kFetchBytes,         // counter: raw bytes fetched from a spilled block (arg)
  kAdmissionReject,    // instant: service refused a job at Submit (arg = job id)
  kJobCancel,          // instant: job cancelled / deadline-expired (arg = job id)
  kBreaker,            // instant: slot breaker transition (arg = slot)
  kCombineAbort,       // instant: map-side combine gave up (arg = AbortReason)
  kCombine,            // span: map-side combine of a reduce with no accumulate form
};

const char* TraceEventTypeName(TraceEventType type);

enum class TraceEventKind : uint8_t { kSpan = 0, kInstant, kCounter };

// Fixed-size POD event. `name` must point at a string with static storage
// duration — sinks store the pointer, never the characters.
struct TraceEvent {
  TraceEventType type = TraceEventType::kTask;
  TraceEventKind kind = TraceEventKind::kInstant;
  int32_t worker = -1;   // sink's worker id; -1 = driver
  int32_t attempt = 0;   // 1-based attempt of the enclosing task; 0 = none
  int64_t task = -1;     // stage-local task index; -1 = outside any task
  int64_t ts_ns = 0;     // start (spans) or occurrence time, Trace-epoch rel.
  int64_t dur_ns = 0;    // spans only
  int64_t arg = 0;       // type-specific payload (reason, bytes, ...)
  const char* name = "";
};

class Trace;

// A single-producer event buffer. Worker sinks buffer until the stage
// barrier; the driver sink forwards to the merged timeline immediately.
class TraceSink {
 public:
  // Nanoseconds since the owning Trace's epoch.
  int64_t Now() const;

  // Tags subsequently emitted events with (task, attempt); the scheduler
  // brackets every task attempt with BeginTask/EndTask so nested events
  // (fast/slow path, ser/deser, GC, aborts) inherit the attribution.
  void BeginTask(int64_t task, int attempt) {
    cur_task_ = task;
    cur_attempt_ = attempt;
  }
  void EndTask() {
    cur_task_ = -1;
    cur_attempt_ = 0;
  }

  void Span(TraceEventType type, const char* name, int64_t start_ns, int64_t arg = 0) {
    TraceEvent ev = Tagged(type, TraceEventKind::kSpan, name, arg);
    ev.ts_ns = start_ns;
    ev.dur_ns = Now() - start_ns;
    Push(ev);
  }
  void Instant(TraceEventType type, const char* name, int64_t arg = 0) {
    TraceEvent ev = Tagged(type, TraceEventKind::kInstant, name, arg);
    ev.ts_ns = Now();
    Push(ev);
  }
  // Instant attributed to an explicit (task, attempt) rather than the
  // current tag — the scheduler's failure-handling events fire after
  // EndTask.
  void InstantFor(int64_t task, int attempt, TraceEventType type, const char* name,
                  int64_t arg = 0) {
    TraceEvent ev = Tagged(type, TraceEventKind::kInstant, name, arg);
    ev.task = task;
    ev.attempt = attempt;
    ev.ts_ns = Now();
    Push(ev);
  }
  void Counter(TraceEventType type, const char* name, int64_t value) {
    TraceEvent ev = Tagged(type, TraceEventKind::kCounter, name, value);
    ev.ts_ns = Now();
    Push(ev);
  }

  int64_t dropped_events() const { return dropped_; }

 private:
  friend class Trace;
  TraceSink(Trace* owner, int32_t worker, size_t capacity, bool direct)
      : owner_(owner), worker_(worker), capacity_(direct ? 0 : capacity), direct_(direct) {
    if (!direct_) {
      buf_.reserve(capacity_);
    }
  }

  TraceEvent Tagged(TraceEventType type, TraceEventKind kind, const char* name,
                    int64_t arg) const {
    TraceEvent ev;
    ev.type = type;
    ev.kind = kind;
    ev.worker = worker_;
    ev.task = cur_task_;
    ev.attempt = cur_attempt_;
    ev.arg = arg;
    ev.name = name;
    return ev;
  }
  void Push(const TraceEvent& ev);

  Trace* owner_;
  int32_t worker_;
  size_t capacity_;
  bool direct_;
  std::vector<TraceEvent> buf_;
  int64_t dropped_ = 0;
  int64_t cur_task_ = -1;
  int cur_attempt_ = 0;
};

// RAII complete-span helper: captures the start time at construction and
// emits one span event at scope exit (including exception unwinds). A null
// sink makes both ends a single branch — the tracing-off path.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, TraceEventType type, const char* name, int64_t arg = 0)
      : sink_(sink), type_(type), name_(name), arg_(arg) {
    if (sink_ != nullptr) {
      start_ns_ = sink_->Now();
    }
  }
  ~TraceSpan() {
    if (sink_ != nullptr) {
      sink_->Span(type_, name_, start_ns_, arg_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_arg(int64_t arg) { arg_ = arg; }

 private:
  TraceSink* sink_;
  TraceEventType type_;
  const char* name_;
  int64_t arg_;
  int64_t start_ns_ = 0;
};

// The engine-level trace: owns one buffered sink per worker plus the
// driver's direct sink, the merged timeline, and the latency histograms
// derived from it (task duration, abort-to-slow-path-commit, GC pause).
class Trace {
 public:
  static constexpr size_t kDefaultBufferEvents = size_t{1} << 16;

  explicit Trace(int num_workers, size_t buffer_capacity = kDefaultBufferEvents);

  TraceSink* worker(int w) { return workers_[static_cast<size_t>(w)].get(); }
  TraceSink* driver() { return driver_.get(); }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Drains every worker sink (in worker order), stable-sorts the drained
  // batch by (task, attempt), and appends it to the merged timeline. Must
  // only run while workers are quiescent — the scheduler calls it from the
  // stage barrier, whose lock provides the required happens-before edge.
  void FlushWorkersAtBarrier();

  // The merged timeline, in barrier-merge order.
  const std::vector<TraceEvent>& events() const { return merged_; }
  // Events dropped to ring-buffer overflow across all sinks so far.
  int64_t dropped_events() const;

  // Derived histograms: "task_duration_ns", "abort_to_slowpath_commit_ns",
  // "gc_pause_ns" — plus the "trace_dropped_events" counter.
  const MetricsRegistry& metrics() const { return metrics_; }

  // The determinism contract: one line per logical event — type, name,
  // (task, attempt), kind, arg — excluding timestamps, worker ids, and
  // physical events (GC pauses). Identical for any worker count.
  std::vector<std::string> ScrubbedLines() const;

  // Drops the merged timeline and its derived histograms so the next job's
  // events start a fresh scope (service mode: per-job trace export). Must
  // run while workers are quiescent, like FlushWorkersAtBarrier; sinks and
  // their cumulative drop counts are untouched.
  void ResetMerged();

 private:
  friend class TraceSink;
  void AppendDirect(const TraceEvent& ev);  // driver-sink path
  void Absorb(const TraceEvent& ev);        // histogram derivation

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<TraceSink>> workers_;
  std::unique_ptr<TraceSink> driver_;
  std::vector<TraceEvent> merged_;
  int64_t dropped_total_ = 0;  // from sinks already drained
  MetricsRegistry metrics_;
  // Pending abort timestamps keyed by task, for abort -> slow-path-commit
  // latency. Events of one (task, attempt) arrive in emission order, so the
  // abort instant precedes its slow-path span.
  std::vector<std::pair<int64_t, int64_t>> pending_aborts_;
};

// Renders a Trace's merged timeline.
class TraceExporter {
 public:
  explicit TraceExporter(const Trace& trace) : trace_(trace) {}

  // Chrome trace-event JSON (JSON Object Format): complete spans (ph "X"),
  // instants (ph "i"), counters (ph "C"), with pid 1 = the engine and
  // tid 0 = driver / tid w+1 = worker w, named via metadata events.
  void WriteChromeJson(std::ostream& os) const;
  std::string ChromeJson() const;

  // Compact fixed-width text timeline, one event per line.
  void WriteTextTimeline(std::ostream& os) const;
  std::string TextTimeline() const;

 private:
  const Trace& trace_;
};

}  // namespace gerenuk

#endif  // SRC_SUPPORT_TRACE_H_
