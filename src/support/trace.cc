#include "src/support/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace gerenuk {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kStage:
      return "stage";
    case TraceEventType::kTask:
      return "task";
    case TraceEventType::kFastPath:
      return "fast_path";
    case TraceEventType::kSlowPath:
      return "slow_path";
    case TraceEventType::kSerialize:
      return "serialize";
    case TraceEventType::kDeserialize:
      return "deserialize";
    case TraceEventType::kGcPause:
      return "gc_pause";
    case TraceEventType::kAbort:
      return "abort";
    case TraceEventType::kRetry:
      return "retry";
    case TraceEventType::kStragglerRelaunch:
      return "straggler_relaunch";
    case TraceEventType::kQuarantine:
      return "quarantine";
    case TraceEventType::kShuffleBytes:
      return "shuffle_bytes";
    case TraceEventType::kExecutorDead:
      return "executor_dead";
    case TraceEventType::kExecutorRelaunch:
      return "executor_relaunch";
    case TraceEventType::kHeartbeat:
      return "heartbeats";
    case TraceEventType::kSpillBytes:
      return "spill_bytes";
    case TraceEventType::kFetchBytes:
      return "fetch_bytes";
    case TraceEventType::kAdmissionReject:
      return "admission_reject";
    case TraceEventType::kJobCancel:
      return "job_cancel";
    case TraceEventType::kBreaker:
      return "breaker";
    case TraceEventType::kCombineAbort:
      return "combine_abort";
    case TraceEventType::kCombine:
      return "combine";
  }
  return "?";
}

int64_t TraceSink::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - owner_->epoch_)
      .count();
}

void TraceSink::Push(const TraceEvent& ev) {
  if (direct_) {
    owner_->AppendDirect(ev);
    return;
  }
  if (buf_.size() >= capacity_) {
    dropped_ += 1;  // drop-and-count: never reallocate on the hot path
    return;
  }
  buf_.push_back(ev);
}

Trace::Trace(int num_workers, size_t buffer_capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back(new TraceSink(this, w, buffer_capacity, /*direct=*/false));
  }
  driver_.reset(new TraceSink(this, -1, 0, /*direct=*/true));
}

void Trace::AppendDirect(const TraceEvent& ev) {
  Absorb(ev);
  merged_.push_back(ev);
}

void Trace::Absorb(const TraceEvent& ev) {
  switch (ev.type) {
    case TraceEventType::kTask:
      metrics_.Hist("task_duration_ns", MetricUnit::kNanos).Record(ev.dur_ns);
      break;
    case TraceEventType::kGcPause:
      metrics_.Hist("gc_pause_ns", MetricUnit::kNanos).Record(ev.dur_ns);
      break;
    case TraceEventType::kAbort:
      pending_aborts_.emplace_back(ev.task, ev.ts_ns);
      break;
    case TraceEventType::kSlowPath: {
      auto it = std::find_if(pending_aborts_.begin(), pending_aborts_.end(),
                             [&](const auto& p) { return p.first == ev.task; });
      if (it != pending_aborts_.end()) {
        metrics_.Hist("abort_to_slowpath_commit_ns", MetricUnit::kNanos)
            .Record(ev.ts_ns + ev.dur_ns - it->second);
        pending_aborts_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void Trace::FlushWorkersAtBarrier() {
  std::vector<TraceEvent> batch;
  for (auto& sink : workers_) {
    batch.insert(batch.end(), sink->buf_.begin(), sink->buf_.end());
    sink->buf_.clear();
    dropped_total_ += sink->dropped_;
    sink->dropped_ = 0;
  }
  // Task placement varies with the worker count; the (task, attempt) order
  // does not. Attempts of one task never overlap and each runs wholly on one
  // worker, so a stable sort by (task, attempt) — which preserves the
  // single-worker emission order within an attempt — yields the same logical
  // sequence for any pool size.
  std::stable_sort(batch.begin(), batch.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.task != b.task) {
      return a.task < b.task;
    }
    return a.attempt < b.attempt;
  });
  for (const TraceEvent& ev : batch) {
    Absorb(ev);
  }
  merged_.insert(merged_.end(), batch.begin(), batch.end());
  metrics_.Counter("trace_dropped_events") = dropped_events();
}

void Trace::ResetMerged() {
  merged_.clear();
  metrics_ = MetricsRegistry();
  pending_aborts_.clear();
  metrics_.Counter("trace_dropped_events") = dropped_events();
}

int64_t Trace::dropped_events() const {
  int64_t total = dropped_total_;
  for (const auto& sink : workers_) {
    total += sink->dropped_;
  }
  return total;
}

std::vector<std::string> Trace::ScrubbedLines() const {
  std::vector<std::string> lines;
  lines.reserve(merged_.size());
  char buf[160];
  for (const TraceEvent& ev : merged_) {
    if (ev.type == TraceEventType::kGcPause) {
      continue;  // physical per-heap event: placement-dependent by nature
    }
    const char* kind = ev.kind == TraceEventKind::kSpan      ? "span"
                       : ev.kind == TraceEventKind::kInstant ? "instant"
                                                             : "counter";
    std::snprintf(buf, sizeof(buf), "%s %s task=%" PRId64 " attempt=%d arg=%" PRId64,
                  kind, ev.name, ev.task, ev.attempt, ev.arg);
    lines.emplace_back(buf);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

namespace {

// tid 0 = driver, tid w+1 = worker w.
int TidFor(const TraceEvent& ev) { return ev.worker + 1; }

void WriteEventCommon(std::ostream& os, const TraceEvent& ev) {
  char buf[128];
  // Chrome's ts/dur are microseconds; keep nanosecond precision as decimals.
  std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"pid\":1,\"tid\":%d",
                static_cast<double>(ev.ts_ns) / 1000.0, TidFor(ev));
  os << "{\"name\":\"" << ev.name << "\",\"cat\":\"" << TraceEventTypeName(ev.type)
     << "\"," << buf;
}

void WriteArgs(std::ostream& os, const TraceEvent& ev) {
  os << "\"args\":{\"task\":" << ev.task << ",\"attempt\":" << ev.attempt
     << ",\"arg\":" << ev.arg << "}}";
}

}  // namespace

void TraceExporter::WriteChromeJson(std::ostream& os) const {
  // Metadata events carry ts:0 so every event object has the same
  // ph/ts/pid/tid shape (simplifies downstream consumers and our tests).
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"gerenuk-engine\"}}";
  os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"driver\"}}";
  for (int w = 0; w < trace_.num_workers(); ++w) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":" << (w + 1)
       << ",\"args\":{\"name\":\"worker-" << w << "\"}}";
  }
  for (const TraceEvent& ev : trace_.events()) {
    os << ",\n";
    WriteEventCommon(os, ev);
    switch (ev.kind) {
      case TraceEventKind::kSpan: {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"X\",\"dur\":%.3f,",
                      static_cast<double>(ev.dur_ns) / 1000.0);
        os << buf;
        WriteArgs(os, ev);
        break;
      }
      case TraceEventKind::kInstant:
        os << ",\"ph\":\"i\",\"s\":\"t\",";
        WriteArgs(os, ev);
        break;
      case TraceEventKind::kCounter:
        os << ",\"ph\":\"C\",\"args\":{\"" << ev.name << "\":" << ev.arg << "}}";
        break;
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string TraceExporter::ChromeJson() const {
  std::ostringstream os;
  WriteChromeJson(os);
  return os.str();
}

void TraceExporter::WriteTextTimeline(std::ostream& os) const {
  char buf[200];
  for (const TraceEvent& ev : trace_.events()) {
    const char* who = ev.worker < 0 ? "drv" : "wrk";
    int id = ev.worker < 0 ? 0 : ev.worker;
    if (ev.kind == TraceEventKind::kSpan) {
      std::snprintf(buf, sizeof(buf),
                    "[%12.3f us +%11.3f us] %s%-2d task=%-4" PRId64 " a%d  %-18s arg=%" PRId64
                    "\n",
                    static_cast<double>(ev.ts_ns) / 1000.0,
                    static_cast<double>(ev.dur_ns) / 1000.0, who, id, ev.task, ev.attempt,
                    ev.name, ev.arg);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "[%12.3f us               ] %s%-2d task=%-4" PRId64 " a%d  %-18s arg=%" PRId64
                    "\n",
                    static_cast<double>(ev.ts_ns) / 1000.0, who, id, ev.task, ev.attempt,
                    ev.name, ev.arg);
    }
    os << buf;
  }
}

std::string TraceExporter::TextTimeline() const {
  std::ostringstream os;
  WriteTextTimeline(os);
  return os.str();
}

}  // namespace gerenuk
