#include "src/exec/task_scheduler.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/exec/executor_pool.h"

namespace gerenuk {

TaskScheduler::TaskScheduler(int num_workers, const HeapConfig& worker_heap_config,
                             KlassRegistry* shared_klasses, MemoryTracker* tracker,
                             bool process_mode)
    : process_mode_(process_mode) {
  GERENUK_CHECK(num_workers >= 1) << "num_workers must be >= 1";
  contexts_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    contexts_.push_back(
        std::make_unique<WorkerContext>(w, worker_heap_config, shared_klasses, tracker));
  }
  // Process mode never spawns worker threads: the driver must be the only
  // thread of consequence when it forks executors (fork() copies only the
  // calling thread; a sibling thread holding an allocator lock at fork time
  // would deadlock the child). Codec-less stages take the inline
  // single-worker path on context 0 instead.
  if (num_workers > 1 && !process_mode_) {
    threads_.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void TaskScheduler::set_trace(Trace* trace) {
  trace_ = trace;
  for (size_t w = 0; w < contexts_.size(); ++w) {
    contexts_[w]->set_trace_sink(trace != nullptr ? trace->worker(static_cast<int>(w))
                                                  : nullptr);
  }
}

namespace {

// Brackets one task attempt: tags the sink so every event the task body
// emits (fast/slow path, ser/deser, GC pauses, aborts) carries this
// (task, attempt), and emits the enclosing kTask span — on normal exit and
// on exception unwinds alike. Declared before the span would be, so the
// span closes while the tag is still set.
class TaskTraceScope {
 public:
  TaskTraceScope(TraceSink* sink, int64_t task, int attempt) : sink_(sink) {
    if (sink_ != nullptr) {
      sink_->BeginTask(task, attempt);
      start_ns_ = sink_->Now();
      attempt_ = attempt;
    }
  }
  ~TaskTraceScope() {
    if (sink_ != nullptr) {
      sink_->Span(TraceEventType::kTask, "task", start_ns_, attempt_);
      sink_->EndTask();
    }
  }
  TaskTraceScope(const TaskTraceScope&) = delete;
  TaskTraceScope& operator=(const TaskTraceScope&) = delete;

 private:
  TraceSink* sink_;
  int64_t start_ns_ = 0;
  int attempt_ = 0;
};

// Reports the worker heap's unreported allocations to the shared tracker
// when a task attempt ends, normally or by exception, so the tracker is
// exact at every stage barrier despite batched reporting.
class AttemptTrackerSync {
 public:
  explicit AttemptTrackerSync(Heap& heap) : heap_(heap) {}
  ~AttemptTrackerSync() { heap_.SyncMemoryTracker(); }
  AttemptTrackerSync(const AttemptTrackerSync&) = delete;
  AttemptTrackerSync& operator=(const AttemptTrackerSync&) = delete;

 private:
  Heap& heap_;
};

}  // namespace

void TaskScheduler::ThrowIfJobCancelled() const {
  if (cancel_check_ == nullptr) {
    return;
  }
  const CancelCause cause = cancel_check_();
  if (cause != CancelCause::kNone) {
    throw JobCancelled(cause);
  }
}

void TaskScheduler::RunAttempt(WorkerContext& ctx, int task, int attempt, bool fresh_context) {
  ThrowIfJobCancelled();
  if (fresh_context) {
    // The previous attempt's executor is terminated and a fresh one
    // launched (§3.6, generalized to arbitrary faults): new heap, new
    // serializer, no roots or half-built objects carried over.
    ctx.Recycle();
  }
  const int64_t backoff_ms = policy_.BackoffMsFor(task, attempt);
  if (backoff_ms > 0) {
    // Deterministic backoff: a pure function of (task, attempt) and the
    // policy's jitter seed — reproducible schedules, no thundering herd.
    // Slept in slices so a job-level cancel interrupts the wait instead of
    // riding out the full (possibly long) backoff.
    int64_t remaining_ms = backoff_ms;
    while (remaining_ms > 0) {
      ThrowIfJobCancelled();
      const int64_t slice_ms = remaining_ms < 10 ? remaining_ms : 10;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice_ms));
      remaining_ms -= slice_ms;
    }
    ThrowIfJobCancelled();
  }
  ctx.BeginAttempt(attempt, policy_.task_deadline_ms);
  TaskTraceScope span(ctx.trace_sink(), task, attempt);
  AttemptTrackerSync tracker_sync(ctx.heap());
  (*current_)(ctx, task);
}

bool TaskScheduler::HandleFailure(int task, int attempt, int slot, std::exception_ptr error) {
  TaskErrorKind kind = TaskErrorKind::kException;
  bool is_task_error = false;
  bool retryable = true;  // plain exceptions are retryable, like task errors
  int64_t input_records = 0;
  try {
    std::rethrow_exception(error);
  } catch (const TaskError& e) {
    is_task_error = true;
    kind = e.kind();
    retryable = e.retryable();
    input_records = e.input_records();
  } catch (const JobCancelled&) {
    // The enclosing job was cancelled (or hit its deadline): retrying would
    // just re-observe the cancel flag. Fail fast so the stage unwinds.
    retryable = false;
  } catch (...) {
  }
  TraceSink* sink = contexts_[static_cast<size_t>(slot)]->trace_sink();
  if (retryable && attempt < policy_.max_attempts) {
    Attempt next;
    next.task = task;
    next.attempt = attempt + 1;
    if (kind == TaskErrorKind::kStraggler) {
      // Straggler relaunch: the fresh attempt must not land back on the
      // machine that was slow. The ban is honored whenever a sibling
      // worker exists; a single-worker pool reuses its (recycled) context.
      next.banned_worker = slot;
      stage_relaunches_ += 1;
      if (sink != nullptr) {
        sink->InstantFor(task, attempt, TraceEventType::kStragglerRelaunch,
                         "straggler_relaunch", next.attempt);
      }
    } else {
      stage_retries_ += 1;
      if (sink != nullptr) {
        sink->InstantFor(task, attempt, TraceEventType::kRetry, "retry", next.attempt);
      }
    }
    retry_queue_.push_back(next);
    return true;
  }
  if (kind == TaskErrorKind::kCorruptInput && is_task_error &&
      policy_.quarantine == QuarantinePolicy::kSkip) {
    // Skip-and-record: the poisoned partition contributes no output (the
    // failing task released its slot per the Task contract); the loss is
    // surfaced through EngineStats instead of failing the job.
    stage_quarantined_tasks_ += 1;
    stage_quarantined_records_ += input_records;
    tasks_terminal_ += 1;
    if (sink != nullptr) {
      sink->InstantFor(task, attempt, TraceEventType::kQuarantine, "quarantine",
                       input_records);
    }
    return false;
  }
  errors_.emplace_back(task, error);
  tasks_terminal_ += 1;
  return false;
}

void TaskScheduler::RunTasksOn(WorkerContext& ctx, int slot) {
  for (;;) {
    Attempt work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (shutdown_ || tasks_terminal_ == num_tasks_) {
          return;
        }
        // Queued retries first (they are older work), skipping entries
        // banned for this worker when a sibling exists to take them.
        bool found = false;
        for (auto it = retry_queue_.begin(); it != retry_queue_.end(); ++it) {
          if (it->banned_worker == slot && contexts_.size() > 1) {
            continue;
          }
          work = *it;
          retry_queue_.erase(it);
          found = true;
          break;
        }
        if (!found && next_fresh_ < num_tasks_) {
          work = Attempt{next_fresh_, 1, -1};
          next_fresh_ += 1;
          found = true;
        }
        if (found) {
          break;
        }
        // All remaining work is in flight on other workers (or banned for
        // this one): wait for a retry to be queued or the stage to finish.
        work_cv_.wait(lock);
      }
    }
    try {
      RunAttempt(ctx, work.task, work.attempt, work.attempt > 1 && policy_.fresh_context_on_retry);
      std::lock_guard<std::mutex> lock(mu_);
      tasks_terminal_ += 1;
      if (tasks_terminal_ == num_tasks_) {
        work_cv_.notify_all();
        done_cv_.notify_all();
      }
    } catch (...) {
      // Terminate this attempt's executor context before the task can be
      // handed to anyone else, so a damaged heap never outlives the fault.
      if (policy_.fresh_context_on_retry) {
        ctx.Recycle();
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (HandleFailure(work.task, work.attempt, slot, std::current_exception())) {
        work_cv_.notify_all();
      } else if (tasks_terminal_ == num_tasks_) {
        work_cv_.notify_all();
        done_cv_.notify_all();
      }
    }
  }
}

void TaskScheduler::WorkerLoop(int slot) {
  uint64_t seen_gen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || stage_gen_ != seen_gen; });
      if (shutdown_) {
        return;
      }
      seen_gen = stage_gen_;
    }
    RunTasksOn(*contexts_[static_cast<size_t>(slot)], slot);
    {
      std::lock_guard<std::mutex> lock(mu_);
      workers_done_ += 1;
    }
    done_cv_.notify_all();
  }
}

void TaskScheduler::MergeStats(EngineStats* stage_stats) {
  for (auto& ctx : contexts_) {
    if (stage_stats != nullptr) {
      *stage_stats += ctx->stats();
    }
    ctx->stats() = EngineStats{};
  }
  if (stage_stats != nullptr) {
    stage_stats->retries += stage_retries_;
    stage_stats->straggler_relaunches += stage_relaunches_;
    stage_stats->quarantined_tasks += stage_quarantined_tasks_;
    stage_stats->quarantined_records += stage_quarantined_records_;
    stage_stats->executors_launched += stage_executors_launched_;
    stage_stats->executor_deaths += stage_executor_deaths_;
    stage_stats->executor_relaunches += stage_executor_relaunches_;
    stage_stats->heartbeats_received += stage_heartbeats_;
  }
  stage_retries_ = 0;
  stage_relaunches_ = 0;
  stage_quarantined_tasks_ = 0;
  stage_quarantined_records_ = 0;
  stage_executors_launched_ = 0;
  stage_executor_deaths_ = 0;
  stage_executor_relaunches_ = 0;
  stage_heartbeats_ = 0;
  if (trace_ != nullptr) {
    // The barrier already happened: workers are quiescent, and the lock
    // acquisitions above give the driver a consistent view of every sink.
    trace_->FlushWorkersAtBarrier();
  }
}

void TaskScheduler::RethrowFirstError() {
  if (errors_.empty()) {
    return;
  }
  std::sort(errors_.begin(), errors_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::exception_ptr first = errors_.front().second;
  errors_.clear();
  std::rethrow_exception(first);
}

void TaskScheduler::RunStage(int num_tasks, const Task& task, EngineStats* stage_stats,
                             const StageCodec* codec) {
  if (num_tasks <= 0) {
    return;
  }
  if (process_mode_ && codec != nullptr && codec->encode && codec->decode) {
    RunStageProcess(num_tasks, task, stage_stats, *codec);
    return;
  }
  if (threads_.empty()) {
    // Single-worker pool: the calling thread is the executor. The same
    // retry/quarantine state machine runs; only the fan-out is absent.
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = &task;
      num_tasks_ = num_tasks;
      next_fresh_ = 0;
      tasks_terminal_ = 0;
      retry_queue_.clear();
    }
    RunTasksOn(*contexts_[0], 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = nullptr;
    }
    MergeStats(stage_stats);
    RethrowFirstError();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = &task;
    num_tasks_ = num_tasks;
    next_fresh_ = 0;
    tasks_terminal_ = 0;
    retry_queue_.clear();
    workers_done_ = 0;
    stage_gen_ += 1;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_done_ == static_cast<int>(threads_.size()); });
    current_ = nullptr;
  }
  MergeStats(stage_stats);
  RethrowFirstError();
}

namespace {

// Supervisor-side view of one executor slot (process mode).
struct ExecSlot {
  pid_t pid = -1;
  std::unique_ptr<ExecutorChannel> channel;
  bool alive = false;
  bool busy = false;
  int task = -1;
  int attempt = 0;
  int64_t task_start_ns = 0;      // driver trace clock, at dispatch
  int64_t last_heartbeat_ms = 0;  // steady clock
  int relaunches = 0;             // fresh processes consumed after the first
};

int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string DescribeExit(int status, const char* how) {
  if (WIFSIGNALED(status)) {
    return std::string(how) + ", killed by signal " + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return std::string(how) + ", exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return how;
}

}  // namespace

void TaskScheduler::RunStageProcess(int num_tasks, const Task& task,
                                    EngineStats* stage_stats, const StageCodec& codec) {
  // The supervisor is single-threaded (process mode spawns no worker
  // threads), so the scheduler's stage state — retry_queue_, counters,
  // errors_ — needs no locking here; HandleFailure's mu_ contract is
  // trivially satisfied by exclusivity.
  current_ = &task;
  num_tasks_ = num_tasks;
  next_fresh_ = 0;
  tasks_terminal_ = 0;
  retry_queue_.clear();

  const int nslots = static_cast<int>(contexts_.size());
  std::vector<ExecSlot> slots(static_cast<size_t>(nslots));
  int alive_count = 0;
  TraceSink* driver_sink = trace_ != nullptr ? trace_->driver() : nullptr;

  auto launch = [&](int s) -> bool {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return false;
    }
    pid_t pid = ::fork();
    GERENUK_CHECK(pid >= 0) << "fork failed: " << std::strerror(errno);
    if (pid == 0) {
      ::close(fds[0]);
      ExecutorChildMain(fds[1], s, codec);  // never returns
    }
    ::close(fds[1]);
    ExecSlot& slot = slots[static_cast<size_t>(s)];
    slot.pid = pid;
    slot.channel = std::make_unique<ExecutorChannel>(fds[0]);
    slot.alive = true;
    slot.busy = false;
    slot.task = -1;
    slot.last_heartbeat_ms = SteadyMs();
    stage_executors_launched_ += 1;
    return true;
  };

  for (int s = 0; s < nslots; ++s) {
    if (launch(s)) {
      alive_count += 1;
    }
  }
  GERENUK_CHECK(alive_count > 0) << "could not launch any executor process";

  // Pulls the next runnable attempt for `s`, honoring straggler bans (when a
  // sibling slot exists) and retry backoff deadlines. Retries first: they
  // are older work.
  auto next_work = [&](int s, Attempt* out) -> bool {
    const int64_t now = SteadyMs();
    for (auto it = retry_queue_.begin(); it != retry_queue_.end(); ++it) {
      if (it->banned_worker == s && nslots > 1) {
        continue;
      }
      if (it->not_before_ms > now) {
        continue;
      }
      *out = *it;
      retry_queue_.erase(it);
      return true;
    }
    if (next_fresh_ < num_tasks_) {
      *out = Attempt{next_fresh_, 1, -1};
      next_fresh_ += 1;
      return true;
    }
    return false;
  };

  auto dispatch = [&](int s, const Attempt& a) {
    ExecSlot& slot = slots[static_cast<size_t>(s)];
    ByteBuffer msg;
    msg.WriteU32(static_cast<uint32_t>(a.task));
    msg.WriteU32(static_cast<uint32_t>(a.attempt));
    msg.WriteU8(a.attempt > 1 && policy_.fresh_context_on_retry ? 1 : 0);
    slot.busy = true;
    slot.task = a.task;
    slot.attempt = a.attempt;
    TraceSink* wsink = contexts_[static_cast<size_t>(s)]->trace_sink();
    slot.task_start_ns = wsink != nullptr ? wsink->Now() : 0;
    // A write failure means the peer died between frames; the next poll
    // round observes EOF and reroutes the task through the death path.
    slot.channel->Write(ExecMsg::kRunTask, msg.data(), msg.size());
  };

  // Drains and applies every buffered frame from slot `s`.
  auto handle_frames = [&](int s) {
    ExecSlot& slot = slots[static_cast<size_t>(s)];
    ExecMsg type;
    std::vector<uint8_t> payload;
    while (slot.channel != nullptr && slot.channel->NextFrame(&type, &payload)) {
      if (type == ExecMsg::kHeartbeat) {
        slot.last_heartbeat_ms = SteadyMs();
        stage_heartbeats_ += 1;
        continue;
      }
      if (type == ExecMsg::kTaskOk) {
        ByteReader in(payload.data(), payload.size());
        const int done_task = static_cast<int>(in.ReadU32());
        const int done_attempt = static_cast<int>(in.ReadU32());
        const uint32_t stats_len = in.ReadU32();
        const size_t stats_pos = in.position();
        EngineStats task_stats;
        if (ParseEngineStats(&in, &task_stats)) {
          contexts_[static_cast<size_t>(s)]->stats() += task_stats;
        }
        in.Seek(stats_pos + stats_len);
        // Driver-side task span, attributed to this worker's timeline so
        // the trace looks like in-process mode (child-side sinks die with
        // the child; wall-time from dispatch is the honest span).
        TraceSink* wsink = contexts_[static_cast<size_t>(s)]->trace_sink();
        if (wsink != nullptr) {
          wsink->BeginTask(done_task, done_attempt);
          wsink->Span(TraceEventType::kTask, "task", slot.task_start_ns, done_attempt);
          wsink->EndTask();
        }
        slot.busy = false;
        slot.task = -1;
        // A decode failure (hostile or damaged wire bytes) fails closed
        // through the normal failure classification — never by unwinding
        // past the supervisor with children still alive.
        try {
          codec.decode(done_task, &in);
          tasks_terminal_ += 1;
        } catch (...) {
          if (HandleFailure(done_task, done_attempt, s, std::current_exception())) {
            retry_queue_.back().not_before_ms =
                SteadyMs() + policy_.BackoffMsFor(done_task, done_attempt + 1);
          }
        }
        continue;
      }
      if (type == ExecMsg::kTaskFail) {
        ByteReader in(payload.data(), payload.size());
        const int failed_task = static_cast<int>(in.ReadU32());
        const int failed_attempt = static_cast<int>(in.ReadU32());
        const bool is_task_error = in.ReadU8() != 0;
        const TaskErrorKind kind = static_cast<TaskErrorKind>(in.ReadU8());
        const int64_t ordinal = in.ReadI64();
        const int64_t input_records = in.ReadI64();
        const std::string detail = in.ReadString();
        std::exception_ptr error =
            is_task_error
                ? std::make_exception_ptr(
                      TaskError(kind, ordinal, failed_attempt, input_records, detail))
                : std::make_exception_ptr(std::runtime_error(detail));
        slot.busy = false;
        slot.task = -1;
        if (HandleFailure(failed_task, failed_attempt, s, error)) {
          retry_queue_.back().not_before_ms =
              SteadyMs() + policy_.BackoffMsFor(failed_task, failed_attempt + 1);
        }
        continue;
      }
      // Unknown frame type: ignore (forward compatibility).
    }
  };

  // Declares slot `s` dead: reap, classify, reroute its in-flight task as
  // TaskError{kExecutorLost}, and relaunch within budget if work remains.
  // Buffered frames must already be drained (a child can complete a task
  // and die before the driver reads the result).
  auto on_executor_death = [&](int s, const char* how) {
    ExecSlot& slot = slots[static_cast<size_t>(s)];
    if (!slot.alive) {
      return;
    }
    slot.alive = false;
    alive_count -= 1;
    stage_executor_deaths_ += 1;
    slot.channel.reset();
    int status = 0;
    ::waitpid(slot.pid, &status, 0);
    slot.pid = -1;
    const std::string classify = DescribeExit(status, how);
    if (driver_sink != nullptr) {
      driver_sink->InstantFor(slot.task, slot.attempt, TraceEventType::kExecutorDead,
                              "executor_dead", s);
    }
    if (slot.busy) {
      const int lost_task = slot.task;
      const int lost_attempt = slot.attempt;
      slot.busy = false;
      slot.task = -1;
      auto error = std::make_exception_ptr(
          TaskError(TaskErrorKind::kExecutorLost, lost_task, lost_attempt, 0,
                    "executor process lost mid-task (" + classify + ")"));
      if (HandleFailure(lost_task, lost_attempt, s, error)) {
        retry_queue_.back().not_before_ms =
            SteadyMs() + policy_.BackoffMsFor(lost_task, lost_attempt + 1);
      }
    }
    const bool work_remains =
        !retry_queue_.empty() || next_fresh_ < num_tasks_ || tasks_terminal_ < num_tasks_;
    if (work_remains && slot.relaunches < supervisor_config_.max_executor_relaunches) {
      slot.relaunches += 1;
      const int budget_used = slot.relaunches;
      if (launch(s)) {
        slots[static_cast<size_t>(s)].relaunches = budget_used;
        alive_count += 1;
        stage_executor_relaunches_ += 1;
        if (driver_sink != nullptr) {
          driver_sink->InstantFor(-1, 0, TraceEventType::kExecutorRelaunch,
                                  "executor_relaunch", s);
        }
      }
    }
  };

  while (tasks_terminal_ < num_tasks_) {
    // Dispatch runnable work onto idle live executors.
    for (int s = 0; s < nslots; ++s) {
      ExecSlot& slot = slots[static_cast<size_t>(s)];
      if (!slot.alive || slot.busy) {
        continue;
      }
      Attempt a;
      if (next_work(s, &a)) {
        dispatch(s, a);
      }
    }
    if (alive_count == 0) {
      // Every executor is dead and the relaunch budget is spent; fail the
      // first still-pending task.
      int t = !retry_queue_.empty() ? retry_queue_.front().task
                                    : (next_fresh_ < num_tasks_ ? next_fresh_ : 0);
      errors_.emplace_back(
          t, std::make_exception_ptr(TaskError(
                 TaskErrorKind::kExecutorLost, t, 1, 0,
                 "all executor processes died and the relaunch budget is exhausted")));
      break;
    }

    // Poll live channels. The tick is short enough to notice heartbeat
    // deadlines and retry backoff expiries promptly.
    std::vector<struct pollfd> pfds;
    std::vector<int> pfd_slot;
    pfds.reserve(static_cast<size_t>(nslots));
    for (int s = 0; s < nslots; ++s) {
      ExecSlot& slot = slots[static_cast<size_t>(s)];
      if (slot.alive && slot.channel != nullptr) {
        pfds.push_back({slot.channel->fd(), POLLIN, 0});
        pfd_slot.push_back(s);
      }
    }
    ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/10);

    for (size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const int s = pfd_slot[i];
      ExecSlot& slot = slots[static_cast<size_t>(s)];
      if (!slot.alive || slot.channel == nullptr) {
        continue;
      }
      const bool peer_ok = slot.channel->Pump();
      handle_frames(s);
      if (!peer_ok) {
        on_executor_death(s, "connection closed");
      }
    }

    // Liveness: an executor that has neither produced frames nor
    // heartbeated for heartbeat_timeout_ms is wedged (SIGSTOP, livelock) —
    // kill it so the death path reroutes its task.
    if (supervisor_config_.heartbeat_timeout_ms > 0) {
      const int64_t now = SteadyMs();
      for (int s = 0; s < nslots; ++s) {
        ExecSlot& slot = slots[static_cast<size_t>(s)];
        if (!slot.alive ||
            now - slot.last_heartbeat_ms <= supervisor_config_.heartbeat_timeout_ms) {
          continue;
        }
        ::kill(slot.pid, SIGKILL);
        if (slot.channel != nullptr) {
          slot.channel->Pump();
          handle_frames(s);
        }
        on_executor_death(s, "heartbeat timeout");
      }
    }
  }

  // Teardown: ask every live executor to exit and close its channel (EOF is
  // a second exit signal) before reaping any, so the children wind down
  // together instead of one after another.
  for (ExecSlot& slot : slots) {
    if (slot.alive && slot.channel != nullptr) {
      slot.channel->Write(ExecMsg::kShutdown, nullptr, 0);
    }
    slot.channel.reset();
  }
  for (ExecSlot& slot : slots) {
    if (slot.pid > 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
  }
  current_ = nullptr;
  if (driver_sink != nullptr && stage_heartbeats_ > 0) {
    // One counter sample per stage: heartbeat cadence is timing-dependent,
    // so the count is observability, never an invariant.
    driver_sink->Counter(TraceEventType::kHeartbeat, "heartbeats", stage_heartbeats_);
  }
  MergeStats(stage_stats);
  RethrowFirstError();
}

void TaskScheduler::ExecutorChildMain(int fd, int slot, const StageCodec& codec) {
  SetInForkedExecutor(true);
  WorkerContext& ctx = *contexts_[static_cast<size_t>(slot)];
  // The child's trace sink writes to fork-copied memory the driver never
  // sees; detach it so task bodies do not waste time tracing into the void.
  ctx.set_trace_sink(nullptr);
  std::mutex write_mu;
  // The heartbeat thread waits on `stop_cv`, so shutdown wakes it at once
  // instead of waiting out its interval.
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  const int64_t hb_ms = supervisor_config_.heartbeat_ms > 0 ? supervisor_config_.heartbeat_ms : 25;
  std::thread heartbeat([fd, hb_ms, &write_mu, &stop_mu, &stop_cv, &stop] {
    std::unique_lock<std::mutex> lock(stop_mu);
    while (!stop_cv.wait_for(lock, std::chrono::milliseconds(hb_ms), [&stop] { return stop; })) {
      lock.unlock();
      const bool sent = WriteFrame(fd, ExecMsg::kHeartbeat, nullptr, 0, &write_mu);
      lock.lock();
      if (!sent) {
        break;  // driver is gone
      }
    }
  });

  ExecMsg type;
  std::vector<uint8_t> payload;
  while (ReadFrameBlocking(fd, &type, &payload)) {
    if (type == ExecMsg::kShutdown) {
      break;
    }
    if (type != ExecMsg::kRunTask || payload.size() < 9) {
      continue;
    }
    ByteReader in(payload.data(), payload.size());
    const int run_task = static_cast<int>(in.ReadU32());
    const int run_attempt = static_cast<int>(in.ReadU32());
    const bool fresh = in.ReadU8() != 0;
    try {
      if (fresh) {
        ctx.Recycle();
      }
      // Per-task stats: reset, run, ship the delta home with the result so
      // the driver accumulates exactly what in-process mode would.
      ctx.stats() = EngineStats{};
      ctx.BeginAttempt(run_attempt, policy_.task_deadline_ms);
      (*current_)(ctx, run_task);
      // Task, attempt and the stats' byte size (patched once written), then
      // the stats, written in place. The header fits the reserved capacity,
      // so its append never takes the growth path.
      const uint32_t header[3] = {static_cast<uint32_t>(run_task),
                                  static_cast<uint32_t>(run_attempt), 0};
      ByteBuffer ok(sizeof(header));
      ok.WriteBytes(header, sizeof(header));
      SerializeEngineStats(ctx.stats(), &ok);
      ok.PatchU32(8, static_cast<uint32_t>(ok.size() - sizeof(header)));
      codec.encode(run_task, &ok);
      if (!WriteFrame(fd, ExecMsg::kTaskOk, ok.data(), ok.size(), &write_mu)) {
        break;
      }
    } catch (...) {
      ByteBuffer fail;
      fail.WriteU32(static_cast<uint32_t>(run_task));
      fail.WriteU32(static_cast<uint32_t>(run_attempt));
      uint8_t is_task_error = 0;
      uint8_t kind = 0;
      int64_t ordinal = run_task;
      int64_t input_records = 0;
      std::string detail;
      try {
        throw;
      } catch (const TaskError& e) {
        is_task_error = 1;
        kind = static_cast<uint8_t>(e.kind());
        ordinal = e.task_ordinal();
        input_records = e.input_records();
        detail = e.detail();
      } catch (const std::exception& e) {
        detail = e.what();
      } catch (...) {
        detail = "unknown executor exception";
      }
      fail.WriteU8(is_task_error);
      fail.WriteU8(kind);
      fail.WriteI64(ordinal);
      fail.WriteI64(input_records);
      fail.WriteString(detail);
      // Tear the damaged context down here, not on the retry dispatch: the
      // retry may land on another executor, but THIS process must not keep
      // a poisoned heap alive either way.
      if (policy_.fresh_context_on_retry) {
        ctx.Recycle();
      }
      if (!WriteFrame(fd, ExecMsg::kTaskFail, fail.data(), fail.size(), &write_mu)) {
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop = true;
  }
  stop_cv.notify_one();
  heartbeat.join();
  ::_exit(0);
}

void TaskScheduler::RunStageSerial(int num_tasks, const Task& task, EngineStats* stage_stats) {
  WorkerContext& ctx = *contexts_[0];
  for (int t = 0; t < num_tasks; ++t) {
    try {
      ThrowIfJobCancelled();
      TaskTraceScope span(ctx.trace_sink(), t, 1);
      AttemptTrackerSync tracker_sync(ctx.heap());
      task(ctx, t);
    } catch (...) {
      errors_.emplace_back(t, std::current_exception());
      break;  // a serial stage stops at the first failure, like the seed did
    }
  }
  MergeStats(stage_stats);
  RethrowFirstError();
}

}  // namespace gerenuk
