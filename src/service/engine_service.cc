#include "src/service/engine_service.h"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "src/support/logging.h"

namespace gerenuk {

namespace {

int64_t NanosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

// Steady-clock nanoseconds since its (arbitrary) epoch: the representation
// JobState::deadline_steady_ns uses, comparable across threads.
int64_t NowSteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const ServiceConfig& ValidatedServiceConfig(const ServiceConfig& config) {
  const std::string error = config.Validate();
  GERENUK_CHECK(error.empty()) << "invalid ServiceConfig: " << error;
  return config;
}

std::string RejectionMessage(AdmitResult result) {
  switch (result) {
    case AdmitResult::kRejectedGlobalDepth:
      return "admission refused: global queue depth bound hit (max_queue_depth)";
    case AdmitResult::kRejectedTenantDepth:
      return "admission refused: per-tenant queue depth bound hit (max_queue_depth_per_tenant)";
    case AdmitResult::kRejectedBytes:
      return "admission refused: in-flight byte budget exhausted (max_inflight_bytes)";
    case AdmitResult::kRejectedShutdown:
      return "admission refused: service shut down";
    case AdmitResult::kAdmitted:
      break;
  }
  return "admission refused";
}

}  // namespace

std::string ServiceConfig::Validate() const {
  if (num_engines < 1) {
    return "num_engines must be >= 1 (got " + std::to_string(num_engines) + ")";
  }
  if (max_queue_depth < 1) {
    return "max_queue_depth must be >= 1 (got " + std::to_string(max_queue_depth) + ")";
  }
  if (max_queue_depth_per_tenant < 1 || max_queue_depth_per_tenant > max_queue_depth) {
    return "max_queue_depth_per_tenant must be in [1, max_queue_depth] (got " +
           std::to_string(max_queue_depth_per_tenant) + " with max_queue_depth " +
           std::to_string(max_queue_depth) + ")";
  }
  if (drr_quantum < 1) {
    return "drr_quantum must be >= 1 (got " + std::to_string(drr_quantum) + ")";
  }
  if (max_inflight_bytes == 0 || max_inflight_bytes < -1) {
    return "max_inflight_bytes must be > 0, or -1 to disable byte-quota admission (got " +
           std::to_string(max_inflight_bytes) + "); a zero budget would reject every sized job";
  }
  if (max_inflight_bytes_per_tenant == 0 || max_inflight_bytes_per_tenant < -1) {
    return "max_inflight_bytes_per_tenant must be > 0, or -1 to disable (got " +
           std::to_string(max_inflight_bytes_per_tenant) +
           "); a zero budget would reject every sized job";
  }
  if (max_inflight_bytes > 0 && max_inflight_bytes_per_tenant > max_inflight_bytes) {
    return "max_inflight_bytes_per_tenant must be <= max_inflight_bytes (got " +
           std::to_string(max_inflight_bytes_per_tenant) + " with max_inflight_bytes " +
           std::to_string(max_inflight_bytes) + ")";
  }
  if (default_deadline_ms < 0) {
    return "default_deadline_ms must be >= 0, where 0 means no deadline (got " +
           std::to_string(default_deadline_ms) + ")";
  }
  if (breaker_failure_threshold < 1) {
    return "breaker_failure_threshold must be >= 1 (got " +
           std::to_string(breaker_failure_threshold) + ")";
  }
  if (breaker_probe_jobs < 1) {
    return "breaker_probe_jobs must be >= 1 (got " + std::to_string(breaker_probe_jobs) + ")";
  }
  if (breaker_open_ms < 0) {
    return "breaker_open_ms must be >= 0 (got " + std::to_string(breaker_open_ms) + ")";
  }
  if (plan_cache_budget_bytes == 0) {
    return "plan_cache_budget_bytes must be non-zero: every insert would thrash";
  }
  if (engine.execution.process_executors) {
    return "process_executors is incompatible with service mode: dispatcher "
           "threads cannot fork executor processes safely";
  }
  if (hadoop_num_reducers < 1) {
    return "hadoop_num_reducers must be >= 1 (got " + std::to_string(hadoop_num_reducers) + ")";
  }
  if (hadoop_sort_buffer_bytes == 0) {
    return "hadoop_sort_buffer_bytes must be non-zero: every emit would spill";
  }
  return engine.Validate();
}

EngineService::EngineService(const ServiceConfig& config) : config_(ValidatedServiceConfig(config)) {
  // The pooled engines run with the engine-wide governor disabled; the
  // per-tenant oracle (fed from config_.engine.fault.governor_*) replaces it.
  pooled_config_ = config_.engine;
  pooled_config_.fault.governor_abort_threshold = -1.0;
  pooled_hadoop_config_.engine = pooled_config_;
  pooled_hadoop_config_.num_reducers = config_.hadoop_num_reducers;
  pooled_hadoop_config_.sort_buffer_bytes = config_.hadoop_sort_buffer_bytes;

  admission_ = std::make_shared<AdmissionController>(
      config_.max_queue_depth, config_.max_queue_depth_per_tenant, config_.drr_quantum,
      config_.max_inflight_bytes, config_.max_inflight_bytes_per_tenant);
  if (config_.engine.observability.trace) {
    service_trace_ =
        std::make_unique<Trace>(/*num_workers=*/0, config_.engine.observability.trace_buffer_events);
  }

  slots_.reserve(static_cast<size_t>(config_.num_engines));
  for (int i = 0; i < config_.num_engines; ++i) {
    auto slot = std::make_unique<EngineSlot>(config_.plan_cache_budget_bytes);
    // Setup runs on this thread before the dispatcher exists; the thread
    // start below publishes its effects to the dispatcher.
    BuildSlotEngines(slot.get(), i);
    slots_.push_back(std::move(slot));
  }
  for (auto& slot : slots_) {
    slot->dispatcher = std::thread(&EngineService::DispatchLoop, this, slot.get());
  }
}

EngineService::~EngineService() { Shutdown(); }

void EngineService::Shutdown() {
  if (shut_down_.exchange(true)) {
    return;
  }
  admission_->Shutdown();
  for (auto& slot : slots_) {
    if (slot->dispatcher.joinable()) {
      slot->dispatcher.join();
    }
  }
}

void EngineService::BuildSlotEngines(EngineSlot* slot, int index) {
  // Cached artifacts hold pointers into the engines they were compiled on —
  // clear the caches before the old engines go away, never after.
  slot->spark_cache.Clear();
  slot->hadoop_cache.Clear();
  slot->spark.reset();
  slot->hadoop.reset();
  slot->spark = std::make_unique<SparkEngine>(pooled_config_);
  slot->hadoop = std::make_unique<HadoopEngine>(pooled_hadoop_config_);
  for (auto [engine, cache] : slot->engines()) {
    engine->set_plan_cache(cache);
  }
  slot->ctx.spark = slot->spark.get();
  slot->ctx.hadoop = slot->hadoop.get();
  slot->ctx.slot = index;
  slot->ctx.setup.reset();
  if (config_.setup != nullptr) {
    slot->ctx.setup = config_.setup(slot->ctx);
  }
}

bool EngineService::TripBreaker(int slot) {
  if (slot < 0 || slot >= static_cast<int>(slots_.size())) {
    return false;
  }
  slots_[static_cast<size_t>(slot)]->kill_requested.store(true, std::memory_order_release);
  return true;
}

JobHandle EngineService::Submit(const std::string& tenant, JobSpec spec) {
  auto state = std::make_shared<internal::JobState>();
  state->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  state->tenant = tenant;
  state->admission = admission_;
  const int64_t id = static_cast<int64_t>(state->id);

  if (spec.deadline_ms < 0) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.status = JobStatus::kRejected;
      state->result.error = "invalid JobSpec: deadline_ms must be >= 0, where 0 means the "
                            "service default (got " +
                            std::to_string(spec.deadline_ms) + ")";
    }
    ServiceInstant(TraceEventType::kAdmissionReject, "rejected_invalid_spec", id);
    return JobHandle(std::move(state));
  }
  const int64_t deadline_ms = spec.deadline_ms > 0 ? spec.deadline_ms : config_.default_deadline_ms;
  if (deadline_ms > 0) {
    state->deadline_steady_ns = NowSteadyNs() + deadline_ms * 1000000;
  }

  QueuedJob job;
  job.tenant = tenant;
  job.spec = std::move(spec);
  job.state = state;
  job.enqueued = std::chrono::steady_clock::now();
  const AdmitResult admit = admission_->Submit(std::move(job));
  if (admit != AdmitResult::kAdmitted) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.status = JobStatus::kRejected;
      state->result.error = RejectionMessage(admit);
    }
    state->cv.notify_all();
    ServiceInstant(TraceEventType::kAdmissionReject, AdmitResultName(admit), id);
  }
  return JobHandle(std::move(state));
}

void EngineService::DispatchLoop(EngineSlot* slot) {
  QueuedJob job;
  while (admission_->Next(&job)) {
    if (slot->kill_requested.exchange(false, std::memory_order_acq_rel)) {
      // Simulated slot loss (TripBreaker): open as if the failure threshold
      // had been crossed. The popped job then runs on the rebuilt engines.
      OpenBreaker(slot);
    }
    RunOne(slot, &job);
    job = QueuedJob();  // drop the body + handle reference before blocking
  }
}

void EngineService::ResolveUnrun(QueuedJob* job, JobStatus status, const char* error) {
  const int64_t queue_wait_ns = NanosBetween(job->enqueued, std::chrono::steady_clock::now());
  admission_->Release(job->tenant, job->byte_charge);
  const bool deadline = status == JobStatus::kDeadlineExceeded;
  (deadline ? jobs_deadline_exceeded_ : jobs_cancelled_).fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants_[job->tenant].registry.Counter(deadline ? "jobs_deadline_exceeded" : "jobs_cancelled") +=
        1;
  }
  ServiceInstant(TraceEventType::kJobCancel,
                 deadline ? "job_deadline_exceeded" : "job_cancelled",
                 static_cast<int64_t>(job->state->id));
  {
    std::lock_guard<std::mutex> lock(job->state->mu);
    JobResult& result = job->state->result;
    if (internal::IsTerminal(result.status)) {
      return;  // a concurrent JobHandle::cancel resolved it first
    }
    result.status = status;
    result.error = error;
    result.queue_wait_ns = queue_wait_ns;
  }
  job->state->cv.notify_all();
}

void EngineService::RunOne(EngineSlot* slot, QueuedJob* job) {
  internal::JobState* state = job->state.get();
  // Queue-side terminal checks: a job whose cancel or deadline fired while
  // it waited never touches an engine (its stats stay zero).
  if (state->cancel_requested.load(std::memory_order_acquire)) {
    ResolveUnrun(job, JobStatus::kCancelled, "cancelled before the body started");
    return;
  }
  if (state->deadline_steady_ns > 0 && NowSteadyNs() >= state->deadline_steady_ns) {
    ResolveUnrun(job, JobStatus::kDeadlineExceeded, "deadline expired in the admission queue");
    return;
  }

  const auto started = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->result.status = JobStatus::kRunning;
  }
  state->cv.notify_all();

  // Per-job scoping: metrics (and the merged trace, when tracing) restart
  // from zero so the snapshot after the body is this job's delta.
  for (auto [engine, cache] : slot->engines()) {
    engine->ResetMetrics();
    if (engine->trace() != nullptr) {
      engine->trace()->ResetMerged();
    }
  }
  InstallOracle(slot, job->tenant);

  // Cooperative cancellation: both engines probe this at every task-attempt
  // boundary while the body runs. The raw JobState pointer is safe — the
  // check is detached below before `job` releases its state reference.
  const int64_t deadline_ns = state->deadline_steady_ns;
  CancelCheck check = [state, deadline_ns]() {
    if (state->cancel_requested.load(std::memory_order_acquire)) {
      return CancelCause::kUserCancel;
    }
    if (deadline_ns > 0 && NowSteadyNs() >= deadline_ns) {
      return CancelCause::kDeadline;
    }
    return CancelCause::kNone;
  };
  for (auto [engine, cache] : slot->engines()) {
    engine->set_cancel_check(check);
  }

  std::string output;
  std::string error;
  JobStatus status = JobStatus::kSucceeded;
  if (job->spec.run == nullptr) {
    status = JobStatus::kFailed;
    error = "job has no body";
  } else {
    try {
      output = job->spec.run(slot->ctx);
      // A body that finishes despite a set cancel flag still succeeds: the
      // work is done, throwing it away would help no one.
    } catch (const JobCancelled& e) {
      status = e.cause() == CancelCause::kDeadline ? JobStatus::kDeadlineExceeded
                                                   : JobStatus::kCancelled;
      error = e.what();
    } catch (const std::exception& e) {
      status = JobStatus::kFailed;
      error = e.what();
    } catch (...) {
      status = JobStatus::kFailed;
      error = "job body threw a non-exception value";
    }
  }
  for (auto [engine, cache] : slot->engines()) {
    engine->set_cancel_check(nullptr);
  }
  const auto finished = std::chrono::steady_clock::now();

  EngineStats stats = slot->spark->stats();
  stats += slot->hadoop->stats();
  const int64_t queue_wait_ns = NanosBetween(job->enqueued, started);
  const int64_t exec_ns = NanosBetween(started, finished);
  const int64_t output_bytes = static_cast<int64_t>(output.size());

  admission_->Release(job->tenant, job->byte_charge);
  if (status == JobStatus::kSucceeded) {
    admission_->ObserveCompletion(job->tenant, job->spec.input_bytes, output_bytes);
  } else if (status == JobStatus::kCancelled) {
    jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
    ServiceInstant(TraceEventType::kJobCancel, "job_cancelled", static_cast<int64_t>(state->id));
  } else if (status == JobStatus::kDeadlineExceeded) {
    jobs_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    ServiceInstant(TraceEventType::kJobCancel, "job_deadline_exceeded",
                   static_cast<int64_t>(state->id));
  }

  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    TenantState& tenant = tenants_[job->tenant];
    tenant.jobs_completed += 1;
    stats.ExportTo(&tenant.registry);
    const char* outcome = status == JobStatus::kSucceeded          ? "jobs_succeeded"
                          : status == JobStatus::kFailed           ? "jobs_failed"
                          : status == JobStatus::kCancelled        ? "jobs_cancelled"
                                                                   : "jobs_deadline_exceeded";
    tenant.registry.Counter(outcome) += 1;
    tenant.registry.Hist("job_queue_wait", MetricUnit::kNanos).Record(queue_wait_ns);
    tenant.registry.Hist("job_exec", MetricUnit::kNanos).Record(exec_ns);
  }

  // Breaker bookkeeping before the handle resolves: once a waiter observes
  // the terminal status, breaker_stats() already reflects this job. A
  // threshold-crossing failure pays for its slot rebuild here — rare, and
  // the job it delays is the one that broke the slot.
  ObserveJobOutcome(slot, status, stats.executor_deaths);

  {
    std::lock_guard<std::mutex> lock(state->mu);
    JobResult& result = state->result;
    result.status = status;
    result.output = std::move(output);
    result.error = std::move(error);
    result.stats = stats;
    result.queue_wait_ns = queue_wait_ns;
    result.exec_ns = exec_ns;
  }
  state->cv.notify_all();
}

void EngineService::OpenBreaker(EngineSlot* slot) {
  const int64_t slot_index = slot->ctx.slot;
  slot->state.store(BreakerState::kOpen, std::memory_order_relaxed);
  breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  ServiceInstant(TraceEventType::kBreaker, "breaker_open", slot_index);
  // Drain is implicit: each slot runs one job at a time on its own
  // dispatcher, so by the time the breaker opens there is no in-flight work
  // on the slot, and nothing dispatches to it while its dispatcher is here.
  BuildSlotEngines(slot, static_cast<int>(slot_index));
  breaker_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  ServiceInstant(TraceEventType::kBreaker, "breaker_rebuild", slot_index);
  if (config_.breaker_open_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(config_.breaker_open_ms));
  }
  slot->probe_successes = 0;
  slot->state.store(BreakerState::kHalfOpen, std::memory_order_relaxed);
  breaker_half_opens_.fetch_add(1, std::memory_order_relaxed);
  ServiceInstant(TraceEventType::kBreaker, "breaker_half_open", slot_index);
}

void EngineService::ObserveJobOutcome(EngineSlot* slot, JobStatus status,
                                      int64_t executor_deaths) {
  const BreakerState state = slot->state.load(std::memory_order_relaxed);
  if (status == JobStatus::kSucceeded) {
    if (state == BreakerState::kHalfOpen) {
      slot->probe_successes += 1;
      if (slot->probe_successes >= config_.breaker_probe_jobs) {
        slot->health.Reset();
        slot->state.store(BreakerState::kClosed, std::memory_order_relaxed);
        breaker_closes_.fetch_add(1, std::memory_order_relaxed);
        ServiceInstant(TraceEventType::kBreaker, "breaker_close", slot->ctx.slot);
      }
    } else {
      slot->health.OnSuccess();
    }
    return;
  }
  if (status != JobStatus::kFailed) {
    return;  // cancelled / deadline-exceeded jobs say nothing about slot health
  }
  slot->health.OnFailure(executor_deaths);
  if (state == BreakerState::kHalfOpen) {
    breaker_probe_failures_.fetch_add(1, std::memory_order_relaxed);
    ServiceInstant(TraceEventType::kBreaker, "breaker_probe_failure", slot->ctx.slot);
    OpenBreaker(slot);
    return;
  }
  if (state == BreakerState::kClosed &&
      slot->health.score >= static_cast<double>(config_.breaker_failure_threshold)) {
    OpenBreaker(slot);
  }
}

void EngineService::ServiceInstant(TraceEventType type, const char* name, int64_t arg) {
  if (service_trace_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(service_trace_mu_);
  service_trace_->driver()->Instant(type, name, arg);
}

void EngineService::InstallOracle(EngineSlot* slot, const std::string& tenant) {
  SpeculationOracle oracle;
  oracle.should_speculate = [this, tenant](uint64_t signature_hash) {
    return TenantShouldSpeculate(tenant, signature_hash);
  };
  oracle.observe = [this, tenant](uint64_t signature_hash, int tasks, int aborts) {
    TenantObserve(tenant, signature_hash, tasks, aborts);
  };
  for (auto [engine, cache] : slot->engines()) {
    engine->set_speculation_oracle(oracle);
  }
}

bool EngineService::TenantShouldSpeculate(const std::string& tenant,
                                          uint64_t signature_hash) const {
  const double threshold = config_.engine.fault.governor_abort_threshold;
  if (threshold <= 0.0) {
    return true;  // oracle disabled; history still accumulates
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto tenant_it = tenants_.find(tenant);
  if (tenant_it == tenants_.end()) {
    return true;
  }
  auto history_it = tenant_it->second.speculation.find(signature_hash);
  if (history_it == tenant_it->second.speculation.end()) {
    return true;
  }
  const auto [tasks, aborts] = history_it->second;
  if (tasks < config_.engine.fault.governor_min_tasks) {
    return true;
  }
  return static_cast<double>(aborts) < threshold * static_cast<double>(tasks);
}

void EngineService::TenantObserve(const std::string& tenant, uint64_t signature_hash,
                                  int tasks, int aborts) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& entry = tenants_[tenant].speculation[signature_hash];
  entry.first += tasks;
  entry.second += aborts;
}

MetricsRegistry EngineService::metrics() const {
  MetricsRegistry out;
  const AdmissionController::Stats admission = admission_->stats();
  out.Counter("service.jobs_submitted") = admission.submitted;
  out.Counter("service.jobs_rejected") = admission.rejected;
  out.Counter("service.jobs_dispatched") = admission.dispatched;
  out.Counter("service.rejected_tenant_depth") = admission.rejected_tenant_depth;
  out.Counter("service.rejected_global_depth") = admission.rejected_global_depth;
  out.Counter("service.rejected_bytes") = admission.rejected_bytes;
  out.Counter("service.rejected_shutdown") = admission.rejected_shutdown;
  out.Counter("service.jobs_cancelled_queued") = admission.cancelled_queued;
  out.Counter("service.inflight_bytes") = admission.inflight_bytes;
  out.Counter("service.jobs_cancelled") = jobs_cancelled_.load(std::memory_order_relaxed);
  out.Counter("service.jobs_deadline_exceeded") =
      jobs_deadline_exceeded_.load(std::memory_order_relaxed);
  const BreakerStats breaker = breaker_stats();
  out.Counter("service.breaker.opens") = breaker.opens;
  out.Counter("service.breaker.rebuilds") = breaker.rebuilds;
  out.Counter("service.breaker.half_opens") = breaker.half_opens;
  out.Counter("service.breaker.closes") = breaker.closes;
  out.Counter("service.breaker.probe_failures") = breaker.probe_failures;
  const PlanCache::Stats cache = plan_cache_stats();
  out.Counter("service.plan_cache.hits") = cache.hits;
  out.Counter("service.plan_cache.misses") = cache.misses;
  out.Counter("service.plan_cache.evictions") = cache.evictions;
  out.Counter("service.plan_cache.insertions") = cache.insertions;
  out.Counter("service.plan_cache.bytes") = cache.bytes;
  out.Counter("service.plan_cache.entries") = cache.entries;
  std::lock_guard<std::mutex> lock(tenants_mu_);
  for (const auto& [name, tenant] : tenants_) {
    const std::string prefix = "tenant." + name + ".";
    out.Counter(prefix + "jobs_completed") = tenant.jobs_completed;
    out.MergeWithPrefix(prefix, tenant.registry);
  }
  return out;
}

PlanCache::Stats EngineService::plan_cache_stats() const {
  PlanCache::Stats total;
  for (const auto& slot : slots_) {
    for (const PlanCache* cache : {&slot->spark_cache, &slot->hadoop_cache}) {
      const PlanCache::Stats s = cache->stats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
      total.insertions += s.insertions;
      total.bytes += s.bytes;
      total.entries += s.entries;
    }
  }
  return total;
}

AdmissionController::Stats EngineService::admission_stats() const { return admission_->stats(); }

EngineService::BreakerStats EngineService::breaker_stats() const {
  BreakerStats out;
  out.opens = breaker_opens_.load(std::memory_order_relaxed);
  out.rebuilds = breaker_rebuilds_.load(std::memory_order_relaxed);
  out.half_opens = breaker_half_opens_.load(std::memory_order_relaxed);
  out.closes = breaker_closes_.load(std::memory_order_relaxed);
  out.probe_failures = breaker_probe_failures_.load(std::memory_order_relaxed);
  return out;
}

MetricsRegistry EngineService::TenantMetrics(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return MetricsRegistry();
  }
  MetricsRegistry out = it->second.registry;
  out.Counter("jobs_completed") = it->second.jobs_completed;
  return out;
}

int64_t EngineService::TenantJobsCompleted(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  return it != tenants_.end() ? it->second.jobs_completed : 0;
}

}  // namespace gerenuk
