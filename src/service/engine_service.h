// Multi-tenant service mode: one EngineService owns a pool of engines and
// accepts jobs from many concurrent clients.
//
//   EngineService service(config);
//   Session alice = service.CreateSession("alice");
//   JobHandle h = alice.Submit({"wordcount", /*cost=*/1, body});
//   const JobResult& r = h.wait();   // r.output, r.stats, ...
//
// Architecture (see DESIGN.md "Service mode & plan cache" and "Service
// resilience"):
//   * Every engine slot pairs a SparkEngine and a HadoopEngine with their
//     own signature-keyed PlanCaches (cached artifacts hold engine-local
//     pointers, so caches never cross engines) and one dispatcher thread.
//   * Submissions flow through the AdmissionController: bounded global and
//     per-tenant queue depth, in-flight byte quotas, DRR fair-share dispatch
//     across tenants, priority order within a tenant.
//   * Jobs carry optional deadlines and can be cancelled: expiry and
//     JobHandle::cancel() set a cooperative flag the scheduler probes at
//     every task-attempt boundary, so a running job unwinds at the next
//     boundary with its partial stats; a still-queued job resolves
//     synchronously without ever running.
//   * Per-slot circuit breaker: a decayed failure score per slot; past the
//     threshold the breaker opens — the slot's engines are torn down and
//     rebuilt (caches cleared, setup re-run) — then half-opens, closing
//     again after `breaker_probe_jobs` consecutive successes.
//   * Per-job scoping: the dispatcher resets the slot's engine metrics (and
//     merged trace, when tracing) before each body runs, so JobResult.stats
//     is this job's delta; the deltas also accumulate into the tenant's
//     MetricsRegistry, surfaced namespaced ("tenant.<id>.*") by metrics().
//   * Speculation is governed per tenant per SER: the service keeps an
//     abort-rate history keyed by (tenant, signature hash) and installs a
//     SpeculationOracle on the slot's engines before each job. The pooled
//     engines run with their own engine-wide governor disabled — otherwise
//     one tenant's hostile inputs would flip speculation off for everyone.
#ifndef SRC_SERVICE_ENGINE_SERVICE_H_
#define SRC_SERVICE_ENGINE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/dataflow/spark.h"
#include "src/exec/plan_cache.h"
#include "src/mapreduce/hadoop.h"
#include "src/service/admission.h"
#include "src/service/job.h"
#include "src/support/trace.h"

namespace gerenuk {

// Runs once per engine slot, before its dispatcher starts: register data
// types, build SER programs, and return a payload handed to every job that
// runs on the slot (EngineContext::setup). Also re-run after a circuit
// breaker rebuilds a slot's engines, so it must be safe to call again on a
// fresh engine pair.
using EngineSetup = std::function<std::shared_ptr<void>(EngineContext&)>;

struct ServiceConfig {
  // Template for every pooled engine. The service forces the engine-wide
  // speculation governor off on the pooled copies; `fault.governor_*` here
  // configures the per-tenant-per-SER oracle instead.
  EngineConfig engine;
  // Mini-Hadoop knobs of the pooled HadoopEngines (their `.engine` is the
  // template above).
  int hadoop_num_reducers = 2;
  size_t hadoop_sort_buffer_bytes = 1u << 20;
  // Pool size: engine slots, one dispatcher thread each.
  int num_engines = 2;
  // Admission bounds + DRR quantum (see admission.h).
  int max_queue_depth = 256;
  int max_queue_depth_per_tenant = 64;
  int64_t drr_quantum = 4;
  // In-flight byte budgets for byte-quota admission; -1 disables. 0 is
  // invalid (it would reject every sized job — name the budget instead).
  int64_t max_inflight_bytes = -1;
  int64_t max_inflight_bytes_per_tenant = -1;
  // Deadline applied to jobs whose spec leaves deadline_ms == 0; 0 = none.
  int64_t default_deadline_ms = 0;
  // Circuit breaker: a slot's decayed failure score reaching the threshold
  // opens its breaker (rebuild); after `breaker_open_ms` the breaker
  // half-opens, and `breaker_probe_jobs` consecutive successes close it.
  int breaker_failure_threshold = 5;
  int breaker_probe_jobs = 2;
  int64_t breaker_open_ms = 0;
  // Per-cache byte budget; each slot owns two caches (Spark + Hadoop).
  size_t plan_cache_budget_bytes = 64u << 20;
  // Optional per-slot setup (klasses + SER programs built once per engine).
  EngineSetup setup;

  // Returns "" when valid, otherwise a descriptive one-line error.
  std::string Validate() const;
};

class Session;

class EngineService {
 public:
  // Slot circuit-breaker lifecycle counters, summed over all slots.
  struct BreakerStats {
    int64_t opens = 0;            // closed/half-open -> open transitions
    int64_t rebuilds = 0;         // engine teardown+rebuild cycles (== opens)
    int64_t half_opens = 0;       // open -> half-open transitions
    int64_t closes = 0;           // half-open -> closed (probe successes)
    int64_t probe_failures = 0;   // half-open jobs that failed (re-opens)
  };

  // Validates `config` (GERENUK_CHECK on error), builds the pool, runs
  // `config.setup` on every slot, and starts the dispatchers.
  explicit EngineService(const ServiceConfig& config);
  ~EngineService();  // Shutdown() + join

  EngineService(const EngineService&) = delete;
  EngineService& operator=(const EngineService&) = delete;

  // Sessions are lightweight per-tenant handles; any number may share a
  // tenant id. The service must outlive every session.
  Session CreateSession(const std::string& tenant);

  // Thread-safe; callable from any number of client threads. Returns a
  // handle already resolved to kRejected when the spec is invalid or
  // admission refuses the job (the error names the bound that fired).
  JobHandle Submit(const std::string& tenant, JobSpec spec);

  // Stops admission, drains the queue, joins the dispatchers. Idempotent;
  // also run by the destructor.
  void Shutdown();

  // Chaos / operations hook: marks slot `slot` as lost. Its dispatcher
  // opens the breaker (teardown + rebuild) before running its next job, as
  // if the failure threshold had been crossed. Returns false for an
  // out-of-range slot. Thread-safe.
  bool TripBreaker(int slot);

  // Admission counters + pool-wide plan-cache stats + breaker/cancel
  // counters + every tenant's registry namespaced under "tenant.<id>.".
  MetricsRegistry metrics() const;

  // Aggregated over every slot's two caches.
  PlanCache::Stats plan_cache_stats() const;
  AdmissionController::Stats admission_stats() const;
  BreakerStats breaker_stats() const;

  // Snapshot of one tenant's scoped registry (empty if never seen).
  MetricsRegistry TenantMetrics(const std::string& tenant) const;
  int64_t TenantJobsCompleted(const std::string& tenant) const;

  int num_engines() const { return static_cast<int>(slots_.size()); }

  // The service-level event timeline (admission rejects, cancels, breaker
  // transitions); null when config.engine.observability.trace is off.
  Trace* service_trace() { return service_trace_.get(); }

 private:
  enum class BreakerState : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  // Decayed failure pressure for one slot. Dispatcher-thread-only: each
  // slot's score is read and written exclusively by its own dispatcher.
  // A success halves the score (so sporadic failures age out); a failure
  // adds one plus the job's executor-death incidents (a crashing executor
  // is stronger evidence of a sick slot than a clean body exception).
  struct SlotHealth {
    double score = 0.0;
    void OnSuccess() { score *= 0.5; }
    void OnFailure(int64_t incidents) { score += 1.0 + static_cast<double>(incidents); }
    void Reset() { score = 0.0; }
  };

  struct EngineSlot {
    explicit EngineSlot(size_t cache_budget_bytes)
        : spark_cache(cache_budget_bytes), hadoop_cache(cache_budget_bytes) {}
    PlanCache spark_cache;
    PlanCache hadoop_cache;
    std::unique_ptr<SparkEngine> spark;
    std::unique_ptr<HadoopEngine> hadoop;
    // Both engines through their shared core, each with its own cache.
    std::array<std::pair<EngineCore*, PlanCache*>, 2> engines() {
      return {{{spark.get(), &spark_cache}, {hadoop.get(), &hadoop_cache}}};
    }
    EngineContext ctx;
    std::thread dispatcher;
    // Breaker state. `state` is atomic only so metrics snapshots from other
    // threads are race-free; all writes happen on the slot's dispatcher.
    SlotHealth health;
    std::atomic<BreakerState> state{BreakerState::kClosed};
    int probe_successes = 0;  // dispatcher-only, valid while half-open
    std::atomic<bool> kill_requested{false};  // TripBreaker -> dispatcher
  };

  struct TenantState {
    MetricsRegistry registry;
    int64_t jobs_completed = 0;
    // signature hash -> (speculative tasks, aborts): the per-tenant-per-SER
    // generalization of SpeculationGovernor's engine-wide counters.
    std::unordered_map<uint64_t, std::pair<int64_t, int64_t>> speculation;
  };

  void DispatchLoop(EngineSlot* slot);
  void RunOne(EngineSlot* slot, QueuedJob* job);
  void InstallOracle(EngineSlot* slot, const std::string& tenant);
  bool TenantShouldSpeculate(const std::string& tenant, uint64_t signature_hash) const;
  void TenantObserve(const std::string& tenant, uint64_t signature_hash, int tasks, int aborts);
  // Wires (or re-wires, after a rebuild) fresh engines into `slot`.
  void BuildSlotEngines(EngineSlot* slot, int index);
  // Breaker transitions; dispatcher-thread-only for the given slot.
  void OpenBreaker(EngineSlot* slot);
  void ObserveJobOutcome(EngineSlot* slot, JobStatus status, int64_t executor_deaths);
  // Resolves a job's handle without running it (queue-side cancel/deadline).
  void ResolveUnrun(QueuedJob* job, JobStatus status, const char* error);
  // Appends one instant to the service trace (no-op when tracing is off).
  // Unlike engine traces, service events race across client threads and
  // dispatchers, so the driver sink is guarded by a mutex here.
  void ServiceInstant(TraceEventType type, const char* name, int64_t arg);

  const ServiceConfig config_;
  // Engine templates for pool construction and breaker rebuilds.
  EngineConfig pooled_config_;
  HadoopConfig pooled_hadoop_config_;
  // Shared (not a plain member) so JobHandle::cancel can reach it through a
  // weak_ptr after the handle outlives the service.
  std::shared_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<EngineSlot>> slots_;
  std::atomic<uint64_t> next_job_id_{1};
  std::atomic<bool> shut_down_{false};

  std::atomic<int64_t> jobs_cancelled_{0};
  std::atomic<int64_t> jobs_deadline_exceeded_{0};
  std::atomic<int64_t> breaker_opens_{0};
  std::atomic<int64_t> breaker_rebuilds_{0};
  std::atomic<int64_t> breaker_half_opens_{0};
  std::atomic<int64_t> breaker_closes_{0};
  std::atomic<int64_t> breaker_probe_failures_{0};

  std::unique_ptr<Trace> service_trace_;  // null when tracing is off
  std::mutex service_trace_mu_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantState> tenants_;
};

// Per-tenant handle: tags every Submit with the tenant id and scopes
// metrics reads to it. Copyable.
class Session {
 public:
  Session() = default;

  const std::string& tenant() const { return tenant_; }
  JobHandle Submit(JobSpec spec) { return service_->Submit(tenant_, std::move(spec)); }
  MetricsRegistry metrics() const { return service_->TenantMetrics(tenant_); }
  int64_t jobs_completed() const { return service_->TenantJobsCompleted(tenant_); }

 private:
  friend class EngineService;
  Session(EngineService* service, std::string tenant)
      : service_(service), tenant_(std::move(tenant)) {}

  EngineService* service_ = nullptr;
  std::string tenant_;
};

inline Session EngineService::CreateSession(const std::string& tenant) {
  return Session(this, tenant);
}

}  // namespace gerenuk

#endif  // SRC_SERVICE_ENGINE_SERVICE_H_
