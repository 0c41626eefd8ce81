#include "src/service/chaos.h"

#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "src/support/rng.h"

namespace gerenuk {

ChaosSchedule ChaosSchedule::Generate(const ChaosConfig& config, int num_kinds) {
  GERENUK_CHECK_GT(num_kinds, 0);
  Rng rng(config.seed);
  ChaosSchedule schedule;
  schedule.jobs.reserve(static_cast<size_t>(config.tenants) *
                        static_cast<size_t>(config.jobs_per_tenant));
  // Tenants interleave round-robin in submission order, so every DRR round
  // sees a full cross-section of the fault mix.
  for (int j = 0; j < config.jobs_per_tenant; ++j) {
    for (int t = 0; t < config.tenants; ++t) {
      ChaosJobPlan plan;
      plan.tenant = t;
      plan.kind = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_kinds)));
      plan.priority = static_cast<int>(rng.NextBounded(3));
      // One roll covers both exception classes so their rates match the
      // configured mix exactly (unrecoverable is a sub-band of task_fault).
      const double fault_roll = rng.NextDouble();
      if (fault_roll < config.p_unrecoverable) {
        plan.inject_exception = true;
        plan.unrecoverable = true;
      } else if (fault_roll < config.p_task_fault) {
        plan.inject_exception = true;
      }
      if (rng.NextDouble() < config.p_force_aborts) {
        plan.force_aborts = 1 + static_cast<int>(rng.NextBounded(4));
      }
      if (rng.NextDouble() < config.p_cancel) {
        plan.cancel = true;
        plan.cancel_delay_us =
            config.cancel_delay_us_max > 0
                ? static_cast<int64_t>(rng.NextBounded(
                      static_cast<uint64_t>(config.cancel_delay_us_max)))
                : 0;
      }
      if (rng.NextDouble() < config.p_deadline) {
        plan.deadline_ms =
            1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(config.deadline_ms_max)));
      }
      if (rng.NextDouble() < config.p_stall) {
        plan.stall_ms =
            1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(config.stall_ms_max)));
      }
      if (rng.NextDouble() < config.p_slot_kill) {
        plan.kill_slot = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config.num_engines)));
      }
      schedule.jobs.push_back(plan);
    }
  }
  return schedule;
}

namespace {

// Wraps a workload body with the plan's faults. Fault plans are engine
// state, so they are installed at body entry (on the slot the dispatcher
// chose) and cleared on every exit path — a stale plan keyed on a past
// ordinal must never leak into the next job on the slot.
JobSpec ComposeFaults(JobSpec spec, const ChaosJobPlan& plan) {
  spec.priority = plan.priority;
  spec.deadline_ms = plan.deadline_ms;
  auto base_run = std::move(spec.run);
  spec.run = [base_run, plan](EngineContext& ctx) -> std::string {
    if (plan.stall_ms > 0) {
      // Dispatcher stall: the slot is busy doing nothing, queue pressure
      // builds, deadlines race. Plain sleep — cancellation is checked at
      // task boundaries, not here, matching an uncooperative body prefix.
      std::this_thread::sleep_for(std::chrono::milliseconds(plan.stall_ms));
    }
    ctx.spark->fault_plan().Clear();
    ctx.hadoop->fault_plan().Clear();
    if (plan.force_aborts > 0) {
      ctx.spark->ForceAborts(plan.force_aborts);
    }
    if (plan.inject_exception) {
      // The kind decides which engine runs; injecting on both is harmless —
      // the unused plan is cleared below before it could match a future
      // task ordinal.
      const int max_attempt = plan.unrecoverable ? -1 : 1;
      ctx.spark->fault_plan().InjectException(ctx.spark->next_task_ordinal(), max_attempt);
      ctx.hadoop->fault_plan().InjectException(ctx.hadoop->next_task_ordinal(), max_attempt);
    }
    try {
      std::string out = base_run(ctx);
      ctx.spark->fault_plan().Clear();
      ctx.hadoop->fault_plan().Clear();
      return out;
    } catch (...) {
      ctx.spark->fault_plan().Clear();
      ctx.hadoop->fault_plan().Clear();
      throw;
    }
  };
  return spec;
}

}  // namespace

std::string ChaosReport::Summary() const {
  std::ostringstream os;
  os << jobs << " jobs: " << succeeded << " ok, " << failed << " failed, " << cancelled
     << " cancelled, " << deadline_exceeded << " deadline, " << rejected << " rejected, " << hangs
     << " hangs, " << output_mismatches << " mismatches; breaker opens=" << breaker.opens
     << " half_opens=" << breaker.half_opens << " closes=" << breaker.closes
     << " probe_failures=" << breaker.probe_failures
     << "; admission cancelled_queued=" << admission.cancelled_queued
     << " inflight_bytes=" << admission.inflight_bytes;
  for (const std::string& violation : violations) {
    os << "\n  VIOLATION: " << violation;
  }
  return os.str();
}

ChaosReport RunChaosCampaign(const ChaosConfig& config, const ChaosWorkload& workload) {
  GERENUK_CHECK(workload.make_job != nullptr);
  const ChaosSchedule schedule = ChaosSchedule::Generate(config, workload.num_kinds);

  ServiceConfig service_config = workload.service;
  service_config.num_engines = config.num_engines;
  service_config.max_queue_depth = config.max_queue_depth;
  service_config.max_queue_depth_per_tenant = config.max_queue_depth_per_tenant;
  service_config.breaker_failure_threshold = config.breaker_failure_threshold;
  service_config.breaker_probe_jobs = config.breaker_probe_jobs;
  service_config.max_inflight_bytes = config.max_inflight_bytes;
  service_config.max_inflight_bytes_per_tenant = config.max_inflight_bytes_per_tenant;

  auto service = std::make_unique<EngineService>(service_config);
  std::vector<Session> sessions;
  sessions.reserve(static_cast<size_t>(config.tenants));
  for (int t = 0; t < config.tenants; ++t) {
    sessions.push_back(service->CreateSession("chaos" + std::to_string(t)));
  }

  // Submit the whole schedule; cancel storms run as concurrent client
  // threads (one per planned cancel — they sleep microseconds, so even a
  // large campaign stays cheap).
  std::vector<JobHandle> handles;
  handles.reserve(schedule.jobs.size());
  std::vector<std::thread> cancellers;
  for (const ChaosJobPlan& plan : schedule.jobs) {
    if (plan.kill_slot >= 0) {
      service->TripBreaker(plan.kill_slot);
    }
    JobHandle handle =
        sessions[static_cast<size_t>(plan.tenant)].Submit(ComposeFaults(workload.make_job(plan.kind), plan));
    if (plan.cancel) {
      const int64_t delay_us = plan.cancel_delay_us;
      JobHandle copy = handle;
      cancellers.emplace_back([copy, delay_us]() mutable {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        copy.cancel();
      });
    }
    handles.push_back(std::move(handle));
  }
  for (std::thread& canceller : cancellers) {
    canceller.join();
  }

  ChaosReport report;
  report.jobs = static_cast<int64_t>(handles.size());
  const auto watchdog_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(config.watchdog_ms);
  for (size_t i = 0; i < handles.size(); ++i) {
    const auto now = std::chrono::steady_clock::now();
    const auto remaining = watchdog_deadline > now
                               ? std::chrono::duration_cast<std::chrono::milliseconds>(
                                     watchdog_deadline - now)
                               : std::chrono::milliseconds(0);
    std::optional<JobResult> result = handles[i].wait_for(remaining);
    if (!result.has_value()) {
      report.hangs += 1;
      continue;
    }
    switch (result->status) {
      case JobStatus::kSucceeded: {
        report.succeeded += 1;
        const int kind = schedule.jobs[i].kind;
        if (kind < static_cast<int>(workload.expected.size()) &&
            !workload.expected[static_cast<size_t>(kind)].empty() &&
            result->output != workload.expected[static_cast<size_t>(kind)]) {
          report.output_mismatches += 1;
        }
        break;
      }
      case JobStatus::kFailed:
        report.failed += 1;
        break;
      case JobStatus::kCancelled:
        report.cancelled += 1;
        break;
      case JobStatus::kDeadlineExceeded:
        report.deadline_exceeded += 1;
        break;
      case JobStatus::kRejected:
        report.rejected += 1;
        break;
      default:
        report.hangs += 1;  // non-terminal from wait_for would be a bug
        break;
    }
  }

  if (report.hangs > 0) {
    // A hung job wedges a dispatcher; Shutdown (and the destructor) would
    // join forever. Leak the service — the campaign is failing anyway.
    report.admission = service->admission_stats();
    report.breaker = service->breaker_stats();
    service.release();
    report.violations.push_back(std::to_string(report.hangs) +
                                " job(s) never reached a terminal status under the watchdog");
    return report;
  }

  // Guarantee at least one full breaker cycle: trip every slot, then feed
  // clean probe jobs until one closes. Which dispatcher takes a probe is up
  // to thread wake-up order, so no single slot is sure to see probe_jobs of
  // them — but with every slot tripped, whichever does closes its breaker,
  // and some slot must within num_engines * (probe_jobs - 1) + 1 probes.
  if (config.force_breaker_cycle && service->breaker_stats().closes == 0) {
    for (int slot = 0; slot < config.num_engines; ++slot) {
      service->TripBreaker(slot);
    }
    Session probe_session = service->CreateSession("chaos-probe");
    const int max_probes = config.num_engines * (config.breaker_probe_jobs + 1) * 4;
    for (int i = 0; i < max_probes && service->breaker_stats().closes == 0; ++i) {
      JobHandle probe = probe_session.Submit(workload.make_job(0));
      std::optional<JobResult> result = probe.wait_for(std::chrono::milliseconds(30000));
      if (!result.has_value()) {
        report.hangs += 1;
        report.admission = service->admission_stats();
        report.breaker = service->breaker_stats();
        service.release();
        report.violations.push_back("breaker probe job hung");
        return report;
      }
    }
  }

  service->Shutdown();
  report.admission = service->admission_stats();
  report.breaker = service->breaker_stats();

  if (report.output_mismatches > 0) {
    report.violations.push_back(std::to_string(report.output_mismatches) +
                                " succeeded job(s) diverged from the fault-free reference output");
  }
  const int64_t terminal = report.succeeded + report.failed + report.cancelled +
                           report.deadline_exceeded + report.rejected;
  if (terminal != report.jobs) {
    report.violations.push_back("terminal statuses (" + std::to_string(terminal) +
                                ") do not cover all " + std::to_string(report.jobs) + " jobs");
  }
  if (report.admission.submitted !=
      report.admission.dispatched + report.admission.cancelled_queued) {
    report.violations.push_back(
        "admission imbalance after drain: submitted=" + std::to_string(report.admission.submitted) +
        " != dispatched=" + std::to_string(report.admission.dispatched) +
        " + cancelled_queued=" + std::to_string(report.admission.cancelled_queued));
  }
  if (report.admission.inflight_bytes != 0) {
    report.violations.push_back("unreleased byte charges: inflight_bytes=" +
                                std::to_string(report.admission.inflight_bytes));
  }
  if (report.breaker.opens != report.breaker.rebuilds) {
    report.violations.push_back("breaker opens (" + std::to_string(report.breaker.opens) +
                                ") != rebuilds (" + std::to_string(report.breaker.rebuilds) + ")");
  }
  if (config.force_breaker_cycle && report.breaker.closes < 1) {
    report.violations.push_back("no breaker open -> half-open -> close cycle completed");
  }
  return report;
}

}  // namespace gerenuk
