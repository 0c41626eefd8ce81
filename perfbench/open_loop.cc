// service_open: an open loop against the multi-tenant EngineService. One
// generator thread submits jobs on a fixed schedule whatever the service's
// progress, so a stall delays every later job; each job is timed from the
// instant it was due, and the generator's own lateness is reported.
//
// The run has two parts. A segment at the fixed kReferenceRate gives the
// latency metrics; a failed or refused job counts as an infinite latency.
// Then a burst of kBurstJobs jobs, all due at once, gives the throughput the
// pool sustains with a standing backlog.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "perfbench/ledger.h"
#include "perfbench/programs.h"
#include "perfbench/workloads.h"
#include "src/service/engine_service.h"

namespace perfbench {
namespace {

constexpr int kSlots = 2;
constexpr int kSlotWorkers = 2;  // kSlots x kSlotWorkers = the host's 4 cores
constexpr int kTenants = 4;
constexpr int kVariants = 2;  // seeded input sets per program
constexpr int kSetups = 3;
constexpr double kReferenceRate = 20.0;  // jobs/s, about 40% of the pool's capacity
constexpr double kReferenceShare = 0.6;  // of --seconds
constexpr int kBurstJobs = 225;          // 15 decks; under 4 x the per-tenant queue bound
constexpr double kBurstRate = 1e6;       // jobs/s: every burst job is due at once

const std::vector<std::string> kServicePrograms = {"KM",  "LR",  "GB",  "CS",  "PR",
                                                   "CC",  "WC",  "SO",  "IUF", "UAH",
                                                   "SPF", "UED", "CED", "IMC", "TFC"};

// Per-slot payload: workload objects bound to the slot's two engines.
struct SlotPrograms {
  std::unique_ptr<gerenuk::SparkWorkloads> spark;
  std::unique_ptr<gerenuk::HadoopWorkloads> hadoop;
};

gerenuk::ServiceConfig ServiceConfigFor(bool traced) {
  gerenuk::ServiceConfig config;
  config.engine = MeasuredConfig(kSlotWorkers, traced);
  config.num_engines = kSlots;
  config.setup = [](gerenuk::EngineContext& ctx) -> std::shared_ptr<void> {
    auto slot = std::make_shared<SlotPrograms>();
    slot->spark = std::make_unique<gerenuk::SparkWorkloads>(*ctx.spark);
    slot->hadoop = std::make_unique<gerenuk::HadoopWorkloads>(*ctx.hadoop);
    return slot;
  };
  return config;
}

// What a job body leaves behind; read after JobHandle::wait().
struct Outcome {
  gerenuk::WorkloadResult result;
  int64_t end_ns = 0;   // steady clock, when the body returned
  int64_t body_ns = 0;  // the body's own wall time
  int64_t peak_bytes = 0;
};

// The per-layer sums of a traced segment; both dispatcher threads add to it.
struct TracedTotals {
  std::mutex mu;
  Ledger ledger;
  std::map<std::pair<int, bool>, int64_t> dropped;  // (slot, hadoop) -> running total
};

struct Sent {
  size_t program = 0;
  int variant = 0;
  int64_t due_ns = 0;
  gerenuk::JobHandle handle;
  std::shared_ptr<Outcome> outcome;
  gerenuk::JobResult result;  // after wait()
  bool ok = false;
  double latency_ms = 0.0;  // +inf when the job failed
};

// The seeded job mix: programs are dealt from shuffled decks holding each
// program once, so every run sees the same program proportions. Tenants take
// turns, which keeps a burst within the per-tenant queue bound.
class Mix {
 public:
  Mix(uint64_t seed, size_t programs) : rng_(seed), deck_(programs) {
    for (size_t i = 0; i < programs; ++i) {
      deck_[i] = i;
    }
    next_ = deck_.size();
  }
  void Next(size_t* program, int* variant, int* tenant) {
    if (next_ == deck_.size()) {
      std::shuffle(deck_.begin(), deck_.end(), rng_);
      next_ = 0;
    }
    *program = deck_[next_++];
    *variant = static_cast<int>(rng_() % kVariants);
    *tenant = static_cast<int>(dealt_++ % kTenants);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<size_t> deck_;
  size_t next_;
  uint64_t dealt_ = 0;
};

struct Segment {
  std::vector<Sent> jobs;
  double late_ms_max = 0.0;
};

class OpenLoop {
 public:
  OpenLoop(const Options& options, RunResult* result)
      : options_(options), programs_(ProgramsNamed(kServicePrograms)), result_(result) {
    for (int v = 0; v < kVariants; ++v) {
      inputs_.push_back(MakeInputs(programs_, Scale::kFig6a, options.seed * kVariants + v));
      reference_.push_back(RunReference(programs_, inputs_.back()));
    }
  }

  // Builds a fresh service and warms each slot's engines and plan caches
  // with every program; returns seconds.
  double SetUp(bool traced) {
    sessions_.clear();
    service_.reset();
    const int64_t start = SteadyNowNs();
    service_ = std::make_unique<gerenuk::EngineService>(ServiceConfigFor(traced));
    for (int t = 0; t < kTenants; ++t) {
      sessions_.push_back(service_->CreateSession("tenant" + std::to_string(t)));
    }
    std::vector<Sent> warm;
    for (int round = 0; round < 2 * kSlots; ++round) {
      for (size_t p = 0; p < programs_.size(); ++p) {
        warm.push_back(Submit(p, round % kVariants, round % kTenants, SteadyNowNs()));
      }
    }
    for (Sent& job : warm) {
      Finish(&job, /*counted=*/false);
    }
    return static_cast<double>(SteadyNowNs() - start) / 1e9;
  }

  // Submits on a fixed schedule at `rate` jobs/s until `max_jobs` were sent
  // or `seconds` have passed, then waits for every job.
  Segment Run(double rate, int64_t max_jobs, double seconds, Mix* mix) {
    Segment segment;
    const int64_t start = SteadyNowNs() + 2'000'000;
    const double gap_ns = 1e9 / rate;
    for (int64_t i = 0; i < max_jobs; ++i) {
      const int64_t due = start + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
      if (static_cast<double>(due - start) >= seconds * 1e9) {
        break;
      }
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      segment.late_ms_max =
          std::max(segment.late_ms_max, static_cast<double>(SteadyNowNs() - due) / 1e6);
      size_t program = 0;
      int variant = 0;
      int tenant = 0;
      mix->Next(&program, &variant, &tenant);
      segment.jobs.push_back(Submit(program, variant, tenant, due));
    }
    for (Sent& job : segment.jobs) {
      Finish(&job, /*counted=*/true);
    }
    return segment;
  }

  std::vector<double> ProgramMedians(const std::vector<Sent>& jobs,
                                     double (*value)(const Sent&)) const {
    return MediansByProgram(jobs, programs_.size(), value);
  }

  int64_t Records(const Sent& job) const {
    return programs_[job.program]->records(inputs_[static_cast<size_t>(job.variant)]);
  }
  gerenuk::EngineService& service() { return *service_; }
  // From now on, jobs add their per-layer numbers to totals() and the next
  // job exports its engine trace. The service must be traced.
  void StartLedger() {
    ledger_on_ = true;
    export_next_ = true;
  }
  const TracedTotals& totals() const { return totals_; }

 private:
  Sent Submit(size_t program, int variant, int tenant, int64_t due) {
    Sent sent;
    sent.program = program;
    sent.variant = variant;
    sent.due_ns = due;
    sent.outcome = std::make_shared<Outcome>();
    const Program* p = programs_[program];
    const Inputs* in = &inputs_[static_cast<size_t>(variant)];
    TracedTotals* totals = ledger_on_ ? &totals_ : nullptr;
    std::string export_path;
    if (export_next_) {
      export_path = TracePath(options_, options_.workload);
      export_next_ = false;
      result_->notes.push_back("chrome trace: " + export_path + " (one " + p->name + " job)");
    }
    gerenuk::JobSpec spec;
    spec.name = p->name;
    spec.run = [p, in, totals, export_path, out = sent.outcome](gerenuk::EngineContext& ctx) {
      auto* slot = static_cast<SlotPrograms*>(ctx.setup.get());
      gerenuk::Trace* trace = nullptr;
      if (totals != nullptr) {
        trace = p->hadoop ? ctx.hadoop->trace() : ctx.spark->trace();
      }
      const SpanClock clock(trace != nullptr ? trace->driver() : nullptr);
      Span wall;
      Span ingest;
      wall.start_ns = clock.Now();
      out->result = p->run(Drivers{slot->spark.get(), slot->hadoop.get()}, *in, clock, &ingest);
      wall.end_ns = clock.Now();
      out->end_ns = SteadyNowNs();
      out->body_ns = wall.ns();
      out->peak_bytes =
          p->hadoop ? ctx.hadoop->peak_memory_bytes() : ctx.spark->peak_memory_bytes();
      if (trace != nullptr) {
        std::lock_guard<std::mutex> lock(totals->mu);
        // The dispatcher reset the merged trace before this body ran.
        totals->ledger.AddJob(*trace, 0, wall, ingest,
                              p->hadoop ? ctx.hadoop->stats() : ctx.spark->stats(),
                              kSlotWorkers, p->hadoop);
        totals->dropped[{ctx.slot, p->hadoop}] = trace->dropped_events();
        if (!export_path.empty()) {
          WriteChromeTrace(*trace, export_path);
        }
      }
      return std::string();
    };
    sent.handle = sessions_[static_cast<size_t>(tenant)].Submit(std::move(spec));
    return sent;
  }

  void Finish(Sent* job, bool counted) {
    job->result = job->handle.wait();
    job->ok = job->result.status == gerenuk::JobStatus::kSucceeded &&
              SameOutput(job->outcome->result,
                         reference_[static_cast<size_t>(job->variant)][job->program]);
    job->latency_ms = job->ok ? static_cast<double>(job->outcome->end_ns - job->due_ns) / 1e6
                              : std::numeric_limits<double>::infinity();
    if (!job->ok) {
      result_->notes.push_back(std::string(programs_[job->program]->name) + " job " +
                               gerenuk::JobStatusName(job->result.status) + ": " +
                               (job->result.error.empty() ? "output mismatch against the "
                                                            "baseline reference"
                                                          : job->result.error));
    }
    if (counted) {
      result_->Check(job->ok);
    } else if (!job->ok) {
      result_->correct = false;
    }
  }

  const Options& options_;
  std::vector<const Program*> programs_;
  std::vector<Inputs> inputs_;  // one per variant
  std::vector<std::vector<gerenuk::WorkloadResult>> reference_;
  RunResult* result_;
  bool ledger_on_ = false;
  bool export_next_ = false;
  TracedTotals totals_;  // job bodies write here, so it outlives the service
  std::unique_ptr<gerenuk::EngineService> service_;
  std::vector<gerenuk::Session> sessions_;
};

double LatencyMs(const Sent& job) { return job.latency_ms; }
double BodyMs(const Sent& job) { return static_cast<double>(job.outcome->body_ns) / 1e6; }
double PeakMb(const Sent& job) { return static_cast<double>(job.outcome->peak_bytes) / 1e6; }

std::vector<double> Latencies(const std::vector<Sent>& jobs) {
  std::vector<double> ms;
  for (const Sent& job : jobs) {
    ms.push_back(job.latency_ms);
  }
  return ms;
}

}  // namespace

RunResult RunServiceOpen(const Options& options) {
  RunResult result;
  OpenLoop loop(options, &result);
  Mix mix(options.seed, kServicePrograms.size());

  if (!options.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      setups.push_back(loop.SetUp(/*traced=*/false));
    }
    const double reference_s = options.seconds * kReferenceShare;
    Segment ref = loop.Run(kReferenceRate, 1 << 30, reference_s, &mix);
    // Sustained throughput: kBurstJobs jobs due at once, until the last one
    // completes.
    const int64_t burst_start = SteadyNowNs();
    Segment burst = loop.Run(kBurstRate, kBurstJobs, 1e9, &mix);
    const double burst_s = static_cast<double>(SteadyNowNs() - burst_start) / 1e9;
    double burst_records = 0.0;
    for (const Sent& job : burst.jobs) {
      burst_records += static_cast<double>(loop.Records(job));
    }
    std::vector<double> ms = Latencies(ref.jobs);
    result.Add("job_ms_geomean", GeoMean(loop.ProgramMedians(ref.jobs, LatencyMs)), "ms");
    result.Add("records_per_s", burst_records / burst_s, "rec/s");
    result.Add("job_ms_p50", Percentile(ms, 0.5), "ms");
    result.Add("job_ms_p90", Percentile(ms, 0.9), "ms");
    result.Add("sustained_jobs_per_s", kBurstJobs / burst_s, "jobs/s");
    const std::vector<double> peaks = loop.ProgramMedians(ref.jobs, PeakMb);
    result.Add("peak_mem_mb", GeoMean(peaks), "MB");
    result.Add("setup_s", Median(setups), "s");
    result.notes.push_back(std::to_string(ref.jobs.size()) + " jobs at " +
                           std::to_string(kReferenceRate) + " jobs/s; generator late by at most " +
                           std::to_string(ref.late_ms_max) + " ms");
    return result;
  }

  // Traced run: the reference rate on an untraced, then a traced service.
  loop.SetUp(/*traced=*/false);
  Segment untraced =
      loop.Run(kReferenceRate, 1 << 30, options.seconds / 2, &mix);
  loop.SetUp(/*traced=*/true);
  const gerenuk::PlanCache::Stats cache_before = loop.service().plan_cache_stats();
  const int64_t rejected_before = loop.service().admission_stats().rejected;
  const int64_t opens_before = loop.service().breaker_stats().opens;
  loop.StartLedger();
  Segment traced = loop.Run(kReferenceRate, 1 << 30, options.seconds / 2, &mix);
  const gerenuk::PlanCache::Stats cache_after = loop.service().plan_cache_stats();

  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  for (const Sent& job : traced.jobs) {
    queue_ms.push_back(static_cast<double>(job.result.queue_wait_ns) / 1e6);
    exec_ms.push_back(static_cast<double>(job.result.exec_ns) / 1e6);
  }
  loop.totals().ledger.Export(&result);
  result.Add("compile.ms_per_plan", CompileMsPerPlan(), "ms");
  result.Add("service.queue_wait_ms_p50", Percentile(queue_ms, 0.5), "ms");
  result.Add("service.queue_wait_ms_p90", Percentile(queue_ms, 0.9), "ms");
  result.Add("service.exec_ms_p50", Percentile(exec_ms, 0.5), "ms");
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double lookups = hits + static_cast<double>(cache_after.misses - cache_before.misses);
  result.Add("service.plan_cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  result.Add("service.rejected",
             static_cast<double>(loop.service().admission_stats().rejected - rejected_before),
             "count");
  result.Add("service.breaker_opens",
             static_cast<double>(loop.service().breaker_stats().opens - opens_before), "count");
  result.Add("bench.gen_late_ms_max", traced.late_ms_max, "ms");
  int64_t dropped_total = 0;
  for (const auto& [engine, total] : loop.totals().dropped) {
    dropped_total += total;
  }
  result.Add("trace.dropped_events", static_cast<double>(dropped_total), "count");
  result.Add("trace.overhead_pct",
             100.0 * (GeoMean(loop.ProgramMedians(traced.jobs, BodyMs)) /
                          GeoMean(loop.ProgramMedians(untraced.jobs, BodyMs)) -
                      1.0),
             "%");
  return result;
}

}  // namespace perfbench
