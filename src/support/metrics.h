// Execution-time accounting shared by the engines, the managed runtime, and
// the benchmark harnesses.
//
// Every task execution is broken into the same four phases the paper's
// Figure 6 reports: computation, GC, serialization, and deserialization.
// PhaseTimes accumulates wall-clock nanoseconds per phase; MemoryTracker
// records live/peak byte counts the way the paper's pmap sampling does
// (process-level peak = managed heap + native buffers).
#ifndef SRC_SUPPORT_METRICS_H_
#define SRC_SUPPORT_METRICS_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace gerenuk {

// Monotonic stopwatch. Start/Stop may be called repeatedly; ElapsedNanos
// accumulates across runs. Stop() without a matching Start() is a
// programming error: it would charge the interval since the epoch (or since
// some long-finished run) as measured time. Debug builds assert; release
// builds drop the unmatched Stop so the accumulated time stays truthful.
class Stopwatch {
 public:
  void Start() {
    started_ = true;
    start_ = Clock::now();
  }
  void Stop() {
    assert(started_ && "Stopwatch::Stop() without a prior Start()");
    if (!started_) {
      return;
    }
    started_ = false;
    accumulated_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
                        .count();
  }
  int64_t ElapsedNanos() const { return accumulated_; }
  double ElapsedMillis() const { return static_cast<double>(accumulated_) / 1e6; }
  void Reset() {
    accumulated_ = 0;
    started_ = false;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_{};
  int64_t accumulated_ = 0;
  bool started_ = false;
};

// The four runtime components of Figure 6: computation (blue), GC (red),
// serialization (purple), deserialization (orange).
enum class Phase : uint8_t { kCompute = 0, kGc = 1, kSerialize = 2, kDeserialize = 3 };

inline const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCompute:
      return "compute";
    case Phase::kGc:
      return "gc";
    case Phase::kSerialize:
      return "ser";
    case Phase::kDeserialize:
      return "deser";
  }
  return "?";
}

struct PhaseTimes {
  int64_t nanos[4] = {0, 0, 0, 0};

  void Add(Phase phase, int64_t ns) { nanos[static_cast<int>(phase)] += ns; }
  int64_t Get(Phase phase) const { return nanos[static_cast<int>(phase)]; }
  int64_t TotalNanos() const { return nanos[0] + nanos[1] + nanos[2] + nanos[3]; }
  double TotalMillis() const { return static_cast<double>(TotalNanos()) / 1e6; }
  double Millis(Phase phase) const { return static_cast<double>(Get(phase)) / 1e6; }

  PhaseTimes& operator+=(const PhaseTimes& other) {
    for (int i = 0; i < 4; ++i) {
      nanos[i] += other.nanos[i];
    }
    return *this;
  }
};

// RAII phase timer: attributes the enclosed scope's wall time to one phase.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimes& times, Phase phase) : times_(times), phase_(phase) {
    watch_.Start();
  }
  ~ScopedPhase() {
    watch_.Stop();
    times_.Add(phase_, watch_.ElapsedNanos());
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimes& times_;
  Phase phase_;
  Stopwatch watch_;
};

// Charges elapsed wall time minus everything separately attributed within
// the scope (GC pauses, serialization, deserialization) to kCompute, so the
// four phases partition a task's wall time the way Figure 6's stacked bars
// do.
class ComputePhaseScope {
 public:
  explicit ComputePhaseScope(PhaseTimes& times) : times_(times) {
    other_before_ = OtherPhases();
    watch_.Start();
  }
  ~ComputePhaseScope() {
    watch_.Stop();
    times_.Add(Phase::kCompute, watch_.ElapsedNanos() - (OtherPhases() - other_before_));
  }
  ComputePhaseScope(const ComputePhaseScope&) = delete;
  ComputePhaseScope& operator=(const ComputePhaseScope&) = delete;

 private:
  int64_t OtherPhases() const {
    return times_.Get(Phase::kGc) + times_.Get(Phase::kSerialize) +
           times_.Get(Phase::kDeserialize);
  }

  PhaseTimes& times_;
  int64_t other_before_ = 0;
  Stopwatch watch_;
};

// Live/peak memory accounting. The managed heap and the native buffer
// manager both report into one tracker per engine run, mirroring the paper's
// process-level pmap measurement. Thread-safe: every worker heap and every
// task-local native partition of a parallel stage reports into the same
// engine-level tracker.
class MemoryTracker {
 public:
  void Allocated(int64_t bytes) {
    int64_t now = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  void Freed(int64_t bytes) { live_.fetch_sub(bytes, std::memory_order_relaxed); }

  int64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  void Reset() {
    live_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }
  // Restarts peak measurement from the current live footprint (used to
  // exclude input generation from a benchmark's peak).
  void ResetPeak() { peak_.store(live_bytes(), std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> peak_{0};
};

// How a metric value renders in human-readable output.
enum class MetricUnit : uint8_t { kCount = 0, kNanos = 1, kBytes = 2 };

// Formats `value` per `unit` ("1234", "1.23 ms", "1.50 GB"). Negative values
// render with a leading sign in every unit.
std::string FormatMetricValue(int64_t value, MetricUnit unit);

// Log2-bucketed latency/size histogram. Mergeable: worker-local histograms
// add into the engine's copy at stage barriers exactly like counters do.
// Negative samples land in the underflow bucket (bucket 0) but still update
// min/max/sum, so a bogus negative interval is visible instead of silently
// folded into the distribution. The running sum saturates at the int64
// limits rather than overflowing, so mean() degrades to a clamp instead of
// UB when fed extreme samples.
class Histogram {
 public:
  explicit Histogram(MetricUnit unit = MetricUnit::kNanos) : unit_(unit) {}

  void Record(int64_t value) {
    count_ += 1;
    sum_ = SaturatingAdd(sum_, value);
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
    counts_[BucketFor(value)] += 1;
  }

  Histogram& operator+=(const Histogram& o) {
    count_ += o.count_;
    sum_ = SaturatingAdd(sum_, o.sum_);
    if (o.count_ > 0) {
      if (o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
    for (int i = 0; i < kBuckets; ++i) {
      counts_[i] += o.counts_[i];
    }
    return *this;
  }

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return count_ > 0 ? max_ : 0; }
  int64_t mean() const { return count_ > 0 ? sum_ / count_ : 0; }
  MetricUnit unit() const { return unit_; }
  void set_unit(MetricUnit unit) { unit_ = unit; }

  // Upper bound of the bucket holding the p-th percentile sample (p in
  // [0, 1]). Approximate by construction: log2 buckets.
  int64_t PercentileApprox(double p) const;

  // One-line pretty-printed summary ("count=12 min=1.02 us p50<=2.05 us ...").
  std::string Render() const;

 private:
  static int64_t SaturatingAdd(int64_t a, int64_t b) {
    int64_t out;
    if (__builtin_add_overflow(a, b, &out)) {
      return b > 0 ? INT64_MAX : INT64_MIN;
    }
    return out;
  }

  // Bucket b >= 1 holds values in [2^(b-1), 2^b - 1]; bucket 0 holds
  // values <= 0 (underflow).
  static int BucketFor(int64_t value) {
    if (value <= 0) {
      return 0;
    }
    int b = 0;
    uint64_t v = static_cast<uint64_t>(value);
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  static int64_t BucketUpperBound(int bucket);

  static constexpr int kBuckets = 65;  // underflow + one per bit of int64
  int64_t counts_[kBuckets] = {};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = INT64_MAX;
  int64_t max_ = INT64_MIN;
  MetricUnit unit_ = MetricUnit::kNanos;
};

// Named counters + histograms with merge-by-name semantics: a counter or
// histogram that exists on only one side still survives a merge, unlike a
// hand-written field-by-field operator+= where a forgotten line silently
// drops a metric. Engines surface one registry combining EngineStats,
// trace-derived histograms, and plan-op profiles.
class MetricsRegistry {
 public:
  // Returns the named counter, creating it at zero. The reference stays
  // valid for the registry's lifetime (std::map nodes are stable).
  int64_t& Counter(const std::string& name) { return counters_[name]; }
  // Returns the named histogram, creating it empty with `unit`.
  Histogram& Hist(const std::string& name, MetricUnit unit = MetricUnit::kNanos);

  // Adds every counter and histogram of `other` into this registry. Names
  // missing on either side are kept, never dropped.
  void Merge(const MetricsRegistry& other);

  // Merge, with every incoming name prefixed ("tenant.alice." + name). The
  // service uses this to fold per-tenant registries into one namespaced
  // snapshot without the tenants colliding.
  void MergeWithPrefix(const std::string& prefix, const MetricsRegistry& other);

  const std::map<std::string, int64_t>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return hists_; }

  // Deterministically ordered (by name) multi-line rendering.
  std::string Render() const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Histogram> hists_;
};

// Per-opcode dispatch counts and sampled cycles from a plan executor's
// profiled dispatch loop (src/exec/plan.cc). Kept generic here — slot i is
// opcode i; the executor guarantees its opcode count fits kMaxOps — so the
// scheduler can merge profiles through EngineStats like any other counter.
struct OpProfile {
  static constexpr int kMaxOps = 64;
  int64_t dispatches[kMaxOps] = {};    // exact per-opcode dispatch counts
  int64_t sampled_nanos[kMaxOps] = {};  // clock time attributed at sample points
  int64_t samples = 0;

  int64_t total_dispatches() const {
    int64_t total = 0;
    for (int64_t d : dispatches) {
      total += d;
    }
    return total;
  }
  bool empty() const { return samples == 0 && total_dispatches() == 0; }

  OpProfile& operator+=(const OpProfile& o) {
    for (int i = 0; i < kMaxOps; ++i) {
      dispatches[i] += o.dispatches[i];
      sampled_nanos[i] += o.sampled_nanos[i];
    }
    samples += o.samples;
    return *this;
  }

  // Top-N table sorted by dispatch count; `op_name` maps slot -> mnemonic.
  std::string Render(const char* (*op_name)(int), int top_n = 10) const;
};

namespace internal {

// Counts the fields of an aggregate at compile time: probe how many
// convert-to-anything placeholders brace-initialization accepts. Used to pin
// EngineStats' field count so a newly added field cannot ship without a
// merge/export entry (see GERENUK_ENGINE_COUNTER_FIELDS below).
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Fields>
constexpr size_t CountAggregateFields() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return CountAggregateFields<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

}  // namespace internal

// Statistics of the speculative transformer (Algorithm 1), accumulated per
// compiled stage/function on the driver.
struct TransformStats {
  int statements_transformed = 0;
  int aborts_inserted = 0;
  int functions_transformed = 0;  // functions containing >= 1 transformed stmt
  int violations_by_reason[5] = {0, 0, 0, 0, 0};

  TransformStats& operator+=(const TransformStats& o) {
    statements_transformed += o.statements_transformed;
    aborts_inserted += o.aborts_inserted;
    functions_transformed += o.functions_transformed;
    for (int i = 0; i < 5; ++i) {
      violations_by_reason[i] += o.violations_by_reason[i];
    }
    return *this;
  }
};

// Every scalar counter of EngineStats, in declaration order. operator+= and
// ExportTo both expand this list, and the static_assert below EngineStats
// pins the struct's field count — adding a field without listing it here (or
// bumping the composite count) fails the build instead of silently dropping
// the counter from stage-barrier merges.
#define GERENUK_ENGINE_COUNTER_FIELDS(X)                                      \
  X(tasks_run)                                                                \
  X(map_tasks)                                                                \
  X(reduce_tasks)                                                             \
  X(spills)                                                                   \
  X(fast_path_commits)                                                        \
  X(aborts)                                                                   \
  X(stages_compiled)                                                          \
  X(shuffle_bytes)                                                            \
  X(combine_calls)                                                            \
  X(retries)                                                                  \
  X(straggler_relaunches)                                                     \
  X(quarantined_tasks)                                                        \
  X(quarantined_records)                                                      \
  X(governor_flips)                                                           \
  X(slow_path_direct)                                                         \
  X(plans_compiled)                                                           \
  X(plan_cache_hits)                                                          \
  X(key_allocs_saved)                                                         \
  X(plan_calls)                                                               \
  X(executors_launched)                                                       \
  X(executor_deaths)                                                          \
  X(executor_relaunches)                                                      \
  X(heartbeats_received)                                                      \
  X(spill_blocks)                                                             \
  X(spill_merges)                                                             \
  X(shuffle_fetches)                                                          \
  X(fetch_backpressure_waits)                                                 \
  X(spill_bytes_raw)                                                          \
  X(spill_bytes_stored)

// Unified per-engine statistics, shared by the mini-Spark and mini-Hadoop
// engines. Workers accumulate into a private EngineStats during a stage;
// the scheduler merges them into the engine's copy (in worker order) at the
// stage barrier, so counts are deterministic for any worker count.
struct EngineStats {
  PhaseTimes times;
  int tasks_run = 0;
  int map_tasks = 0;     // mini-Hadoop only
  int reduce_tasks = 0;  // mini-Hadoop only
  int spills = 0;        // mini-Hadoop only
  int fast_path_commits = 0;
  int aborts = 0;
  int stages_compiled = 0;
  int64_t shuffle_bytes = 0;
  int64_t combine_calls = 0;
  // Fault tolerance (see DESIGN.md "Fault model & recovery"). All are sums
  // of per-task events, deterministic for any worker count.
  int retries = 0;               // failed attempts that were requeued
  int straggler_relaunches = 0;  // deadline cancellations relaunched elsewhere
  int quarantined_tasks = 0;     // poisoned partitions skipped (kSkip policy)
  int64_t quarantined_records = 0;
  int governor_flips = 0;        // speculation-governor off switches (driver)
  int slow_path_direct = 0;      // tasks routed straight to the slow path
  // Plan compiler (see DESIGN.md "Plan compiler"). plans_compiled counts
  // driver-side SerPlan lowerings; key_allocs_saved counts shuffle-key
  // extractions that reused the per-task scratch string without a fresh
  // heap allocation.
  int plans_compiled = 0;
  // Stage/function compilations whose transformed program + SerPlan came out
  // of a signature-keyed PlanCache (service mode), skipping both the
  // transform and CompilePlan.
  int plan_cache_hits = 0;
  int64_t key_allocs_saved = 0;
  // Function invocations made by speculating tasks' fast-path runners (the
  // plan executor, or the interpreter with the plan compiler off): the
  // per-record entry into the stage body plus every call the body makes.
  // A stage that folds at its emit sites adds none per emitted record.
  int64_t plan_calls = 0;
  // Process executors & shuffle service (see DESIGN.md "Process model &
  // shuffle service"). Launch/death/relaunch and the spill counters are
  // driver-side and deterministic; heartbeats_received and
  // fetch_backpressure_waits depend on wall-clock timing and are excluded
  // from determinism assertions (tests check > 0, never equality).
  int executors_launched = 0;        // forked executor processes (incl. relaunches)
  int executor_deaths = 0;           // EOF/exit/heartbeat-timeout classified losses
  int executor_relaunches = 0;       // fresh processes forked to replace dead ones
  int64_t heartbeats_received = 0;   // liveness pings seen by the supervisor
  int64_t spill_blocks = 0;          // shuffle blocks written to spill files
  int64_t spill_merges = 0;          // bucket reads that merged >= 2 spilled runs
  int64_t shuffle_fetches = 0;       // spilled blocks fetched on demand
  int64_t fetch_backpressure_waits = 0;  // fetches that blocked on credit
  int64_t spill_bytes_raw = 0;       // pre-compression spilled bytes
  int64_t spill_bytes_stored = 0;    // on-disk (post-compression) spilled bytes
  TransformStats transform;  // accumulated compiler statistics (driver-side)
  // Sampled plan-op profiler output (EngineConfig::plan_profile_stride > 0):
  // per-opcode dispatch counts and sampled time, merged at stage barriers.
  OpProfile plan_ops;

  EngineStats& operator+=(const EngineStats& o) {
    times += o.times;
    transform += o.transform;
    plan_ops += o.plan_ops;
#define GERENUK_ADD_FIELD(f) f += o.f;
    GERENUK_ENGINE_COUNTER_FIELDS(GERENUK_ADD_FIELD)
#undef GERENUK_ADD_FIELD
    return *this;
  }

  // Publishes every counter (by field name), the four phase times
  // ("phase_<name>_ns"), and the plan-op dispatch total into `registry`.
  void ExportTo(MetricsRegistry* registry) const;
};

namespace internal {
#define GERENUK_COUNT_FIELD(f) +1
inline constexpr size_t kEngineStatsCounterFields =
    0 GERENUK_ENGINE_COUNTER_FIELDS(GERENUK_COUNT_FIELD);
#undef GERENUK_COUNT_FIELD
// times, transform, plan_ops.
inline constexpr size_t kEngineStatsCompositeFields = 3;
static_assert(
    CountAggregateFields<EngineStats>() ==
        kEngineStatsCounterFields + kEngineStatsCompositeFields,
    "EngineStats gained a field that GERENUK_ENGINE_COUNTER_FIELDS does not "
    "list: add it to the X-macro (scalar counters) or bump "
    "kEngineStatsCompositeFields and extend operator+= (composites), so the "
    "stage-barrier merge cannot silently drop it");
}  // namespace internal

class ByteBuffer;
class ByteReader;

// Wire round-trip for EngineStats, used by the process-executor protocol to
// ship per-task stats from a forked executor back to the driver. Covers every
// X-macro scalar counter, the four phase times, and the plan-op profile.
// TransformStats is driver-only (compilation never happens in an executor) and
// is deliberately not shipped. Parse validates the blob size up front and
// returns false (leaving `out` untouched) on a short or mis-sized blob.
void SerializeEngineStats(const EngineStats& stats, ByteBuffer* out);
bool ParseEngineStats(ByteReader* in, EngineStats* out);

// Human-readable byte count ("1.5 GB") for bench output. Negative inputs
// render with a leading sign; units extend through EB so any int64 stays in
// range.
std::string FormatBytes(int64_t bytes);

// Human-readable duration ("1.23 ms") for bench and histogram output.
std::string FormatNanos(int64_t nanos);

}  // namespace gerenuk

#endif  // SRC_SUPPORT_METRICS_H_
