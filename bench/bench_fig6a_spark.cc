// Figure 6(a) + Tables 1 & 3 (Spark rows): end-to-end runtime of the five
// Spark programs under the unmodified engine vs the Gerenuk-transformed
// engine, across three executor heap sizes, with the per-phase breakdown
// (computation / GC / serialization / deserialization) of the stacked bars.
#include <chrono>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/ir/builder.h"
#include "src/workloads/spark_workloads.h"

namespace gerenuk {
namespace {

struct ProgramSpec {
  const char* name;
  const char* dataset;
  const char* data_type;
};

struct RunRow {
  PhaseTimes times;
  int64_t peak_bytes = 0;
  double checksum = 0.0;
};

RunRow RunOne(const char* name, EngineMode mode, size_t heap_bytes, int num_workers = 1,
              double* wall_ms = nullptr) {
  EngineConfig config;
  config.execution.mode = mode;
  config.execution.heap_bytes = heap_bytes;
  config.execution.num_partitions = 4;
  config.execution.num_workers = num_workers;
  SparkEngine engine(config);
  SparkWorkloads workloads(engine);

  WorkloadResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  std::string program(name);
  if (program == "PR") {
    result = workloads.RunPageRank(MakePowerLawGraph(4000, 20000, 11), 8);
  } else if (program == "KM") {
    result = workloads.RunKMeans(MakeClusteredPoints(6000, 10, 5, 22), 5, 5);
  } else if (program == "LR") {
    result = workloads.RunLogisticRegression(MakeLabeledPoints(6000, 10, 33), 5, 0.5);
  } else if (program == "CS") {
    result = workloads.RunChiSquareSelector(MakeLabeledPoints(20000, 12, 44));
  } else {
    result = workloads.RunGradientBoosting(MakeLabeledPoints(4000, 8, 55), 5, 0.3);
  }
  if (wall_ms != nullptr) {
    *wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                         wall_start)
                   .count();
  }
  RunRow row;
  row.times = engine.stats().times;
  row.peak_bytes = engine.peak_memory_bytes();
  row.checksum = result.checksum;
  return row;
}

// Minimal map-only job for the abort-rate sweep: Pair{key:i64, value:f64}
// records through a value-doubling map stage.
struct AbortSweepJob {
  SparkEngine engine;
  const Klass* pair;
  SerProgram udfs;
  const Function* double_value;

  explicit AbortSweepJob(const EngineConfig& config) : engine(config) {
    KlassRegistry& reg = engine.heap().klasses();
    pair = reg.DefineClass("Pair", {
                                       {"key", FieldKind::kI64, nullptr, 0},
                                       {"value", FieldKind::kF64, nullptr, 0},
                                   });
    engine.RegisterDataType(pair);
    Function* f = udfs.AddFunction("double_value");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(pair));
    f->return_type = IrType::Ref(pair);
    int out = b.NewObject(pair);
    b.FieldStore(out, pair, "key", b.FieldLoad(rec, pair, "key"));
    b.FieldStore(out, pair, "value",
                 b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, pair, "value"), b.ConstF(2.0)));
    b.Return(out);
    b.Done();
    double_value = f;
  }

  DatasetPtr MakeInput(int64_t count) {
    return engine.Source(pair, count, [](int64_t i, RecordWriter& w) {
      w.I64(i % 100);
      w.F64((i % 13) - 6.0);
    });
  }
};

EngineConfig AbortSweepConfig(int parts, double governor_threshold) {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 48u << 20;
  config.execution.num_partitions = parts;
  config.execution.num_workers = 1;
  config.fault.governor_abort_threshold = governor_threshold;
  config.fault.governor_min_tasks = parts;
  return config;
}

// Wall clock of `reps` map stages with `aborts` of `parts` tasks forced to
// abort late in each stage (the paper's worst case: nearly all speculative
// work is wasted before the abort).
double SweepStagesMs(AbortSweepJob& job, const DatasetPtr& in, int reps, int aborts) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < reps; ++s) {
    if (aborts > 0) {
      job.engine.ForceAborts(aborts);
    }
    job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  }
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void RunAbortRateSweep() {
  bench::PrintHeader("Abort-rate sweep: speculation vs governor-degraded slow path");
  const int parts = 8;
  const int reps = 4;
  const int64_t records = 160000;

  // Degraded reference: one all-abort warmup stage flips the governor, then
  // every timed stage routes directly to the slow path. Its cost does not
  // depend on the abort rate — no speculative work is ever attempted.
  double degraded_ms = 0.0;
  {
    AbortSweepJob job(AbortSweepConfig(parts, 0.5));
    DatasetPtr in = job.MakeInput(records);
    job.engine.ForceAborts(parts);
    job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    GERENUK_CHECK(job.engine.stats().governor_flips == 1) << "governor did not flip";
    degraded_ms = SweepStagesMs(job, in, reps, 0);
    GERENUK_CHECK(job.engine.stats().slow_path_direct == parts * reps);
  }
  std::printf("degraded (direct slow path) = %8.1fms per %d stages, any abort rate\n",
              degraded_ms, reps);

  int crossover_pct = -1;
  for (int pct : {0, 25, 50, 75, 100}) {
    const int aborts = parts * pct / 100;
    AbortSweepJob job(AbortSweepConfig(parts, -1.0));  // governor off: always speculate
    DatasetPtr in = job.MakeInput(records);
    const double spec_ms = SweepStagesMs(job, in, reps, aborts);
    GERENUK_CHECK(job.engine.stats().aborts == aborts * reps);
    std::printf("abort rate %3d%%: speculate = %8.1fms   degraded = %8.1fms   -> %s\n", pct,
                spec_ms, degraded_ms,
                spec_ms > degraded_ms ? "degraded wins" : "speculate wins");
    if (crossover_pct < 0 && spec_ms > degraded_ms) {
      crossover_pct = pct;
    }
  }
  if (crossover_pct >= 0) {
    std::printf("crossover: speculation stops paying off at ~%d%% forced aborts — a\n"
                "governor_abort_threshold at or below this rate is worth enabling\n",
                crossover_pct);
  } else {
    std::printf("crossover: not reached — speculation won at every swept abort rate\n");
  }
}

void Run() {
  bench::PrintHeader("Table 1: Spark programs");
  const ProgramSpec programs[] = {
      {"PR", "synthetic power-law graph (4k vertices / 20k edges)", "VertexLinks, Rank"},
      {"KM", "synthetic 6k points, 10 features", "Point (DenseVector)"},
      {"LR", "synthetic 6k points, 10 features", "LabeledPoint, DenseVector"},
      {"CS", "synthetic 20k points, 12 features", "LabeledPoint, SparseVector"},
      {"GB", "synthetic 4k points, 8 features", "LabeledPoint, DenseVector"},
  };
  for (const ProgramSpec& spec : programs) {
    std::printf("%-3s %-52s %s\n", spec.name, spec.dataset, spec.data_type);
  }

  bench::PrintHeader("Figure 6(a): Spark runtime breakdown, baseline vs Gerenuk");
  // Three per-executor heap sizes (the paper's 10/15/20 GB, scaled to the
  // simulator's working sets).
  const size_t heaps[] = {24u << 20, 36u << 20, 48u << 20};
  const char* heap_names[] = {"small", "medium", "large"};
  double geo_speedup = 1.0;
  double geo_gc = 1.0;
  int gc_samples = 0;
  double geo_app = 1.0;
  int samples = 0;
  for (int h = 0; h < 3; ++h) {
    std::printf("-- heap: %s (%zu MB) --\n", heap_names[h], heaps[h] >> 20);
    for (const ProgramSpec& spec : programs) {
      RunRow baseline = RunOne(spec.name, EngineMode::kBaseline, heaps[h]);
      RunRow gerenuk = RunOne(spec.name, EngineMode::kGerenuk, heaps[h]);
      GERENUK_CHECK(std::abs(baseline.checksum - gerenuk.checksum) <=
                    1e-6 * (std::abs(baseline.checksum) + 1.0))
          << spec.name << ": transformed result diverged";
      bench::PrintPhaseRow(std::string(spec.name) + " baseline", baseline.times);
      bench::PrintPhaseRow(std::string(spec.name) + " Gerenuk", gerenuk.times);
      bench::PrintSpeedup(spec.name, baseline.times.TotalMillis(),
                          gerenuk.times.TotalMillis());
      geo_speedup *= baseline.times.TotalMillis() / gerenuk.times.TotalMillis();
      geo_app *= (gerenuk.times.Millis(Phase::kCompute) + 0.001) /
                 (baseline.times.Millis(Phase::kCompute) + 0.001);
      if (baseline.times.Get(Phase::kGc) > 0) {
        geo_gc *= (gerenuk.times.Millis(Phase::kGc) + 0.001) /
                  (baseline.times.Millis(Phase::kGc) + 0.001);
        gc_samples += 1;
      }
      samples += 1;
    }
  }
  bench::PrintHeader("Parallel scaling: Gerenuk wall clock vs num_workers");
  // Not a paper figure: this validates the task scheduler. Per-partition
  // tasks of every stage fan out to a worker pool; output bytes must be
  // identical at every worker count, so only the wall clock may move.
  {
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("host cores: %u%s\n", cores,
                cores <= 1 ? "  (single-core host: expect ~1.0x — scaling "
                             "needs real cores, the pool only adds overhead here)"
                           : "");
    const size_t heap = 36u << 20;
    double wall1 = 0.0;
    RunRow serial = RunOne("KM", EngineMode::kGerenuk, heap, 1, &wall1);
    std::printf("%-26s wall = %8.1fms  (reference)\n", "KM workers=1", wall1);
    for (int workers : {2, 4}) {
      double wall = 0.0;
      RunRow row = RunOne("KM", EngineMode::kGerenuk, heap, workers, &wall);
      GERENUK_CHECK(row.checksum == serial.checksum)
          << "KM workers=" << workers << ": result diverged from workers=1";
      std::printf("%-26s wall = %8.1fms  speedup = %.2fx  (checksum identical)\n",
                  ("KM workers=" + std::to_string(workers)).c_str(), wall, wall1 / wall);
    }
  }

  RunAbortRateSweep();

  bench::PrintHeader("Table 3 (Spark row): Gerenuk normalized to baseline, geo-mean");
  std::printf("Overall: %.2f   App(non-GC): %.2f   GC: %.2f\n",
              1.0 / std::pow(geo_speedup, 1.0 / samples),
              std::pow(geo_app, 1.0 / samples),
              gc_samples > 0 ? std::pow(geo_gc, 1.0 / gc_samples) : 1.0);
  std::printf("(paper: Overall 0.51, App 0.50, GC 0.63 — lower is better)\n");
}

}  // namespace
}  // namespace gerenuk

int main() {
  gerenuk::Run();
  return 0;
}
