// Quickstart: the whole Gerenuk pipeline on a ten-line program.
//
// Part 1 — owning an engine: we declare a user data type (Measurement),
// author a map UDF in the IR (celsius -> fahrenheit), and run it over a
// dataset twice: once on the unmodified baseline engine (heap objects, Kryo
// shuffles) and once on the Gerenuk-transformed engine (inlined native
// bytes, speculative execution). Both runs must agree; the Gerenuk run
// reports zero serialization and zero data-object allocation.
//
// Part 2 — sharing engines: the same job submitted through the multi-tenant
// EngineService (Session -> Submit -> JobHandle). The first submission
// compiles; repeats hit the signature-keyed plan cache.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/gerenuk.h"

using namespace gerenuk;

namespace {

// The Measurement klass + UDF, shared by both parts. `DefineOn` runs once
// per engine (klass names are unique per registry).
struct MeasurementJob {
  const Klass* measurement = nullptr;
  SerProgram udfs;
  const Function* to_fahrenheit = nullptr;

  template <typename Engine>
  void DefineOn(Engine& engine) {
    measurement = engine.heap().klasses().DefineClass(
        "Measurement", {
                           {"sensor", FieldKind::kI64, nullptr, 0},
                           {"celsius", FieldKind::kF64, nullptr, 0},
                       });
    engine.RegisterDataType(measurement);
    Function* f = udfs.AddFunction("to_fahrenheit");
    FunctionBuilder b(f);
    int rec = b.Param("m", IrType::Ref(measurement));
    f->return_type = IrType::Ref(measurement);
    int out = b.NewObject(measurement);
    b.FieldStore(out, measurement, "sensor", b.FieldLoad(rec, measurement, "sensor"));
    int scaled = b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, measurement, "celsius"),
                         b.ConstF(9.0 / 5.0));
    b.FieldStore(out, measurement, "celsius", b.BinOp(BinOpKind::kAdd, scaled, b.ConstF(32.0)));
    b.Return(out);
    b.Done();
    to_fahrenheit = f;
  }

  template <typename Engine>
  DatasetPtr MakeInput(Engine& engine, int64_t records) const {
    return engine.Source(measurement, records, [](int64_t i, RecordWriter& w) {
      w.I64(i % 16);  // sensor
      w.F64(20.0 + (i % 7));  // celsius
    });
  }
};

void ServiceQuickstart();

}  // namespace

int main() {
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    EngineConfig config;
    config.execution.mode = mode;
    config.execution.heap_bytes = 32u << 20;
    config.execution.num_partitions = 2;
    SparkEngine engine(config);

    // 1. Declare the data type and register it (the paper's §3.1
    //    annotation), and author the UDF in the IR (what Java/Scala source
    //    is to the real Gerenuk): out = new Measurement(sensor,
    //    celsius * 9/5 + 32).
    MeasurementJob job;
    job.DefineOn(engine);

    // 2. Build a source dataset and run the stage.
    DatasetPtr input = job.MakeInput(engine, 10000);
    engine.ResetMetrics();
    DatasetPtr output =
        engine.RunStage(input, job.udfs, {NarrowOp::Map(job.to_fahrenheit, job.measurement)});

    // 3. Inspect results and runtime behavior.
    RootScope scope(engine.heap());
    std::vector<size_t> slots = engine.CollectToHeap(output, scope);
    double first = engine.heap().GetPrim<double>(
        scope.Get(slots[0]), job.measurement->FindField("celsius")->offset);
    const EngineStats& stats = engine.stats();
    std::printf("%s: %zu records, first=%.1fF, compute=%.1fms ser=%.1fms deser=%.1fms, "
                "stmts transformed=%d, aborts=%d\n",
                mode == EngineMode::kBaseline ? "baseline" : "gerenuk ", slots.size(), first,
                stats.times.Millis(Phase::kCompute), stats.times.Millis(Phase::kSerialize),
                stats.times.Millis(Phase::kDeserialize), stats.transform.statements_transformed,
                stats.aborts);
  }

  ServiceQuickstart();
  return 0;
}

namespace {

// Part 2: the same job through the multi-tenant service. Instead of owning
// an engine, a client opens a Session against a shared EngineService and
// submits JobSpecs; the body runs on whichever pooled engine slot the
// dispatcher picks, and repeat submissions of the same program hit the
// signature-keyed plan cache instead of recompiling.
void ServiceQuickstart() {
  ServiceConfig config;
  config.engine.execution.mode = EngineMode::kGerenuk;
  config.engine.execution.heap_bytes = 32u << 20;
  config.engine.execution.num_partitions = 2;
  // One slot so both rounds land on the same engine and the repeat is a
  // guaranteed plan-cache hit (caches are per-slot; see DESIGN.md §11).
  config.num_engines = 1;
  // Runs once per engine slot: every job on the slot shares these klasses
  // and programs, which is what keeps the plan cache hot.
  config.setup = [](EngineContext& ctx) -> std::shared_ptr<void> {
    auto job = std::make_shared<MeasurementJob>();
    job->DefineOn(*ctx.spark);
    return job;
  };
  EngineService service(config);

  Session session = service.CreateSession("quickstart");
  JobSpec spec;
  spec.name = "to_fahrenheit";
  spec.run = [](EngineContext& ctx) -> std::string {
    auto* job = static_cast<MeasurementJob*>(ctx.setup.get());
    DatasetPtr input = job->MakeInput(*ctx.spark, 10000);
    DatasetPtr output = ctx.spark->RunStage(
        input, job->udfs, {NarrowOp::Map(job->to_fahrenheit, job->measurement)});
    return std::to_string(output->TotalRecords());  // a job returns its output bytes
  };

  for (int round = 0; round < 2; ++round) {
    JobResult result = session.Submit(spec).wait();
    if (result.status != JobStatus::kSucceeded) {
      std::printf("service job failed: %s\n", result.error.c_str());
      return;
    }
    std::printf("service round %d: %s records, plans compiled=%d cache hits=%d "
                "(wait %.2fms, exec %.2fms)\n",
                round, result.output.c_str(), result.stats.plans_compiled,
                result.stats.plan_cache_hits, result.queue_wait_ns / 1e6,
                result.exec_ns / 1e6);
  }
  PlanCache::Stats cache = service.plan_cache_stats();
  std::printf("service plan cache: %lld hits / %lld misses\n",
              static_cast<long long>(cache.hits), static_cast<long long>(cache.misses));
}

}  // namespace
