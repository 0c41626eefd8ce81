// Ablations for the design choices DESIGN.md calls out:
//
//   1. Abort-rate sweep — the paper's applicability claim: "if data objects
//      are not immutable, the transformed program would always abort,
//      resulting in large performance penalties." We vary the fraction of
//      account-merge groups that hit the resize violation (by shrinking the
//      initial vector capacity) and plot Gerenuk/baseline: speculation pays
//      at low abort rates and inverts as the rate grows.
//   2. Fused-stage depth — how much of Gerenuk's win comes from never
//      re-materializing between narrow operators: a map chain of depth k as
//      one fused SER, in both modes.
//   3. Heap-size sensitivity — Fig. 6's "the performance of the original
//      Spark is much more sensitive to the heap size": the same job under a
//      shrinking heap, both modes.
#include "bench/bench_common.h"
#include "src/ir/builder.h"
#include "src/workloads/spark_workloads.h"

namespace gerenuk {
namespace {

void AbortRateSweep() {
  // An abort re-executes its whole SER (here: a reduce task), so the cost
  // scale is "fraction of tasks containing at least one violating record".
  // We concentrate the overflowing accounts on `heavy` user ids: only the
  // reduce tasks whose buckets contain a heavy user abort. heavy=0 is pure
  // speculation success; as heavy grows, every task eventually re-executes —
  // the paper's "if data objects are not immutable, the transformed program
  // would always abort" limit.
  bench::PrintHeader("Ablation 1: fraction of aborting tasks vs speculation payoff");
  const int64_t kUsers = 800;
  const int64_t kPostsPerLight = 8;   // fits capacity 16, never resizes
  const int64_t kPostsPerHeavy = 40;  // overflows capacity 16, always resizes
  double clean_ms = 0.0;
  bool first = true;
  for (int64_t heavy : {0, 0, 1, 2, 4, 8, 16}) {  // first 0 is a warmup
    std::vector<SyntheticPost> posts;
    for (int64_t user = 0; user < kUsers; ++user) {
      int64_t count = user < heavy ? kPostsPerHeavy : kPostsPerLight;
      for (int64_t i = 0; i < count; ++i) {
        SyntheticPost post;
        post.user_id = user;
        post.text = "post body #" + std::to_string(i);
        posts.push_back(std::move(post));
      }
    }
    double total = 0.0;
    int aborted_tasks = 0;
    {
      EngineConfig config;
      config.execution.mode = EngineMode::kGerenuk;
      config.execution.heap_bytes = 64u << 20;
      config.execution.num_partitions = 8;
      SparkEngine engine(config);
      SparkWorkloads workloads(engine);
      workloads.RunAccountGrouping(posts, /*initial_capacity=*/16);
      total = engine.stats().times.TotalMillis();
      aborted_tasks = engine.stats().aborts;
    }
    if (first) {
      first = false;
      continue;  // warmup discarded
    }
    if (heavy == 0) {
      clean_ms = total;
    }
    std::printf("heavy-users=%2lld  aborted-tasks=%2d/8  time=%6.1fms  "
                "vs clean speculation: %+5.1f%%\n",
                static_cast<long long>(heavy), aborted_tasks, total,
                (total / clean_ms - 1.0) * 100.0);
  }
  std::printf("(every re-executed task adds its deserialization + recomputation on top of\n"
              " the wasted speculative work — at 8/8 the penalty is the paper's worst case)\n");
}

void FusedStageDepth() {
  bench::PrintHeader("Ablation 2: fused narrow-chain depth (map^k in one SER)");
  for (int depth : {1, 4, 8}) {
    double totals[2];
    for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
      EngineConfig config;
      config.execution.mode = mode;
      config.execution.heap_bytes = 48u << 20;
      config.execution.num_partitions = 4;
      SparkEngine engine(config);
      const Klass* pair = engine.heap().klasses().DefineClass(
          "Pair", {
                      {"key", FieldKind::kI64, nullptr, 0},
                      {"value", FieldKind::kF64, nullptr, 0},
                  });
      engine.RegisterDataType(pair);
      SerProgram udfs;
      Function* bump = udfs.AddFunction("bump");
      {
        FunctionBuilder b(bump);
        int rec = b.Param("rec", IrType::Ref(pair));
        bump->return_type = IrType::Ref(pair);
        int out = b.NewObject(pair);
        b.FieldStore(out, pair, "key", b.FieldLoad(rec, pair, "key"));
        b.FieldStore(out, pair, "value",
                     b.BinOp(BinOpKind::kAdd, b.FieldLoad(rec, pair, "value"), b.ConstF(1.0)));
        b.Return(out);
        b.Done();
      }
      DatasetPtr input = engine.Source(pair, 50000, [](int64_t i, RecordWriter& w) {
        w.I64(i);
        w.F64(0.0);
      });
      std::vector<NarrowOp> ops(static_cast<size_t>(depth), NarrowOp::Map(bump, pair));
      engine.ResetMetrics();
      engine.RunStage(input, udfs, ops);
      totals[static_cast<int>(mode)] = engine.stats().times.TotalMillis();
    }
    std::printf("depth=%d  baseline=%7.1fms  gerenuk=%7.1fms  ratio=%.2f\n", depth, totals[0],
                totals[1], totals[1] / totals[0]);
  }
}

void HeapSensitivity() {
  bench::PrintHeader("Ablation 3: heap-size sensitivity (PageRank, shrinking heap)");
  SyntheticGraph graph = MakePowerLawGraph(4000, 20000, 77);
  for (size_t heap_mb : {64, 32, 20, 14}) {
    double totals[2];
    double gc[2];
    for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
      EngineConfig config;
      config.execution.mode = mode;
      config.execution.heap_bytes = heap_mb << 20;
      config.execution.num_partitions = 4;
      SparkEngine engine(config);
      SparkWorkloads workloads(engine);
      workloads.RunPageRank(graph, 8);
      totals[static_cast<int>(mode)] = engine.stats().times.TotalMillis();
      gc[static_cast<int>(mode)] = engine.stats().times.Millis(Phase::kGc);
    }
    std::printf("heap=%2zuMB  baseline=%7.1fms (gc=%5.1f)  gerenuk=%7.1fms (gc=%5.1f)  "
                "speedup=%.2fx\n",
                heap_mb, totals[0], gc[0], totals[1], gc[1], totals[0] / totals[1]);
  }
  std::printf("(the baseline degrades as the heap shrinks; Gerenuk's working set lives in\n"
              " native buffers and barely notices — the paper's Fig. 6 heap observation)\n");
}

}  // namespace
}  // namespace gerenuk

int main() {
  gerenuk::AbortRateSweep();
  gerenuk::FusedStageDepth();
  gerenuk::HeapSensitivity();
  return 0;
}
