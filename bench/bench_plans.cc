// Plan-compiler performance harness. Prints human-readable rows and writes
// BENCH_plans.json (op mix, records/sec, interpreter-vs-plan ratios) so
// future PRs can track the perf trajectory machine-readably.
//
//   1. Dispatch — the same arithmetic-loop UDF through the tree-walking
//      Interpreter and the direct-threaded PlanExecutor; pure dispatch cost,
//      no native data. The acceptance bar is >= 2x records/sec.
//   2. Stage throughput — a full map stage over Pair records with
//      use_plan_compiler off/on (what an engine user actually sees).
//   3. Tiny-record grouping — EXPERIMENTS.md's "limit worth naming":
//      computation-free grouping over tiny records, baseline vs Gerenuk
//      interpreter vs Gerenuk plans. The plan path is the fix.
//   4. Op mix of a representative compiled stage (fusion + folding rates).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/dataflow/stage_compiler.h"
#include "src/exec/plan.h"
#include "src/ir/builder.h"
#include "src/workloads/spark_workloads.h"

namespace gerenuk {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The dispatch workload: one "record" = one call of a 64-iteration integer
// loop (~390 interpreted statements), the shape of a per-record UDF body.
Function* BuildSpin(SerProgram& prog) {
  Function* spin = prog.AddFunction("spin");
  FunctionBuilder b(spin);
  int n = b.Param("n", IrType::I64());
  spin->return_type = IrType::I64();
  int acc = b.Local("acc", IrType::I64());
  b.AssignTo(acc, b.ConstI(1));
  int three = b.ConstI(3);
  int seven = b.ConstI(7);
  b.For(n, [&](int i) {
    int t = b.BinOp(BinOpKind::kMul, i, three);
    int u = b.BinOp(BinOpKind::kXor, t, seven);
    b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, u));
  });
  b.Return(acc);
  b.Done();
  return spin;
}

// The prior run's dispatch rates, read from BENCH_plans.json in the working
// directory before JsonWriter truncates it; 0 when absent. The file's first
// occurrence of each key belongs to the dispatch section. Older files
// predate the vectorizer and carry only "plan_records_per_sec" (then the
// scalar rate); current files report the vectorized rate under that key and
// the scalar rate under "scalar_plan_records_per_sec", so the scalar
// baseline falls back to the legacy key when the new one is missing.
struct PriorRates {
  double plan = 0.0;    // primary dispatch rate (vectorized in new files)
  double scalar = 0.0;  // scalar plan dispatch rate
  double interp = 0.0;  // interpreter rate of the same run
};

PriorRates ReadPriorPlanRps() {
  PriorRates prior;
  std::FILE* f = std::fopen("BENCH_plans.json", "r");
  if (f == nullptr) {
    return prior;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  auto find = [&](const char* key) {
    size_t pos = text.find(key);
    if (pos == std::string::npos) {
      return 0.0;
    }
    return std::strtod(text.c_str() + pos + std::strlen(key), nullptr);
  };
  prior.plan = find("\"plan_records_per_sec\":");
  prior.scalar = find("\"scalar_plan_records_per_sec\":");
  prior.interp = find("\"interpreter_records_per_sec\":");
  if (prior.scalar == 0.0) {
    prior.scalar = prior.plan;  // legacy single-rate file: scalar dispatch
  }
  return prior;
}

// Returns the number of regression guards that fired (0 = healthy).
int DispatchExperiment(bench::JsonWriter& json, const PriorRates& prior) {
  bench::PrintHeader("Plans 1: fast-path dispatch, interpreter vs compiled plan");
  SerProgram prog;
  Function* spin = BuildSpin(prog);
  Heap heap(HeapConfig{16u << 20, GcKind::kGenerational, 0.55, 0.35, 2});
  WellKnown wk{heap};
  ExprPool pool;
  DataStructAnalyzer layouts{pool};
  const std::vector<Value> args = {Value::I64(64)};
  constexpr int kCalls = 200000;

  // Alternate interpreter/plan rounds and keep each side's best: on a shared
  // single-core host, best-of filters scheduler interference out of the ratio.
  constexpr int kRounds = 5;
  int64_t sum = 0;
  double interp_rps = 0.0;
  double scalar_rps = 0.0;
  double vec_rps = 0.0;
  pool.FoldConstants();
  PlanOptions scalar_options;
  scalar_options.vectorize = false;
  std::shared_ptr<const SerPlan> scalar_plan = CompilePlan(prog, layouts, scalar_options);
  std::shared_ptr<const SerPlan> vec_plan = CompilePlan(prog, layouts);
  GERENUK_CHECK_EQ(scalar_plan->vec_loops(), 0);
  GERENUK_CHECK_GT(vec_plan->vec_loops(), 0);  // spin must vectorize
  Interpreter interp(prog, heap, wk, &layouts, nullptr);
  PlanExecutor scalar_exec(*scalar_plan, heap, wk, &layouts, nullptr);
  PlanExecutor vec_exec(*vec_plan, heap, wk, &layouts, nullptr);
  for (int i = 0; i < kCalls / 10; ++i) {  // warmup all three paths
    sum += interp.CallFunction(spin, args).i;
    sum += scalar_exec.CallFunction(spin, args).i;
    sum += vec_exec.CallFunction(spin, args).i;
  }
  GERENUK_CHECK_EQ(scalar_exec.CallFunction(spin, args).i,
                   vec_exec.CallFunction(spin, args).i);
  for (int round = 0; round < kRounds; ++round) {
    // Re-warm after each executor switch: alternating rounds retrain the
    // indirect-branch predictor, which otherwise taxes whichever side just
    // took over (the direct-threaded plan loop most of all).
    for (int i = 0; i < kCalls / 20; ++i) {
      sum += interp.CallFunction(spin, args).i;
    }
    double start = NowMs();
    for (int i = 0; i < kCalls; ++i) {
      sum += interp.CallFunction(spin, args).i;
    }
    interp_rps = std::max(interp_rps, kCalls / ((NowMs() - start) / 1000.0));
    for (int i = 0; i < kCalls / 20; ++i) {
      sum += scalar_exec.CallFunction(spin, args).i;
    }
    start = NowMs();
    for (int i = 0; i < kCalls; ++i) {
      sum += scalar_exec.CallFunction(spin, args).i;
    }
    scalar_rps = std::max(scalar_rps, kCalls / ((NowMs() - start) / 1000.0));
    for (int i = 0; i < kCalls / 20; ++i) {
      sum += vec_exec.CallFunction(spin, args).i;
    }
    start = NowMs();
    for (int i = 0; i < kCalls; ++i) {
      sum += vec_exec.CallFunction(spin, args).i;
    }
    vec_rps = std::max(vec_rps, kCalls / ((NowMs() - start) / 1000.0));
  }
  // The vectorized plan with the sampled op profiler on (stride 64): the
  // dispatch loop switches to its profiled instantiation, so this is the
  // whole tracing-on surcharge for pure dispatch. Vec handlers charge their
  // opcode once per lane, so the profile stays per-element.
  PlanExecutor profiled(*vec_plan, heap, wk, &layouts, nullptr);
  OpProfile profile;
  profiled.EnableProfiling(&profile, /*stride=*/64);
  double profiled_rps = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kCalls / 20; ++i) {
      sum += profiled.CallFunction(spin, args).i;
    }
    double start = NowMs();
    for (int i = 0; i < kCalls; ++i) {
      sum += profiled.CallFunction(spin, args).i;
    }
    profiled_rps = std::max(profiled_rps, kCalls / ((NowMs() - start) / 1000.0));
  }
  GERENUK_CHECK_NE(sum, 0);  // keep the loops observable
  GERENUK_CHECK_GT(profile.samples, 0);
  double ratio = vec_rps / interp_rps;
  std::printf("spin plan: ops=%lld fused=%lld copies elided=%lld vec loops=%lld "
              "ops vectorized=%lld layout=%s\n",
              static_cast<long long>(vec_plan->ops_total()),
              static_cast<long long>(vec_plan->ops_fused()),
              static_cast<long long>(vec_plan->ops_copies_elided()),
              static_cast<long long>(vec_plan->vec_loops()),
              static_cast<long long>(vec_plan->ops_vectorized()), vec_plan->layout());
  for (size_t k = 0; k < static_cast<size_t>(PlanOpCode::kCount); ++k) {
    if (vec_plan->op_counts()[k] > 0) {
      std::printf("  %-24s %6lld\n", PlanOpName(static_cast<PlanOpCode>(k)),
                  static_cast<long long>(vec_plan->op_counts()[k]));
    }
  }
  std::printf("interpreter: %10.0f records/s\n", interp_rps);
  std::printf("scalar plan: %10.0f records/s\n", scalar_rps);
  std::printf("vec plan:    %10.0f records/s (%.2fx scalar)\n", vec_rps,
              vec_rps / scalar_rps);
  std::printf("vec+profiler: %9.0f records/s (stride 64, %.1f%% surcharge)\n", profiled_rps,
              (vec_rps - profiled_rps) / vec_rps * 100.0);
  std::printf("plan/interpreter = %.2fx (acceptance bar: >= 2x)\n", ratio);

  // Both guards compare rates against the interpreter's, measured in the
  // same alternating rounds: host load slows every side of a round alike, so
  // the ratios measure the change, where absolute rates measure the host.
  // The baseline is the committed run's scalar/interpreter ratio.
  const double scalar_vs_interp = scalar_rps / interp_rps;
  const double prior_scalar_vs_interp =
      prior.scalar > 0.0 && prior.interp > 0.0 ? prior.scalar / prior.interp : 0.0;
  int regressions = 0;

  // Tracing-off overhead guard: the unprofiled scalar dispatch loop must
  // stay within 5% of the prior run's scalar/interpreter ratio (the profiler
  // is a separate template instantiation precisely so the off path carries
  // no new instructions, and the vectorizer must not tax scalar dispatch).
  double tracing_off_overhead_pct = 0.0;
  int tracing_off_regression = 0;
  if (prior_scalar_vs_interp > 0.0) {
    tracing_off_overhead_pct =
        (prior_scalar_vs_interp - scalar_vs_interp) / prior_scalar_vs_interp * 100.0;
    std::printf("tracing-off scalar/interpreter %.2fx vs prior BENCH_plans.json %.2fx: %+.1f%% "
                "(budget: 5%%)\n",
                scalar_vs_interp, prior_scalar_vs_interp, tracing_off_overhead_pct);
    if (tracing_off_overhead_pct > 5.0) {
      tracing_off_regression = 1;
      regressions += 1;
      std::fprintf(stderr,
                   "REGRESSION: tracing-off scalar plan dispatch is %.1f%% slower against the "
                   "interpreter than in the prior run (%.2fx vs %.2fx; budget 5%%)\n",
                   tracing_off_overhead_pct, scalar_vs_interp, prior_scalar_vs_interp);
    }
  } else {
    std::printf("tracing-off overhead guard: no prior BENCH_plans.json, skipping\n");
  }

  // Vectorized-path guard: the vec plan's rate against the interpreter must
  // never fall more than 5% below the prior run's *scalar* ratio — the floor
  // a broken vectorizer (bailing every strip, or pessimizing the loop) would
  // breach.
  double vec_vs_prior_scalar_pct = 0.0;
  int vec_regression = 0;
  if (prior_scalar_vs_interp > 0.0) {
    const double vec_vs_interp = vec_rps / interp_rps;
    vec_vs_prior_scalar_pct =
        (vec_vs_interp - prior_scalar_vs_interp) / prior_scalar_vs_interp * 100.0;
    std::printf("vec/interpreter %.2fx vs prior scalar/interpreter %.2fx: %+.1f%% "
                "(floor: -5%%)\n",
                vec_vs_interp, prior_scalar_vs_interp, vec_vs_prior_scalar_pct);
    if (vec_vs_prior_scalar_pct < -5.0) {
      vec_regression = 1;
      regressions += 1;
      std::fprintf(stderr,
                   "REGRESSION: vectorized plan dispatch against the interpreter is %.1f%% "
                   "below the prior run's scalar ratio (%.2fx vs %.2fx; floor -5%%)\n",
                   -vec_vs_prior_scalar_pct, vec_vs_interp, prior_scalar_vs_interp);
    }
  } else {
    std::printf("vec regression guard: no prior BENCH_plans.json, skipping\n");
  }

  json.BeginObject("dispatch");
  json.Field("interpreter_records_per_sec", interp_rps);
  json.Field("plan_records_per_sec", vec_rps);  // primary rate: the default path
  json.Field("scalar_plan_records_per_sec", scalar_rps);
  json.Field("scalar_vs_interpreter", scalar_vs_interp);
  json.Field("profiled_records_per_sec", profiled_rps);
  json.Field("profiler_overhead_pct", (vec_rps - profiled_rps) / vec_rps * 100.0);
  json.Field("plan_vs_interpreter", ratio);
  json.Field("vec_vs_scalar", vec_rps / scalar_rps);
  json.Field("vec_loops", vec_plan->vec_loops());
  json.Field("ops_vectorized", vec_plan->ops_vectorized());
  json.Field("layout", vec_plan->layout());
  json.Field("tracing_off_overhead_pct", tracing_off_overhead_pct);
  json.Field("tracing_off_regression", tracing_off_regression);
  json.Field("vec_vs_prior_scalar_pct", vec_vs_prior_scalar_pct);
  json.Field("vec_regression", vec_regression);
  json.End();
  return regressions;
}

void StageThroughput(bench::JsonWriter& json) {
  bench::PrintHeader("Plans 2: full map-stage throughput, use_plan_compiler off/on");
  constexpr int64_t kRecords = 120000;
  double rps[2] = {0.0, 0.0};
  for (bool use_plans : {false, true}) {
    EngineConfig config;
    config.execution.mode = EngineMode::kGerenuk;
    config.execution.heap_bytes = 64u << 20;
    config.execution.num_partitions = 4;
    config.execution.use_plan_compiler = use_plans;
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
                   b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, pair, "value"), b.ConstF(2.0)));
      b.Return(out);
      b.Done();
    }
    DatasetPtr input = engine.Source(pair, kRecords, [](int64_t i, RecordWriter& w) {
      w.I64(i % 97);
      w.F64(i * 0.5);
    });
    engine.RunStage(input, udfs, {NarrowOp::Map(bump, pair)});  // warmup
    engine.ResetMetrics();
    double start = NowMs();
    engine.RunStage(input, udfs, {NarrowOp::Map(bump, pair)});
    double elapsed_s = (NowMs() - start) / 1000.0;
    rps[use_plans ? 1 : 0] = kRecords / elapsed_s;
    std::printf("%-12s %10.0f records/s  (%.1fms for %lld records)\n",
                use_plans ? "plan:" : "interpreter:", rps[use_plans ? 1 : 0],
                elapsed_s * 1000.0, static_cast<long long>(kRecords));
  }
  std::printf("plan/interpreter = %.2fx end-to-end\n", rps[1] / rps[0]);

  json.BeginObject("map_stage");
  json.Field("records", static_cast<int64_t>(kRecords));
  json.Field("interpreter_records_per_sec", rps[0]);
  json.Field("plan_records_per_sec", rps[1]);
  json.Field("plan_vs_interpreter", rps[1] / rps[0]);
  json.End();
}

void TinyRecordGrouping(bench::JsonWriter& json) {
  bench::PrintHeader(
      "Plans 3: tiny-record computation-free grouping (EXPERIMENTS.md's limit)");
  // Ablation 1's clean setting: 800 users x 8 tiny posts, capacity 16 so no
  // resize violations fire; pure grouping, no computation to amortize.
  std::vector<SyntheticPost> posts;
  for (int64_t user = 0; user < 800; ++user) {
    for (int64_t i = 0; i < 8; ++i) {
      SyntheticPost post;
      post.user_id = user;
      post.text = "post body #" + std::to_string(i);
      posts.push_back(std::move(post));
    }
  }
  struct Cell {
    const char* label;
    EngineMode mode;
    bool plans;
    double ms;
  };
  Cell cells[] = {
      {"baseline", EngineMode::kBaseline, false, 0.0},
      {"gerenuk-interpreter", EngineMode::kGerenuk, false, 0.0},
      {"gerenuk-plan", EngineMode::kGerenuk, true, 0.0},
  };
  for (Cell& cell : cells) {
    double best = 0.0;
    for (int round = 0; round < 3; ++round) {  // round 0 is a warmup
      EngineConfig config;
      config.execution.mode = cell.mode;
      config.execution.heap_bytes = 64u << 20;
      config.execution.num_partitions = 8;
      config.execution.use_plan_compiler = cell.plans;
      SparkEngine engine(config);
      SparkWorkloads workloads(engine);
      workloads.RunAccountGrouping(posts, /*initial_capacity=*/16);
      double total = engine.stats().times.TotalMillis();
      if (round > 0 && (best == 0.0 || total < best)) {
        best = total;
      }
    }
    cell.ms = best;
    std::printf("%-22s %7.1fms\n", cell.label, cell.ms);
  }
  double interp_ratio = cells[1].ms / cells[0].ms;
  double plan_ratio = cells[2].ms / cells[0].ms;
  std::printf("gerenuk/baseline: interpreter %.2fx -> plan %.2fx (1.0 = parity; "
              "lower is better)\n",
              interp_ratio, plan_ratio);

  json.BeginObject("tiny_record_grouping");
  json.Field("baseline_ms", cells[0].ms);
  json.Field("gerenuk_interpreter_ms", cells[1].ms);
  json.Field("gerenuk_plan_ms", cells[2].ms);
  json.Field("interpreter_vs_baseline", interp_ratio);
  json.Field("plan_vs_baseline", plan_ratio);
  json.End();
}

void OpMix(bench::JsonWriter& json) {
  bench::PrintHeader("Plans 4: op mix of a compiled map stage");
  Heap heap(HeapConfig{16u << 20, GcKind::kGenerational, 0.55, 0.35, 2});
  KlassRegistry& reg = heap.klasses();
  const Klass* pair = reg.DefineClass("Pair", {
                                                  {"key", FieldKind::kI64, nullptr, 0},
                                                  {"value", FieldKind::kF64, nullptr, 0},
                                              });
  ExprPool pool;
  DataStructAnalyzer layouts{pool};
  std::string error;
  GERENUK_CHECK(layouts.AnalyzeTopLevel(pair, &error)) << error;
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
  TransformStats tstats;
  StagePrograms stage = CompileNarrowStage(EngineMode::kGerenuk, layouts, pair, udfs,
                                           {NarrowOp::Map(bump, pair)}, false, nullptr,
                                           &tstats, reg);
  pool.FoldConstants();
  std::shared_ptr<const SerPlan> plan = CompilePlan(*stage.transformed, layouts);
  double run_len_avg =
      plan->run_count() > 0
          ? static_cast<double>(plan->run_len_sum()) / static_cast<double>(plan->run_count())
          : 0.0;
  std::printf("ops=%lld fused=%lld copies elided=%lld offsets folded=%lld symbolic=%lld\n",
              static_cast<long long>(plan->ops_total()),
              static_cast<long long>(plan->ops_fused()),
              static_cast<long long>(plan->ops_copies_elided()),
              static_cast<long long>(plan->offsets_folded()),
              static_cast<long long>(plan->offsets_symbolic()));
  std::printf("fused runs=%lld (avg len %.1f, max %lld)  vec loops=%lld rejected=%lld "
              "ops vectorized=%lld layout=%s\n",
              static_cast<long long>(plan->run_count()), run_len_avg,
              static_cast<long long>(plan->run_len_max()),
              static_cast<long long>(plan->vec_loops()),
              static_cast<long long>(plan->vec_loops_rejected()),
              static_cast<long long>(plan->ops_vectorized()), plan->layout());
  for (const std::string& why : plan->vec_reject_reasons()) {
    std::printf("  vec reject: %s\n", why.c_str());
  }

  json.BeginObject("op_mix");
  json.Field("ops_total", plan->ops_total());
  json.Field("ops_fused", plan->ops_fused());
  json.Field("ops_copies_elided", plan->ops_copies_elided());
  json.Field("offsets_folded", plan->offsets_folded());
  json.Field("offsets_symbolic", plan->offsets_symbolic());
  json.Field("fused_run_count", plan->run_count());
  json.Field("fused_run_len_avg", run_len_avg);
  json.Field("fused_run_len_max", plan->run_len_max());
  json.Field("vec_loops", plan->vec_loops());
  json.Field("vec_loops_rejected", plan->vec_loops_rejected());
  json.Field("ops_vectorized", plan->ops_vectorized());
  json.Field("layout", plan->layout());
  json.BeginArray("vec_reject_reasons");
  for (const std::string& why : plan->vec_reject_reasons()) {
    json.BeginObject();
    json.Field("reason", why);
    json.End();
  }
  json.End();
  json.BeginArray("ops");
  for (size_t i = 0; i < static_cast<size_t>(PlanOpCode::kCount); ++i) {
    if (plan->op_counts()[i] == 0) {
      continue;
    }
    PlanOpCode code = static_cast<PlanOpCode>(i);
    std::printf("  %-22s %4lld\n", PlanOpName(code),
                static_cast<long long>(plan->op_counts()[i]));
    json.BeginObject();
    json.Field("op", PlanOpName(code));
    json.Field("count", plan->op_counts()[i]);
    json.End();
  }
  json.End();
  json.End();
}

// Plans 5: the layout cost model's other bucket. A loop whose body makes a
// call every iteration (a row op) must stay row-layout: the vectorizer
// rejects it, the plan is op-for-op what the scalar compiler emits, and
// turning `vectorize` on must cost nothing. This is the acceptance bar
// "row-layout ablation no worse than the scalar plan path".
int RowLayoutAblation(bench::JsonWriter& json) {
  bench::PrintHeader("Plans 5: row-layout ablation (call per iteration, vec on vs off)");
  Heap heap(HeapConfig{16u << 20, GcKind::kGenerational, 0.55, 0.35, 2});
  WellKnown wk{heap};
  ExprPool pool;
  DataStructAnalyzer layouts{pool};
  SerProgram prog;
  Function* weight = prog.AddFunction("weight");
  {
    FunctionBuilder b(weight);
    int x = b.Param("x", IrType::I64());
    weight->return_type = IrType::I64();
    b.Return(b.BinOp(BinOpKind::kAnd, x, b.ConstI(3)));
    b.Done();
  }
  Function* row_spin = prog.AddFunction("row_spin");
  {
    FunctionBuilder b(row_spin);
    int n = b.Param("n", IrType::I64());
    row_spin->return_type = IrType::I64();
    int acc = b.Local("acc", IrType::I64());
    b.AssignTo(acc, b.ConstI(1));
    b.For(n, [&](int i) {
      int k = b.Call(weight, {i});  // the row op
      int t = b.BinOp(BinOpKind::kMul, i, k);
      b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, t));
    });
    b.Return(acc);
    b.Done();
  }
  pool.FoldConstants();
  PlanOptions scalar_options;
  scalar_options.vectorize = false;
  std::shared_ptr<const SerPlan> scalar_plan = CompilePlan(prog, layouts, scalar_options);
  std::shared_ptr<const SerPlan> vec_plan = CompilePlan(prog, layouts);
  // The cost model must keep this loop in the row bucket in both configs.
  GERENUK_CHECK_EQ(vec_plan->vec_loops(), 0);
  GERENUK_CHECK_GT(vec_plan->vec_loops_rejected(), 0);
  GERENUK_CHECK_EQ(vec_plan->ops_total(), scalar_plan->ops_total());
  const char* reject =
      vec_plan->vec_reject_reasons().empty() ? "" : vec_plan->vec_reject_reasons()[0].c_str();
  std::printf("row_spin: layout=%s vec loops rejected=%lld (%s)\n", vec_plan->layout(),
              static_cast<long long>(vec_plan->vec_loops_rejected()), reject);

  const std::vector<Value> args = {Value::I64(64)};
  constexpr int kCalls = 100000;
  constexpr int kRounds = 5;
  int64_t sum = 0;
  double off_rps = 0.0;
  double on_rps = 0.0;
  PlanExecutor off_exec(*scalar_plan, heap, wk, &layouts, nullptr);
  PlanExecutor on_exec(*vec_plan, heap, wk, &layouts, nullptr);
  for (int i = 0; i < kCalls / 10; ++i) {  // warmup
    sum += off_exec.CallFunction(row_spin, args).i;
    sum += on_exec.CallFunction(row_spin, args).i;
  }
  GERENUK_CHECK_EQ(off_exec.CallFunction(row_spin, args).i,
                   on_exec.CallFunction(row_spin, args).i);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kCalls / 20; ++i) {
      sum += off_exec.CallFunction(row_spin, args).i;
    }
    double start = NowMs();
    for (int i = 0; i < kCalls; ++i) {
      sum += off_exec.CallFunction(row_spin, args).i;
    }
    off_rps = std::max(off_rps, kCalls / ((NowMs() - start) / 1000.0));
    for (int i = 0; i < kCalls / 20; ++i) {
      sum += on_exec.CallFunction(row_spin, args).i;
    }
    start = NowMs();
    for (int i = 0; i < kCalls; ++i) {
      sum += on_exec.CallFunction(row_spin, args).i;
    }
    on_rps = std::max(on_rps, kCalls / ((NowMs() - start) / 1000.0));
  }
  GERENUK_CHECK_NE(sum, 0);
  double overhead_pct = (off_rps - on_rps) / off_rps * 100.0;
  std::printf("vectorize off: %10.0f records/s\n", off_rps);
  std::printf("vectorize on:  %10.0f records/s (%+.1f%% vs off; budget: 5%%)\n", on_rps,
              -overhead_pct);
  int row_regression = 0;
  if (overhead_pct > 5.0) {
    row_regression = 1;
    std::fprintf(stderr,
                 "REGRESSION: row-layout plan with vectorize on is %.1f%% slower than with "
                 "vectorize off (%.0f vs %.0f records/s; budget 5%%)\n",
                 overhead_pct, on_rps, off_rps);
  }

  json.BeginObject("row_layout_ablation");
  json.Field("layout", vec_plan->layout());
  json.Field("vec_loops_rejected", vec_plan->vec_loops_rejected());
  json.Field("reject_reason", reject);
  json.Field("vectorize_off_records_per_sec", off_rps);
  json.Field("vectorize_on_records_per_sec", on_rps);
  json.Field("vectorize_on_overhead_pct", overhead_pct);
  json.Field("row_layout_regression", row_regression);
  json.End();
  return row_regression;
}

}  // namespace
}  // namespace gerenuk

int main() {
  // Read the prior rates before JsonWriter truncates the file.
  gerenuk::PriorRates prior = gerenuk::ReadPriorPlanRps();
  gerenuk::bench::JsonWriter json("BENCH_plans.json");
  GERENUK_CHECK(json.ok()) << "cannot open BENCH_plans.json for writing";
  json.BeginObject();
  int regressions = gerenuk::DispatchExperiment(json, prior);
  gerenuk::StageThroughput(json);
  gerenuk::TinyRecordGrouping(json);
  gerenuk::OpMix(json);
  regressions += gerenuk::RowLayoutAblation(json);
  json.End();
  std::printf("\nwrote BENCH_plans.json\n");
  if (regressions > 0) {
    std::fprintf(stderr, "%d perf regression guard(s) fired\n", regressions);
    return 1;
  }
  return 0;
}
