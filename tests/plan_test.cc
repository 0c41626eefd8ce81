// Differential proof for the plan compiler (ctest -L plans): the
// direct-threaded PlanExecutor must be observationally identical to the
// tree-walking Interpreter — same checksums on every benchmark workload,
// byte-identical stage output at every worker count, and identical abort
// behavior (a compiled ABORT or forced fault lands in the same slow-path
// re-execution machinery and reproduces the same bytes).
#include <gtest/gtest.h>

#include "src/analysis/layout.h"
#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// The three fast-path runners every differential sweeps: the tree-walking
// Interpreter, the scalar direct-threaded plan, and the vectorized plan.
// The vec runner uses a non-power-of-two batch size so most loops end in a
// partial tail strip (the shape most likely to expose a commit bug).
enum class Runner { kInterpreter, kScalarPlan, kVecPlan };
constexpr Runner kRunners[] = {Runner::kInterpreter, Runner::kScalarPlan, Runner::kVecPlan};

const char* RunnerName(Runner r) {
  switch (r) {
    case Runner::kInterpreter: return "interpreter";
    case Runner::kScalarPlan: return "scalar-plan";
    default: return "vec-plan";
  }
}

void ApplyRunner(ExecutionOptions& execution, Runner r) {
  execution.use_plan_compiler = r != Runner::kInterpreter;
  execution.vectorize = r == Runner::kVecPlan;
  if (r == Runner::kVecPlan) {
    execution.vector_batch_size = 13;  // force non-power-of-two tail batches
  }
}

EngineConfig PlanSpark(Runner runner, int workers = 1) {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 64u << 20;
  config.execution.num_partitions = 3;
  config.execution.num_workers = workers;
  ApplyRunner(config.execution, runner);
  return config;
}

HadoopConfig PlanHadoop(Runner runner, int workers = 1) {
  HadoopConfig config;
  config.engine.execution.mode = EngineMode::kGerenuk;
  config.engine.execution.heap_bytes = 64u << 20;
  config.engine.execution.num_partitions = 3;
  config.engine.execution.num_workers = workers;
  config.num_reducers = 2;
  config.sort_buffer_bytes = 64 << 10;
  ApplyRunner(config.engine.execution, runner);
  return config;
}

// All eight Spark benchmark programs, interpreter vs scalar plan vs
// vectorized plan, at 1/2/8 workers. Every run is kGerenuk mode with
// identical partitioning, so floating-point evaluation order is identical
// and checksums must match exactly across all nine configurations.
TEST(PlanDifferentialTest, SparkWorkloadChecksumsMatchInterpreter) {
  SyntheticGraph graph = MakePowerLawGraph(250, 1300, 7);
  SyntheticPoints points = MakeClusteredPoints(300, 4, 3, 11);
  SyntheticLabeledPoints labeled = MakeLabeledPoints(250, 5, 13);
  std::vector<std::string> lines = MakeTextLines(120, 6, 80, 23);
  std::vector<SyntheticPost> posts = MakePosts(600, 100, 5, 29);

  struct Row {
    double checksum;
    int64_t records;
  };
  std::vector<Row> reference;
  for (Runner runner : kRunners) {
    for (int workers : kWorkerCounts) {
      SparkEngine engine(PlanSpark(runner, workers));
      SparkWorkloads workloads(engine);
      std::vector<Row> rows;
      for (const WorkloadResult& result :
           {workloads.RunPageRank(graph, 3), workloads.RunConnectedComponents(graph, 4),
            workloads.RunKMeans(points, 3, 3),
            workloads.RunLogisticRegression(labeled, 3, 0.5),
            workloads.RunChiSquareSelector(labeled),
            workloads.RunGradientBoosting(labeled, 3, 0.5), workloads.RunWordCount(lines),
            workloads.RunAccountGrouping(posts, 64)}) {
        rows.push_back({result.checksum, result.records});
      }
      // The toggle must actually change the execution engine.
      if (runner == Runner::kInterpreter) {
        EXPECT_EQ(engine.stats().plans_compiled, 0);
      } else {
        EXPECT_GT(engine.stats().plans_compiled, 0);
      }
      ASSERT_EQ(rows.size(), 8u);
      if (reference.empty()) {
        reference = rows;
        continue;
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].checksum, reference[i].checksum)
            << "workload " << i << " runner=" << RunnerName(runner)
            << " workers=" << workers;
        EXPECT_EQ(rows[i].records, reference[i].records)
            << "workload " << i << " runner=" << RunnerName(runner)
            << " workers=" << workers;
      }
    }
  }
}

// All seven Hadoop jobs, interpreter vs scalar plan vs vectorized plan, at
// 1/2/8 workers.
TEST(PlanDifferentialTest, HadoopWorkloadChecksumsMatchInterpreter) {
  std::vector<SyntheticPost> posts = MakePosts(400, 70, 6, 37);
  std::vector<std::string> lines = MakeTextLines(100, 8, 50, 41);
  struct Row {
    double checksum;
    int64_t records;
  };
  std::vector<Row> reference;
  for (Runner runner : kRunners) {
    for (int workers : kWorkerCounts) {
      HadoopEngine engine(PlanHadoop(runner, workers));
      HadoopWorkloads workloads(engine);
      DatasetPtr post_input = workloads.MakePostInput(posts);
      DatasetPtr text_input = workloads.MakeTextInput(lines);
      std::vector<Row> rows;
      for (const WorkloadResult& result :
           {workloads.RunIuf(post_input), workloads.RunUah(post_input),
            workloads.RunSpf(post_input), workloads.RunUed(post_input),
            workloads.RunCed(post_input), workloads.RunImc(text_input),
            workloads.RunTfc(text_input)}) {
        rows.push_back({result.checksum, result.records});
      }
      if (runner != Runner::kInterpreter) {
        EXPECT_GT(engine.stats().plans_compiled, 0);
      }
      ASSERT_EQ(rows.size(), 7u);
      if (reference.empty()) {
        reference = rows;
        continue;
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].checksum, reference[i].checksum)
            << "job " << i << " runner=" << RunnerName(runner) << " workers=" << workers;
        EXPECT_EQ(rows[i].records, reference[i].records)
            << "job " << i << " runner=" << RunnerName(runner) << " workers=" << workers;
      }
    }
  }
}

// Narrow-stage output bytes: one reference dump (interpreter, 1 worker),
// then every (worker count, runner) combination must reproduce it.
TEST(PlanDifferentialTest, StageBytesIdenticalAcrossWorkersAndRunners) {
  std::vector<uint8_t> reference;
  for (Runner runner : kRunners) {
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      ApplyRunner(config.execution, runner);
      SparkJob job(config);
      DatasetPtr out = job.engine.RunStage(job.MakeInput(800), job.udfs,
                                           {NarrowOp::Map(job.double_value, job.pair)});
      std::vector<uint8_t> bytes = DatasetBytes(out);
      ASSERT_FALSE(bytes.empty());
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << "runner=" << RunnerName(runner) << " workers=" << workers;
      }
    }
  }
}

// Shuffles run key-extraction plans inside the stage runner (extra_plans)
// and reuse the per-task scratch key; the reduce fold runs through its own
// plan. Bytes must still be identical everywhere.
TEST(PlanDifferentialTest, ReduceByKeyBytesIdenticalAcrossWorkersAndRunners) {
  std::vector<uint8_t> reference;
  for (Runner runner : kRunners) {
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      ApplyRunner(config.execution, runner);
      SparkJob job(config);
      DatasetPtr out = job.engine.ReduceByKey(job.MakeInput(1000), job.udfs, {},
                                              KeySpec{job.get_key, false}, job.sum_values);
      EXPECT_EQ(out->TotalRecords(), 10);
      std::vector<uint8_t> bytes = DatasetBytes(out);
      if (reference.empty()) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << "runner=" << RunnerName(runner) << " workers=" << workers;
      }
      EXPECT_EQ(job.engine.stats().aborts, 0);
    }
  }
}

// Forced aborts (fault plan, mid-record): the compiled fast path must
// abandon the task at the same point, discard its buffered emits, and the
// slow-path re-execution must reproduce the clean bytes — at every worker
// count, for every runner (the vec runner's small odd batch means the abort
// lands while batch strip state is live).
TEST(PlanDifferentialTest, ForcedAbortsMatchAcrossRunners) {
  std::vector<uint8_t> clean;
  {
    SparkJob job(SparkWith(1));
    DatasetPtr out = job.engine.RunStage(job.MakeInput(600), job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    clean = DatasetBytes(out);
  }
  for (Runner runner : kRunners) {
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      ApplyRunner(config.execution, runner);
      SparkJob job(config);
      DatasetPtr in = job.MakeInput(600);
      // One abort late in a task, one mid-record (record 7 of task 2).
      job.engine.ForceAborts(1);
      job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + 2, 7);
      DatasetPtr out = job.engine.RunStage(in, job.udfs,
                                           {NarrowOp::Map(job.double_value, job.pair)});
      EXPECT_EQ(job.engine.stats().aborts, 2) << "runner=" << RunnerName(runner);
      EXPECT_EQ(DatasetBytes(out), clean)
          << "runner=" << RunnerName(runner) << " workers=" << workers;
    }
  }
}

// Real (not fault-injected) aborts: AccountGrouping with a tiny capacity
// trips the resize violation inside compiled code. The compiled ABORT must
// fire on exactly the same tasks as the interpreter's, and the slow path
// must still produce the correct grouping.
TEST(PlanDifferentialTest, RealAbortsMatchAcrossRunners) {
  std::vector<SyntheticPost> posts = MakePosts(700, 110, 5, 29);
  double checksums[3];
  int aborts[3];
  int idx = 0;
  for (Runner runner : kRunners) {
    SparkEngine engine(PlanSpark(runner));
    SparkWorkloads workloads(engine);
    WorkloadResult result = workloads.RunAccountGrouping(posts, 4);
    checksums[idx] = result.checksum;
    aborts[idx] = engine.stats().aborts;
    ++idx;
  }
  EXPECT_EQ(checksums[0], 700.0);  // every post grouped exactly once
  EXPECT_GT(aborts[0], 0);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(checksums[i], checksums[0]) << RunnerName(kRunners[i]);
    EXPECT_EQ(aborts[i], aborts[0]) << RunnerName(kRunners[i]);
  }
}

// Satellite 1's observable: string-keyed shuffles reuse the per-task
// scratch key buffer instead of allocating per record.
TEST(PlanDifferentialTest, StringShufflesReuseScratchKeys) {
  std::vector<std::string> lines = MakeTextLines(100, 6, 60, 23);
  SparkEngine engine(PlanSpark(Runner::kVecPlan));
  SparkWorkloads workloads(engine);
  WorkloadResult result = workloads.RunWordCount(lines);
  EXPECT_EQ(result.checksum, 100.0 * 6);
  EXPECT_GT(engine.stats().key_allocs_saved, 0);
}

// ExprPool::FoldConstants agreement: on every workload schema (all Spark
// and Hadoop top-level types), any offset expression the fold pass declares
// constant must evaluate — via the unfolded reference Eval — to the folded
// value no matter what bytes the record contains.
TEST(ExprFoldTest, FoldedConstantsAgreeWithEvalOnAllWorkloadSchemas) {
  int total_folded = 0;
  auto check_pool = [&total_folded](const DataStructAnalyzer& engine_layouts) {
    ExprPool pool;
    DataStructAnalyzer analyzer(pool);
    for (const Klass* top : engine_layouts.top_types()) {
      std::string error;
      ASSERT_TRUE(analyzer.AnalyzeTopLevel(top, &error)) << error;
    }
    ASSERT_GT(pool.size(), 0u);
    pool.FoldConstants();
    for (int32_t fake_len : {0, 3, 7777}) {
      auto read = [fake_len](int64_t) { return fake_len; };
      for (int id = 0; id < static_cast<int>(pool.size()); ++id) {
        int64_t folded = 0;
        if (pool.FoldedConstant(id, &folded)) {
          EXPECT_EQ(folded, pool.Eval(id, read))
              << "expr " << id << " (" << pool.ToString(id) << ") with lengths "
              << fake_len;
          total_folded += 1;
        }
      }
    }
  };
  {
    SparkEngine engine(PlanSpark(Runner::kVecPlan));
    SparkWorkloads workloads(engine);
    check_pool(engine.layouts());
  }
  {
    HadoopEngine engine(PlanHadoop(Runner::kVecPlan));
    HadoopWorkloads workloads(engine);
    check_pool(engine.layouts());
  }
  // Fixed-size records exist in every schema, so folding must have fired.
  EXPECT_GT(total_folded, 0);
}

// Growing the pool after a fold pass must stay conservative: unfolded ids
// report false until the next pass, then fold correctly.
TEST(ExprFoldTest, FoldIsIdempotentAndConservativeForNewExprs) {
  ExprPool pool;
  int a = pool.AddConstant(12);
  pool.FoldConstants();
  int64_t v = 0;
  ASSERT_TRUE(pool.FoldedConstant(a, &v));
  EXPECT_EQ(v, 12);

  SizeExpr sym;
  sym.constant = 8;
  sym.terms.push_back({4, a});  // 8 + 4 * lengthAt(expr a)
  int b = pool.Add(sym);
  SizeExpr zero_scale;
  zero_scale.constant = 5;
  zero_scale.terms.push_back({0, b});  // value-independent despite the term
  int c = pool.Add(zero_scale);

  EXPECT_FALSE(pool.FoldedConstant(b, &v));
  EXPECT_FALSE(pool.FoldedConstant(c, &v));  // added after the pass
  pool.FoldConstants();
  pool.FoldConstants();  // idempotent
  EXPECT_FALSE(pool.FoldedConstant(b, &v));  // genuinely symbolic
  ASSERT_TRUE(pool.FoldedConstant(c, &v));
  EXPECT_EQ(v, 5);
  auto read = [](int64_t) { return 99; };
  EXPECT_EQ(pool.Eval(c, read), 5);
  EXPECT_EQ(pool.Eval(b, read), 8 + 4 * 99);
}

// ---------------------------------------------------------------------------
// The native-only ISA: heap-object ops never reach a plan.
// ---------------------------------------------------------------------------

// A plan's ops as comparable rows: opcode, operands and targets.
std::vector<std::vector<int64_t>> PlanRows(const SerPlan& plan) {
  std::vector<std::vector<int64_t>> rows;
  for (const PlanFunction& pf : plan.funcs()) {
    for (const PlanOp& op : pf.ops) {
      rows.push_back({static_cast<int64_t>(op.code), op.dst, op.a, op.b, op.c, op.d, op.dst2,
                      op.target, op.target2, op.args_len, op.imm});
    }
  }
  return rows;
}

// Adds a klass the engine never registers as a data type: an object of it is
// a control-path object, and the transformer leaves its heap ops in place.
const Klass* DefineHelper(SparkEngine& engine) {
  return engine.heap().klasses().DefineClass("Helper", {
                                                           {"k", FieldKind::kI64, nullptr, 0},
                                                           {"v", FieldKind::kF64, nullptr, 0},
                                                       });
}

// key(rec) through a Helper: h.k = rec.key; return h.k.
const Function* AddHelperKey(PairUdfs* job, const Klass* helper) {
  Function* f = job->udfs.AddFunction("helper_key");
  FunctionBuilder b(f);
  int rec = b.Param("rec", IrType::Ref(job->pair));
  f->return_type = IrType::I64();
  int h = b.NewObject(helper);
  b.FieldStore(h, helper, "k", b.FieldLoad(rec, job->pair, "key"));
  b.Return(b.FieldLoad(h, helper, "k"));
  b.Done();
  return f;
}

// (a.key, a.value + b.value), the sum passing through a Helper's v field: a
// reduce, or with `binary` false a map of one record (b = a: value *= 2).
const Function* AddHelperPair(PairUdfs* job, const Klass* helper, const char* name,
                              bool binary) {
  const Klass* pair = job->pair;
  Function* f = job->udfs.AddFunction(name);
  FunctionBuilder b(f);
  int a = b.Param("a", IrType::Ref(pair));
  int c = binary ? b.Param("b", IrType::Ref(pair)) : a;
  f->return_type = IrType::Ref(pair);
  int h = b.NewObject(helper);
  b.FieldStore(h, helper, "v",
               b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                       b.FieldLoad(c, pair, "value")));
  int out = b.NewObject(pair);
  b.FieldStore(out, pair, "key", b.FieldLoad(a, pair, "key"));
  b.FieldStore(out, pair, "value", b.FieldLoad(h, helper, "v"));
  b.Return(out);
  b.Done();
  return f;
}

// The heap op the transformer keeps behind a Case-7 abort is never lowered:
// the plan is op for op the plan of the same program with that statement
// erased, and the program still gets a plan.
TEST(PlanIsaTest, AbortFencedHeapOpIsNotLowered) {
  SparkJob job(SparkWith(1));
  const Function* poisoned = BuildPoisonedSum(&job);
  TransformStats stats;
  CompiledFunction c = CompileSingleFunction(EngineMode::kGerenuk, job.engine.layouts(),
                                             job.udfs, poisoned, &stats);
  ASSERT_NE(c.transformed, nullptr);
  SerProgram erased;
  int fenced = 0;
  for (const std::unique_ptr<Function>& fn : c.transformed->functions) {
    Function* copy = erased.AddFunction(fn->name);
    copy->num_params = fn->num_params;
    copy->return_type = fn->return_type;
    copy->vars = fn->vars;
    for (size_t i = 0; i < fn->body.size(); ++i) {
      if (i > 0 && fn->body[i - 1].op == Op::kAbort) {
        fenced += 1;
        continue;
      }
      copy->body.push_back(fn->body[i]);
    }
    copy->ResolveLabels();
  }
  ASSERT_EQ(fenced, 1);
  const std::shared_ptr<const SerPlan> plan = CompilePlan(*c.transformed, job.engine.layouts());
  const std::shared_ptr<const SerPlan> reference = CompilePlan(erased, job.engine.layouts());
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(plan->op_counts()[static_cast<size_t>(PlanOpCode::kAbort)], 1);
  EXPECT_EQ(PlanRows(*plan), PlanRows(*reference));
}

// A heap op that can run (here on a control-path Helper) leaves the whole
// program without a plan; the transformed program itself still exists.
TEST(PlanIsaTest, ReachableHeapOpGivesNoPlan) {
  SparkJob job(SparkWith(1));
  const Klass* helper = DefineHelper(job.engine);
  for (const Function* fn : {AddHelperKey(&job, helper),
                             AddHelperPair(&job, helper, "helper_sum", /*binary=*/true)}) {
    TransformStats stats;
    CompiledFunction c =
        CompileSingleFunction(EngineMode::kGerenuk, job.engine.layouts(), job.udfs, fn, &stats);
    ASSERT_NE(c.transformed, nullptr) << fn->name;
    EXPECT_EQ(CompilePlan(*c.transformed, job.engine.layouts()), nullptr) << fn->name;
  }
}

// Output bytes of `job` on a fresh Pair job in `mode`, with the engine stats.
struct JobRun {
  std::vector<uint8_t> bytes;
  EngineStats stats;
};

template <typename Job>
JobRun RunPairJob(const EngineConfig& config, const Job& job_fn) {
  SparkJob job(config);
  const Klass* helper = DefineHelper(job.engine);
  DatasetPtr in = job.MakeInput(1000);
  job.engine.ResetMetrics();
  DatasetPtr out = job_fn(job, helper, in);
  return JobRun{OutputBytes(job.engine, out), job.engine.stats()};
}

// Runs `job_fn` in baseline mode, then on every runner at 1, 2 and 8
// workers: every Gerenuk run must return the baseline's bytes with no
// abort. Returns plans_compiled per runner (the same at every worker count).
template <typename Job>
std::vector<int> ExpectBaselineBytesOnEveryRunner(const Job& job_fn) {
  EngineConfig baseline = SparkWith(1);
  baseline.execution.mode = EngineMode::kBaseline;
  const std::vector<uint8_t> reference = RunPairJob(baseline, job_fn).bytes;
  EXPECT_FALSE(reference.empty());
  std::vector<int> plans;
  for (Runner runner : kRunners) {
    plans.push_back(-1);
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      ApplyRunner(config.execution, runner);
      JobRun r = RunPairJob(config, job_fn);
      EXPECT_EQ(r.bytes, reference) << "runner=" << RunnerName(runner) << " workers=" << workers;
      EXPECT_EQ(r.stats.aborts, 0) << "runner=" << RunnerName(runner) << " workers=" << workers;
      if (plans.back() >= 0) {
        EXPECT_EQ(r.stats.plans_compiled, plans.back()) << "runner=" << RunnerName(runner);
      }
      plans.back() = r.stats.plans_compiled;
    }
  }
  return plans;
}

// A map stage whose UDF allocates a control-path Helper has no plan: its
// fast path runs on the interpreter under every runner setting.
TEST(NoPlanFallbackTest, ControlPathHelperMapStageMatchesBaseline) {
  const std::vector<int> plans = ExpectBaselineBytesOnEveryRunner(
      [](SparkJob& job, const Klass* helper, const DatasetPtr& in) {
        const Function* map = AddHelperPair(&job, helper, "helper_double", /*binary=*/false);
        return job.engine.RunStage(in, job.udfs, {NarrowOp::Map(map, job.pair)});
      });
  EXPECT_EQ(plans, std::vector<int>({0, 0, 0}));
}

// A ReduceByKey whose key or reduce function has no plan: the runners that
// call it fall back to the interpreter, and only the functions and stages
// with a plan count in plans_compiled.
TEST(NoPlanFallbackTest, KeyOrReduceWithoutPlanMatchesBaseline) {
  const std::vector<int> plain = ExpectBaselineBytesOnEveryRunner(
      [](SparkJob& job, const Klass*, const DatasetPtr& in) {
        return job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                      job.sum_values);
      });
  const std::vector<int> helper_key = ExpectBaselineBytesOnEveryRunner(
      [](SparkJob& job, const Klass* helper, const DatasetPtr& in) {
        return job.engine.ReduceByKey(in, job.udfs, {},
                                      KeySpec{AddHelperKey(&job, helper), false},
                                      job.sum_values);
      });
  const std::vector<int> helper_reduce = ExpectBaselineBytesOnEveryRunner(
      [](SparkJob& job, const Klass* helper, const DatasetPtr& in) {
        return job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                      AddHelperPair(&job, helper, "helper_sum", true));
      });
  EXPECT_EQ(plain[0], 0);
  EXPECT_GT(plain[1], 0);
  for (size_t r = 1; r < plain.size(); ++r) {
    EXPECT_LT(helper_key[r], plain[r]) << RunnerName(kRunners[r]);
    EXPECT_LT(helper_reduce[r], plain[r]) << RunnerName(kRunners[r]);
  }
}

}  // namespace
}  // namespace gerenuk
