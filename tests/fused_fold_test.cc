// Emit-time folding of ReduceByKey map output (ctest -L faults, -L plans,
// -L vec): a reduce with an accumulate form folds each emitted record into a
// per-task, per-bucket keyed table instead of rendering it into its bucket,
// from kFoldSlot statements the stage composed into its transformed body
// (src/transform/emit_fold.h). The shipped bytes, the fold and shuffle
// counters, and the governor's view must not depend on the runner, the
// worker count, process executors, a vec strip bailing inside the inlined
// accumulate form, or a map task aborting halfway through and refolding on
// the slow path — nor on whether a flatMap stage was fused into the fold
// (inlined, its fields forwarded, its records built only for a new key).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/dataflow/stage_compiler.h"
#include "src/exec/plan.h"
#include "src/support/trace.h"
#include "src/transform/emit_fold.h"
#include "src/transform/transformer.h"
#include "src/workloads/spark_workloads.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// Tally{key:i64, n:i64} summed by an integer reduce, next to the Pair
// workload's double sum on the same engine.
struct TallyUdfs {
  const Klass* tally = nullptr;
  const Function* get_key = nullptr;
  const Function* sum = nullptr;
};

TallyUdfs AddTally(SparkJob* job) {
  TallyUdfs t;
  KlassRegistry& reg = job->engine.heap().klasses();
  t.tally = reg.DefineClass("Tally", {
                                         {"key", FieldKind::kI64, nullptr, 0},
                                         {"n", FieldKind::kI64, nullptr, 0},
                                     });
  job->engine.RegisterDataType(t.tally);
  {
    Function* f = job->udfs.AddFunction("tally_key");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(t.tally));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, t.tally, "key"));
    b.Done();
    t.get_key = f;
  }
  {
    Function* f = job->udfs.AddFunction("tally_sum");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(t.tally));
    int c = b.Param("b", IrType::Ref(t.tally));
    f->return_type = IrType::Ref(t.tally);
    int out = b.NewObject(t.tally);
    b.FieldStore(out, t.tally, "key", b.FieldLoad(a, t.tally, "key"));
    b.FieldStore(out, t.tally, "n",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, t.tally, "n"),
                         b.FieldLoad(c, t.tally, "n")));
    b.Return(out);
    b.Done();
    t.sum = f;
  }
  return t;
}

// Narrow{key:i64, n:i32, m:i32, w:f32, t:f32}: the fields whose fold is
// exact only if the fold narrows the way the baseline heap does. n is a
// wrapping i32 sum, m an i32 max, w an f32 sum and t copied from the left
// input (out.t = a.t, which reads t through f32 -> f64 and so quiets a
// signaling NaN). `widen` is a map that makes each emitted record a builder
// whose n and m overflow i32 until the record is rendered.
struct NarrowUdfs {
  const Klass* narrow = nullptr;
  const Function* get_key = nullptr;
  const Function* fold = nullptr;
  const Function* widen = nullptr;
};

NarrowUdfs AddNarrow(SparkJob* job) {
  NarrowUdfs t;
  KlassRegistry& reg = job->engine.heap().klasses();
  const Klass* k = reg.DefineClass("Narrow", {
                                                 {"key", FieldKind::kI64, nullptr, 0},
                                                 {"n", FieldKind::kI32, nullptr, 0},
                                                 {"m", FieldKind::kI32, nullptr, 0},
                                                 {"w", FieldKind::kF32, nullptr, 0},
                                                 {"t", FieldKind::kF32, nullptr, 0},
                                             });
  job->engine.RegisterDataType(k);
  t.narrow = k;
  {
    Function* f = job->udfs.AddFunction("narrow_key");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(k));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, k, "key"));
    b.Done();
    t.get_key = f;
  }
  {
    Function* f = job->udfs.AddFunction("narrow_fold");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(k));
    int c = b.Param("b", IrType::Ref(k));
    f->return_type = IrType::Ref(k);
    int out = b.NewObject(k);
    b.FieldStore(out, k, "key", b.FieldLoad(a, k, "key"));
    b.FieldStore(out, k, "n",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, k, "n"), b.FieldLoad(c, k, "n")));
    b.FieldStore(out, k, "m",
                 b.BinOp(BinOpKind::kMax, b.FieldLoad(a, k, "m"), b.FieldLoad(c, k, "m")));
    b.FieldStore(out, k, "w",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, k, "w"), b.FieldLoad(c, k, "w")));
    b.FieldStore(out, k, "t", b.FieldLoad(a, k, "t"));
    b.Return(out);
    b.Done();
    t.fold = f;
  }
  {
    Function* f = job->udfs.AddFunction("narrow_widen");
    FunctionBuilder b(f);
    int rec = b.Param("rec", IrType::Ref(k));
    f->return_type = IrType::Ref(k);
    int out = b.NewObject(k);
    int scale = b.ConstI(262144);
    b.FieldStore(out, k, "key", b.FieldLoad(rec, k, "key"));
    b.FieldStore(out, k, "n", b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, k, "n"), scale));
    b.FieldStore(out, k, "m", b.BinOp(BinOpKind::kMul, b.FieldLoad(rec, k, "m"), scale));
    b.FieldStore(out, k, "w", b.FieldLoad(rec, k, "w"));
    b.FieldStore(out, k, "t", b.FieldLoad(rec, k, "t"));
    b.Return(out);
    b.Done();
    t.widen = f;
  }
  return t;
}

constexpr int64_t kRecords = 1000;  // keys i % 10; record i lands in map task i % 4
constexpr int64_t kAbortRecord = 100;

struct Run {
  std::vector<uint8_t> bytes;
  EngineStats stats;
};

enum class Sum {
  kI64,          // Tally integer sum
  kF64,          // Pair double sum
  kNarrow,       // Narrow fold over the input records
  kNarrowWiden,  // Narrow fold over the builders `widen` emits
};

const char* SumName(Sum sum) {
  switch (sum) {
    case Sum::kI64: return "i64 sum";
    case Sum::kF64: return "f64 sum";
    case Sum::kNarrow: return "i32/f32 fold";
    case Sum::kNarrowWiden: return "i32/f32 fold of mapped builders";
  }
  return "";
}

constexpr Sum kSums[] = {Sum::kI64, Sum::kF64, Sum::kNarrow, Sum::kNarrowWiden};

// One ReduceByKey over 1000 records: the Pair double sum (its values are
// small integers, exact in any order), the Tally integer sum, or the Narrow
// fold. With `abort_map_task`, map task 1 aborts at record kAbortRecord on
// every attempt and refolds its output on the slow path.
Run RunSum(const EngineConfig& config, Sum sum, bool abort_map_task) {
  SparkJob job(config);
  const TallyUdfs tally = AddTally(&job);
  const NarrowUdfs narrow = AddNarrow(&job);
  DatasetPtr in;
  if (sum == Sum::kI64) {
    const Klass* k = tally.tally;
    in = job.engine.Source(k, kRecords, [](int64_t i, RecordWriter& w) {
      w.I64(i % 10);
      w.I64(i * 7919 - 40000);
    });
  } else if (sum == Sum::kF64) {
    in = job.MakeInput(kRecords);
  } else {
    // n sums past 2^31 within a few records; t is a function of the key (so
    // out.t = a.t does not depend on fold order) and a signaling NaN for
    // key 3; w holds quarters, exact in f32 in any order.
    const Klass* k = narrow.narrow;
    in = job.engine.Source(k, kRecords, [](int64_t i, RecordWriter& w) {
      const int64_t key = i % 10;
      w.I64(key);
      w.I32(static_cast<int32_t>(2000000000 - i * 7));
      w.I32(static_cast<int32_t>((i * 7919) % 60000 - 30000));
      w.F32(static_cast<float>(i % 9) * 0.25f);
      w.F32(key == 3 ? std::bit_cast<float>(0x7fa00001u) : key * 0.5f);
    });
  }
  job.engine.ResetMetrics();
  if (abort_map_task) {
    job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + 1, kAbortRecord);
  }
  DatasetPtr out;
  switch (sum) {
    case Sum::kI64:
      out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{tally.get_key, false}, tally.sum);
      break;
    case Sum::kF64:
      out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false}, job.sum_values);
      break;
    case Sum::kNarrow:
      out = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{narrow.get_key, false}, narrow.fold);
      break;
    case Sum::kNarrowWiden:
      out = job.engine.ReduceByKey(in, job.udfs, {NarrowOp::Map(narrow.widen, narrow.narrow)},
                                   KeySpec{narrow.get_key, false}, narrow.fold);
      break;
  }
  if (config.execution.mode == EngineMode::kGerenuk) {
    // Every reduce here takes the emit-time fold, not the post-task combine.
    EXPECT_NE(CompileSingleFunction(EngineMode::kGerenuk, job.engine.layouts(), job.udfs,
                                    sum == Sum::kI64   ? tally.sum
                                    : sum == Sum::kF64 ? job.sum_values
                                                       : narrow.fold,
                                    nullptr)
                  .acc_fn,
              nullptr)
        << SumName(sum);
  }
  return Run{OutputBytes(job.engine, out), job.engine.stats()};
}

void ExpectFusedFold(const Run& run, const std::vector<uint8_t>& oracle, bool aborted,
                     const std::string& label, int64_t calls_per_record) {
  EXPECT_EQ(run.bytes, oracle) << label;
  // The closed forms of MapSideCombineTest: each of the 4 map tasks ships
  // one record (plus its size prefix) for each of the 5 keys it saw, and
  // folds everything else.
  const int64_t record_bytes = static_cast<int64_t>(oracle.size()) / 10;
  EXPECT_EQ(run.stats.combine_calls, kRecords - 4 * 5) << label;
  EXPECT_EQ(run.stats.shuffle_bytes, 4 * 5 * (4 + record_bytes)) << label;
  EXPECT_EQ(run.stats.aborts, aborted ? 1 : 0) << label;
  EXPECT_EQ(run.stats.governor_flips, 0) << label;
  // The composed stage calls only its body and map UDFs per record: no key
  // function and no accumulate form per emitted record (a map task that
  // aborts stops calling early).
  if (aborted) {
    EXPECT_LE(run.stats.plan_calls, calls_per_record * kRecords) << label;
  } else {
    EXPECT_EQ(run.stats.plan_calls, calls_per_record * kRecords) << label;
  }
}

// The stage body, plus `widen` for the mapped sum.
int64_t CallsPerRecord(Sum sum) { return sum == Sum::kNarrowWiden ? 2 : 1; }

std::vector<uint8_t> Oracle(Sum sum) {
  EngineConfig baseline = SparkWith(1);
  baseline.execution.mode = EngineMode::kBaseline;
  return RunSum(baseline, sum, false).bytes;
}

TEST(FusedFoldTest, BytesAndCountersMatchTheOracleUnderMapAborts) {
  for (Sum sum : kSums) {
    const std::vector<uint8_t> oracle = Oracle(sum);
    ASSERT_EQ(oracle.size(), 10u * (sum == Sum::kI64 || sum == Sum::kF64 ? 16u : 24u))
        << SumName(sum);
    for (int workers : kWorkerCounts) {
      for (bool aborted : {false, true}) {
        ExpectFusedFold(RunSum(SparkWith(workers), sum, aborted), oracle, aborted,
                        std::string(SumName(sum)) + " workers=" + std::to_string(workers) +
                            (aborted ? " map abort" : ""),
                        CallsPerRecord(sum));
      }
    }
  }
}

// The Narrow oracle really exercises the narrowing. n is the i32-wrapped
// sum and m the max of the i32-narrowed values; with `widen`, folding the
// unnarrowed builder values would pick a different m for some key. Key 3's t
// is a quiet NaN.
TEST(FusedFoldTest, NarrowFoldOracleWrapsAndQuietsNaN) {
  for (Sum sum : {Sum::kNarrow, Sum::kNarrowWiden}) {
    const int64_t scale = sum == Sum::kNarrowWiden ? 262144 : 1;
    int32_t n_sum[10] = {};
    int32_t m_max[10];
    int64_t wide_max[10];
    std::fill(std::begin(m_max), std::end(m_max), std::numeric_limits<int32_t>::min());
    std::fill(std::begin(wide_max), std::end(wide_max), std::numeric_limits<int64_t>::min());
    for (int64_t i = 0; i < kRecords; ++i) {
      const int64_t key = i % 10;
      const int64_t n = static_cast<int32_t>(2000000000 - i * 7) * scale;
      const int64_t m = ((i * 7919) % 60000 - 30000) * scale;
      n_sum[key] = static_cast<int32_t>(static_cast<uint32_t>(n_sum[key]) + static_cast<uint32_t>(n));
      m_max[key] = std::max(m_max[key], static_cast<int32_t>(m));
      wide_max[key] = std::max(wide_max[key], m);
    }
    const std::vector<uint8_t> oracle = Oracle(sum);
    ASSERT_EQ(oracle.size(), 10u * 24u);
    bool narrowing_matters = false;
    for (size_t r = 0; r < 10; ++r) {
      const uint8_t* rec = oracle.data() + r * 24;
      int64_t key;
      int32_t n;
      int32_t m;
      uint32_t t;
      std::memcpy(&key, rec, 8);
      std::memcpy(&n, rec + 8, 4);
      std::memcpy(&m, rec + 12, 4);
      std::memcpy(&t, rec + 20, 4);
      ASSERT_TRUE(key >= 0 && key < 10);
      EXPECT_EQ(n, n_sum[key]) << SumName(sum) << " key " << key;
      EXPECT_EQ(m, m_max[key]) << SumName(sum) << " key " << key;
      narrowing_matters |= m_max[key] != static_cast<int32_t>(wide_max[key]);
      if (key == 3) {
        EXPECT_EQ(t, 0x7fe00001u) << SumName(sum);  // 0x7fa00001 with the quiet bit set
      }
    }
    EXPECT_EQ(narrowing_matters, sum == Sum::kNarrowWiden) << SumName(sum);
  }
}

// Separate from the in-process sweep: its engines are gone before the
// first fork.
TEST(FusedFoldTest, ProcessExecutorsShipTheSameFoldedBytes) {
  for (Sum sum : kSums) {
    const std::vector<uint8_t> oracle = Oracle(sum);
    for (int workers : kWorkerCounts) {
      for (bool aborted : {false, true}) {
        EngineConfig config = SparkWith(workers);
        config.execution.process_executors = true;
        ExpectFusedFold(RunSum(config, sum, aborted), oracle, aborted,
                        std::string(SumName(sum)) + " executors=" + std::to_string(workers) +
                            (aborted ? " map abort" : ""),
                        CallsPerRecord(sum));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The composed map stage on the benchmark programs
// ---------------------------------------------------------------------------

constexpr int kComposedWorkerCounts[] = {1, 2, 4, 8};

struct WorkloadInputs {
  SyntheticGraph graph = MakePowerLawGraph(250, 1300, 7);
  SyntheticPoints points = MakeClusteredPoints(300, 4, 3, 11);
  SyntheticLabeledPoints labeled = MakeLabeledPoints(250, 5, 13);
  std::vector<std::string> lines = MakeTextLines(120, 6, 80, 23);
};

enum class Runner { kInterpreter, kScalarPlan, kVecPlan };

// Batch 3 splits the 4- and 5-element accumulate loops into a full strip
// and a tail.
EngineConfig ComposedConfig(Runner runner, int workers) {
  EngineConfig config = SparkWith(workers);
  config.execution.use_plan_compiler = runner != Runner::kInterpreter;
  config.execution.vectorize = runner == Runner::kVecPlan;
  config.execution.vector_batch_size = 3;
  return config;
}

// KM, LR, GB, CS, PR, CC and WC: every reduce among them has an accumulate
// form, so every one of their ReduceByKey map stages is composed.
std::vector<WorkloadResult> RunWorkloads(const EngineConfig& config, const WorkloadInputs& in) {
  SparkEngine engine(config);
  SparkWorkloads w(engine);
  return {w.RunKMeans(in.points, 3, 3),
          w.RunLogisticRegression(in.labeled, 3, 0.5),
          w.RunGradientBoosting(in.labeled, 3, 0.5),
          w.RunChiSquareSelector(in.labeled),
          w.RunPageRank(in.graph, 3),
          w.RunConnectedComponents(in.graph, 4),
          w.RunWordCount(in.lines)};
}

// Exact equality: Gerenuk mode folds every key in the same order on every
// runner, worker count and process layout.
void ExpectSameResults(const std::vector<WorkloadResult>& got,
                       const std::vector<WorkloadResult>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].checksum, want[i].checksum) << want[i].name << " " << label;
    EXPECT_EQ(got[i].records, want[i].records) << want[i].name << " " << label;
  }
}

int64_t CountOps(const Function& f, Op op) {
  return std::count_if(f.body.begin(), f.body.end(),
                       [op](const Statement& s) { return s.op == op; });
}

int64_t CountFoldSlots(const Function& f, FoldSlotMode mode) {
  return std::count_if(f.body.begin(), f.body.end(), [mode](const Statement& s) {
    return s.op == Op::kFoldSlot && s.imm.i == static_cast<int64_t>(mode);
  });
}

// Whether every definition of `var` in `f` is a constant or a copy of one:
// a flag whose branch could have been a plain jump.
bool IsConstantFlag(const Function& f, int var, int depth = 0) {
  bool defined = false;
  for (const Statement& s : f.body) {
    if (s.dst != var) {
      continue;
    }
    defined = true;
    if (s.op != Op::kConst &&
        !(s.op == Op::kAssign && depth < 8 && IsConstantFlag(f, s.a, depth + 1))) {
      return false;
    }
  }
  return defined;
}

int64_t CountBranchesOnConstants(const Function& f) {
  return std::count_if(f.body.begin(), f.body.end(), [&f](const Statement& s) {
    return s.op == Op::kBranch && IsConstantFlag(f, s.a);
  });
}

// Each program's map stage composes: the transformed body has no emit left
// and folds through kFoldSlot, while the original (the slow path) still
// emits heap records. CS, GB and PR fill one K[n] array in a counted loop,
// so their flatMap call and element loop are gone too, and each emitted
// record is built only for a first-seen key or a declined fold (kProbe
// first). KM and LR map; CC attaches a tail element after its loop and WC
// at a counter, so they keep the map UDF's call. The inlined accumulate
// form leaves by jumps: no branch tests a constant flag.
TEST(FusedFoldTest, WorkloadMapStagesComposeTheirFold) {
  SparkEngine engine(SparkWith(1));
  SparkWorkloads w(engine);
  struct Stage {
    const char* name;
    NarrowOp op;
    KeySpec key;
    const Function* reduce;
    const Klass* in;
    const Klass* broadcast;
    bool fuses;
  };
  auto fn = [&w](const char* name) { return w.udfs().FindFunction(name); };
  const Stage stages[] = {
      {"KM", NarrowOp::Map(fn("km_assign"), w.cluster_stat), {fn("km_key"), false},
       fn("km_merge"), w.point, w.centers, false},
      {"LR", NarrowOp::Map(fn("lr_grad"), w.grad_vec), {fn("lr_key"), false}, fn("lr_add"),
       w.labeled_point, w.weights, false},
      {"WC", NarrowOp::FlatMap(fn("wc_tokenize"), w.word_count), {fn("wc_key"), true},
       fn("wc_sum"), w.line, nullptr, false},
      {"CC", NarrowOp::FlatMap(fn("cc_spread"), w.rank), {fn("pr_rank_key"), false},
       fn("cc_min"), w.vertex_state, nullptr, false},
      {"CS", NarrowOp::FlatMap(fn("cs_cells"), w.feat_count), {fn("cs_key"), false},
       fn("cs_add"), w.sparse_point, nullptr, true},
      {"GB", NarrowOp::FlatMap(fn("gb_stats"), w.feat_count), {fn("cs_key"), false},
       fn("cs_add"), w.labeled_point, w.weights, true},
      {"PR", NarrowOp::FlatMap(fn("pr_contribs"), w.rank), {fn("pr_rank_key"), false},
       fn("pr_sum"), w.vertex_state, nullptr, true},
  };
  for (const Stage& stage : stages) {
    ASSERT_NE(stage.op.fn, nullptr) << stage.name;
    const CompiledFunction key = CompileSingleFunction(EngineMode::kGerenuk, engine.layouts(),
                                                       w.udfs(), stage.key.fn, nullptr);
    const CompiledFunction reduce = CompileSingleFunction(EngineMode::kGerenuk, engine.layouts(),
                                                          w.udfs(), stage.reduce, nullptr);
    const EmitFoldSpec fold{&key, &reduce};
    const bool bc = stage.broadcast != nullptr;
    const StagePrograms composed = CompileNarrowStage(
        EngineMode::kGerenuk, engine.layouts(), stage.in, w.udfs(), {stage.op}, bc,
        stage.broadcast, nullptr, engine.heap().klasses(), nullptr, PlanOptions(), &fold);
    const StagePrograms plain =
        CompileNarrowStage(EngineMode::kGerenuk, engine.layouts(), stage.in, w.udfs(),
                           {stage.op}, bc, stage.broadcast, nullptr, engine.heap().klasses());
    EXPECT_TRUE(composed.folds_at_emit) << stage.name;
    EXPECT_FALSE(plain.folds_at_emit) << stage.name;
    EXPECT_NE(composed.signature.hash, plain.signature.hash) << stage.name;
    const Function& body = *composed.transformed->body;
    EXPECT_EQ(CountOps(body, Op::kGWriteObject), 0) << stage.name;
    EXPECT_EQ(CountFoldSlots(body, FoldSlotMode::kReduce), 1) << stage.name;
    EXPECT_EQ(CountFoldSlots(body, FoldSlotMode::kLookup), 1) << stage.name;
    EXPECT_EQ(CountFoldSlots(body, FoldSlotMode::kStage), 0) << stage.name;  // K is wide
    EXPECT_EQ(CountFoldSlots(body, FoldSlotMode::kProbe), stage.fuses ? 1 : 0) << stage.name;
    EXPECT_EQ(CountOps(body, Op::kCall), stage.fuses ? 0 : 1) << stage.name;  // the map UDF
    EXPECT_EQ(CountOps(body, Op::kAppendArray), 0) << stage.name;
    EXPECT_EQ(CountBranchesOnConstants(body), 0) << stage.name;
    EXPECT_EQ(CountOps(*composed.original->body, Op::kSerialize), 1) << stage.name;
    EXPECT_EQ(CountOps(*plain.transformed->body, Op::kGWriteObject), 1) << stage.name;
    EXPECT_EQ(CountOps(*plain.transformed->body, Op::kCall), 1) << stage.name;
  }
}

TEST(FusedFoldTest, ComposedWorkloadsMatchEveryRunnerWorkerCountAndBaseline) {
  const WorkloadInputs in;
  EngineConfig baseline = ComposedConfig(Runner::kInterpreter, 1);
  baseline.execution.mode = EngineMode::kBaseline;
  const std::vector<WorkloadResult> oracle = RunWorkloads(baseline, in);
  std::vector<WorkloadResult> reference;
  for (Runner runner : {Runner::kInterpreter, Runner::kScalarPlan, Runner::kVecPlan}) {
    for (int workers : kComposedWorkerCounts) {
      const std::vector<WorkloadResult> got = RunWorkloads(ComposedConfig(runner, workers), in);
      const std::string label = "runner " + std::to_string(static_cast<int>(runner)) +
                                " workers=" + std::to_string(workers);
      if (reference.empty()) {
        reference = got;
      }
      ExpectSameResults(got, reference, label);
    }
  }
  // Baseline ships every record and folds on the reduce side only, so float
  // sums associate differently; integer results (CC, WC) are exact.
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(reference[i].records, oracle[i].records) << oracle[i].name;
    EXPECT_NEAR(reference[i].checksum, oracle[i].checksum,
                1e-9 * std::abs(oracle[i].checksum) + 1e-9)
        << oracle[i].name;
  }
  EXPECT_EQ(reference[5].checksum, oracle[5].checksum);  // CC
  EXPECT_EQ(reference[6].checksum, oracle[6].checksum);  // WC
}

// vec_bail_after_strips = 1 with 2-lane strips: every vectorized loop,
// including the accumulate loop inlined into each map stage's body, hands
// its second strip to the scalar loop mid-loop.
TEST(FusedFoldTest, MidStripBailInsideTheInlinedAccumulateKeepsTheResults) {
  const WorkloadInputs in;
  const std::vector<WorkloadResult> reference =
      RunWorkloads(ComposedConfig(Runner::kScalarPlan, 2), in);
  for (int64_t bail_after : {0, 1, 2}) {
    EngineConfig config = ComposedConfig(Runner::kVecPlan, 2);
    config.execution.vector_batch_size = 2;
    config.execution.vec_bail_after_strips = bail_after;
    ExpectSameResults(RunWorkloads(config, in), reference,
                      "bail_after=" + std::to_string(bail_after));
  }
}

// Separate from the in-process sweeps: their engines are gone before the
// first fork. One executor count: every stage forks its executors, which
// makes this the slowest sweep of the file.
TEST(FusedFoldTest, ComposedWorkloadsMatchInProcessExecutors) {
  const WorkloadInputs in;
  const std::vector<WorkloadResult> reference =
      RunWorkloads(ComposedConfig(Runner::kVecPlan, 1), in);
  EngineConfig config = ComposedConfig(Runner::kVecPlan, 4);
  config.execution.process_executors = true;
  ExpectSameResults(RunWorkloads(config, in), reference, "executors=4");
}

// The call counter sees the composition: a KM pass calls the stage body and
// km_assign once per point, and a CS pass calls only the body once per
// point (cs_cells is inlined) although each point emits one record per
// feature.
TEST(FusedFoldTest, ComposedMapTasksMakeNoCallPerEmittedRecord) {
  const WorkloadInputs in;
  for (Runner runner : {Runner::kInterpreter, Runner::kVecPlan}) {
    SparkEngine engine(ComposedConfig(runner, 2));
    SparkWorkloads w(engine);
    w.RunKMeans(in.points, 3, 1);
    const int64_t points = static_cast<int64_t>(in.points.values.size());
    EXPECT_EQ(engine.stats().plan_calls, 2 * points);
    EXPECT_EQ(engine.stats().combine_calls, points - 4 * 3);  // 4 map tasks x 3 clusters
    w.RunChiSquareSelector(in.labeled);
    const int64_t labeled = static_cast<int64_t>(in.labeled.labels.size());
    EXPECT_EQ(engine.stats().plan_calls, labeled);
    EXPECT_GT(engine.stats().combine_calls, 2 * labeled);
    EXPECT_EQ(engine.metrics().counters().at("plan_calls"), labeled);
  }
}

// SO-App's reduce grows its arrays, so it has no accumulate form: its map
// stage stays uncomposed, and each map task combines its committed buckets.
TEST(FusedFoldTest, AccountGroupingKeepsTheMapSideCombine) {
  EngineConfig config = ComposedConfig(Runner::kVecPlan, 2);
  config.observability.trace = true;
  SparkEngine engine(config);
  SparkWorkloads w(engine);
  const CompiledFunction merge =
      CompileSingleFunction(EngineMode::kGerenuk, engine.layouts(), w.udfs(),
                            w.udfs().FindFunction("acct_merge"), nullptr);
  EXPECT_EQ(merge.acc_fn, nullptr);
  w.RunAccountGrouping(MakePosts(600, 100, 5, 29), 64);
  int64_t combines = 0;
  for (const TraceEvent& event : engine.trace()->events()) {
    combines += event.type == TraceEventType::kCombine ? 1 : 0;
  }
  EXPECT_GT(combines, 0);
  w.RunKMeans(WorkloadInputs().points, 3, 1);
  int64_t km_combines = -combines;
  for (const TraceEvent& event : engine.trace()->events()) {
    km_combines += event.type == TraceEventType::kCombine ? 1 : 0;
  }
  EXPECT_EQ(km_combines, 0);
}


// ---------------------------------------------------------------------------
// flatMap shapes: which fuse into the composed stage, and which keep the
// element loop
// ---------------------------------------------------------------------------

// Each UDF maps a Pair{key k, value v} to k % 4 records (key k * 8 + i)
// through a K[] array. Only kFills, kNarrowField, kIntIntoF64 and
// kValueReassigned fill the array the way DeforestFlatMap requires.
enum class Shape {
  kFills,               // x = new K; x.key = ..; x.value = v; arr[i] = x
  kWrittenAfterAttach,  // x.value is written after arr[i] = x
  kTailAttach,          // K[n + 1], the loop, then arr[n] = one more (CC's shape)
  kCounterIndexed,      // arr[j] = x with a counter j (WC's shape)
  kNarrowField,         // K = Cell{key:i64, n:i32}: fused, nothing forwarded
  kIntIntoF64,          // x.value = i, an integer: the key forwards, the value not
  kValueReassigned,     // x.value = t, then t changes before the attach: nothing forwards
  kAbortAfterLoop,      // kFills, then a monitor on the input record: an abort fence
};

struct ShapeCase {
  const char* name;
  Shape shape;
  bool fuses;  // the flatMap call and element loop are gone
  bool sinks;  // the record is built behind a kProbe
};

constexpr ShapeCase kShapes[] = {
    {"fills its array", Shape::kFills, true, true},
    {"writes a record after its attach", Shape::kWrittenAfterAttach, false, false},
    {"attaches a tail element after its loop", Shape::kTailAttach, false, false},
    {"attaches at a counter", Shape::kCounterIndexed, false, false},
    {"emits a K with an i32 field", Shape::kNarrowField, true, false},
    {"writes an integer into an f64 field", Shape::kIntIntoF64, true, false},
    {"reassigns a written value before its attach", Shape::kValueReassigned, true, false},
    {"aborts after its loop", Shape::kAbortAfterLoop, false, false},
};

constexpr int64_t kShapeRecords = 400;

struct ShapeUdfs {
  const Klass* out = nullptr;
  const Function* flat_map = nullptr;
  const Function* get_key = nullptr;
  const Function* reduce = nullptr;
};

// Builds one shape's flatMap UDF (named `name`) next to the Pair job's key
// function and sum; kNarrowField also defines Cell with its own.
ShapeUdfs AddShape(SparkJob* job, Shape shape, const std::string& name) {
  KlassRegistry& reg = job->engine.heap().klasses();
  const Klass* pair = job->pair;
  ShapeUdfs s{pair, nullptr, job->get_key, job->sum_values};
  if (shape == Shape::kNarrowField) {
    const Klass* cell = reg.DefineClass("Cell", {
                                                   {"key", FieldKind::kI64, nullptr, 0},
                                                   {"n", FieldKind::kI32, nullptr, 0},
                                               });
    job->engine.RegisterDataType(cell);
    s.out = cell;
    {
      Function* f = job->udfs.AddFunction("cell_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(cell));
      f->return_type = IrType::I64();
      b.Return(b.FieldLoad(rec, cell, "key"));
      b.Done();
      s.get_key = f;
    }
    {
      Function* f = job->udfs.AddFunction("cell_sum");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(cell));
      int c = b.Param("b", IrType::Ref(cell));
      f->return_type = IrType::Ref(cell);
      int out = b.NewObject(cell);
      b.FieldStore(out, cell, "key", b.FieldLoad(a, cell, "key"));
      b.FieldStore(out, cell, "n",
                   b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, cell, "n"), b.FieldLoad(c, cell, "n")));
      b.Return(out);
      b.Done();
      s.reduce = f;
    }
  }
  const Klass* array = reg.Find(std::string(s.out->name()) + "[]");
  Function* f = job->udfs.AddFunction(name);
  FunctionBuilder b(f);
  int rec = b.Param("rec", IrType::Ref(pair));
  f->return_type = IrType::Ref(array);
  int k = b.FieldLoad(rec, pair, "key");
  int v = b.FieldLoad(rec, pair, "value");
  int n = b.BinOp(BinOpKind::kRem, k, b.ConstI(4));
  int length = shape == Shape::kTailAttach ? b.BinOp(BinOpKind::kAdd, n, b.ConstI(1)) : n;
  int arr = b.NewArray(array, length);
  int j = b.Local("j", IrType::I64());
  b.AssignTo(j, b.ConstI(0));
  auto key_of = [&](int i) {
    return b.BinOp(BinOpKind::kAdd, b.BinOp(BinOpKind::kMul, k, b.ConstI(8)), i);
  };
  b.For(n, [&](int i) {
    int x = b.NewObject(s.out);
    b.FieldStore(x, s.out, "key", key_of(i));
    if (shape == Shape::kNarrowField) {
      // Past i32: the fold must see the narrowed value.
      b.FieldStore(x, s.out, "n", b.BinOp(BinOpKind::kMul, k, b.ConstI(700000000)));
    } else if (shape == Shape::kIntIntoF64) {
      b.FieldStore(x, s.out, "value", i);
    } else if (shape == Shape::kValueReassigned) {
      int t = b.Local("t", IrType::F64());
      b.AssignTo(t, v);
      b.FieldStore(x, s.out, "value", t);
      b.AssignTo(t, b.BinOp(BinOpKind::kMul, t, b.ConstF(3.0)));
    } else if (shape != Shape::kWrittenAfterAttach) {
      b.FieldStore(x, s.out, "value", v);
    }
    if (shape == Shape::kCounterIndexed) {
      b.ArrayStore(arr, j, x);
      b.AssignTo(j, b.BinOp(BinOpKind::kAdd, j, b.ConstI(1)));
      return;
    }
    b.ArrayStore(arr, i, x);
    if (shape == Shape::kWrittenAfterAttach) {
      b.FieldStore(x, s.out, "value", b.BinOp(BinOpKind::kMul, v, b.ConstF(3.0)));
    }
  });
  if (shape == Shape::kTailAttach) {
    int x = b.NewObject(pair);
    b.FieldStore(x, pair, "key", key_of(b.ConstI(7)));
    b.FieldStore(x, pair, "value", v);
    b.ArrayStore(arr, n, x);
  }
  if (shape == Shape::kAbortAfterLoop) {
    b.MonitorEnter(rec);
    b.MonitorExit(rec);
  }
  b.Return(arr);
  b.Done();
  s.flat_map = f;
  return s;
}

// Every shape's UDFs on one job, in kShapes order.
std::vector<ShapeUdfs> AddShapes(SparkJob* job) {
  std::vector<ShapeUdfs> shapes;
  for (const ShapeCase& c : kShapes) {
    shapes.push_back(AddShape(job, c.shape, "shape_" + std::to_string(shapes.size())));
  }
  return shapes;
}

// Each shape's ReduceByKey over the same kShapeRecords Pair records, on one
// engine. With `abort_map_task`, map task 1 of each aborts at record 40 on
// every attempt, after its fast path has folded what the records before it
// emitted.
std::vector<std::vector<uint8_t>> RunShapes(const EngineConfig& config, bool abort_map_task) {
  SparkJob job(config);
  const std::vector<ShapeUdfs> shapes = AddShapes(&job);
  DatasetPtr in = job.MakeInput(kShapeRecords);
  std::vector<std::vector<uint8_t>> bytes;
  for (const ShapeUdfs& s : shapes) {
    if (abort_map_task) {
      job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + 1, 40);
    }
    DatasetPtr out = job.engine.ReduceByKey(in, job.udfs, {NarrowOp::FlatMap(s.flat_map, s.out)},
                                            KeySpec{s.get_key, false}, s.reduce);
    bytes.push_back(OutputBytes(job.engine, out));
  }
  return bytes;
}

TEST(FusedFoldTest, FlatMapShapesFuseOnlyWhenTheirArrayIsFilledInALoop) {
  SparkJob job(SparkWith(1));
  const std::vector<ShapeUdfs> shapes = AddShapes(&job);
  for (size_t i = 0; i < shapes.size(); ++i) {
    const ShapeCase& c = kShapes[i];
    const ShapeUdfs& s = shapes[i];
    const CompiledFunction key = CompileSingleFunction(EngineMode::kGerenuk, job.engine.layouts(),
                                                       job.udfs, s.get_key, nullptr);
    const CompiledFunction reduce = CompileSingleFunction(
        EngineMode::kGerenuk, job.engine.layouts(), job.udfs, s.reduce, nullptr);
    ASSERT_NE(reduce.acc_fn, nullptr) << c.name;
    const EmitFoldSpec fold{&key, &reduce};
    const StagePrograms stage = CompileNarrowStage(
        EngineMode::kGerenuk, job.engine.layouts(), job.pair, job.udfs,
        {NarrowOp::FlatMap(s.flat_map, s.out)}, false, nullptr, nullptr,
        job.engine.heap().klasses(), nullptr, PlanOptions(), &fold);
    const Function& body = *stage.transformed->body;
    EXPECT_EQ(CountOps(body, Op::kCall), c.fuses ? 0 : 1) << c.name;
    EXPECT_EQ(CountOps(body, Op::kAbort), c.fuses ? 1 : 0) << c.name;  // n < 0
    EXPECT_EQ(CountFoldSlots(body, FoldSlotMode::kProbe), c.sinks ? 1 : 0) << c.name;
    EXPECT_EQ(CountFoldSlots(body, FoldSlotMode::kStage), c.shape == Shape::kNarrowField ? 1 : 0)
        << c.name;
  }
}

// Fused or not, every shape ships the baseline's bytes on every runner and
// worker count, and when a map task aborts after folding part of its
// records, the slow path's re-run discards them.
TEST(FusedFoldTest, FlatMapShapesMatchBaselineOnEveryRunnerAndWorkerCount) {
  EngineConfig baseline = SparkWith(1);
  baseline.execution.mode = EngineMode::kBaseline;
  const std::vector<std::vector<uint8_t>> oracle = RunShapes(baseline, false);
  for (size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_FALSE(oracle[i].empty()) << kShapes[i].name;
  }
  for (Runner runner : {Runner::kInterpreter, Runner::kScalarPlan, Runner::kVecPlan}) {
    for (int workers : kComposedWorkerCounts) {
      // The map abort at one worker count per runner: the sweeps above
      // already cross aborts with worker counts.
      for (bool aborted : {false, true}) {
        if (aborted && workers != 2) {
          continue;
        }
        const std::vector<std::vector<uint8_t>> got =
            RunShapes(ComposedConfig(runner, workers), aborted);
        for (size_t i = 0; i < oracle.size(); ++i) {
          EXPECT_EQ(got[i], oracle[i]) << kShapes[i].name << " runner "
                                       << static_cast<int>(runner) << " workers=" << workers
                                       << (aborted ? " map abort" : "");
        }
      }
    }
  }
}


// ---------------------------------------------------------------------------
// An accumulate form whose return is computed
// ---------------------------------------------------------------------------

// The engine side of a hand-composed stage: one committed Tally{key, n}
// accumulator per key, in first-seen order. kLookup hands an existing key's
// accumulator to the inlined accumulate form, and kReduce — a declined
// fold — adds the record's n itself.
class TallyFold : public EmitFold {
 public:
  int64_t Slot(FoldSlotMode mode, int64_t record, Value key, SerRunner& /*runner*/,
               BuilderStore& /*builders*/) override {
    const auto it = std::find(keys_.begin(), keys_.end(), key.i);
    const int64_t* rec = reinterpret_cast<const int64_t*>(record);
    if (mode == FoldSlotMode::kLookup && it == keys_.end()) {
      keys_.push_back(key.i);
      accs_.push_back({rec[0], rec[1]});
      return 0;
    }
    EXPECT_NE(it, keys_.end());
    std::array<int64_t, 2>& acc = accs_[static_cast<size_t>(it - keys_.begin())];
    if (mode == FoldSlotMode::kReduce) {
      declined += 1;
      acc[1] += rec[1];
      return 0;
    }
    EXPECT_EQ(mode, FoldSlotMode::kLookup);
    lookups += 1;
    return reinterpret_cast<int64_t>(acc.data());
  }

  std::vector<int64_t> Result() const {
    std::vector<int64_t> out;
    for (const std::array<int64_t, 2>& acc : accs_) {
      out.insert(out.end(), acc.begin(), acc.end());
    }
    return out;
  }

  int64_t lookups = 0;
  int64_t declined = 0;

 private:
  std::vector<int64_t> keys_;
  std::deque<std::array<int64_t, 2>> accs_;  // stable addresses
};

// tally_acc(a, b) adds b.n into a.n in place when b.n >= 0 and otherwise
// declines untouched; it returns the comparison, not a constant. Composed
// into `gWriteObject(rec)`, that return lowers to `if ok goto done`, and
// the interpreter, the scalar plan and the vec plan fold the same bytes on
// the done path and on the declined path.
TEST(FusedFoldTest, ComputedAccumulateReturnFoldsOnEveryRunner) {
  Heap heap(HeapConfig{8u << 20, GcKind::kGenerational, 0.55, 0.35, 2});
  WellKnown wk(heap);
  ExprPool pool;
  DataStructAnalyzer layouts(pool);
  const Klass* tally = heap.klasses().DefineClass("Tally", {
                                                               {"key", FieldKind::kI64, nullptr, 0},
                                                               {"n", FieldKind::kI64, nullptr, 0},
                                                           });
  std::string error;
  ASSERT_TRUE(layouts.AnalyzeTopLevel(tally, &error)) << error;
  const ClassLayout& layout = *layouts.LayoutOf(tally);
  ASSERT_TRUE(layout.fields[0].is_constant && layout.fields[0].const_offset == 0);
  ASSERT_TRUE(layout.fields[1].is_constant && layout.fields[1].const_offset == 8);

  // Hand-written in transformed form: field loads read native bytes, and
  // the accumulate form's store writes its owned accumulator.
  SerProgram prog;
  auto lower = [&layouts](Function* f) {
    for (Statement& st : f->body) {
      if (st.op == Op::kFieldLoad || st.op == Op::kFieldStore) {
        const bool load = st.op == Op::kFieldLoad;
        BindFieldSlot(layouts, &st);
        st.op = load ? Op::kReadNative : Op::kWriteOwned;
      }
    }
  };
  Function* key_fn = prog.AddFunction("tally_key");
  {
    FunctionBuilder b(key_fn);
    int rec = b.Param("rec", IrType::Ref(tally));
    key_fn->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, tally, "key"));
    b.Done();
    lower(key_fn);
  }
  Function* acc_fn = prog.AddFunction("tally_acc");
  {
    FunctionBuilder b(acc_fn);
    int a = b.Param("a", IrType::Ref(tally));
    int c = b.Param("b", IrType::Ref(tally));
    acc_fn->return_type = IrType::I64();
    int n = b.FieldLoad(c, tally, "n");
    int ok = b.BinOp(BinOpKind::kGe, n, b.ConstI(0));
    b.If(ok, [&] {
      b.FieldStore(a, tally, "n", b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, tally, "n"), n));
    });
    b.Return(ok);
    b.Done();
    lower(acc_fn);
  }
  Function* body = prog.AddFunction("stage_body");
  {
    FunctionBuilder b(body);
    int rec = b.Param("rec", IrType::Ref(tally));
    Statement emit;
    emit.op = Op::kGWriteObject;
    emit.a = rec;
    emit.klass = tally;
    body->body.push_back(emit);
    b.Return();
    b.Done();
  }
  prog.body = body;
  ComposeEmitFold(&prog, *key_fn, *acc_fn, tally);
  EXPECT_EQ(CountBranchesOnConstants(*body), 0);
  EXPECT_EQ(CountOps(*body, Op::kCall), 0);
  // `return ok` became one branch to done on the inlined comparison itself
  // (the If inside branches on its negation).
  const std::vector<Statement>& code = body->body;
  EXPECT_EQ(std::count_if(code.begin(), code.end(),
                          [&code](const Statement& st) {
                            const auto def = std::find_if(
                                code.begin(), code.end(),
                                [&st](const Statement& d) { return d.dst == st.a; });
                            return st.op == Op::kBranch && def != code.end() &&
                                   def->op == Op::kBinOp && def->binop == BinOpKind::kGe;
                          }),
            1);

  // Keys i % 7, n in -2..2: a negative n declines unless its key is new.
  constexpr int64_t kTallies = 70;
  std::vector<std::array<int64_t, 2>> records;
  std::vector<int64_t> want(14, 0);
  int64_t want_declined = 0;
  for (int64_t i = 0; i < kTallies; ++i) {
    records.push_back({i % 7, i % 5 - 2});
    want[static_cast<size_t>(2 * (i % 7))] = i % 7;
    want[static_cast<size_t>(2 * (i % 7) + 1)] += i % 5 - 2;
    want_declined += i >= 7 && i % 5 < 2;
  }
  pool.FoldConstants();
  BuilderStore builders(layouts);
  PlanOptions scalar_options;
  scalar_options.vectorize = false;
  PlanOptions vec_options;
  vec_options.vector_batch_size = 3;
  const std::shared_ptr<const SerPlan> scalar = CompilePlan(prog, layouts, scalar_options);
  const std::shared_ptr<const SerPlan> vec = CompilePlan(prog, layouts, vec_options);
  Interpreter interp(prog, heap, wk, &layouts, &builders);
  PlanExecutor scalar_exec(*scalar, heap, wk, &layouts, &builders);
  PlanExecutor vec_exec(*vec, heap, wk, &layouts, &builders);
  const std::pair<const char*, SerRunner*> runners[] = {
      {"interpreter", &interp}, {"scalar plan", &scalar_exec}, {"vec plan", &vec_exec}};
  for (const auto& [name, runner] : runners) {
    TallyFold fold;
    RecordChannel channel;
    channel.fold = &fold;
    runner->set_channel(&channel);
    for (const std::array<int64_t, 2>& rec : records) {
      const Value arg = Value::Addr(reinterpret_cast<int64_t>(rec.data()));
      runner->CallFunction(prog.body, &arg, 1);
    }
    EXPECT_EQ(fold.Result(), want) << name;
    EXPECT_EQ(fold.lookups, kTallies - 7) << name;
    EXPECT_EQ(fold.declined, want_declined) << name;
    EXPECT_GT(fold.declined, 0) << name;
    EXPECT_LT(fold.declined, fold.lookups) << name;  // and some folded in place
  }
}

}  // namespace
}  // namespace gerenuk
