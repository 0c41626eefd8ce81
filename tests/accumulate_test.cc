// The accumulate form of a reduce (src/transform/accumulate.h; ctest -L
// plans): which reduces qualify and why the others do not, and a seeded
// differential check that folding in place leaves exactly the bytes the
// reduce's render path produces, on every fast-path runner.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/support/rng.h"
#include "src/transform/accumulate.h"
#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

enum class Runner { kInterpreter, kScalarPlan, kVecPlan };
constexpr Runner kRunners[] = {Runner::kInterpreter, Runner::kScalarPlan, Runner::kVecPlan};

const char* RunnerName(Runner r) {
  switch (r) {
    case Runner::kInterpreter: return "interpreter";
    case Runner::kScalarPlan: return "scalar-plan";
    default: return "vec-plan";
  }
}

EngineConfig GerenukConfig() {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 32u << 20;
  return config;
}

HadoopConfig GerenukHadoopConfig() {
  HadoopConfig config;
  config.engine = GerenukConfig();
  return config;
}

// The engines and UDF sets every case draws its reduces from.
struct Fixture {
  SparkEngine spark{GerenukConfig()};
  SparkWorkloads spark_udfs{spark};
  HadoopEngine hadoop{GerenukHadoopConfig()};
  HadoopWorkloads hadoop_udfs{hadoop};
  SparkEngine pair_engine{GerenukConfig()};
  PairUdfs pair;

  Fixture() { BuildPairUdfs(pair_engine, &pair); }
};

// Crafted reject: reads a.value after out.value (now a.value) is written.
const Function* AddReadAfterWrite(PairUdfs* job) {
  const Klass* pair = job->pair;
  Function* f = job->udfs.AddFunction("read_after_write");
  FunctionBuilder b(f);
  int a = b.Param("a", IrType::Ref(pair));
  int c = b.Param("b", IrType::Ref(pair));
  f->return_type = IrType::Ref(pair);
  int out = b.NewObject(pair);
  b.FieldStore(out, pair, "value",
               b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                       b.FieldLoad(c, pair, "value")));
  int late = b.UnOp(UnOpKind::kF2I, b.FieldLoad(a, pair, "value"));
  b.FieldStore(out, pair, "key", b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "key"), late));
  b.Return(out);
  b.Done();
  return f;
}

// Crafted reject: allocates a scratch Pair besides the result.
const Function* AddSecondAllocation(PairUdfs* job) {
  const Klass* pair = job->pair;
  Function* f = job->udfs.AddFunction("second_allocation");
  FunctionBuilder b(f);
  int a = b.Param("a", IrType::Ref(pair));
  int c = b.Param("b", IrType::Ref(pair));
  f->return_type = IrType::Ref(pair);
  int tmp = b.NewObject(pair);
  b.FieldStore(tmp, pair, "value", b.FieldLoad(c, pair, "value"));
  int out = b.NewObject(pair);
  b.FieldStore(out, pair, "key", b.FieldLoad(a, pair, "key"));
  b.FieldStore(out, pair, "value",
               b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                       b.FieldLoad(tmp, pair, "value")));
  b.Return(out);
  b.Done();
  return f;
}

// Crafted reject: km_merge with the rebuilt array sized by b instead of a.
const Function* AddLengthFromB(SerProgram* udfs, const Klass* stat) {
  const Klass* sums_klass = stat->FindField("sums")->target;
  Function* f = udfs->AddFunction("length_from_b");
  FunctionBuilder b(f);
  int a = b.Param("a", IrType::Ref(stat));
  int c = b.Param("b", IrType::Ref(stat));
  f->return_type = IrType::Ref(stat);
  int sa = b.FieldLoad(a, stat, "sums");
  int sb = b.FieldLoad(c, stat, "sums");
  int n = b.ArrayLength(sb);
  int sums = b.NewArray(sums_klass, n);
  b.For(n, [&](int d) {
    b.ArrayStore(sums, d,
                 b.BinOp(BinOpKind::kAdd, b.ArrayLoad(sa, d, IrType::F64()),
                         b.ArrayLoad(sb, d, IrType::F64())));
  });
  int out = b.NewObject(stat);
  b.FieldStore(out, stat, "cluster", b.FieldLoad(a, stat, "cluster"));
  b.FieldStore(out, stat, "count",
               b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, stat, "count"),
                       b.FieldLoad(c, stat, "count")));
  b.FieldStore(out, stat, "sums", sums);
  b.Return(out);
  b.Done();
  return f;
}

// Derives through the engines' compile step, then re-derives into a scratch
// program to read the reason.
struct Derived {
  CompiledFunction compiled;
  std::string why;
};

Derived Derive(const DataStructAnalyzer& layouts, const SerProgram& udfs, const Function* fn) {
  Derived d;
  d.compiled = CompileSingleFunction(EngineMode::kGerenuk, layouts, udfs, fn, nullptr);
  SerProgram scratch;
  const Function* again = DeriveAccumulateForm(*d.compiled.orig_fn, *d.compiled.fast_fn, layouts,
                                               &scratch, &d.why);
  EXPECT_EQ(again != nullptr, d.compiled.acc_fn != nullptr) << fn->name;
  return d;
}

TEST(AccumulateFormTest, ExactlyTheWorkloadReducesWithAnInPlaceShapeQualify) {
  Fixture fx;
  const DataStructAnalyzer& spark = fx.spark.layouts();
  const DataStructAnalyzer& hadoop = fx.hadoop.layouts();
  const SerProgram& su = fx.spark_udfs.udfs();
  const SerProgram& hu = fx.hadoop_udfs.udfs();
  // GB's gb_add_ is cs_add itself.
  for (const char* name : {"km_merge", "lr_add", "cs_add", "pr_sum", "cc_min", "wc_sum"}) {
    Derived d = Derive(spark, su, su.FindFunction(name));
    EXPECT_NE(d.compiled.acc_fn, nullptr) << name << ": " << d.why;
  }
  for (const char* name : {"uc_sum", "ts_max", "h_wc_sum"}) {
    Derived d = Derive(hadoop, hu, hu.FindFunction(name));
    EXPECT_NE(d.compiled.acc_fn, nullptr) << name << ": " << d.why;
  }
  // Key functions have the wrong shape.
  EXPECT_EQ(Derive(spark, su, su.FindFunction("km_key")).compiled.acc_fn, nullptr);

  struct Reject {
    const DataStructAnalyzer* layouts;
    const SerProgram* udfs;
    const Function* fn;
    const char* reason;
  };
  SerProgram crafted;
  const DataStructAnalyzer& pair = fx.pair_engine.layouts();
  const Reject rejects[] = {
      {&spark, &su, su.FindFunction("acct_merge"), "stores into its input"},
      {&pair, &fx.pair.udfs, BuildPoisonedSum(&fx.pair), "stores into its input"},
      {&pair, &fx.pair.udfs, AddReadAfterWrite(&fx.pair), "reads a.value after writing it"},
      {&spark, &crafted, AddLengthFromB(&crafted, fx.spark_udfs.cluster_stat),
       "array length not taken from a"},
      {&pair, &fx.pair.udfs, AddSecondAllocation(&fx.pair), "more than one allocation"},
  };
  for (const Reject& r : rejects) {
    Derived d = Derive(*r.layouts, *r.udfs, r.fn);
    EXPECT_EQ(d.compiled.acc_fn, nullptr) << r.fn->name;
    EXPECT_NE(d.why.find(r.reason), std::string::npos) << r.fn->name << ": " << d.why;
  }
}

// Seeded record bodies of any laid-out klass, rendered through a builder:
// primitive fields and elements draw from a pool that mixes ordinary values
// with -0.0, NaN, +-inf and values at the edge of i64 wraparound.
class RecordGen {
 public:
  RecordGen(const DataStructAnalyzer& layouts, uint64_t seed) : builders_(layouts), rng_(seed) {}

  std::vector<uint8_t> Body(const Klass* klass, int64_t array_len) {
    builders_.Clear();
    const int64_t root = Build(klass, array_len);
    ByteBuffer out;
    builders_.RenderBody(root, klass, out);
    return std::vector<uint8_t>(out.data(), out.data() + out.size());
  }

  int64_t NextLen() { return static_cast<int64_t>(rng_.NextBounded(6)); }

 private:
  int64_t Build(const Klass* klass, int64_t len) {
    if (klass->is_array()) {
      const int64_t arr = builders_.NewArray(klass, len);
      for (int64_t i = 0; i < len; ++i) {
        if (klass->element_kind() == FieldKind::kRef) {
          builders_.AttachElement(arr, i, Build(klass->element_klass(), len));
        } else {
          Prim prim = Draw(klass->element_kind());
          builders_.ArrayStore(arr, i, klass->element_kind(), prim.i, prim.d);
        }
      }
      return arr;
    }
    const int64_t rec = builders_.NewRecord(klass);
    for (size_t f = 0; f < klass->fields().size(); ++f) {
      const FieldInfo& field = klass->field(static_cast<int>(f));
      if (field.kind == FieldKind::kRef) {
        builders_.AttachField(rec, static_cast<int>(f), Build(field.target, len));
      } else {
        Prim prim = Draw(field.kind);
        builders_.WriteField(rec, static_cast<int>(f), field.kind, prim.i, prim.d);
      }
    }
    return rec;
  }

  struct Prim {
    int64_t i = 0;
    double d = 0.0;
  };
  Prim Draw(FieldKind kind) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    static const double kDoubles[] = {-0.0, 0.0, std::nan(""), kInf, -kInf, 1e308, -1e-310};
    static const int64_t kInts[] = {std::numeric_limits<int64_t>::max(),
                                    std::numeric_limits<int64_t>::min(), -1, 0,
                                    std::numeric_limits<int64_t>::max() - 1};
    const bool special = rng_.NextBounded(4) == 0;
    Prim p;
    if (kind == FieldKind::kF32 || kind == FieldKind::kF64) {
      p.d = special ? kDoubles[rng_.NextBounded(std::size(kDoubles))]
                    : rng_.NextDouble(-1e6, 1e6);
    } else {
      p.i = special ? kInts[rng_.NextBounded(std::size(kInts))]
                    : static_cast<int64_t>(rng_.NextU64()) >> rng_.NextBounded(40);
    }
    return p;
  }

  BuilderStore builders_;
  Rng rng_;
};

// One fast-path runner over the reduce's transformed program and plan.
struct Harness {
  BuilderStore builders;
  std::shared_ptr<const SerPlan> plan;
  std::unique_ptr<SerRunner> runner;

  Harness(Runner r, const CompiledFunction& c, Heap& heap, const WellKnown& wk,
          const DataStructAnalyzer& layouts)
      : builders(layouts) {
    if (r != Runner::kInterpreter) {
      PlanOptions options;
      options.vectorize = r == Runner::kVecPlan;
      options.vector_batch_size = 3;
      plan = CompilePlan(*c.transformed, layouts, options);
    }
    runner = MakeFastRunner(plan.get(), *c.transformed, heap, wk, &layouts, &builders);
  }

  int64_t Call(const Function* fn, int64_t acc, int64_t rec) {
    const Value args[2] = {Value::Addr(acc), Value::Addr(rec)};
    return runner->CallFunction(fn, args, 2).i;
  }
};

std::vector<uint8_t> BytesAt(int64_t addr, size_t size) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(addr);
  return std::vector<uint8_t>(p, p + size);
}

TEST(AccumulateFormTest, InPlaceFoldMatchesTheRenderedReduceOnEveryRunner) {
  Fixture fx;
  struct Case {
    EngineCore* engine;
    const SerProgram* udfs;
    const char* name;
  };
  const Case cases[] = {
      {&fx.spark, &fx.spark_udfs.udfs(), "km_merge"}, {&fx.spark, &fx.spark_udfs.udfs(), "lr_add"},
      {&fx.spark, &fx.spark_udfs.udfs(), "cs_add"},   {&fx.spark, &fx.spark_udfs.udfs(), "pr_sum"},
      {&fx.spark, &fx.spark_udfs.udfs(), "cc_min"},   {&fx.spark, &fx.spark_udfs.udfs(), "wc_sum"},
      {&fx.hadoop, &fx.hadoop_udfs.udfs(), "uc_sum"}, {&fx.hadoop, &fx.hadoop_udfs.udfs(), "ts_max"},
      {&fx.hadoop, &fx.hadoop_udfs.udfs(), "h_wc_sum"},
  };
  for (const Case& c : cases) {
    const DataStructAnalyzer& layouts = c.engine->layouts();
    const CompiledFunction compiled = CompileSingleFunction(
        EngineMode::kGerenuk, layouts, *c.udfs, c.udfs->FindFunction(c.name), nullptr);
    ASSERT_NE(compiled.acc_fn, nullptr) << c.name;
    const Klass* klass = compiled.orig_fn->vars[0].type.klass;
    for (Runner r : kRunners) {
      Harness h(r, compiled, c.engine->heap(), c.engine->wk(), layouts);
      RecordGen gen(layouts, 0x5eed0000u + static_cast<uint64_t>(std::strlen(c.name)));
      for (int n = 0; n < 1000; ++n) {
        const int64_t len = gen.NextLen();
        const std::vector<uint8_t> acc_bytes = gen.Body(klass, len);
        const std::vector<uint8_t> rec_bytes = gen.Body(klass, len);
        NativePartition part;
        const int64_t acc = part.AppendRecord(acc_bytes.data(), acc_bytes.size());
        const int64_t rec = part.AppendRecord(rec_bytes.data(), rec_bytes.size());
        ByteBuffer expected;
        h.builders.RenderBody(h.Call(compiled.fast_fn, acc, rec), klass, expected);
        h.builders.Clear();
        ASSERT_EQ(h.Call(compiled.acc_fn, acc, rec), 1) << c.name << " " << RunnerName(r);
        ASSERT_EQ(expected.size(), acc_bytes.size()) << c.name;
        ASSERT_EQ(BytesAt(acc, acc_bytes.size()),
                  std::vector<uint8_t>(expected.data(), expected.data() + expected.size()))
            << c.name << " on " << RunnerName(r) << ", pair " << n;
        EXPECT_EQ(h.builders.size(), 0u) << "the accumulate form built a record";
      }
    }
  }
}

TEST(AccumulateFormTest, LengthMismatchIsDeclinedWithoutWriting) {
  Fixture fx;
  const DataStructAnalyzer& layouts = fx.spark.layouts();
  const SerProgram& udfs = fx.spark_udfs.udfs();
  for (const char* name : {"km_merge", "lr_add"}) {
    const CompiledFunction compiled = CompileSingleFunction(
        EngineMode::kGerenuk, layouts, udfs, udfs.FindFunction(name), nullptr);
    ASSERT_NE(compiled.acc_fn, nullptr) << name;
    const Klass* klass = compiled.orig_fn->vars[0].type.klass;
    for (Runner r : kRunners) {
      Harness h(r, compiled, fx.spark.heap(), fx.spark.wk(), layouts);
      RecordGen gen(layouts, 17);
      for (auto [acc_len, rec_len] : {std::pair{3, 4}, std::pair{4, 3}, std::pair{0, 2}}) {
        const std::vector<uint8_t> acc_bytes = gen.Body(klass, acc_len);
        const std::vector<uint8_t> rec_bytes = gen.Body(klass, rec_len);
        NativePartition part;
        const int64_t acc = part.AppendRecord(acc_bytes.data(), acc_bytes.size());
        const int64_t rec = part.AppendRecord(rec_bytes.data(), rec_bytes.size());
        EXPECT_EQ(h.Call(compiled.acc_fn, acc, rec), 0) << name << " " << RunnerName(r);
        EXPECT_EQ(BytesAt(acc, acc_bytes.size()), acc_bytes) << name << " " << RunnerName(r);
      }
    }
  }
}

}  // namespace
}  // namespace gerenuk
