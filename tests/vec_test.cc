// Differential proof for the vectorized plan kernels (ctest -L vec): every
// kVec* opcode path must be observationally identical to the scalar plan
// path and to the tree-walking Interpreter — exact results (bit-exact for
// floats) for every batch size, every tail shape, mid-loop bails, rejected
// row-layout loops, and aborts that land while a vectorized plan is active.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/layout.h"
#include "src/analysis/ser_analyzer.h"
#include "src/exec/plan.h"
#include "src/exec/ser_executor.h"
#include "src/ir/builder.h"
#include "src/runtime/roots.h"
#include "src/serde/inline_serializer.h"
#include "src/support/rng.h"
#include "src/transform/transformer.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: direct CallFunction differentials over builder-authored loops.
// ---------------------------------------------------------------------------

struct VecHarness {
  Heap heap{HeapConfig{32u << 20, GcKind::kGenerational, 0.55, 0.35, 2}};
  WellKnown wk{heap};
  ExprPool pool;
  DataStructAnalyzer layouts{pool};
  SerProgram prog;

  std::shared_ptr<const SerPlan> Compile(bool vectorize, int32_t batch = 256,
                                         int64_t bail_after = -1) {
    pool.FoldConstants();
    PlanOptions options;
    options.vectorize = vectorize;
    options.vector_batch_size = batch;
    options.vec_bail_after_strips = bail_after;
    return CompilePlan(prog, layouts, options);
  }
};

// The batch sizes the sweeps run: 1 (every strip is a tail), small odd
// (non-power-of-two strips), the default, and larger-than-any-trip.
constexpr int32_t kBatchSizes[] = {1, 3, 7, 64, 256};
// Trip counts around the strip boundaries, including empty and odd tails.
constexpr int64_t kTrips[] = {0, 1, 5, 63, 64, 65, 255, 256, 257, 1000};

// acc = 1; m = 1<<40; for i: t = i*3; u = t^7; acc += u; m = min(m, u).
// Exercises kVecBinOp (int arith + bitwise), two kVecScan reductions
// (kAdd and kMin), invariant-slot operands, and the induction column.
Function* BuildIntLoop(SerProgram& prog) {
  Function* f = prog.AddFunction("int_loop");
  FunctionBuilder b(f);
  int n = b.Param("n", IrType::I64());
  f->return_type = IrType::I64();
  int acc = b.Local("acc", IrType::I64());
  int m = b.Local("m", IrType::I64());
  b.AssignTo(acc, b.ConstI(1));
  b.AssignTo(m, b.ConstI(1ll << 40));
  int three = b.ConstI(3);
  int seven = b.ConstI(7);
  b.For(n, [&](int i) {
    int t = b.BinOp(BinOpKind::kMul, i, three);
    int u = b.BinOp(BinOpKind::kXor, t, seven);
    b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, u));
    b.AssignTo(m, b.BinOp(BinOpKind::kMin, m, u));
  });
  b.Return(b.BinOp(BinOpKind::kAdd, acc, m));
  b.Done();
  return f;
}

TEST(VecKernelTest, IntLoopMatchesScalarAndInterpreter) {
  VecHarness h;
  Function* f = BuildIntLoop(h.prog);
  std::shared_ptr<const SerPlan> scalar = h.Compile(false);
  EXPECT_EQ(scalar->vec_loops(), 0);
  EXPECT_STREQ(scalar->layout(), "row");
  Interpreter interp(h.prog, h.heap, h.wk, &h.layouts, nullptr);
  PlanExecutor scalar_exec(*scalar, h.heap, h.wk, &h.layouts, nullptr);
  for (int32_t batch : kBatchSizes) {
    std::shared_ptr<const SerPlan> vec = h.Compile(true, batch);
    ASSERT_EQ(vec->vec_loops(), 1) << "batch " << batch;
    EXPECT_STREQ(vec->layout(), "columnar");
    EXPECT_GT(vec->ops_vectorized(), 0);
    PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
    for (int64_t n : kTrips) {
      std::vector<Value> args = {Value::I64(n)};
      int64_t want = interp.CallFunction(f, args).i;
      EXPECT_EQ(scalar_exec.CallFunction(f, args).i, want) << "n=" << n;
      EXPECT_EQ(vec_exec.CallFunction(f, args).i, want)
          << "n=" << n << " batch=" << batch;
    }
  }
}

// facc = 0.0; fm = 1e300; for i: x = i * 0.5; y = x + 0.25; facc += y;
// fm = min(fm, y). Exercises the float kernel lanes (int induction column
// promoted through a float invariant), float scans, and bit-exact carries.
Function* BuildFloatLoop(SerProgram& prog) {
  Function* f = prog.AddFunction("float_loop");
  FunctionBuilder b(f);
  int n = b.Param("n", IrType::I64());
  f->return_type = IrType::F64();
  int facc = b.Local("facc", IrType::F64());
  int fm = b.Local("fm", IrType::F64());
  b.AssignTo(facc, b.ConstF(0.0));
  b.AssignTo(fm, b.ConstF(1e300));
  int half = b.ConstF(0.5);
  int quarter = b.ConstF(0.25);
  b.For(n, [&](int i) {
    int x = b.BinOp(BinOpKind::kMul, i, half);
    int y = b.BinOp(BinOpKind::kAdd, x, quarter);
    b.AssignTo(facc, b.BinOp(BinOpKind::kAdd, facc, y));
    b.AssignTo(fm, b.BinOp(BinOpKind::kMin, fm, y));
  });
  b.Return(b.BinOp(BinOpKind::kAdd, facc, fm));
  b.Done();
  return f;
}

TEST(VecKernelTest, FloatLoopMatchesBitExact) {
  VecHarness h;
  Function* f = BuildFloatLoop(h.prog);
  std::shared_ptr<const SerPlan> scalar = h.Compile(false);
  Interpreter interp(h.prog, h.heap, h.wk, &h.layouts, nullptr);
  PlanExecutor scalar_exec(*scalar, h.heap, h.wk, &h.layouts, nullptr);
  for (int32_t batch : kBatchSizes) {
    std::shared_ptr<const SerPlan> vec = h.Compile(true, batch);
    ASSERT_EQ(vec->vec_loops(), 1) << "batch " << batch;
    PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
    for (int64_t n : kTrips) {
      std::vector<Value> args = {Value::I64(n)};
      double want = interp.CallFunction(f, args).d;
      // Bit-exact, not approximately equal: scan order must be serial.
      EXPECT_EQ(scalar_exec.CallFunction(f, args).d, want) << "n=" << n;
      EXPECT_EQ(vec_exec.CallFunction(f, args).d, want)
          << "n=" << n << " batch=" << batch;
    }
  }
}

// for i: if (i % 3 != 0) continue-skip; acc += i*i — a continue-style
// branch, which the vectorizer lowers to kVecFilter + a compacted selection
// vector feeding the downstream binop and scan.
Function* BuildFilteredLoop(SerProgram& prog) {
  Function* f = prog.AddFunction("filtered_loop");
  FunctionBuilder b(f);
  int n = b.Param("n", IrType::I64());
  f->return_type = IrType::I64();
  int acc = b.Local("acc", IrType::I64());
  b.AssignTo(acc, b.ConstI(0));
  int three = b.ConstI(3);
  int zero = b.ConstI(0);
  b.For(n, [&](int i) {
    int rem = b.BinOp(BinOpKind::kRem, i, three);
    int keep = b.BinOp(BinOpKind::kEq, rem, zero);
    b.If(keep, [&] {
      int sq = b.BinOp(BinOpKind::kMul, i, i);
      b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, sq));
    });
  });
  b.Return(acc);
  b.Done();
  return f;
}

TEST(VecKernelTest, FilteredLoopMatchesWithSelectionVectors) {
  VecHarness h;
  Function* f = BuildFilteredLoop(h.prog);
  std::shared_ptr<const SerPlan> scalar = h.Compile(false);
  Interpreter interp(h.prog, h.heap, h.wk, &h.layouts, nullptr);
  PlanExecutor scalar_exec(*scalar, h.heap, h.wk, &h.layouts, nullptr);
  for (int32_t batch : kBatchSizes) {
    std::shared_ptr<const SerPlan> vec = h.Compile(true, batch);
    ASSERT_EQ(vec->vec_loops(), 1) << "batch " << batch;
    EXPECT_GT(vec->op_counts()[static_cast<size_t>(PlanOpCode::kVecFilter)], 0);
    PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
    for (int64_t n : kTrips) {
      std::vector<Value> args = {Value::I64(n)};
      int64_t want = interp.CallFunction(f, args).i;
      EXPECT_EQ(scalar_exec.CallFunction(f, args).i, want) << "n=" << n;
      EXPECT_EQ(vec_exec.CallFunction(f, args).i, want)
          << "n=" << n << " batch=" << batch;
    }
  }
}

// The mid-loop handoff seam: vec_bail_after_strips hands the loop to the
// scalar path after N strips, from exactly the committed induction state.
// 0 = the vec block runs no strip at all; every setting must agree.
TEST(VecKernelTest, BailKnobHandsOffMidLoopToScalar) {
  VecHarness h;
  Function* f = BuildIntLoop(h.prog);
  std::shared_ptr<const SerPlan> scalar = h.Compile(false);
  PlanExecutor scalar_exec(*scalar, h.heap, h.wk, &h.layouts, nullptr);
  for (int64_t bail_after : {0ll, 1ll, 2ll, 7ll}) {
    std::shared_ptr<const SerPlan> vec = h.Compile(true, /*batch=*/16, bail_after);
    ASSERT_EQ(vec->vec_loops(), 1);
    PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
    for (int64_t n : {0ll, 15ll, 16ll, 100ll, 1000ll}) {
      std::vector<Value> args = {Value::I64(n)};
      EXPECT_EQ(vec_exec.CallFunction(f, args).i, scalar_exec.CallFunction(f, args).i)
          << "bail_after=" << bail_after << " n=" << n;
    }
  }
}

// A body with a row op (a kCall per iteration) must stay in the layout cost
// model's row bucket: the loop is rejected with a named reason, no vec ops
// are emitted, and results still match the interpreter.
TEST(VecKernelTest, RowOpLoopIsRejectedAndStaysScalar) {
  VecHarness h;
  Function* scale = h.prog.AddFunction("scale");
  {
    FunctionBuilder b(scale);
    int x = b.Param("x", IrType::I64());
    scale->return_type = IrType::I64();
    b.Return(b.BinOp(BinOpKind::kMul, x, b.ConstI(5)));
    b.Done();
  }
  Function* f = h.prog.AddFunction("row_loop");
  {
    FunctionBuilder b(f);
    int n = b.Param("n", IrType::I64());
    f->return_type = IrType::I64();
    int acc = b.Local("acc", IrType::I64());
    b.AssignTo(acc, b.ConstI(0));
    b.For(n, [&](int i) {
      int k = b.Call(scale, {i});
      b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, b.BinOp(BinOpKind::kMul, i, k)));
    });
    b.Return(acc);
    b.Done();
  }
  std::shared_ptr<const SerPlan> vec = h.Compile(true);
  ASSERT_NE(vec, nullptr);
  EXPECT_EQ(vec->vec_loops(), 0);
  EXPECT_EQ(vec->vec_loops_rejected(), 1);
  EXPECT_STREQ(vec->layout(), "row");
  ASSERT_FALSE(vec->vec_reject_reasons().empty());
  EXPECT_EQ(vec->vec_reject_reasons()[0].substr(0, 7), "row-op:");

  Interpreter interp(h.prog, h.heap, h.wk, &h.layouts, nullptr);
  PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
  std::vector<Value> args = {Value::I64(37)};
  EXPECT_EQ(vec_exec.CallFunction(f, args).i, interp.CallFunction(f, args).i);
}

// ---------------------------------------------------------------------------
// Layer 2: the transformed-SER path — gathers from committed input arrays,
// scatters into builder arrays, and abort handling under a vectorized plan.
// ---------------------------------------------------------------------------

// exec_test's LabeledPoint pipeline, narrowed to what the vec kernels need:
// scale's array loop gathers from the committed input (kVecReadCol), computes
// per-lane, and scatters into the output builder array (kVecWriteCol).
struct VecPipeline {
  Heap heap{HeapConfig{32u << 20, GcKind::kGenerational, 0.55, 0.35, 2}};
  WellKnown wk{heap};
  const Klass* double_array;
  const Klass* dense_vector;
  const Klass* labeled_point;
  ExprPool pool;
  DataStructAnalyzer layouts{pool};
  SerProgram program;
  std::unique_ptr<SerProgram> transformed;

  VecPipeline() {
    KlassRegistry& reg = heap.klasses();
    double_array = reg.Find("f64[]");
    dense_vector = reg.DefineClass("DenseVector", {
                                                      {"numActives", FieldKind::kI32, nullptr, 0},
                                                      {"values", FieldKind::kRef, double_array, 0},
                                                  });
    labeled_point =
        reg.DefineClass("LabeledPoint", {
                                            {"label", FieldKind::kF64, nullptr, 0},
                                            {"features", FieldKind::kRef, dense_vector, 0},
                                        });
    std::string error;
    GERENUK_CHECK(layouts.AnalyzeTopLevel(labeled_point, &error)) << error;

    Function* udf = program.AddFunction("scale");
    {
      FunctionBuilder b(udf);
      int lp = b.Param("lp", IrType::Ref(labeled_point));
      udf->return_type = IrType::Ref(labeled_point);
      int label = b.FieldLoad(lp, labeled_point, "label");
      int vec = b.FieldLoad(lp, labeled_point, "features");
      int values = b.FieldLoad(vec, dense_vector, "values");
      int len = b.ArrayLength(values);
      int new_values = b.NewArray(double_array, len);
      int one = b.ConstF(1.0);
      b.For(len, [&](int i) {
        int v = b.ArrayLoad(values, i, IrType::F64());
        int v1 = b.BinOp(BinOpKind::kAdd, v, one);
        b.ArrayStore(new_values, i, v1);
      });
      int new_vec = b.NewObject(dense_vector);
      int num = b.FieldLoad(vec, dense_vector, "numActives");
      b.FieldStore(new_vec, dense_vector, "numActives", num);
      b.FieldStore(new_vec, dense_vector, "values", new_values);
      int new_lp = b.NewObject(labeled_point);
      int two = b.ConstF(2.0);
      b.FieldStore(new_lp, labeled_point, "label", b.BinOp(BinOpKind::kMul, label, two));
      b.FieldStore(new_lp, labeled_point, "features", new_vec);
      b.Return(new_lp);
      b.Done();
    }
    Function* body = program.AddFunction("task_body");
    {
      FunctionBuilder b(body);
      int rec = b.Deserialize(labeled_point);
      int out = b.Call(udf, {rec});
      b.Serialize(out);
      b.Return();
      b.Done();
    }
    program.body = body;
    SerAnalyzer analyzer(program, layouts);
    SerAnalysis analysis = analyzer.Run();
    Transformer transformer(program, analysis, layouts);
    TransformResult result = transformer.Run();
    transformed = std::move(result.transformed);
  }

  std::shared_ptr<const SerPlan> Compile(bool vectorize, int32_t batch = 256) {
    pool.FoldConstants();
    PlanOptions options;
    options.vectorize = vectorize;
    options.vector_batch_size = batch;
    return CompilePlan(*transformed, layouts, options);
  }

  // Deterministic input: `n` records with array lengths 1..50.
  NativePartition MakeInput(int n, uint64_t seed) {
    NativePartition input;
    InlineSerializer serde(heap);
    RootScope scope(heap);
    Rng rng(seed);
    for (int r = 0; r < n; ++r) {
      size_t values_len = 1 + rng.NextBounded(50);
      size_t arr = scope.Push(heap.AllocArray(double_array, values_len));
      for (size_t i = 0; i < values_len; ++i) {
        heap.ASet<double>(scope.Get(arr), static_cast<int64_t>(i), rng.NextDouble(-10, 10));
      }
      size_t vec = scope.Push(heap.AllocObject(dense_vector));
      heap.SetPrim<int32_t>(scope.Get(vec), dense_vector->FindField("numActives")->offset,
                            static_cast<int32_t>(values_len));
      heap.SetRef(scope.Get(vec), dense_vector->FindField("values")->offset, scope.Get(arr));
      size_t lp = scope.Push(heap.AllocObject(labeled_point));
      heap.SetPrim<double>(scope.Get(lp), labeled_point->FindField("label")->offset,
                           rng.NextDouble(-5, 5));
      heap.SetRef(scope.Get(lp), labeled_point->FindField("features")->offset, scope.Get(vec));
      ByteBuffer record;
      serde.WriteRecord(scope.Get(lp), labeled_point, record);
      input.AppendRecord(record.data() + 4, static_cast<uint32_t>(record.size() - 4));
    }
    return input;
  }

  // Runs the task with `plan` (null = interpreter fast path) and returns the
  // output partition's bytes.
  std::vector<uint8_t> Run(const NativePartition& input, const SerPlan* plan,
                           const FaultPlan* faults = nullptr, int* aborts = nullptr) {
    SerExecutor exec(heap, wk, layouts, program, *transformed);
    NativePartition output;
    InlineSerializer serde(heap);
    PhaseTimes times;
    TaskIo io;
    io.input = &input;
    io.plan = plan;
    io.faults = faults;
    io.task_ordinal = faults != nullptr ? 0 : -1;
    io.emit_native = [&output](int64_t addr, const Klass* klass, SerRunner&,
                               BuilderStore& builders) {
      builders.Render(addr, klass, output);
    };
    io.emit_heap = [this, &output, &serde](ObjRef ref, const Klass* klass, SerRunner&) {
      ByteBuffer body;
      serde.WriteRecord(ref, klass, body);
      output.AppendRecord(body.data() + 4, static_cast<uint32_t>(body.size() - 4));
    };
    io.on_abort = [&output] { output.Release(); };
    SpecOutcome outcome = exec.RunTaskIo(io, times);
    if (aborts != nullptr) {
      *aborts = outcome.aborts;
    }
    ByteBuffer wire;
    output.SerializeTo(wire);
    return wire.bytes();
  }
};

TEST(VecStageTest, ArrayLoopGatherScatterMatchesAllRunners) {
  VecPipeline p;
  std::shared_ptr<const SerPlan> scalar = p.Compile(false);
  EXPECT_EQ(scalar->vec_loops(), 0);
  NativePartition input = p.MakeInput(64, /*seed=*/17);
  std::vector<uint8_t> reference = p.Run(input, nullptr);  // interpreter
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(p.Run(input, scalar.get()), reference);
  for (int32_t batch : {1, 4, 7, 256}) {
    std::shared_ptr<const SerPlan> vec = p.Compile(true, batch);
    ASSERT_GE(vec->vec_loops(), 1) << "batch " << batch;
    EXPECT_GT(vec->op_counts()[static_cast<size_t>(PlanOpCode::kVecReadCol)], 0);
    EXPECT_GT(vec->op_counts()[static_cast<size_t>(PlanOpCode::kVecWriteCol)], 0);
    EXPECT_STREQ(vec->layout(), "columnar");
    EXPECT_EQ(p.Run(input, vec.get()), reference) << "batch " << batch;
  }
}

// A forced abort mid-partition while the vectorized plan is running: the
// fast path must discard its output (including any in-flight strip state)
// and the slow-path re-execution must reproduce the clean bytes.
TEST(VecStageTest, MidPartitionAbortUnderVecPlanReproducesCleanBytes) {
  VecPipeline p;
  NativePartition input = p.MakeInput(32, /*seed=*/23);
  std::vector<uint8_t> clean = p.Run(input, nullptr);
  for (int32_t batch : {4, 256}) {
    std::shared_ptr<const SerPlan> vec = p.Compile(true, batch);
    ASSERT_GE(vec->vec_loops(), 1);
    FaultPlan faults;
    faults.AbortTask(0, /*record=*/7);  // mid-partition, mid-batch state live
    int aborts = 0;
    EXPECT_EQ(p.Run(input, vec.get(), &faults, &aborts), clean) << "batch " << batch;
    EXPECT_GT(aborts, 0);
  }
}

// ---------------------------------------------------------------------------
// Layer 3: per-kind element kernels and loop-invariant binops.
// ---------------------------------------------------------------------------

constexpr FieldKind kPrimKinds[] = {FieldKind::kBool, FieldKind::kI8,  FieldKind::kI16,
                                    FieldKind::kChar, FieldKind::kI32, FieldKind::kI64,
                                    FieldKind::kF32,  FieldKind::kF64};

// Where an array lives: a builder, or committed [len:i32][elements] bytes.
enum class Storage { kBuilder, kCommitted };

// One element of a test array, chosen to need sign extension (negative
// narrow ints), wrapping (kChar reads as i16) and f32 rounding.
double ElementValue(FieldKind kind, int64_t i) {
  switch (kind) {
    case FieldKind::kBool: return static_cast<double>(i % 2);
    case FieldKind::kI8: return static_cast<double>(i * 37 % 256 - 128);
    case FieldKind::kI16:
    case FieldKind::kChar: return static_cast<double>(i * 7919 % 65536 - 32768);
    case FieldKind::kI32: return static_cast<double>(i * 104729 - 2000000000);
    case FieldKind::kI64: return static_cast<double>(i * 1000003 - (int64_t{1} << 40));
    case FieldKind::kF32:
    case FieldKind::kF64: return static_cast<double>(i) * 0.1 - 3.3;
    case FieldKind::kRef: break;
  }
  return 0.0;
}

bool IsFloatKind(FieldKind kind) { return kind == FieldKind::kF32 || kind == FieldKind::kF64; }

// copy_gather(src, dst, n):  for i < n: v = src[(i * 5) % n]; dst[i] = v; sum += v
// copy_scatter(src, dst, n): for i < n: v = src[i]; dst[(i * 5) % n] = v; sum += v
// over native arrays of one element kind, returning sum: a computed-index
// gather with an induction-index scatter, and the other way round. The sum
// sees each element as the gather widened it. `owned_dst` makes the stores
// owned-accumulator writes into committed bytes.
struct ElementCopies {
  const Function* gather = nullptr;
  const Function* scatter = nullptr;
};

ElementCopies BuildElementCopies(SerProgram& prog, const Klass* array, bool owned_dst) {
  ElementCopies copies;
  for (bool computed_store : {false, true}) {
    Function* f = prog.AddFunction(computed_store ? "copy_scatter" : "copy_gather");
    FunctionBuilder b(f);
    int src = b.Param("src", IrType::Ref(array));
    int dst = b.Param("dst", IrType::Ref(array));
    int n = b.Param("n", IrType::I64());
    const bool is_float = IsFloatKind(array->element_kind());
    const IrType elem = is_float ? IrType::F64() : IrType::I64();
    f->return_type = elem;
    int sum = b.Local("sum", elem);
    b.AssignTo(sum, is_float ? b.ConstF(0.0) : b.ConstI(0));
    int five = b.ConstI(5);
    b.For(n, [&](int i) {
      int shuffled = b.BinOp(BinOpKind::kRem, b.BinOp(BinOpKind::kMul, i, five), n);
      int v = b.ArrayLoad(src, computed_store ? i : shuffled, elem);
      b.ArrayStore(dst, computed_store ? shuffled : i, v);
      b.AssignTo(sum, b.BinOp(BinOpKind::kAdd, sum, v));
    });
    b.Return(sum);
    b.Done();
    for (Statement& st : f->body) {
      if (st.op == Op::kArrayLoad) {
        st.op = Op::kNativeArrayLoad;
      } else if (st.op == Op::kArrayStore) {
        st.op = owned_dst ? Op::kNativeArrayStoreOwned : Op::kNativeArrayStore;
      }
    }
    (computed_store ? copies.scatter : copies.gather) = f;
  }
  return copies;
}

// An array of `n` elements of the array klass's kind, filled with
// ElementValue(kind, i + salt).
struct TestArray {
  Storage storage;
  std::vector<uint64_t> committed;  // 8-aligned [len][elements]
  int64_t builder = 0;

  int64_t addr() const {
    return storage == Storage::kCommitted ? reinterpret_cast<int64_t>(committed.data())
                                          : builder;
  }
};

TestArray MakeArray(Storage storage, const Klass* array, int64_t n, int64_t salt,
                    BuilderStore& builders) {
  TestArray out{storage, {}, 0};
  const FieldKind kind = array->element_kind();
  const int64_t esz = FieldKindSize(kind);
  if (storage == Storage::kBuilder) {
    out.builder = builders.NewArray(array, n);
  } else {
    out.committed.assign(static_cast<size_t>((4 + n * esz + 7) / 8 + 1), 0);
    const int32_t len = static_cast<int32_t>(n);
    std::memcpy(out.committed.data(), &len, sizeof(len));
  }
  for (int64_t i = 0; i < n; ++i) {
    const double v = ElementValue(kind, i + salt);
    if (storage == Storage::kBuilder) {
      builders.ArrayStore(out.builder, i, kind, static_cast<int64_t>(v), v);
    } else if (IsFloatKind(kind)) {
      NativeWriteFloat(out.addr(), 4 + i * esz, kind, v);
    } else {
      NativeWriteInt(out.addr(), 4 + i * esz, kind, static_cast<int64_t>(v));
    }
  }
  return out;
}

// The element bytes of `arr`.
std::vector<uint8_t> ElementBytes(const TestArray& arr, FieldKind kind, int64_t n,
                                  BuilderStore& builders) {
  const size_t bytes = static_cast<size_t>(n * FieldKindSize(kind));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(arr.addr()) + 4;
  if (arr.storage == Storage::kBuilder) {
    uint8_t* elems = nullptr;
    int64_t len = 0;
    GERENUK_CHECK(builders.TryGetPrimArray(arr.builder, kind, &elems, &len));
    GERENUK_CHECK_EQ(len, n);
    data = elems;
  }
  return std::vector<uint8_t>(data, data + bytes);
}

// Every primitive kind, gathered from builder and committed arrays and
// scattered into builder arrays and owned committed bytes, through the
// interpreter, the scalar plan and the vec plan at several strip sizes:
// the destination bytes must be identical.
TEST(VecKernelTest, GatherAndScatterEveryPrimitiveKind) {
  for (FieldKind kind : kPrimKinds) {
    for (Storage src_storage : {Storage::kBuilder, Storage::kCommitted}) {
      for (Storage dst_storage : {Storage::kBuilder, Storage::kCommitted}) {
        VecHarness h;
        const Klass* array = h.heap.klasses().DefineArray(kind);
        const ElementCopies copies =
            BuildElementCopies(h.prog, array, dst_storage == Storage::kCommitted);
        const std::string label = std::string(FieldKindName(kind)) +
                                  (src_storage == Storage::kBuilder ? " builder->" : " committed->") +
                                  (dst_storage == Storage::kBuilder ? "builder" : "committed");
        BuilderStore builders(h.layouts);
        // Copies `n` elements with `runner` and returns the destination
        // bytes, then the returned sum's bits.
        auto run = [&](SerRunner& runner, const Function* f, int64_t n) {
          builders.Clear();
          const TestArray src = MakeArray(src_storage, array, n, 3, builders);
          const TestArray dst = MakeArray(dst_storage, array, n, 1000, builders);
          const Value args[3] = {Value::Addr(src.addr()), Value::Addr(dst.addr()),
                                 Value::I64(n)};
          const Value sum = runner.CallFunction(f, args, 3);
          std::vector<uint8_t> out = ElementBytes(dst, kind, n, builders);
          const int64_t bits = sum.tag == ValueTag::kF64 ? std::bit_cast<int64_t>(sum.d) : sum.i;
          const auto* p = reinterpret_cast<const uint8_t*>(&bits);
          out.insert(out.end(), p, p + sizeof(bits));
          return out;
        };
        Interpreter interp(h.prog, h.heap, h.wk, &h.layouts, &builders);
        std::shared_ptr<const SerPlan> scalar = h.Compile(false);
        PlanExecutor scalar_exec(*scalar, h.heap, h.wk, &h.layouts, &builders);
        for (int32_t batch : {1, 3, 7, 256}) {
          std::shared_ptr<const SerPlan> vec = h.Compile(true, batch);
          ASSERT_EQ(vec->vec_loops(), 2) << label << " batch " << batch;
          PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, &builders);
          for (const Function* f : {copies.gather, copies.scatter}) {
            for (int64_t n : {1, 6, 13, 64}) {  // none divisible by 5: a permutation
              const std::vector<uint8_t> want = run(interp, f, n);
              EXPECT_EQ(run(scalar_exec, f, n), want) << label << " " << f->name << " n=" << n;
              EXPECT_EQ(run(vec_exec, f, n), want)
                  << label << " " << f->name << " n=" << n << " batch=" << batch;
            }
          }
        }
      }
    }
  }
}

// uniform(x, y, skip, n): acc = 0; for i < n: if (i >= skip) acc += x <op> y
// — a binop whose operands are both loop-invariant, behind a filter, so the
// first lane that evaluates it is lane `skip`.
Function* BuildUniformLoop(SerProgram& prog, BinOpKind op) {
  Function* f = prog.AddFunction("uniform_loop");
  FunctionBuilder b(f);
  int x = b.Param("x", IrType::I64());
  int y = b.Param("y", IrType::I64());
  int skip = b.Param("skip", IrType::I64());
  int n = b.Param("n", IrType::I64());
  f->return_type = IrType::I64();
  int acc = b.Local("acc", IrType::I64());
  b.AssignTo(acc, b.ConstI(0));
  b.For(n, [&](int i) {
    b.If(b.BinOp(BinOpKind::kGe, i, skip), [&] {
      b.AssignTo(acc, b.BinOp(BinOpKind::kAdd, acc, b.BinOp(op, x, y)));
    });
  });
  b.Return(acc);
  b.Done();
  return f;
}

// Every binop over loop-invariant ints and floats, computed once per strip,
// against the interpreter.
TEST(VecKernelTest, UniformBinOpsMatchTheInterpreter) {
  const BinOpKind kinds[] = {BinOpKind::kAdd, BinOpKind::kSub, BinOpKind::kMul,
                             BinOpKind::kDiv, BinOpKind::kRem, BinOpKind::kLt,
                             BinOpKind::kLe,  BinOpKind::kGt,  BinOpKind::kGe,
                             BinOpKind::kEq,  BinOpKind::kNe,  BinOpKind::kAnd,
                             BinOpKind::kOr,  BinOpKind::kXor, BinOpKind::kShl,
                             BinOpKind::kShr, BinOpKind::kMin, BinOpKind::kMax};
  // Shift counts stay in [0, 64): a larger or negative one is undefined in
  // every runner.
  const Value operands[][2] = {{Value::I64(-37), Value::I64(5)},
                               {Value::I64(-1000), Value::I64(3)},
                               {Value::F64(2.5), Value::F64(-0.75)},
                               {Value::I64(9), Value::F64(0.5)}};
  for (BinOpKind kind : kinds) {
    VecHarness h;
    const Function* f = BuildUniformLoop(h.prog, kind);
    std::shared_ptr<const SerPlan> vec = h.Compile(true, 4);
    ASSERT_EQ(vec->vec_loops(), 1) << static_cast<int>(kind);
    Interpreter interp(h.prog, h.heap, h.wk, &h.layouts, nullptr);
    PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
    const bool bitwise = kind >= BinOpKind::kAnd && kind <= BinOpKind::kShr;
    for (const auto& xy : operands) {
      if (bitwise && (xy[0].tag == ValueTag::kF64 || xy[1].tag == ValueTag::kF64)) {
        continue;  // a fatal: UniformBinOpFaultsAtTheScalarLane
      }
      for (int64_t n : {0, 3, 4, 9}) {
        const Value args[4] = {xy[0], xy[1], Value::I64(2), Value::I64(n)};
        const Value want = interp.CallFunction(f, args, 4);
        const Value got = vec_exec.CallFunction(f, args, 4);
        EXPECT_EQ(got.tag, want.tag) << static_cast<int>(kind) << " n=" << n;
        EXPECT_EQ(got.i, want.i) << static_cast<int>(kind) << " n=" << n;
        EXPECT_EQ(got.d, want.d) << static_cast<int>(kind) << " n=" << n;
      }
    }
  }
}

// An integer divide by zero and a bitwise binop on a float fault in the vec
// plan exactly where the scalar loop faults: not while the filter keeps
// every lane away from the binop (n <= skip, also mid-strip), and at the
// first lane that reaches it otherwise.
TEST(VecKernelTest, UniformBinOpsFaultAtTheScalarLane) {
  struct Case {
    BinOpKind kind;
    Value x;
    Value y;
    const char* fatal;
  };
  const Case cases[] = {{BinOpKind::kDiv, Value::I64(7), Value::I64(0), "CHECK failed"},
                        {BinOpKind::kRem, Value::I64(7), Value::I64(0), "CHECK failed"},
                        {BinOpKind::kAnd, Value::F64(1.5), Value::I64(3), "bitwise binop on floats"}};
  for (const Case& c : cases) {
    VecHarness h;
    const Function* f = BuildUniformLoop(h.prog, c.kind);
    std::shared_ptr<const SerPlan> scalar = h.Compile(false);
    std::shared_ptr<const SerPlan> vec = h.Compile(true, 4);
    ASSERT_EQ(vec->vec_loops(), 1);
    PlanExecutor scalar_exec(*scalar, h.heap, h.wk, &h.layouts, nullptr);
    PlanExecutor vec_exec(*vec, h.heap, h.wk, &h.layouts, nullptr);
    for (int64_t n : {3, 6}) {  // lanes [0, n) never reach the binop at skip = n
      const Value args[4] = {c.x, c.y, Value::I64(n), Value::I64(n)};
      EXPECT_EQ(vec_exec.CallFunction(f, args, 4).i, scalar_exec.CallFunction(f, args, 4).i);
    }
    for (int64_t skip : {2, 5}) {  // the first evaluating lane sits mid-strip
      const Value args[4] = {c.x, c.y, Value::I64(skip), Value::I64(skip + 1)};
      EXPECT_DEATH(scalar_exec.CallFunction(f, args, 4), c.fatal);
      EXPECT_DEATH(vec_exec.CallFunction(f, args, 4), c.fatal);
    }
  }
}

}  // namespace
}  // namespace gerenuk