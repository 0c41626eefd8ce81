// End-to-end tests of the speculative execution engine: the transformed fast
// path over native buffers must produce byte-identical output to the
// original slow path over heap objects (DESIGN.md invariant 3); aborts must
// discard fast-path work, leave the input intact, and re-execute the slow
// path (invariant 4).
#include <gtest/gtest.h>

#include <vector>

#include "src/analysis/layout.h"
#include "src/analysis/ser_analyzer.h"
#include "src/dataflow/spark.h"
#include "src/exec/ser_executor.h"
#include "src/ir/builder.h"
#include "src/nativebuf/record_builder.h"
#include "src/runtime/roots.h"
#include "src/serde/inline_serializer.h"
#include "src/support/rng.h"
#include "src/transform/transformer.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

HeapConfig TestHeap() {
  HeapConfig config;
  config.capacity_bytes = 32 << 20;
  config.gc = GcKind::kGenerational;
  return config;
}

// The LabeledPoint pipeline shared by most tests.
struct Pipeline {
  Heap heap{TestHeap()};
  WellKnown wk{heap};
  const Klass* double_array;
  const Klass* dense_vector;
  const Klass* labeled_point;
  ExprPool pool;
  DataStructAnalyzer layouts{pool};
  SerProgram program;
  std::unique_ptr<SerProgram> transformed;

  Pipeline() {
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
  }

  // scale: out.label = in.label * 2; out.values[i] = in.values[i] + 1.
  void BuildScaleProgram() {
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
      int doubled = b.BinOp(BinOpKind::kMul, label, two);
      b.FieldStore(new_lp, labeled_point, "label", doubled);
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
    Compile();
  }

  // filter: emit the record unchanged iff label > threshold (pass-through).
  void BuildFilterProgram(double threshold) {
    Function* body = program.AddFunction("task_body");
    FunctionBuilder b(body);
    int rec = b.Deserialize(labeled_point);
    int label = b.FieldLoad(rec, labeled_point, "label");
    int thresh = b.ConstF(threshold);
    int keep = b.BinOp(BinOpKind::kGt, label, thresh);
    b.If(keep, [&] { b.Serialize(rec); });
    b.Return();
    b.Done();
    program.body = body;
    Compile();
  }

  void Compile() {
    SerAnalyzer analyzer(program, layouts);
    SerAnalysis analysis = analyzer.Run();
    Transformer transformer(program, analysis, layouts);
    TransformResult result = transformer.Run();
    transformed = std::move(result.transformed);
  }

  // Builds a native input partition of `n` random LabeledPoints.
  NativePartition MakeInput(int n, uint64_t seed) {
    NativePartition input;
    InlineSerializer serde(heap);
    RootScope scope(heap);
    Rng rng(seed);
    for (int r = 0; r < n; ++r) {
      size_t values_len = 1 + rng.NextBounded(8);
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
};

std::vector<uint8_t> PartitionBytes(const NativePartition& p) {
  ByteBuffer buf;
  p.SerializeTo(buf);
  return buf.bytes();
}

TEST(NativePartitionTest, AppendAndIterate) {
  NativePartition p;
  uint8_t rec1[] = {1, 2, 3, 4};
  uint8_t rec2[] = {5, 6};
  int64_t a1 = p.AppendRecord(rec1, 4);
  int64_t a2 = p.AppendRecord(rec2, 2);
  EXPECT_EQ(p.record_count(), 2u);
  EXPECT_EQ(p.record_addr(0), a1);
  EXPECT_EQ(p.record_addr(1), a2);
  EXPECT_EQ(p.record_size(0), 4u);
  EXPECT_EQ(p.record_size(1), 2u);
  EXPECT_EQ(*reinterpret_cast<const uint8_t*>(a1), 1);
  EXPECT_EQ(*reinterpret_cast<const uint8_t*>(a2 + 1), 6);
}

TEST(NativePartitionTest, WireRoundTrip) {
  NativePartition p;
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> rec(static_cast<size_t>(i % 17 + 1), static_cast<uint8_t>(i));
    p.AppendRecord(rec.data(), static_cast<uint32_t>(rec.size()));
  }
  ByteBuffer wire;
  p.SerializeTo(wire);
  ByteReader reader(wire.bytes());
  NativePartition q = NativePartition::Parse(reader);
  EXPECT_EQ(q.record_count(), 100u);
  EXPECT_EQ(PartitionBytes(p), PartitionBytes(q));
}

TEST(NativePartitionTest, AddressesStableAcrossGrowth) {
  NativePartition p;
  uint8_t byte = 42;
  int64_t first = p.AppendRecord(&byte, 1);
  for (int i = 0; i < 10000; ++i) {
    std::vector<uint8_t> rec(257, static_cast<uint8_t>(i));
    p.AppendRecord(rec.data(), static_cast<uint32_t>(rec.size()));
  }
  EXPECT_EQ(*reinterpret_cast<const uint8_t*>(first), 42);
}

TEST(NativePartitionTest, TrackerSeesAllocationAndRelease) {
  MemoryTracker tracker;
  {
    NativePartition p(&tracker);
    uint8_t rec[16] = {0};
    p.AppendRecord(rec, 16);
    EXPECT_GT(tracker.live_bytes(), 0);
  }
  EXPECT_EQ(tracker.live_bytes(), 0);
  EXPECT_GT(tracker.peak_bytes(), 0);
}

TEST(NativePartitionTest, EverySingleBitFlipFailsTheSeal) {
  // Bodies of 3, 8 and 13 bytes: a tail alone, one whole word, a word and a
  // tail. Each record hashes as [size:u32][body], so every shape of tail
  // shows up.
  NativePartition p;
  for (uint32_t size : {3u, 8u, 13u}) {
    std::vector<uint8_t> body(size);
    for (uint32_t b = 0; b < size; ++b) {
      body[b] = static_cast<uint8_t>(size * 16 + b);
    }
    p.AppendRecord(body.data(), size);
  }
  p.Seal();
  ASSERT_TRUE(p.VerifyChecksum());
  ByteBuffer wire;
  p.SerializeTo(wire);

  // Wire form: [count:u32] ([size:u32][body])* [checksum:u64]. Flip each bit
  // of every size prefix and body. A body flip always parses and must fail
  // verification; a size flip may instead no longer parse at all.
  int flips = 0;
  for (size_t byte = 4; byte + 8 < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bytes(wire.data(), wire.data() + wire.size());
      bytes[byte] ^= static_cast<uint8_t>(1 << bit);
      ByteReader in(bytes.data(), bytes.size());
      bool detected = true;
      try {
        detected = !NativePartition::Parse(in).VerifyChecksum();
      } catch (const WireFormatError&) {
      }
      EXPECT_TRUE(detected) << "byte " << byte << " bit " << bit;
      ++flips;
    }
  }
  EXPECT_EQ(flips, 8 * (3 * 4 + 3 + 8 + 13));

  // The same holds in place, on the sealed partition's own bytes.
  for (size_t r = 0; r < p.record_count(); ++r) {
    uint8_t* body = reinterpret_cast<uint8_t*>(p.record_addr(r));
    for (uint32_t byte = 0; byte < p.record_size(r); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        body[byte] ^= static_cast<uint8_t>(1 << bit);
        EXPECT_FALSE(p.VerifyChecksum()) << "record " << r << " byte " << byte << " bit " << bit;
        body[byte] ^= static_cast<uint8_t>(1 << bit);
      }
    }
  }
  EXPECT_TRUE(p.VerifyChecksum());
}

TEST(MemoryTrackerTest, SparkJobReturnsLiveBytesWhenItsDatasetsDie) {
  SparkJob job(SparkWith(2));
  DatasetPtr in = job.MakeInput(20000);
  const int64_t before = job.engine.memory().live_bytes();
  {
    DatasetPtr mapped =
        job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    DatasetPtr reduced = job.engine.ReduceByKey(mapped, job.udfs, {}, KeySpec{job.get_key, false},
                                                job.sum_values);
    DatasetPtr joined = job.engine.JoinByKey(reduced, KeySpec{job.get_key, false}, mapped,
                                             KeySpec{job.get_key, false}, job.udfs,
                                             job.sum_values, job.pair);
    ASSERT_EQ(joined->TotalRecords(), 20000);
    EXPECT_GT(job.engine.memory().live_bytes(), before);
  }
  EXPECT_EQ(job.engine.memory().live_bytes(), before);
}

TEST(MemoryTrackerTest, LiveBytesAreExactAtStageBarriers) {
  SparkJob job(SparkWith(2));
  // 60k Pair records: about 300 KB per partition, so each spans two chunks.
  DatasetPtr in = job.MakeInput(60000);
  auto heap_plus = [&job](std::initializer_list<const DatasetPtr*> live) {
    int64_t bytes = job.engine.heap_used_bytes();
    for (const DatasetPtr* ds : live) {
      bytes += (*ds)->TotalBytes();
    }
    return bytes;
  };
  EXPECT_EQ(job.engine.memory().live_bytes(), heap_plus({&in}));
  DatasetPtr mapped =
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  EXPECT_EQ(job.engine.memory().live_bytes(), heap_plus({&in, &mapped}));
  DatasetPtr reduced = job.engine.ReduceByKey(mapped, job.udfs, {}, KeySpec{job.get_key, false},
                                              job.sum_values);
  EXPECT_EQ(job.engine.memory().live_bytes(), heap_plus({&in, &mapped, &reduced}));
  in.reset();
  EXPECT_EQ(job.engine.memory().live_bytes(), heap_plus({&mapped, &reduced}));
}

TEST(RecordBuilderTest, BuildAndRenderMatchesInlineSerializer) {
  Pipeline p;
  BuilderStore builders(p.layouts);

  // Build natively: new double[3]{1,2,3}; new DenseVector{3, arr};
  // new LabeledPoint{0.5, vec} — attached out of declaration order on
  // purpose (the deferred-placement machinery must not care).
  int64_t arr = builders.NewArray(p.double_array, 3);
  builders.ArrayStore(arr, 0, FieldKind::kF64, 0, 1.0);
  builders.ArrayStore(arr, 1, FieldKind::kF64, 0, 2.0);
  builders.ArrayStore(arr, 2, FieldKind::kF64, 0, 3.0);
  int64_t lp = builders.NewRecord(p.labeled_point);
  builders.WriteField(lp, 0, FieldKind::kF64, 0, 0.5);  // label is field 0
  int64_t vec = builders.NewRecord(p.dense_vector);
  builders.AttachField(lp, 1, vec);  // features: attach before filling
  builders.AttachField(vec, 1, arr);  // values
  builders.WriteField(vec, 0, FieldKind::kI32, 3, 0);  // numActives

  NativePartition out;
  builders.Render(lp, p.labeled_point, out);

  // Reference bytes from the heap-side inline serializer.
  RootScope scope(p.heap);
  size_t harr = scope.Push(p.heap.AllocArray(p.double_array, 3));
  for (int i = 0; i < 3; ++i) {
    p.heap.ASet<double>(scope.Get(harr), i, i + 1.0);
  }
  size_t hvec = scope.Push(p.heap.AllocObject(p.dense_vector));
  p.heap.SetPrim<int32_t>(scope.Get(hvec), p.dense_vector->FindField("numActives")->offset, 3);
  p.heap.SetRef(scope.Get(hvec), p.dense_vector->FindField("values")->offset, scope.Get(harr));
  size_t hlp = scope.Push(p.heap.AllocObject(p.labeled_point));
  p.heap.SetPrim<double>(scope.Get(hlp), p.labeled_point->FindField("label")->offset, 0.5);
  p.heap.SetRef(scope.Get(hlp), p.labeled_point->FindField("features")->offset, scope.Get(hvec));
  InlineSerializer serde(p.heap);
  ByteBuffer expected;
  serde.WriteRecord(scope.Get(hlp), p.labeled_point, expected);

  ASSERT_EQ(out.record_count(), 1u);
  ASSERT_EQ(out.record_size(0), expected.size() - 4);
  EXPECT_EQ(std::memcmp(reinterpret_cast<const void*>(out.record_addr(0)), expected.data() + 4,
                        out.record_size(0)),
            0);
}

TEST(RecordBuilderTest, PassThroughCopiesCommittedBytes) {
  Pipeline p;
  NativePartition input = p.MakeInput(3, 7);
  BuilderStore builders(p.layouts);
  NativePartition out;
  for (size_t i = 0; i < input.record_count(); ++i) {
    builders.Render(input.record_addr(i), p.labeled_point, out);
  }
  EXPECT_EQ(PartitionBytes(input), PartitionBytes(out));
}

TEST(RecordBuilderTest, UnattachedFieldAtRenderIsFatal) {
  Pipeline p;
  BuilderStore builders(p.layouts);
  int64_t lp = builders.NewRecord(p.labeled_point);
  NativePartition out;
  EXPECT_DEATH(builders.Render(lp, p.labeled_point, out), "unattached");
}

TEST(ResolveOffsetTest, SymbolicOffsetAgainstRealRecord) {
  Pipeline p;
  NativePartition input = p.MakeInput(1, 99);
  int64_t addr = input.record_addr(0);
  const ClassLayout* layout = p.layouts.LayoutOf(p.labeled_point);
  // LabeledPoint body: label @0 (8 bytes), features @8 (DenseVector:
  // numActives @8, values @12). The size expression must equal the record's
  // stored size.
  int64_t size = ResolveOffset(p.pool, layout->size_expr, addr);
  EXPECT_EQ(size, input.record_size(0));
}

TEST(SerExecutorTest, FastAndSlowPathsProduceIdenticalBytes) {
  Pipeline fast_p;
  fast_p.BuildScaleProgram();
  NativePartition input = fast_p.MakeInput(200, 1234);

  NativePartition fast_out;
  PhaseTimes fast_times;
  SerExecutor fast_exec(fast_p.heap, fast_p.wk, fast_p.layouts, fast_p.program,
                        *fast_p.transformed);
  SpecOutcome outcome = fast_exec.RunTask(input, &fast_out, fast_times);
  EXPECT_TRUE(outcome.committed_fast_path);
  EXPECT_EQ(outcome.records_processed, 200);

  NativePartition slow_out;
  PhaseTimes slow_times;
  fast_exec.RunSlowPath(input, &slow_out, slow_times);

  EXPECT_EQ(PartitionBytes(fast_out), PartitionBytes(slow_out));
  EXPECT_EQ(fast_out.record_count(), 200u);
  // The slow path pays deserialization and serialization; the fast path
  // does not.
  EXPECT_EQ(fast_times.Get(Phase::kDeserialize), 0);
  EXPECT_EQ(fast_times.Get(Phase::kSerialize), 0);
  EXPECT_GT(slow_times.Get(Phase::kDeserialize), 0);
  EXPECT_GT(slow_times.Get(Phase::kSerialize), 0);
}

TEST(SerExecutorTest, FilterPassThroughEquivalence) {
  Pipeline p;
  p.BuildFilterProgram(0.0);
  NativePartition input = p.MakeInput(300, 555);

  NativePartition fast_out;
  NativePartition slow_out;
  PhaseTimes times;
  SerExecutor exec(p.heap, p.wk, p.layouts, p.program, *p.transformed);
  SpecOutcome outcome = exec.RunTask(input, &fast_out, times);
  EXPECT_TRUE(outcome.committed_fast_path);
  exec.RunSlowPath(input, &slow_out, times);

  EXPECT_EQ(PartitionBytes(fast_out), PartitionBytes(slow_out));
  EXPECT_LT(fast_out.record_count(), input.record_count());  // some filtered
  EXPECT_GT(fast_out.record_count(), 0u);
}

TEST(SerExecutorTest, ForcedAbortFallsBackAndOutputMatches) {
  Pipeline p;
  p.BuildScaleProgram();
  NativePartition input = p.MakeInput(100, 42);
  std::vector<uint8_t> input_before = PartitionBytes(input);

  SerExecutor exec(p.heap, p.wk, p.layouts, p.program, *p.transformed);
  FaultPlan faults;
  faults.AbortTask(0, 50);
  bool launched = false;
  exec.set_launch_hook([&launched] { launched = true; });

  NativePartition out;
  PhaseTimes times;
  SpecOutcome outcome = exec.RunTask(input, &out, times, &faults, 0);
  EXPECT_FALSE(outcome.committed_fast_path);
  EXPECT_EQ(outcome.aborts, 1);
  EXPECT_EQ(outcome.abort_reason, AbortReason::kForced);
  EXPECT_EQ(outcome.records_wasted, 50);
  EXPECT_TRUE(launched);

  // Input buffers are pristine (re-execution safety).
  EXPECT_EQ(PartitionBytes(input), input_before);

  // The output equals a pure slow-path run.
  NativePartition reference;
  PhaseTimes ref_times;
  exec.RunSlowPath(input, &reference, ref_times);
  EXPECT_EQ(PartitionBytes(out), PartitionBytes(reference));
}

TEST(SerExecutorTest, StaticAbortFenceTriggersReexecution) {
  // A program whose UDF mutates the input record's vector (the §4.4 resize
  // pattern): the transformer fences it; the fast path must abort on the
  // first record and the slow path must still produce correct output.
  Pipeline p;
  Function* udf = p.program.AddFunction("mutate");
  {
    FunctionBuilder b(udf);
    int lp = b.Param("lp", IrType::Ref(p.labeled_point));
    udf->return_type = IrType::Ref(p.labeled_point);
    int vec = b.FieldLoad(lp, p.labeled_point, "features");
    int n = b.ConstI(4);
    int bigger = b.NewArray(p.double_array, n);
    b.FieldStore(vec, p.dense_vector, "values", bigger);  // violation
    b.Return(lp);
    b.Done();
  }
  Function* body = p.program.AddFunction("task_body");
  {
    FunctionBuilder b(body);
    int rec = b.Deserialize(p.labeled_point);
    int out = b.Call(udf, {rec});
    b.Serialize(out);
    b.Return();
    b.Done();
  }
  p.program.body = body;
  p.Compile();

  NativePartition input = p.MakeInput(20, 7);
  SerExecutor exec(p.heap, p.wk, p.layouts, p.program, *p.transformed);
  NativePartition out;
  PhaseTimes times;
  SpecOutcome outcome = exec.RunTask(input, &out, times);
  EXPECT_FALSE(outcome.committed_fast_path);
  EXPECT_EQ(outcome.abort_reason, AbortReason::kDisruptNativeSpace);
  EXPECT_EQ(out.record_count(), 20u);  // slow path completed the task
}

TEST(SerExecutorTest, FastPathAllocatesNoDataObjectsOnHeap) {
  Pipeline p;
  p.BuildScaleProgram();
  NativePartition input = p.MakeInput(500, 321);
  p.heap.ResetStats();

  SerExecutor exec(p.heap, p.wk, p.layouts, p.program, *p.transformed);
  NativePartition out;
  PhaseTimes times;
  exec.RunTask(input, &out, times);
  // The transformed path creates zero managed objects for data records.
  EXPECT_EQ(p.heap.stats().allocated_objects, 0);
}

TEST(SerExecutorTest, SlowPathAllocatesManyObjects) {
  Pipeline p;
  p.BuildScaleProgram();
  NativePartition input = p.MakeInput(500, 321);
  p.heap.ResetStats();

  SerExecutor exec(p.heap, p.wk, p.layouts, p.program, *p.transformed);
  NativePartition out;
  PhaseTimes times;
  exec.RunSlowPath(input, &out, times);
  // Each record deserializes into >= 3 objects and builds >= 3 more.
  EXPECT_GE(p.heap.stats().allocated_objects, 500 * 6);
}

// Property: equivalence over many random inputs and record shapes.
TEST(SerExecutorTest, EquivalenceProperty) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Pipeline p;
    p.BuildScaleProgram();
    NativePartition input = p.MakeInput(50, seed * 1000);
    SerExecutor exec(p.heap, p.wk, p.layouts, p.program, *p.transformed);
    NativePartition fast_out;
    NativePartition slow_out;
    PhaseTimes times;
    SpecOutcome outcome = exec.RunTask(input, &fast_out, times);
    ASSERT_TRUE(outcome.committed_fast_path);
    exec.RunSlowPath(input, &slow_out, times);
    ASSERT_EQ(PartitionBytes(fast_out), PartitionBytes(slow_out)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gerenuk
