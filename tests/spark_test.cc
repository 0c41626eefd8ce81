// Integration tests for the mini-Spark engine: every operator must produce
// semantically identical results in kBaseline (heap objects + Kryo shuffles)
// and kGerenuk (native buffers + transformed SERs) modes, including under
// forced aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "src/dataflow/spark.h"
#include "src/ir/builder.h"
#include "tests/pair_job.h"
#include "tests/source_ingest.h"

namespace gerenuk {
namespace {

EngineConfig PairWorkloadConfig(EngineMode mode, size_t heap_bytes) {
  EngineConfig config;
  config.execution.mode = mode;
  config.execution.heap_bytes = heap_bytes;
  config.execution.gc = GcKind::kGenerational;
  config.execution.num_partitions = 3;
  return config;
}

// A test workload over Pair{key:i64, value:f64} records.
struct PairWorkload {
  SparkEngine engine;
  const Klass* pair;
  const Klass* pair_array;
  SerProgram udfs;
  const Function* double_value;   // map: value *= 2
  const Function* positive_only;  // filter: value > 0
  const Function* explode;        // flatMap: -> [ (key, v), (key+1000, v) ]
  const Function* get_key;        // key extractor
  const Function* sum_values;     // reduce: (a, b) -> (a.key, a.v + b.v)
  const Function* add_broadcast;  // map with broadcast: value += bc.value

  explicit PairWorkload(EngineMode mode, size_t heap_bytes = 48u << 20)
      : engine(PairWorkloadConfig(mode, heap_bytes)) {
    KlassRegistry& reg = engine.heap().klasses();
    pair = reg.DefineClass("Pair", {
                                       {"key", FieldKind::kI64, nullptr, 0},
                                       {"value", FieldKind::kF64, nullptr, 0},
                                   });
    engine.RegisterDataType(pair);
    pair_array = reg.Find("Pair[]");

    {
      Function* f = udfs.AddFunction("double_value");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int k = b.FieldLoad(rec, pair, "key");
      int v = b.FieldLoad(rec, pair, "value");
      int out = b.NewObject(pair);
      b.FieldStore(out, pair, "key", k);
      int two = b.ConstF(2.0);
      b.FieldStore(out, pair, "value", b.BinOp(BinOpKind::kMul, v, two));
      b.Return(out);
      b.Done();
      double_value = f;
    }
    {
      Function* f = udfs.AddFunction("positive_only");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::I64();
      int v = b.FieldLoad(rec, pair, "value");
      int zero = b.ConstF(0.0);
      b.Return(b.BinOp(BinOpKind::kGt, v, zero));
      b.Done();
      positive_only = f;
    }
    {
      Function* f = udfs.AddFunction("explode");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair_array);
      int k = b.FieldLoad(rec, pair, "key");
      int v = b.FieldLoad(rec, pair, "value");
      int two = b.ConstI(2);
      int arr = b.NewArray(pair_array, two);
      int first = b.NewObject(pair);
      b.FieldStore(first, pair, "key", k);
      b.FieldStore(first, pair, "value", v);
      b.ArrayStore(arr, b.ConstI(0), first);
      int second = b.NewObject(pair);
      int offset = b.ConstI(1000);
      b.FieldStore(second, pair, "key", b.BinOp(BinOpKind::kAdd, k, offset));
      b.FieldStore(second, pair, "value", v);
      b.ArrayStore(arr, b.ConstI(1), second);
      b.Return(arr);
      b.Done();
      explode = f;
    }
    {
      Function* f = udfs.AddFunction("get_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::I64();
      b.Return(b.FieldLoad(rec, pair, "key"));
      b.Done();
      get_key = f;
    }
    {
      Function* f = udfs.AddFunction("sum_values");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(pair));
      int c = b.Param("b", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int out = b.NewObject(pair);
      b.FieldStore(out, pair, "key", b.FieldLoad(a, pair, "key"));
      int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                        b.FieldLoad(c, pair, "value"));
      b.FieldStore(out, pair, "value", sum);
      b.Return(out);
      b.Done();
      sum_values = f;
    }
    {
      Function* f = udfs.AddFunction("add_broadcast");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      int bc = b.Param("bc", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int out = b.NewObject(pair);
      b.FieldStore(out, pair, "key", b.FieldLoad(rec, pair, "key"));
      int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(rec, pair, "value"),
                        b.FieldLoad(bc, pair, "value"));
      b.FieldStore(out, pair, "value", sum);
      b.Return(out);
      b.Done();
      add_broadcast = f;
    }
  }

  ObjRef MakePair(Heap& heap, int64_t key, double value) {
    ObjRef rec = heap.AllocObject(pair);
    heap.SetPrim<int64_t>(rec, pair->FindField("key")->offset, key);
    heap.SetPrim<double>(rec, pair->FindField("value")->offset, value);
    return rec;
  }

  DatasetPtr MakeInput(int64_t count) {
    return engine.Source(pair, count, [](int64_t i, RecordWriter& w) {
      w.I64(i % 10);
      w.F64((i % 7) - 3.0);
    });
  }

  // Materializes a dataset as sorted (key, value) pairs for comparison.
  std::vector<std::pair<int64_t, double>> Extract(const DatasetPtr& ds) {
    RootScope scope(engine.heap());
    std::vector<size_t> slots = engine.CollectToHeap(ds, scope);
    std::vector<std::pair<int64_t, double>> result;
    for (size_t slot : slots) {
      ObjRef rec = scope.Get(slot);
      result.emplace_back(engine.heap().GetPrim<int64_t>(rec, pair->FindField("key")->offset),
                          engine.heap().GetPrim<double>(rec, pair->FindField("value")->offset));
    }
    std::sort(result.begin(), result.end());
    return result;
  }
};

using Pairs = std::vector<std::pair<int64_t, double>>;

TEST(SparkEngineTest, MapStageMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(500);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::Map(w.double_value, w.pair)});
    results[static_cast<int>(mode)] = w.Extract(out);
    EXPECT_EQ(out->TotalRecords(), 500);
  }
  EXPECT_EQ(results[0], results[1]);
  ASSERT_FALSE(results[0].empty());
  EXPECT_EQ(results[0][0].second, results[0][0].second);  // well-formed
}

TEST(SparkEngineTest, FilterStageMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(500);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::Filter(w.positive_only)});
    results[static_cast<int>(mode)] = w.Extract(out);
    EXPECT_LT(out->TotalRecords(), 500);
    EXPECT_GT(out->TotalRecords(), 0);
  }
  EXPECT_EQ(results[0], results[1]);
  for (const auto& [k, v] : results[0]) {
    EXPECT_GT(v, 0.0);
  }
}

TEST(SparkEngineTest, MapThenFilterFusedStage) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(400);
    DatasetPtr out = w.engine.RunStage(
        in, w.udfs,
        {NarrowOp::Map(w.double_value, w.pair), NarrowOp::Filter(w.positive_only)});
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, FlatMapStageMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(200);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::FlatMap(w.explode, w.pair)});
    EXPECT_EQ(out->TotalRecords(), 400);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, ReduceByKeyMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(1000);
    DatasetPtr out =
        w.engine.ReduceByKey(in, w.udfs, {}, KeySpec{w.get_key, false}, w.sum_values);
    EXPECT_EQ(out->TotalRecords(), 10);  // keys are i % 10
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
  // Independent reference: sum per key computed directly.
  std::map<int64_t, double> expected;
  for (int64_t i = 0; i < 1000; ++i) {
    expected[i % 10] += (i % 7) - 3.0;
  }
  for (const auto& [k, v] : results[0]) {
    EXPECT_NEAR(v, expected[k], 1e-9) << "key " << k;
  }
}

TEST(SparkEngineTest, ReduceByKeyWithPreOps) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(600);
    DatasetPtr out = w.engine.ReduceByKey(in, w.udfs,
                                          {NarrowOp::Map(w.double_value, w.pair),
                                           NarrowOp::Filter(w.positive_only)},
                                          KeySpec{w.get_key, false}, w.sum_values);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, BroadcastVariable) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    DatasetPtr in = w.MakeInput(300);
    RootScope scope(w.engine.heap());
    size_t bc_slot = scope.Push(w.MakePair(w.engine.heap(), 0, 100.0));
    BroadcastVar bc = w.engine.MakeBroadcast(scope.Get(bc_slot), w.pair);
    DatasetPtr out = w.engine.RunStage(in, w.udfs, {NarrowOp::Map(w.add_broadcast, w.pair)}, &bc);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
  for (const auto& [k, v] : results[0]) {
    EXPECT_GE(v, 95.0);  // original values were >= -3
  }
}

TEST(SparkEngineTest, JoinByKeyMatchesAcrossModes) {
  Pairs results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    PairWorkload w(mode);
    // Left: one record per key 0..9; right: 300 records keyed i%10.
    DatasetPtr left = w.engine.Source(w.pair, 10, [](int64_t i, RecordWriter& out) {
      out.I64(i);
      out.F64(i * 10.0);
    });
    DatasetPtr right = w.MakeInput(300);
    DatasetPtr out = w.engine.JoinByKey(left, KeySpec{w.get_key, false}, right,
                                        KeySpec{w.get_key, false}, w.udfs, w.sum_values, w.pair);
    EXPECT_EQ(out->TotalRecords(), 300);
    results[static_cast<int>(mode)] = w.Extract(out);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SparkEngineTest, GerenukFastPathCommitsAndBaselineSerializes) {
  PairWorkload gw(EngineMode::kGerenuk);
  DatasetPtr gin = gw.MakeInput(500);
  gw.engine.ResetMetrics();
  gw.engine.ReduceByKey(gin, gw.udfs, {}, KeySpec{gw.get_key, false}, gw.sum_values);
  EXPECT_GT(gw.engine.stats().fast_path_commits, 0);
  EXPECT_EQ(gw.engine.stats().aborts, 0);
  EXPECT_EQ(gw.engine.stats().times.Get(Phase::kSerialize), 0);
  EXPECT_EQ(gw.engine.stats().times.Get(Phase::kDeserialize), 0);
  EXPECT_GT(gw.engine.stats().transform.statements_transformed, 0);

  PairWorkload bw(EngineMode::kBaseline);
  DatasetPtr bin = bw.MakeInput(500);
  bw.engine.ResetMetrics();
  bw.engine.ReduceByKey(bin, bw.udfs, {}, KeySpec{bw.get_key, false}, bw.sum_values);
  EXPECT_GT(bw.engine.stats().times.Get(Phase::kSerialize), 0);
  EXPECT_GT(bw.engine.stats().times.Get(Phase::kDeserialize), 0);
}

TEST(SparkEngineTest, ForcedAbortsStillProduceCorrectResults) {
  Pairs expected;
  {
    PairWorkload w(EngineMode::kGerenuk);
    DatasetPtr in = w.MakeInput(400);
    DatasetPtr out =
        w.engine.ReduceByKey(in, w.udfs, {}, KeySpec{w.get_key, false}, w.sum_values);
    expected = w.Extract(out);
  }
  PairWorkload w(EngineMode::kGerenuk);
  DatasetPtr in = w.MakeInput(400);
  w.engine.ResetMetrics();
  w.engine.ForceAborts(2);  // two map tasks abort halfway
  DatasetPtr out = w.engine.ReduceByKey(in, w.udfs, {}, KeySpec{w.get_key, false}, w.sum_values);
  EXPECT_EQ(w.engine.stats().aborts, 2);
  EXPECT_EQ(w.Extract(out), expected);
}

TEST(SparkEngineTest, PeakMemoryTracked) {
  PairWorkload w(EngineMode::kGerenuk);
  DatasetPtr in = w.MakeInput(2000);
  w.engine.ResetMetrics();
  w.engine.RunStage(in, w.udfs, {NarrowOp::Map(w.double_value, w.pair)});
  EXPECT_GT(w.engine.peak_memory_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Map-side combine
// ---------------------------------------------------------------------------

// Tagged{key, seq, tag} records reduced by "keep the lower seq, else the
// left one": associative, but which record survives a tie depends on the
// fold order — so it only matches baseline mode if the combiner keeps it.
struct TaggedJob {
  SparkEngine engine;
  const Klass* tagged;
  SerProgram udfs;
  const Function* get_key;
  const Function* keep_first_min;

  explicit TaggedJob(const EngineConfig& config) : engine(config) {
    KlassRegistry& reg = engine.heap().klasses();
    tagged = reg.DefineClass("Tagged", {
                                           {"key", FieldKind::kI64, nullptr, 0},
                                           {"seq", FieldKind::kI64, nullptr, 0},
                                           {"tag", FieldKind::kI64, nullptr, 0},
                                       });
    engine.RegisterDataType(tagged);
    {
      Function* f = udfs.AddFunction("tagged_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(tagged));
      f->return_type = IrType::I64();
      b.Return(b.FieldLoad(rec, tagged, "key"));
      b.Done();
      get_key = f;
    }
    {
      Function* f = udfs.AddFunction("keep_first_min");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(tagged));
      int c = b.Param("b", IrType::Ref(tagged));
      f->return_type = IrType::Ref(tagged);
      int out = b.Local("out", IrType::Ref(tagged));
      b.AssignTo(out, a);
      int lower = b.BinOp(BinOpKind::kLt, b.FieldLoad(c, tagged, "seq"),
                          b.FieldLoad(a, tagged, "seq"));
      b.If(lower, [&] { b.AssignTo(out, c); });
      b.Return(out);
      b.Done();
      keep_first_min = f;
    }
  }

  // key = i % 6; seq cycles 0..3 within a key, so every key has many ties.
  DatasetPtr MakeInput(int64_t count) {
    const Klass* k = tagged;
    return engine.Source(k, count, [](int64_t i, RecordWriter& w) {
      w.I64(i % 6);
      w.I64((i / 6) % 4);
      w.I64(i);
    });
  }

  std::vector<std::array<int64_t, 3>> Extract(const DatasetPtr& ds) {
    RootScope scope(engine.heap());
    std::vector<std::array<int64_t, 3>> rows;
    for (size_t slot : engine.CollectToHeap(ds, scope)) {
      ObjRef rec = scope.Get(slot);
      rows.push_back({engine.heap().GetPrim<int64_t>(rec, tagged->FindField("key")->offset),
                      engine.heap().GetPrim<int64_t>(rec, tagged->FindField("seq")->offset),
                      engine.heap().GetPrim<int64_t>(rec, tagged->FindField("tag")->offset)});
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

TEST(MapSideCombineTest, OrderSensitiveReduceMatchesBaseline) {
  for (int parts : {1, 3, 4}) {
    std::vector<std::array<int64_t, 3>> expected;
    {
      EngineConfig config;
      config.execution.mode = EngineMode::kBaseline;
      config.execution.num_partitions = parts;
      TaggedJob job(config);
      expected = job.Extract(job.engine.ReduceByKey(job.MakeInput(900), job.udfs, {},
                                                    KeySpec{job.get_key, false},
                                                    job.keep_first_min));
    }
    ASSERT_EQ(expected.size(), 6u);
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      config.execution.num_partitions = parts;
      TaggedJob job(config);
      DatasetPtr out = job.engine.ReduceByKey(job.MakeInput(900), job.udfs, {},
                                              KeySpec{job.get_key, false}, job.keep_first_min);
      EXPECT_EQ(job.Extract(out), expected) << "parts=" << parts << " workers=" << workers;
      EXPECT_EQ(job.engine.stats().aborts, 0);
      // Source record i lands in map task i % parts; each task ships one
      // partial per key it saw and folds everything else.
      std::set<std::pair<int64_t, int64_t>> partials;
      for (int64_t i = 0; i < 900; ++i) {
        partials.insert({i % parts, i % 6});
      }
      EXPECT_EQ(job.engine.stats().combine_calls, 900 - static_cast<int64_t>(partials.size()))
          << "parts=" << parts << " workers=" << workers;
    }
  }
}

TEST(MapSideCombineTest, EachMapTaskShipsOneRecordPerKey) {
  SparkJob job(SparkWith(2));
  // Keys i % 10; record i lands in map task i % 4, so each of the 4 tasks
  // sees the 5 keys of its parity, 250 records in all.
  DatasetPtr in = job.MakeInput(1000);
  job.engine.ResetMetrics();
  DatasetPtr out =
      job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false}, job.sum_values);
  EXPECT_EQ(out->TotalRecords(), 10);
  // 4 map tasks x 5 keys x one Pair record ([size:u32] + 16-byte body).
  EXPECT_EQ(job.engine.stats().shuffle_bytes, 4 * 5 * (4 + 16));
  EXPECT_EQ(job.engine.stats().combine_calls, 1000 - 4 * 5);
}

TEST(MapSideCombineTest, CombinerAbortFallsBackWithoutFeedingTheGovernor) {
  struct Run {
    std::vector<uint8_t> bytes;
    EngineStats stats;
    int combine_aborts = 0;
  };
  auto run = [](EngineConfig config) {
    // Threshold 0.5 over >= 4 tasks: the two combiner aborts in the 4-task
    // map stage would flip the governor if they counted as speculation aborts.
    config.fault.governor_abort_threshold = 0.5;
    config.fault.governor_min_tasks = 4;
    config.observability.trace = !config.execution.process_executors;
    SparkJob job(config);
    const Function* poisoned = BuildPoisonedSum(&job);
    DatasetPtr in = job.MakeInput(1000);
    job.engine.ResetMetrics();
    DatasetPtr out =
        job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false}, poisoned);
    Run r{DatasetBytes(out), job.engine.stats(), 0};
    if (job.engine.trace() != nullptr) {
      for (const TraceEvent& ev : job.engine.trace()->events()) {
        r.combine_aborts += ev.type == TraceEventType::kCombineAbort ? 1 : 0;
      }
    }
    return r;
  };

  std::vector<uint8_t> reference;
  for (int workers : kWorkerCounts) {
    Run r = run(SparkWith(workers));
    // Key 3 reaches the odd map tasks (record i goes to task i % 4).
    EXPECT_EQ(r.combine_aborts, 2) << "workers=" << workers;
    EXPECT_EQ(r.stats.aborts, 1) << "workers=" << workers;    // key 3's reduce task only
    EXPECT_EQ(r.stats.governor_flips, 0) << "workers=" << workers;
    if (reference.empty()) {
      reference = r.bytes;
    }
    EXPECT_EQ(r.bytes, reference) << "workers=" << workers;
  }
  ASSERT_EQ(reference.size(), 10u * 16u);
  // In-process engines are gone before the first fork.
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.execution.process_executors = true;
    Run r = run(config);
    EXPECT_EQ(r.bytes, reference) << "executors=" << workers;
    EXPECT_EQ(r.stats.governor_flips, 0) << "executors=" << workers;
  }
}

// A join whose combine aborts on key 3 (the poisoned sum stores into its
// left input there): the task holding key 3 releases its fast-path output and
// re-runs its bucket on the slow path, which mutates the left record exactly
// as baseline mode does. Sibling tasks commit on the fast path.
TEST(JoinSlowPathTest, PoisonedCombineReturnsBaselineBytes) {
  struct Run {
    std::vector<uint8_t> bytes;
    EngineStats stats;
  };
  auto run = [](const EngineConfig& config) {
    SparkJob job(config);
    const Function* poisoned = BuildPoisonedSum(&job);
    // Left: one record per key 0..9; right: 300 records keyed i % 10.
    DatasetPtr left = job.engine.Source(job.pair, 10, [](int64_t i, RecordWriter& w) {
      w.I64(i);
      w.F64(i * 10.0);
    });
    DatasetPtr right = job.MakeInput(300);
    job.engine.ResetMetrics();
    DatasetPtr out = job.engine.JoinByKey(left, KeySpec{job.get_key, false}, right,
                                          KeySpec{job.get_key, false}, job.udfs, poisoned,
                                          job.pair);
    return Run{OutputBytes(job.engine, out), job.engine.stats()};
  };
  EngineConfig baseline = SparkWith(1);
  baseline.execution.mode = EngineMode::kBaseline;
  const std::vector<uint8_t> reference = run(baseline).bytes;
  ASSERT_EQ(reference.size(), 300u * 16u);
  for (int workers : kWorkerCounts) {
    Run r = run(SparkWith(workers));
    EXPECT_EQ(r.bytes, reference) << "workers=" << workers;
    EXPECT_EQ(r.stats.aborts, 1) << "workers=" << workers;
  }
  // In-process engines are gone before the first fork.
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.execution.process_executors = true;
    Run r = run(config);
    EXPECT_EQ(r.bytes, reference) << "executors=" << workers;
    EXPECT_EQ(r.stats.aborts, 1) << "executors=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Source ingest: in kGerenuk every partition is built by a worker-pool task.
// ---------------------------------------------------------------------------

// LabeledPoint{label, features: DenseVector{numActives, values: f64[]}}: the
// nested-array record shape of the LR and CS inputs. Point i has label
// i / 4 and 1 + i % 9 features.
struct NestedPointJob {
  SparkEngine engine;
  const Klass* f64_array;
  const Klass* dense_vector;
  const Klass* labeled_point;

  explicit NestedPointJob(const EngineConfig& config) : engine(config) {
    KlassRegistry& reg = engine.heap().klasses();
    f64_array = engine.wk().double_array();
    dense_vector = reg.DefineClass("DenseVector", {
                                                      {"numActives", FieldKind::kI32, nullptr, 0},
                                                      {"values", FieldKind::kRef, f64_array, 0},
                                                  });
    labeled_point = reg.DefineClass("LabeledPoint", {
                                                        {"label", FieldKind::kF64, nullptr, 0},
                                                        {"features", FieldKind::kRef, dense_vector, 0},
                                                    });
    engine.RegisterDataType(labeled_point);
  }

  DatasetPtr MakeInput(int64_t count) {
    return engine.Source(labeled_point, count, [](int64_t i, RecordWriter& w) {
      const int64_t dim = 1 + i % 9;
      std::vector<double> values(static_cast<size_t>(dim));
      for (int64_t d = 0; d < dim; ++d) {
        values[static_cast<size_t>(d)] = static_cast<double>(i) * 0.5 + d;
      }
      w.F64(static_cast<double>(i) / 4.0);
      w.I32(static_cast<int32_t>(dim));
      w.Array(values);
    });
  }
};

constexpr int64_t kIngestPoints = 6001;  // partition 0 gets one extra record

TEST(SourceIngestTest, NestedArrayPartitionsIdenticalAtAnyWorkerCount) {
  PartitionPrint reference;
  {
    NestedPointJob job(SparkWith(1));
    DatasetPtr in = job.MakeInput(kIngestPoints);
    ASSERT_EQ(in->native_parts.size(), 4u);
    EXPECT_EQ(in->native_parts[0].record_count(), 1501u);
    EXPECT_EQ(in->native_parts[3].record_count(), 1500u);
    reference = PrintPartitions(in);
  }
  // In-process engines first: process-mode engines must fork from a driver
  // with no worker threads alive.
  for (bool processes : {false, true}) {
    for (int workers : kWorkerCounts) {
      EngineConfig config = SparkWith(workers);
      config.execution.process_executors = processes;
      NestedPointJob job(config);
      EXPECT_EQ(PrintPartitions(job.MakeInput(kIngestPoints)), reference)
          << "workers=" << workers << " processes=" << processes;
    }
  }
}

TEST(SourceIngestTest, BaselineHeapPartitionsHoldTheSameRecordsRoundRobin) {
  EngineConfig config = SparkWith(1);
  config.execution.mode = EngineMode::kBaseline;
  NestedPointJob baseline(config);
  DatasetPtr heap_ds = baseline.MakeInput(kIngestPoints);
  NestedPointJob gerenuk(SparkWith(2));
  DatasetPtr native_ds = gerenuk.MakeInput(kIngestPoints);

  // Record i sits in heap partition i % 4 at position i / 4.
  Heap& heap = baseline.engine.heap();
  const int label_off = baseline.labeled_point->FindField("label")->offset;
  for (size_t p = 0; p < heap_ds->heap_parts.size(); ++p) {
    const std::vector<ObjRef>& part = heap_ds->heap_parts[p];
    for (size_t j = 0; j < part.size(); ++j) {
      const double i = static_cast<double>(p + j * heap_ds->heap_parts.size());
      ASSERT_EQ(heap.GetPrim<double>(part[j], label_off), i / 4.0) << "p=" << p << " j=" << j;
    }
  }
  EXPECT_EQ(heap_ds->TotalRecords(), kIngestPoints);
  EXPECT_EQ(heap_ds->TotalBytes(), 0);
  EXPECT_EQ(BaselineRecordBodies(heap, heap_ds), NativeRecordBodies(native_ds));
}

TEST(SourceIngestTest, WorkerHeapsEmptyAndTrackerExactAfterSource) {
  for (int workers : kWorkerCounts) {
    NestedPointJob job(SparkWith(workers));
    DatasetPtr in = job.MakeInput(kIngestPoints);
    const int64_t engine_heap = job.engine.heap().used_bytes();
    // heap_used_bytes() adds the worker heaps' used bytes, none negative:
    // equality means every worker heap is empty.
    EXPECT_EQ(job.engine.heap_used_bytes(), engine_heap) << "workers=" << workers;
    EXPECT_EQ(job.engine.memory().live_bytes(), engine_heap + in->TotalBytes())
        << "workers=" << workers;
  }
}

TEST(SourceIngestTest, FewerRecordsThanPartitionsLeavesEmptySealedPartitions) {
  NestedPointJob job(SparkWith(2));
  DatasetPtr in = job.MakeInput(3);
  ASSERT_EQ(in->native_parts.size(), 4u);
  EXPECT_EQ(in->native_parts[2].record_count(), 1u);
  EXPECT_EQ(in->native_parts[3].record_count(), 0u);
  EXPECT_TRUE(in->native_parts[3].sealed());
}

}  // namespace
}  // namespace gerenuk
