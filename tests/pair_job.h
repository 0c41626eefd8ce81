// Shared engine-level test fixture: the Pair{key:i64, value:f64} workload,
// usable with either engine, plus the worker counts and byte-dump helper the
// determinism tests sweep over. Used by scheduler_test.cc (scheduler
// determinism) and fault_tolerance_test.cc (fault recovery determinism).
#ifndef TESTS_PAIR_JOB_H_
#define TESTS_PAIR_JOB_H_

#include <cstdint>
#include <vector>

#include "src/dataflow/spark.h"
#include "src/ir/builder.h"
#include "src/mapreduce/hadoop.h"
#include "src/serde/inline_serializer.h"

namespace gerenuk {

constexpr int kWorkerCounts[] = {1, 2, 8};

// The Pair workload's klasses + SER programs, separable from engine
// ownership so a service-mode EngineSetup can build them on pooled engines
// it does not own (see tests/service_test.cc).
struct PairUdfs {
  const Klass* pair = nullptr;
  const Klass* pair_array = nullptr;
  SerProgram udfs;
  const Function* double_value = nullptr;  // map: value *= 2
  const Function* explode = nullptr;       // flatMap: -> [ (key, v), (key+1000, v) ]
  const Function* get_key = nullptr;       // key extractor
  const Function* sum_values = nullptr;    // reduce: (a, b) -> (a.key, a.v + b.v)
};

// Defines the Pair klass on `engine` and builds the four UDFs into `out`.
// Call at most once per engine (klass names are unique per registry).
template <typename Engine>
inline void BuildPairUdfs(Engine& engine, PairUdfs* out) {
  KlassRegistry& reg = engine.heap().klasses();
  const Klass* pair = reg.DefineClass("Pair", {
                                                  {"key", FieldKind::kI64, nullptr, 0},
                                                  {"value", FieldKind::kF64, nullptr, 0},
                                              });
  engine.RegisterDataType(pair);
  out->pair = pair;
  out->pair_array = reg.Find("Pair[]");
  const Klass* pair_array = out->pair_array;
  SerProgram& udfs = out->udfs;
  {
      Function* f = udfs.AddFunction("double_value");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int k = b.FieldLoad(rec, pair, "key");
      int v = b.FieldLoad(rec, pair, "value");
      int result = b.NewObject(pair);
      b.FieldStore(result, pair, "key", k);
      int two = b.ConstF(2.0);
      b.FieldStore(result, pair, "value", b.BinOp(BinOpKind::kMul, v, two));
      b.Return(result);
      b.Done();
      out->double_value = f;
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
      out->explode = f;
    }
    {
      Function* f = udfs.AddFunction("get_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(pair));
      f->return_type = IrType::I64();
      b.Return(b.FieldLoad(rec, pair, "key"));
      b.Done();
      out->get_key = f;
    }
    {
      Function* f = udfs.AddFunction("sum_values");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(pair));
      int c = b.Param("b", IrType::Ref(pair));
      f->return_type = IrType::Ref(pair);
      int result = b.NewObject(pair);
      b.FieldStore(result, pair, "key", b.FieldLoad(a, pair, "key"));
      int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"),
                        b.FieldLoad(c, pair, "value"));
      b.FieldStore(result, pair, "value", sum);
      b.Return(result);
      b.Done();
      out->sum_values = f;
    }
}

// Adds "poisoned_sum" to `udfs`: sum_values, except that folding key 3
// first stores the sum into its left input — the in-place mutation of an
// input record that the transformer fences with an abort. Its fast path
// aborts on key 3; the slow path computes the same sum.
inline const Function* BuildPoisonedSum(PairUdfs* udfs) {
  const Klass* pair = udfs->pair;
  Function* f = udfs->udfs.AddFunction("poisoned_sum");
  FunctionBuilder b(f);
  int a = b.Param("a", IrType::Ref(pair));
  int c = b.Param("b", IrType::Ref(pair));
  f->return_type = IrType::Ref(pair);
  int key = b.FieldLoad(a, pair, "key");
  int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, pair, "value"), b.FieldLoad(c, pair, "value"));
  b.If(b.BinOp(BinOpKind::kEq, key, b.ConstI(3)), [&] { b.FieldStore(a, pair, "value", sum); });
  int out = b.NewObject(pair);
  b.FieldStore(out, pair, "key", key);
  b.FieldStore(out, pair, "value", sum);
  b.Return(out);
  b.Done();
  return f;
}

// Deterministic Pair input: key = i % 10, value = (i % 7) - 3.0.
template <typename Engine>
inline DatasetPtr MakePairInput(Engine& engine, const PairUdfs& udfs, int64_t count) {
  const Klass* k = udfs.pair;
  return engine.Source(k, count, [](int64_t i, RecordWriter& w) {
    w.I64(i % 10);
    w.F64((i % 7) - 3.0);
  });
}

// The shared Pair{key:i64, value:f64} workload, usable with either engine.
template <typename Engine, typename Config>
struct PairJob : PairUdfs {
  Engine engine;

  explicit PairJob(const Config& config) : engine(config) { BuildPairUdfs(engine, this); }

  DatasetPtr MakeInput(int64_t count) { return MakePairInput(engine, *this, count); }
};

using SparkJob = PairJob<SparkEngine, EngineConfig>;
using HadoopJob = PairJob<HadoopEngine, HadoopConfig>;

inline EngineConfig SparkWith(int workers) {
  EngineConfig config;
  config.execution.mode = EngineMode::kGerenuk;
  config.execution.heap_bytes = 24u << 20;
  config.execution.num_partitions = 4;
  config.execution.num_workers = workers;
  return config;
}

inline HadoopConfig HadoopWith(int workers) {
  HadoopConfig config;
  config.engine.execution.mode = EngineMode::kGerenuk;
  config.engine.execution.heap_bytes = 24u << 20;
  config.engine.execution.num_partitions = 4;
  config.engine.execution.num_workers = workers;
  config.num_reducers = 3;
  config.sort_buffer_bytes = 1u << 14;  // force several spills per map task
  return config;
}

// Concatenated record bytes of a Gerenuk dataset, partition by partition.
inline std::vector<uint8_t> DatasetBytes(const DatasetPtr& ds) {
  std::vector<uint8_t> bytes;
  for (const NativePartition& part : ds->native_parts) {
    for (size_t r = 0; r < part.record_count(); ++r) {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(part.record_addr(r));
      bytes.insert(bytes.end(), p, p + part.record_size(r));
    }
  }
  return bytes;
}

// A Spark dataset's records as native record bodies in either mode: the
// dataset's bytes in Gerenuk mode, the baseline's heap records rendered to
// the native format.
inline std::vector<uint8_t> OutputBytes(SparkEngine& engine, const DatasetPtr& out) {
  if (engine.mode() == EngineMode::kGerenuk) {
    return DatasetBytes(out);
  }
  std::vector<uint8_t> bytes;
  InlineSerializer serde(engine.heap());
  for (const std::vector<ObjRef>& part : out->heap_parts) {
    for (ObjRef ref : part) {
      ByteBuffer record;
      serde.WriteRecord(ref, out->klass, record);
      bytes.insert(bytes.end(), record.data() + 4, record.data() + record.size());
    }
  }
  return bytes;
}

}  // namespace gerenuk

#endif  // TESTS_PAIR_JOB_H_
