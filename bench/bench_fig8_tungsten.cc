// Figure 8: comparison with Spark Tungsten/DataFrame (§4.3), with both
// systems on the same execution substrate (the engine's transformed native
// path), differing only in what Tungsten actually differs in:
//
//   (a) PageRank — DataFrames cannot cache iterative state the way RDDs do,
//       so the query plan grows with every iteration (SPARK-13346): iteration i
//       re-executes the whole lineage. We drive the engine exactly that way.
//       The paper's DataFrame PageRank never converged; with iterations
//       fixed at 10, Gerenuk was ~2.2x faster.
//   (b) WordCount — Tungsten's UTF8String keeps a cached hash in the row, so
//       shuffling hashes an i64 instead of re-reading word bytes on every
//       key extraction. Expressed in the IR as a tokenize that emits
//       (word, hash, count) and shuffles on the hash. The paper: Tungsten
//       ~20% faster than Gerenuk on WordCount, strings being the reason.
#include "bench/bench_common.h"
#include "src/ir/builder.h"
#include "src/workloads/spark_workloads.h"

namespace gerenuk {
namespace {

PhaseTimes RunPr(EngineMode mode, const SyntheticGraph& graph, int iterations, bool plan_growth,
                 double* checksum) {
  EngineConfig config;
  config.execution.mode = mode;
  config.execution.heap_bytes = 48u << 20;
  config.execution.num_partitions = 4;
  SparkEngine engine(config);
  SparkWorkloads workloads(engine);
  PhaseTimes total;
  if (!plan_growth) {
    *checksum = workloads.RunPageRank(graph, iterations).checksum;
    return engine.stats().times;
  }
  // DataFrame semantics: "iteration i" re-derives the plan and re-executes
  // the lineage from the source — i prior steps replayed, then the new one.
  for (int i = 1; i <= iterations; ++i) {
    WorkloadResult result = workloads.RunPageRank(graph, i);
    total += engine.stats().times;
    *checksum = result.checksum;
  }
  return total;
}

// WordCount with Tungsten's cached string hash, on the same engine.
WorkloadResult RunTungstenWordCount(SparkEngine& engine, const std::vector<std::string>& lines,
                                    PhaseTimes* times) {
  KlassRegistry& reg = engine.heap().klasses();
  const Klass* string_k = engine.wk().string_klass();
  const Klass* byte_array = engine.wk().byte_array();
  const Klass* line = reg.Find("Line");
  const Klass* hashed = reg.DefineClass("HashedWordCount",
                                        {
                                            {"word", FieldKind::kRef, string_k, 0},
                                            {"hash", FieldKind::kI64, nullptr, 0},
                                            {"count", FieldKind::kI64, nullptr, 0},
                                        });
  engine.RegisterDataType(hashed);
  const Klass* hashed_array = reg.Find("HashedWordCount[]");

  SerProgram udfs;
  const Function* tokenize;
  {
    // Same split loop as the general WordCount, but the hash is computed
    // once here and carried in the record (UTF8String's cached hash).
    Function* f = udfs.AddFunction("t_tokenize");
    FunctionBuilder b(f);
    int rec = b.Param("line", IrType::Ref(line));
    f->return_type = IrType::Ref(hashed_array);
    int text = b.FieldLoad(rec, line, "text");
    int chars = b.FieldLoad(text, string_k, "value");
    int len = b.ArrayLength(chars);
    int space = b.ConstI(' ');
    int words = b.Local("words", IrType::I64());
    b.AssignTo(words, b.ConstI(1));
    b.For(len, [&](int i) {
      int c = b.ArrayLoad(chars, i, IrType::I64());
      b.If(b.BinOp(BinOpKind::kEq, c, space), [&] {
        b.AssignTo(words, b.BinOp(BinOpKind::kAdd, words, b.ConstI(1)));
      });
    });
    int arr = b.NewArray(hashed_array, words);
    int word_index = b.Local("word_index", IrType::I64());
    int start = b.Local("start", IrType::I64());
    int pos = b.Local("pos", IrType::I64());
    b.AssignTo(word_index, b.ConstI(0));
    b.AssignTo(start, b.ConstI(0));
    b.AssignTo(pos, b.ConstI(0));
    auto emit_word = [&]() {
      int word_len = b.BinOp(BinOpKind::kSub, pos, start);
      int word_chars = b.NewArray(byte_array, word_len);
      b.For(word_len, [&](int k) {
        int src = b.BinOp(BinOpKind::kAdd, start, k);
        b.ArrayStore(word_chars, k, b.ArrayLoad(chars, src, IrType::I64()));
      });
      int word = b.NewObject(string_k);
      b.FieldStore(word, string_k, "value", word_chars);
      int wc = b.NewObject(hashed);
      b.FieldStore(wc, hashed, "word", word);
      b.FieldStore(wc, hashed, "hash", b.CallNative("stringHash", {word}, IrType::I64()));
      b.FieldStore(wc, hashed, "count", b.ConstI(1));
      b.ArrayStore(arr, word_index, wc);
      b.AssignTo(word_index, b.BinOp(BinOpKind::kAdd, word_index, b.ConstI(1)));
    };
    int loop = b.NewLabel();
    int done = b.NewLabel();
    b.PlaceLabel(loop);
    b.Branch(b.BinOp(BinOpKind::kGe, pos, len), done);
    int c = b.ArrayLoad(chars, pos, IrType::I64());
    b.If(b.BinOp(BinOpKind::kEq, c, space), [&] {
      emit_word();
      b.AssignTo(start, b.BinOp(BinOpKind::kAdd, pos, b.ConstI(1)));
    });
    b.AssignTo(pos, b.BinOp(BinOpKind::kAdd, pos, b.ConstI(1)));
    b.Jump(loop);
    b.PlaceLabel(done);
    emit_word();
    b.Return(arr);
    b.Done();
    tokenize = f;
  }
  const Function* hash_key;
  {
    Function* f = udfs.AddFunction("t_key");
    FunctionBuilder b(f);
    int rec = b.Param("wc", IrType::Ref(hashed));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, hashed, "hash"));  // the cached hash, no bytes
    b.Done();
    hash_key = f;
  }
  const Function* sum;
  {
    Function* f = udfs.AddFunction("t_sum");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(hashed));
    int c = b.Param("b", IrType::Ref(hashed));
    f->return_type = IrType::Ref(hashed);
    int out = b.NewObject(hashed);
    b.FieldStore(out, hashed, "word", b.FieldLoad(a, hashed, "word"));
    b.FieldStore(out, hashed, "hash", b.FieldLoad(a, hashed, "hash"));
    b.FieldStore(out, hashed, "count",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, hashed, "count"),
                         b.FieldLoad(c, hashed, "count")));
    b.Return(out);
    b.Done();
    sum = f;
  }

  Heap& heap = engine.heap();
  DatasetPtr input = engine.Source(
      line, static_cast<int64_t>(lines.size()),
      [&](int64_t i, RecordWriter& w) { w.Array(lines[static_cast<size_t>(i)]); });
  engine.ResetMetrics();
  DatasetPtr counts = engine.ReduceByKey(input, udfs, {NarrowOp::FlatMap(tokenize, hashed)},
                                         KeySpec{hash_key, false}, sum);
  *times = engine.stats().times;
  WorkloadResult result;
  result.name = "WC-Tungsten";
  RootScope scope(heap);
  for (size_t slot : engine.CollectToHeap(counts, scope)) {
    result.checksum += static_cast<double>(
        heap.GetPrim<int64_t>(scope.Get(slot), hashed->FindField("count")->offset));
    result.records += 1;
  }
  return result;
}

void Run() {
  bench::PrintHeader("Figure 8(a): PageRank — baseline vs Tungsten vs Gerenuk (10 iters)");
  SyntheticGraph graph = MakePowerLawGraph(2000, 10000, 99);
  double base_sum;
  double ger_sum;
  double tung_sum;
  PhaseTimes base_times = RunPr(EngineMode::kBaseline, graph, 10, false, &base_sum);
  PhaseTimes ger_times = RunPr(EngineMode::kGerenuk, graph, 10, false, &ger_sum);
  // Tungsten: same native-path execution, but the DataFrame plan growth
  // replays the lineage every iteration.
  PhaseTimes tung_times = RunPr(EngineMode::kGerenuk, graph, 10, true, &tung_sum);
  bench::PrintPhaseRow("PR baseline (RDD)", base_times);
  bench::PrintPhaseRow("PR Tungsten (DataFrame)", tung_times);
  bench::PrintPhaseRow("PR Gerenuk", ger_times);
  bench::PrintSpeedup("Gerenuk vs Tungsten", tung_times.TotalMillis(), ger_times.TotalMillis());
  std::printf("(paper: Gerenuk ~2.2x faster than Tungsten on PR; plan growth is the cause)\n");
  GERENUK_CHECK(std::abs(base_sum - ger_sum) < 1e-6 * base_sum);
  GERENUK_CHECK(std::abs(base_sum - tung_sum) < 1e-6 * base_sum);

  bench::PrintHeader("Figure 8(b): WordCount — baseline vs Tungsten vs Gerenuk");
  std::vector<std::string> lines = MakeTextLines(4000, 10, 800, 101);
  PhaseTimes wc_base;
  PhaseTimes wc_ger;
  PhaseTimes wc_tung;
  double counts[3];
  {
    EngineConfig config;
    config.execution.mode = EngineMode::kBaseline;
    config.execution.heap_bytes = 48u << 20;
    SparkEngine engine(config);
    SparkWorkloads workloads(engine);
    counts[0] = workloads.RunWordCount(lines).checksum;
    wc_base = engine.stats().times;
  }
  {
    EngineConfig config;
    config.execution.mode = EngineMode::kGerenuk;
    config.execution.heap_bytes = 48u << 20;
    SparkEngine engine(config);
    SparkWorkloads workloads(engine);
    counts[1] = workloads.RunWordCount(lines).checksum;
    wc_ger = engine.stats().times;
  }
  {
    EngineConfig config;
    config.execution.mode = EngineMode::kGerenuk;
    config.execution.heap_bytes = 48u << 20;
    SparkEngine engine(config);
    SparkWorkloads workloads(engine);  // defines Line
    counts[2] = RunTungstenWordCount(engine, lines, &wc_tung).checksum;
  }
  bench::PrintPhaseRow("WC baseline (RDD)", wc_base);
  bench::PrintPhaseRow("WC Tungsten (DataFrame)", wc_tung);
  bench::PrintPhaseRow("WC Gerenuk", wc_ger);
  std::printf("Tungsten vs Gerenuk on WC: %.2fx in Tungsten's favor "
              "(paper: ~1.2x — cached string hashes)\n",
              wc_ger.TotalMillis() / wc_tung.TotalMillis());
  GERENUK_CHECK_EQ(counts[0], counts[1]);
  GERENUK_CHECK_EQ(counts[0], counts[2]);
}

}  // namespace
}  // namespace gerenuk

int main() {
  gerenuk::Run();
  return 0;
}
