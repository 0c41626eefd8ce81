// Integration tests for the mini-Hadoop engine: word-count style jobs with
// string keys and combiners must match across engine modes, spills must
// trigger, the Gerenuk mode must avoid shuffle-time serialization, a key's
// values reach the reducer in a fixed order, and damaged map-segment wire
// bytes fail closed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "src/ir/builder.h"
#include "src/mapreduce/hadoop.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "tests/pair_job.h"
#include "tests/source_ingest.h"

namespace gerenuk {
namespace {

// WordCount over Line{text:String} records producing WordCount{word, count}.
struct WordCountWorkload {
  HadoopEngine engine;
  const Klass* line;
  const Klass* word_count;
  const Klass* wc_array;
  SerProgram udfs;
  const Function* tokenize;   // flatMap: Line -> WordCount[] (count=1 each)
  const Function* word_key;   // key: WordCount -> String
  const Function* sum_counts; // reduce: (a, b) -> (a.word, a.count + b.count)

  explicit WordCountWorkload(EngineMode mode, HadoopConfig base = HadoopConfig{})
      : engine([&] {
          base.engine.execution.mode = mode;
          return base;
        }()) {
    KlassRegistry& reg = engine.heap().klasses();
    const Klass* string_k = engine.wk().string_klass();
    line = reg.Find("Line") != nullptr
               ? reg.Find("Line")
               : reg.DefineClass("Line", {{"text", FieldKind::kRef, string_k, 0}});
    word_count = reg.Find("WordCount") != nullptr
                     ? reg.Find("WordCount")
                     : reg.DefineClass("WordCount", {
                                                        {"word", FieldKind::kRef, string_k, 0},
                                                        {"count", FieldKind::kI64, nullptr, 0},
                                                    });
    engine.RegisterDataType(line);
    engine.RegisterDataType(word_count);
    wc_array = reg.Find("WordCount[]");
    const Klass* byte_array = engine.wk().byte_array();

    // tokenize(line): split the text on spaces into WordCount records.
    {
      Function* f = udfs.AddFunction("tokenize");
      FunctionBuilder b(f);
      int rec = b.Param("line", IrType::Ref(line));
      f->return_type = IrType::Ref(wc_array);
      int text = b.FieldLoad(rec, line, "text");
      int chars = b.FieldLoad(text, string_k, "value");
      int len = b.ArrayLength(chars);
      int space = b.ConstI(' ');

      // Pass 1: count words = spaces + 1 (inputs are single-space-separated,
      // non-empty by construction).
      int words = b.Local("words", IrType::I64());
      b.AssignTo(words, b.ConstI(1));
      b.For(len, [&](int i) {
        int c = b.ArrayLoad(chars, i, IrType::I64());
        int is_space = b.BinOp(BinOpKind::kEq, c, space);
        b.If(is_space, [&] { b.AssignTo(words, b.BinOp(BinOpKind::kAdd, words, b.ConstI(1))); });
      });

      int arr = b.NewArray(wc_array, words);
      int word_index = b.Local("word_index", IrType::I64());
      b.AssignTo(word_index, b.ConstI(0));
      int start = b.Local("start", IrType::I64());
      b.AssignTo(start, b.ConstI(0));
      int pos = b.Local("pos", IrType::I64());
      b.AssignTo(pos, b.ConstI(0));

      // Pass 2: emit a WordCount for every [start, pos) run.
      auto emit_word = [&]() {
        int word_len = b.BinOp(BinOpKind::kSub, pos, start);
        int word_chars = b.NewArray(byte_array, word_len);
        b.For(word_len, [&](int k) {
          int src = b.BinOp(BinOpKind::kAdd, start, k);
          int c = b.ArrayLoad(chars, src, IrType::I64());
          b.ArrayStore(word_chars, k, c);
        });
        int word = b.NewObject(string_k);
        b.FieldStore(word, string_k, "value", word_chars);
        int wc = b.NewObject(word_count);
        b.FieldStore(wc, word_count, "word", word);
        b.FieldStore(wc, word_count, "count", b.ConstI(1));
        b.ArrayStore(arr, word_index, wc);
        b.AssignTo(word_index, b.BinOp(BinOpKind::kAdd, word_index, b.ConstI(1)));
      };

      int loop = b.NewLabel();
      int done = b.NewLabel();
      b.PlaceLabel(loop);
      int at_end = b.BinOp(BinOpKind::kGe, pos, len);
      b.Branch(at_end, done);
      int c = b.ArrayLoad(chars, pos, IrType::I64());
      int is_space = b.BinOp(BinOpKind::kEq, c, space);
      b.If(is_space, [&] {
        emit_word();
        b.AssignTo(start, b.BinOp(BinOpKind::kAdd, pos, b.ConstI(1)));
      });
      b.AssignTo(pos, b.BinOp(BinOpKind::kAdd, pos, b.ConstI(1)));
      b.Jump(loop);
      b.PlaceLabel(done);
      emit_word();  // final word
      b.Return(arr);
      b.Done();
      tokenize = f;
    }
    {
      Function* f = udfs.AddFunction("word_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(word_count));
      f->return_type = IrType::Ref(string_k);
      b.Return(b.FieldLoad(rec, word_count, "word"));
      b.Done();
      word_key = f;
    }
    {
      Function* f = udfs.AddFunction("sum_counts");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(word_count));
      int c = b.Param("b", IrType::Ref(word_count));
      f->return_type = IrType::Ref(word_count);
      int out = b.NewObject(word_count);
      b.FieldStore(out, word_count, "word", b.FieldLoad(a, word_count, "word"));
      int sum = b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, word_count, "count"),
                        b.FieldLoad(c, word_count, "count"));
      b.FieldStore(out, word_count, "count", sum);
      b.Return(out);
      b.Done();
      sum_counts = f;
    }
  }

  DatasetPtr MakeInput(int64_t lines) {
    const char* vocab[] = {"big", "data", "gerenuk", "spark", "hadoop", "native", "bytes"};
    return engine.Source(line, lines, [&vocab](int64_t i, RecordWriter& out) {
      std::string text;
      for (int w = 0; w < 5; ++w) {
        if (w > 0) {
          text += ' ';
        }
        text += vocab[(i * 5 + w * 3 + i / 7) % 7];
      }
      out.Array(text);
    });
  }

  std::vector<std::pair<std::string, int64_t>> Extract(const DatasetPtr& ds) {
    RootScope scope(engine.heap());
    std::vector<std::pair<std::string, int64_t>> result;
    // CollectToHeap lives on SparkEngine; read records directly here.
    Heap& heap = engine.heap();
    if (engine.mode() == EngineMode::kBaseline) {
      for (const auto& part : ds->heap_parts) {
        for (ObjRef rec : part) {
          ObjRef word = heap.GetRef(rec, word_count->FindField("word")->offset);
          result.emplace_back(engine.wk().GetString(word),
                              heap.GetPrim<int64_t>(rec, word_count->FindField("count")->offset));
        }
      }
    } else {
      InlineSerializer serde(heap);
      for (const auto& part : ds->native_parts) {
        for (size_t r = 0; r < part.record_count(); ++r) {
          ByteReader reader(reinterpret_cast<const uint8_t*>(part.record_addr(r)),
                            part.record_size(r));
          size_t slot = scope.Push(serde.ReadBody(word_count, reader));
          ObjRef rec = scope.Get(slot);
          ObjRef word = heap.GetRef(rec, word_count->FindField("word")->offset);
          result.emplace_back(engine.wk().GetString(word),
                              heap.GetPrim<int64_t>(rec, word_count->FindField("count")->offset));
        }
      }
    }
    std::sort(result.begin(), result.end());
    return result;
  }
};

using Counts = std::vector<std::pair<std::string, int64_t>>;

TEST(HadoopEngineTest, WordCountMatchesAcrossModes) {
  Counts results[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    WordCountWorkload w(mode);
    DatasetPtr in = w.MakeInput(200);
    DatasetPtr out = w.engine.RunJob(in, w.udfs, w.tokenize, w.word_count,
                                     KeySpec{w.word_key, true}, w.sum_counts);
    results[static_cast<int>(mode)] = w.Extract(out);
    EXPECT_EQ(out->TotalRecords(), 7);  // 7 vocabulary words
  }
  EXPECT_EQ(results[0], results[1]);
  int64_t total = 0;
  for (const auto& [word, count] : results[0]) {
    total += count;
  }
  EXPECT_EQ(total, 200 * 5);  // every emitted word counted exactly once
}

TEST(HadoopEngineTest, CombinerPreservesResults) {
  Counts without_combiner;
  Counts with_combiner;
  {
    WordCountWorkload w(EngineMode::kGerenuk);
    DatasetPtr in = w.MakeInput(150);
    DatasetPtr out = w.engine.RunJob(in, w.udfs, w.tokenize, w.word_count,
                                     KeySpec{w.word_key, true}, w.sum_counts);
    without_combiner = w.Extract(out);
  }
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    WordCountWorkload w(mode);
    DatasetPtr in = w.MakeInput(150);
    w.engine.ResetMetrics();
    DatasetPtr out = w.engine.RunJob(in, w.udfs, w.tokenize, w.word_count,
                                     KeySpec{w.word_key, true}, w.sum_counts, w.sum_counts);
    EXPECT_GT(w.engine.stats().combine_calls, 0);
    with_combiner = w.Extract(out);
    EXPECT_EQ(with_combiner, without_combiner);
  }
}

// A spill combiner that aborts (it stores into its input on key 3) falls
// back to shipping the group uncombined. The map output has committed by
// then, so the failed optimization is a combine_abort instant — not a
// speculation abort the map stage's governor would count.
TEST(HadoopEngineTest, CombinerAbortDoesNotFeedTheGovernor) {
  struct Run {
    std::vector<uint8_t> bytes;
    EngineStats stats;
    int combine_aborts = 0;
  };
  auto run = [](HadoopConfig config) {
    // Threshold 0.5 over >= 2 tasks: the combiner aborts of the two map
    // tasks that see key 3 would flip the governor if they counted.
    config.engine.fault.governor_abort_threshold = 0.5;
    config.engine.fault.governor_min_tasks = 2;
    config.engine.observability.trace = !config.engine.execution.process_executors;
    HadoopJob job(config);
    const Function* poisoned = BuildPoisonedSum(&job);
    DatasetPtr in = job.MakeInput(1000);
    job.engine.ResetMetrics();
    DatasetPtr out = job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                       KeySpec{job.get_key, false}, job.sum_values, poisoned);
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
    Run r = run(HadoopWith(workers));
    // Key 3 reaches the odd map tasks (record i goes to task i % 4), and a
    // task stops combining after its first abort.
    EXPECT_EQ(r.combine_aborts, 2) << "workers=" << workers;
    EXPECT_EQ(r.stats.aborts, 0) << "workers=" << workers;
    EXPECT_EQ(r.stats.governor_flips, 0) << "workers=" << workers;
    EXPECT_GT(r.stats.combine_calls, 0) << "workers=" << workers;
    if (reference.empty()) {
      reference = r.bytes;
    }
    EXPECT_EQ(r.bytes, reference) << "workers=" << workers;
  }
  ASSERT_EQ(reference.size(), 20u * 16u);  // keys 0..9 and 1000..1009
  for (int workers : kWorkerCounts) {
    HadoopConfig config = HadoopWith(workers);
    config.engine.execution.process_executors = true;
    Run r = run(config);
    EXPECT_EQ(r.bytes, reference) << "executors=" << workers;
    EXPECT_EQ(r.stats.aborts, 0) << "executors=" << workers;
    EXPECT_EQ(r.stats.governor_flips, 0) << "executors=" << workers;
  }
}

TEST(HadoopEngineTest, SmallSortBufferForcesSpills) {
  HadoopConfig config;
  config.sort_buffer_bytes = 4 << 10;
  WordCountWorkload w(EngineMode::kGerenuk, config);
  DatasetPtr in = w.MakeInput(300);
  w.engine.ResetMetrics();
  w.engine.RunJob(in, w.udfs, w.tokenize, w.word_count, KeySpec{w.word_key, true}, w.sum_counts);
  EXPECT_GT(w.engine.stats().spills, w.engine.stats().map_tasks);
}

TEST(HadoopEngineTest, GerenukAvoidsShuffleSerde) {
  WordCountWorkload g(EngineMode::kGerenuk);
  DatasetPtr gin = g.MakeInput(100);
  g.engine.ResetMetrics();
  g.engine.RunJob(gin, g.udfs, g.tokenize, g.word_count, KeySpec{g.word_key, true},
                  g.sum_counts);
  EXPECT_EQ(g.engine.stats().times.Get(Phase::kSerialize), 0);
  EXPECT_EQ(g.engine.stats().times.Get(Phase::kDeserialize), 0);
  EXPECT_EQ(g.engine.stats().aborts, 0);
  EXPECT_GT(g.engine.stats().fast_path_commits, 0);

  WordCountWorkload b(EngineMode::kBaseline);
  DatasetPtr bin = b.MakeInput(100);
  b.engine.ResetMetrics();
  b.engine.RunJob(bin, b.udfs, b.tokenize, b.word_count, KeySpec{b.word_key, true},
                  b.sum_counts);
  EXPECT_GT(b.engine.stats().times.Get(Phase::kSerialize), 0);
  EXPECT_GT(b.engine.stats().times.Get(Phase::kDeserialize), 0);
}

TEST(HadoopEngineTest, CompilerStatsAccumulate) {
  WordCountWorkload w(EngineMode::kGerenuk);
  DatasetPtr in = w.MakeInput(50);
  w.engine.RunJob(in, w.udfs, w.tokenize, w.word_count, KeySpec{w.word_key, true}, w.sum_counts);
  EXPECT_GT(w.engine.stats().transform.statements_transformed, 20);
  EXPECT_GT(w.engine.stats().transform.functions_transformed, 2);
}

// ---------------------------------------------------------------------------
// Value order: a key's records reach the reducer in map task order, then
// spill order, then emit order.
// ---------------------------------------------------------------------------

// Tick{key:i64, v:i64} with an order-sensitive, non-commutative reduce
// acc*31 + v (wrapping): its result spells out the order in which the
// reducer saw a key's values.
struct TickJob {
  static constexpr int64_t kSecond = 1000000;  // offset of each input's second emit
  HadoopEngine engine;
  const Klass* tick;
  SerProgram udfs;
  const Function* twice;     // flatMap: t -> [(t.key, t.v), (t.key, t.v + kSecond)]
  const Function* tick_key;  // key: t.key
  const Function* fold31;    // reduce: (a, b) -> (a.key, a.v * 31 + b.v)

  explicit TickJob(const HadoopConfig& config) : engine(config) {
    KlassRegistry& reg = engine.heap().klasses();
    tick = reg.DefineClass("Tick", {
                                       {"key", FieldKind::kI64, nullptr, 0},
                                       {"v", FieldKind::kI64, nullptr, 0},
                                   });
    engine.RegisterDataType(tick);
    const Klass* tick_array = reg.Find("Tick[]");
    {
      Function* f = udfs.AddFunction("twice");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(tick));
      f->return_type = IrType::Ref(tick_array);
      int k = b.FieldLoad(rec, tick, "key");
      int v = b.FieldLoad(rec, tick, "v");
      int arr = b.NewArray(tick_array, b.ConstI(2));
      int first = b.NewObject(tick);
      b.FieldStore(first, tick, "key", k);
      b.FieldStore(first, tick, "v", v);
      b.ArrayStore(arr, b.ConstI(0), first);
      int second = b.NewObject(tick);
      b.FieldStore(second, tick, "key", k);
      b.FieldStore(second, tick, "v", b.BinOp(BinOpKind::kAdd, v, b.ConstI(kSecond)));
      b.ArrayStore(arr, b.ConstI(1), second);
      b.Return(arr);
      b.Done();
      twice = f;
    }
    {
      Function* f = udfs.AddFunction("tick_key");
      FunctionBuilder b(f);
      int rec = b.Param("rec", IrType::Ref(tick));
      f->return_type = IrType::I64();
      b.Return(b.FieldLoad(rec, tick, "key"));
      b.Done();
      tick_key = f;
    }
    {
      Function* f = udfs.AddFunction("fold31");
      FunctionBuilder b(f);
      int a = b.Param("a", IrType::Ref(tick));
      int c = b.Param("b", IrType::Ref(tick));
      f->return_type = IrType::Ref(tick);
      int out = b.NewObject(tick);
      b.FieldStore(out, tick, "key", b.FieldLoad(a, tick, "key"));
      int scaled = b.BinOp(BinOpKind::kMul, b.FieldLoad(a, tick, "v"), b.ConstI(31));
      b.FieldStore(out, tick, "v", b.BinOp(BinOpKind::kAdd, scaled, b.FieldLoad(c, tick, "v")));
      b.Return(out);
      b.Done();
      fold31 = f;
    }
  }

  static int64_t KeyOf(int64_t i) { return (i * 7) % 13; }

  // (key, v) per output record, in output order (partition, then record).
  std::vector<std::pair<int64_t, int64_t>> Run(int64_t inputs) {
    DatasetPtr in = engine.Source(tick, inputs, [](int64_t i, RecordWriter& w) {
      w.I64(KeyOf(i));
      w.I64(i + 1);
    });
    DatasetPtr out = engine.RunJob(in, udfs, twice, tick, KeySpec{tick_key, false}, fold31);
    std::vector<std::pair<int64_t, int64_t>> result;
    if (engine.mode() == EngineMode::kBaseline) {
      const int key_at = tick->FindField("key")->offset;
      const int v_at = tick->FindField("v")->offset;
      for (const auto& part : out->heap_parts) {
        for (ObjRef rec : part) {
          result.emplace_back(engine.heap().GetPrim<int64_t>(rec, key_at),
                              engine.heap().GetPrim<int64_t>(rec, v_at));
        }
      }
      return result;
    }
    std::vector<uint8_t> bytes = DatasetBytes(out);
    EXPECT_EQ(bytes.size(), static_cast<size_t>(out->TotalRecords()) * 16);
    for (size_t at = 0; at + 16 <= bytes.size(); at += 16) {
      int64_t kv[2];
      std::memcpy(kv, bytes.data() + at, sizeof(kv));
      result.emplace_back(kv[0], kv[1]);
    }
    return result;
  }
};

// The fold TickJob's reducer must compute, written out by hand: input i
// lands in map task i % tasks, each task reads its inputs in ascending i and
// emits (key, i + 1) then (key, i + 1 + kSecond).
std::map<int64_t, int64_t> ExpectedTickFolds(int64_t inputs, int tasks) {
  std::map<int64_t, int64_t> folds;
  for (int task = 0; task < tasks; ++task) {
    for (int64_t i = task; i < inputs; i += tasks) {
      for (int64_t v : {i + 1, i + 1 + TickJob::kSecond}) {
        auto [it, fresh] = folds.try_emplace(TickJob::KeyOf(i), v);
        if (!fresh) {
          it->second = static_cast<int64_t>(static_cast<uint64_t>(it->second) * 31 +
                                            static_cast<uint64_t>(v));
        }
      }
    }
  }
  return folds;
}

TEST(HadoopEngineTest, ReduceSeesValuesInMapTaskThenSpillThenEmitOrder) {
  constexpr int64_t kInputs = 3000;
  auto config_for = [](EngineMode mode, int workers, bool processes) {
    HadoopConfig config = HadoopWith(workers);
    config.engine.execution.mode = mode;
    config.engine.execution.process_executors = processes;
    config.sort_buffer_bytes = 4 << 10;  // several spills per map task
    return config;
  };
  TickJob baseline(config_for(EngineMode::kBaseline, 1, false));
  baseline.engine.ResetMetrics();
  const std::vector<std::pair<int64_t, int64_t>> reference = baseline.Run(kInputs);
  EXPECT_GT(baseline.engine.stats().spills, baseline.engine.stats().map_tasks);
  std::map<int64_t, int64_t> folds(reference.begin(), reference.end());
  ASSERT_EQ(folds.size(), reference.size()) << "one output record per key";
  EXPECT_EQ(folds, ExpectedTickFolds(kInputs, 4));

  // In-process engines first: process-mode engines must fork from a driver
  // with no worker threads alive.
  for (bool processes : {false, true}) {
    for (int workers : kWorkerCounts) {
      TickJob job(config_for(EngineMode::kGerenuk, workers, processes));
      job.engine.ResetMetrics();
      EXPECT_EQ(job.Run(kInputs), reference) << "workers=" << workers
                                             << " processes=" << processes;
      EXPECT_GT(job.engine.stats().spills, job.engine.stats().map_tasks);
    }
  }
}

// ---------------------------------------------------------------------------
// Map-segment wire codec: damaged lists fail closed.
// ---------------------------------------------------------------------------

// A seeded segment list over `partitions` reducers, with integer or string
// keys, empty partitions and runs of one to three records.
std::vector<MapSegment> RandomSegments(Rng& rng, int partitions, bool string_keys) {
  std::vector<MapSegment> segments;
  for (int s = 0; s < 3; ++s) {
    MapSegment& segment = segments.emplace_back(partitions, nullptr, EngineMode::kGerenuk);
    for (int r = 0; r < partitions; ++r) {
      int64_t key = static_cast<int64_t>(rng.NextBounded(50)) - 25;
      const int runs = static_cast<int>(rng.NextBounded(5));
      for (int k = 0; k < runs; ++k) {
        key += 1 + static_cast<int64_t>(rng.NextBounded(1000));
        ShuffleKey run_key;
        run_key.is_string = string_keys;
        if (string_keys) {
          run_key.s = 'w' + std::to_string(100000 + key);
        } else {
          run_key.i = key;
        }
        const uint32_t count = 1 + static_cast<uint32_t>(rng.NextBounded(3));
        for (uint32_t n = 0; n < count; ++n) {
          std::vector<uint8_t> body(1 + rng.NextBounded(24));
          for (uint8_t& byte : body) {
            byte = static_cast<uint8_t>(rng.NextU32());
          }
          segment.native[static_cast<size_t>(r)].AppendRecord(body.data(),
                                                              static_cast<uint32_t>(body.size()));
        }
        segment.runs[static_cast<size_t>(r)].push_back({run_key, count});
      }
    }
  }
  return segments;
}

bool SameSegments(const std::vector<MapSegment>& a, const std::vector<MapSegment>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t s = 0; s < a.size(); ++s) {
    for (size_t r = 0; r < a[s].runs.size(); ++r) {
      const std::vector<MapSegment::Run>& x = a[s].runs[r];
      const std::vector<MapSegment::Run>& y = b[s].runs[r];
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t k = 0; k < x.size(); ++k) {
        if (!(x[k].key == y[k].key) || x[k].count != y[k].count) {
          return false;
        }
      }
      ByteBuffer wa;
      ByteBuffer wb;
      a[s].native[r].SerializeTo(wa);
      b[s].native[r].SerializeTo(wb);
      if (wa.size() != wb.size() || std::memcmp(wa.data(), wb.data(), wa.size()) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(MapSegmentCodecTest, TruncatedOrMutatedListsDecodeIdenticallyOrFailClosed) {
  constexpr int kPartitions = 3;
  constexpr int kTask = 5;
  Rng rng(20261017);
  for (bool string_keys : {false, true}) {
    const std::vector<MapSegment> segments = RandomSegments(rng, kPartitions, string_keys);
    ByteBuffer wire;
    EncodeMapSegments(segments, &wire);
    const std::vector<uint8_t> bytes(wire.data(), wire.data() + wire.size());
    // Outcome counts: decoded identically, failed a structural guard, failed
    // the trailing checksum.
    int identical = 0;
    int structural = 0;
    int checksum = 0;
    auto decode = [&](const std::vector<uint8_t>& frame, const std::string& what) {
      ByteReader in(frame.data(), frame.size());
      try {
        std::vector<MapSegment> decoded = DecodeMapSegments(&in, kPartitions, kTask, nullptr);
        EXPECT_TRUE(SameSegments(decoded, segments)) << what;
        identical += 1;
      } catch (const TaskError& e) {
        EXPECT_EQ(e.kind(), TaskErrorKind::kCorruptInput) << what;
        EXPECT_EQ(e.task_ordinal(), kTask) << what;
        (e.detail().find("checksum") != std::string::npos ? checksum : structural) += 1;
      }
    };
    decode(bytes, "intact");
    ASSERT_EQ(identical, 1);
    for (size_t len = 0; len < bytes.size(); ++len) {
      decode(std::vector<uint8_t>(bytes.begin(), bytes.begin() + static_cast<long>(len)),
             "truncated to " + std::to_string(len));
    }
    for (int m = 0; m < 300; ++m) {
      std::vector<uint8_t> damaged = bytes;
      const size_t at = rng.NextBounded(damaged.size());
      damaged[at] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      decode(damaged, "byte " + std::to_string(at) + " mutated");
    }
    // Every damaged list failed, and both the guards and the checksum fired.
    EXPECT_EQ(identical, 1) << "string_keys=" << string_keys;
    EXPECT_GT(structural, 0) << "string_keys=" << string_keys;
    EXPECT_GT(checksum, 0) << "string_keys=" << string_keys;
  }
}

// ---------------------------------------------------------------------------
// Source ingest: in kGerenuk every partition is built by a worker-pool task.
// ---------------------------------------------------------------------------

// Post{user, topic, score, text: String}: the Hadoop post record shape. Post
// i has user i / 3 and a text of 5 + i % 37 characters.
struct PostSourceJob {
  HadoopEngine engine;
  const Klass* post;

  explicit PostSourceJob(const HadoopConfig& config) : engine(config) {
    post = engine.heap().klasses().DefineClass(
        "Post", {
                    {"user", FieldKind::kI64, nullptr, 0},
                    {"topic", FieldKind::kI32, nullptr, 0},
                    {"score", FieldKind::kI32, nullptr, 0},
                    {"text", FieldKind::kRef, engine.wk().string_klass(), 0},
                });
    engine.RegisterDataType(post);
  }

  DatasetPtr MakeInput(int64_t count) {
    return engine.Source(post, count, [](int64_t i, RecordWriter& w) {
      const std::string text =
          "post " + std::to_string(i) + std::string(static_cast<size_t>(i % 37), 'x');
      w.I64(i / 3);
      w.I32(static_cast<int32_t>(i % 5));
      w.I32(static_cast<int32_t>(i % 11) - 2);
      w.Array(text);
    });
  }
};

constexpr int64_t kIngestPosts = 5003;

TEST(SourceIngestTest, StringPartitionsIdenticalAtAnyWorkerCount) {
  PartitionPrint reference;
  {
    PostSourceJob job(HadoopWith(1));
    reference = PrintPartitions(job.MakeInput(kIngestPosts));
  }
  // In-process engines first: process-mode engines must fork from a driver
  // with no worker threads alive.
  for (bool processes : {false, true}) {
    for (int workers : kWorkerCounts) {
      HadoopConfig config = HadoopWith(workers);
      config.engine.execution.process_executors = processes;
      PostSourceJob job(config);
      EXPECT_EQ(PrintPartitions(job.MakeInput(kIngestPosts)), reference)
          << "workers=" << workers << " processes=" << processes;
    }
  }
}

TEST(SourceIngestTest, BaselineHeapPartitionsHoldTheSameStringRecords) {
  HadoopConfig config = HadoopWith(1);
  config.engine.execution.mode = EngineMode::kBaseline;
  PostSourceJob baseline(config);
  DatasetPtr heap_ds = baseline.MakeInput(kIngestPosts);
  PostSourceJob gerenuk(HadoopWith(2));
  DatasetPtr native_ds = gerenuk.MakeInput(kIngestPosts);
  EXPECT_EQ(heap_ds->TotalRecords(), kIngestPosts);
  EXPECT_EQ(BaselineRecordBodies(baseline.engine.heap(), heap_ds),
            NativeRecordBodies(native_ds));
}

}  // namespace
}  // namespace gerenuk
