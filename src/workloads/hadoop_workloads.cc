#include "src/workloads/hadoop_workloads.h"

#include "src/ir/builder.h"

namespace gerenuk {

HadoopWorkloads::HadoopWorkloads(HadoopEngine& engine) : engine_(engine) {
  KlassRegistry& reg = engine_.heap().klasses();
  const Klass* string_k = engine_.wk().string_klass();
  const Klass* byte_array = engine_.wk().byte_array();

  post = reg.DefineClass("Post", {
                                     {"user", FieldKind::kI64, nullptr, 0},
                                     {"topic", FieldKind::kI32, nullptr, 0},
                                     {"score", FieldKind::kI32, nullptr, 0},
                                     {"text", FieldKind::kRef, string_k, 0},
                                 });
  doc = reg.DefineClass("Doc", {{"text", FieldKind::kRef, string_k, 0}});
  user_count = reg.DefineClass("UserCount", {
                                                {"user", FieldKind::kI64, nullptr, 0},
                                                {"count", FieldKind::kI64, nullptr, 0},
                                            });
  topic_score = reg.DefineClass("TopicScore", {
                                                  {"topic", FieldKind::kI64, nullptr, 0},
                                                  {"score", FieldKind::kI64, nullptr, 0},
                                              });
  word_count = reg.DefineClass("HWordCount", {
                                                 {"word", FieldKind::kRef, string_k, 0},
                                                 {"count", FieldKind::kI64, nullptr, 0},
                                             });
  for (const Klass* top : {post, doc, user_count, topic_score, word_count}) {
    engine_.RegisterDataType(top);
  }
  const Klass* uc_array = reg.Find("UserCount[]");
  const Klass* ts_array = reg.Find("TopicScore[]");
  const Klass* wc_array = reg.Find("HWordCount[]");

  // Emits a single UserCount{key, 1}; shared shape for IUF/SPF/UED maps.
  auto build_single_emit = [&](const char* name,
                               const std::function<void(FunctionBuilder&, int, int&, int&)>&
                                   compute) -> const Function* {
    Function* f = udfs_.AddFunction(name);
    FunctionBuilder b(f);
    int rec = b.Param("post", IrType::Ref(post));
    f->return_type = IrType::Ref(uc_array);
    int key = -1;
    int emit_count = -1;
    compute(b, rec, key, emit_count);
    int arr = b.NewArray(uc_array, emit_count);
    int one_emitted = b.BinOp(BinOpKind::kGt, emit_count, b.ConstI(0));
    b.If(one_emitted, [&] {
      int uc = b.NewObject(user_count);
      b.FieldStore(uc, user_count, "user", key);
      b.FieldStore(uc, user_count, "count", b.ConstI(1));
      b.ArrayStore(arr, b.ConstI(0), uc);
    });
    b.Return(arr);
    b.Done();
    return f;
  };

  // IUF: every post counts toward its author's activity.
  iuf_map_ = build_single_emit("iuf_map", [&](FunctionBuilder& b, int rec, int& key, int& n) {
    key = b.FieldLoad(rec, post, "user");
    n = b.ConstI(1);
  });
  // SPF: emit only suspicious posts (negative score, short body).
  spf_map_ = build_single_emit("spf_map", [&](FunctionBuilder& b, int rec, int& key, int& n) {
    key = b.FieldLoad(rec, post, "user");
    int score = b.FieldLoad(rec, post, "score");
    int text = b.FieldLoad(rec, post, "text");
    int len = b.CallNative("stringLength", {text}, IrType::I64());
    int bad_score = b.BinOp(BinOpKind::kLt, score, b.ConstI(0));
    int shortish = b.BinOp(BinOpKind::kLt, len, b.ConstI(40));
    n = b.BinOp(BinOpKind::kAnd, bad_score, shortish);
  });
  // UED: bucket posts by engagement (score / 10).
  ued_map_ = build_single_emit("ued_map", [&](FunctionBuilder& b, int rec, int& key, int& n) {
    int score = b.FieldLoad(rec, post, "score");
    int shifted = b.BinOp(BinOpKind::kAdd, score, b.ConstI(10));  // scores start at -10
    key = b.BinOp(BinOpKind::kDiv, shifted, b.ConstI(10));
    n = b.ConstI(1);
  });
  {
    Function* f = udfs_.AddFunction("uc_key");
    FunctionBuilder b(f);
    int rec = b.Param("uc", IrType::Ref(user_count));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, user_count, "user"));
    b.Done();
    uc_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("uc_sum");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(user_count));
    int c = b.Param("b", IrType::Ref(user_count));
    f->return_type = IrType::Ref(user_count);
    int out = b.NewObject(user_count);
    b.FieldStore(out, user_count, "user", b.FieldLoad(a, user_count, "user"));
    b.FieldStore(out, user_count, "count",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, user_count, "count"),
                         b.FieldLoad(c, user_count, "count")));
    b.Return(out);
    b.Done();
    uc_sum_ = f;
  }

  // CED: per topic, track the best score seen.
  {
    Function* f = udfs_.AddFunction("ced_map");
    FunctionBuilder b(f);
    int rec = b.Param("post", IrType::Ref(post));
    f->return_type = IrType::Ref(ts_array);
    int arr = b.NewArray(ts_array, b.ConstI(1));
    int ts = b.NewObject(topic_score);
    b.FieldStore(ts, topic_score, "topic", b.FieldLoad(rec, post, "topic"));
    b.FieldStore(ts, topic_score, "score", b.FieldLoad(rec, post, "score"));
    b.ArrayStore(arr, b.ConstI(0), ts);
    b.Return(arr);
    b.Done();
    ced_map_ = f;
  }
  {
    Function* f = udfs_.AddFunction("ts_key");
    FunctionBuilder b(f);
    int rec = b.Param("ts", IrType::Ref(topic_score));
    f->return_type = IrType::I64();
    b.Return(b.FieldLoad(rec, topic_score, "topic"));
    b.Done();
    ts_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("ts_max");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(topic_score));
    int c = b.Param("b", IrType::Ref(topic_score));
    f->return_type = IrType::Ref(topic_score);
    int out = b.NewObject(topic_score);
    b.FieldStore(out, topic_score, "topic", b.FieldLoad(a, topic_score, "topic"));
    b.FieldStore(out, topic_score, "score",
                 b.BinOp(BinOpKind::kMax, b.FieldLoad(a, topic_score, "score"),
                         b.FieldLoad(c, topic_score, "score")));
    b.Return(out);
    b.Done();
    ts_max_ = f;
  }

  // Tokenizer for IMC/TFC over Doc records.
  {
    Function* f = udfs_.AddFunction("h_tokenize");
    FunctionBuilder b(f);
    int rec = b.Param("doc", IrType::Ref(doc));
    f->return_type = IrType::Ref(wc_array);
    int text = b.FieldLoad(rec, doc, "text");
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
    int arr = b.NewArray(wc_array, words);
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
      int wc = b.NewObject(word_count);
      b.FieldStore(wc, word_count, "word", word);
      b.FieldStore(wc, word_count, "count", b.ConstI(1));
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
    tokenize_ = f;
  }
  {
    Function* f = udfs_.AddFunction("h_wc_key");
    FunctionBuilder b(f);
    int rec = b.Param("wc", IrType::Ref(word_count));
    f->return_type = IrType::Ref(string_k);
    b.Return(b.FieldLoad(rec, word_count, "word"));
    b.Done();
    wc_key_ = f;
  }
  {
    Function* f = udfs_.AddFunction("h_wc_sum");
    FunctionBuilder b(f);
    int a = b.Param("a", IrType::Ref(word_count));
    int c = b.Param("b", IrType::Ref(word_count));
    f->return_type = IrType::Ref(word_count);
    int out = b.NewObject(word_count);
    b.FieldStore(out, word_count, "word", b.FieldLoad(a, word_count, "word"));
    b.FieldStore(out, word_count, "count",
                 b.BinOp(BinOpKind::kAdd, b.FieldLoad(a, word_count, "count"),
                         b.FieldLoad(c, word_count, "count")));
    b.Return(out);
    b.Done();
    wc_sum_ = f;
  }
}

DatasetPtr HadoopWorkloads::MakePostInput(const std::vector<SyntheticPost>& posts) {
  return engine_.Source(
      post, static_cast<int64_t>(posts.size()), [&](int64_t i, RecordWriter& w) {
        const SyntheticPost& p = posts[static_cast<size_t>(i)];
        w.I64(p.user_id);
        w.I32(p.topic);
        w.I32(p.score);
        w.Array(p.text);
      });
}

DatasetPtr HadoopWorkloads::MakeTextInput(const std::vector<std::string>& lines) {
  return engine_.Source(
      doc, static_cast<int64_t>(lines.size()),
      [&](int64_t i, RecordWriter& w) { w.Array(lines[static_cast<size_t>(i)]); });
}

namespace {

WorkloadResult SumI64Outputs(HadoopEngine& engine, const DatasetPtr& out, const Klass* klass,
                             const char* field, const std::string& name) {
  WorkloadResult result;
  result.name = name;
  Heap& heap = engine.heap();
  InlineSerializer serde(heap);
  RootScope scope(heap);
  int offset = klass->FindField(field)->offset;
  for (const auto& part : out->heap_parts) {
    for (ObjRef rec : part) {
      result.checksum += static_cast<double>(heap.GetPrim<int64_t>(rec, offset));
      result.records += 1;
    }
  }
  for (const auto& part : out->native_parts) {
    for (size_t r = 0; r < part.record_count(); ++r) {
      ByteReader reader(reinterpret_cast<const uint8_t*>(part.record_addr(r)),
                        part.record_size(r));
      size_t slot = scope.Push(serde.ReadBody(klass, reader));
      result.checksum += static_cast<double>(heap.GetPrim<int64_t>(scope.Get(slot), offset));
      result.records += 1;
    }
  }
  return result;
}

}  // namespace

WorkloadResult HadoopWorkloads::RunCountJob(const std::string& name, const DatasetPtr& input,
                                            const Function* map_fn, bool with_combiner) {
  engine_.ResetMetrics();
  DatasetPtr out = engine_.RunJob(input, udfs_, map_fn, user_count, KeySpec{uc_key_, false},
                                  uc_sum_, with_combiner ? uc_sum_ : nullptr);
  return SumI64Outputs(engine_, out, user_count, "count", name);
}

WorkloadResult HadoopWorkloads::RunIuf(const DatasetPtr& posts) {
  return RunCountJob("IUF", posts, iuf_map_, false);
}

WorkloadResult HadoopWorkloads::RunUah(const DatasetPtr& posts) {
  // Job 1: per-user activity; Job 2: histogram over the counts.
  engine_.ResetMetrics();
  DatasetPtr per_user = engine_.RunJob(posts, udfs_, iuf_map_, user_count,
                                       KeySpec{uc_key_, false}, uc_sum_);
  // Second job reuses ued-style bucketing but over UserCount records; build
  // the bucket map lazily once.
  static constexpr char kName[] = "uah_bucket_map";
  const Function* bucket_map = udfs_.FindFunction(kName);
  if (bucket_map == nullptr) {
    Function* f = udfs_.AddFunction(kName);
    FunctionBuilder b(f);
    int rec = b.Param("uc", IrType::Ref(user_count));
    f->return_type = IrType::Ref(engine_.heap().klasses().Find("UserCount[]"));
    int arr = b.NewArray(engine_.heap().klasses().Find("UserCount[]"), b.ConstI(1));
    int bucket = b.NewObject(user_count);
    int count = b.FieldLoad(rec, user_count, "count");
    // Histogram bucket: floor(log2(count)) via shift loop.
    int level = b.Local("level", IrType::I64());
    int cur = b.Local("cur", IrType::I64());
    b.AssignTo(level, b.ConstI(0));
    b.AssignTo(cur, count);
    int loop = b.NewLabel();
    int done = b.NewLabel();
    b.PlaceLabel(loop);
    b.Branch(b.BinOp(BinOpKind::kLe, cur, b.ConstI(1)), done);
    b.AssignTo(cur, b.BinOp(BinOpKind::kShr, cur, b.ConstI(1)));
    b.AssignTo(level, b.BinOp(BinOpKind::kAdd, level, b.ConstI(1)));
    b.Jump(loop);
    b.PlaceLabel(done);
    b.FieldStore(bucket, user_count, "user", level);
    b.FieldStore(bucket, user_count, "count", b.ConstI(1));
    b.ArrayStore(arr, b.ConstI(0), bucket);
    b.Return(arr);
    b.Done();
    bucket_map = f;
  }
  DatasetPtr histogram = engine_.RunJob(per_user, udfs_, bucket_map, user_count,
                                        KeySpec{uc_key_, false}, uc_sum_);
  return SumI64Outputs(engine_, histogram, user_count, "count", "UAH");
}

WorkloadResult HadoopWorkloads::RunSpf(const DatasetPtr& posts) {
  return RunCountJob("SPF", posts, spf_map_, false);
}

WorkloadResult HadoopWorkloads::RunUed(const DatasetPtr& posts) {
  return RunCountJob("UED", posts, ued_map_, false);
}

WorkloadResult HadoopWorkloads::RunCed(const DatasetPtr& posts) {
  engine_.ResetMetrics();
  DatasetPtr out = engine_.RunJob(posts, udfs_, ced_map_, topic_score, KeySpec{ts_key_, false},
                                  ts_max_);
  return SumI64Outputs(engine_, out, topic_score, "score", "CED");
}

WorkloadResult HadoopWorkloads::RunImc(const DatasetPtr& text) {
  engine_.ResetMetrics();
  DatasetPtr out = engine_.RunJob(text, udfs_, tokenize_, word_count, KeySpec{wc_key_, true},
                                  wc_sum_, wc_sum_);  // with combiner (the point of IMC)
  return SumI64Outputs(engine_, out, word_count, "count", "IMC");
}

WorkloadResult HadoopWorkloads::RunTfc(const DatasetPtr& text) {
  engine_.ResetMetrics();
  DatasetPtr out = engine_.RunJob(text, udfs_, tokenize_, word_count, KeySpec{wc_key_, true},
                                  wc_sum_);
  return SumI64Outputs(engine_, out, word_count, "count", "TFC");
}

}  // namespace gerenuk
