// Signature-keyed SerPlan cache: canonical program signatures (what must
// match for a hit, what must differ for a miss), engine-level hit behavior
// with byte-identical outputs, and LRU eviction under a byte budget.
#include "src/exec/plan_cache.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dataflow/spark.h"
#include "src/support/fnv.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// Canonical program signatures
// ---------------------------------------------------------------------------

TEST(ProgramSignatureTest, StableAcrossEngines) {
  // Two independent engines with identical klass schemas and programs must
  // produce the same signature — that is what makes repeat submissions from
  // different sessions hit the cache of whichever pooled engine they land on.
  SparkJob a(SparkWith(1));
  SparkJob b(SparkWith(1));
  ProgramSignature sig_a =
      ComputeProgramSignature(EngineMode::kGerenuk, a.engine.layouts(), a.udfs, {a.pair});
  ProgramSignature sig_b =
      ComputeProgramSignature(EngineMode::kGerenuk, b.engine.layouts(), b.udfs, {b.pair});
  ASSERT_TRUE(sig_a.valid());
  EXPECT_EQ(sig_a.text, sig_b.text);
  EXPECT_EQ(sig_a.hash, sig_b.hash);
}

TEST(ProgramSignatureTest, EngineModeChangesSignature) {
  SparkJob job(SparkWith(1));
  ProgramSignature gerenuk = ComputeProgramSignature(EngineMode::kGerenuk, job.engine.layouts(),
                                                     job.udfs, {job.pair});
  ProgramSignature baseline = ComputeProgramSignature(EngineMode::kBaseline, job.engine.layouts(),
                                                      job.udfs, {job.pair});
  EXPECT_NE(gerenuk.text, baseline.text);
  EXPECT_NE(gerenuk.hash, baseline.hash);
}

TEST(ProgramSignatureTest, KlassLayoutChangesSignature) {
  // Same program text, same klass name, different field layout: the schema
  // line in the signature must force a miss (a cached plan bakes in offsets).
  EngineConfig config = SparkWith(1);
  SparkEngine a(config);
  SparkEngine b(config);
  auto define = [](SparkEngine& engine, FieldKind value_kind) {
    return engine.heap().klasses().DefineClass(
        "Pair", {{"key", FieldKind::kI64, nullptr, 0}, {"value", value_kind, nullptr, 0}});
  };
  const Klass* pair_a = define(a, FieldKind::kF64);
  const Klass* pair_b = define(b, FieldKind::kI64);
  a.RegisterDataType(pair_a);
  b.RegisterDataType(pair_b);
  auto build_get_key = [](SerProgram* program, const Klass* pair) {
    Function* f = program->AddFunction("get_key");
    FunctionBuilder builder(f);
    int rec = builder.Param("rec", IrType::Ref(pair));
    f->return_type = IrType::I64();
    builder.Return(builder.FieldLoad(rec, pair, "key"));
    builder.Done();
  };
  SerProgram prog_a;
  SerProgram prog_b;
  build_get_key(&prog_a, pair_a);
  build_get_key(&prog_b, pair_b);
  ProgramSignature sig_a =
      ComputeProgramSignature(EngineMode::kGerenuk, a.layouts(), prog_a, {pair_a});
  ProgramSignature sig_b =
      ComputeProgramSignature(EngineMode::kGerenuk, b.layouts(), prog_b, {pair_b});
  EXPECT_NE(sig_a.text, sig_b.text);
  EXPECT_NE(sig_a.hash, sig_b.hash);
}

TEST(ProgramSignatureTest, BroadcastShapeChangesSignature) {
  SparkJob job(SparkWith(1));
  ProgramSignature without = ComputeProgramSignature(EngineMode::kGerenuk, job.engine.layouts(),
                                                     job.udfs, {job.pair});
  ProgramSignature with_broadcast = ComputeProgramSignature(
      EngineMode::kGerenuk, job.engine.layouts(), job.udfs, {job.pair, job.pair});
  EXPECT_NE(without.text, with_broadcast.text);
  EXPECT_NE(without.hash, with_broadcast.hash);
}

TEST(ProgramSignatureTest, VecConfigChangesSignature) {
  // Plans compiled under different vectorization configs are different
  // machine code (vec opcodes, batch geometry, bail knob): each PlanOptions
  // field must change the canonical text so cache hits never cross configs.
  SparkJob job(SparkWith(1));
  auto sig = [&](const PlanOptions& vec) {
    return ComputeProgramSignature(EngineMode::kGerenuk, job.engine.layouts(), job.udfs,
                                   {job.pair}, vec);
  };
  ProgramSignature def = sig(PlanOptions());
  // The defaulted parameter must mean exactly the default PlanOptions.
  ProgramSignature implicit =
      ComputeProgramSignature(EngineMode::kGerenuk, job.engine.layouts(), job.udfs, {job.pair});
  EXPECT_EQ(def.text, implicit.text);
  EXPECT_EQ(def.hash, implicit.hash);
  EXPECT_NE(def.text.find("vec=on"), std::string::npos);

  PlanOptions off;
  off.vectorize = false;
  PlanOptions batch;
  batch.vector_batch_size = 64;
  PlanOptions bail;
  bail.vec_bail_after_strips = 2;
  for (const PlanOptions& other : {off, batch, bail}) {
    ProgramSignature s = sig(other);
    EXPECT_NE(s.text, def.text);
    EXPECT_NE(s.hash, def.hash);
  }
  EXPECT_NE(sig(off).text.find("vec=off"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine-level cache behavior
// ---------------------------------------------------------------------------

// Two engines sharing one service-mode cache, identical program, different
// vec configs: the second submission must miss and insert its own entry —
// a vec plan handed to a vectorize-off engine (or vice versa) would silently
// change the executed opcode stream.
TEST(PlanCacheEngineTest, VecConfigNeverSharesCacheEntries) {
  PlanCache cache;
  std::vector<uint8_t> reference;
  for (bool vectorize : {true, false}) {
    EngineConfig config = SparkWith(1);
    config.execution.vectorize = vectorize;
    SparkJob job(config);
    job.engine.set_plan_cache(&cache);
    DatasetPtr out = job.engine.RunStage(job.MakeInput(300), job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    std::vector<uint8_t> bytes = DatasetBytes(out);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference);  // different plans, same output bytes
    }
  }
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().insertions, 2);
}

TEST(PlanCacheEngineTest, RepeatStageHitsWithByteIdenticalOutput) {
  SparkJob job(SparkWith(2));
  PlanCache cache;
  job.engine.set_plan_cache(&cache);

  DatasetPtr in = job.MakeInput(400);
  DatasetPtr first =
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().insertions, 1);
  EXPECT_EQ(job.engine.stats().plans_compiled, 1);
  EXPECT_EQ(job.engine.stats().plan_cache_hits, 0);

  DatasetPtr second =
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(job.engine.stats().plans_compiled, 1) << "cache hit must skip CompilePlan";
  EXPECT_EQ(job.engine.stats().plan_cache_hits, 1);
  EXPECT_EQ(DatasetBytes(first), DatasetBytes(second));

  // Reference run on a cache-less engine: the cached fast path must be
  // byte-identical to a from-scratch compile.
  SparkJob fresh(SparkWith(2));
  DatasetPtr reference = fresh.engine.RunStage(fresh.MakeInput(400), fresh.udfs,
                                               {NarrowOp::Map(fresh.double_value, fresh.pair)});
  EXPECT_EQ(DatasetBytes(second), DatasetBytes(reference));
}

TEST(PlanCacheEngineTest, DifferentOpsMiss) {
  SparkJob job(SparkWith(1));
  PlanCache cache;
  job.engine.set_plan_cache(&cache);
  DatasetPtr in = job.MakeInput(100);
  job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  job.engine.RunStage(in, job.udfs, {NarrowOp::FlatMap(job.explode, job.pair)});
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(PlanCacheEngineTest, ReduceByKeyReusesEveryCompiledProgram) {
  SparkJob job(SparkWith(2));
  PlanCache cache;
  job.engine.set_plan_cache(&cache);
  DatasetPtr in = job.MakeInput(300);
  DatasetPtr first = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                            job.sum_values);
  const PlanCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.hits, 0);
  EXPECT_GT(after_first.misses, 0);
  DatasetPtr second = job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false},
                                             job.sum_values);
  const PlanCache::Stats after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses) << "repeat job must not recompile";
  EXPECT_EQ(after_second.hits, after_first.misses) << "every compiled program must hit";
  EXPECT_EQ(DatasetBytes(first), DatasetBytes(second));
}

// The Hadoop engine shares Spark's compile-and-cache pipeline: a repeat
// combiner job compiles nothing, hits the cache once per compiled program
// (map stage, key, reduce, combiner) and writes the same bytes. The combiner
// is the reduce function, so even the first job compiles it only once.
TEST(PlanCacheEngineTest, HadoopRepeatJobReusesEveryCompiledProgram) {
  HadoopJob job(HadoopWith(2));
  PlanCache cache;
  job.engine.set_plan_cache(&cache);
  DatasetPtr in = job.MakeInput(300);
  auto run = [&] {
    job.engine.ResetMetrics();
    return job.engine.RunJob(in, job.udfs, job.explode, job.pair, KeySpec{job.get_key, false},
                             job.sum_values, job.sum_values);
  };
  DatasetPtr first = run();
  const EngineStats first_stats = job.engine.stats();
  EXPECT_EQ(first_stats.stages_compiled, 1);
  EXPECT_EQ(first_stats.plans_compiled, 3);
  EXPECT_EQ(first_stats.plan_cache_hits, 1) << "the combiner reuses the reduce plan";
  DatasetPtr second = run();
  const EngineStats& second_stats = job.engine.stats();
  EXPECT_EQ(second_stats.stages_compiled, 1);
  EXPECT_EQ(second_stats.plans_compiled, 0) << "repeat job must not recompile";
  EXPECT_EQ(second_stats.plan_cache_hits, 4) << "map stage, key, reduce and combiner must hit";
  EXPECT_GT(second_stats.combine_calls, 0);
  EXPECT_EQ(DatasetBytes(first), DatasetBytes(second));
}

TEST(PlanCacheEngineTest, UnusedWhenPlanCompilerOff) {
  EngineConfig config = SparkWith(1);
  config.execution.use_plan_compiler = false;
  SparkJob job(config);
  PlanCache cache;
  job.engine.set_plan_cache(&cache);
  job.engine.RunStage(job.MakeInput(100), job.udfs,
                      {NarrowOp::Map(job.double_value, job.pair)});
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().entries, 0);
}

// ---------------------------------------------------------------------------
// LRU + byte budget (cache in isolation, synthetic entries)
// ---------------------------------------------------------------------------

PlanCache::Entry SyntheticEntry() {
  PlanCache::Entry entry;
  entry.transformed = std::make_shared<SerProgram>();
  return entry;
}

ProgramSignature Sig(const std::string& text) {
  return ProgramSignature{SealDigest(text.data(), text.size()), text};
}

TEST(PlanCacheLruTest, EvictsLeastRecentlyUsedUnderBudget) {
  const size_t per_entry = PlanCache::EstimateBytes("a", SyntheticEntry().transformed.get(),
                                                    nullptr);
  PlanCache cache(2 * per_entry + per_entry / 2);  // room for two entries
  cache.Insert(Sig("a"), SyntheticEntry());
  cache.Insert(Sig("b"), SyntheticEntry());
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 0);

  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(Sig("a"), nullptr));
  cache.Insert(Sig("c"), SyntheticEntry());
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.Lookup(Sig("a"), nullptr));
  EXPECT_FALSE(cache.Lookup(Sig("b"), nullptr));
  EXPECT_TRUE(cache.Lookup(Sig("c"), nullptr));
}

TEST(PlanCacheLruTest, OversizedEntryStaysUntilDisplaced) {
  PlanCache cache(1);  // smaller than any entry
  cache.Insert(Sig("big"), SyntheticEntry());
  EXPECT_EQ(cache.stats().entries, 1) << "the sole entry is never evicted by its own insert";
  EXPECT_TRUE(cache.Lookup(Sig("big"), nullptr));
  cache.Insert(Sig("bigger"), SyntheticEntry());
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_FALSE(cache.Lookup(Sig("big"), nullptr));
  EXPECT_TRUE(cache.Lookup(Sig("bigger"), nullptr));
}

TEST(PlanCacheLruTest, ReplaceAndClear) {
  PlanCache cache;
  cache.Insert(Sig("a"), SyntheticEntry());
  cache.Insert(Sig("a"), SyntheticEntry());
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().insertions, 2);
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_FALSE(cache.Lookup(Sig("a"), nullptr));
}

// Regression pin: replacing a key's entry must account only the new entry's
// bytes — the old footprint is subtracted, not leaked. A leak here would
// inflate stats().bytes on every replacement until the budget evicted live
// entries that actually fit.
TEST(PlanCacheLruTest, ReplacementAccountsOnlyTheNewEntryBytes) {
  PlanCache cache;
  PlanCache::Entry small = SyntheticEntry();
  PlanCache::Entry large = SyntheticEntry();
  large.plan = std::make_shared<SerPlan>();  // same key, bigger footprint
  const int64_t small_bytes = static_cast<int64_t>(
      PlanCache::EstimateBytes("a", small.transformed.get(), nullptr));
  const int64_t large_bytes = static_cast<int64_t>(
      PlanCache::EstimateBytes("a", large.transformed.get(), large.plan.get()));
  ASSERT_GT(large_bytes, small_bytes);

  cache.Insert(Sig("a"), std::move(small));
  EXPECT_EQ(cache.stats().bytes, small_bytes);
  cache.Insert(Sig("a"), std::move(large));
  EXPECT_EQ(cache.stats().bytes, large_bytes) << "old entry's bytes must not linger";
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().insertions, 2);
  EXPECT_EQ(cache.stats().evictions, 0) << "a replacement is not an eviction";

  // And shrinking back down must not go negative or stick high.
  cache.Insert(Sig("a"), SyntheticEntry());
  EXPECT_EQ(cache.stats().bytes, small_bytes);
}

}  // namespace
}  // namespace gerenuk
