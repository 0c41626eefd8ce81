#include "src/dataflow/stage_compiler.h"

#include <map>
#include <sstream>

#include "src/analysis/ser_analyzer.h"
#include "src/ir/builder.h"
#include "src/support/fnv.h"
#include "src/transform/accumulate.h"
#include "src/transform/emit_fold.h"

namespace gerenuk {

ProgramSignature ComputeProgramSignature(EngineMode mode, const DataStructAnalyzer& layouts,
                                         const SerProgram& original,
                                         const std::vector<const Klass*>& klasses,
                                         const PlanOptions& options) {
  std::ostringstream text;
  text << "mode=" << (mode == EngineMode::kGerenuk ? "gerenuk" : "baseline") << '\n';
  // The vec config is part of the plan's identity: the same SER lowers to a
  // different opcode stream (and layout choice) under a different config.
  if (options.vectorize) {
    text << "vec=on batch=" << options.vector_batch_size
         << " bail=" << options.vec_bail_after_strips << '\n';
  } else {
    text << "vec=off\n";
  }
  for (const Klass* klass : klasses) {
    if (klass == nullptr) {
      continue;
    }
    // The full analyzed layout (field kinds, offset expressions) when
    // available, so the same-named klass with a different shape — a fresh
    // engine, a re-registered schema — can never alias a cache entry.
    text << "klass " << klass->name() << ":\n";
    if (layouts.IsTopLevel(klass)) {
      text << layouts.SchemaToString(klass);
    }
  }
  text << PrintProgram(original);

  ProgramSignature sig;
  sig.text = text.str();
  sig.hash = SealDigest(sig.text.data(), sig.text.size());
  return sig;
}

std::unique_ptr<SerProgram> CompileSerProgram(const SerProgram& original,
                                              const DataStructAnalyzer& layouts,
                                              TransformStats* stats) {
  SerAnalyzer analyzer(original, layouts);
  SerAnalysis analysis = analyzer.Run();
  Transformer transformer(original, analysis, layouts);
  TransformResult result = transformer.Run();
  if (stats != nullptr) {
    stats->statements_transformed += result.stats.statements_transformed;
    stats->aborts_inserted += result.stats.aborts_inserted;
    stats->functions_transformed += result.stats.functions_transformed;
    for (int i = 0; i < 5; ++i) {
      stats->violations_by_reason[i] += result.stats.violations_by_reason[i];
    }
  }
  return std::move(result.transformed);
}

StagePrograms CompileNarrowStage(EngineMode mode, const DataStructAnalyzer& layouts,
                                 const Klass* in_klass, const SerProgram& udfs,
                                 const std::vector<NarrowOp>& ops, bool has_broadcast,
                                 const Klass* broadcast_klass, TransformStats* stats,
                                 KlassRegistry& registry, PlanCache* cache,
                                 const PlanOptions& options, const EmitFoldSpec* fold) {
  StagePrograms stage;
  stage.original = std::make_unique<SerProgram>();
  stage.in_klass = in_klass;
  stage.out_klass = in_klass;

  std::map<int, int> remap;
  std::vector<const Function*> imported;
  imported.reserve(ops.size());
  for (const NarrowOp& op : ops) {
    int id = ImportFunction(*stage.original, udfs, op.fn->id, remap);
    imported.push_back(stage.original->function(id));
  }

  Function* body = stage.original->AddFunction("stage_body");
  FunctionBuilder b(body);
  int bc_param = -1;
  if (has_broadcast) {
    bc_param = b.Param("broadcast", IrType::Ref(broadcast_klass));
  }
  int end = b.NewLabel();
  int rec = b.Deserialize(in_klass);
  int cur = rec;
  for (size_t i = 0; i < ops.size(); ++i) {
    const NarrowOp& op = ops[i];
    std::vector<int> args = {cur};
    if (imported[i]->num_params == 2) {
      GERENUK_CHECK(has_broadcast) << "UDF " << imported[i]->name
                                   << " expects a broadcast argument";
      args.push_back(bc_param);
    }
    switch (op.kind) {
      case NarrowOp::kMap:
        cur = b.Call(imported[i], args);
        stage.out_klass = op.out_klass;
        break;
      case NarrowOp::kFilter: {
        int keep = b.Call(imported[i], args);
        int drop = b.UnOp(UnOpKind::kNot, keep);
        b.Branch(drop, end);
        break;
      }
      case NarrowOp::kFlatMap: {
        GERENUK_CHECK_EQ(i, ops.size() - 1) << "flatMap must be the last op of a stage";
        int arr = b.Call(imported[i], args);
        int len = b.ArrayLength(arr);
        b.For(len, [&](int idx) {
          int elem = b.ArrayLoad(arr, idx, IrType::Ref(op.out_klass));
          b.Serialize(elem);
        });
        stage.out_klass = op.out_klass;
        b.Jump(end);
        break;
      }
    }
  }
  if (ops.empty() || ops.back().kind != NarrowOp::kFlatMap) {
    b.Serialize(cur);
  }
  b.PlaceLabel(end);
  b.Return();
  b.Done();
  stage.original->body = body;

  stage.signature = ComputeProgramSignature(
      mode, layouts, *stage.original,
      {stage.in_klass, stage.out_klass, has_broadcast ? broadcast_klass : nullptr}, options);
  stage.folds_at_emit = mode == EngineMode::kGerenuk && fold != nullptr &&
                        fold->reduce->acc_fn != nullptr;
  if (stage.folds_at_emit) {
    // The composed body inlines both functions: they are part of its identity.
    stage.signature.text += "emit fold:\n" + PrintProgram(*fold->key->original) +
                            PrintProgram(*fold->reduce->original);
    stage.signature.hash = SealDigest(stage.signature.text.data(), stage.signature.text.size());
  }
  if (mode == EngineMode::kGerenuk) {
    PlanCache::Entry hit;
    if (cache != nullptr && cache->Lookup(stage.signature, &hit)) {
      stage.transformed = hit.transformed;
      stage.plan = hit.plan;
      stage.cache_hit = true;
    } else {
      std::unique_ptr<SerProgram> transformed =
          CompileSerProgram(*stage.original, layouts, stats);
      if (stage.folds_at_emit) {
        if (!ops.empty() && ops.back().kind == NarrowOp::kFlatMap) {
          DeforestFlatMap(transformed.get());
        }
        ComposeEmitFold(transformed.get(), *fold->key->fast_fn, *fold->reduce->acc_fn,
                        stage.out_klass);
      }
      stage.transformed = std::move(transformed);
    }
  }
  return stage;
}

CompiledFunction CompileSingleFunction(EngineMode mode, const DataStructAnalyzer& layouts,
                                       const SerProgram& udfs, const Function* fn,
                                       TransformStats* stats, PlanCache* cache,
                                       const PlanOptions& options) {
  CompiledFunction compiled;
  compiled.original = std::make_unique<SerProgram>();
  std::map<int, int> remap;
  int id = ImportFunction(*compiled.original, udfs, fn->id, remap);
  // Key/reduce/combine functions are evaluated inside other interpreters'
  // contexts, so they must be self-contained (call no helpers).
  GERENUK_CHECK_EQ(compiled.original->functions.size(), 1u)
      << fn->name << " must not call helper functions";
  compiled.orig_fn = compiled.original->function(id);
  compiled.signature = ComputeProgramSignature(mode, layouts, *compiled.original, {}, options);
  if (mode == EngineMode::kGerenuk) {
    PlanCache::Entry hit;
    if (cache != nullptr && cache->Lookup(compiled.signature, &hit)) {
      compiled.transformed = hit.transformed;
      compiled.plan = hit.plan;
      compiled.fast_fn = hit.fast_fn;
      compiled.acc_fn = hit.acc_fn;
      compiled.cache_hit = true;
    } else {
      std::unique_ptr<SerProgram> transformed =
          CompileSerProgram(*compiled.original, layouts, stats);
      compiled.fast_fn = transformed->function(id);
      compiled.acc_fn = DeriveAccumulateForm(*compiled.orig_fn, *compiled.fast_fn, layouts,
                                             transformed.get());
      compiled.transformed = std::move(transformed);
    }
  }
  return compiled;
}

}  // namespace gerenuk
