// Shared SER construction for the engines: given a chain of narrow operators
// (the user's UDFs) this builds the stage body — deserialization point,
// fused operator calls, serialization point — and runs the Gerenuk compiler
// over it. Both the mini-Spark and mini-Hadoop engines generate their tasks
// through this, mirroring how the real Gerenuk transforms system + user code
// together.
#ifndef SRC_DATAFLOW_STAGE_COMPILER_H_
#define SRC_DATAFLOW_STAGE_COMPILER_H_

#include <memory>
#include <vector>

#include "src/analysis/layout.h"
#include "src/exec/plan.h"        // PlanOptions, SerPlan
#include "src/exec/plan_cache.h"  // ProgramSignature, PlanCache
#include "src/ir/ir.h"
#include "src/transform/transformer.h"

namespace gerenuk {

enum class EngineMode : uint8_t { kBaseline, kGerenuk };

// Canonical signature of a SER: engine mode, the plan-compiler options, the
// layouts of every klass the program touches (in order), and the printed
// original program. Two jobs with the same signature compile to
// byte-identical plans inside one engine, which is what makes the PlanCache
// sound. The options take part because plans compiled under different vec
// configs differ (batch opcodes, strip size, bail knob): a scalar-compiled
// SerPlan served to a vectorized engine (or vice versa) would silently
// execute with the wrong kernels. Engines pass the same PlanOptions they
// hand CompilePlan (PlanOptionsOf), so the key always matches the plan.
// Null klasses are skipped, so call sites pass `{in, out, broadcast}`
// unconditionally.
ProgramSignature ComputeProgramSignature(EngineMode mode, const DataStructAnalyzer& layouts,
                                         const SerProgram& original,
                                         const std::vector<const Klass*>& klasses,
                                         const PlanOptions& options = PlanOptions());

struct NarrowOp {
  enum Kind : uint8_t { kMap, kFlatMap, kFilter } kind = kMap;
  const Function* fn = nullptr;   // kMap: T->U; kFlatMap: T->U[]; kFilter: T->bool
  const Klass* out_klass = nullptr;  // record class produced (kMap/kFlatMap)

  static NarrowOp Map(const Function* fn, const Klass* out_klass) {
    return {kMap, fn, out_klass};
  }
  static NarrowOp FlatMap(const Function* fn, const Klass* out_klass) {
    return {kFlatMap, fn, out_klass};
  }
  static NarrowOp Filter(const Function* fn) { return {kFilter, fn, nullptr}; }
};

struct StagePrograms {
  std::unique_ptr<SerProgram> original;
  // kGerenuk only. Shared (not unique) because a PlanCache entry and every
  // live stage compiled from it co-own the same transformed program — the
  // SerPlan's function table is keyed by this exact program's Function
  // pointers, so the pair must travel together.
  std::shared_ptr<const SerProgram> transformed;
  // Flat direct-threaded plan over `transformed` (kGerenuk with
  // EngineConfig::use_plan_compiler; null otherwise). Immutable after
  // compile; shared read-only across workers.
  std::shared_ptr<const SerPlan> plan;
  const Klass* in_klass = nullptr;
  const Klass* out_klass = nullptr;
  // Canonical identity of this stage's SER (computed in both modes; the
  // hash keys per-tenant abort-rate histories, the text keys the PlanCache).
  ProgramSignature signature;
  // True when `transformed`/`plan` came out of a PlanCache — the transform
  // and CompilePlan were both skipped.
  bool cache_hit = false;
  // True when `transformed` folds at its emit sites (EmitFoldSpec).
  bool folds_at_emit = false;
};

struct CompiledFunction {
  std::unique_ptr<SerProgram> original;
  std::shared_ptr<const SerProgram> transformed;  // see StagePrograms note
  std::shared_ptr<const SerPlan> plan;  // over `transformed`, may be null
  const Function* orig_fn = nullptr;
  const Function* fast_fn = nullptr;  // kGerenuk only
  // fast_fn's accumulate form (src/transform/accumulate.h), in `transformed`
  // and compiled into `plan`; null when the function does not qualify.
  const Function* acc_fn = nullptr;
  ProgramSignature signature;
  bool cache_hit = false;
};

// The emit-site fold a Gerenuk-mode ReduceByKey map stage composes into its
// transformed body (src/transform/emit_fold.h): the stage's key function and
// its reduce, whose accumulate form folds in place. A reduce without an
// accumulate form composes nothing.
struct EmitFoldSpec {
  const CompiledFunction* key = nullptr;
  const CompiledFunction* reduce = nullptr;
};

// Runs SER analysis + Algorithm 1 over `original`, accumulating compiler
// statistics into `*stats` when non-null.
std::unique_ptr<SerProgram> CompileSerProgram(const SerProgram& original,
                                              const DataStructAnalyzer& layouts,
                                              TransformStats* stats);

// Builds and (in kGerenuk mode) compiles a fused narrow stage. With a
// `cache`, a signature hit fills `transformed`/`plan`/`cache_hit` and skips
// the transform entirely; the caller inserts on miss after compiling the
// plan (the pool-fold + CompilePlan step lives in EngineCore). With a `fold`
// whose reduce has an accumulate form, the transformed body folds at its
// emit sites (`StagePrograms::folds_at_emit`), and the key and reduce
// functions join the signature.
StagePrograms CompileNarrowStage(EngineMode mode, const DataStructAnalyzer& layouts,
                                 const Klass* in_klass, const SerProgram& udfs,
                                 const std::vector<NarrowOp>& ops, bool has_broadcast,
                                 const Klass* broadcast_klass, TransformStats* stats,
                                 KlassRegistry& registry, PlanCache* cache = nullptr,
                                 const PlanOptions& options = PlanOptions(),
                                 const EmitFoldSpec* fold = nullptr);

// Imports and compiles one self-contained function (key/reduce/combine).
// Same cache contract as CompileNarrowStage.
CompiledFunction CompileSingleFunction(EngineMode mode, const DataStructAnalyzer& layouts,
                                       const SerProgram& udfs, const Function* fn,
                                       TransformStats* stats, PlanCache* cache = nullptr,
                                       const PlanOptions& options = PlanOptions());

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_STAGE_COMPILER_H_
