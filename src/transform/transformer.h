// The speculative transformer (§3.5, Algorithm 1): rewrites every data-path
// statement found by the SER analyzer into its native-byte equivalent and
// inserts an ABORT immediately before every violation point.
//
// Case map (paper -> this implementation):
//   1  a = readObject()      -> kGetAddress
//   2  a = b                 -> unchanged (variables already carry addresses)
//   3  parameter passing     -> unchanged (calls pass addresses)
//   4  a.f = b   (prim f)    -> kWriteNative with constant or symbolic offset
//   5  b = a.f   (prim f)    -> kReadNative  with constant or symbolic offset
//      b = a.f   (ref f)     -> kAddrOfField  (address of the inlined child)
//   6  a = new A             -> kAppendRecord / kAppendArray
//   7  violation             -> kAbort emitted before the statement
//   8  writeObject(a)        -> kGWriteObject
//   9  n.m(...)              -> kept as a call to the transformed callee
//                               (equivalent to the paper's inline-and-
//                               transform: the callee body is transformed in
//                               place and the call costs nothing semantically)
// plus construction writes (a.f = b where both live in the record being
// built), which compile to kAttachField/kAttachElement handled by the
// runtime's record builders.
//
// The original program is kept untouched — it is the slow path executed on
// re-execution after an abort, exactly as §3.1 prescribes.
#ifndef SRC_TRANSFORM_TRANSFORMER_H_
#define SRC_TRANSFORM_TRANSFORMER_H_

#include <map>
#include <memory>

#include "src/analysis/layout.h"
#include "src/analysis/ser_analyzer.h"
#include "src/ir/ir.h"
#include "src/support/metrics.h"  // TransformStats

namespace gerenuk {

// Binds the field access `*s` (klass + field_index of a laid-out klass) to
// its slot: the offset expression, or the constant offset when Algorithm 1
// can resolve it statically, and the field's kind as elem_kind.
void BindFieldSlot(const DataStructAnalyzer& layouts, Statement* s);

struct TransformResult {
  std::unique_ptr<SerProgram> transformed;
  TransformStats stats;
};

class Transformer {
 public:
  Transformer(const SerProgram& program, const SerAnalysis& analysis,
              const DataStructAnalyzer& layouts)
      : program_(program), analysis_(analysis), layouts_(layouts) {}

  TransformResult Run();

 private:
  Statement TransformStatement(const Statement& s, bool* transformed);

  const SerProgram& program_;
  const SerAnalysis& analysis_;
  const DataStructAnalyzer& layouts_;
};

}  // namespace gerenuk

#endif  // SRC_TRANSFORM_TRANSFORMER_H_
