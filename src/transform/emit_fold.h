// The emit-site fold of a ReduceByKey map stage (DESIGN.md §6).
//
// A Gerenuk-mode ReduceByKey map task folds each record it emits into a
// keyed table per reduce bucket. Done through the record channel, every
// emitted record leaves the stage plan for two calls (the key function, then
// the reduce's accumulate form) and a table probe. ComposeEmitFold removes
// that boundary at the IR level: in the stage's *transformed* body, each
// `gWriteObject(x)` becomes
//
//     k   = <key function inlined>(x)
//     acc = foldSlot<kLookup>(x, k)        // 0: first-seen key, x rendered
//     if (!acc) goto done
//     [x = foldSlot<kStage>(x, k)]         // only when K has a primitive
//                                          // field narrower than 8 bytes
//     ok  = <accumulate form inlined>(acc, x)
//     if (ok) goto done
//     foldSlot<kReduce>(x, k)              // declined: the full reduce
//   done:
//
// so constant folding, fusion and the vec pass see the fold body, and no
// call is left per emitted record. kFoldSlot is the one statement that
// reaches the engine (EmitFold in src/exec/interpreter.h); it keeps
// KeyedNativeFold's rules — first-seen key order per bucket, render before
// fold for narrow fields, full reduce when the accumulate form declines.
//
// Only the transformed program is composed. The original program — the
// slow path — still emits heap records, which the engine folds through its
// tables as before.
#ifndef SRC_TRANSFORM_EMIT_FOLD_H_
#define SRC_TRANSFORM_EMIT_FOLD_H_

#include "src/ir/ir.h"

namespace gerenuk {

// True when every primitive field of `klass` is 8 bytes wide: only then does
// a builder read return what its render would write.
bool PrimFieldsAreWide(const Klass* klass);

// Rewrites every gWriteObject of `program`'s body (a transformed stage
// emitting `klass` records) into the fold above. `key_fn` is the transformed
// key function and `acc_fn` the reduce's accumulate form; both must be
// self-contained (no calls).
void ComposeEmitFold(SerProgram* program, const Function& key_fn, const Function& acc_fn,
                     const Klass* klass);

}  // namespace gerenuk

#endif  // SRC_TRANSFORM_EMIT_FOLD_H_
