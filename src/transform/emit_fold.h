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
//     <accumulate form inlined>(acc, x)    // each return a jump: a fold
//                                          // to done, a decline falls out
//     foldSlot<kReduce>(x, k)              // declined: the full reduce
//   done:
//
// so constant folding, fusion and the vec pass see the fold body, and no
// call is left per emitted record. The accumulate form's constant returns
// (`return 1` after its writes, `return 0` where it declines) become plain
// jumps, so no flag is set and tested per emit; a computed return becomes
// `if v goto done`. kFoldSlot is the one statement that reaches the engine
// (EmitFold in src/exec/interpreter.h); it keeps KeyedNativeFold's rules —
// first-seen key order per bucket, render before fold for narrow fields,
// full reduce when the accumulate form declines.
//
// Two more rewrites shrink what an emitted record costs before the fold:
//
//   * DeforestFlatMap inlines a stage-ending flatMap whose UDF only fills
//     one K[n] array in a counted loop, and emits each element where the UDF
//     attaches it: no array, no call, no element loop.
//   * When x is a fresh appendToBuffer(K) whose fields were written in
//     straight-line code before the emit, ComposeEmitFold forwards the
//     written values to the inlined key function's and accumulate form's
//     field reads. When that leaves x unread, it sinks the record build
//     behind a kProbe — built only for a first-seen key (then kLookup) or a
//     declined fold (then kReduce):
//
//       k   = <key function inlined, reads forwarded>
//       acc = foldSlot<kProbe>(k)
//       if (!acc) goto first
//       <accumulate form inlined, reads forwarded>(acc)  // fold: goto done
//       <build x>; foldSlot<kReduce>(x, k); goto done
//     first:
//       <build x>; foldSlot<kLookup>(x, k)
//     done:
//
// Only the transformed program is rewritten. The original program — the
// slow path — still emits heap records, which the engine folds through its
// tables as before.
#ifndef SRC_TRANSFORM_EMIT_FOLD_H_
#define SRC_TRANSFORM_EMIT_FOLD_H_

#include "src/ir/ir.h"

namespace gerenuk {

// True when every primitive field of `klass` is 8 bytes wide: only then does
// a builder read return what its render would write.
bool PrimFieldsAreWide(const Klass* klass);

// Inlines the flatMap call that ends `program`'s body (a transformed stage)
// and emits each element where the UDF attaches it, when the UDF
//   * makes no calls and allocates exactly one K[n] array;
//   * fills it with one `attach arr[i] := x`, the last statement of a
//     straight-line `For(i < n)` body over that same n;
//   * writes, inside that loop, only records the same iteration allocated
//     before the write, so nothing an emitted record reaches changes after
//     its emit; and
//   * otherwise only returns the array, right after the loop.
// The array allocation becomes an abort when n < 0, so a negative length
// still reaches the slow path. A fast path that aborts after some emits is
// re-run whole on the slow path, which discards them. Any other body is left
// as it is.
void DeforestFlatMap(SerProgram* program);

// Rewrites every gWriteObject of `program`'s body (a transformed stage
// emitting `klass` records) into the fold above, forwarding and sinking
// where the record's build allows it. `key_fn` is the transformed key
// function and `acc_fn` the reduce's accumulate form; both must be
// self-contained (no calls).
void ComposeEmitFold(SerProgram* program, const Function& key_fn, const Function& acc_fn,
                     const Klass* klass);

}  // namespace gerenuk

#endif  // SRC_TRANSFORM_EMIT_FOLD_H_
