// The accumulate form of a reduce function (DESIGN.md §6 "Map-side combine").
//
// A reduce f(a, b) -> K that builds one fresh K out of a and b is called
// once per folded record, and each call builds a record, renders it and
// copies it over the accumulator. When f has the right shape, the same
// arithmetic can be written straight into `a` — an accumulator record the
// engine owns — with no builder, no render and no copy. DeriveAccumulateForm
// proves that statically and conservatively on the *original* f, then emits
// acc(a, b) by rewriting `out = new K` to `out := a`:
//   * `out.p = e` (primitive p)  -> kWriteOwned into a.p;
//   * `out.r = a.r` (reference)  -> nothing: a already holds that child;
//   * `arr = new E[len(a.r)]`, filled by `arr[i] = e` in the one For loop
//     over that length, with `out.r = arr` -> kNativeArrayStoreOwned into
//     a.r's elements.
// acc returns I64 1 once it has folded, and I64 0 — before its first write —
// when a runtime precondition fails (an array length of b differs from a's).
// The caller then takes f's render path for that one fold, so acc can never
// stop halfway through a write and carries no abort fence.
//
// f qualifies only when all of these hold:
//   * it has the shape (K, K) -> K, makes no calls and no div or rem, and its
//     transformed form has no abort fence;
//   * it never stores into a or b, and reads them only through field loads;
//   * it makes exactly one NewObject(K), returns it, and stores each of its
//     fields exactly once at top level;
//   * each reference field of out is a.<same field>, or a NewArray of length
//     ArrayLength(a.<same field>) written only as arr[i] = e inside one
//     straight-line For over that length;
//   * array elements are read only as a.r[i] / b.r[i] inside that loop, and
//     no load of a reads a field or element after acc has written it.
//
// The caller must hand acc an accumulator it owns (committed-format bytes in
// its own scratch region), never an input record: that is what keeps input
// bytes pristine, since the two owned-write ops skip the committed-record
// refusal that every user-code write goes through.
#ifndef SRC_TRANSFORM_ACCUMULATE_H_
#define SRC_TRANSFORM_ACCUMULATE_H_

#include <string>

#include "src/analysis/layout.h"
#include "src/ir/ir.h"

namespace gerenuk {

// Derives the accumulate form of `original` (an untransformed reduce) and
// appends it to `program` — the transformed program holding `fast_fn`, the
// transformed `original` — as `<name>$acc`. Returns null, with the first
// failed rule in `*why` when given, if `original` does not qualify.
const Function* DeriveAccumulateForm(const Function& original, const Function& fast_fn,
                                     const DataStructAnalyzer& layouts, SerProgram* program,
                                     std::string* why = nullptr);

}  // namespace gerenuk

#endif  // SRC_TRANSFORM_ACCUMULATE_H_
