// Pairwise folds over native records with a compiled reduce function: the
// one loop behind Spark's map-side combine and reduce stage, and Hadoop's
// spill combiner and reduce stage.
//
// Each fold result is rendered back to committed bytes, so the next fold
// reads it like any input record. A result with the same byte size as its
// accumulator is written over the accumulator when the fold owns it, so a
// fixed-size fold (sums, counts, centroid stats) keeps one slot per key
// instead of growing a scratch region per record. Input records are never
// written: an accumulator that still points at one is copied out first.
#ifndef SRC_DATAFLOW_NATIVE_FOLD_H_
#define SRC_DATAFLOW_NATIVE_FOLD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/dataflow/dataset.h"

namespace gerenuk {

// A fold accumulator: a committed record body. `owned` marks bytes the fold
// wrote into its scratch region; an unowned accumulator is an input record.
struct FoldAcc {
  int64_t addr = 0;
  uint32_t size = 0;
  bool owned = false;
};

// acc <- fn(acc, rec), with `fn` a transformed (fast-path) function of two
// `klass` records returning a `klass` record, run on `runner`.
class NativeFolder {
 public:
  NativeFolder(SerRunner& runner, BuilderStore& builders, const Function* fn, const Klass* klass,
               NativePartition* scratch)
      : runner_(runner), builders_(builders), fn_(fn), klass_(klass), scratch_(scratch) {}

  // Throws SerAbort when `fn` aborts; `*acc` is then unchanged.
  void Fold(FoldAcc* acc, int64_t rec);

 private:
  SerRunner& runner_;
  BuilderStore& builders_;
  const Function* fn_;
  const Klass* klass_;
  NativePartition* scratch_;
  ByteBuffer body_;  // render target, reused across folds
};

// Groups records by shuffle key and folds each group, in arrival order, into
// one accumulator per key. For an associative `fn` the result equals a fold
// of the whole group in that order, however the records were split across
// calls — which is what lets a map task pre-fold its output.
class KeyedNativeFold {
 public:
  KeyedNativeFold(SerRunner& runner, BuilderStore& builders, const Function* key_fn,
                  bool key_is_string, const Function* fn, const Klass* klass,
                  MemoryTracker* tracker);

  // Throws SerAbort when the key function or `fn` aborts.
  void Add(int64_t addr, uint32_t size);
  // Appends one record per key, in first-seen key order.
  void EmitTo(NativePartition& out) const;

  int64_t folds() const { return folds_; }
  // Key extractions whose string buffer was reused (EvalShuffleKeyInto).
  int64_t key_allocs_saved() const { return key_allocs_saved_; }

 private:
  // Copies the owned accumulators into a fresh region once superseded
  // results dominate the scratch region.
  void MaybeCompact();

  SerRunner& runner_;
  const Function* key_fn_;
  bool key_is_string_;
  MemoryTracker* tracker_;
  NativePartition scratch_;
  NativeFolder folder_;
  std::unordered_map<ShuffleKey, size_t, ShuffleKey::Hash> index_;  // key -> accs_ slot
  std::vector<FoldAcc> accs_;
  ShuffleKey key_;            // extraction scratch
  int64_t owned_bytes_ = 0;   // live owned accumulators, size prefixes included
  int64_t folds_ = 0;
  int64_t key_allocs_saved_ = 0;
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_NATIVE_FOLD_H_
