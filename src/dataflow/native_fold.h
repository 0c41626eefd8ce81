// Pairwise folds over native records with a compiled reduce function: the
// one loop behind Spark's emit-time fold, map-side combine and reduce stage,
// and Hadoop's spill combiner and reduce stage.
//
// When the reduce has an accumulate form (src/transform/accumulate.h), a
// fold runs it straight into an accumulator the fold owns: no builder, no
// render, no copy. Otherwise — or when the accumulate form declines one
// fold — each fold result is rendered back to committed bytes, so the next
// fold reads it like any input record; a result with the same byte size as
// an owned accumulator is written over it, so a fixed-size fold keeps one
// slot per key instead of growing a scratch region per record. Input
// records are never written: an accumulator that still points at one is
// copied into the scratch region before its first in-place fold.
#ifndef SRC_DATAFLOW_NATIVE_FOLD_H_
#define SRC_DATAFLOW_NATIVE_FOLD_H_

#include <cstdint>
#include <vector>

#include "src/dataflow/dataset.h"
#include "src/dataflow/key_index.h"

namespace gerenuk {

// A fold accumulator: a committed record body. `owned` marks bytes the fold
// wrote into its scratch region; an unowned accumulator is an input record.
struct FoldAcc {
  int64_t addr = 0;
  uint32_t size = 0;
  bool owned = false;
};

// acc <- fn(acc, rec), with `fn` a transformed (fast-path) function of two
// `klass` records returning a `klass` record and `acc_fn` its accumulate
// form (null when it has none). The runner (and the builder store it
// allocates from) is passed per fold, so one accumulator can be folded from
// a map task's runner and, after an abort, from a slow-path fold runner.
class NativeFolder {
 public:
  NativeFolder(const Function* fn, const Function* acc_fn, const Klass* klass,
               NativePartition* scratch)
      : fn_(fn), acc_fn_(acc_fn), klass_(klass), scratch_(scratch) {}

  // Builder nodes the fold allocates are recycled before it returns; nodes
  // the caller allocated earlier stay live. Throws SerAbort when `fn`
  // aborts; `*acc` then still holds the same value.
  void Fold(SerRunner& runner, BuilderStore& builders, FoldAcc* acc, int64_t rec);
  // The two halves of Fold: copies an input-record accumulator into the
  // scratch region, so the accumulate form may write it; and folds with `fn`
  // itself, rendering its result over the accumulator.
  void Own(FoldAcc* acc);
  void Reduce(SerRunner& runner, BuilderStore& builders, FoldAcc* acc, int64_t rec);

 private:
  const Function* fn_;
  const Function* acc_fn_;
  const Klass* klass_;
  NativePartition* scratch_;
  ByteBuffer body_;  // render target, reused across folds
};

// Groups records by shuffle key and folds each group, in arrival order, into
// one accumulator per key. For an associative `fn` the result equals a fold
// of the whole group in that order, however the records were split across
// calls — which is what lets a map task pre-fold its output. Every call
// takes the key with its ShuffleKey::Hash, which the caller computed once
// (and used to pick this table).
class KeyedNativeFold {
 public:
  KeyedNativeFold(const Function* fn, const Function* acc_fn, const Klass* klass,
                  MemoryTracker* tracker);
  // Pinned: the folder points at this object's scratch region.
  KeyedNativeFold(const KeyedNativeFold&) = delete;
  KeyedNativeFold& operator=(const KeyedNativeFold&) = delete;

  // Folds the committed record at `addr` into `key`'s accumulator. A
  // first-seen key keeps pointing at the record, which must outlive the
  // fold. Throws SerAbort when `fn` aborts.
  void Add(SerRunner& runner, BuilderStore& builders, const ShuffleKey& key, size_t hash,
           int64_t addr, uint32_t size);
  // Same for a record that will not outlive the call — a builder, or bytes
  // about to be reused: a first-seen key renders it into the scratch region.
  void AddEmitted(SerRunner& runner, BuilderStore& builders, const ShuffleKey& key, size_t hash,
                  int64_t addr, const Klass* klass);
  // AddEmitted in the steps a composed map stage's kFoldSlot statements
  // take (EmitFold): Slot renders a first-seen key's record and
  // returns 0, or counts a fold and returns the key's owned accumulator for
  // the inlined accumulate form to write; Stage renders a builder into a
  // staging buffer (K with fields narrower than 8 bytes) and returns its
  // address, valid until the next Stage; Reduce folds with `fn` when the
  // accumulate form declined.
  int64_t Slot(BuilderStore& builders, const ShuffleKey& key, size_t hash, int64_t addr,
               const Klass* klass);
  // Slot for a record not built yet: counts a fold and returns the key's
  // owned accumulator, or returns 0 for a first-seen key without inserting
  // it — the caller then builds the record and takes Slot.
  int64_t Probe(const ShuffleKey& key, size_t hash);
  int64_t Stage(BuilderStore& builders, int64_t addr, const Klass* klass);
  void Reduce(SerRunner& runner, BuilderStore& builders, const ShuffleKey& key, size_t hash,
              int64_t rec);
  // Moves one record per key, in first-seen key order, into `out`. Hands the
  // scratch region itself over when `out` is empty and the region already
  // holds exactly that, so call it once, last.
  void EmitTo(NativePartition& out);
  // Drops every key and accumulator (a map-task abort).
  void Clear();

  int64_t folds() const { return folds_; }

 private:
  FoldAcc* Lookup(const ShuffleKey& key, size_t hash, bool* inserted);
  // Null when `key` is first seen: its record is then rendered as the
  // accumulator.
  FoldAcc* LookupEmitted(BuilderStore& builders, const ShuffleKey& key, size_t hash,
                         int64_t addr, const Klass* klass);
  // Slot's and Probe's result: 0 for a null `acc`; otherwise counts a fold
  // and returns the accumulator, owned.
  int64_t OwnedSlot(FoldAcc* acc);
  void FoldInto(SerRunner& runner, BuilderStore& builders, FoldAcc* acc, int64_t rec);
  // Copies the owned accumulators into a fresh region once superseded
  // results dominate the scratch region.
  void MaybeCompact();

  MemoryTracker* tracker_;
  // Builder reads return the value as written, before its render narrows it
  // to the field's width; folding a builder directly is exact only when K
  // has no primitive field narrower than 8 bytes.
  bool builder_reads_exact_;
  NativePartition scratch_;
  NativeFolder folder_;
  KeyIndex index_;
  std::vector<FoldAcc> accs_;  // by group id
  ByteBuffer staged_;         // a builder rendered for folding (narrow fields)
  int64_t owned_bytes_ = 0;   // live owned accumulators, size prefixes included
  int64_t folds_ = 0;
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_NATIVE_FOLD_H_
