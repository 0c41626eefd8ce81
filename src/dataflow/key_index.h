// One flat index from shuffle key to a dense group id, behind every keyed
// table: the emit-site fold and Spark's reduce-stage fold (KeyedNativeFold),
// the heap reduce and join bodies that baseline mode and Gerenuk mode's slow
// path share, the join's build side, and Hadoop's sort buffer.
//
// Open addressing with linear probing over a power-of-two slot array that
// holds group id + 1 (0 = empty), at most half full. Groups live in one dense
// vector of {hash, key} entries in first-seen order, so a group id indexes
// the caller's own per-group arrays and no key gets a heap node. The caller
// computes the key's hash (ShuffleKey::Hash) once and passes it in: the same
// hash then picks the record's partition or bucket, and growth never
// rehashes a key.
#ifndef SRC_DATAFLOW_KEY_INDEX_H_
#define SRC_DATAFLOW_KEY_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/dataflow/dataset.h"

namespace gerenuk {

class KeyIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  // `key`'s group id, or kNotFound; inserts nothing.
  uint32_t Find(const ShuffleKey& key, size_t hash) const {
    return slots_[Probe(key, hash)] - 1;  // an empty slot's 0 wraps to kNotFound
  }

  // `key`'s group id; a first-seen key becomes group size() and sets
  // *inserted.
  uint32_t Insert(const ShuffleKey& key, size_t hash, bool* inserted) {
    if (2 * entries_.size() + 2 > slots_.size()) {
      Grow();
    }
    uint32_t& slot = slots_[Probe(key, hash)];
    *inserted = slot == 0;
    if (*inserted) {
      entries_.push_back({hash, key});
      slot = static_cast<uint32_t>(entries_.size());
    }
    return slot - 1;
  }

  size_t size() const { return entries_.size(); }
  // Mutable so a caller that is done with the index may move a key out.
  ShuffleKey& key(uint32_t id) { return entries_[id].key; }

  // Drops every group; keeps the slot array's size.
  void Clear() {
    entries_.clear();
    slots_.assign(slots_.size(), 0u);
  }

 private:
  struct Entry {
    size_t hash;
    ShuffleKey key;
  };

  // The key's slot, or the empty slot where it would go. The probe starts at
  // the top bits of hash * 2^64/phi (Fibonacci hashing), so integer keys
  // that differ only in their high bits still spread.
  size_t Probe(const ShuffleKey& key, size_t hash) const {
    size_t s = (hash * 0x9e3779b97f4a7c15ULL) >> shift_;
    for (uint32_t id; (id = slots_[s]) != 0; s = (s + 1) & (slots_.size() - 1)) {
      if (entries_[id - 1].hash == hash && entries_[id - 1].key == key) {
        break;
      }
    }
    return s;
  }

  // Doubles the slot array and re-places every group from its stored hash.
  void Grow() {
    slots_.assign(2 * slots_.size(), 0u);
    shift_ -= 1;
    for (uint32_t id = 0; id < entries_.size(); ++id) {
      slots_[Probe(entries_[id].key, entries_[id].hash)] = id + 1;
    }
  }

  std::vector<Entry> entries_;  // group id -> {hash, key}, first-seen order
  std::vector<uint32_t> slots_ = std::vector<uint32_t>(16);  // group id + 1, 0 = empty
  int shift_ = 60;  // 64 - log2(slots_.size())
};

}  // namespace gerenuk

#endif  // SRC_DATAFLOW_KEY_INDEX_H_
