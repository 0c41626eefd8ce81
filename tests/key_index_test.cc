// The key index behind every Gerenuk-mode keyed table (ctest -L shuffle):
// src/dataflow/key_index.h. Group ids are dense and first-seen; a probe that
// misses inserts nothing; colliding hashes, growth and mixed key kinds keep
// every key apart. The join's build side, which chains each key's records
// through the index, keeps duplicate keys in arrival order at every worker
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dataflow/key_index.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

ShuffleKey IntKey(int64_t i) {
  ShuffleKey key;
  key.i = i;
  return key;
}

ShuffleKey StringKey(const std::string& s) {
  ShuffleKey key;
  key.is_string = true;
  key.s = s;
  return key;
}

size_t HashOf(const ShuffleKey& key) { return ShuffleKey::Hash()(key); }

uint32_t Insert(KeyIndex& index, const ShuffleKey& key, size_t hash, bool want_inserted) {
  bool inserted = !want_inserted;
  const uint32_t id = index.Insert(key, hash, &inserted);
  EXPECT_EQ(inserted, want_inserted);
  return id;
}

TEST(KeyIndexTest, IdsAreDenseInFirstSeenOrder) {
  KeyIndex index;
  const int64_t keys[] = {42, -7, 42, 0, 1000000007, -7, 0, 5};
  std::vector<int64_t> first_seen;
  for (int64_t k : keys) {
    const bool fresh = std::find(first_seen.begin(), first_seen.end(), k) == first_seen.end();
    const uint32_t id = Insert(index, IntKey(k), HashOf(IntKey(k)), fresh);
    if (fresh) {
      first_seen.push_back(k);
    }
    EXPECT_EQ(id, std::find(first_seen.begin(), first_seen.end(), k) - first_seen.begin());
  }
  ASSERT_EQ(index.size(), first_seen.size());
  for (uint32_t id = 0; id < first_seen.size(); ++id) {
    EXPECT_EQ(index.key(id), IntKey(first_seen[id]));
    EXPECT_EQ(index.Find(IntKey(first_seen[id]), HashOf(IntKey(first_seen[id]))), id);
  }
}

TEST(KeyIndexTest, MissingKeyProbeInsertsNothing) {
  KeyIndex index;
  EXPECT_EQ(index.Find(IntKey(1), HashOf(IntKey(1))), KeyIndex::kNotFound);  // never grown
  Insert(index, IntKey(1), HashOf(IntKey(1)), true);
  for (int64_t k = 2; k < 100; ++k) {
    EXPECT_EQ(index.Find(IntKey(k), HashOf(IntKey(k))), KeyIndex::kNotFound) << k;
  }
  EXPECT_EQ(index.Find(StringKey("1"), HashOf(StringKey("1"))), KeyIndex::kNotFound);
  EXPECT_EQ(index.size(), 1u);
  // The missed key still becomes the next id once inserted.
  EXPECT_EQ(Insert(index, IntKey(2), HashOf(IntKey(2)), true), 1u);
}

// Every key hashed to one value: each probe walks one long run of occupied
// slots, and growth from 16 slots through several doublings re-places the
// run without losing or reordering an id.
TEST(KeyIndexTest, CollidingHashesSurviveGrowth) {
  for (const size_t hash : {size_t{0}, size_t{42}, ~size_t{0}}) {
    KeyIndex index;
    const int64_t n = 300;  // 16 -> 1024 slots: six rehashes
    for (int64_t k = 0; k < n; ++k) {
      EXPECT_EQ(Insert(index, IntKey(k * 7919), hash, true), static_cast<uint32_t>(k));
      EXPECT_EQ(Insert(index, IntKey(k * 7919), hash, false), static_cast<uint32_t>(k));
    }
    for (int64_t k = 0; k < n; ++k) {
      EXPECT_EQ(index.Find(IntKey(k * 7919), hash), static_cast<uint32_t>(k)) << hash;
      EXPECT_EQ(index.Find(IntKey(k * 7919 + 1), hash), KeyIndex::kNotFound) << hash;
    }
    EXPECT_EQ(index.size(), static_cast<size_t>(n));
  }
}

// Integer and string keys never meet, even when an int key equals a string
// key's `i` and both arrive with the same hash; equal strings always do.
TEST(KeyIndexTest, IntAndStringKeysStayApart) {
  KeyIndex index;
  ShuffleKey word = StringKey("w5");
  word.i = 5;
  const size_t hash = HashOf(IntKey(5));
  EXPECT_EQ(Insert(index, IntKey(5), hash, true), 0u);
  EXPECT_EQ(Insert(index, word, hash, true), 1u);
  EXPECT_EQ(Insert(index, StringKey(""), HashOf(StringKey("")), true), 2u);
  EXPECT_EQ(Insert(index, IntKey(0), HashOf(IntKey(0)), true), 3u);
  for (int r = 0; r < 200; ++r) {
    const ShuffleKey s = StringKey("key-" + std::to_string(r % 50));
    EXPECT_EQ(Insert(index, s, HashOf(s), r < 50), 4u + static_cast<uint32_t>(r % 50));
  }
  EXPECT_EQ(index.Find(IntKey(5), hash), 0u);
  EXPECT_EQ(index.Find(word, hash), 1u);
  EXPECT_EQ(index.Find(StringKey("w5"), hash), KeyIndex::kNotFound);  // i differs
  EXPECT_EQ(index.key(1).s, "w5");
  EXPECT_EQ(index.size(), 54u);
}

TEST(KeyIndexTest, ClearDropsEveryGroup) {
  KeyIndex index;
  for (int64_t k = 0; k < 40; ++k) {
    Insert(index, IntKey(k), HashOf(IntKey(k)), true);
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(IntKey(3), HashOf(IntKey(3))), KeyIndex::kNotFound);
  EXPECT_EQ(Insert(index, IntKey(39), HashOf(IntKey(39)), true), 0u);
  EXPECT_EQ(Insert(index, IntKey(3), HashOf(IntKey(3)), true), 1u);
}

// Left: 120 records over 6 keys, each value its own index, so an output
// record (key, left value + right value) shows which left record it joined.
// Right: 50 records over 8 keys (two never match). Each right record joins
// its key's 20 left records in the order they arrived at the build side.
std::vector<uint8_t> RunJoin(EngineMode mode, int workers) {
  EngineConfig config = SparkWith(workers);
  config.execution.mode = mode;
  SparkJob job(config);
  const DatasetPtr left = job.engine.Source(job.pair, 120, [](int64_t i, RecordWriter& w) {
    w.I64(i % 6);
    w.F64(static_cast<double>(i));
  });
  const DatasetPtr right = job.engine.Source(job.pair, 50, [](int64_t i, RecordWriter& w) {
    w.I64(i % 8);
    w.F64(1000.0 * static_cast<double>(i + 1));
  });
  const DatasetPtr out = job.engine.JoinByKey(left, KeySpec{job.get_key, false}, right,
                                              KeySpec{job.get_key, false}, job.udfs,
                                              job.sum_values, job.pair);
  EXPECT_EQ(out->TotalRecords(), 20 * 38) << workers;  // 12 right records have key 6 or 7
  return OutputBytes(job.engine, out);
}

TEST(KeyIndexTest, JoinKeepsDuplicateBuildKeysInArrivalOrder) {
  const std::vector<uint8_t> oracle = RunJoin(EngineMode::kBaseline, 1);
  ASSERT_FALSE(oracle.empty());
  for (int workers : {1, 2, 4, 8}) {
    EXPECT_EQ(RunJoin(EngineMode::kGerenuk, workers), oracle) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace gerenuk
