// Signature-keyed cache of compiled SER artifacts: the transformed program
// and its flat SerPlan, so a repeat submission of the same logical job skips
// both the speculative transform and CompilePlan entirely.
//
// The key is a canonical program signature (see ComputeProgramSignature in
// src/dataflow/stage_compiler.h): engine mode + the layouts of every klass
// the stage touches + the printed original program. Lookups match on the
// full signature text — the FNV hash is a fast reject, never trusted alone —
// so two distinct programs can never alias an entry.
//
// A cache instance is bound to ONE engine: cached programs hold Klass*,
// Function*, and offset-expression ids that only mean something inside the
// engine that compiled them. A service pooling several engines keeps one
// PlanCache per engine and aggregates the Stats across them.
//
// Eviction is LRU under a byte budget (estimated: statements + plan ops +
// key text). Thread-safe: a service dispatcher and the engine thread may
// race Lookup/Insert.
#ifndef SRC_EXEC_PLAN_CACHE_H_
#define SRC_EXEC_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace gerenuk {

class SerPlan;
struct SerProgram;
struct Function;

// Canonical identity of a compiled SER: `text` is the exact-match key,
// `hash` its SealDigest (used for fast rejects and as the per-SER key of
// abort-rate histories — see SpeculationOracle in spark.h).
struct ProgramSignature {
  uint64_t hash = 0;
  std::string text;

  bool valid() const { return !text.empty(); }
};

class PlanCache {
 public:
  struct Entry {
    std::shared_ptr<const SerProgram> transformed;
    std::shared_ptr<const SerPlan> plan;       // may be null (plan compiler off)
    const Function* fast_fn = nullptr;         // single-function entries only
    const Function* acc_fn = nullptr;          // fast_fn's accumulate form, if any
    size_t bytes = 0;                          // filled by Insert
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t insertions = 0;
    int64_t bytes = 0;    // current estimated footprint
    int64_t entries = 0;  // current entry count
  };

  explicit PlanCache(size_t budget_bytes = 64u << 20) : budget_bytes_(budget_bytes) {}

  // On hit: copies the entry into `*out`, bumps the entry to most-recent,
  // counts a hit, returns true. On miss: counts a miss, returns false.
  bool Lookup(const ProgramSignature& sig, Entry* out);

  // Inserts (or replaces) the entry for `sig`, then evicts least-recently
  // used entries until the estimated footprint fits the byte budget. An
  // entry larger than the whole budget is inserted and immediately becomes
  // the only resident entry candidate — it is evicted by the next insert.
  void Insert(const ProgramSignature& sig, Entry entry);

  Stats stats() const;
  size_t budget_bytes() const { return budget_bytes_; }
  void Clear();

  // Estimated resident footprint of a cached program/plan, used for the
  // byte budget. Deliberately rough (structs + containers, not allocator
  // overhead): the budget bounds growth, it is not an accountant.
  static size_t EstimateBytes(const std::string& key, const SerProgram* transformed,
                              const SerPlan* plan);

 private:
  // front = most recently used.
  using LruList = std::list<std::pair<std::string, Entry>>;

  void EvictToBudgetLocked();

  mutable std::mutex mu_;
  size_t budget_bytes_;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> index_;
  Stats stats_;
};

}  // namespace gerenuk

#endif  // SRC_EXEC_PLAN_CACHE_H_
