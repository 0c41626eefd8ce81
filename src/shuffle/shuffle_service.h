// The shuffle service: a driver-owned exchange of sealed NativePartition
// blocks between a map-side stage and its consumers, with optional spilling.
//
// Design (see DESIGN.md "Process model & shuffle service"):
//   * Producers never talk to consumers directly. Map output partitions are
//     handed to the driver at the stage barrier (Add, in task-major order,
//     so every spill decision and counter is deterministic for any worker
//     count), and consumers open their bucket on demand (OpenBucket).
//   * Resident by default — spill_threshold_bytes <= 0 keeps every block in
//     memory with zero copies, preserving the seed's zero-serialization
//     shuffle. With a positive threshold, blocks past the resident budget
//     are serialized to wire form, optionally compressed, sealed with
//     SealDigest over the stored bytes, and appended to an unlinked spill file.
//   * Fetch-on-demand with bounded credit — a consumer acquires credit for
//     the raw bytes of its bucket's spilled blocks before fetching, so the
//     total fetched-and-resident memory across concurrent consumers is
//     bounded by fetch_budget_bytes; a slow consumer therefore cannot OOM
//     the process. An oversized bucket is admitted when the gate is idle,
//     and a grace timeout converts potential hold-and-wait deadlocks (a
//     join holding one side open while fetching the other) into bounded
//     over-admission. Both paths count fetch_backpressure_waits.
//   * Every fetched block is verified against its seal and parsed with the
//     hardened wire parser; corruption of any kind — flipped disk bytes,
//     truncated blocks, malformed frames — surfaces as the quarantinable
//     TaskError{kCorruptInput}, never as a crash.
//   * A bucket read touching two or more spilled blocks is an external
//     merge of spilled runs (blocks replay in producer order, which is how
//     the resident path iterates too); spill_merges counts them.
#ifndef SRC_SHUFFLE_SHUFFLE_SERVICE_H_
#define SRC_SHUFFLE_SHUFFLE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/nativebuf/native_buffer.h"
#include "src/shuffle/spill_file.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace gerenuk {

struct ShuffleConfig {
  // <= 0: never spill (every block stays resident — the seed behavior).
  // > 0: blocks beyond this many resident bytes spill to disk.
  int64_t spill_threshold_bytes = 0;
  bool compress = true;  // LZ-compress spilled blocks (stored fallback)
  // Credit budget over the raw (decompressed) bytes of concurrently open
  // spilled-bucket fetches. <= 0 disables backpressure.
  int64_t fetch_budget_bytes = 16ll << 20;
  // Liveness escape hatch: a fetch blocked on credit proceeds over budget
  // after this many ms instead of risking hold-and-wait deadlock. <= 0
  // waits forever.
  int64_t backpressure_grace_ms = 50;
  std::string spill_dir;  // "" = $TMPDIR or /tmp
  MemoryTracker* tracker = nullptr;
};

// Bounded-credit gate over in-flight fetched bytes.
class CreditGate {
 public:
  CreditGate(int64_t budget_bytes, int64_t grace_ms)
      : budget_(budget_bytes), grace_ms_(grace_ms) {}

  // Blocks until `bytes` fits (or the gate is idle — an oversized request
  // must not wait forever — or the grace period elapses). Returns true if
  // the caller waited at all.
  bool Acquire(int64_t bytes);
  void Release(int64_t bytes);

  int64_t inflight() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t budget_;
  int64_t grace_ms_;
  int64_t inflight_ = 0;
};

// One opened bucket: stable views over resident blocks plus ownership of
// the blocks fetched from disk, holding their fetch credit until destroyed.
// Record addresses obtained through parts() / ForEachRecord stay valid for
// the reader's lifetime (a join holds the build side's reader open while
// streaming the probe side).
class BucketReader {
 public:
  BucketReader() = default;
  BucketReader(BucketReader&& other) noexcept;
  BucketReader& operator=(BucketReader&&) = delete;
  BucketReader(const BucketReader&) = delete;
  BucketReader& operator=(const BucketReader&) = delete;
  ~BucketReader();

  // Partitions of this bucket, in producer order.
  const std::vector<const NativePartition*>& parts() const { return parts_; }

  // Every record of the bucket, in producer order then record order —
  // byte-identical to iterating the resident blocks directly.
  void ForEachRecord(const std::function<void(int64_t addr, uint32_t size)>& fn) const;

 private:
  friend class ShuffleRun;
  std::vector<const NativePartition*> parts_;
  std::vector<NativePartition> owned_;  // fetched blocks (reserved, stable)
  CreditGate* gate_ = nullptr;
  int64_t credit_bytes_ = 0;
};

// One shuffle exchange: `producers` map tasks each contributing up to one
// block per bucket, `buckets` reduce-side consumers. Add is driver-side and
// single-threaded; OpenBucket is safe from concurrent reduce tasks (and
// from forked executor children sharing the inherited spill-file fd).
class ShuffleRun {
 public:
  ShuffleRun(int producers, int buckets, const ShuffleConfig& config);

  // Takes ownership of one map-output partition. Must be called at the
  // stage barrier in task-major order; spill decisions depend on the
  // cumulative resident size, so the order is part of the determinism
  // contract. Spill counters land in `stats` (the driver's); `sink`, when
  // non-null, gets a kSpillBytes counter event per spilled block.
  void Add(int producer, int bucket, NativePartition&& part, EngineStats* stats,
           TraceSink* sink = nullptr);

  // Opens a bucket for reading: acquires fetch credit, fetches + verifies +
  // parses any spilled blocks, and returns a reader holding it all. Fetch
  // counters land in `stats` (the calling task's, so process-mode children
  // ship them home over the wire). Throws TaskError{kCorruptInput} when a
  // spilled block fails its seal, fails to decompress, or fails to parse.
  BucketReader OpenBucket(int bucket, EngineStats* stats, TraceSink* sink = nullptr) const;

  // Convenience: OpenBucket + ForEachRecord, for consumers that stream.
  void ForEachRecordInBucket(int bucket, EngineStats* stats, TraceSink* sink,
                             const std::function<void(int64_t addr, uint32_t size)>& fn) const;

  int num_buckets() const { return static_cast<int>(bucket_blocks_.size()); }
  int64_t resident_bytes() const { return resident_bytes_; }
  int64_t spilled_blocks() const { return spilled_blocks_; }

  // Test hook: flips one stored byte of the `ordinal`-th spilled block (in
  // bucket-major order), so corruption tests hit genuine on-disk rot.
  void CorruptStoredByteForTest(int64_t ordinal);

 private:
  struct Block {
    int producer = 0;
    bool spilled = false;
    NativePartition resident;     // valid when !spilled
    int64_t offset = 0;           // spill-file offset of the stored bytes
    uint32_t stored_size = 0;     // on-disk size (post-compression)
    uint32_t raw_size = 0;        // wire size (pre-compression)
    uint64_t seal = 0;            // SealDigest over the stored bytes
  };

  ShuffleConfig config_;
  std::vector<std::vector<Block>> bucket_blocks_;  // [bucket] in producer order
  int64_t resident_bytes_ = 0;
  int64_t spilled_blocks_ = 0;
  mutable SpillFile file_;
  mutable CreditGate gate_;
};

}  // namespace gerenuk

#endif  // SRC_SHUFFLE_SHUFFLE_SERVICE_H_
