// Native buffers: task-scoped regions of inlined records.
//
// A NativePartition is the Gerenuk runtime's unit of data: the input a SER
// reads (bytes that arrived from the "network" or "disk") and the output it
// produces. Records are stored back-to-back as [size:u32][body]; addresses
// handed to the transformed program are raw pointers to record *bodies*, so
// readNative(addr, offset, n) is a plain memory read and the record's size
// field sits at addr - 4.
//
// Storage is chunked so record addresses stay stable while the partition
// grows, and the whole partition is freed at once when the task finishes —
// the paper's region-based memory management for data objects: "we can
// safely release the buffer as a whole at the end of the task without even
// needing to scan the items".
#ifndef SRC_NATIVEBUF_NATIVE_BUFFER_H_
#define SRC_NATIVEBUF_NATIVE_BUFFER_H_

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/analysis/layout.h"
#include "src/support/bytes.h"
#include "src/support/metrics.h"

namespace gerenuk {

// Thrown by NativePartition::Parse when the wire bytes are structurally
// malformed: truncated stream, length prefix larger than the remaining
// bytes, missing checksum trailer. Defined here (not next to TaskError)
// because nativebuf sits below exec in the layering; exec/shuffle callers
// catch it at the decode boundary and reclassify as
// TaskError(kCorruptInput) so a hostile byte stream fails closed instead
// of crashing the process on a bounds check.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what) : std::runtime_error(what) {}
};

class NativePartition {
 public:
  // `tracker`, when given, sees allocations/frees so engine-level peak
  // memory (heap + native) can be reported like the paper's pmap numbers.
  // Bytes are reported in batches, not per record: whenever a chunk opens
  // (the record that opened it included) and at Seal, Parse, Release and
  // move. So the tracker is exact at every stage barrier, and in between it
  // reads low by less than one chunk per partition still growing.
  explicit NativePartition(MemoryTracker* tracker = nullptr);
  ~NativePartition();
  NativePartition(NativePartition&& other) noexcept;
  NativePartition& operator=(NativePartition&& other) noexcept;
  NativePartition(const NativePartition&) = delete;
  NativePartition& operator=(const NativePartition&) = delete;

  // Appends one record; returns the address of its body.
  int64_t AppendRecord(const uint8_t* body, uint32_t body_size);
  // Reserves an uninitialized record slot (the builder renders into it).
  uint8_t* ReserveRecord(uint32_t body_size, int64_t* body_addr);

  size_t record_count() const { return records_.size(); }
  int64_t record_addr(size_t i) const { return records_[i]; }
  uint32_t record_size(size_t i) const;
  const std::vector<int64_t>& records() const { return records_; }
  int64_t bytes_used() const { return bytes_used_; }

  // --- Integrity (see DESIGN.md "Fault model & recovery") ---
  // A partition is sealed when its producer commits it: Seal records a
  // checksum over every record's size and body. Consumers verify at the
  // stage-input boundary; a mismatch means the bytes rotted after commit —
  // an error no re-execution can repair. Appending unseals.
  void Seal();
  bool sealed() const { return sealed_; }
  uint64_t checksum() const { return checksum_; }
  // True if the partition is unsealed or its bytes still match the seal.
  bool VerifyChecksum() const;

  // Shuffle-wire form: [count:u32]([size:u32][body])*[checksum:u64]. Writing
  // and parsing are byte copies — the native format IS the wire format,
  // which is why Gerenuk pays no serialization at shuffle boundaries. The
  // trailing checksum carries the integrity seal across the wire: Parse
  // returns a sealed partition (verified lazily at stage input, not here).
  // Parse validates the structure before touching any record — a truncated
  // stream, an oversized length prefix, or a missing trailer throws
  // WireFormatError rather than tripping a fatal bounds check.
  void SerializeTo(ByteBuffer& out) const;
  static NativePartition Parse(ByteReader& in, MemoryTracker* tracker = nullptr);

  // Frees every chunk (the whole-region deallocation of §3.6).
  void Release();

 private:
  static constexpr size_t kChunkSize = 256 * 1024;
  uint8_t* Allocate(size_t n);
  // Reports bytes_used_ - tracked_bytes_ to the tracker.
  void FlushTracker();
  uint64_t ComputeChecksum() const;

  MemoryTracker* tracker_ = nullptr;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  size_t chunk_used_ = 0;       // bytes used in the last chunk
  size_t chunk_capacity_ = 0;   // capacity of the last chunk
  int64_t bytes_used_ = 0;
  int64_t tracked_bytes_ = 0;     // the part of bytes_used_ the tracker has seen
  std::vector<int64_t> records_;  // body addresses
  bool sealed_ = false;
  uint64_t checksum_ = 0;
};

// ---------------------------------------------------------------------------
// Reads over committed (in-partition) record bytes
// ---------------------------------------------------------------------------

inline int32_t NativeReadI32(int64_t addr) {
  int32_t v;
  std::memcpy(&v, reinterpret_cast<const uint8_t*>(addr), sizeof(v));
  return v;
}

// Reads a field of the given kind at `addr + offset`, widened to a Value-
// compatible representation (integers sign-extended to i64, f32 to f64).
int64_t NativeReadInt(int64_t addr, int64_t offset, FieldKind kind);
double NativeReadFloat(int64_t addr, int64_t offset, FieldKind kind);
void NativeWriteInt(int64_t addr, int64_t offset, FieldKind kind, int64_t value);
void NativeWriteFloat(int64_t addr, int64_t offset, FieldKind kind, double value);

// resolveOffset (§3.6): evaluates a symbolic offset expression against the
// record at `base`, reading array lengths out of the record itself. This is
// a direct recursion over the expression tree (no callback indirection) —
// it sits on the fast path's every symbolic-offset access.
int64_t ResolveOffset(const ExprPool& pool, int expr_id, int64_t base);

// Byte size of the committed record body of class `klass` at `addr`.
// Fixed-size classes are O(1); affine classes evaluate their size
// expression; open-ended classes walk the structure.
int64_t MeasureCommittedBody(const DataStructAnalyzer& layouts, const Klass* klass, int64_t addr);

// Address of element `index` of the committed array at `addr` (layout
// [len:i32][elements]); for variable-size record elements this walks the
// per-element size prefixes and returns the element body address.
int64_t CommittedArrayElemAddr(const DataStructAnalyzer& layouts, const Klass* array_klass,
                               int64_t addr, int64_t index);

}  // namespace gerenuk

#endif  // SRC_NATIVEBUF_NATIVE_BUFFER_H_
