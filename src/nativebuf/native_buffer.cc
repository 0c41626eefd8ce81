#include "src/nativebuf/native_buffer.h"

#include <string>

#include "src/support/fnv.h"

namespace gerenuk {

NativePartition::NativePartition(MemoryTracker* tracker) : tracker_(tracker) {}

NativePartition::~NativePartition() { Release(); }

NativePartition::NativePartition(NativePartition&& other) noexcept { *this = std::move(other); }

NativePartition& NativePartition::operator=(NativePartition&& other) noexcept {
  if (this != &other) {
    Release();
    tracker_ = other.tracker_;
    chunks_ = std::move(other.chunks_);
    chunk_used_ = other.chunk_used_;
    chunk_capacity_ = other.chunk_capacity_;
    other.FlushTracker();
    bytes_used_ = other.bytes_used_;
    tracked_bytes_ = other.tracked_bytes_;
    records_ = std::move(other.records_);
    sealed_ = other.sealed_;
    checksum_ = other.checksum_;
    other.chunks_.clear();
    other.chunk_used_ = 0;
    other.chunk_capacity_ = 0;
    other.bytes_used_ = 0;
    other.tracked_bytes_ = 0;
    other.records_.clear();
    other.sealed_ = false;
    other.checksum_ = 0;
  }
  return *this;
}

void NativePartition::Release() {
  if (tracker_ != nullptr && tracked_bytes_ > 0) {
    tracker_->Freed(tracked_bytes_);
  }
  chunks_.clear();
  chunk_used_ = 0;
  chunk_capacity_ = 0;
  bytes_used_ = 0;
  tracked_bytes_ = 0;
  records_.clear();
  sealed_ = false;
  checksum_ = 0;
}

void NativePartition::FlushTracker() {
  if (tracker_ != nullptr && bytes_used_ > tracked_bytes_) {
    tracker_->Allocated(bytes_used_ - tracked_bytes_);
    tracked_bytes_ = bytes_used_;
  }
}

uint8_t* NativePartition::Allocate(size_t n) {
  const bool open_chunk = chunk_capacity_ - chunk_used_ < n;
  if (open_chunk) {
    // Every byte of the chunk is written before it is read (records are
    // copied or rendered in whole), so skip the zero fill.
    size_t capacity = n > kChunkSize ? n : kChunkSize;
    chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(capacity));
    chunk_used_ = 0;
    chunk_capacity_ = capacity;
  }
  uint8_t* result = chunks_.back().get() + chunk_used_;
  chunk_used_ += n;
  bytes_used_ += static_cast<int64_t>(n);
  if (open_chunk) {
    FlushTracker();  // the new record included
  }
  return result;
}

uint8_t* NativePartition::ReserveRecord(uint32_t body_size, int64_t* body_addr) {
  sealed_ = false;  // mutation invalidates the integrity seal
  uint8_t* slot = Allocate(4 + static_cast<size_t>(body_size));
  std::memcpy(slot, &body_size, sizeof(body_size));
  *body_addr = reinterpret_cast<int64_t>(slot + 4);
  records_.push_back(*body_addr);
  return slot + 4;
}

int64_t NativePartition::AppendRecord(const uint8_t* body, uint32_t body_size) {
  int64_t addr = 0;
  uint8_t* dst = ReserveRecord(body_size, &addr);
  std::memcpy(dst, body, body_size);
  return addr;
}

uint32_t NativePartition::record_size(size_t i) const {
  uint32_t size;
  std::memcpy(&size, reinterpret_cast<const uint8_t*>(records_[i]) - 4, sizeof(size));
  return size;
}

uint64_t NativePartition::ComputeChecksum() const {
  // The seal hash over each record's size prefix and body, which sit
  // back-to-back in the chunk, so one Update covers both (shared helper so
  // the shuffle service's spill-block seals use the identical hash). Linear
  // in the bytes, paid once at commit and once per stage read.
  SealHash h;
  for (size_t i = 0; i < records_.size(); ++i) {
    h.Update(reinterpret_cast<const uint8_t*>(records_[i]) - 4, 4 + size_t{record_size(i)});
  }
  return h.digest();
}

void NativePartition::Seal() {
  FlushTracker();
  checksum_ = ComputeChecksum();
  sealed_ = true;
}

bool NativePartition::VerifyChecksum() const {
  return !sealed_ || ComputeChecksum() == checksum_;
}

void NativePartition::SerializeTo(ByteBuffer& out) const {
  out.WriteU32(static_cast<uint32_t>(records_.size()));
  for (size_t i = 0; i < records_.size(); ++i) {
    uint32_t size = record_size(i);
    out.WriteU32(size);
    out.WriteBytes(reinterpret_cast<const uint8_t*>(records_[i]), size);
  }
  out.WriteU64(sealed_ ? checksum_ : ComputeChecksum());
}

NativePartition NativePartition::Parse(ByteReader& in, MemoryTracker* tracker) {
  // Every length is validated against the reader's remaining bytes BEFORE the
  // corresponding read, because ByteReader treats a bounds overrun as a fatal
  // programming error (GERENUK_CHECK). Wire bytes come from the network /
  // spill files / another process, so malformed input must throw a catchable
  // WireFormatError — fail closed, never crash. The checks are conservative
  // when several partitions are concatenated in one stream: `remaining` only
  // grows with trailing content, so a well-formed prefix always passes.
  NativePartition partition(tracker);
  if (in.remaining() < 4) {
    throw WireFormatError("native partition wire bytes truncated before record count");
  }
  uint32_t count = in.ReadU32();
  // Each record needs at least a 4-byte size prefix, plus the 8-byte trailer.
  if (static_cast<uint64_t>(count) * 4 + 8 > in.remaining()) {
    throw WireFormatError("native partition record count " + std::to_string(count) +
                          " exceeds the remaining wire bytes");
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (in.remaining() < 4) {
      throw WireFormatError("native partition wire bytes truncated at record " +
                            std::to_string(i) + " size prefix");
    }
    uint32_t size = in.ReadU32();
    // The body plus this partition's 8-byte checksum trailer must still fit.
    if (static_cast<uint64_t>(size) + 8 > in.remaining()) {
      throw WireFormatError("native partition record " + std::to_string(i) +
                            " length prefix " + std::to_string(size) +
                            " overruns the remaining wire bytes");
    }
    int64_t addr = 0;
    uint8_t* dst = partition.ReserveRecord(size, &addr);
    in.ReadBytes(dst, size);
  }
  if (in.remaining() < 8) {
    throw WireFormatError("native partition wire bytes truncated before checksum trailer");
  }
  // Adopt the sender's seal; verification is deferred to the stage-input
  // boundary so a mismatch surfaces as a quarantinable TaskError, not a
  // parse crash.
  partition.checksum_ = in.ReadU64();
  partition.sealed_ = true;
  partition.FlushTracker();
  return partition;
}

// ---------------------------------------------------------------------------

int64_t NativeReadInt(int64_t addr, int64_t offset, FieldKind kind) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(addr + offset);
  switch (kind) {
    case FieldKind::kBool:
    case FieldKind::kI8: {
      int8_t v;
      std::memcpy(&v, p, sizeof(v));
      return v;
    }
    case FieldKind::kI16:
    case FieldKind::kChar: {
      int16_t v;
      std::memcpy(&v, p, sizeof(v));
      return v;
    }
    case FieldKind::kI32: {
      int32_t v;
      std::memcpy(&v, p, sizeof(v));
      return v;
    }
    case FieldKind::kI64:
    case FieldKind::kRef: {
      int64_t v;
      std::memcpy(&v, p, sizeof(v));
      return v;
    }
    default:
      GERENUK_CHECK(false) << "NativeReadInt on float kind";
      return 0;
  }
}

double NativeReadFloat(int64_t addr, int64_t offset, FieldKind kind) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(addr + offset);
  if (kind == FieldKind::kF32) {
    float v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  GERENUK_CHECK(kind == FieldKind::kF64);
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void NativeWriteInt(int64_t addr, int64_t offset, FieldKind kind, int64_t value) {
  uint8_t* p = reinterpret_cast<uint8_t*>(addr + offset);
  switch (kind) {
    case FieldKind::kBool:
    case FieldKind::kI8: {
      int8_t v = static_cast<int8_t>(value);
      std::memcpy(p, &v, sizeof(v));
      return;
    }
    case FieldKind::kI16:
    case FieldKind::kChar: {
      int16_t v = static_cast<int16_t>(value);
      std::memcpy(p, &v, sizeof(v));
      return;
    }
    case FieldKind::kI32: {
      int32_t v = static_cast<int32_t>(value);
      std::memcpy(p, &v, sizeof(v));
      return;
    }
    case FieldKind::kI64: {
      std::memcpy(p, &value, sizeof(value));
      return;
    }
    default:
      GERENUK_CHECK(false) << "NativeWriteInt on float kind";
  }
}

void NativeWriteFloat(int64_t addr, int64_t offset, FieldKind kind, double value) {
  uint8_t* p = reinterpret_cast<uint8_t*>(addr + offset);
  if (kind == FieldKind::kF32) {
    float v = static_cast<float>(value);
    std::memcpy(p, &v, sizeof(v));
    return;
  }
  GERENUK_CHECK(kind == FieldKind::kF64);
  std::memcpy(p, &value, sizeof(value));
}

int64_t ResolveOffset(const ExprPool& pool, int expr_id, int64_t base) {
  // Expressions proven constant by ExprPool::FoldConstants() skip the tree
  // walk entirely (most fixed-size-class offsets land here).
  int64_t folded = 0;
  if (pool.FoldedConstant(expr_id, &folded)) {
    return folded;
  }
  const SizeExpr& expr = pool.Get(expr_id);
  int64_t result = expr.constant;
  for (const SizeExpr::Term& term : expr.terms) {
    if (term.scale == 0) {
      continue;
    }
    int64_t length_offset = ResolveOffset(pool, term.length_at, base);
    result += term.scale * static_cast<int64_t>(NativeReadI32(base + length_offset));
  }
  return result;
}

int64_t MeasureCommittedBody(const DataStructAnalyzer& layouts, const Klass* klass,
                             int64_t addr) {
  if (klass->is_array()) {
    int64_t len = NativeReadI32(addr);
    if (klass->element_kind() != FieldKind::kRef) {
      return 4 + len * klass->element_size();
    }
    const Klass* elem = klass->element_klass();
    const ClassLayout* elem_layout = layouts.LayoutOf(elem);
    GERENUK_CHECK(elem_layout != nullptr);
    if (elem_layout->fixed_size) {
      return 4 + len * elem_layout->const_size;
    }
    // Variable-size elements carry [size:u32] prefixes: walk them.
    int64_t off = 4;
    for (int64_t i = 0; i < len; ++i) {
      off += 4 + NativeReadI32(addr + off);
    }
    return off;
  }
  const ClassLayout* layout = layouts.LayoutOf(klass);
  GERENUK_CHECK(layout != nullptr) << klass->name();
  if (layout->fixed_size) {
    return layout->const_size;
  }
  if (layout->size_expr >= 0) {
    return ResolveOffset(layouts.pool(), layout->size_expr, addr);
  }
  // Open-ended: the last field is a variable-record array (or open child);
  // measure every field in turn.
  int64_t off = 0;
  for (size_t i = 0; i < klass->fields().size(); ++i) {
    const FieldInfo& field = klass->field(static_cast<int>(i));
    if (field.kind != FieldKind::kRef) {
      off += FieldKindSize(field.kind);
    } else {
      off += MeasureCommittedBody(layouts, field.target, addr + off);
    }
  }
  return off;
}

int64_t CommittedArrayElemAddr(const DataStructAnalyzer& layouts, const Klass* array_klass,
                               int64_t addr, int64_t index) {
  GERENUK_CHECK(array_klass->is_array());
  GERENUK_CHECK(array_klass->element_kind() == FieldKind::kRef);
  int64_t len = NativeReadI32(addr);
  GERENUK_CHECK(index >= 0 && index < len)
      << "native array index " << index << " out of bounds [0," << len << ")";
  const Klass* elem = array_klass->element_klass();
  const ClassLayout* elem_layout = layouts.LayoutOf(elem);
  GERENUK_CHECK(elem_layout != nullptr);
  if (elem_layout->fixed_size) {
    return addr + 4 + index * elem_layout->const_size;
  }
  int64_t off = 4;
  for (int64_t i = 0; i < index; ++i) {
    off += 4 + NativeReadI32(addr + off);
  }
  return addr + off + 4;  // skip this element's size prefix
}

}  // namespace gerenuk
