#include "src/nativebuf/record_writer.h"

#include <cstring>
#include <limits>

namespace gerenuk {

namespace {
constexpr size_t kNoPrefix = SIZE_MAX;
// Deeper than any layout the analyzer accepts; stops a self-referencing
// class from descending forever.
constexpr size_t kMaxDepth = 64;
}  // namespace

void RecordWriter::Open(const Klass* klass) {
  root_ = klass;
  out_.clear();
  frames_.assign(1, Frame{nullptr, nullptr, 0, 1, kNoPrefix});
  Settle();
}

std::span<const uint8_t> RecordWriter::Close() {
  GERENUK_CHECK(frames_.size() == 1 && frames_[0].next == 1)
      << "record of " << root_->name() << " closed with fields missing: next is " << Where();
  GERENUK_CHECK_LE(out_.size(), std::numeric_limits<uint32_t>::max())
      << "record of " << root_->name() << " does not fit the u32 size prefix";
  return out_;
}

void RecordWriter::Put(FieldKind kind, bool array, const void* data, size_t n) {
  const Klass* target = nullptr;
  const FieldKind slot = Slot(&target);
  GERENUK_CHECK(array ? slot == FieldKind::kRef && target->is_array() &&
                            target->element_kind() == kind
                      : slot == kind)
      << Where() << " is " << (target != nullptr ? target->name() : FieldKindName(slot))
      << ", not " << (array ? "an array of " : "") << FieldKindName(kind);
  GERENUK_CHECK_LE(n, static_cast<size_t>(std::numeric_limits<int32_t>::max()))
      << "array length of " << Where() << " does not fit the format's i32";
  const size_t size_pos = BeginValue();
  if (array) {
    const int32_t length = static_cast<int32_t>(n);
    Append(&length, sizeof(length));
  }
  if (kind == FieldKind::kRef) {
    frames_.push_back({target, nullptr, 0, static_cast<int64_t>(n), size_pos});  // elements come next
  } else {
    Append(data, n * static_cast<size_t>(FieldKindSize(kind)));
    EndValue(size_pos);
    frames_.back().next += 1;
  }
  Settle();
}

void RecordWriter::BeginArray(int64_t length) {
  GERENUK_CHECK_GE(length, 0) << "array length of " << Where();
  Put(FieldKind::kRef, true, nullptr, static_cast<size_t>(length));
}

size_t RecordWriter::BeginValue() {
  const Klass* klass = frames_.back().klass;
  if (klass == nullptr || !klass->is_array() || KlassHasFixedInlineSize(klass->element_klass())) {
    return kNoPrefix;
  }
  out_.resize(out_.size() + sizeof(uint32_t));
  return out_.size() - sizeof(uint32_t);
}

void RecordWriter::EndValue(size_t size_pos) {
  if (size_pos != kNoPrefix) {
    const uint32_t size = static_cast<uint32_t>(out_.size() - size_pos - sizeof(uint32_t));
    std::memcpy(out_.data() + size_pos, &size, sizeof(size));
  }
}

void RecordWriter::Settle() {
  while (true) {
    Frame& frame = frames_.back();
    if (frame.next == frame.count) {
      if (frames_.size() == 1) {
        return;  // the record is complete; Close checks this
      }
      EndValue(frame.size_pos);
      frames_.pop_back();
      frames_.back().next += 1;
      continue;
    }
    const Klass* target = nullptr;
    if (Slot(&target) != FieldKind::kRef || target->is_array()) {
      return;
    }
    GERENUK_CHECK_LT(frames_.size(), kMaxDepth) << "record of " << root_->name() << " nests too deep";
    const size_t size_pos = BeginValue();
    frames_.push_back({target, target->fields().data(), 0,
                       static_cast<int64_t>(target->fields().size()), size_pos});
  }
}

FieldKind RecordWriter::Slot(const Klass** target) const {
  const Frame& frame = frames_.back();
  GERENUK_CHECK(frame.next < frame.count)
      << "record of " << root_->name() << " is complete; nothing is left to write";
  if (frame.fields == nullptr) {
    *target = frame.klass == nullptr ? root_ : frame.klass->element_klass();
    return FieldKind::kRef;
  }
  const FieldInfo& field = frame.fields[frame.next];
  *target = field.target;
  return field.kind;
}

std::string RecordWriter::Where() const {
  std::string where;
  for (size_t d = frames_.size(); d-- > 1;) {  // innermost first; the root slot adds nothing
    const Frame& frame = frames_[d];
    where += where.empty() ? "" : " in ";
    where += frame.klass->is_array() ? "element " + std::to_string(frame.next) + " of " +
                                           std::to_string(frame.count)
                                     : "field " + frame.klass->field(static_cast<int>(frame.next)).name;
    where += " of " + frame.klass->name();
  }
  return where.empty() ? "the record of " + root_->name() : where;
}

}  // namespace gerenuk
