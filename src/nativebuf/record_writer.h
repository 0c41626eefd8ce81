// RecordWriter: how a source writes input records straight into the inline
// format, with no heap object and no serializer walk.
//
// The writer is a cursor over the record's flattened schema. It walks the
// klass's declared fields in order, as InlineSerializer::WriteBody does, and
// each call fills the next one:
//   * a primitive field takes one typed write (I32, F64, ...);
//   * a ref to a class descends into the target's fields, so the caller
//     writes the target's fields next (a String is written as its byte
//     array);
//   * a ref to a primitive array takes one Array(span) call: length, then
//     one bulk copy of the elements;
//   * a ref to a ref array takes BeginArray(length), then exactly `length`
//     element values; the writer emits and patches the per-element size
//     prefix of variable-size element classes.
// Every call checks, once per field, that the next expected field has the
// kind it writes, and that array lengths fit the format's i32. The checks
// are GERENUK_CHECKs, so they stay on in release builds. The bytes are the
// ones InlineSerializer::WriteRecord produces for the same data (a property
// test pins this), so the partition a source fills is the same either way.
#ifndef SRC_NATIVEBUF_RECORD_WRITER_H_
#define SRC_NATIVEBUF_RECORD_WRITER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/klass.h"

namespace gerenuk {

class RecordWriter {
 public:
  // Starts the body of one record of `klass`, discarding the previous one.
  void Open(const Klass* klass);
  // Checks that every field was written and that the body fits the u32 size
  // prefix, and returns the body (valid until the next Open).
  std::span<const uint8_t> Close();

  void Bool(bool v) { Put(FieldKind::kBool, false, &v, 1); }
  void I8(int8_t v) { Put(FieldKind::kI8, false, &v, 1); }
  void I16(int16_t v) { Put(FieldKind::kI16, false, &v, 1); }
  void Char(char16_t v) { Put(FieldKind::kChar, false, &v, 1); }
  void I32(int32_t v) { Put(FieldKind::kI32, false, &v, 1); }
  void I64(int64_t v) { Put(FieldKind::kI64, false, &v, 1); }
  void F32(float v) { Put(FieldKind::kF32, false, &v, 1); }
  void F64(double v) { Put(FieldKind::kF64, false, &v, 1); }

  // A whole primitive array: its length, then its elements in one copy.
  void Array(std::span<const bool> v) { Put(FieldKind::kBool, true, v.data(), v.size()); }
  void Array(std::span<const int8_t> v) { Put(FieldKind::kI8, true, v.data(), v.size()); }
  // A byte array from text (the value of a String).
  void Array(std::string_view v) { Put(FieldKind::kI8, true, v.data(), v.size()); }
  void Array(std::span<const int16_t> v) { Put(FieldKind::kI16, true, v.data(), v.size()); }
  void Array(std::span<const char16_t> v) { Put(FieldKind::kChar, true, v.data(), v.size()); }
  void Array(std::span<const int32_t> v) { Put(FieldKind::kI32, true, v.data(), v.size()); }
  void Array(std::span<const int64_t> v) { Put(FieldKind::kI64, true, v.data(), v.size()); }
  void Array(std::span<const float> v) { Put(FieldKind::kF32, true, v.data(), v.size()); }
  void Array(std::span<const double> v) { Put(FieldKind::kF64, true, v.data(), v.size()); }

  // A ref array of `length` elements; the next `length` values written are
  // its elements.
  void BeginArray(int64_t length);

 private:
  // One value under construction: the root slot, a class body, or a ref
  // array's elements. `next` counts the slots already written.
  struct Frame {
    const Klass* klass;        // nullptr for the root slot
    const FieldInfo* fields;   // the class's fields; nullptr for the others
    int64_t next;
    int64_t count;
    size_t size_pos;  // where this value's per-element size prefix sits
  };

  // Checks that the next slot holds `kind` (or, for `array`, is a ref to an
  // array of `kind` whose length `n` fits the format's i32) and writes it. A
  // ref array (kind kRef) gets its length here and its elements next.
  void Put(FieldKind kind, bool array, const void* data, size_t n);
  // Writes a placeholder size prefix when the value about to be written is an
  // element of a variable-size ref array, and returns its position.
  size_t BeginValue();
  void EndValue(size_t size_pos);
  // Closes every finished value and descends into every class-typed slot,
  // so the top frame's next slot is a primitive field or an array.
  void Settle();
  // Kind and declared class of the next slot.
  FieldKind Slot(const Klass** target) const;
  // The slot being written, innermost first ("field a of Item in element 2
  // of 3 of Item[] in field items of Bag"), for check messages.
  std::string Where() const;
  void Append(const void* data, size_t n) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    out_.insert(out_.end(), bytes, bytes + n);
  }

  const Klass* root_ = nullptr;
  std::vector<Frame> frames_;
  std::vector<uint8_t> out_;
};

}  // namespace gerenuk

#endif  // SRC_NATIVEBUF_RECORD_WRITER_H_
