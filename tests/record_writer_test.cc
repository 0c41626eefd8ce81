// RecordWriter against the inline serializer: a source that writes a record
// field by field must commit exactly the bytes InlineSerializer::WriteRecord
// produces for the same data built as heap objects (the independent oracle),
// and a write that does not fit the klass's layout must die before it lands.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/nativebuf/record_writer.h"
#include "src/runtime/heap.h"
#include "src/runtime/roots.h"
#include "src/serde/inline_serializer.h"
#include "src/serde/wellknown.h"
#include "src/support/rng.h"

namespace gerenuk {
namespace {

constexpr FieldKind kPrimKinds[] = {FieldKind::kBool, FieldKind::kI8,  FieldKind::kI16,
                                    FieldKind::kChar, FieldKind::kI32, FieldKind::kI64,
                                    FieldKind::kF32,  FieldKind::kF64};

// One generated value: a primitive field's bits, a primitive array's element
// bits, or the children of a class (its fields) or of a ref array (its
// elements).
struct Value {
  uint64_t bits = 0;
  std::vector<uint64_t> elems;
  std::vector<Value> kids;
};

// Random klasses over every FieldKind: nested classes, Strings, primitive
// arrays of every width, and ref arrays of fixed-size and variable-size
// element classes (and of primitive arrays).
class Generator {
 public:
  Generator(Heap& heap, WellKnown& wk, uint64_t seed) : reg_(heap.klasses()), wk_(wk), rng_(seed) {}

  const Klass* Schema() {
    switch (rng_.NextBounded(10)) {
      case 0:
        return RefArray(1);  // a top-level collection
      case 1:
        return PrimArray();
      default:
        return Class(0, /*fixed=*/false);
    }
  }

  // What the generated schemas and values exercised so far.
  const std::set<std::string>& covered() const { return covered_; }

  Value Gen(const Klass* klass) {
    Value v;
    if (klass->is_array()) {
      const int64_t len = static_cast<int64_t>(rng_.NextBounded(5));  // empty included
      if (len == 0) {
        covered_.insert("empty array");
      }
      for (int64_t i = 0; i < len; ++i) {
        if (klass->element_kind() == FieldKind::kRef) {
          v.kids.push_back(Gen(klass->element_klass()));
        } else {
          v.elems.push_back(Bits(klass->element_kind()));
        }
      }
      return v;
    }
    for (const FieldInfo& field : klass->fields()) {
      Value kid;
      if (field.kind == FieldKind::kRef) {
        kid = Gen(field.target);
      } else {
        kid.bits = Bits(field.kind);
      }
      v.kids.push_back(std::move(kid));
    }
    return v;
  }

 private:
  FieldKind Prim() { return kPrimKinds[rng_.NextBounded(8)]; }

  // Raw bits of a random primitive; floats include NaNs, infinities and
  // signed zeros because their bits are random.
  uint64_t Bits(FieldKind kind) {
    const uint64_t r = rng_.NextU64();
    switch (kind) {
      case FieldKind::kBool:
        return r & 1;
      case FieldKind::kI8:
        return r & 0xff;
      case FieldKind::kI16:
      case FieldKind::kChar:
        return r & 0xffff;
      case FieldKind::kI32:
      case FieldKind::kF32:
        return r & 0xffffffff;
      default:
        return r;
    }
  }

  // A fixed-size class holds primitives and fixed-size classes only.
  const Klass* Class(int depth, bool fixed) {
    std::vector<FieldInfo> fields;
    const int n = 1 + static_cast<int>(rng_.NextBounded(5));
    for (int f = 0; f < n; ++f) {
      const std::string name = 'f' + std::to_string(f);
      const uint64_t pick = rng_.NextBounded(depth < 2 ? 10 : 5);
      if (pick < 4 || (fixed && pick >= 5 && pick != 6)) {
        fields.push_back({name, Prim(), nullptr, 0});
      } else if (pick == 4) {
        fields.push_back({name, FieldKind::kRef, wk_.string_klass(), 0});
      } else if (pick == 5) {
        fields.push_back({name, FieldKind::kRef, PrimArray(), 0});
      } else if (pick == 6) {
        fields.push_back({name, FieldKind::kRef, Class(depth + 1, fixed), 0});
        covered_.insert("nested class");
      } else {
        fields.push_back({name, FieldKind::kRef, RefArray(depth + 1), 0});
      }
      if (fixed && fields.back().kind == FieldKind::kRef &&
          !KlassHasFixedInlineSize(fields.back().target)) {
        fields.back() = {name, Prim(), nullptr, 0};
      }
      const FieldInfo& field = fields.back();
      covered_.insert(field.kind != FieldKind::kRef ? std::string(FieldKindName(field.kind))
                      : field.target == wk_.string_klass() ? "String"
                                                           : "ref");
    }
    return reg_.DefineClass('K' + std::to_string(next_id_++), std::move(fields));
  }

  const Klass* PrimArray() {
    const Klass* array = reg_.DefineArray(Prim());
    covered_.insert(array->name());
    return array;
  }

  const Klass* RefArray(int depth) {
    const Klass* elem = nullptr;
    switch (rng_.NextBounded(3)) {
      case 0:
        elem = Class(depth, /*fixed=*/true);
        break;
      case 1:
        elem = Class(depth, /*fixed=*/false);
        break;
      default:
        elem = PrimArray();
        break;
    }
    covered_.insert(elem->is_array()                  ? "array of arrays"
                    : KlassHasFixedInlineSize(elem) ? "array of fixed-size records"
                                                    : "array of variable-size records");
    return reg_.DefineArray(FieldKind::kRef, elem);
  }

  KlassRegistry& reg_;
  WellKnown& wk_;
  Rng rng_;
  int next_id_ = 0;
  std::set<std::string> covered_;
};

// Stores `bits` as a primitive of `kind` at `offset` of `obj`.
void SetBits(Heap& heap, ObjRef obj, int offset, FieldKind kind, uint64_t bits) {
  switch (FieldKindSize(kind)) {
    case 1:
      heap.SetPrim<uint8_t>(obj, offset, static_cast<uint8_t>(bits));
      break;
    case 2:
      heap.SetPrim<uint16_t>(obj, offset, static_cast<uint16_t>(bits));
      break;
    case 4:
      heap.SetPrim<uint32_t>(obj, offset, static_cast<uint32_t>(bits));
      break;
    default:
      heap.SetPrim<uint64_t>(obj, offset, bits);
      break;
  }
}

// The oracle's input: `v` built as heap objects.
ObjRef Build(Heap& heap, const Klass* klass, const Value& v) {
  RootScope scope(heap);
  if (klass->is_array()) {
    const bool refs = klass->element_kind() == FieldKind::kRef;
    const int64_t len = static_cast<int64_t>(refs ? v.kids.size() : v.elems.size());
    const size_t arr = scope.Push(heap.AllocArray(klass, len));
    for (int64_t i = 0; i < len; ++i) {
      const size_t at = static_cast<size_t>(i);
      if (refs) {
        const ObjRef elem = Build(heap, klass->element_klass(), v.kids[at]);
        heap.ASetRef(scope.Get(arr), i, elem);
      } else {
        SetBits(heap, scope.Get(arr), klass->ElementOffset(i), klass->element_kind(),
                v.elems[at]);
      }
    }
    return scope.Get(arr);
  }
  const size_t obj = scope.Push(heap.AllocObject(klass));
  for (size_t f = 0; f < klass->fields().size(); ++f) {
    const FieldInfo& field = klass->fields()[f];
    if (field.kind == FieldKind::kRef) {
      const ObjRef child = Build(heap, field.target, v.kids[f]);
      heap.SetRef(scope.Get(obj), field.offset, child);
    } else {
      SetBits(heap, scope.Get(obj), field.offset, field.kind, v.kids[f].bits);
    }
  }
  return scope.Get(obj);
}

template <typename T>
std::vector<T> Elems(const std::vector<uint64_t>& bits) {
  std::vector<T> out;
  for (uint64_t b : bits) {
    if constexpr (sizeof(T) == 1) {
      out.push_back(std::bit_cast<T>(static_cast<uint8_t>(b)));
    } else if constexpr (sizeof(T) == 2) {
      out.push_back(std::bit_cast<T>(static_cast<uint16_t>(b)));
    } else if constexpr (sizeof(T) == 4) {
      out.push_back(std::bit_cast<T>(static_cast<uint32_t>(b)));
    } else {
      out.push_back(std::bit_cast<T>(b));
    }
  }
  return out;
}

void WritePrimArray(RecordWriter& w, FieldKind kind, const std::vector<uint64_t>& bits,
                    bool is_string) {
  switch (kind) {
    case FieldKind::kBool: {
      // std::vector<bool> is packed, so the flags go through a plain array.
      std::unique_ptr<bool[]> flags(new bool[bits.size()]);
      for (size_t i = 0; i < bits.size(); ++i) {
        flags[i] = bits[i] != 0;
      }
      w.Array(std::span<const bool>(flags.get(), bits.size()));
      break;
    }
    case FieldKind::kI8: {
      const std::vector<int8_t> v = Elems<int8_t>(bits);
      if (is_string) {
        w.Array(std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
      } else {
        w.Array(std::span<const int8_t>(v));
      }
      break;
    }
    case FieldKind::kI16:
      w.Array(std::span<const int16_t>(Elems<int16_t>(bits)));
      break;
    case FieldKind::kChar:
      w.Array(std::span<const char16_t>(Elems<char16_t>(bits)));
      break;
    case FieldKind::kI32:
      w.Array(std::span<const int32_t>(Elems<int32_t>(bits)));
      break;
    case FieldKind::kI64:
      w.Array(std::span<const int64_t>(Elems<int64_t>(bits)));
      break;
    case FieldKind::kF32:
      w.Array(std::span<const float>(Elems<float>(bits)));
      break;
    case FieldKind::kF64:
      w.Array(std::span<const double>(Elems<double>(bits)));
      break;
    case FieldKind::kRef:
      FAIL() << "not a primitive array";
  }
}

void WritePrim(RecordWriter& w, FieldKind kind, uint64_t bits) {
  switch (kind) {
    case FieldKind::kBool:
      w.Bool(bits != 0);
      break;
    case FieldKind::kI8:
      w.I8(static_cast<int8_t>(bits));
      break;
    case FieldKind::kI16:
      w.I16(static_cast<int16_t>(bits));
      break;
    case FieldKind::kChar:
      w.Char(static_cast<char16_t>(bits));
      break;
    case FieldKind::kI32:
      w.I32(static_cast<int32_t>(bits));
      break;
    case FieldKind::kI64:
      w.I64(static_cast<int64_t>(bits));
      break;
    case FieldKind::kF32:
      w.F32(std::bit_cast<float>(static_cast<uint32_t>(bits)));
      break;
    case FieldKind::kF64:
      w.F64(std::bit_cast<double>(bits));
      break;
    case FieldKind::kRef:
      FAIL() << "not a primitive";
  }
}

// `v` through the writer: a class is written as its fields (nested classes
// and Strings descend), arrays as their length and elements.
void Write(RecordWriter& w, const Klass* klass, const Value& v, bool is_string = false) {
  if (klass->is_array()) {
    if (klass->element_kind() != FieldKind::kRef) {
      WritePrimArray(w, klass->element_kind(), v.elems, is_string);
      return;
    }
    w.BeginArray(static_cast<int64_t>(v.kids.size()));
    for (const Value& kid : v.kids) {
      Write(w, klass->element_klass(), kid);
    }
    return;
  }
  for (size_t f = 0; f < klass->fields().size(); ++f) {
    const FieldInfo& field = klass->fields()[f];
    if (field.kind == FieldKind::kRef) {
      Write(w, field.target, v.kids[f], field.target->name() == "String");
    } else {
      WritePrim(w, field.kind, v.kids[f].bits);
    }
  }
}

HeapConfig WriterTestHeap() {
  HeapConfig config;
  config.capacity_bytes = 32 << 20;
  config.gc = GcKind::kGenerational;
  return config;
}

TEST(RecordWriterTest, BytesEqualTheInlineSerializerOnGeneratedSchemas) {
  Heap heap(WriterTestHeap());
  WellKnown wk(heap);
  InlineSerializer serde(heap);
  Generator gen(heap, wk, 20261017);
  RecordWriter writer;
  int records = 0;
  for (int schema = 0; schema < 60; ++schema) {
    const Klass* klass = gen.Schema();
    for (int r = 0; r < 25; ++r) {
      const Value v = gen.Gen(klass);
      ByteBuffer expected;
      {
        RootScope scope(heap);
        const size_t root = scope.Push(Build(heap, klass, v));
        serde.WriteRecord(scope.Get(root), klass, expected);
      }
      writer.Open(klass);
      Write(writer, klass, v);
      const std::span<const uint8_t> body = writer.Close();
      ASSERT_EQ(std::vector<uint8_t>(body.begin(), body.end()),
                std::vector<uint8_t>(expected.data() + 4, expected.data() + expected.size()))
          << klass->name() << " schema " << schema << " record " << r;
      uint32_t size;
      std::memcpy(&size, expected.data(), sizeof(size));
      ASSERT_EQ(size, body.size());
      records += 1;
    }
    heap.CollectNow();
  }
  EXPECT_GE(records, 1000);
  std::set<std::string> wanted = {"String", "ref", "nested class", "empty array",
                                  "array of arrays", "array of fixed-size records",
                                  "array of variable-size records"};
  for (FieldKind kind : kPrimKinds) {
    wanted.insert(FieldKindName(kind));
    wanted.insert(std::string(FieldKindName(kind)) + "[]");
  }
  for (const std::string& feature : wanted) {
    EXPECT_TRUE(gen.covered().count(feature) == 1) << "no generated schema has " << feature;
  }
}

// Bag{items: Item[]} with Item{a: i64}, and Pair{key: i64, value: f64}.
struct DeathSchemas {
  Heap heap{WriterTestHeap()};
  const Klass* pair;
  const Klass* bag;

  DeathSchemas() {
    KlassRegistry& reg = heap.klasses();
    pair = reg.DefineClass("Pair", {{"key", FieldKind::kI64, nullptr, 0},
                                    {"value", FieldKind::kF64, nullptr, 0}});
    const Klass* item = reg.DefineClass("Item", {{"a", FieldKind::kI64, nullptr, 0}});
    bag = reg.DefineClass("Bag",
                          {{"items", FieldKind::kRef, reg.DefineArray(FieldKind::kRef, item), 0},
                           {"bytes", FieldKind::kRef, reg.DefineArray(FieldKind::kI8), 0}});
  }
};

TEST(RecordWriterDeathTest, WrongFieldKindDies) {
  DeathSchemas s;
  RecordWriter w;
  w.Open(s.pair);
  EXPECT_DEATH(w.F64(1.0), "field key of Pair is i64, not f64");
  w.I64(1);
  EXPECT_DEATH(w.I64(2), "field value of Pair is f64, not i64");
  EXPECT_DEATH(w.Array(std::span<const double>()), "field value of Pair is f64, not an array");
}

TEST(RecordWriterDeathTest, TooFewArrayElementsDies) {
  DeathSchemas s;
  RecordWriter w;
  w.Open(s.bag);
  w.BeginArray(3);
  w.I64(1);
  w.I64(2);
  // The bytes field is next in the record, but element 2 is still owed.
  EXPECT_DEATH(w.Array(std::string_view("x")),
               "field a of Item in element 2 of 3 of Item\\[\\] in field items of Bag is i64, "
               "not an array of i8");
  EXPECT_DEATH(w.Close(), "closed with fields missing: next is field a of Item in element 2");
}

TEST(RecordWriterDeathTest, TooManyArrayElementsDies) {
  DeathSchemas s;
  RecordWriter w;
  w.Open(s.bag);
  w.BeginArray(1);
  w.I64(1);
  EXPECT_DEATH(w.I64(2), "field bytes of Bag is i8\\[\\], not i64");
  w.Array(std::string_view("ok"));
  EXPECT_DEATH(w.I64(2), "record of Bag is complete");
  EXPECT_EQ(w.Close().size(), 4u + 8u + 4u + 2u);
}

TEST(RecordWriterDeathTest, RecordClosedWithFieldsMissingDies) {
  DeathSchemas s;
  RecordWriter w;
  w.Open(s.pair);
  EXPECT_DEATH(w.Close(), "record of Pair closed with fields missing: next is field key of Pair");
  w.I64(1);
  EXPECT_DEATH(w.Close(), "next is field value of Pair");
}

TEST(RecordWriterDeathTest, ArrayLengthAboveInt32MaxDiesBeforeAnyElement) {
  DeathSchemas s;
  RecordWriter w;
  w.Open(s.bag);
  const int64_t too_long = int64_t{std::numeric_limits<int32_t>::max()} + 1;
  EXPECT_DEATH(w.BeginArray(too_long), "array length of field items of Bag does not fit");
  EXPECT_DEATH(w.BeginArray(-1), "array length of field items of Bag");
  w.BeginArray(0);
  // The span is never read: the length check comes before the copy.
  const int8_t byte = 0;
  EXPECT_DEATH(w.Array(std::span<const int8_t>(&byte, static_cast<size_t>(too_long))),
               "array length of field bytes of Bag does not fit");
}

}  // namespace
}  // namespace gerenuk
