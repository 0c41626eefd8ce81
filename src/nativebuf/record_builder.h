// Record builders: how the transformed program constructs new data records
// without creating heap objects.
//
// The paper's appendToBuffer writes record pieces at their statically
// computed offsets, staging any write whose offset depends on a
// not-yet-known array length in a temporary buffer and flushing it when the
// array-creation event fires (§3.6 "Determining Offsets"). We implement the
// same deferred-placement semantics structurally: each allocation becomes a
// builder node keyed by the layout's field slots; writes land in the node
// immediately regardless of construction order, and byte placement happens
// once, at gWriteObject time, when every array length is known. The
// observable behavior (out-of-order construction works; committed bytes
// match the inline format exactly) is identical; the bookkeeping is simpler
// and allocation-free until render.
//
// Builder ids are negative "addresses" (-1 - id), so the interpreter can
// tell a record under construction from a committed record (a real pointer)
// by sign — the runtime analogue of the compile-time fresh/non-fresh split.
#ifndef SRC_NATIVEBUF_RECORD_BUILDER_H_
#define SRC_NATIVEBUF_RECORD_BUILDER_H_

#include <cstdint>
#include <vector>

#include "src/analysis/layout.h"
#include "src/nativebuf/native_buffer.h"

namespace gerenuk {

inline bool IsBuilderAddr(int64_t addr) { return addr < 0; }
inline int64_t BuilderIdToAddr(int64_t id) { return -1 - id; }
inline int64_t BuilderAddrToId(int64_t addr) { return -1 - addr; }

// Arena of builder nodes for one task. Released wholesale when the SER
// commits or aborts.
class BuilderStore {
 public:
  explicit BuilderStore(const DataStructAnalyzer& layouts) : layouts_(layouts) {}

  // appendToBuffer(C): a new record of class `klass`. Returns a builder addr.
  int64_t NewRecord(const Klass* klass);
  // appendToBuffer(E[length]): a new array. Returns a builder addr.
  int64_t NewArray(const Klass* array_klass, int64_t length);

  // writeNative on an under-construction record, addressed by declared
  // field index (the transformer keeps it on the statement).
  void WriteField(int64_t builder_addr, int field_index, FieldKind kind, int64_t ivalue,
                  double fvalue);
  // readNative on an under-construction record.
  void ReadField(int64_t builder_addr, int field_index, FieldKind kind, int64_t* ivalue,
                 double* fvalue) const;
  // Address (builder or committed) stored in a ref field slot.
  int64_t FieldAddr(int64_t builder_addr, int field_index) const;

  // Construction write a.f = b where b is a builder or a committed record.
  void AttachField(int64_t builder_addr, int field_index, int64_t child_addr);

  // Array operations on under-construction arrays.
  int64_t ArrayLength(int64_t builder_addr) const;
  void ArrayStore(int64_t builder_addr, int64_t index, FieldKind kind, int64_t ivalue,
                  double fvalue);
  void ArrayLoad(int64_t builder_addr, int64_t index, FieldKind kind, int64_t* ivalue,
                 double* fvalue) const;
  void AttachElement(int64_t builder_addr, int64_t index, int64_t child_addr);
  int64_t ElementAddr(int64_t builder_addr, int64_t index) const;

  const Klass* KlassOf(int64_t builder_addr) const;

  // Fast path for string intrinsics: when `builder_addr` is a record whose
  // field 0 is a primitive byte array (the String layout), returns a view of
  // the bytes without rendering. Returns false otherwise.
  bool TryGetStringBytes(int64_t builder_addr, const uint8_t** data, int64_t* len) const;

  // Bulk view for the vectorized gather/scatter kernels: succeeds only when
  // `builder_addr` is a live under-construction primitive array whose element
  // width matches `kind`, so per-lane loads/stores through the view are
  // byte-identical to ArrayLoad/ArrayStore. Any other node shape returns
  // false (the caller falls back to the scalar path, which reproduces the
  // scalar fault semantics exactly).
  bool TryGetPrimArray(int64_t builder_addr, FieldKind kind, uint8_t** data, int64_t* len);

  // gWriteObject: renders the structure rooted at `addr` (builder or
  // committed) into `out` as one [size][body] record; returns the body addr.
  int64_t Render(int64_t addr, const Klass* klass, NativePartition& out) const;

  // Renders only the body bytes (used recursively and by tests).
  void RenderBody(int64_t addr, const Klass* klass, ByteBuffer& out) const;

  size_t size() const { return active_; }
  // Recycles every node (capacity retained — builders churn once per record
  // on the hot path, so the slot vectors must not be reallocated each time).
  void Clear() { active_ = 0; }
  // Recycles only the nodes allocated since size() returned `mark`, so a
  // call made in the middle of a record (a fold at emit time) leaves the
  // caller's nodes live.
  void Truncate(size_t mark) {
    GERENUK_CHECK_LE(mark, active_);
    active_ = mark;
  }

 private:
  struct Slot {
    bool is_set = false;
    bool is_child = false;   // addr holds a child (builder or committed)
    int64_t ivalue = 0;      // prim payload or child address
    double fvalue = 0.0;
  };
  struct Node {
    const Klass* klass = nullptr;
    std::vector<Slot> slots;  // per field (class) or per ref-array element
    std::vector<uint8_t> prim;  // primitive-array payload, element-width packed
    int64_t length = 0;         // array length
  };

  Node& AcquireNode();
  const Node& NodeAt(int64_t builder_addr) const;
  Node& NodeAt(int64_t builder_addr);
  int64_t BodySize(int64_t addr, const Klass* klass) const;

  const DataStructAnalyzer& layouts_;
  std::vector<Node> nodes_;
  size_t active_ = 0;  // nodes_[0, active_) are live; the rest are recycled
  mutable ByteBuffer render_scratch_;
};

}  // namespace gerenuk

#endif  // SRC_NATIVEBUF_RECORD_BUILDER_H_
