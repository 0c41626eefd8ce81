// A managed mini-heap that reproduces the JVM cost model Gerenuk attacks:
// 16-byte object headers, 8-byte reference fields, GC-traced object graphs,
// write barriers on every reference store, and bounds-checked array access.
//
// Two collectors are provided:
//   * kMarkSweep     — single space, stop-the-world mark-sweep with a
//                      first-fit free list (a simple baseline collector).
//   * kGenerational  — eden + two survivor semispaces (copying scavenge)
//                      over a mark-sweep old generation with a remembered-set
//                      write barrier; this plays the role of OpenJDK 8's
//                      default Parallel Scavenge in the paper's experiments.
//
// References are byte offsets from the heap base (ObjRef), so the copying
// collector can move objects by updating offsets in registered roots.
// Clients must keep every live reference in a registered root (vector or
// slot) across any allocation — exactly the discipline a VM imposes.
#ifndef SRC_RUNTIME_HEAP_H_
#define SRC_RUNTIME_HEAP_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/runtime/klass.h"
#include "src/support/logging.h"
#include "src/support/metrics.h"

namespace gerenuk {

class TraceSink;  // src/support/trace.h

// Byte offset from the heap base. 0 is the null reference.
using ObjRef = uint64_t;
inline constexpr ObjRef kNullRef = 0;

// Clients with non-trivially-shaped root sets (e.g. interpreter frames that
// mix reference and primitive slots) implement this to expose their live
// references to the collector.
class RootProvider {
 public:
  virtual ~RootProvider() = default;
  // Must invoke `visit` on every live ObjRef slot; the GC may update slots.
  virtual void VisitRoots(const std::function<void(ObjRef*)>& visit) = 0;
};

// kMarkSweep    — single-space stop-the-world mark-sweep (simple baseline).
// kGenerational — copying scavenge over mark-sweep old gen (the stand-in for
//                 OpenJDK 8's Parallel Scavenge).
// kRegion       — Yak-like: between EpochStart/EpochEnd, allocations go to a
//                 region that is freed wholesale at epoch end; objects still
//                 referenced from outside the region (tracked by the write
//                 barrier) are evacuated to the normal space first. This is
//                 the comparison system of the paper's Figure 9.
enum class GcKind : uint8_t { kMarkSweep, kGenerational, kRegion };

struct HeapConfig {
  size_t capacity_bytes = 64u << 20;
  GcKind gc = GcKind::kGenerational;
  // Generational sizing (fractions of capacity). Survivor gets the remainder
  // split in two.
  double old_fraction = 0.55;
  double eden_fraction = 0.35;
  int promotion_age = 2;
};

struct HeapStats {
  int64_t minor_gcs = 0;
  int64_t major_gcs = 0;
  int64_t gc_nanos = 0;
  int64_t allocated_bytes = 0;
  int64_t allocated_objects = 0;
  int64_t barrier_stores = 0;
  int64_t copied_bytes = 0;
  int64_t promoted_bytes = 0;
};

class Heap {
 public:
  // With `shared_klasses == nullptr` the heap owns its own class registry.
  // A non-null registry is shared (not owned): per-worker heaps of a
  // parallel engine all reference the engine heap's registry, so Klass
  // pointers and ids agree across every executor context. All class
  // definitions must complete before parallel stage execution begins — the
  // registry itself is not synchronized.
  explicit Heap(const HeapConfig& config, KlassRegistry* shared_klasses = nullptr);
  ~Heap();
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  const KlassRegistry& klasses() const { return *klasses_; }
  KlassRegistry& klasses() { return *klasses_; }

  // ---- allocation ----
  ObjRef AllocObject(const Klass* klass);
  ObjRef AllocArray(const Klass* array_klass, int64_t length);

  // ---- field access (bounds via klass layout are the caller's contract;
  //      null checks are enforced here as the VM would) ----
  template <typename T>
  T GetPrim(ObjRef obj, int offset) const {
    GERENUK_CHECK_NE(obj, kNullRef);
    T v;
    std::memcpy(&v, base_ + obj + offset, sizeof(T));
    return v;
  }
  template <typename T>
  void SetPrim(ObjRef obj, int offset, T value) {
    GERENUK_CHECK_NE(obj, kNullRef);
    std::memcpy(base_ + obj + offset, &value, sizeof(T));
  }

  ObjRef GetRef(ObjRef obj, int offset) const { return GetPrim<ObjRef>(obj, offset); }
  // Reference store: performs the generational write barrier.
  void SetRef(ObjRef obj, int offset, ObjRef value);

  // ---- array access (bounds-checked, as the JVM does on every access) ----
  int64_t ArrayLength(ObjRef array) const {
    GERENUK_CHECK_NE(array, kNullRef);
    return ReadAux(array);
  }
  template <typename T>
  T AGet(ObjRef array, int64_t index) const {
    const Klass* k = KlassOf(array);
    BoundsCheck(array, index);
    return GetPrim<T>(array, k->ElementOffset(index));
  }
  template <typename T>
  void ASet(ObjRef array, int64_t index, T value) {
    const Klass* k = KlassOf(array);
    BoundsCheck(array, index);
    SetPrim<T>(array, k->ElementOffset(index), value);
  }
  ObjRef AGetRef(ObjRef array, int64_t index) const { return AGet<ObjRef>(array, index); }
  void ASetRef(ObjRef array, int64_t index, ObjRef value);

  const Klass* KlassOf(ObjRef obj) const {
    GERENUK_CHECK_NE(obj, kNullRef);
    return klasses_->ById(ReadKlassId(obj));
  }

  // ---- roots ----
  // The GC treats every element of every registered vector and every
  // registered slot as a root, updating them if objects move.
  void AddRootVector(std::vector<ObjRef>* roots);
  void RemoveRootVector(std::vector<ObjRef>* roots);
  void AddRootSlot(ObjRef* slot);
  void RemoveRootSlot(ObjRef* slot);
  void AddRootProvider(RootProvider* provider);
  void RemoveRootProvider(RootProvider* provider);

  // ---- Yak-like epochs (kRegion only) ----
  // Data-path allocations between EpochStart and EpochEnd land in the
  // region; EpochEnd evacuates escaping objects and frees the region.
  void EpochStart();
  void EpochEnd();
  bool in_epoch() const { return in_epoch_; }

  // ---- GC control & accounting ----
  void CollectNow();  // full collection, regardless of occupancy
  const HeapStats& stats() const { return stats_; }
  void ResetStats() { stats_ = HeapStats{}; }
  // Bytes currently occupied by objects (post-allocation, pre-collection).
  int64_t used_bytes() const;
  int64_t peak_used_bytes() const { return peak_used_; }
  size_t capacity() const { return capacity_; }
  // When set, GC pause time is also charged to Phase::kGc of this tracker.
  void set_phase_times(PhaseTimes* times) { phase_times_ = times; }
  // When set, every collection pause is also emitted as a kGcPause trace
  // span into this sink (the owning worker's, or the driver's for the
  // engine heap). Null = tracing off.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
  // When set, live heap bytes are mirrored into an external tracker so an
  // engine can observe the *combined* (heap + native buffer) footprint the
  // way the paper's pmap sampling observes process memory. Allocations
  // report in batches: once the unreported growth reaches
  // `report_slack_bytes` (0 = on every allocation). Every collection and
  // every SyncMemoryTracker call reports exactly, so between those points
  // the tracker reads low by less than the slack. Replacing a tracker
  // returns the bytes this heap had reported to the old one.
  void set_memory_tracker(MemoryTracker* tracker, int64_t report_slack_bytes = 0) {
    if (memory_tracker_ != nullptr) {
      memory_tracker_->Freed(tracker_reported_);
    }
    memory_tracker_ = tracker;
    tracker_report_slack_ = report_slack_bytes;
    tracker_reported_ = 0;
    SyncMemoryTracker();
  }
  // Reports any unreported drift to the tracker now.
  void SyncMemoryTracker();

 private:
  // Mark-word bit assignments (offset 0 of every object):
  //   bit 0      mark bit (mark-sweep)
  //   bit 1      forwarded bit (copying scavenge)
  //   bit 2      remembered-set membership (old objects with young refs)
  //   bits 3-6   age (tenuring counter)
  //   bits 7-63  forwarding offset >> 3 when forwarded
  static constexpr uint64_t kMarkBit = 1u << 0;
  static constexpr uint64_t kForwardBit = 1u << 1;
  static constexpr uint64_t kRememberedBit = 1u << 2;
  static constexpr uint64_t kAgeShift = 3;
  static constexpr uint64_t kAgeMask = 0xFull << kAgeShift;
  static constexpr uint64_t kForwardShift = 7;

  struct Space {
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t top = 0;  // bump pointer
    uint64_t size() const { return end - start; }
    uint64_t free() const { return end - top; }
    bool Contains(ObjRef ref) const { return ref >= start && ref < end; }
  };

  struct FreeBlock {
    uint64_t offset;
    uint64_t size;
  };

  uint64_t ReadMark(ObjRef obj) const { return GetPrim<uint64_t>(obj, 0); }
  void WriteMark(ObjRef obj, uint64_t mark) { SetPrim<uint64_t>(obj, 0, mark); }
  uint32_t ReadKlassId(ObjRef obj) const { return GetPrim<uint32_t>(obj, 8); }
  uint32_t ReadAux(ObjRef obj) const { return GetPrim<uint32_t>(obj, 12); }
  void InitHeader(ObjRef obj, uint32_t klass_id, uint32_t aux);

  void BoundsCheck(ObjRef array, int64_t index) const {
    int64_t len = ArrayLength(array);
    GERENUK_CHECK(index >= 0 && index < len)
        << "array index " << index << " out of bounds [0," << len << ")";
  }

  int64_t ObjectSize(ObjRef obj) const;
  bool InYoung(ObjRef ref) const {
    return eden_.Contains(ref) || from_.Contains(ref) || to_.Contains(ref);
  }

  ObjRef AllocRaw(const Klass* klass, int64_t size, uint32_t aux);
  ObjRef TryBump(Space& space, int64_t size);
  ObjRef TryFreeList(int64_t size);
  void MakeFreeBlock(uint64_t offset, uint64_t size);
  void BarrierStore(ObjRef obj, uint64_t slot, ObjRef value);

  // Collectors.
  void MinorCollect();
  void MajorCollect();
  void MarkSweepCollect(uint64_t sweep_start, uint64_t sweep_end);
  void MarkFromRoots(std::vector<ObjRef>& worklist);
  void TraceObject(ObjRef obj, std::vector<ObjRef>& worklist);
  // Copying scavenge helpers.
  ObjRef Evacuate(ObjRef obj);
  void ScavengeSlot(ObjRef* slot);
  void ScavengeObjectFields(ObjRef obj, bool* saw_young);
  void ForEachRoot(void (Heap::*visit)(ObjRef*));
  void MarkSlot(ObjRef* slot);
  std::vector<ObjRef>* mark_worklist_ = nullptr;

  std::unique_ptr<KlassRegistry> owned_klasses_;
  KlassRegistry* klasses_;  // owned_klasses_.get() or the shared registry
  HeapConfig config_;
  size_t capacity_;
  std::unique_ptr<uint8_t[]> storage_;
  uint8_t* base_;

  // kMarkSweep: only `old_` is used (covers the whole heap).
  // kGenerational: old_ + eden_ + from_ + to_.
  Space old_;
  Space eden_;
  Space from_;
  Space to_;
  std::vector<FreeBlock> free_list_;
  int64_t free_total_ = 0;  // total bytes on the free list

  std::vector<std::vector<ObjRef>*> root_vectors_;
  std::vector<ObjRef*> root_slots_;
  std::vector<RootProvider*> root_providers_;
  std::vector<ObjRef> remembered_;  // old objects that may hold young refs

  // kRegion state.
  Space region_;
  bool in_epoch_ = false;
  std::vector<uint64_t> region_remembered_;  // heap slots referencing the region
  void EvacuateRegionSlot(ObjRef* slot);
  ObjRef EvacuateRegionObject(ObjRef obj);
  std::vector<ObjRef> region_evacuation_worklist_;

  // Scavenge state (valid during MinorCollect).
  std::vector<ObjRef> promoted_worklist_;

  HeapStats stats_;
  int64_t peak_used_ = 0;
  PhaseTimes* phase_times_ = nullptr;
  TraceSink* trace_sink_ = nullptr;
  MemoryTracker* memory_tracker_ = nullptr;
  int64_t tracker_reported_ = 0;
  int64_t tracker_report_slack_ = 0;
  bool in_gc_ = false;
};

}  // namespace gerenuk

#endif  // SRC_RUNTIME_HEAP_H_
