// The unified IR interpreter executing both sides of the speculation:
//
//   * slow path  — the original program: data records are managed-heap
//     objects; Deserialize/Serialize pull/push records through the engine's
//     record channel; GC, write barriers, and bounds checks apply.
//   * fast path  — the transformed program: data records are native
//     addresses (committed input bytes or record builders); control-path
//     statements still run against the managed heap, exactly as Gerenuk's
//     transformed Spark keeps its control objects on the JVM heap.
//
// A triggered ABORT (inserted by the transformer, hit at run time) throws
// SerAbort; the SerExecutor catches it and re-executes the original program
// (§3.6 "Re-execution"). Interpreter frames register themselves as GC root
// providers so heap references held in IR variables survive collections.
#ifndef SRC_EXEC_INTERPRETER_H_
#define SRC_EXEC_INTERPRETER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/layout.h"
#include "src/ir/ir.h"
#include "src/nativebuf/native_buffer.h"
#include "src/nativebuf/record_builder.h"
#include "src/runtime/heap.h"
#include "src/serde/wellknown.h"

namespace gerenuk {

// Thrown when a transformed SER hits an abort instruction.
struct SerAbort {
  AbortReason reason;
  std::string detail;
};

// An output record handed to a batched emit sink: the structure rooted at a
// native address / builder id, plus its record class.
struct EmittedRecord {
  int64_t addr = 0;
  const Klass* klass = nullptr;
};

class SerRunner;

// The engine side of a composed map stage's kFoldSlot statements
// (src/transform/emit_fold.h): the map task's keyed fold tables, one per
// reduce bucket. `key` is the inlined key function's return value; `runner`
// and `builders` are those of the executing fast path.
class EmitFold {
 public:
  virtual ~EmitFold() = default;
  // kLookup returns the key's accumulator — committed-format bytes the
  // table owns, which the inlined accumulate form may write — or 0 after
  // rendering the record of a first-seen key as its accumulator. kStage
  // returns the record rendered to committed bytes when it is a builder
  // (else the record itself). kReduce folds the record into the key's
  // accumulator with the full reduce and returns 0. kProbe is kLookup
  // before the record is built: it returns 0 for a first-seen key without
  // reading `record` or inserting the key.
  virtual int64_t Slot(FoldSlotMode mode, int64_t record, Value key, SerRunner& runner,
                       BuilderStore& builders) = 0;
};

// Engine-provided source/sink of records for Deserialize/Serialize (slow
// path) and GetAddress/GWriteObject (fast path).
struct RecordChannel {
  // Slow path: next input record as a heap object (engine deserializes).
  std::function<ObjRef()> next_heap_record;
  // Slow path: emit an output record rooted at a heap object.
  std::function<void(ObjRef, const Klass*)> emit_heap_record;
  // Fast path: next input record's native address.
  std::function<int64_t()> next_native_record;
  // Fast path: emit the structure rooted at a native address / builder.
  std::function<void(int64_t, const Klass*)> emit_native_record;
  // Batched fast path (PlanExecutor; optional — when unset the per-record
  // closures above are used). `next_native_batch` fills up to `cap` input
  // addresses and returns how many; `emit_native_batch` receives a run of
  // emitted records in emission order. Emits are flushed before any builder
  // reset, so builder ids inside a batch are still live when the sink runs.
  std::function<size_t(int64_t* out, size_t cap)> next_native_batch;
  std::function<void(const EmittedRecord* records, size_t count)> emit_native_batch;
  // Fast path of a composed map stage: the tables its kFoldSlot statements
  // fold into (null for every other stage).
  EmitFold* fold = nullptr;
};

// The common surface of the two fast-path execution engines — the
// tree-walking Interpreter (reference) and the direct-threaded PlanExecutor.
// Engine emit callbacks receive a SerRunner so key-extraction UDFs run on
// whichever engine produced the record.
class SerRunner {
 public:
  virtual ~SerRunner() = default;

  virtual void set_channel(RecordChannel* channel) = 0;

  // Calls `func` with the `nargs` arguments at `args`; returns its return
  // value (None for void). Throws SerAbort when an abort instruction
  // executes. Per-record callers pass a stack array, so a call allocates
  // nothing.
  virtual Value CallFunction(const Function* func, const Value* args, size_t nargs) = 0;
  Value CallFunction(const Function* func, const std::vector<Value>& args) {
    return CallFunction(func, args.data(), args.size());
  }

  // Reads the text of a string value — a heap String (kRef), a committed
  // native [len][bytes] record (kAddr), or an under-construction string
  // builder. Engines use this to extract shuffle keys.
  virtual int64_t ReadStringBytes(Value v, std::string* out) = 0;

  // Statements (interpreter) or plan ops (executor) run since construction.
  virtual int64_t statements_executed() const = 0;

  // Function invocations since construction: CallFunction entries plus
  // calls the running code makes (kCall).
  int64_t calls() const { return calls_; }

 protected:
  int64_t calls_ = 0;
};

// FNV-1a over a byte span — the hashCode/stringHash intrinsic, shared by
// both runners so identical payloads hash identically on every path.
uint64_t HashBytes(const uint8_t* data, size_t n);

// The string-reading logic behind SerRunner::ReadStringBytes, shared by the
// Interpreter and the PlanExecutor: a heap String (kRef), a committed native
// [len][bytes] record (kAddr), or an under-construction string builder.
int64_t ReadStringValueBytes(BuilderStore* builders, const WellKnown& wk, Value v,
                             std::string* out);

class Interpreter : public RootProvider, public SerRunner {
 public:
  // `builders` may be null for slow-path-only use; `layouts` is required for
  // the fast path's offset resolution.
  Interpreter(const SerProgram& program, Heap& heap, const WellKnown& wk,
              const DataStructAnalyzer* layouts, BuilderStore* builders);
  ~Interpreter() override;

  void set_channel(RecordChannel* channel) override { channel_ = channel; }

  using SerRunner::CallFunction;
  Value CallFunction(const Function* func, const Value* args, size_t nargs) override;

  // Statements executed since construction (used by ablation benches).
  int64_t statements_executed() const override { return statements_executed_; }

  // RootProvider: exposes every kRef slot of every active frame.
  void VisitRoots(const std::function<void(ObjRef*)>& visit) override;

  int64_t ReadStringBytes(Value v, std::string* out) override;

 private:
  struct Frame {
    const Function* func = nullptr;
    std::vector<Value> slots;
  };

  // Frames are pooled: small UDFs (key extraction, reduce folds) are invoked
  // once per record, and a fresh slot vector per call would dominate them.
  Frame* AcquireFrame(const Function* func);
  void ReleaseFrame();

  Value Execute(Frame& frame);
  Value RunIntrinsic(const Statement& s, Frame& frame);

  const SerProgram& program_;
  Heap& heap_;
  const WellKnown& wk_;
  const DataStructAnalyzer* layouts_;
  BuilderStore* builders_;
  RecordChannel* channel_ = nullptr;
  std::vector<std::unique_ptr<Frame>> frame_pool_;  // [0, active) live, rest free
  size_t active_frames_ = 0;
  int64_t statements_executed_ = 0;
};

}  // namespace gerenuk

#endif  // SRC_EXEC_INTERPRETER_H_
