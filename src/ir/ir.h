// The statement IR the Gerenuk compiler operates on.
//
// The paper's compiler transforms Java bytecode through Soot's three-address
// Jimple IR; this is our equivalent. A SerProgram holds a set of functions
// (the user's UDFs plus the system-level record pipeline) whose statements
// cover both worlds:
//   * the original, object-based operations (field loads/stores, allocation,
//     deserialize/serialize, calls, monitors) executed by the heap
//     interpreter — the paper's "slow path"; and
//   * the transformed, native-byte operations (readNative/writeNative,
//     appendToBuffer, getAddress, gWriteObject, abort) emitted by Algorithm 1
//     and executed by the native interpreter — the "fast path".
// One statement enum covers both so the transformer is a plain
// statement-to-statement rewrite, exactly like Algorithm 1's REPLACE/EMIT.
#ifndef SRC_IR_IR_H_
#define SRC_IR_IR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/klass.h"

namespace gerenuk {

// ---------------------------------------------------------------------------
// Values and types
// ---------------------------------------------------------------------------

enum class ValueTag : uint8_t { kNone, kI64, kF64, kRef, kAddr };

// A runtime value in either interpreter. kRef carries a managed-heap ObjRef
// (GC-visible); kAddr carries a native record address or builder id — the
// paper's rewrite of reference variables into long-typed addresses. The two
// must stay distinct so the collector traces only real heap references.
struct Value {
  ValueTag tag = ValueTag::kNone;
  int64_t i = 0;
  double d = 0.0;

  static Value None() { return Value{}; }
  static Value I64(int64_t v) { return Value{ValueTag::kI64, v, 0.0}; }
  static Value F64(double v) { return Value{ValueTag::kF64, 0, v}; }
  static Value Ref(int64_t v) { return Value{ValueTag::kRef, v, 0.0}; }
  static Value Addr(int64_t v) { return Value{ValueTag::kAddr, v, 0.0}; }
  static Value Bool(bool v) { return I64(v ? 1 : 0); }

  bool AsBool() const { return i != 0; }
};

// Static type of an IR variable. Reference types carry the declared Klass.
struct IrType {
  enum Kind : uint8_t { kVoid, kI64, kF64, kRef } kind = kVoid;
  const Klass* klass = nullptr;

  static IrType Void() { return {kVoid, nullptr}; }
  static IrType I64() { return {kI64, nullptr}; }
  static IrType F64() { return {kF64, nullptr}; }
  static IrType Ref(const Klass* k) { return {kRef, k}; }
  bool IsRef() const { return kind == kRef; }
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class Op : uint8_t {
  // --- original (object-based) operations ---
  kConst,         // dst = imm
  kAssign,        // dst = a                     (Algorithm 1 cases 2 & 3)
  kBinOp,         // dst = a <binop> b
  kUnOp,          // dst = <unop> a
  kDeserialize,   // dst = readObject()          (case 1 source)
  kSerialize,     // writeObject(a)              (case 8 sink)
  kFieldLoad,     // dst = a.field               (case 5)
  kFieldStore,    // a.field = b                 (case 4)
  kArrayLoad,     // dst = a[b]
  kArrayStore,    // a[b] = c
  kArrayLength,   // dst = a.length
  kNewObject,     // dst = new klass             (case 6)
  kNewArray,      // dst = new klass[a]          (case 6)
  kCall,          // dst = func(args)            (case 9)
  kCallNative,    // dst = native_name(args)     (violation 3 unless intrinsic)
  kMonitorEnter,  // synchronize(a) {            (violation 4)
  kMonitorExit,   // }
  kBranch,        // if (a) goto label
  kJump,          // goto label
  kLabel,         // label:
  kReturn,        // return a (or void)

  // --- transformed (native-byte) operations ---
  kGetAddress,          // dst = getAddress()                (case 1 rewrite)
  kGWriteObject,        // gWriteObject(a)                   (case 8 rewrite)
  kReadNative,          // dst = readNative(a, expr, kind)   (case 5 rewrite)
  kWriteNative,         // writeNative(a, expr, kind, b)     (case 4 rewrite)
  kAddrOfField,         // dst = a + resolveOffset(expr)     (ref-field load)
  kNativeArrayLength,   // dst = lengthOf(a)   [a points at len-prefixed data]
  kNativeArrayLoad,     // dst = a.data[b], element kind attached
  kNativeArrayStore,    // a.data[b] = c
  kAppendRecord,        // dst = appendToBuffer(klass)       (case 6 rewrite)
  kAppendArray,         // dst = appendToBuffer(klass, a)    (array allocation)
  kAttachField,         // a.field := sub-record b           (construction write)
  kAttachElement,       // a[b] := sub-record c              (construction write)
  kNativeArrayElemAddr, // dst = address of record element a[b]
  kAbort,               // abort the SER                     (case 7)

  // --- owned-accumulator writes (emitted only by DeriveAccumulateForm) ---
  // In-place stores into a committed-format record the engine owns (a fold
  // accumulator in its scratch region), never into input bytes: the
  // transformer never emits them, so user code keeps the committed-record
  // write refusal of kWriteNative / kNativeArrayStore.
  kWriteOwned,            // writeOwned(a, expr, kind, b)   prim field of a
  kNativeArrayStoreOwned, // a.data[b] = c                  prim array element

  // --- emit-site fold (emitted only by ComposeEmitFold) ---
  kFoldSlot,              // dst = foldSlot<imm>(a record, b key)  (FoldSlotMode)
};

// What one kFoldSlot statement asks of the map task's keyed tables (see
// src/transform/emit_fold.h). The mode rides in Statement::imm.
enum class FoldSlotMode : uint8_t {
  kLookup,  // dst = the key's accumulator, or 0 after rendering a first-seen key's record
  kStage,   // dst = the record rendered to committed bytes (a builder, K with narrow fields)
  kReduce,  // the accumulate form declined: fold the record with the full reduce
  kProbe,   // dst = the key's accumulator, or 0 for a first-seen key (record unread,
            // nothing inserted or rendered)
};

const char* OpName(Op op);

enum class BinOpKind : uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kAnd, kOr, kXor, kShl, kShr,
  kMin, kMax,
};

enum class UnOpKind : uint8_t { kNeg, kNot, kI2F, kF2I };

// Integer add/sub/mul/neg wrap around in two's complement, like the JVM
// long arithmetic the paper's programs are written in. Going through
// uint64_t gives the same bits without C++'s signed-overflow UB, so every
// runner agrees on (and the ubsan build accepts) overflowing sums.
inline int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) + static_cast<uint64_t>(y));
}
inline int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) - static_cast<uint64_t>(y));
}
inline int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) * static_cast<uint64_t>(y));
}

// Why an abort was inserted — the paper's four violation conditions plus the
// forced-abort hook used by the Fig. 10(b) experiment.
enum class AbortReason : uint8_t {
  kLoadAndEscape,         // violation 1
  kDisruptNativeSpace,    // violation 2
  kInvokeNativeMethod,    // violation 3
  kUseObjectMetainfo,     // violation 4
  kForced,                // experiment hook
};

const char* AbortReasonName(AbortReason reason);

// One three-address statement. Operand meaning depends on `op` (see the Op
// comments); unused fields stay at their defaults.
struct Statement {
  Op op = Op::kConst;
  int dst = -1;           // destination variable
  int a = -1;             // operand variables
  int b = -1;
  int c = -1;
  const Klass* klass = nullptr;  // class for field/alloc ops
  int field_index = -1;          // index into klass->fields()
  FieldKind elem_kind = FieldKind::kI32;  // element/field kind for native ops
  int expr_id = -1;              // offset expression (transformed ops)
  bool expr_is_const = false;    // fast path: offset is a compile-time constant
  int64_t expr_const_offset = 0; // valid when expr_is_const (Algorithm 1's
                                 // "offset is statically known" case)
  BinOpKind binop = BinOpKind::kAdd;
  UnOpKind unop = UnOpKind::kNeg;
  Value imm;                     // kConst payload
  int label = -1;                // kBranch/kJump target, kLabel id
  int func = -1;                 // kCall callee function id
  std::vector<int> args;         // kCall / kCallNative arguments
  std::string native_name;       // kCallNative symbol
  AbortReason abort_reason = AbortReason::kLoadAndEscape;
};

// ---------------------------------------------------------------------------
// Functions and programs
// ---------------------------------------------------------------------------

struct VarInfo {
  std::string name;
  IrType type;
};

struct Function {
  int id = -1;
  std::string name;
  int num_params = 0;           // params are variables [0, num_params)
  IrType return_type = IrType::Void();
  std::vector<VarInfo> vars;
  std::vector<Statement> body;
  // label id -> statement index, rebuilt by ResolveLabels().
  std::vector<int> label_index;

  void ResolveLabels();
};

// A speculative-execution-region program: the statements between one
// deserialization point and one serialization point, factored into functions
// (the task body plus the UDFs it calls).
struct SerProgram {
  std::vector<std::unique_ptr<Function>> functions;
  Function* body = nullptr;  // entry executed once per input record

  Function* AddFunction(const std::string& name);
  Function* FindFunction(const std::string& name) const;
  const Function* function(int id) const { return functions[id].get(); }
  Function* function(int id) { return functions[id].get(); }
};

// Copies function `func_id` of `src` — and, transitively, every function it
// calls — into `dst`, remapping call targets. Engines use this to assemble a
// per-stage SerProgram out of workload-defined UDFs. Returns the id of the
// imported function in `dst`; repeated imports reuse `remap` entries.
int ImportFunction(SerProgram& dst, const SerProgram& src, int func_id,
                   std::map<int, int>& remap);

// Human-readable listing (one statement per line) for docs and debugging.
std::string PrintFunction(const Function& func);
std::string PrintProgram(const SerProgram& program);

}  // namespace gerenuk

#endif  // SRC_IR_IR_H_
