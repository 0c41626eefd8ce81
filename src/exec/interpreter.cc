#include "src/exec/interpreter.h"

#include <cmath>

namespace gerenuk {

uint64_t HashBytes(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * 1099511628211ULL;
  }
  return h;
}

Interpreter::Interpreter(const SerProgram& program, Heap& heap, const WellKnown& wk,
                         const DataStructAnalyzer* layouts, BuilderStore* builders)
    : program_(program), heap_(heap), wk_(wk), layouts_(layouts), builders_(builders) {
  heap_.AddRootProvider(this);
}

Interpreter::~Interpreter() { heap_.RemoveRootProvider(this); }

void Interpreter::VisitRoots(const std::function<void(ObjRef*)>& visit) {
  for (size_t f = 0; f < active_frames_; ++f) {
    for (Value& value : frame_pool_[f]->slots) {
      if (value.tag == ValueTag::kRef && value.i != 0) {
        // Value::i and ObjRef are both 64-bit; the GC may rewrite the slot.
        visit(reinterpret_cast<ObjRef*>(&value.i));
      }
    }
  }
}

Interpreter::Frame* Interpreter::AcquireFrame(const Function* func) {
  if (active_frames_ == frame_pool_.size()) {
    frame_pool_.push_back(std::make_unique<Frame>());
  }
  Frame* frame = frame_pool_[active_frames_++].get();
  frame->func = func;
  frame->slots.assign(func->vars.size(), Value());
  return frame;
}

void Interpreter::ReleaseFrame() { active_frames_ -= 1; }

Value Interpreter::CallFunction(const Function* func, const Value* args, size_t nargs) {
  GERENUK_CHECK_EQ(static_cast<int>(nargs), func->num_params);
  calls_ += 1;
  Frame* frame = AcquireFrame(func);
  for (size_t i = 0; i < nargs; ++i) {
    frame->slots[i] = args[i];
  }
  Value result;
  try {
    result = Execute(*frame);
  } catch (...) {
    ReleaseFrame();
    throw;
  }
  ReleaseFrame();
  return result;
}

Value Interpreter::Execute(Frame& frame) {
  const Function& func = *frame.func;
  std::vector<Value>& slots = frame.slots;
  size_t pc = 0;
  auto as_i = [&slots](int var) { return slots[var].i; };
  auto as_f = [&slots](int var) {
    const Value& v = slots[var];
    return v.tag == ValueTag::kF64 ? v.d : static_cast<double>(v.i);
  };

  while (pc < func.body.size()) {
    const Statement& s = func.body[pc];
    statements_executed_ += 1;
    switch (s.op) {
      case Op::kConst:
        slots[s.dst] = s.imm;
        break;
      case Op::kAssign:
        slots[s.dst] = slots[s.a];
        break;
      case Op::kBinOp: {
        const Value& a = slots[s.a];
        const Value& b = slots[s.b];
        bool is_float = a.tag == ValueTag::kF64 || b.tag == ValueTag::kF64;
        if (is_float) {
          double x = as_f(s.a);
          double y = as_f(s.b);
          switch (s.binop) {
            case BinOpKind::kAdd: slots[s.dst] = Value::F64(x + y); break;
            case BinOpKind::kSub: slots[s.dst] = Value::F64(x - y); break;
            case BinOpKind::kMul: slots[s.dst] = Value::F64(x * y); break;
            case BinOpKind::kDiv: slots[s.dst] = Value::F64(x / y); break;
            case BinOpKind::kRem: slots[s.dst] = Value::F64(std::fmod(x, y)); break;
            case BinOpKind::kLt: slots[s.dst] = Value::Bool(x < y); break;
            case BinOpKind::kLe: slots[s.dst] = Value::Bool(x <= y); break;
            case BinOpKind::kGt: slots[s.dst] = Value::Bool(x > y); break;
            case BinOpKind::kGe: slots[s.dst] = Value::Bool(x >= y); break;
            case BinOpKind::kEq: slots[s.dst] = Value::Bool(x == y); break;
            case BinOpKind::kNe: slots[s.dst] = Value::Bool(x != y); break;
            case BinOpKind::kMin: slots[s.dst] = Value::F64(x < y ? x : y); break;
            case BinOpKind::kMax: slots[s.dst] = Value::F64(x > y ? x : y); break;
            default:
              GERENUK_CHECK(false) << "bitwise binop on floats";
          }
        } else {
          int64_t x = a.i;
          int64_t y = b.i;
          switch (s.binop) {
            case BinOpKind::kAdd: slots[s.dst] = Value::I64(WrapAdd(x, y)); break;
            case BinOpKind::kSub: slots[s.dst] = Value::I64(WrapSub(x, y)); break;
            case BinOpKind::kMul: slots[s.dst] = Value::I64(WrapMul(x, y)); break;
            case BinOpKind::kDiv:
              GERENUK_CHECK_NE(y, 0);
              slots[s.dst] = Value::I64(x / y);
              break;
            case BinOpKind::kRem:
              GERENUK_CHECK_NE(y, 0);
              slots[s.dst] = Value::I64(x % y);
              break;
            case BinOpKind::kLt: slots[s.dst] = Value::Bool(x < y); break;
            case BinOpKind::kLe: slots[s.dst] = Value::Bool(x <= y); break;
            case BinOpKind::kGt: slots[s.dst] = Value::Bool(x > y); break;
            case BinOpKind::kGe: slots[s.dst] = Value::Bool(x >= y); break;
            case BinOpKind::kEq: slots[s.dst] = Value::Bool(x == y); break;
            case BinOpKind::kNe: slots[s.dst] = Value::Bool(x != y); break;
            case BinOpKind::kAnd: slots[s.dst] = Value::I64(x & y); break;
            case BinOpKind::kOr: slots[s.dst] = Value::I64(x | y); break;
            case BinOpKind::kXor: slots[s.dst] = Value::I64(x ^ y); break;
            case BinOpKind::kShl: slots[s.dst] = Value::I64(x << y); break;
            case BinOpKind::kShr: slots[s.dst] = Value::I64(x >> y); break;
            case BinOpKind::kMin: slots[s.dst] = Value::I64(x < y ? x : y); break;
            case BinOpKind::kMax: slots[s.dst] = Value::I64(x > y ? x : y); break;
          }
        }
        break;
      }
      case Op::kUnOp:
        switch (s.unop) {
          case UnOpKind::kNeg:
            slots[s.dst] = slots[s.a].tag == ValueTag::kF64 ? Value::F64(-slots[s.a].d)
                                                            : Value::I64(WrapSub(0, slots[s.a].i));
            break;
          case UnOpKind::kNot:
            slots[s.dst] = Value::Bool(!slots[s.a].AsBool());
            break;
          case UnOpKind::kI2F:
            slots[s.dst] = Value::F64(static_cast<double>(slots[s.a].i));
            break;
          case UnOpKind::kF2I:
            slots[s.dst] = Value::I64(static_cast<int64_t>(as_f(s.a)));
            break;
        }
        break;

      // ---- original (heap) data operations ----
      case Op::kDeserialize:
        GERENUK_CHECK(channel_ != nullptr && channel_->next_heap_record);
        slots[s.dst] = Value::Ref(static_cast<int64_t>(channel_->next_heap_record()));
        break;
      case Op::kSerialize:
        GERENUK_CHECK(channel_ != nullptr && channel_->emit_heap_record);
        channel_->emit_heap_record(static_cast<ObjRef>(slots[s.a].i), s.klass);
        break;
      case Op::kFieldLoad: {
        const FieldInfo& field = s.klass->field(s.field_index);
        ObjRef obj = static_cast<ObjRef>(slots[s.a].i);
        switch (field.kind) {
          case FieldKind::kBool:
          case FieldKind::kI8:
            slots[s.dst] = Value::I64(heap_.GetPrim<int8_t>(obj, field.offset));
            break;
          case FieldKind::kI16:
          case FieldKind::kChar:
            slots[s.dst] = Value::I64(heap_.GetPrim<int16_t>(obj, field.offset));
            break;
          case FieldKind::kI32:
            slots[s.dst] = Value::I64(heap_.GetPrim<int32_t>(obj, field.offset));
            break;
          case FieldKind::kI64:
            slots[s.dst] = Value::I64(heap_.GetPrim<int64_t>(obj, field.offset));
            break;
          case FieldKind::kF32:
            slots[s.dst] = Value::F64(heap_.GetPrim<float>(obj, field.offset));
            break;
          case FieldKind::kF64:
            slots[s.dst] = Value::F64(heap_.GetPrim<double>(obj, field.offset));
            break;
          case FieldKind::kRef:
            slots[s.dst] = Value::Ref(static_cast<int64_t>(heap_.GetRef(obj, field.offset)));
            break;
        }
        break;
      }
      case Op::kFieldStore: {
        const FieldInfo& field = s.klass->field(s.field_index);
        ObjRef obj = static_cast<ObjRef>(slots[s.a].i);
        switch (field.kind) {
          case FieldKind::kBool:
          case FieldKind::kI8:
            heap_.SetPrim<int8_t>(obj, field.offset, static_cast<int8_t>(as_i(s.b)));
            break;
          case FieldKind::kI16:
          case FieldKind::kChar:
            heap_.SetPrim<int16_t>(obj, field.offset, static_cast<int16_t>(as_i(s.b)));
            break;
          case FieldKind::kI32:
            heap_.SetPrim<int32_t>(obj, field.offset, static_cast<int32_t>(as_i(s.b)));
            break;
          case FieldKind::kI64:
            heap_.SetPrim<int64_t>(obj, field.offset, as_i(s.b));
            break;
          case FieldKind::kF32:
            heap_.SetPrim<float>(obj, field.offset, static_cast<float>(as_f(s.b)));
            break;
          case FieldKind::kF64:
            heap_.SetPrim<double>(obj, field.offset, as_f(s.b));
            break;
          case FieldKind::kRef:
            heap_.SetRef(obj, field.offset, static_cast<ObjRef>(slots[s.b].i));
            break;
        }
        break;
      }
      case Op::kArrayLoad: {
        ObjRef arr = static_cast<ObjRef>(slots[s.a].i);
        int64_t idx = as_i(s.b);
        switch (s.elem_kind) {
          case FieldKind::kBool:
          case FieldKind::kI8:
            slots[s.dst] = Value::I64(heap_.AGet<int8_t>(arr, idx));
            break;
          case FieldKind::kI16:
          case FieldKind::kChar:
            slots[s.dst] = Value::I64(heap_.AGet<int16_t>(arr, idx));
            break;
          case FieldKind::kI32:
            slots[s.dst] = Value::I64(heap_.AGet<int32_t>(arr, idx));
            break;
          case FieldKind::kI64:
            slots[s.dst] = Value::I64(heap_.AGet<int64_t>(arr, idx));
            break;
          case FieldKind::kF32:
            slots[s.dst] = Value::F64(heap_.AGet<float>(arr, idx));
            break;
          case FieldKind::kF64:
            slots[s.dst] = Value::F64(heap_.AGet<double>(arr, idx));
            break;
          case FieldKind::kRef:
            slots[s.dst] = Value::Ref(static_cast<int64_t>(heap_.AGetRef(arr, idx)));
            break;
        }
        break;
      }
      case Op::kArrayStore: {
        ObjRef arr = static_cast<ObjRef>(slots[s.a].i);
        int64_t idx = as_i(s.b);
        switch (s.elem_kind) {
          case FieldKind::kBool:
          case FieldKind::kI8:
            heap_.ASet<int8_t>(arr, idx, static_cast<int8_t>(as_i(s.c)));
            break;
          case FieldKind::kI16:
          case FieldKind::kChar:
            heap_.ASet<int16_t>(arr, idx, static_cast<int16_t>(as_i(s.c)));
            break;
          case FieldKind::kI32:
            heap_.ASet<int32_t>(arr, idx, static_cast<int32_t>(as_i(s.c)));
            break;
          case FieldKind::kI64:
            heap_.ASet<int64_t>(arr, idx, as_i(s.c));
            break;
          case FieldKind::kF32:
            heap_.ASet<float>(arr, idx, static_cast<float>(as_f(s.c)));
            break;
          case FieldKind::kF64:
            heap_.ASet<double>(arr, idx, as_f(s.c));
            break;
          case FieldKind::kRef:
            heap_.ASetRef(arr, idx, static_cast<ObjRef>(slots[s.c].i));
            break;
        }
        break;
      }
      case Op::kArrayLength:
        slots[s.dst] = Value::I64(heap_.ArrayLength(static_cast<ObjRef>(slots[s.a].i)));
        break;
      case Op::kNewObject:
        slots[s.dst] = Value::Ref(static_cast<int64_t>(heap_.AllocObject(s.klass)));
        break;
      case Op::kNewArray:
        slots[s.dst] = Value::Ref(static_cast<int64_t>(heap_.AllocArray(s.klass, as_i(s.a))));
        break;

      // ---- calls & control flow ----
      case Op::kCall: {
        std::vector<Value> args;
        args.reserve(s.args.size());
        for (int arg : s.args) {
          args.push_back(slots[arg]);
        }
        Value result = CallFunction(program_.function(s.func), args);
        if (s.dst >= 0) {
          slots[s.dst] = result;
        }
        break;
      }
      case Op::kCallNative: {
        Value result = RunIntrinsic(s, frame);
        if (s.dst >= 0) {
          slots[s.dst] = result;
        }
        break;
      }
      case Op::kMonitorEnter:
      case Op::kMonitorExit:
        break;  // single executor per task: monitors are uncontended no-ops
      case Op::kBranch:
        if (slots[s.a].AsBool()) {
          GERENUK_CHECK_LT(static_cast<size_t>(s.label), func.label_index.size());
          pc = static_cast<size_t>(func.label_index[s.label]);
        }
        break;
      case Op::kJump:
        GERENUK_CHECK_LT(static_cast<size_t>(s.label), func.label_index.size());
        pc = static_cast<size_t>(func.label_index[s.label]);
        break;
      case Op::kLabel:
        break;
      case Op::kReturn:
        return s.a >= 0 ? slots[s.a] : Value::None();

      // ---- transformed (native) operations ----
      case Op::kGetAddress:
        GERENUK_CHECK(channel_ != nullptr && channel_->next_native_record);
        slots[s.dst] = Value::Addr(channel_->next_native_record());
        break;
      case Op::kGWriteObject:
        GERENUK_CHECK(channel_ != nullptr && channel_->emit_native_record);
        channel_->emit_native_record(slots[s.a].i, s.klass);
        break;
      case Op::kReadNative: {
        int64_t addr = slots[s.a].i;
        if (IsBuilderAddr(addr)) {
          int64_t iv = 0;
          double fv = 0.0;
          builders_->ReadField(addr, s.field_index, s.elem_kind, &iv, &fv);
          slots[s.dst] = (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64)
                             ? Value::F64(fv)
                             : Value::I64(iv);
        } else {
          // Algorithm 1 distinguishes statically-known offsets from symbolic
          // ones; the former compile to a direct read.
          int64_t off = s.expr_is_const ? s.expr_const_offset
                                        : ResolveOffset(layouts_->pool(), s.expr_id, addr);
          slots[s.dst] = (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64)
                             ? Value::F64(NativeReadFloat(addr, off, s.elem_kind))
                             : Value::I64(NativeReadInt(addr, off, s.elem_kind));
        }
        break;
      }
      case Op::kWriteNative: {
        int64_t addr = slots[s.a].i;
        if (!IsBuilderAddr(addr)) {
          // Writing into a committed (input) record would corrupt the
          // immutable input buffers the re-execution depends on: abort.
          throw SerAbort{AbortReason::kDisruptNativeSpace,
                         "writeNative on committed input record"};
        }
        if (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64) {
          builders_->WriteField(addr, s.field_index, s.elem_kind, 0, as_f(s.b));
        } else {
          builders_->WriteField(addr, s.field_index, s.elem_kind, as_i(s.b), 0.0);
        }
        break;
      }
      case Op::kAddrOfField: {
        int64_t addr = slots[s.a].i;
        if (IsBuilderAddr(addr)) {
          slots[s.dst] = Value::Addr(builders_->FieldAddr(addr, s.field_index));
        } else {
          int64_t off = s.expr_is_const ? s.expr_const_offset
                                        : ResolveOffset(layouts_->pool(), s.expr_id, addr);
          slots[s.dst] = Value::Addr(addr + off);
        }
        break;
      }
      case Op::kNativeArrayLength: {
        int64_t addr = slots[s.a].i;
        slots[s.dst] = Value::I64(IsBuilderAddr(addr) ? builders_->ArrayLength(addr)
                                                      : NativeReadI32(addr));
        break;
      }
      case Op::kNativeArrayLoad: {
        int64_t addr = slots[s.a].i;
        int64_t idx = as_i(s.b);
        if (IsBuilderAddr(addr)) {
          int64_t iv = 0;
          double fv = 0.0;
          builders_->ArrayLoad(addr, idx, s.elem_kind, &iv, &fv);
          slots[s.dst] = (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64)
                             ? Value::F64(fv)
                             : Value::I64(iv);
        } else {
          int64_t len = NativeReadI32(addr);
          if (idx < 0 || idx >= len) {
            GERENUK_CHECK(false) << "native array index " << idx << " out of bounds [0," << len
                                 << ")";
          }
          int64_t off = 4 + idx * FieldKindSize(s.elem_kind);
          slots[s.dst] = (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64)
                             ? Value::F64(NativeReadFloat(addr, off, s.elem_kind))
                             : Value::I64(NativeReadInt(addr, off, s.elem_kind));
        }
        break;
      }
      case Op::kNativeArrayStore: {
        int64_t addr = slots[s.a].i;
        if (!IsBuilderAddr(addr)) {
          throw SerAbort{AbortReason::kDisruptNativeSpace,
                         "array store into committed input record"};
        }
        if (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64) {
          builders_->ArrayStore(addr, as_i(s.b), s.elem_kind, 0, as_f(s.c));
        } else {
          builders_->ArrayStore(addr, as_i(s.b), s.elem_kind, as_i(s.c), 0.0);
        }
        break;
      }
      case Op::kNativeArrayElemAddr: {
        int64_t addr = slots[s.a].i;
        int64_t idx = as_i(s.b);
        slots[s.dst] = Value::Addr(IsBuilderAddr(addr)
                                       ? builders_->ElementAddr(addr, idx)
                                       : CommittedArrayElemAddr(*layouts_, s.klass, addr, idx));
        break;
      }
      case Op::kAppendRecord:
        slots[s.dst] = Value::Addr(builders_->NewRecord(s.klass));
        break;
      case Op::kAppendArray:
        slots[s.dst] = Value::Addr(builders_->NewArray(s.klass, as_i(s.a)));
        break;
      case Op::kAttachField: {
        int64_t addr = slots[s.a].i;
        if (!IsBuilderAddr(addr)) {
          throw SerAbort{AbortReason::kDisruptNativeSpace,
                         "reference write into committed input record"};
        }
        builders_->AttachField(addr, s.field_index, slots[s.b].i);
        break;
      }
      case Op::kAttachElement: {
        int64_t addr = slots[s.a].i;
        if (!IsBuilderAddr(addr)) {
          throw SerAbort{AbortReason::kDisruptNativeSpace,
                         "reference element write into committed input record"};
        }
        builders_->AttachElement(addr, as_i(s.b), slots[s.c].i);
        break;
      }
      case Op::kAbort:
        throw SerAbort{s.abort_reason, "static abort fence reached in " + func.name};

      // ---- owned-accumulator writes (accumulate forms only; the caller
      // guarantees `a` is committed-format bytes it owns) ----
      case Op::kWriteOwned: {
        int64_t addr = slots[s.a].i;
        int64_t off = s.expr_is_const ? s.expr_const_offset
                                      : ResolveOffset(layouts_->pool(), s.expr_id, addr);
        if (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64) {
          NativeWriteFloat(addr, off, s.elem_kind, as_f(s.b));
        } else {
          NativeWriteInt(addr, off, s.elem_kind, as_i(s.b));
        }
        break;
      }
      case Op::kNativeArrayStoreOwned: {
        int64_t off = 4 + as_i(s.b) * FieldKindSize(s.elem_kind);
        if (s.elem_kind == FieldKind::kF32 || s.elem_kind == FieldKind::kF64) {
          NativeWriteFloat(slots[s.a].i, off, s.elem_kind, as_f(s.c));
        } else {
          NativeWriteInt(slots[s.a].i, off, s.elem_kind, as_i(s.c));
        }
        break;
      }
      case Op::kFoldSlot: {
        GERENUK_CHECK(channel_ != nullptr && channel_->fold != nullptr);
        const int64_t slot = channel_->fold->Slot(static_cast<FoldSlotMode>(s.imm.i),
                                                  slots[s.a].i, slots[s.b], *this, *builders_);
        if (s.dst >= 0) {
          slots[s.dst] = Value::Addr(slot);
        }
        break;
      }
    }
    ++pc;
  }
  return Value::None();
}

int64_t ReadStringValueBytes(BuilderStore* builders, const WellKnown& wk, Value v,
                             std::string* out) {
  if (v.tag == ValueTag::kAddr) {
    int64_t addr = v.i;
    if (IsBuilderAddr(addr)) {
      // An under-construction string: its byte-array child holds the chars.
      const uint8_t* data = nullptr;
      int64_t len = 0;
      if (builders->TryGetStringBytes(addr, &data, &len)) {
        out->assign(reinterpret_cast<const char*>(data), static_cast<size_t>(len));
        return len;
      }
      const Klass* klass = builders->KlassOf(addr);
      ByteBuffer bytes;
      builders->RenderBody(addr, klass, bytes);
      ByteReader reader(bytes.bytes());
      int32_t count = reader.ReadI32();
      out->assign(reinterpret_cast<const char*>(bytes.data() + 4), static_cast<size_t>(count));
      return count;
    }
    int32_t len = NativeReadI32(addr);
    out->assign(reinterpret_cast<const char*>(addr + 4), static_cast<size_t>(len));
    return len;
  }
  GERENUK_CHECK(v.tag == ValueTag::kRef);
  *out = wk.GetString(static_cast<ObjRef>(v.i));
  return static_cast<int64_t>(out->size());
}

int64_t Interpreter::ReadStringBytes(Value v, std::string* out) {
  return ReadStringValueBytes(builders_, wk_, v, out);
}

Value Interpreter::RunIntrinsic(const Statement& s, Frame& frame) {
  std::vector<Value>& slots = frame.slots;
  const std::string& name = s.native_name;
  auto arg_f = [&slots, &s](size_t i) {
    const Value& v = slots[s.args[i]];
    return v.tag == ValueTag::kF64 ? v.d : static_cast<double>(v.i);
  };
  // Math natives take primitive arguments only, so they never carry taint
  // and are legal on both paths (like the JVM's Math.* intrinsics).
  if (name == "exp") {
    return Value::F64(std::exp(arg_f(0)));
  }
  if (name == "log") {
    return Value::F64(std::log(arg_f(0)));
  }
  if (name == "sqrt") {
    return Value::F64(std::sqrt(arg_f(0)));
  }
  if (name == "abs") {
    return Value::F64(std::fabs(arg_f(0)));
  }
  if (name == "stringLength") {
    std::string text;
    ReadStringBytes(slots[s.args[0]], &text);
    return Value::I64(static_cast<int64_t>(text.size()));
  }
  if (name == "stringHash" || name == "hashCode") {
    std::string text;
    ReadStringBytes(slots[s.args[0]], &text);
    return Value::I64(static_cast<int64_t>(
        HashBytes(reinterpret_cast<const uint8_t*>(text.data()), text.size())));
  }
  if (name == "stringEquals") {
    std::string a;
    std::string b;
    ReadStringBytes(slots[s.args[0]], &a);
    ReadStringBytes(slots[s.args[1]], &b);
    return Value::Bool(a == b);
  }
  if (name == "stringCompare") {
    std::string a;
    std::string b;
    ReadStringBytes(slots[s.args[0]], &a);
    ReadStringBytes(slots[s.args[1]], &b);
    return Value::I64(a.compare(b));
  }
  GERENUK_CHECK(false) << "no runtime implementation for native method " << name;
  return Value::None();
}

}  // namespace gerenuk
