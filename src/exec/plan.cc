#include "src/exec/plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

// Direct-threaded dispatch needs GNU computed goto; elsewhere the same
// handler bodies compile into a switch loop via the OP/NEXT/JUMP macros.
#if defined(__GNUC__) || defined(__clang__)
#define GERENUK_COMPUTED_GOTO 1
#endif

namespace gerenuk {

namespace {

// The hot helpers must land inside each dispatch handler: an out-of-line
// EvalBin costs a call plus a 24-byte sret round trip per binop, which alone
// erases the dispatch win (GCC at -O2 declines to inline it by size).
#if defined(__GNUC__) || defined(__clang__)
#define GERENUK_FORCE_INLINE inline __attribute__((always_inline))
#else
#define GERENUK_FORCE_INLINE inline
#endif

// The vectorized kernels want plain indexed loops the compiler can
// auto-vectorize; restrict-qualified pointers tell it the destination column
// never aliases the operand columns (the lowering guarantees distinct
// column ids).
#if defined(__GNUC__) || defined(__clang__)
#define GERENUK_RESTRICT __restrict__
#else
#define GERENUK_RESTRICT
#endif

// Exact copies of the interpreter's binop semantics, including the dynamic
// float rule (either operand kF64 promotes), the divide-by-zero checks, and
// the bitwise-on-float fatal — the differential tests depend on parity.
GERENUK_FORCE_INLINE double AsF(const Value& v) {
  return v.tag == ValueTag::kF64 ? v.d : static_cast<double>(v.i);
}

// Column lanes are raw 8-byte payloads: i64 bits for integer-tagged values,
// double bits for kF64. All column memory is accessed as int64_t; doubles
// round-trip through memcpy-based punning (compiles to a plain move, keeps
// the loops strict-aliasing clean and auto-vectorizable).
GERENUK_FORCE_INLINE int64_t F2Bits(double d) {
  int64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

GERENUK_FORCE_INLINE double BitsAsF(int64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

// Element `index` of a primitive array whose elements start at `elems`, as
// the C type of its FieldKind.
template <typename T>
GERENUK_FORCE_INLINE T LoadElem(int64_t elems, int64_t index) {
  T v;
  std::memcpy(&v, reinterpret_cast<const void*>(elems + index * int64_t{sizeof(T)}), sizeof(v));
  return v;
}

template <typename T>
GERENUK_FORCE_INLINE void StoreElem(int64_t elems, int64_t index, T v) {
  std::memcpy(reinterpret_cast<void*>(elems + index * int64_t{sizeof(T)}), &v, sizeof(v));
}

// A loaded element as column-lane bits, widened exactly as NativeReadInt /
// NativeReadFloat widen it: integers sign-extended, f32 to f64.
template <typename T>
GERENUK_FORCE_INLINE int64_t LaneBits(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return F2Bits(static_cast<double>(v));
  } else {
    return static_cast<int64_t>(v);
  }
}

// Calls fn(T{}) with the C type NativeReadInt / NativeReadFloat use for a
// primitive element kind (kRef reads as its 8-byte address).
template <typename Fn>
GERENUK_FORCE_INLINE void DispatchElemKind(FieldKind kind, const Fn& fn) {
  switch (kind) {
    case FieldKind::kBool:
    case FieldKind::kI8: fn(int8_t{}); break;
    case FieldKind::kI16:
    case FieldKind::kChar: fn(int16_t{}); break;
    case FieldKind::kI32: fn(int32_t{}); break;
    case FieldKind::kI64:
    case FieldKind::kRef: fn(int64_t{}); break;
    case FieldKind::kF32: fn(float{}); break;
    case FieldKind::kF64: fn(double{}); break;
  }
}

GERENUK_FORCE_INLINE Value EvalBin(BinOpKind kind, const Value& a, const Value& b) {
  bool is_float = a.tag == ValueTag::kF64 || b.tag == ValueTag::kF64;
  if (is_float) {
    double x = AsF(a);
    double y = AsF(b);
    switch (kind) {
      case BinOpKind::kAdd: return Value::F64(x + y);
      case BinOpKind::kSub: return Value::F64(x - y);
      case BinOpKind::kMul: return Value::F64(x * y);
      case BinOpKind::kDiv: return Value::F64(x / y);
      case BinOpKind::kRem: return Value::F64(std::fmod(x, y));
      case BinOpKind::kLt: return Value::Bool(x < y);
      case BinOpKind::kLe: return Value::Bool(x <= y);
      case BinOpKind::kGt: return Value::Bool(x > y);
      case BinOpKind::kGe: return Value::Bool(x >= y);
      case BinOpKind::kEq: return Value::Bool(x == y);
      case BinOpKind::kNe: return Value::Bool(x != y);
      case BinOpKind::kMin: return Value::F64(x < y ? x : y);
      case BinOpKind::kMax: return Value::F64(x > y ? x : y);
      default:
        GERENUK_CHECK(false) << "bitwise binop on floats";
    }
    return Value::None();
  }
  int64_t x = a.i;
  int64_t y = b.i;
  switch (kind) {
    case BinOpKind::kAdd: return Value::I64(WrapAdd(x, y));
    case BinOpKind::kSub: return Value::I64(WrapSub(x, y));
    case BinOpKind::kMul: return Value::I64(WrapMul(x, y));
    case BinOpKind::kDiv:
      GERENUK_CHECK_NE(y, 0);
      return Value::I64(x / y);
    case BinOpKind::kRem:
      GERENUK_CHECK_NE(y, 0);
      return Value::I64(x % y);
    case BinOpKind::kLt: return Value::Bool(x < y);
    case BinOpKind::kLe: return Value::Bool(x <= y);
    case BinOpKind::kGt: return Value::Bool(x > y);
    case BinOpKind::kGe: return Value::Bool(x >= y);
    case BinOpKind::kEq: return Value::Bool(x == y);
    case BinOpKind::kNe: return Value::Bool(x != y);
    case BinOpKind::kAnd: return Value::I64(x & y);
    case BinOpKind::kOr: return Value::I64(x | y);
    case BinOpKind::kXor: return Value::I64(x ^ y);
    case BinOpKind::kShl: return Value::I64(x << y);
    case BinOpKind::kShr: return Value::I64(x >> y);
    case BinOpKind::kMin: return Value::I64(x < y ? x : y);
    case BinOpKind::kMax: return Value::I64(x > y ? x : y);
  }
  return Value::None();
}

}  // namespace

PlanExecutor::PlanExecutor(const SerPlan& plan, Heap& heap, const WellKnown& wk,
                           const DataStructAnalyzer* layouts, BuilderStore* builders)
    : primary_(plan), heap_(heap), wk_(wk), layouts_(layouts), builders_(builders) {
  AddPlan(plan);
  emit_buf_.reserve(kEmitBatch);
  heap_.AddRootProvider(this);
}

PlanExecutor::~PlanExecutor() { heap_.RemoveRootProvider(this); }

void PlanExecutor::AddPlan(const SerPlan& plan) {
  for (const PlanFunction& pf : plan.funcs()) {
    fn_index_[pf.src] = &pf;
  }
}

void PlanExecutor::set_channel(RecordChannel* channel) {
  channel_ = channel;
  input_pos_ = 0;
  input_len_ = 0;
  emit_buf_.clear();
}

void PlanExecutor::VisitRoots(const std::function<void(ObjRef*)>& visit) {
  for (size_t f = 0; f < active_frames_; ++f) {
    for (Value& value : frame_pool_[f]->slots) {
      if (value.tag == ValueTag::kRef && value.i != 0) {
        visit(reinterpret_cast<ObjRef*>(&value.i));
      }
    }
  }
}

PlanExecutor::Frame* PlanExecutor::AcquireFrame(const PlanFunction* func) {
  if (active_frames_ == frame_pool_.size()) {
    frame_pool_.push_back(std::make_unique<Frame>());
  }
  Frame* frame = frame_pool_[active_frames_++].get();
  frame->func = func;
  // Every slot starts as the function's initial image: None, except the
  // constants the compiler hoisted out of the body. Resize to the exact var count —
  // VisitRoots scans the whole slots vector of every active frame, so a
  // stale tail from a larger previous callee must not survive here.
  static_assert(std::is_trivially_copyable_v<Value>);
  const size_t num_vars = static_cast<size_t>(func->num_vars);
  frame->slots.resize(num_vars);
  std::memcpy(static_cast<void*>(frame->slots.data()), func->init_slots.data(),
              num_vars * sizeof(Value));
  return frame;
}

void PlanExecutor::ReleaseFrame() { active_frames_ -= 1; }

Value PlanExecutor::CallFunction(const Function* func, const Value* args, size_t nargs) {
  const PlanFunction* pf;
  if (func == last_fn_) {
    pf = last_pf_;
  } else {
    auto it = fn_index_.find(func);
    GERENUK_CHECK(it != fn_index_.end())
        << "function not in any registered plan: " << func->name;
    pf = it->second;
    last_fn_ = func;
    last_pf_ = pf;
  }
  GERENUK_CHECK_EQ(static_cast<int>(nargs), pf->num_params);
  calls_ += 1;
  return Invoke(*pf, args, nargs);
}

Value PlanExecutor::Invoke(const PlanFunction& func, const Value* args, size_t nargs) {
  Frame* frame = AcquireFrame(&func);
  for (size_t i = 0; i < nargs; ++i) {
    frame->slots[i] = args[i];
  }
  Value result;
  try {
    result = profile_ != nullptr ? Execute<true>(*frame) : Execute<false>(*frame);
  } catch (...) {
    ReleaseFrame();
    throw;
  }
  ReleaseFrame();
  return result;
}

int64_t PlanExecutor::ReadStringBytes(Value v, std::string* out) {
  return ReadStringValueBytes(builders_, wk_, v, out);
}

void PlanExecutor::RefillInput() {
  GERENUK_CHECK(channel_ != nullptr);
  if (channel_->next_native_batch) {
    input_len_ = channel_->next_native_batch(input_buf_, kInputBatch);
    input_pos_ = 0;
    GERENUK_CHECK(input_len_ > 0) << "record source exhausted";
    return;
  }
  GERENUK_CHECK(channel_->next_native_record);
  input_buf_[0] = channel_->next_native_record();
  input_pos_ = 0;
  input_len_ = 1;
}

void PlanExecutor::FlushEmits() {
  if (emit_buf_.empty()) {
    return;
  }
  GERENUK_CHECK(channel_ != nullptr && channel_->emit_native_batch);
  channel_->emit_native_batch(emit_buf_.data(), emit_buf_.size());
  emit_buf_.clear();
}

namespace {

// Evaluates a flattened symbolic offset: each step is constant + Σ scale ·
// i32 length read at (base + earlier step's value); the last step is the
// offset. Mirrors ResolveOffset without recursion or pool lookups.

inline int64_t EvalFlat(const SerPlan& plan, const PlanOp& op, int64_t base) {
  int64_t vals[kMaxFlatSteps];
  const FlatStep* steps = plan.flat_steps().data();
  const FlatTerm* terms = plan.flat_terms().data();
  for (int32_t i = 0; i < op.flat_len; ++i) {
    const FlatStep& step = steps[op.flat_off + i];
    int64_t v = step.constant;
    for (int32_t t = 0; t < step.num_terms; ++t) {
      const FlatTerm& term = terms[step.first_term + t];
      v += term.scale * static_cast<int64_t>(NativeReadI32(base + vals[term.step]));
    }
    vals[i] = v;
  }
  return vals[op.flat_len - 1];
}

}  // namespace

Value PlanExecutor::RunIntrinsic(const PlanOp& op, const Value* slots,
                                 const int32_t* args_pool) {
  auto arg = [&](int i) -> const Value& { return slots[args_pool[op.args_off + i]]; };
  auto arg_f = [&](int i) { return AsF(arg(i)); };
  switch (op.intrinsic) {
    case Intrinsic::kExp:
      return Value::F64(std::exp(arg_f(0)));
    case Intrinsic::kLog:
      return Value::F64(std::log(arg_f(0)));
    case Intrinsic::kSqrt:
      return Value::F64(std::sqrt(arg_f(0)));
    case Intrinsic::kAbs:
      return Value::F64(std::fabs(arg_f(0)));
    case Intrinsic::kStringLength: {
      std::string text;
      ReadStringBytes(arg(0), &text);
      return Value::I64(static_cast<int64_t>(text.size()));
    }
    case Intrinsic::kStringHash: {
      std::string text;
      ReadStringBytes(arg(0), &text);
      return Value::I64(static_cast<int64_t>(
          HashBytes(reinterpret_cast<const uint8_t*>(text.data()), text.size())));
    }
    case Intrinsic::kStringEquals: {
      std::string a;
      std::string b;
      ReadStringBytes(arg(0), &a);
      ReadStringBytes(arg(1), &b);
      return Value::Bool(a == b);
    }
    case Intrinsic::kStringCompare: {
      std::string a;
      std::string b;
      ReadStringBytes(arg(0), &a);
      ReadStringBytes(arg(1), &b);
      return Value::I64(a.compare(b));
    }
    case Intrinsic::kUnknown:
      break;
  }
  GERENUK_CHECK(false) << "no runtime implementation for native method";
  return Value::None();
}

// ---------------------------------------------------------------------------
// Vectorized tier: per-strip lane kernels
// ---------------------------------------------------------------------------
//
// Every kernel below observes the bail contract: it either completes the
// whole strip or returns false BEFORE any architecturally visible side
// effect (slot writes, builder stores, faults). On bail the dispatch loop
// jumps to the scalar loop head and replays the strip lane by lane from the
// untouched slot state, so faults and SerAborts surface at exactly the lane
// the scalar execution would have reached.

std::unique_ptr<PlanExecutor::VecState>* PlanExecutor::VecStatesOf(const SerPlan& plan) {
  for (auto& [owner, states] : vec_states_) {
    if (owner == &plan) {
      return states.data();
    }
  }
  vec_states_.emplace_back(&plan, std::vector<std::unique_ptr<VecState>>(
                                      static_cast<size_t>(plan.vec_loops())));
  return vec_states_.back().second.data();
}

PlanExecutor::VecState* PlanExecutor::VecStateFor(std::unique_ptr<VecState>& slot, int32_t cap,
                                                  int32_t ncols, int32_t nscans) {
  if (slot != nullptr) {
    return slot.get();
  }
  GERENUK_CHECK(cap > 0);
  auto st = std::make_unique<VecState>();
  st->ncols = ncols;
  st->cap = cap;
  // Two scratch columns beyond the plan's count (uniform-operand splats);
  // per-column stride rounded so every column starts 64-byte aligned.
  const int32_t total_cols = ncols + 2;
  const size_t stride = (static_cast<size_t>(cap) + 7) & ~size_t{7};
  st->storage.resize(stride * static_cast<size_t>(total_cols) + 8);
  uintptr_t base = reinterpret_cast<uintptr_t>(st->storage.data());
  int64_t* aligned = reinterpret_cast<int64_t*>((base + 63) & ~uintptr_t{63});
  st->col.resize(static_cast<size_t>(total_cols));
  for (int32_t c = 0; c < total_cols; ++c) {
    st->col[static_cast<size_t>(c)] = aligned + static_cast<size_t>(c) * stride;
    GERENUK_CHECK_EQ(reinterpret_cast<uintptr_t>(st->col[static_cast<size_t>(c)]) & 63,
                     0u);
  }
  st->col_tag.assign(static_cast<size_t>(total_cols), ValueTag::kNone);
  st->col_last.assign(static_cast<size_t>(total_cols), -1);
  st->sel.resize(static_cast<size_t>(cap));
  st->scan_carry.assign(static_cast<size_t>(nscans), Value());
  st->scan_valid.assign(static_cast<size_t>(nscans), 0);
  slot = std::move(st);
  return slot.get();
}

// Iterates the selected lanes: the full [0, nn) range while the strip is
// dense, the selection vector after a filter compacted it.
#define GVEC_LOOP(STMT)                           \
  do {                                            \
    if (st.sel_dense) {                           \
      for (int32_t j = 0; j < nn; ++j) {          \
        STMT;                                     \
      }                                           \
    } else {                                      \
      for (int32_t k = 0; k < st.sel_len; ++k) {  \
        const int32_t j = sel[k];                 \
        STMT;                                     \
      }                                           \
    }                                             \
  } while (0)

// True when every selected lane's index is in [0, len): the column `idxc`
// (column id `col`), or the uniform `uidx` when idxc is null. A dense strip
// indexed by the induction column (column 0) covers [base, base + n).
bool PlanExecutor::LanesInBounds(const VecState& st, const int64_t* idxc, int32_t col,
                                 int64_t uidx, int64_t len) {
  if (idxc == nullptr) {
    return uidx >= 0 && uidx < len;
  }
  if (col == 0 && st.sel_dense) {
    return st.base >= 0 && st.base + st.n <= len;
  }
  const int32_t nn = st.n;
  const int32_t* GERENUK_RESTRICT sel = st.sel.data();
  bool oob = false;
  GVEC_LOOP(oob |= idxc[j] < 0 || idxc[j] >= len);
  return !oob;
}

bool PlanExecutor::VecBinOpLanes(VecState& st, const PlanOp& op, const Value* slots) {
  const int32_t nn = st.n;
  const int32_t* GERENUK_RESTRICT sel = st.sel.data();
  const ValueTag ltag = op.c == 0 ? st.col_tag[static_cast<size_t>(op.a)]
                                  : slots[op.a].tag;
  const ValueTag rtag = op.d == 0 ? st.col_tag[static_cast<size_t>(op.b)]
                                  : slots[op.b].tag;
  const bool is_float = ltag == ValueTag::kF64 || rtag == ValueTag::kF64;
  const bool is_cmp = op.binop >= BinOpKind::kLt && op.binop <= BinOpKind::kNe;
  const bool is_bitwise = op.binop >= BinOpKind::kAnd && op.binop <= BinOpKind::kShr;
  if (is_float && is_bitwise) {
    return false;  // scalar replay reproduces the bitwise-on-float fatal
  }
  int64_t* GERENUK_RESTRICT dd = st.col[static_cast<size_t>(op.dst)];
  const int32_t last = st.sel_dense ? nn - 1 : sel[st.sel_len - 1];
  if (op.c != 0 && op.d != 0) {
    // Both operands loop-invariant: every lane computes the same value, so
    // compute it once. An integer divide by zero bails like the lane path,
    // so the scalar replay faults at the strip's first lane.
    if (!is_float && (op.binop == BinOpKind::kDiv || op.binop == BinOpKind::kRem) &&
        slots[op.b].i == 0) {
      return false;
    }
    const Value v = EvalBin(op.binop, slots[op.a], slots[op.b]);
    const int64_t bits = v.tag == ValueTag::kF64 ? F2Bits(v.d) : v.i;
    for (int32_t j = 0; j < nn; ++j) {
      dd[j] = bits;
    }
    st.col_tag[static_cast<size_t>(op.dst)] = v.tag;
    st.col_last[static_cast<size_t>(op.dst)] = last;
    return true;
  }
  // Materialize both operands as full columns in the strip's numeric
  // representation: raw i64 payloads on the int path, double bits on the
  // float path. Uniform operands are splat into the scratch columns so the
  // op loops are always column(x)column.
  auto mat_int = [&](int32_t ref, int32_t mode, int32_t scratch) -> const int64_t* {
    if (mode == 0) {
      return st.col[static_cast<size_t>(ref)];
    }
    int64_t* GERENUK_RESTRICT s = st.col[static_cast<size_t>(st.ncols + scratch)];
    const int64_t u = slots[ref].i;
    for (int32_t j = 0; j < nn; ++j) {
      s[j] = u;
    }
    return s;
  };
  auto mat_f64 = [&](int32_t ref, int32_t mode, int32_t scratch) -> const int64_t* {
    int64_t* GERENUK_RESTRICT s = st.col[static_cast<size_t>(st.ncols + scratch)];
    if (mode == 0) {
      if (st.col_tag[static_cast<size_t>(ref)] == ValueTag::kF64) {
        return st.col[static_cast<size_t>(ref)];
      }
      const int64_t* GERENUK_RESTRICT c = st.col[static_cast<size_t>(ref)];
      for (int32_t j = 0; j < nn; ++j) {
        s[j] = F2Bits(static_cast<double>(c[j]));
      }
      return s;
    }
    const int64_t u = F2Bits(AsF(slots[ref]));
    for (int32_t j = 0; j < nn; ++j) {
      s[j] = u;
    }
    return s;
  };
  const int64_t* GERENUK_RESTRICT xa;
  const int64_t* GERENUK_RESTRICT xb;
  if (is_float) {
    xa = mat_f64(op.a, op.c, 0);
    xb = mat_f64(op.b, op.d, 1);
  } else {
    xa = mat_int(op.a, op.c, 0);
    xb = mat_int(op.b, op.d, 1);
  }
  // Divide-by-zero on the int path is a fatal in EvalBin: scan the selected
  // divisor lanes before computing anything and bail so the scalar replay
  // faults at the first offending lane.
  if (!is_float && (op.binop == BinOpKind::kDiv || op.binop == BinOpKind::kRem)) {
    if (st.sel_dense) {
      for (int32_t j = 0; j < nn; ++j) {
        if (xb[j] == 0) {
          return false;
        }
      }
    } else {
      for (int32_t k = 0; k < st.sel_len; ++k) {
        if (xb[sel[k]] == 0) {
          return false;
        }
      }
    }
  }
  if (!is_float) {
    switch (op.binop) {
      case BinOpKind::kAdd: GVEC_LOOP(dd[j] = WrapAdd(xa[j], xb[j])); break;
      case BinOpKind::kSub: GVEC_LOOP(dd[j] = WrapSub(xa[j], xb[j])); break;
      case BinOpKind::kMul: GVEC_LOOP(dd[j] = WrapMul(xa[j], xb[j])); break;
      case BinOpKind::kDiv: GVEC_LOOP(dd[j] = xa[j] / xb[j]); break;
      case BinOpKind::kRem: GVEC_LOOP(dd[j] = xa[j] % xb[j]); break;
      case BinOpKind::kLt: GVEC_LOOP(dd[j] = xa[j] < xb[j] ? 1 : 0); break;
      case BinOpKind::kLe: GVEC_LOOP(dd[j] = xa[j] <= xb[j] ? 1 : 0); break;
      case BinOpKind::kGt: GVEC_LOOP(dd[j] = xa[j] > xb[j] ? 1 : 0); break;
      case BinOpKind::kGe: GVEC_LOOP(dd[j] = xa[j] >= xb[j] ? 1 : 0); break;
      case BinOpKind::kEq: GVEC_LOOP(dd[j] = xa[j] == xb[j] ? 1 : 0); break;
      case BinOpKind::kNe: GVEC_LOOP(dd[j] = xa[j] != xb[j] ? 1 : 0); break;
      case BinOpKind::kAnd: GVEC_LOOP(dd[j] = xa[j] & xb[j]); break;
      case BinOpKind::kOr: GVEC_LOOP(dd[j] = xa[j] | xb[j]); break;
      case BinOpKind::kXor: GVEC_LOOP(dd[j] = xa[j] ^ xb[j]); break;
      case BinOpKind::kShl: GVEC_LOOP(dd[j] = xa[j] << xb[j]); break;
      case BinOpKind::kShr: GVEC_LOOP(dd[j] = xa[j] >> xb[j]); break;
      case BinOpKind::kMin: GVEC_LOOP(dd[j] = xa[j] < xb[j] ? xa[j] : xb[j]); break;
      case BinOpKind::kMax: GVEC_LOOP(dd[j] = xa[j] > xb[j] ? xa[j] : xb[j]); break;
    }
    st.col_tag[static_cast<size_t>(op.dst)] = ValueTag::kI64;
  } else {
    switch (op.binop) {
      case BinOpKind::kAdd:
        GVEC_LOOP(dd[j] = F2Bits(BitsAsF(xa[j]) + BitsAsF(xb[j])));
        break;
      case BinOpKind::kSub:
        GVEC_LOOP(dd[j] = F2Bits(BitsAsF(xa[j]) - BitsAsF(xb[j])));
        break;
      case BinOpKind::kMul:
        GVEC_LOOP(dd[j] = F2Bits(BitsAsF(xa[j]) * BitsAsF(xb[j])));
        break;
      case BinOpKind::kDiv:
        GVEC_LOOP(dd[j] = F2Bits(BitsAsF(xa[j]) / BitsAsF(xb[j])));
        break;
      case BinOpKind::kRem:
        GVEC_LOOP(dd[j] = F2Bits(std::fmod(BitsAsF(xa[j]), BitsAsF(xb[j]))));
        break;
      case BinOpKind::kLt: GVEC_LOOP(dd[j] = BitsAsF(xa[j]) < BitsAsF(xb[j]) ? 1 : 0); break;
      case BinOpKind::kLe: GVEC_LOOP(dd[j] = BitsAsF(xa[j]) <= BitsAsF(xb[j]) ? 1 : 0); break;
      case BinOpKind::kGt: GVEC_LOOP(dd[j] = BitsAsF(xa[j]) > BitsAsF(xb[j]) ? 1 : 0); break;
      case BinOpKind::kGe: GVEC_LOOP(dd[j] = BitsAsF(xa[j]) >= BitsAsF(xb[j]) ? 1 : 0); break;
      case BinOpKind::kEq: GVEC_LOOP(dd[j] = BitsAsF(xa[j]) == BitsAsF(xb[j]) ? 1 : 0); break;
      case BinOpKind::kNe: GVEC_LOOP(dd[j] = BitsAsF(xa[j]) != BitsAsF(xb[j]) ? 1 : 0); break;
      case BinOpKind::kMin:
        GVEC_LOOP({
          const double x = BitsAsF(xa[j]);
          const double y = BitsAsF(xb[j]);
          dd[j] = F2Bits(x < y ? x : y);
        });
        break;
      case BinOpKind::kMax:
        GVEC_LOOP({
          const double x = BitsAsF(xa[j]);
          const double y = BitsAsF(xb[j]);
          dd[j] = F2Bits(x > y ? x : y);
        });
        break;
      default:
        return false;  // unreachable: bitwise handled above
    }
    st.col_tag[static_cast<size_t>(op.dst)] = is_cmp ? ValueTag::kI64 : ValueTag::kF64;
  }
  st.col_last[static_cast<size_t>(op.dst)] = last;
  return true;
}

bool PlanExecutor::VecUnOpLanes(VecState& st, const PlanOp& op, const Value* slots) {
  const int32_t nn = st.n;
  const int32_t* GERENUK_RESTRICT sel = st.sel.data();
  int64_t* GERENUK_RESTRICT dd = st.col[static_cast<size_t>(op.dst)];
  if (op.b == 1) {
    // Broadcast / copy forms (kAssign and kConst in the loop body).
    if (op.c == 2) {
      const int64_t bits = op.imm_tag == ValueTag::kF64 ? F2Bits(op.fimm) : op.imm;
      for (int32_t j = 0; j < nn; ++j) {
        dd[j] = bits;
      }
      st.col_tag[static_cast<size_t>(op.dst)] = op.imm_tag;
    } else if (op.c == 1) {
      const Value v = slots[op.a];
      const int64_t bits = v.tag == ValueTag::kF64 ? F2Bits(v.d) : v.i;
      for (int32_t j = 0; j < nn; ++j) {
        dd[j] = bits;
      }
      st.col_tag[static_cast<size_t>(op.dst)] = v.tag;
    } else {
      const int64_t* GERENUK_RESTRICT cc = st.col[static_cast<size_t>(op.a)];
      for (int32_t j = 0; j < nn; ++j) {
        dd[j] = cc[j];
      }
      st.col_tag[static_cast<size_t>(op.dst)] = st.col_tag[static_cast<size_t>(op.a)];
    }
    st.col_last[static_cast<size_t>(op.dst)] =
        st.sel_dense ? nn - 1 : sel[st.sel_len - 1];
    return true;
  }
  // Real unops. A uniform source is splat into scratch 0 so each kind is one
  // column loop; the weird-tag cases mirror the scalar handler exactly (a
  // kF64 Value carries i == 0, which is what AsBool and kI2F observe).
  const int64_t* GERENUK_RESTRICT xs;
  ValueTag stag;
  if (op.c == 0) {
    xs = st.col[static_cast<size_t>(op.a)];
    stag = st.col_tag[static_cast<size_t>(op.a)];
  } else {
    int64_t* GERENUK_RESTRICT s = st.col[static_cast<size_t>(st.ncols)];
    const Value v = slots[op.a];
    const int64_t bits = v.tag == ValueTag::kF64 ? F2Bits(v.d) : v.i;
    for (int32_t j = 0; j < nn; ++j) {
      s[j] = bits;
    }
    xs = s;
    stag = v.tag;
  }
  ValueTag out_tag = ValueTag::kI64;
  switch (op.unop) {
    case UnOpKind::kNeg:
      if (stag == ValueTag::kF64) {
        GVEC_LOOP(dd[j] = F2Bits(-BitsAsF(xs[j])));
        out_tag = ValueTag::kF64;
      } else {
        GVEC_LOOP(dd[j] = WrapSub(0, xs[j]));
      }
      break;
    case UnOpKind::kNot:
      if (stag == ValueTag::kF64) {
        GVEC_LOOP(dd[j] = 1);  // scalar AsBool reads .i, zero for kF64 Values
      } else {
        GVEC_LOOP(dd[j] = xs[j] == 0 ? 1 : 0);
      }
      break;
    case UnOpKind::kI2F:
      if (stag == ValueTag::kF64) {
        GVEC_LOOP(dd[j] = F2Bits(0.0));
      } else {
        GVEC_LOOP(dd[j] = F2Bits(static_cast<double>(xs[j])));
      }
      out_tag = ValueTag::kF64;
      break;
    case UnOpKind::kF2I:
      if (stag == ValueTag::kF64) {
        GVEC_LOOP(dd[j] = static_cast<int64_t>(BitsAsF(xs[j])));
      } else {
        GVEC_LOOP(dd[j] = static_cast<int64_t>(static_cast<double>(xs[j])));
      }
      break;
  }
  st.col_tag[static_cast<size_t>(op.dst)] = out_tag;
  st.col_last[static_cast<size_t>(op.dst)] =
      st.sel_dense ? nn - 1 : sel[st.sel_len - 1];
  return true;
}

// Serial in-order reduction over the selected lanes: bit-exact against the
// scalar loop by construction (same expression per lane, same order).
#define GVEC_SCAN_I(EXPR)                        \
  do {                                           \
    for (int32_t k = 0; k < st.sel_len; ++k) {   \
      const int32_t j = st.sel_dense ? k : sel[k]; \
      const int64_t x = xc != nullptr ? xc[j] : xu; \
      const int64_t l = carry_left ? c : x;      \
      const int64_t r = carry_left ? x : c;      \
      c = (EXPR);                                \
      dd[j] = c;                                 \
    }                                            \
  } while (0)
#define GVEC_SCAN_F(EXPR, STORE)                 \
  do {                                           \
    for (int32_t k = 0; k < st.sel_len; ++k) {   \
      const int32_t j = st.sel_dense ? k : sel[k]; \
      const double x = xc != nullptr                              \
                           ? (xtag == ValueTag::kF64              \
                                  ? BitsAsF(xc[j])                \
                                  : static_cast<double>(xc[j]))   \
                           : xf;                 \
      const double l = carry_left ? c : x;       \
      const double r = carry_left ? x : c;       \
      c = (EXPR);                                \
      dd[j] = (STORE);                           \
    }                                            \
  } while (0)

bool PlanExecutor::VecScanLanes(VecState& st, const PlanOp& op, const Value* slots) {
  const int32_t* GERENUK_RESTRICT sel = st.sel.data();
  const size_t scan_idx = static_cast<size_t>(op.dst2);
  const Value carry0 = slots[op.a];
  const int64_t* xc = nullptr;
  Value xuni = Value::None();
  ValueTag xtag;
  if (op.d == 0) {
    xc = st.col[static_cast<size_t>(op.b)];
    xtag = st.col_tag[static_cast<size_t>(op.b)];
  } else {
    xuni = slots[op.b];
    xtag = xuni.tag;
  }
  const bool is_float = carry0.tag == ValueTag::kF64 || xtag == ValueTag::kF64;
  const bool is_cmp = op.binop >= BinOpKind::kLt && op.binop <= BinOpKind::kNe;
  const bool is_bitwise = op.binop >= BinOpKind::kAnd && op.binop <= BinOpKind::kShr;
  if (is_float && is_bitwise) {
    return false;
  }
  const bool carry_left = op.c == 0;
  int64_t* GERENUK_RESTRICT dd = st.col[static_cast<size_t>(op.dst)];
  if (!is_float) {
    const int64_t xu = xc != nullptr ? 0 : xuni.i;
    int64_t c = carry0.i;
    switch (op.binop) {
      case BinOpKind::kAdd: GVEC_SCAN_I(WrapAdd(l, r)); break;
      case BinOpKind::kSub: GVEC_SCAN_I(WrapSub(l, r)); break;
      case BinOpKind::kMul: GVEC_SCAN_I(WrapMul(l, r)); break;
      case BinOpKind::kDiv:
      case BinOpKind::kRem: {
        // The divisor can be the carry itself, so the zero check is per-lane;
        // bailing mid-scan is safe — only the scratch column was touched.
        const bool is_div = op.binop == BinOpKind::kDiv;
        for (int32_t k = 0; k < st.sel_len; ++k) {
          const int32_t j = st.sel_dense ? k : sel[k];
          const int64_t x = xc != nullptr ? xc[j] : xu;
          const int64_t l = carry_left ? c : x;
          const int64_t r = carry_left ? x : c;
          if (r == 0) {
            return false;
          }
          c = is_div ? l / r : l % r;
          dd[j] = c;
        }
        break;
      }
      case BinOpKind::kLt: GVEC_SCAN_I(l < r ? 1 : 0); break;
      case BinOpKind::kLe: GVEC_SCAN_I(l <= r ? 1 : 0); break;
      case BinOpKind::kGt: GVEC_SCAN_I(l > r ? 1 : 0); break;
      case BinOpKind::kGe: GVEC_SCAN_I(l >= r ? 1 : 0); break;
      case BinOpKind::kEq: GVEC_SCAN_I(l == r ? 1 : 0); break;
      case BinOpKind::kNe: GVEC_SCAN_I(l != r ? 1 : 0); break;
      case BinOpKind::kAnd: GVEC_SCAN_I(l & r); break;
      case BinOpKind::kOr: GVEC_SCAN_I(l | r); break;
      case BinOpKind::kXor: GVEC_SCAN_I(l ^ r); break;
      case BinOpKind::kShl: GVEC_SCAN_I(l << r); break;
      case BinOpKind::kShr: GVEC_SCAN_I(l >> r); break;
      case BinOpKind::kMin: GVEC_SCAN_I(l < r ? l : r); break;
      case BinOpKind::kMax: GVEC_SCAN_I(l > r ? l : r); break;
    }
    st.scan_carry[scan_idx] = Value::I64(c);
    st.col_tag[static_cast<size_t>(op.dst)] = ValueTag::kI64;
  } else {
    const double xf = xc != nullptr ? 0.0 : AsF(xuni);
    double c = AsF(carry0);
    switch (op.binop) {
      case BinOpKind::kAdd: GVEC_SCAN_F(l + r, F2Bits(c)); break;
      case BinOpKind::kSub: GVEC_SCAN_F(l - r, F2Bits(c)); break;
      case BinOpKind::kMul: GVEC_SCAN_F(l * r, F2Bits(c)); break;
      case BinOpKind::kDiv: GVEC_SCAN_F(l / r, F2Bits(c)); break;
      case BinOpKind::kRem: GVEC_SCAN_F(std::fmod(l, r), F2Bits(c)); break;
      case BinOpKind::kLt: GVEC_SCAN_F(l < r ? 1.0 : 0.0, static_cast<int64_t>(c)); break;
      case BinOpKind::kLe: GVEC_SCAN_F(l <= r ? 1.0 : 0.0, static_cast<int64_t>(c)); break;
      case BinOpKind::kGt: GVEC_SCAN_F(l > r ? 1.0 : 0.0, static_cast<int64_t>(c)); break;
      case BinOpKind::kGe: GVEC_SCAN_F(l >= r ? 1.0 : 0.0, static_cast<int64_t>(c)); break;
      case BinOpKind::kEq: GVEC_SCAN_F(l == r ? 1.0 : 0.0, static_cast<int64_t>(c)); break;
      case BinOpKind::kNe: GVEC_SCAN_F(l != r ? 1.0 : 0.0, static_cast<int64_t>(c)); break;
      case BinOpKind::kMin: GVEC_SCAN_F(l < r ? l : r, F2Bits(c)); break;
      case BinOpKind::kMax: GVEC_SCAN_F(l > r ? l : r, F2Bits(c)); break;
      default:
        return false;  // unreachable: bitwise handled above
    }
    if (is_cmp) {
      st.scan_carry[scan_idx] = Value::I64(static_cast<int64_t>(c));
      st.col_tag[static_cast<size_t>(op.dst)] = ValueTag::kI64;
    } else {
      st.scan_carry[scan_idx] = Value::F64(c);
      st.col_tag[static_cast<size_t>(op.dst)] = ValueTag::kF64;
    }
  }
  st.scan_valid[scan_idx] = 1;
  st.col_last[static_cast<size_t>(op.dst)] =
      st.sel_dense ? st.sel_len - 1 : sel[st.sel_len - 1];
  return true;
}

#undef GVEC_SCAN_I
#undef GVEC_SCAN_F

bool PlanExecutor::VecReadColLanes(VecState& st, const PlanOp& op, const Value* slots) {
  const int32_t nn = st.n;
  const int32_t* GERENUK_RESTRICT sel = st.sel.data();
  int64_t* GERENUK_RESTRICT dd = st.col[static_cast<size_t>(op.dst)];
  const int64_t base = slots[op.a].i;
  if (op.c == 1) {
    // Length broadcast: the base is loop-invariant, so the scalar loop would
    // issue the same read every iteration (same fatals too — ArrayLength's
    // klass check fires here exactly where lane 0 would hit it).
    const int64_t len =
        IsBuilderAddr(base) ? builders_->ArrayLength(base) : NativeReadI32(base);
    for (int32_t j = 0; j < nn; ++j) {
      dd[j] = len;
    }
    st.col_tag[static_cast<size_t>(op.dst)] = ValueTag::kI64;
    st.col_last[static_cast<size_t>(op.dst)] =
        st.sel_dense ? nn - 1 : sel[st.sel_len - 1];
    return true;
  }
  const int64_t* idxc = op.d == 0 ? st.col[static_cast<size_t>(op.b)] : nullptr;
  const int64_t uidx = op.d == 0 ? 0 : slots[op.b].i;
  int64_t data_addr;
  int64_t len;
  int64_t elem_off0;
  if (IsBuilderAddr(base)) {
    uint8_t* data = nullptr;
    if (!builders_->TryGetPrimArray(base, op.kind, &data, &len)) {
      return false;  // odd node shape: scalar replay reproduces its fault
    }
    data_addr = reinterpret_cast<int64_t>(data);
    elem_off0 = 0;
  } else {
    len = NativeReadI32(base);
    data_addr = base;
    elem_off0 = 4;  // committed arrays are [len:i32][elements]
  }
  // Bounds are a fatal in both the builder and committed scalar paths: bail
  // so the replay faults at the first out-of-range lane.
  if (!LanesInBounds(st, idxc, op.b, uidx, len)) {
    return false;
  }
  // One lane loop per element kind: the kind is fixed per op, so its switch
  // runs once per strip rather than once per lane.
  const int64_t elems = data_addr + elem_off0;
  const auto gather = [&](auto zero) {
    using T = decltype(zero);
    if (idxc == nullptr) {
      const int64_t bits = LaneBits(LoadElem<T>(elems, uidx));
      for (int32_t j = 0; j < nn; ++j) {
        dd[j] = bits;
      }
    } else {
      GVEC_LOOP(dd[j] = LaneBits(LoadElem<T>(elems, idxc[j])));
    }
  };
  DispatchElemKind(op.kind, gather);
  st.col_tag[static_cast<size_t>(op.dst)] = op.float_kind ? ValueTag::kF64 : ValueTag::kI64;
  st.col_last[static_cast<size_t>(op.dst)] =
      st.sel_dense ? nn - 1 : sel[st.sel_len - 1];
  return true;
}

bool PlanExecutor::VecWriteColPrepare(VecState& st, const PlanOp& op, const Value* slots,
                                      const int32_t* args_pool) {
  const int32_t* GERENUK_RESTRICT sel = st.sel.data();
  const int64_t base = slots[op.a].i;
  const bool owned = op.imm == 1;  // an accumulate form's owned accumulator
  if (!owned && !IsBuilderAddr(base)) {
    return false;  // scalar replay raises SerAbort{kDisruptNativeSpace}
  }
  // Runtime alias guards: the lowering proved the stored array is a distinct
  // slot from every gathered array, but two distinct slots can still hold the
  // same builder — in that case lane-major commit order would diverge from
  // the scalar's op-major order, so hand the strip to the scalar loop.
  for (int32_t g = 0; g < op.args_len; ++g) {
    if (slots[args_pool[op.args_off + g]].i == base) {
      return false;
    }
  }
  uint8_t* data = nullptr;
  int64_t len = 0;
  if (owned) {
    len = NativeReadI32(base);
  } else if (!builders_->TryGetPrimArray(base, op.kind, &data, &len)) {
    return false;
  }
  if (!LanesInBounds(st, st.col[static_cast<size_t>(op.b)], op.b, 0, len)) {
    return false;  // replay hits the builder bounds fatal at the right lane
  }
  // All checks passed — defer the scatter to kVecLoopEnd so a later op's
  // bail can still replay this strip from pristine state.
  if (st.pending_count == st.pending.size()) {
    st.pending.emplace_back();
  }
  VecState::Pending& p = st.pending[st.pending_count++];
  p.op = &op;
  if (st.sel_dense) {
    p.count = -1;
  } else {
    p.count = st.sel_len;
    p.lanes.assign(sel, sel + st.sel_len);
  }
  return true;
}

void PlanExecutor::VecFilterLanes(VecState& st, const PlanOp& op, const Value* slots) {
  const int32_t nn = st.n;
  // b == 0: keep lanes whose condition is false (the If() shape — the scalar
  // branch skips the rest of the body when the condition holds).
  const bool keep_if = op.b != 0;
  if (op.c == 1) {
    if (slots[op.a].AsBool() != keep_if) {
      st.sel_len = 0;
    }
    return;
  }
  const int64_t* GERENUK_RESTRICT cc = st.col[static_cast<size_t>(op.a)];
  if (st.col_tag[static_cast<size_t>(op.a)] == ValueTag::kF64) {
    // Scalar AsBool reads Value::i, which is zero for every kF64 Value: the
    // condition is uniformly false.
    if (keep_if) {
      st.sel_len = 0;
    }
    return;
  }
  int32_t* GERENUK_RESTRICT sel = st.sel.data();
  int32_t out = 0;
  if (st.sel_dense) {
    for (int32_t j = 0; j < nn; ++j) {
      if ((cc[j] != 0) == keep_if) {
        sel[out++] = j;
      }
    }
    st.sel_dense = out == nn;
  } else {
    for (int32_t k = 0; k < st.sel_len; ++k) {
      const int32_t j = sel[k];
      if ((cc[j] != 0) == keep_if) {
        sel[out++] = j;
      }
    }
  }
  st.sel_len = out;
}

void PlanExecutor::VecCommitStrip(VecState& st, const PlanOp& end_op, Value* slots,
                                  const int32_t* args_pool) {
  // 1. Deferred scatters, in op order then lane order — equivalent to the
  // scalar order because every pending op's checks proved independence.
  for (size_t pi = 0; pi < st.pending_count; ++pi) {
    const VecState::Pending& p = st.pending[pi];
    const PlanOp& sop = *p.op;
    const int64_t base = slots[sop.a].i;
    int64_t daddr = base + 4;  // an owned committed array: [len:i32][elements]
    if (sop.imm != 1) {
      uint8_t* data = nullptr;
      int64_t len = 0;
      const bool ok = builders_->TryGetPrimArray(base, sop.kind, &data, &len);
      GERENUK_CHECK(ok);  // verified at prepare time; the body cannot change it
      daddr = reinterpret_cast<int64_t>(data);
    }
    const int64_t* idxc = st.col[static_cast<size_t>(sop.b)];
    const int64_t* valc = sop.d == 0 ? st.col[static_cast<size_t>(sop.c)] : nullptr;
    const ValueTag vt = sop.d == 0 ? st.col_tag[static_cast<size_t>(sop.c)]
                                   : slots[sop.c].tag;
    const Value uni = sop.d == 0 ? Value::None() : slots[sop.c];
    const int32_t cnt = p.count < 0 ? st.n : p.count;
    const int32_t* lanes = p.lanes.data();
    // The element kind is fixed per op: its switch runs once, and each lane
    // converts and stores exactly as the scalar store narrows. (Scalar
    // ArrayStore passes Value::i to an integer element, which is zero for
    // kF64 Values.)
    const auto scatter = [&](auto zero) {
      using T = decltype(zero);
      for (int32_t k = 0; k < cnt; ++k) {
        const int32_t j = p.count < 0 ? k : lanes[k];
        T v;
        if constexpr (std::is_floating_point_v<T>) {
          v = static_cast<T>(valc == nullptr        ? AsF(uni)
                             : vt == ValueTag::kF64 ? BitsAsF(valc[j])
                                                    : static_cast<double>(valc[j]));
        } else {
          v = static_cast<T>(valc == nullptr ? uni.i : vt == ValueTag::kF64 ? 0 : valc[j]);
        }
        StoreElem<T>(daddr, idxc[j], v);
      }
    };
    DispatchElemKind(sop.kind, scatter);
  }
  // 2. Column write-backs: each slot gets the value of the last lane that
  // defined it this strip (col_last is -1 when the defining op was skipped
  // by an empty selection — the slot keeps its pre-strip value, exactly as
  // the scalar loop would leave it).
  const int32_t* a = &args_pool[end_op.args_off];
  int32_t ncol = *a++;
  for (int32_t w = 0; w < ncol; ++w) {
    const int32_t slot = *a++;
    const int32_t col = *a++;
    const int32_t last = st.col_last[static_cast<size_t>(col)];
    if (last < 0) {
      continue;
    }
    const ValueTag t = st.col_tag[static_cast<size_t>(col)];
    const int64_t bits = st.col[static_cast<size_t>(col)][last];
    slots[slot] = t == ValueTag::kF64 ? Value::F64(BitsAsF(bits)) : Value{t, bits, 0.0};
  }
  // 3. Scan carries.
  int32_t nscan = *a++;
  for (int32_t w = 0; w < nscan; ++w) {
    const int32_t slot = *a++;
    const int32_t idx = *a++;
    if (st.scan_valid[static_cast<size_t>(idx)]) {
      slots[slot] = st.scan_carry[static_cast<size_t>(idx)];
    }
  }
  // 4. Advance the induction slot past the strip.
  slots[end_op.a] = Value::I64(st.base + st.n);
}

#undef GVEC_LOOP

template <bool kProfiled>
Value PlanExecutor::Execute(Frame& frame) {
  const PlanFunction& pf = *frame.func;
  const SerPlan& plan = *pf.plan;
  const PlanOp* const ops = pf.ops.data();
  Value* const slots = frame.slots.data();
  const int32_t* const args_pool = pf.args_pool.data();
  int64_t pc = 0;
  const PlanOp* op;
  std::unique_ptr<VecState>* vec_states = nullptr;  // looked up at the first vec loop

  // Op accounting stays off the dispatch path: a local counter is flushed
  // into ops_executed_ on every exit, including SerAbort unwinds.
  struct OpCount {
    int64_t n = 0;
    int64_t* sink;
    explicit OpCount(int64_t* s) : sink(s) {}
    ~OpCount() { *sink += n; }
  } opcount(&ops_executed_);

#ifdef GERENUK_COMPUTED_GOTO
  // One entry per PlanOpCode, in declaration order.
  static const void* kDispatch[] = {
      &&lbl_kConst, &&lbl_kAssign, &&lbl_kBinOp, &&lbl_kUnOp, &&lbl_kCall, &&lbl_kIntrinsic,
      &&lbl_kBranch, &&lbl_kJump, &&lbl_kReturn, &&lbl_kReturnVoid, &&lbl_kGetAddress,
      &&lbl_kGWriteObject,
      &&lbl_kReadNativeConst, &&lbl_kReadNativeSym, &&lbl_kWriteNative,
      &&lbl_kAddrOfFieldConst, &&lbl_kAddrOfFieldSym, &&lbl_kNativeArrayLength,
      &&lbl_kNativeArrayLoad, &&lbl_kNativeArrayStore, &&lbl_kNativeArrayElemAddr,
      &&lbl_kAppendRecord, &&lbl_kAppendArray, &&lbl_kAttachField,
      &&lbl_kAttachElement, &&lbl_kAbort, &&lbl_kWriteOwned,
      &&lbl_kNativeArrayStoreOwned, &&lbl_kFoldSlot, &&lbl_kBinOpBranch, &&lbl_kNotBranch,
      &&lbl_kReadConstBin, &&lbl_kBinOpBin, &&lbl_kBinOpRun, &&lbl_kBinOpRunBranch,
      &&lbl_kBranchElse, &&lbl_kBinOpRunBranchElse, &&lbl_kVecLoopBegin, &&lbl_kVecBinOp,
      &&lbl_kVecUnOp, &&lbl_kVecScan, &&lbl_kVecReadCol, &&lbl_kVecWriteCol,
      &&lbl_kVecFilter, &&lbl_kVecLoopEnd,
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                static_cast<size_t>(PlanOpCode::kCount));
  // The kProfiled=false instantiation compiles PROFILE_OP() to nothing, so
  // the unprofiled dispatch loop is instruction-for-instruction the plain
  // direct-threaded loop — profiling support costs zero when off.
#define PROFILE_OP()                                      \
  do {                                                    \
    if constexpr (kProfiled) {                            \
      ProfileOp(static_cast<size_t>(op->code));           \
    }                                                     \
  } while (0)
#define OP(name) lbl_##name:
#define NEXT()                                            \
  do {                                                    \
    op = &ops[++pc];                                      \
    opcount.n += 1;                                       \
    PROFILE_OP();                                         \
    goto* kDispatch[static_cast<size_t>(op->code)];       \
  } while (0)
#define JUMP(t)                                           \
  do {                                                    \
    pc = (t);                                             \
    op = &ops[pc];                                        \
    opcount.n += 1;                                       \
    PROFILE_OP();                                         \
    goto* kDispatch[static_cast<size_t>(op->code)];       \
  } while (0)
  JUMP(0);
#else
#define OP(name) case PlanOpCode::name:
#define NEXT()  \
  {             \
    ++pc;       \
    break;      \
  }
#define JUMP(t) \
  {             \
    pc = (t);   \
    break;      \
  }
  for (;;) {
    op = &ops[pc];
    opcount.n += 1;
    if constexpr (kProfiled) {
      ProfileOp(static_cast<size_t>(op->code));
    }
    switch (op->code) {
#endif

  OP(kConst) {
    slots[op->dst] = Value{op->imm_tag, op->imm, op->fimm};
    NEXT();
  }
  OP(kAssign) {
    slots[op->dst] = slots[op->a];
    NEXT();
  }
  OP(kBinOp) {
    slots[op->dst] = EvalBin(op->binop, slots[op->a], slots[op->b]);
    NEXT();
  }
  OP(kUnOp) {
    switch (op->unop) {
      case UnOpKind::kNeg:
        slots[op->dst] = slots[op->a].tag == ValueTag::kF64 ? Value::F64(-slots[op->a].d)
                                                            : Value::I64(WrapSub(0, slots[op->a].i));
        break;
      case UnOpKind::kNot:
        slots[op->dst] = Value::Bool(!slots[op->a].AsBool());
        break;
      case UnOpKind::kI2F:
        slots[op->dst] = Value::F64(static_cast<double>(slots[op->a].i));
        break;
      case UnOpKind::kF2I:
        slots[op->dst] = Value::I64(static_cast<int64_t>(AsF(slots[op->a])));
        break;
    }
    NEXT();
  }
  OP(kCall) {
    calls_ += 1;
    const PlanFunction& callee = plan.funcs()[static_cast<size_t>(op->callee)];
    Frame* cf = AcquireFrame(&callee);
    for (int32_t i = 0; i < op->args_len; ++i) {
      cf->slots[static_cast<size_t>(i)] = slots[args_pool[op->args_off + i]];
    }
    Value result;
    try {
      result = Execute<kProfiled>(*cf);
    } catch (...) {
      ReleaseFrame();
      throw;
    }
    ReleaseFrame();
    if (op->dst >= 0) {
      slots[op->dst] = result;
    }
    NEXT();
  }
  OP(kIntrinsic) {
    Value result = RunIntrinsic(*op, slots, args_pool);
    if (op->dst >= 0) {
      slots[op->dst] = result;
    }
    NEXT();
  }
  OP(kBranch) {
    if (slots[op->a].AsBool()) {
      JUMP(op->target);
    }
    NEXT();
  }
  OP(kJump) { JUMP(op->target); }
  OP(kReturn) { return op->a >= 0 ? slots[op->a] : Value::None(); }
  OP(kReturnVoid) { return Value::None(); }
  OP(kGetAddress) {
    if (input_pos_ == input_len_) {
      RefillInput();
    }
    slots[op->dst] = Value::Addr(input_buf_[input_pos_++]);
    NEXT();
  }
  OP(kGWriteObject) {
    GERENUK_CHECK(channel_ != nullptr);
    if (channel_->emit_native_batch) {
      emit_buf_.push_back(EmittedRecord{slots[op->a].i, op->klass});
      if (emit_buf_.size() >= kEmitBatch) {
        FlushEmits();
      }
    } else {
      GERENUK_CHECK(channel_->emit_native_record);
      channel_->emit_native_record(slots[op->a].i, op->klass);
    }
    NEXT();
  }
  OP(kReadNativeConst) {
    int64_t addr = slots[op->a].i;
    if (IsBuilderAddr(addr)) {
      int64_t iv = 0;
      double fv = 0.0;
      builders_->ReadField(addr, op->field_index, op->kind, &iv, &fv);
      slots[op->dst] = op->float_kind ? Value::F64(fv) : Value::I64(iv);
    } else {
      slots[op->dst] = op->float_kind
                           ? Value::F64(NativeReadFloat(addr, op->imm, op->kind))
                           : Value::I64(NativeReadInt(addr, op->imm, op->kind));
    }
    NEXT();
  }
  OP(kReadNativeSym) {
    int64_t addr = slots[op->a].i;
    if (IsBuilderAddr(addr)) {
      int64_t iv = 0;
      double fv = 0.0;
      builders_->ReadField(addr, op->field_index, op->kind, &iv, &fv);
      slots[op->dst] = op->float_kind ? Value::F64(fv) : Value::I64(iv);
    } else {
      int64_t off = op->flat_off >= 0 ? EvalFlat(plan, *op, addr)
                                      : ResolveOffset(layouts_->pool(), op->expr_id, addr);
      slots[op->dst] = op->float_kind ? Value::F64(NativeReadFloat(addr, off, op->kind))
                                      : Value::I64(NativeReadInt(addr, off, op->kind));
    }
    NEXT();
  }
  OP(kWriteNative) {
    int64_t addr = slots[op->a].i;
    if (!IsBuilderAddr(addr)) {
      throw SerAbort{AbortReason::kDisruptNativeSpace,
                     "writeNative on committed input record"};
    }
    if (op->float_kind) {
      builders_->WriteField(addr, op->field_index, op->kind, 0, AsF(slots[op->b]));
    } else {
      builders_->WriteField(addr, op->field_index, op->kind, slots[op->b].i, 0.0);
    }
    NEXT();
  }
  OP(kAddrOfFieldConst) {
    int64_t addr = slots[op->a].i;
    slots[op->dst] = Value::Addr(IsBuilderAddr(addr)
                                     ? builders_->FieldAddr(addr, op->field_index)
                                     : addr + op->imm);
    NEXT();
  }
  OP(kAddrOfFieldSym) {
    int64_t addr = slots[op->a].i;
    if (IsBuilderAddr(addr)) {
      slots[op->dst] = Value::Addr(builders_->FieldAddr(addr, op->field_index));
    } else {
      int64_t off = op->flat_off >= 0 ? EvalFlat(plan, *op, addr)
                                      : ResolveOffset(layouts_->pool(), op->expr_id, addr);
      slots[op->dst] = Value::Addr(addr + off);
    }
    NEXT();
  }
  OP(kNativeArrayLength) {
    int64_t addr = slots[op->a].i;
    slots[op->dst] = Value::I64(IsBuilderAddr(addr) ? builders_->ArrayLength(addr)
                                                    : NativeReadI32(addr));
    NEXT();
  }
  OP(kNativeArrayLoad) {
    int64_t addr = slots[op->a].i;
    int64_t idx = slots[op->b].i;
    if (IsBuilderAddr(addr)) {
      int64_t iv = 0;
      double fv = 0.0;
      builders_->ArrayLoad(addr, idx, op->kind, &iv, &fv);
      slots[op->dst] = op->float_kind ? Value::F64(fv) : Value::I64(iv);
    } else {
      int64_t len = NativeReadI32(addr);
      if (idx < 0 || idx >= len) {
        GERENUK_CHECK(false) << "native array index " << idx << " out of bounds [0," << len
                             << ")";
      }
      int64_t off = 4 + idx * FieldKindSize(op->kind);
      slots[op->dst] = op->float_kind ? Value::F64(NativeReadFloat(addr, off, op->kind))
                                      : Value::I64(NativeReadInt(addr, off, op->kind));
    }
    NEXT();
  }
  OP(kNativeArrayStore) {
    int64_t addr = slots[op->a].i;
    if (!IsBuilderAddr(addr)) {
      throw SerAbort{AbortReason::kDisruptNativeSpace,
                     "array store into committed input record"};
    }
    if (op->float_kind) {
      builders_->ArrayStore(addr, slots[op->b].i, op->kind, 0, AsF(slots[op->c]));
    } else {
      builders_->ArrayStore(addr, slots[op->b].i, op->kind, slots[op->c].i, 0.0);
    }
    NEXT();
  }
  OP(kNativeArrayElemAddr) {
    int64_t addr = slots[op->a].i;
    int64_t idx = slots[op->b].i;
    slots[op->dst] = Value::Addr(IsBuilderAddr(addr)
                                     ? builders_->ElementAddr(addr, idx)
                                     : CommittedArrayElemAddr(*layouts_, op->klass, addr, idx));
    NEXT();
  }
  OP(kAppendRecord) {
    slots[op->dst] = Value::Addr(builders_->NewRecord(op->klass));
    NEXT();
  }
  OP(kAppendArray) {
    slots[op->dst] = Value::Addr(builders_->NewArray(op->klass, slots[op->a].i));
    NEXT();
  }
  OP(kAttachField) {
    int64_t addr = slots[op->a].i;
    if (!IsBuilderAddr(addr)) {
      throw SerAbort{AbortReason::kDisruptNativeSpace,
                     "reference write into committed input record"};
    }
    builders_->AttachField(addr, op->field_index, slots[op->b].i);
    NEXT();
  }
  OP(kAttachElement) {
    int64_t addr = slots[op->a].i;
    if (!IsBuilderAddr(addr)) {
      throw SerAbort{AbortReason::kDisruptNativeSpace,
                     "reference element write into committed input record"};
    }
    builders_->AttachElement(addr, slots[op->b].i, slots[op->c].i);
    NEXT();
  }
  OP(kAbort) {
    throw SerAbort{op->abort_reason, "static abort fence reached in " + pf.src->name};
  }
  OP(kWriteOwned) {
    int64_t addr = slots[op->a].i;
    int64_t off = op->expr_id < 0     ? op->imm
                  : op->flat_off >= 0 ? EvalFlat(plan, *op, addr)
                                      : ResolveOffset(layouts_->pool(), op->expr_id, addr);
    if (op->float_kind) {
      NativeWriteFloat(addr, off, op->kind, AsF(slots[op->b]));
    } else {
      NativeWriteInt(addr, off, op->kind, slots[op->b].i);
    }
    NEXT();
  }
  OP(kNativeArrayStoreOwned) {
    int64_t off = 4 + slots[op->b].i * FieldKindSize(op->kind);
    if (op->float_kind) {
      NativeWriteFloat(slots[op->a].i, off, op->kind, AsF(slots[op->c]));
    } else {
      NativeWriteInt(slots[op->a].i, off, op->kind, slots[op->c].i);
    }
    NEXT();
  }
  OP(kFoldSlot) {
    GERENUK_CHECK(channel_ != nullptr && channel_->fold != nullptr);
    const int64_t slot = channel_->fold->Slot(static_cast<FoldSlotMode>(op->imm),
                                              slots[op->a].i, slots[op->b], *this, *builders_);
    if (op->dst >= 0) {
      slots[op->dst] = Value::Addr(slot);
    }
    NEXT();
  }
  OP(kBinOpBranch) {
    slots[op->dst] = EvalBin(op->binop, slots[op->a], slots[op->b]);
    if (slots[op->c].AsBool()) {
      JUMP(op->target);
    }
    NEXT();
  }
  OP(kNotBranch) {
    slots[op->dst] = Value::Bool(!slots[op->a].AsBool());
    if (slots[op->c].AsBool()) {
      JUMP(op->target);
    }
    NEXT();
  }
  OP(kReadConstBin) {
    int64_t addr = slots[op->a].i;
    if (IsBuilderAddr(addr)) {
      int64_t iv = 0;
      double fv = 0.0;
      builders_->ReadField(addr, op->field_index, op->kind, &iv, &fv);
      slots[op->dst] = op->float_kind ? Value::F64(fv) : Value::I64(iv);
    } else {
      slots[op->dst] = op->float_kind
                           ? Value::F64(NativeReadFloat(addr, op->imm, op->kind))
                           : Value::I64(NativeReadInt(addr, op->imm, op->kind));
    }
    slots[op->dst2] = EvalBin(op->binop, slots[op->b], slots[op->c]);
    NEXT();
  }
  OP(kBinOpBin) {
    slots[op->dst] = EvalBin(op->binop, slots[op->a], slots[op->b]);
    slots[op->dst2] = EvalBin(static_cast<BinOpKind>(op->imm), slots[op->c], slots[op->d]);
    NEXT();
  }
#define RUN_BINOPS()                                                      \
  do {                                                                    \
    const int32_t* r = &args_pool[op->args_off];                          \
    const int32_t* const rend = r + op->args_len;                         \
    for (; r != rend; r += 4) {                                           \
      if (r[0] < 0) {                                                     \
        slots[r[3]] = Value::I64(r[1]);                                   \
      } else {                                                            \
        slots[r[3]] = EvalBin(static_cast<BinOpKind>(r[0]), slots[r[1]],  \
                              slots[r[2]]);                               \
      }                                                                   \
    }                                                                     \
  } while (0)
  OP(kBinOpRun) {
    RUN_BINOPS();
    NEXT();
  }
// For the branching run variants: all entries but the last through the run
// loop, the last one peeled so the condition — nearly always the last
// entry's result — can branch on the just-computed value instead of a
// store-then-reload of the condition slot.
#define RUN_BINOPS_PEEL(vlast, rlast)                                     \
  const int32_t* r = &args_pool[op->args_off];                            \
  const int32_t* const rlast = r + op->args_len - 4;                      \
  for (; r != rlast; r += 4) {                                            \
    if (r[0] < 0) {                                                       \
      slots[r[3]] = Value::I64(r[1]);                                     \
    } else {                                                              \
      slots[r[3]] = EvalBin(static_cast<BinOpKind>(r[0]), slots[r[1]],    \
                            slots[r[2]]);                                 \
    }                                                                     \
  }                                                                       \
  const Value vlast =                                                     \
      rlast[0] < 0 ? Value::I64(rlast[1])                                 \
                   : EvalBin(static_cast<BinOpKind>(rlast[0]),            \
                             slots[rlast[1]], slots[rlast[2]]);           \
  slots[rlast[3]] = vlast
  OP(kBinOpRunBranch) {
    RUN_BINOPS_PEEL(v, rl);
    if (rl[3] == op->c ? v.AsBool() : slots[op->c].AsBool()) {
      JUMP(op->target);
    }
    NEXT();
  }
  OP(kBranchElse) {
    JUMP(slots[op->a].AsBool() ? op->target : op->target2);
  }
  OP(kBinOpRunBranchElse) {
    RUN_BINOPS_PEEL(v, rl);
    JUMP((rl[3] == op->c ? v.AsBool() : slots[op->c].AsBool()) ? op->target
                                                               : op->target2);
  }
#undef RUN_BINOPS
#undef RUN_BINOPS_PEEL

  // --- Vectorized tier -----------------------------------------------------
  // A [kVecLoopBegin .. kVecLoopEnd] block executes one strip (up to
  // vector_batch_size iterations) of a counted loop per dispatch cycle. All
  // side effects are transactional: slot write-backs and builder scatters
  // happen only in kVecLoopEnd, so any body op can bail (JUMP to op->target2,
  // the scalar loop head) and the scalar path replays the strip from
  // untouched state — faults, SerAborts, and results stay byte-identical to
  // the scalar/interpreter execution.
  OP(kVecLoopBegin) {
    const Value iv = slots[op->a];
    const Value lv = slots[op->b];
    if (iv.tag != ValueTag::kI64 || lv.tag != ValueTag::kI64) {
      JUMP(op->target2);  // dynamic tags the lowering did not anticipate
    }
    if (vec_states == nullptr) {
      vec_states = VecStatesOf(plan);
    }
    std::unique_ptr<VecState>& slot = vec_states[op->field_index];
    if (lv.i - iv.i <= 0) {
      // Loop exhausted: mirror the scalar head (compare, then branch out).
      slots[op->d] = Value::Bool(true);
      if (slot != nullptr) {
        slot->strips_done = 0;
      }
      JUMP(op->target);
    }
    VecState* stp =
        VecStateFor(slot, plan.vector_batch_size(), op->c, static_cast<int32_t>(op->imm));
    const int64_t bail_after = plan.vec_bail_after_strips();
    if (bail_after >= 0 && stp->strips_done >= bail_after) {
      stp->strips_done = 0;  // test knob: hand the rest to the scalar loop
      JUMP(op->target2);
    }
    VecState& st = *stp;
    const int64_t rem = lv.i - iv.i;
    const int32_t n =
        rem < static_cast<int64_t>(st.cap) ? static_cast<int32_t>(rem) : st.cap;
    st.base = iv.i;
    st.n = n;
    st.sel_len = n;
    st.sel_dense = true;
    std::fill(st.col_last.begin(), st.col_last.end(), -1);
    std::fill(st.scan_valid.begin(), st.scan_valid.end(), 0);
    st.pending_count = 0;
    int64_t* GERENUK_RESTRICT ind = st.col[static_cast<size_t>(op->dst)];
    for (int32_t j = 0; j < n; ++j) {
      ind[j] = iv.i + j;
    }
    st.col_tag[static_cast<size_t>(op->dst)] = ValueTag::kI64;
    st.col_last[static_cast<size_t>(op->dst)] = n - 1;
    vec_cur_ = stp;
    NEXT();
  }
  OP(kVecBinOp) {
    VecState& st = *vec_cur_;
    if (st.sel_len > 0) {
      opcount.n += st.sel_len - 1;  // per-element accounting (lanes, not ops)
      if constexpr (kProfiled) {
        profile_->dispatches[static_cast<size_t>(op->code)] += st.sel_len - 1;
      }
      if (!VecBinOpLanes(st, *op, slots)) {
        JUMP(op->target2);
      }
    }
    NEXT();
  }
  OP(kVecUnOp) {
    VecState& st = *vec_cur_;
    if (st.sel_len > 0) {
      opcount.n += st.sel_len - 1;
      if constexpr (kProfiled) {
        profile_->dispatches[static_cast<size_t>(op->code)] += st.sel_len - 1;
      }
      if (!VecUnOpLanes(st, *op, slots)) {
        JUMP(op->target2);
      }
    }
    NEXT();
  }
  OP(kVecScan) {
    VecState& st = *vec_cur_;
    if (st.sel_len > 0) {
      opcount.n += st.sel_len - 1;
      if constexpr (kProfiled) {
        profile_->dispatches[static_cast<size_t>(op->code)] += st.sel_len - 1;
      }
      if (!VecScanLanes(st, *op, slots)) {
        JUMP(op->target2);
      }
    }
    NEXT();
  }
  OP(kVecReadCol) {
    VecState& st = *vec_cur_;
    if (st.sel_len > 0) {
      opcount.n += st.sel_len - 1;
      if constexpr (kProfiled) {
        profile_->dispatches[static_cast<size_t>(op->code)] += st.sel_len - 1;
      }
      if (!VecReadColLanes(st, *op, slots)) {
        JUMP(op->target2);
      }
    }
    NEXT();
  }
  OP(kVecWriteCol) {
    VecState& st = *vec_cur_;
    if (st.sel_len > 0) {
      opcount.n += st.sel_len - 1;
      if constexpr (kProfiled) {
        profile_->dispatches[static_cast<size_t>(op->code)] += st.sel_len - 1;
      }
      if (!VecWriteColPrepare(st, *op, slots, args_pool)) {
        JUMP(op->target2);
      }
    }
    NEXT();
  }
  OP(kVecFilter) {
    VecState& st = *vec_cur_;
    if (st.sel_len > 0) {
      opcount.n += st.sel_len - 1;
      if constexpr (kProfiled) {
        profile_->dispatches[static_cast<size_t>(op->code)] += st.sel_len - 1;
      }
      VecFilterLanes(st, *op, slots);
    }
    NEXT();
  }
  OP(kVecLoopEnd) {
    VecState& st = *vec_cur_;
    VecCommitStrip(st, *op, slots, args_pool);
    st.strips_done += 1;
    // A strip that reached the limit leaves the loop here, exactly as
    // kVecLoopBegin would on re-entry, without dispatching it again.
    const PlanOp& begin = ops[op->target];
    const Value lv = slots[begin.b];
    if (lv.tag == ValueTag::kI64 && lv.i - slots[begin.a].i <= 0) {
      slots[begin.d] = Value::Bool(true);
      st.strips_done = 0;
      JUMP(begin.target);
    }
    JUMP(op->target);  // back to kVecLoopBegin for the next strip
  }

#ifndef GERENUK_COMPUTED_GOTO
      case PlanOpCode::kCount:
        GERENUK_CHECK(false);
    }
  }
#endif
#undef OP
#undef NEXT
#undef JUMP
#ifdef PROFILE_OP
#undef PROFILE_OP
#endif
}

// Both instantiations live in this TU: Invoke selects at call time, kCall
// recursion stays within the caller's instantiation.
template Value PlanExecutor::Execute<false>(Frame& frame);
template Value PlanExecutor::Execute<true>(Frame& frame);

void PlanExecutor::ProfileSample(size_t code) {
  // One steady_clock read per `stride` dispatches: the elapsed nanos since
  // the previous sample are attributed wholesale to the opcode observed at
  // the sampling point — the standard sampling-profiler estimator (an op's
  // share of samples converges to its share of time).
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  profile_->sampled_nanos[code] += now - profile_prev_ns_;
  profile_->samples += 1;
  profile_prev_ns_ = now;
  profile_countdown_ = profile_stride_;
}

std::unique_ptr<SerRunner> MakeFastRunner(const SerPlan* plan, const SerProgram& program,
                                          Heap& heap, const WellKnown& wk,
                                          const DataStructAnalyzer* layouts,
                                          BuilderStore* builders,
                                          const std::vector<const SerPlan*>& extra_plans) {
  if (plan == nullptr || std::ranges::count(extra_plans, nullptr) > 0) {
    return std::make_unique<Interpreter>(program, heap, wk, layouts, builders);
  }
  auto exec = std::make_unique<PlanExecutor>(*plan, heap, wk, layouts, builders);
  for (const SerPlan* extra : extra_plans) {
    exec->AddPlan(*extra);
  }
  return exec;
}

}  // namespace gerenuk
