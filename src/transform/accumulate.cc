#include "src/transform/accumulate.h"

#include <set>
#include <vector>

#include "src/transform/transformer.h"

namespace gerenuk {

namespace {

constexpr int kA = 0;  // the accumulator parameter
constexpr int kB = 1;  // the folded record

bool IsConstI(const Statement& s, int64_t v) {
  return s.op == Op::kConst && s.imm.tag == ValueTag::kI64 && s.imm.i == v;
}

// A FunctionBuilder::For loop, located by statement index in f's body:
//   c0 = 0; i = c0; head: done = i >= bound; branch done -> exit;
//   <body>; c1 = 1; t = i + c1; i = t; jump head; exit:
struct ForLoop {
  size_t head = 0;
  size_t body_begin = 0;
  size_t body_end = 0;  // the increment's first statement
  size_t exit = 0;
  int induction = -1;
  int bound = -1;
};

// Matches the For lowering whose head label is body[h].
bool MatchFor(const std::vector<Statement>& body, size_t h, ForLoop* loop) {
  if (h < 2 || h + 2 >= body.size()) {
    return false;
  }
  const Statement& zero = body[h - 2];
  const Statement& init = body[h - 1];
  const Statement& test = body[h + 1];
  const Statement& leave = body[h + 2];
  if (!IsConstI(zero, 0) || init.op != Op::kAssign || init.a != zero.dst ||
      test.op != Op::kBinOp || test.binop != BinOpKind::kGe || test.a != init.dst ||
      leave.op != Op::kBranch || leave.a != test.dst) {
    return false;
  }
  const int i = init.dst;
  for (size_t q = h + 3; q < body.size(); ++q) {
    if (body[q].op != Op::kJump) {
      continue;
    }
    if (body[q].label != body[h].label || q < h + 6 || q + 1 >= body.size()) {
      return false;
    }
    const Statement& one = body[q - 3];
    const Statement& add = body[q - 2];
    const Statement& step = body[q - 1];
    const Statement& exit = body[q + 1];
    if (!IsConstI(one, 1) || add.op != Op::kBinOp || add.binop != BinOpKind::kAdd ||
        add.a != i || add.b != one.dst || step.op != Op::kAssign || step.dst != i ||
        step.a != add.dst || exit.op != Op::kLabel || exit.label != leave.label) {
      return false;
    }
    *loop = ForLoop{h, h + 3, q - 3, q + 1, i, test.b};
    return true;
  }
  return false;
}

bool IsPure(Op op) {
  return op == Op::kConst || op == Op::kAssign || op == Op::kBinOp || op == Op::kUnOp ||
         op == Op::kReadNative || op == Op::kAddrOfField || op == Op::kNativeArrayLength ||
         op == Op::kNativeArrayLoad;
}

// Drops the statements whose result nothing reads (the rewrite leaves the
// loads behind `out.r = a.r` and elided self-copies dead), then renumbers
// the surviving variables densely so a call clears a smaller frame.
void Compact(Function* acc) {
  std::vector<Statement>& body = acc->body;
  for (bool changed = true; changed;) {
    std::vector<int> reads(acc->vars.size(), 0);
    for (const Statement& s : body) {
      for (int v : {s.a, s.b, s.c}) {
        if (v >= 0) {
          reads[static_cast<size_t>(v)] += 1;
        }
      }
    }
    const size_t before = body.size();
    std::erase_if(body, [&reads](const Statement& s) {
      return IsPure(s.op) && s.dst >= 0 && reads[static_cast<size_t>(s.dst)] == 0;
    });
    changed = body.size() != before;
  }
  std::vector<int> remap(acc->vars.size(), -1);
  std::vector<VarInfo> vars;
  auto keep = [&](int v) {
    if (v >= 0 && remap[static_cast<size_t>(v)] < 0) {
      remap[static_cast<size_t>(v)] = static_cast<int>(vars.size());
      vars.push_back(acc->vars[static_cast<size_t>(v)]);
    }
  };
  keep(kA);
  keep(kB);
  for (Statement& s : body) {
    for (int* v : {&s.dst, &s.a, &s.b, &s.c}) {
      keep(*v);
      if (*v >= 0) {
        *v = remap[static_cast<size_t>(*v)];
      }
    }
  }
  acc->vars = std::move(vars);
}

// One pass over the original reduce: checks every legality rule in
// statement order (so "after acc wrote it" means exactly that) and collects
// the accumulate form's body.
class Deriver {
 public:
  Deriver(const Function& f, const DataStructAnalyzer& layouts) : f_(f), layouts_(layouts) {}

  bool Run(const Function& fast_fn);
  // Emits acc into `program`: length checks, the translated body, returns.
  const Function* Emit(SerProgram* program) const;

  const std::string& why() const { return why_; }

 private:
  // What the walk knows about one variable of f. Every fact but `defs`
  // requires a single definition.
  struct Var {
    int defs = 0;
    int base = -1;     // holds the address of <base>.<field> (a reference field)
    int field = -1;
    int prim_of = -1;  // holds a load of a.<prim_of>
    int len_of = -1;   // holds ArrayLength(a.<len_of>)
    int rebuilt = -1;  // is the fresh array that rebuilds a.<rebuilt>
    int a_array = -1;  // with len_of / rebuilt: the variable holding a.<field>
  };
  struct Field {
    bool stored = false;   // out.f stored
    bool written = false;  // acc wrote a.f
    bool rebuilt = false;  // a fresh array rebuilds a.f
    bool looped = false;   // its filling loop is done
  };
  struct LoopState {
    int field = -1;  // the array field of a whose length bounds the loop
    int induction = -1;
    bool stored = false;
  };

  bool Fail(std::string reason) {
    why_ = std::move(reason);
    return false;
  }
  Var& V(int v) { return vars_[static_cast<size_t>(v)]; }
  Field& F(int f) { return fields_[static_cast<size_t>(f)]; }
  bool Scalar(int v) const { return v >= 0 && !f_.vars[static_cast<size_t>(v)].type.IsRef(); }
  const std::string& Name(int f) const { return k_->field(f).name; }
  bool Step(const Statement& s, LoopState* loop);
  bool Loop(const ForLoop& loop);

  const Function& f_;
  const DataStructAnalyzer& layouts_;
  const Klass* k_ = nullptr;
  std::vector<Var> vars_;
  std::vector<Field> fields_;
  std::set<int> checked_;  // fields r whose b.r elements are read
  int out_ = -1;
  std::vector<Statement> body_;
  std::string why_;
};

bool Deriver::Run(const Function& fast_fn) {
  if (f_.num_params != 2) {
    return Fail("not a two-argument function");
  }
  k_ = f_.vars[kA].type.klass;
  if (!f_.vars[kA].type.IsRef() || k_ == nullptr || k_->is_array() ||
      f_.vars[kB].type.klass != k_ || !f_.return_type.IsRef() || f_.return_type.klass != k_) {
    return Fail("shape is not (K, K) -> K");
  }
  if (layouts_.LayoutOf(k_) == nullptr) {
    return Fail("K has no native layout");
  }
  vars_.assign(f_.vars.size(), Var{});
  fields_.assign(k_->fields().size(), Field{});
  for (const Statement& s : f_.body) {
    if (s.dst >= 0) {
      V(s.dst).defs += 1;
    }
    if (s.op == Op::kFieldStore && (s.a == kA || s.a == kB)) {
      return Fail("stores into its input");
    }
  }
  if (V(kA).defs != 0 || V(kB).defs != 0) {
    return Fail("reassigns a parameter");
  }
  bool returned = false;
  for (size_t i = 0; i < f_.body.size(); ++i) {
    const Statement& s = f_.body[i];
    ForLoop loop;
    if (s.op == Op::kLabel) {
      if (!MatchFor(f_.body, i, &loop)) {
        return Fail("control flow other than a counted loop");
      }
      if (!Loop(loop)) {
        return false;
      }
      i = loop.exit;
    } else if (s.op == Op::kReturn) {
      if (out_ < 0 || s.a != out_ || i + 1 != f_.body.size()) {
        return Fail("does not end by returning its new record");
      }
      returned = true;
    } else if (!Step(s, nullptr)) {
      return false;
    }
  }
  if (!returned) {
    return Fail("does not end by returning its new record");
  }
  for (int f = 0; f < static_cast<int>(fields_.size()); ++f) {
    if (!F(f).stored) {
      return Fail("field " + Name(f) + " of out is never stored");
    }
    if (F(f).rebuilt && !F(f).looped) {
      return Fail("rebuilt array " + Name(f) + " is never filled");
    }
  }
  // Implied by the rules above; checked so a fold that declines can always
  // take f's render path without an abort to handle.
  for (const Statement& s : fast_fn.body) {
    if (s.op == Op::kAbort) {
      return Fail("the transformed reduce has an abort fence");
    }
  }
  return true;
}

bool Deriver::Loop(const ForLoop& loop) {
  if (loop.bound < 0 || V(loop.bound).len_of < 0) {
    return Fail("loop bound is not the length of an array of a");
  }
  if (V(loop.induction).defs != 2) {
    return Fail("loop index written inside the loop");
  }
  LoopState state{V(loop.bound).len_of, loop.induction, false};
  if (F(state.field).looped) {
    return Fail("second loop over a." + Name(state.field));
  }
  for (size_t q = loop.head; q < loop.body_begin; ++q) {
    body_.push_back(f_.body[q]);  // head label, exit test
  }
  for (size_t q = loop.body_begin; q < loop.body_end; ++q) {
    const Statement& s = f_.body[q];
    if (s.op == Op::kLabel || s.op == Op::kBranch || s.op == Op::kJump || s.op == Op::kReturn) {
      return Fail("loop body is not straight-line");
    }
    if (!Step(s, &state)) {
      return false;
    }
  }
  if (!state.stored) {
    return Fail("loop over a." + Name(state.field) + " does not fill its array");
  }
  for (size_t q = loop.body_end; q <= loop.exit; ++q) {
    body_.push_back(f_.body[q]);  // increment, back edge, exit label
  }
  F(state.field).looped = true;
  return true;
}

bool Deriver::Step(const Statement& s, LoopState* loop) {
  Statement t = s;
  switch (s.op) {
    case Op::kConst:
      break;
    case Op::kAssign:
    case Op::kUnOp:
      if (!Scalar(s.a) || !Scalar(s.dst)) {
        return Fail("copies or computes on a reference");
      }
      break;
    case Op::kBinOp:
      if (s.binop == BinOpKind::kDiv || s.binop == BinOpKind::kRem) {
        return Fail("div or rem");
      }
      if (!Scalar(s.a) || !Scalar(s.b)) {
        return Fail("computes on a reference");
      }
      break;
    case Op::kFieldLoad: {
      if ((s.a != kA && s.a != kB) || s.klass != k_) {
        return Fail("loads a field of something other than a or b");
      }
      const bool ref = k_->field(s.field_index).kind == FieldKind::kRef;
      if (ref && V(s.dst).defs != 1) {
        return Fail("reference field loaded into a reassigned variable");
      }
      if (!ref && s.a == kA && F(s.field_index).written) {
        return Fail("reads a." + Name(s.field_index) + " after writing it");
      }
      if (ref) {
        V(s.dst).base = s.a;
        V(s.dst).field = s.field_index;
      } else if (s.a == kA && V(s.dst).defs == 1) {
        V(s.dst).prim_of = s.field_index;
      }
      BindFieldSlot(layouts_, &t);
      t.op = ref ? Op::kAddrOfField : Op::kReadNative;
      break;
    }
    case Op::kArrayLength: {
      const Var src = s.a >= 0 ? V(s.a) : Var{};
      if (src.field < 0 || !k_->field(src.field).target->is_array()) {
        return Fail("array length of something other than a.r or b.r");
      }
      if (src.base == kA && V(s.dst).defs == 1) {
        V(s.dst).len_of = src.field;
        V(s.dst).a_array = s.a;
      }
      t.op = Op::kNativeArrayLength;
      break;
    }
    case Op::kArrayLoad: {
      const Var src = s.a >= 0 ? V(s.a) : Var{};
      if (loop == nullptr || src.field != loop->field || s.b != loop->induction ||
          s.elem_kind == FieldKind::kRef) {
        return Fail("reads an array element other than a.r[i] or b.r[i] in the loop over r");
      }
      if (src.base == kA && loop->stored) {
        return Fail("reads a." + Name(src.field) + "[i] after writing it");
      }
      if (src.base == kB) {
        checked_.insert(src.field);
      }
      t.op = Op::kNativeArrayLoad;
      break;
    }
    case Op::kNewObject:
      if (loop != nullptr || s.klass != k_ || out_ >= 0 || V(s.dst).defs != 1) {
        return Fail("more than one allocation");
      }
      out_ = s.dst;  // out := a: stores through out become owned writes into a
      return true;
    case Op::kNewArray: {
      const int field = s.a >= 0 ? V(s.a).len_of : -1;
      if (loop != nullptr || field < 0) {
        return Fail("array length not taken from a");
      }
      if (s.klass != k_->field(field).target || F(field).rebuilt || V(s.dst).defs != 1) {
        return Fail("more than one allocation");
      }
      F(field).rebuilt = true;
      V(s.dst).rebuilt = field;
      V(s.dst).a_array = V(s.a).a_array;
      return true;  // arr := a.r: element stores become owned writes into a.r
    }
    case Op::kFieldStore: {
      if (loop != nullptr || out_ < 0 || s.a != out_) {
        return Fail("stores other than into out's fields at top level");
      }
      if (F(s.field_index).stored) {
        return Fail("stores out." + Name(s.field_index) + " twice");
      }
      F(s.field_index).stored = true;
      const FieldKind kind = k_->field(s.field_index).kind;
      if (kind == FieldKind::kRef) {
        const Var& src = V(s.b);
        if ((src.base == kA && src.field == s.field_index) || src.rebuilt == s.field_index) {
          return true;  // a already holds that child
        }
        return Fail("reference field " + Name(s.field_index) + " not rebuilt from a." +
                    Name(s.field_index));
      }
      if (!Scalar(s.b)) {
        return Fail("stores a reference into a primitive field");
      }
      F(s.field_index).written = true;
      // out.p = a.p rewrites the bytes a.p already holds — except for f32,
      // whose widening read quiets a signaling NaN.
      if (V(s.b).prim_of == s.field_index && kind != FieldKind::kF32) {
        return true;
      }
      t.a = kA;
      BindFieldSlot(layouts_, &t);
      t.op = Op::kWriteOwned;
      break;
    }
    case Op::kArrayStore:
      if (loop == nullptr || s.a < 0 || V(s.a).rebuilt != loop->field ||
          s.b != loop->induction || loop->stored || s.elem_kind == FieldKind::kRef ||
          !Scalar(s.c)) {
        return Fail("writes an array other than once as arr[i] = e in the loop over its length");
      }
      loop->stored = true;
      t.op = Op::kNativeArrayStoreOwned;
      t.a = V(s.a).a_array;
      break;
    default:
      return Fail(std::string("uses ") + OpName(s.op));
  }
  body_.push_back(t);
  return true;
}

const Function* Deriver::Emit(SerProgram* program) const {
  Function* acc = program->AddFunction(f_.name + "$acc");
  acc->num_params = 2;
  acc->return_type = IrType::I64();
  acc->vars = f_.vars;
  // Appends one statement (with a fresh destination unless `type` is void).
  // The pointer lives until the next append.
  auto emit = [acc](Op op, IrType type, int a = -1, int b = -1) {
    Statement s;
    s.op = op;
    s.a = a;
    s.b = b;
    if (type.kind != IrType::kVoid) {
      acc->vars.push_back({"", type});
      s.dst = static_cast<int>(acc->vars.size()) - 1;
    }
    acc->body.push_back(s);
    return &acc->body.back();
  };
  const int decline = static_cast<int>(f_.label_index.size());  // a fresh label

  // Every check that can fail runs before the first write: b's array
  // lengths must equal a's, or acc declines this fold untouched.
  for (int field : checked_) {
    int lens[2];
    for (int side : {kA, kB}) {
      Statement* addr = emit(Op::kFieldLoad, IrType::Ref(k_->field(field).target), side);
      addr->klass = k_;
      addr->field_index = field;
      BindFieldSlot(layouts_, addr);
      addr->op = Op::kAddrOfField;
      lens[side] = emit(Op::kNativeArrayLength, IrType::I64(), addr->dst)->dst;
    }
    Statement* differ = emit(Op::kBinOp, IrType::I64(), lens[kA], lens[kB]);
    differ->binop = BinOpKind::kNe;
    emit(Op::kBranch, IrType::Void(), differ->dst)->label = decline;
  }
  acc->body.insert(acc->body.end(), body_.begin(), body_.end());
  auto return_flag = [&](int64_t flag) {
    Statement* value = emit(Op::kConst, IrType::I64());
    value->imm = Value::I64(flag);
    emit(Op::kReturn, IrType::Void(), value->dst);
  };
  return_flag(1);
  emit(Op::kLabel, IrType::Void())->label = decline;
  return_flag(0);
  Compact(acc);
  acc->ResolveLabels();
  return acc;
}

}  // namespace

const Function* DeriveAccumulateForm(const Function& original, const Function& fast_fn,
                                     const DataStructAnalyzer& layouts, SerProgram* program,
                                     std::string* why) {
  Deriver deriver(original, layouts);
  if (!deriver.Run(fast_fn)) {
    if (why != nullptr) {
      *why = deriver.why();
    }
    return nullptr;
  }
  return deriver.Emit(program);
}

}  // namespace gerenuk
