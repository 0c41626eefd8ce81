#include "src/transform/emit_fold.h"

#include <algorithm>
#include <vector>

#include "src/support/logging.h"

namespace gerenuk {

namespace {

// One past the largest label id `func` places or targets.
int NextLabel(const Function& func) {
  int next = 0;
  for (const Statement& s : func.body) {
    if (s.op == Op::kLabel || s.op == Op::kBranch || s.op == Op::kJump) {
      next = std::max(next, s.label + 1);
    }
  }
  return next;
}

int NewVar(Function* func, IrType type) {
  func->vars.push_back({"", type});
  return static_cast<int>(func->vars.size()) - 1;
}

Statement Make(Op op, int dst = -1, int a = -1, int b = -1) {
  Statement s;
  s.op = op;
  s.dst = dst;
  s.a = a;
  s.b = b;
  return s;
}

Statement Goto(Op op, int label, int cond = -1) {
  Statement s = Make(op, -1, cond);
  s.label = label;
  return s;
}

bool IsControl(const Statement& s) {
  return s.op == Op::kLabel || s.op == Op::kBranch || s.op == Op::kJump || s.op == Op::kReturn;
}

// Whether `s` reads variable `var`.
bool Uses(const Statement& s, int var) {
  return s.a == var || s.b == var || s.c == var ||
         std::find(s.args.begin(), s.args.end(), var) != s.args.end();
}

int CountUses(const Function& func, int var) {
  return static_cast<int>(std::count_if(func.body.begin(), func.body.end(),
                                        [var](const Statement& s) { return Uses(s, var); }));
}

// Statement indices of `func` that define `var`.
std::vector<size_t> Defs(const Function& func, int var) {
  std::vector<size_t> defs;
  for (size_t i = 0; i < func.body.size(); ++i) {
    if (func.body[i].dst == var) {
      defs.push_back(i);
    }
  }
  return defs;
}

// The kConst that is `var`'s only definition in `func`, if any: a return of
// `var` can then jump on its value directly.
const Statement* ConstDef(const Function& func, int var) {
  const std::vector<size_t> defs = var < 0 ? std::vector<size_t>() : Defs(func, var);
  const Statement* def = defs.size() == 1 ? &func.body[defs[0]] : nullptr;
  return def != nullptr && def->op == Op::kConst && def->imm.tag == ValueTag::kI64 ? def : nullptr;
}

// Appends `callee`'s body to `out` with its variables and labels renamed
// into fresh ones of `caller`: a parameter the callee never writes is
// args[i] itself, any other starts as a copy of it; each return assigns the
// returned value to the result variable and leaves. Returns the result
// variable (-1 for a void callee).
//
// With `taken` >= 0 the callee returns a flag, and its returns become jumps
// instead: a nonzero flag goes to label `taken`, a zero flag leaves the
// inlined code. A constant flag is a plain jump (its kConst, now unread, is
// hoisted out of the plan); any other is `if v goto taken`, then leaves. No
// result variable is made.
int Inline(Function* caller, int* next_label, const Function& callee,
           const std::vector<int>& args, std::vector<Statement>* out, int taken = -1) {
  GERENUK_CHECK_EQ(static_cast<int>(args.size()), callee.num_params) << callee.name;
  std::vector<int> renamed(callee.vars.size(), -1);
  for (int i = 0; i < callee.num_params; ++i) {
    const bool written = std::any_of(callee.body.begin(), callee.body.end(),
                                     [i](const Statement& s) { return s.dst == i; });
    if (!written) {
      renamed[static_cast<size_t>(i)] = args[static_cast<size_t>(i)];
    }
  }
  for (size_t v = 0; v < callee.vars.size(); ++v) {
    if (renamed[v] < 0) {
      renamed[v] = NewVar(caller, callee.vars[v].type);
      caller->vars.back().name = callee.name + "." + callee.vars[v].name;
      if (v < static_cast<size_t>(callee.num_params)) {
        out->push_back(Make(Op::kAssign, renamed[v], args[v]));
      }
    }
  }
  const int result = callee.return_type.kind == IrType::kVoid || taken >= 0
                         ? -1
                         : NewVar(caller, callee.return_type);
  const int label_base = *next_label;
  *next_label += NextLabel(callee);
  const int leave = (*next_label)++;
  auto var = [&renamed](int v) { return v < 0 ? v : renamed[static_cast<size_t>(v)]; };
  for (size_t i = 0; i < callee.body.size(); ++i) {
    Statement s = callee.body[i];
    GERENUK_CHECK(s.op != Op::kCall) << callee.name << " must not call helper functions";
    if (s.op == Op::kReturn) {
      const Statement* flag = taken >= 0 ? ConstDef(callee, s.a) : nullptr;
      if (taken < 0 && s.a >= 0) {
        out->push_back(Make(Op::kAssign, result, var(s.a)));
      } else if (taken >= 0 && flag == nullptr) {
        out->push_back(Goto(Op::kBranch, taken, var(s.a)));
      } else if (flag != nullptr && flag->imm.i != 0) {
        out->push_back(Goto(Op::kJump, taken));
        continue;
      }
      if (i + 1 < callee.body.size()) {
        out->push_back(Goto(Op::kJump, leave));
      }
      continue;
    }
    s.dst = var(s.dst);
    s.a = var(s.a);
    s.b = var(s.b);
    s.c = var(s.c);
    for (int& arg : s.args) {
      arg = var(arg);
    }
    if (s.op == Op::kLabel || s.op == Op::kBranch || s.op == Op::kJump) {
      s.label += label_base;
    }
    out->push_back(s);
  }
  out->push_back(Goto(Op::kLabel, leave));
  return result;
}

// FunctionBuilder::For as the transformer leaves it:
//
//   z = 0; i = z
//   head: d = i >= n; if d goto exit
//   <body>
//   o = 1; t = i + o; i = t; goto head
//   exit:
struct CountedLoop {
  size_t init = 0;        // `z = 0`
  size_t body_begin = 0;  // first body statement
  size_t tail = 0;        // `o = 1`, one past the body
  size_t exit = 0;        // the exit label
  int index = -1;         // i
  int bound = -1;         // n
  int head_label = -1;
  int exit_label = -1;
};

bool IsConstI64(const Statement& s, int64_t value) {
  return s.op == Op::kConst && s.imm.tag == ValueTag::kI64 && s.imm.i == value;
}

bool MatchCountedLoop(const Function& func, size_t at, CountedLoop* loop) {
  const std::vector<Statement>& s = func.body;
  if (at + 5 > s.size()) {
    return false;
  }
  const Statement& zero = s[at];
  const Statement& init = s[at + 1];
  const Statement& head = s[at + 2];
  const Statement& test = s[at + 3];
  const Statement& leave = s[at + 4];
  if (!IsConstI64(zero, 0) || init.op != Op::kAssign || init.a != zero.dst ||
      head.op != Op::kLabel || test.op != Op::kBinOp || test.binop != BinOpKind::kGe ||
      test.a != init.dst || leave.op != Op::kBranch || leave.a != test.dst) {
    return false;
  }
  size_t exit = at + 5;
  while (exit < s.size() && !(s[exit].op == Op::kLabel && s[exit].label == leave.label)) {
    ++exit;
  }
  if (exit == s.size() || exit < at + 9) {
    return false;
  }
  const int i = init.dst;
  const Statement& one = s[exit - 4];
  const Statement& add = s[exit - 3];
  const Statement& step = s[exit - 2];
  const Statement& back = s[exit - 1];
  if (!IsConstI64(one, 1) || add.op != Op::kBinOp || add.binop != BinOpKind::kAdd ||
      add.a != i || add.b != one.dst || step.op != Op::kAssign || step.dst != i ||
      step.a != add.dst || back.op != Op::kJump || back.label != head.label) {
    return false;
  }
  *loop = CountedLoop{at, at + 5, exit - 4, exit, i, test.b, head.label, leave.label};
  return true;
}

// The flatMap UDF's fill loop: `attach arr[i] := x` ends the straight-line
// body of a counted loop over arr's length, and the array is returned right
// after the loop. See DeforestFlatMap for the full rule.
struct FillLoop {
  size_t alloc = 0;   // arr = appendToBuffer(K[][n])
  size_t attach = 0;  // attach arr[i] := x
  size_t ret = 0;     // return arr
};

bool MatchFillLoop(const Function& udf, FillLoop* fill) {
  const std::vector<Statement>& s = udf.body;
  if (s.empty() || s.back().op != Op::kReturn || s.back().a < udf.num_params) {
    return false;
  }
  const int arr = s.back().a;
  const std::vector<size_t> arr_defs = Defs(udf, arr);
  if (arr_defs.size() != 1 || s[arr_defs[0]].op != Op::kAppendArray) {
    return false;
  }
  const Statement& alloc = s[arr_defs[0]];
  const int n = alloc.a;
  size_t attach = s.size();
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i].op == Op::kCall || (s[i].op == Op::kReturn && i + 1 < s.size()) ||
        (s[i].op == Op::kAppendArray && s[i].klass == alloc.klass && i != arr_defs[0])) {
      return false;
    }
    if (s[i].op == Op::kAttachElement && s[i].a == arr) {
      attach = i;
    }
  }
  // The array is only filled and returned.
  if (attach == s.size() || CountUses(udf, arr) != 2 || s[attach].b == arr ||
      s[attach].c == arr) {
    return false;
  }
  CountedLoop loop;
  bool found = false;
  for (size_t at = arr_defs[0] + 1; at < attach && !found; ++at) {
    found = MatchCountedLoop(udf, at, &loop) && loop.bound == n && loop.body_begin <= attach &&
            attach + 1 == loop.tail;
  }
  if (!found || loop.exit + 2 != s.size() || s[attach].b != loop.index) {
    return false;
  }
  // n keeps the array's length through the loop; i is only the loop's.
  for (size_t i = arr_defs[0] + 1; i <= loop.exit; ++i) {
    if (s[i].dst == n) {
      return false;
    }
  }
  for (size_t i = 0; i < s.size(); ++i) {
    const bool in_loop = i >= loop.init && i <= loop.exit;
    if (!in_loop && (s[i].op == Op::kBranch || s[i].op == Op::kJump) &&
        (s[i].label == loop.head_label || s[i].label == loop.exit_label)) {
      return false;
    }
  }
  for (size_t i = loop.body_begin; i < loop.tail; ++i) {
    const Statement& st = s[i];
    if (IsControl(st) || st.dst == loop.index) {
      return false;
    }
    // Every record the body writes is one this iteration allocated earlier,
    // so nothing an emitted record reaches is written after its emit.
    const bool writes = st.op == Op::kWriteNative || st.op == Op::kAttachField ||
                        (st.op == Op::kAttachElement && i != attach) ||
                        st.op == Op::kNativeArrayStore;
    if (writes) {
      const std::vector<size_t> defs = Defs(udf, st.a);
      if (defs.size() != 1 || defs[0] < loop.body_begin || defs[0] >= i ||
          (s[defs[0]].op != Op::kAppendRecord && s[defs[0]].op != Op::kAppendArray)) {
        return false;
      }
    }
  }
  *fill = FillLoop{arr_defs[0], attach, s.size() - 1};
  return true;
}

// How the record a gWriteObject emits was built, when it is a fresh
// appendToBuffer(K) written field by field in straight-line code right
// before the emit and used nowhere else.
struct RecordBuild {
  bool found = false;
  bool sink = false;  // x is read only through forwarded fields
  std::vector<size_t> statements;  // the append and every write to the record
  std::vector<size_t> rebuild;     // the append and each field's last write
  // Fields whose written value a builder read returns unchanged: field
  // index -> the variable written, still holding it at the emit.
  std::vector<std::pair<int, int>> forwarded;
};

RecordBuild FindRecordBuild(const Function& func, size_t emit, const Klass* klass) {
  RecordBuild build;
  const std::vector<Statement>& s = func.body;
  const int x = s[emit].a;
  const std::vector<size_t> defs = Defs(func, x);
  if (!PrimFieldsAreWide(klass) || defs.size() != 1 || defs[0] >= emit ||
      s[defs[0]].op != Op::kAppendRecord || s[defs[0]].klass != klass) {
    return build;
  }
  const size_t append = defs[0];
  std::vector<size_t> last_write(klass->fields().size(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const bool in_build = i > append && i < emit;
    if (in_build && IsControl(s[i])) {
      return build;
    }
    if (i == emit || !Uses(s[i], x)) {
      continue;
    }
    if (!in_build || s[i].op != Op::kWriteNative || s[i].a != x || s[i].b == x) {
      return build;
    }
    last_write[static_cast<size_t>(s[i].field_index)] = i;
    build.statements.push_back(i);
  }
  for (size_t write : last_write) {
    if (write == s.size()) {
      continue;
    }
    const Statement& w = s[write];
    for (size_t i = write + 1; i < emit; ++i) {
      if (s[i].dst == w.b) {
        return build;  // the written value is gone by the emit
      }
    }
    build.rebuild.push_back(write);
    const IrType::Kind written = func.vars[static_cast<size_t>(w.b)].type.kind;
    if ((w.elem_kind == FieldKind::kI64 && written == IrType::kI64) ||
        (w.elem_kind == FieldKind::kF64 && written == IrType::kF64)) {
      build.forwarded.emplace_back(w.field_index, w.b);
    }
  }
  std::sort(build.rebuild.begin(), build.rebuild.end());
  build.rebuild.insert(build.rebuild.begin(), append);
  build.statements.insert(build.statements.begin(), append);
  build.found = true;
  return build;
}

int ForwardedValue(const RecordBuild& build, int field_index) {
  for (const auto& [field, value] : build.forwarded) {
    if (field == field_index) {
      return value;
    }
  }
  return -1;
}

// Whether parameter `param` of `fn` is only ever read through fields
// `build` forwards — so once forwarded, the inlined copy leaves x unread.
bool ReadsOnlyForwarded(const Function& fn, int param, const RecordBuild& build) {
  for (const Statement& s : fn.body) {
    if (s.dst == param) {
      return false;
    }
    if (Uses(s, param) && !(s.op == Op::kReadNative && s.a == param && s.b != param &&
                            s.c != param && ForwardedValue(build, s.field_index) >= 0)) {
      return false;
    }
  }
  return true;
}

// Replaces each forwarded `readNative(x, field)` in `code[from, end)` with
// the value written into the field. When the read is the only definition of
// its variable and every use follows it in straight-line code, the uses read
// the value directly and the read disappears; otherwise it becomes a copy.
void ForwardReads(std::vector<Statement>* code, size_t from, int x, const RecordBuild& build) {
  std::vector<Statement>& c = *code;
  for (size_t i = from; i < c.size(); ++i) {
    const int value = c[i].op == Op::kReadNative && c[i].a == x
                          ? ForwardedValue(build, c[i].field_index)
                          : -1;
    if (value < 0) {
      continue;
    }
    const int read = c[i].dst;
    bool direct = true;
    bool label = false;
    for (size_t j = from; j < c.size() && direct; ++j) {
      label |= j > i && c[j].op == Op::kLabel;
      direct = j == i || (c[j].dst != read && (!Uses(c[j], read) || (j > i && !label)));
    }
    if (!direct) {
      c[i] = Make(Op::kAssign, read, value);
      continue;
    }
    for (size_t j = i + 1; j < c.size(); ++j) {
      for (int* operand : {&c[j].a, &c[j].b, &c[j].c}) {
        *operand = *operand == read ? value : *operand;
      }
      std::replace(c[j].args.begin(), c[j].args.end(), read, value);
    }
    c.erase(c.begin() + static_cast<std::ptrdiff_t>(i));
    --i;
  }
}

}  // namespace

bool PrimFieldsAreWide(const Klass* klass) {
  for (const FieldInfo& field : klass->fields()) {
    if (field.kind != FieldKind::kRef && field.kind != FieldKind::kI64 &&
        field.kind != FieldKind::kF64) {
      return false;
    }
  }
  return true;
}

void DeforestFlatMap(SerProgram* program) {
  Function* body = program->body;
  const std::vector<Statement>& s = body->body;
  // The element loop CompileNarrowStage builds after the flatMap call:
  //   arr = call udf(args); len = lengthOf(arr)
  //   for (i < len) { e = elemAddr(arr[i]); gWriteObject(e) }
  size_t call = s.size();
  for (size_t i = 0; i < s.size(); ++i) {
    call = s[i].op == Op::kCall ? i : call;
  }
  CountedLoop loop;
  if (call + 2 >= s.size() || s[call + 1].op != Op::kNativeArrayLength ||
      s[call + 1].a != s[call].dst || !MatchCountedLoop(*body, call + 2, &loop) ||
      loop.bound != s[call + 1].dst || loop.tail != loop.body_begin + 2) {
    return;
  }
  const Statement& elem = s[loop.body_begin];
  const Statement& emit = s[loop.body_begin + 1];
  if (elem.op != Op::kNativeArrayElemAddr || elem.a != s[call].dst || elem.b != loop.index ||
      emit.op != Op::kGWriteObject || emit.a != elem.dst || CountUses(*body, s[call].dst) != 2 ||
      CountUses(*body, elem.dst) != 1) {
    return;
  }
  const Function& udf = *program->function(s[call].func);
  FillLoop fill;
  if (!MatchFillLoop(udf, &fill)) {
    return;
  }

  // The UDF as a void function that emits where it attached: its array
  // allocation becomes the negative-length abort, its return a plain exit.
  Function emitting = udf;
  emitting.return_type = IrType::Void();
  const int n = udf.body[fill.alloc].a;
  const int zero = NewVar(&emitting, IrType::I64());
  const int sized = NewVar(&emitting, IrType::I64());
  const int ok = NextLabel(udf);
  std::vector<Statement> code;
  code.reserve(udf.body.size() + 4);
  for (size_t i = 0; i < udf.body.size(); ++i) {
    if (i == fill.alloc) {
      Statement c = Make(Op::kConst, zero);
      c.imm = Value::I64(0);
      code.push_back(c);
      Statement ge = Make(Op::kBinOp, sized, n, zero);
      ge.binop = BinOpKind::kGe;
      code.push_back(ge);
      code.push_back(Goto(Op::kBranch, ok, sized));
      Statement abort = Make(Op::kAbort);
      abort.abort_reason = AbortReason::kDisruptNativeSpace;
      code.push_back(abort);
      code.push_back(Goto(Op::kLabel, ok));
    } else if (i == fill.attach) {
      Statement write = emit;
      write.a = udf.body[i].c;
      code.push_back(write);
    } else if (i == fill.ret) {
      code.push_back(Make(Op::kReturn));
    } else {
      code.push_back(udf.body[i]);
    }
  }
  emitting.body = std::move(code);

  int next_label = NextLabel(*body);
  std::vector<Statement> out(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(call));
  Inline(body, &next_label, emitting, s[call].args, &out);
  out.insert(out.end(), s.begin() + static_cast<std::ptrdiff_t>(loop.exit), s.end());
  body->body = std::move(out);
  body->ResolveLabels();
}

void ComposeEmitFold(SerProgram* program, const Function& key_fn, const Function& acc_fn,
                     const Klass* klass) {
  Function* body = program->body;
  int next_label = NextLabel(*body);
  const bool stage = !PrimFieldsAreWide(klass);
  // Per emit: how its record was built, and whether the build sinks.
  const size_t size = body->body.size();
  std::vector<RecordBuild> builds(size);
  std::vector<bool> sunk(size, false);  // statements a sunk build moved
  for (size_t i = 0; i < size; ++i) {
    if (body->body[i].op != Op::kGWriteObject) {
      continue;
    }
    RecordBuild& build = builds[i];
    build = FindRecordBuild(*body, i, klass);
    build.sink = build.found && ReadsOnlyForwarded(key_fn, 0, build) &&
                 ReadsOnlyForwarded(acc_fn, 1, build);
    for (size_t j : build.sink ? build.statements : std::vector<size_t>()) {
      sunk[j] = true;
    }
  }
  const std::vector<Statement> in = std::move(body->body);
  std::vector<Statement> out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const Statement& s = in[i];
    if (sunk[i]) {
      continue;
    }
    if (s.op != Op::kGWriteObject) {
      out.push_back(s);
      continue;
    }
    const RecordBuild& build = builds[i];
    auto fold_slot = [&](FoldSlotMode mode, int record, int key, bool has_result) {
      Statement slot = Make(Op::kFoldSlot, has_result ? NewVar(body, IrType::Ref(klass)) : -1,
                            record, key);
      slot.klass = klass;
      slot.imm = Value::I64(static_cast<int64_t>(mode));
      out.push_back(slot);
      return slot.dst;
    };
    auto inline_forwarded = [&](const Function& fn, const std::vector<int>& args,
                                int taken = -1) {
      const size_t from = out.size();
      const int caller_vars = static_cast<int>(body->vars.size());
      const int result = Inline(body, &next_label, fn, args, &out, taken);
      ForwardReads(&out, from, s.a, build);
      // A function whose one return hands back a forwarded value (a key
      // function reading one field) needs no result copy: the caller reads
      // the value itself. x is excluded because a sunk build redefines it.
      const size_t n = out.size();
      const Statement* ret = n >= from + 2 ? &out[n - 2] : nullptr;
      if (ret != nullptr && ret->op == Op::kAssign && ret->dst == result &&
          ret->a < caller_vars && ret->a != s.a &&
          std::count_if(out.begin() + static_cast<std::ptrdiff_t>(from), out.end(),
                        [result](const Statement& st) { return st.dst == result; }) == 1) {
        const int value = ret->a;
        out.erase(out.end() - 2);
        return value;
      }
      return result;
    };
    auto emit_build = [&] {
      for (size_t j : build.rebuild) {
        out.push_back(in[j]);
      }
    };
    // A sunk build probes first and builds x only where bytes are needed:
    // before the declined fold's reduce and before a first-seen key's lookup.
    const bool sink = build.sink;
    const int done = next_label++;
    const int first_seen = sink ? next_label++ : done;
    const int key = inline_forwarded(key_fn, {s.a});
    // kProbe reads no record: its record operand is the key.
    const int acc = sink ? fold_slot(FoldSlotMode::kProbe, key, key, true)
                         : fold_slot(FoldSlotMode::kLookup, s.a, key, true);
    Statement first = Make(Op::kUnOp, NewVar(body, IrType::I64()), acc);
    first.unop = UnOpKind::kNot;
    out.push_back(first);
    out.push_back(Goto(Op::kBranch, first_seen, first.dst));
    const int record = stage ? fold_slot(FoldSlotMode::kStage, s.a, key, true) : s.a;
    inline_forwarded(acc_fn, {acc, record}, done);  // a fold jumps to done, a decline falls out
    if (sink) {
      emit_build();
    }
    fold_slot(FoldSlotMode::kReduce, record, key, false);
    if (sink) {
      out.push_back(Goto(Op::kJump, done));
      out.push_back(Goto(Op::kLabel, first_seen));
      emit_build();
      fold_slot(FoldSlotMode::kLookup, s.a, key, false);
    }
    out.push_back(Goto(Op::kLabel, done));
  }
  body->body = std::move(out);
  body->ResolveLabels();
}

}  // namespace gerenuk
