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

// Appends `callee`'s body to `out` with its variables and labels renamed
// into fresh ones of `caller`: a parameter the callee never writes is
// args[i] itself, any other starts as a copy of it; each return assigns the
// returned value to the result variable and leaves. Returns the result
// variable.
int Inline(Function* caller, int* next_label, const Function& callee,
           const std::vector<int>& args, std::vector<Statement>* out) {
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
  const int result = NewVar(caller, callee.return_type);
  const int label_base = *next_label;
  *next_label += NextLabel(callee);
  const int leave = (*next_label)++;
  auto var = [&renamed](int v) { return v < 0 ? v : renamed[static_cast<size_t>(v)]; };
  for (size_t i = 0; i < callee.body.size(); ++i) {
    Statement s = callee.body[i];
    GERENUK_CHECK(s.op != Op::kCall) << callee.name << " must not call helper functions";
    if (s.op == Op::kReturn) {
      if (s.a >= 0) {
        out->push_back(Make(Op::kAssign, result, var(s.a)));
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

void ComposeEmitFold(SerProgram* program, const Function& key_fn, const Function& acc_fn,
                     const Klass* klass) {
  Function* body = program->body;
  int next_label = NextLabel(*body);
  const bool stage = !PrimFieldsAreWide(klass);
  std::vector<Statement> out;
  out.reserve(body->body.size());
  for (const Statement& s : body->body) {
    if (s.op != Op::kGWriteObject) {
      out.push_back(s);
      continue;
    }
    auto fold_slot = [&](FoldSlotMode mode, int record, int key, bool has_result) {
      Statement slot = Make(Op::kFoldSlot, has_result ? NewVar(body, IrType::Ref(klass)) : -1,
                            record, key);
      slot.klass = klass;
      slot.imm = Value::I64(static_cast<int64_t>(mode));
      out.push_back(slot);
      return slot.dst;
    };
    const int done = next_label++;
    const int key = Inline(body, &next_label, key_fn, {s.a}, &out);
    const int acc = fold_slot(FoldSlotMode::kLookup, s.a, key, true);
    Statement first = Make(Op::kUnOp, NewVar(body, IrType::I64()), acc);
    first.unop = UnOpKind::kNot;
    out.push_back(first);
    out.push_back(Goto(Op::kBranch, done, first.dst));
    const int record = stage ? fold_slot(FoldSlotMode::kStage, s.a, key, true) : s.a;
    const int folded = Inline(body, &next_label, acc_fn, {acc, record}, &out);
    out.push_back(Goto(Op::kBranch, done, folded));
    fold_slot(FoldSlotMode::kReduce, record, key, false);
    out.push_back(Goto(Op::kLabel, done));
  }
  body->body = std::move(out);
  body->ResolveLabels();
}

}  // namespace gerenuk
