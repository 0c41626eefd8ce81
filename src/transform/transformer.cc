#include "src/transform/transformer.h"

namespace gerenuk {

void BindFieldSlot(const DataStructAnalyzer& layouts, Statement* s) {
  const ClassLayout* layout = layouts.LayoutOf(s->klass);
  GERENUK_CHECK(layout != nullptr) << "no layout for " << s->klass->name();
  const FieldSlot& slot = layout->fields[s->field_index];
  s->expr_id = slot.offset_expr;
  s->expr_is_const = slot.is_constant;  // Algorithm 1's static-offset case
  s->expr_const_offset = slot.const_offset;
  s->elem_kind = s->klass->field(s->field_index).kind;
}

TransformResult Transformer::Run() {
  TransformResult result;
  result.transformed = std::make_unique<SerProgram>();

  // Index violations by statement for the case-7 lookup.
  std::map<StmtRef, AbortReason> violation_at;
  for (const Violation& v : analysis_.violations) {
    violation_at.emplace(v.where, v.reason);
  }

  for (size_t f = 0; f < program_.functions.size(); ++f) {
    const Function& original = *program_.functions[f];
    Function* out = result.transformed->AddFunction(original.name);
    out->num_params = original.num_params;
    out->return_type = original.return_type;
    out->vars = original.vars;
    bool touched = false;

    for (size_t i = 0; i < original.body.size(); ++i) {
      StmtRef ref{static_cast<int>(f), static_cast<int>(i)};
      auto violation = violation_at.find(ref);
      if (violation != violation_at.end()) {
        // Case 7: fence the violating statement behind an abort. The
        // original statement is kept after the abort — it is never reached,
        // which the native interpreter enforces.
        Statement abort_stmt;
        abort_stmt.op = Op::kAbort;
        abort_stmt.abort_reason = violation->second;
        out->body.push_back(std::move(abort_stmt));
        out->body.push_back(original.body[i]);
        result.stats.aborts_inserted += 1;
        result.stats.violations_by_reason[static_cast<int>(violation->second)] += 1;
        touched = true;
        continue;
      }
      if (analysis_.data_statements.count(ref) == 0) {
        out->body.push_back(original.body[i]);  // control path: left as-is
        continue;
      }
      bool transformed = false;
      out->body.push_back(TransformStatement(original.body[i], &transformed));
      if (transformed) {
        result.stats.statements_transformed += 1;
        touched = true;
      }
    }
    out->ResolveLabels();
    if (touched) {
      result.stats.functions_transformed += 1;
    }
  }
  result.transformed->body =
      program_.body == nullptr ? nullptr : result.transformed->function(program_.body->id);
  return result;
}

Statement Transformer::TransformStatement(const Statement& s, bool* transformed) {
  Statement out = s;
  *transformed = true;
  switch (s.op) {
    case Op::kDeserialize:  // Case 1
      out.op = Op::kGetAddress;
      break;
    case Op::kSerialize:  // Case 8
      out.op = Op::kGWriteObject;
      break;
    case Op::kAssign:  // Cases 2 & 3: the variable now carries an address
      break;
    case Op::kFieldLoad:  // Case 5
      BindFieldSlot(layouts_, &out);
      out.op = out.elem_kind == FieldKind::kRef ? Op::kAddrOfField : Op::kReadNative;
      break;
    case Op::kFieldStore:  // Case 4 (prim) / construction attach (ref)
      BindFieldSlot(layouts_, &out);
      out.op = out.elem_kind == FieldKind::kRef ? Op::kAttachField : Op::kWriteNative;
      break;
    case Op::kArrayLoad:
      out.op = s.elem_kind == FieldKind::kRef ? Op::kNativeArrayElemAddr : Op::kNativeArrayLoad;
      break;
    case Op::kArrayStore:
      out.op = s.elem_kind == FieldKind::kRef ? Op::kAttachElement : Op::kNativeArrayStore;
      break;
    case Op::kArrayLength:
      out.op = Op::kNativeArrayLength;
      break;
    case Op::kNewObject:  // Case 6
      out.op = Op::kAppendRecord;
      break;
    case Op::kNewArray:  // Case 6 (variable-size allocation)
      out.op = Op::kAppendArray;
      break;
    case Op::kCall:        // Case 9: callee transformed in place
    case Op::kCallNative:  // intrinsic with a native-byte implementation
      break;
    default:
      *transformed = false;
      break;
  }
  return out;
}

}  // namespace gerenuk
