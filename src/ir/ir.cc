#include "src/ir/ir.h"

#include <sstream>

namespace gerenuk {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kAssign: return "assign";
    case Op::kBinOp: return "binop";
    case Op::kUnOp: return "unop";
    case Op::kDeserialize: return "deserialize";
    case Op::kSerialize: return "serialize";
    case Op::kFieldLoad: return "fieldload";
    case Op::kFieldStore: return "fieldstore";
    case Op::kArrayLoad: return "arrayload";
    case Op::kArrayStore: return "arraystore";
    case Op::kArrayLength: return "arraylength";
    case Op::kNewObject: return "new";
    case Op::kNewArray: return "newarray";
    case Op::kCall: return "call";
    case Op::kCallNative: return "callnative";
    case Op::kMonitorEnter: return "monitorenter";
    case Op::kMonitorExit: return "monitorexit";
    case Op::kBranch: return "branch";
    case Op::kJump: return "jump";
    case Op::kLabel: return "label";
    case Op::kReturn: return "return";
    case Op::kGetAddress: return "getAddress";
    case Op::kGWriteObject: return "gWriteObject";
    case Op::kReadNative: return "readNative";
    case Op::kWriteNative: return "writeNative";
    case Op::kAddrOfField: return "addrOfField";
    case Op::kNativeArrayLength: return "nativeArrayLength";
    case Op::kNativeArrayLoad: return "nativeArrayLoad";
    case Op::kNativeArrayStore: return "nativeArrayStore";
    case Op::kAppendRecord: return "appendRecord";
    case Op::kAppendArray: return "appendArray";
    case Op::kAttachField: return "attachField";
    case Op::kAttachElement: return "attachElement";
    case Op::kNativeArrayElemAddr: return "nativeArrayElemAddr";
    case Op::kAbort: return "abort";
    case Op::kWriteOwned: return "writeOwned";
    case Op::kNativeArrayStoreOwned: return "nativeStoreOwned";
    case Op::kFoldSlot: return "foldSlot";
  }
  return "?";
}

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kLoadAndEscape: return "load-and-escape";
    case AbortReason::kDisruptNativeSpace: return "disrupt-the-native-space";
    case AbortReason::kInvokeNativeMethod: return "invoke-native-method";
    case AbortReason::kUseObjectMetainfo: return "use-object-metainfo";
    case AbortReason::kForced: return "forced";
  }
  return "?";
}

void Function::ResolveLabels() {
  label_index.clear();
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i].op == Op::kLabel) {
      int label = body[i].label;
      if (label >= static_cast<int>(label_index.size())) {
        label_index.resize(label + 1, -1);
      }
      label_index[label] = static_cast<int>(i);
    }
  }
}

Function* SerProgram::AddFunction(const std::string& name) {
  auto func = std::make_unique<Function>();
  func->id = static_cast<int>(functions.size());
  func->name = name;
  functions.push_back(std::move(func));
  return functions.back().get();
}

Function* SerProgram::FindFunction(const std::string& name) const {
  for (const auto& func : functions) {
    if (func->name == name) {
      return func.get();
    }
  }
  return nullptr;
}

int ImportFunction(SerProgram& dst, const SerProgram& src, int func_id,
                   std::map<int, int>& remap) {
  auto it = remap.find(func_id);
  if (it != remap.end()) {
    return it->second;
  }
  const Function& original = *src.functions[func_id];
  Function* copy = dst.AddFunction(original.name);
  remap[func_id] = copy->id;  // pre-insert to terminate on recursion
  copy->num_params = original.num_params;
  copy->return_type = original.return_type;
  copy->vars = original.vars;
  copy->body = original.body;
  for (Statement& s : copy->body) {
    if (s.op == Op::kCall) {
      s.func = ImportFunction(dst, src, s.func, remap);
    }
  }
  copy->ResolveLabels();
  return remap[func_id];
}

namespace {

std::string VarName(const Function& func, int var) {
  if (var < 0) {
    return "_";
  }
  std::ostringstream out;
  out << "v" << var;
  if (var < static_cast<int>(func.vars.size()) && !func.vars[var].name.empty()) {
    out << ":" << func.vars[var].name;
  }
  return out.str();
}

const char* BinOpName(BinOpKind kind) {
  switch (kind) {
    case BinOpKind::kAdd: return "+";
    case BinOpKind::kSub: return "-";
    case BinOpKind::kMul: return "*";
    case BinOpKind::kDiv: return "/";
    case BinOpKind::kRem: return "%";
    case BinOpKind::kLt: return "<";
    case BinOpKind::kLe: return "<=";
    case BinOpKind::kGt: return ">";
    case BinOpKind::kGe: return ">=";
    case BinOpKind::kEq: return "==";
    case BinOpKind::kNe: return "!=";
    case BinOpKind::kAnd: return "&";
    case BinOpKind::kOr: return "|";
    case BinOpKind::kXor: return "^";
    case BinOpKind::kShl: return "<<";
    case BinOpKind::kShr: return ">>";
    case BinOpKind::kMin: return "min";
    case BinOpKind::kMax: return "max";
  }
  return "?";
}

}  // namespace

std::string PrintFunction(const Function& func) {
  std::ostringstream out;
  out << "func " << func.name << "(";
  for (int i = 0; i < func.num_params; ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << VarName(func, i);
  }
  out << ") {\n";
  for (size_t i = 0; i < func.body.size(); ++i) {
    const Statement& s = func.body[i];
    out << "  [" << i << "] ";
    switch (s.op) {
      case Op::kConst:
        out << VarName(func, s.dst) << " = "
            << (s.imm.tag == ValueTag::kF64 ? std::to_string(s.imm.d) : std::to_string(s.imm.i));
        break;
      case Op::kAssign:
        out << VarName(func, s.dst) << " = " << VarName(func, s.a);
        break;
      case Op::kBinOp:
        out << VarName(func, s.dst) << " = " << VarName(func, s.a) << " " << BinOpName(s.binop)
            << " " << VarName(func, s.b);
        break;
      case Op::kUnOp:
        out << VarName(func, s.dst) << " = unop " << VarName(func, s.a);
        break;
      case Op::kDeserialize:
        out << VarName(func, s.dst) << " = readObject()";
        break;
      case Op::kSerialize:
        out << "writeObject(" << VarName(func, s.a) << ")";
        break;
      case Op::kFieldLoad:
        out << VarName(func, s.dst) << " = " << VarName(func, s.a) << "."
            << s.klass->field(s.field_index).name;
        break;
      case Op::kFieldStore:
        out << VarName(func, s.a) << "." << s.klass->field(s.field_index).name << " = "
            << VarName(func, s.b);
        break;
      case Op::kArrayLoad:
        out << VarName(func, s.dst) << " = " << VarName(func, s.a) << "[" << VarName(func, s.b)
            << "]";
        break;
      case Op::kArrayStore:
        out << VarName(func, s.a) << "[" << VarName(func, s.b) << "] = " << VarName(func, s.c);
        break;
      case Op::kArrayLength:
        out << VarName(func, s.dst) << " = " << VarName(func, s.a) << ".length";
        break;
      case Op::kNewObject:
        out << VarName(func, s.dst) << " = new " << s.klass->name();
        break;
      case Op::kNewArray:
        out << VarName(func, s.dst) << " = new " << s.klass->name() << "[" << VarName(func, s.a)
            << "]";
        break;
      case Op::kCall: {
        out << VarName(func, s.dst) << " = call#" << s.func << "(";
        for (size_t j = 0; j < s.args.size(); ++j) {
          out << (j > 0 ? ", " : "") << VarName(func, s.args[j]);
        }
        out << ")";
        break;
      }
      case Op::kCallNative: {
        out << VarName(func, s.dst) << " = native " << s.native_name << "(";
        for (size_t j = 0; j < s.args.size(); ++j) {
          out << (j > 0 ? ", " : "") << VarName(func, s.args[j]);
        }
        out << ")";
        break;
      }
      case Op::kMonitorEnter:
        out << "monitorenter " << VarName(func, s.a);
        break;
      case Op::kMonitorExit:
        out << "monitorexit " << VarName(func, s.a);
        break;
      case Op::kBranch:
        out << "if " << VarName(func, s.a) << " goto L" << s.label;
        break;
      case Op::kJump:
        out << "goto L" << s.label;
        break;
      case Op::kLabel:
        out << "L" << s.label << ":";
        break;
      case Op::kReturn:
        out << "return" << (s.a >= 0 ? ' ' + VarName(func, s.a) : "");
        break;
      case Op::kGetAddress:
        out << VarName(func, s.dst) << " = getAddress()";
        break;
      case Op::kGWriteObject:
        out << "gWriteObject(" << VarName(func, s.a) << ")";
        break;
      case Op::kReadNative:
        out << VarName(func, s.dst) << " = readNative(" << VarName(func, s.a) << ", expr#"
            << s.expr_id << ", " << FieldKindName(s.elem_kind) << ")";
        break;
      case Op::kWriteNative:
        out << "writeNative(" << VarName(func, s.a) << ", expr#" << s.expr_id << ", "
            << FieldKindName(s.elem_kind) << ", " << VarName(func, s.b) << ")";
        break;
      case Op::kAddrOfField:
        out << VarName(func, s.dst) << " = " << VarName(func, s.a) << " + resolveOffset(expr#"
            << s.expr_id << ")";
        break;
      case Op::kNativeArrayLength:
        out << VarName(func, s.dst) << " = nativeLength(" << VarName(func, s.a) << ")";
        break;
      case Op::kNativeArrayLoad:
        out << VarName(func, s.dst) << " = nativeLoad(" << VarName(func, s.a) << "["
            << VarName(func, s.b) << "], " << FieldKindName(s.elem_kind) << ")";
        break;
      case Op::kNativeArrayStore:
        out << "nativeStore(" << VarName(func, s.a) << "[" << VarName(func, s.b) << "], "
            << FieldKindName(s.elem_kind) << ", " << VarName(func, s.c) << ")";
        break;
      case Op::kAppendRecord:
        out << VarName(func, s.dst) << " = appendToBuffer(" << s.klass->name() << ")";
        break;
      case Op::kAppendArray:
        out << VarName(func, s.dst) << " = appendToBuffer(" << s.klass->name() << "["
            << VarName(func, s.a) << "])";
        break;
      case Op::kAttachField:
        out << "attach " << VarName(func, s.a) << "." << s.klass->field(s.field_index).name
            << " := " << VarName(func, s.b);
        break;
      case Op::kAttachElement:
        out << "attach " << VarName(func, s.a) << "[" << VarName(func, s.b)
            << "] := " << VarName(func, s.c);
        break;
      case Op::kNativeArrayElemAddr:
        out << VarName(func, s.dst) << " = elemAddr(" << VarName(func, s.a) << "["
            << VarName(func, s.b) << "])";
        break;
      case Op::kAbort:
        out << "ABORT(" << AbortReasonName(s.abort_reason) << ")";
        break;
      case Op::kWriteOwned:
        out << "writeOwned(" << VarName(func, s.a) << ", expr#" << s.expr_id << ", "
            << FieldKindName(s.elem_kind) << ", " << VarName(func, s.b) << ")";
        break;
      case Op::kNativeArrayStoreOwned:
        out << "nativeStoreOwned(" << VarName(func, s.a) << "[" << VarName(func, s.b) << "], "
            << FieldKindName(s.elem_kind) << ", " << VarName(func, s.c) << ")";
        break;
      case Op::kFoldSlot:
        out << VarName(func, s.dst) << " = foldSlot#" << s.imm.i << "(" << VarName(func, s.a)
            << ", " << VarName(func, s.b) << ")";
        break;
    }
    out << "\n";
  }
  out << "}\n";
  return out.str();
}

std::string PrintProgram(const SerProgram& program) {
  std::string out;
  for (const auto& func : program.functions) {
    out += PrintFunction(*func);
    out += "\n";
  }
  return out;
}

}  // namespace gerenuk
