#include "src/exec/plan_compiler.h"

#include <algorithm>
#include <map>
#include <utility>

namespace gerenuk {

namespace {

Intrinsic ResolveIntrinsic(const std::string& name) {
  if (name == "exp") return Intrinsic::kExp;
  if (name == "log") return Intrinsic::kLog;
  if (name == "sqrt") return Intrinsic::kSqrt;
  if (name == "abs") return Intrinsic::kAbs;
  if (name == "stringLength") return Intrinsic::kStringLength;
  if (name == "stringHash" || name == "hashCode") return Intrinsic::kStringHash;
  if (name == "stringEquals") return Intrinsic::kStringEquals;
  if (name == "stringCompare") return Intrinsic::kStringCompare;
  return Intrinsic::kUnknown;
}

// Flattens one symbolic SizeExpr into a post-order FlatStep run: children
// land before parents, shared subexpressions are emitted once, zero-scale
// terms are dropped (the constant-folding pass proves them dead). The run's
// last step is the expression itself.
class Flattener {
 public:
  explicit Flattener(const ExprPool& pool) : pool_(pool) {}

  bool Flatten(int expr_id, std::vector<FlatStep>* steps, std::vector<FlatTerm>* terms) {
    steps_.clear();
    terms_.clear();
    local_.clear();
    ok_ = true;
    Visit(expr_id);
    if (!ok_) {
      return false;
    }
    *steps = steps_;
    *terms = terms_;
    return true;
  }

 private:
  int Visit(int id) {
    auto it = local_.find(id);
    if (it != local_.end()) {
      return it->second;
    }
    const SizeExpr& expr = pool_.Get(id);
    std::vector<std::pair<int64_t, int>> children;
    for (const SizeExpr::Term& term : expr.terms) {
      if (term.scale == 0) {
        continue;
      }
      children.emplace_back(term.scale, Visit(term.length_at));
    }
    if (!ok_ || steps_.size() >= kMaxFlatSteps) {
      ok_ = false;
      return 0;
    }
    FlatStep step;
    step.constant = expr.constant;
    step.first_term = static_cast<int32_t>(terms_.size());
    step.num_terms = static_cast<int32_t>(children.size());
    for (const auto& child : children) {
      terms_.push_back(FlatTerm{child.first, static_cast<int32_t>(child.second)});
    }
    steps_.push_back(step);
    int idx = static_cast<int>(steps_.size()) - 1;
    local_[id] = idx;
    return idx;
  }

  const ExprPool& pool_;
  std::vector<FlatStep> steps_;
  std::vector<FlatTerm> terms_;
  std::unordered_map<int, int> local_;
  bool ok_ = true;
};

}  // namespace

class PlanBuilder {
 public:
  PlanBuilder(const SerProgram& program, const DataStructAnalyzer& layouts, SerPlan* plan,
              const PlanOptions& options)
      : program_(program),
        pool_(layouts.pool()),
        plan_(plan),
        options_(options),
        flattener_(pool_) {}

  // False when some reachable statement is a heap-object op.
  bool Build() {
    plan_->vector_batch_size_ = options_.vectorize ? options_.vector_batch_size : 0;
    plan_->vec_bail_after_strips_ = options_.vec_bail_after_strips;
    plan_->funcs_.resize(program_.functions.size());
    for (size_t i = 0; i < program_.functions.size(); ++i) {
      LowerFunction(*program_.functions[i], &plan_->funcs_[i]);
      plan_->by_fn_[program_.functions[i].get()] = i;
    }
    // Back-pointers only after the vector stops growing.
    for (PlanFunction& pf : plan_->funcs_) {
      pf.plan = plan_;
    }
    // Single-function programs (key/reduce/combine UDFs) have no stage body;
    // their functions are invoked by name through another runner's fn index.
    plan_->entry_ = program_.body != nullptr ? plan_->Lookup(program_.body) : nullptr;
    for (const PlanFunction& pf : plan_->funcs_) {
      for (const PlanOp& op : pf.ops) {
        plan_->op_counts_[static_cast<size_t>(op.code)] += 1;
        plan_->ops_total_ += 1;
      }
    }
    return !heap_op_;
  }

 private:
  // Offset resolution for kReadNative/kAddrOfField: fills the op's
  // const/sym fields and returns true when the offset folded to a constant.
  bool LowerOffset(const Statement& s, PlanOp* op) {
    int64_t folded = 0;
    if (s.expr_is_const) {
      op->imm = s.expr_const_offset;
      plan_->offsets_folded_ += 1;
      return true;
    }
    if (pool_.FoldedConstant(s.expr_id, &folded)) {
      op->imm = folded;
      plan_->offsets_folded_ += 1;
      return true;
    }
    plan_->offsets_symbolic_ += 1;
    op->expr_id = s.expr_id;
    auto cached = flat_cache_.find(s.expr_id);
    if (cached != flat_cache_.end()) {
      op->flat_off = cached->second.first;
      op->flat_len = cached->second.second;
      return false;
    }
    std::vector<FlatStep> steps;
    std::vector<FlatTerm> terms;
    if (flattener_.Flatten(s.expr_id, &steps, &terms)) {
      op->flat_off = static_cast<int32_t>(plan_->flat_steps_.size());
      op->flat_len = static_cast<int32_t>(steps.size());
      int32_t term_base = static_cast<int32_t>(plan_->flat_terms_.size());
      for (FlatStep& step : steps) {
        step.first_term += term_base;
        plan_->flat_steps_.push_back(step);
      }
      for (const FlatTerm& term : terms) {
        plan_->flat_terms_.push_back(term);
      }
    }
    // Overflowed expressions keep flat_off = -1: ResolveOffset fallback.
    flat_cache_[s.expr_id] = {op->flat_off, op->flat_len};
    return false;
  }

  // Block leaders: the ops a branch or jump lands on (target) or a vec block
  // bails to (target2). A leader must stay addressable, so no rewrite may
  // fold it into the op before it.
  static std::vector<char> Leaders(const std::vector<PlanOp>& ops) {
    std::vector<char> leader(ops.size(), 0);
    for (const PlanOp& op : ops) {
      for (int32_t t : {op.target, op.target2}) {
        if (t >= 0) {
          leader[static_cast<size_t>(t)] = 1;
        }
      }
    }
    return leader;
  }

  // After a rewrite that moved old op j to `rewritten` index remap[j], points
  // every target of `rewritten` at the new index. remap has one slot past the
  // old end, which maps to one past the new end.
  static void Retarget(std::vector<int32_t>& remap, std::vector<PlanOp>* rewritten) {
    remap.back() = static_cast<int32_t>(rewritten->size());
    for (PlanOp& op : *rewritten) {
      for (int32_t* t : {&op.target, &op.target2}) {
        if (*t >= 0) {
          *t = remap[static_cast<size_t>(*t)];
        }
      }
    }
  }

  void LowerFunction(const Function& func, PlanFunction* out) {
    out->src = &func;
    out->num_params = func.num_params;
    out->num_vars = static_cast<int>(func.vars.size());

    // Pass A: one PlanOp per statement (labels and monitors vanish), with
    // branch targets resolved through label_index into *op* indices. A
    // statement index maps to the first op emitted at or after it, so a
    // branch landing on a kLabel lands on the next real op — exactly the
    // interpreter's "jump to the no-op label, fall through" behavior.
    std::vector<PlanOp> ops;
    std::vector<int32_t> op_of_stmt(func.body.size() + 1, 0);
    for (size_t i = 0; i < func.body.size(); ++i) {
      op_of_stmt[i] = static_cast<int32_t>(ops.size());
      // A statement right behind an abort never runs (branches land only on
      // labels): the transformer keeps each fenced Case-7 statement there.
      if (i > 0 && func.body[i - 1].op == Op::kAbort && func.body[i].op != Op::kLabel) {
        continue;
      }
      LowerStatement(func.body[i], out, &ops);
    }
    op_of_stmt[func.body.size()] = static_cast<int32_t>(ops.size());
    // Synthetic return: falling off the end yields None, and every branch
    // target past the last real op stays a valid op index.
    PlanOp ret;
    ret.code = PlanOpCode::kReturnVoid;
    ops.push_back(ret);

    for (PlanOp& op : ops) {
      if (op.target >= 0) {
        // During lowering, target temporarily holds a label id.
        GERENUK_CHECK_LT(static_cast<size_t>(op.target), func.label_index.size());
        op.target = op_of_stmt[static_cast<size_t>(func.label_index[op.target])];
      }
    }

    // Pass B: copy elimination. FunctionBuilder lowers every AssignTo as
    // `temp = <produce>; var = temp`; when nothing but that kAssign ever
    // reads the temp, the producer can write `var` directly and the copy
    // disappears. Handlers read all operands before writing dst, so the
    // rewrite is safe even when `var` is one of the producer's operands.
    {
      const std::vector<char> leader = Leaders(ops);
      // Reads per variable: a/b/c are operand reads whenever set, plus the
      // call/intrinsic argument pool. dst (and the not-yet-created dst2)
      // are writes.
      std::vector<int32_t> reads(static_cast<size_t>(out->num_vars), 0);
      auto count_read = [&reads](int32_t v) {
        if (v >= 0 && static_cast<size_t>(v) < reads.size()) {
          reads[static_cast<size_t>(v)] += 1;
        }
      };
      for (const PlanOp& op : ops) {
        count_read(op.a);
        count_read(op.b);
        count_read(op.c);
        for (int32_t j = 0; j < op.args_len; ++j) {
          count_read(out->args_pool[static_cast<size_t>(op.args_off + j)]);
        }
      }
      std::vector<PlanOp> pruned;
      pruned.reserve(ops.size());
      std::vector<int32_t> remap(ops.size() + 1, 0);
      size_t j = 0;
      while (j < ops.size()) {
        remap[j] = static_cast<int32_t>(pruned.size());
        if (j + 1 < ops.size() && !leader[j + 1]) {
          const PlanOp& x = ops[j];
          const PlanOp& y = ops[j + 1];
          if (y.code == PlanOpCode::kAssign && x.dst >= 0 && y.a == x.dst &&
              reads[static_cast<size_t>(x.dst)] == 1) {
            remap[j + 1] = static_cast<int32_t>(pruned.size());
            pruned.push_back(x);
            pruned.back().dst = y.dst;
            plan_->ops_copies_elided_ += 1;
            j += 2;
            continue;
          }
        }
        pruned.push_back(ops[j]);
        j += 1;
      }
      Retarget(remap, &pruned);
      ops = std::move(pruned);
    }

    // Pass B1b: const hoisting. A kConst whose destination has no other
    // writer in the function always produces the same value, so the frame
    // starts with it (PlanFunction::init_slots) and the op disappears —
    // FunctionBuilder materializes literals right before use, which puts
    // them inside loop bodies. Builder code always writes a temp before
    // reading it, so an earlier write is unobservable; param slots are
    // excluded (the call writes those).
    out->init_slots.assign(static_cast<size_t>(out->num_vars), Value());
    {
      std::vector<int32_t> writes(static_cast<size_t>(out->num_vars), 0);
      for (const PlanOp& op : ops) {
        if (op.dst >= 0 && static_cast<size_t>(op.dst) < writes.size()) {
          writes[static_cast<size_t>(op.dst)] += 1;
        }
      }
      std::vector<PlanOp> kept;
      kept.reserve(ops.size());
      std::vector<int32_t> remap(ops.size() + 1, 0);
      for (size_t j = 0; j < ops.size(); ++j) {
        const PlanOp& op = ops[j];
        remap[j] = static_cast<int32_t>(kept.size());
        if (op.code == PlanOpCode::kConst && op.dst >= out->num_params &&
            writes[static_cast<size_t>(op.dst)] == 1) {
          out->init_slots[static_cast<size_t>(op.dst)] = Value{op.imm_tag, op.imm, op.fimm};
        } else {
          kept.push_back(op);
        }
      }
      // A branch that landed on a dropped const lands on the next op.
      Retarget(remap, &kept);
      ops = std::move(kept);
    }

    // Pass V: loop vectorization (between const hoisting, which it relies on
    // for step/invariant detection, and jump threading, which must then treat
    // the vec block as opaque). Each qualifying counted loop gets a strip-
    // mined vec block spliced in front of the untouched scalar loop; see
    // VectorizeLoops below for the qualification rules.
    if (options_.vectorize) {
      VectorizeLoops(&ops, out);
    }

    // Pass B2: jump threading. A kJump is replaced by a copy of a short
    // prefix of its target block (up to kThreadWindow ops) plus a jump to
    // the remainder — inlining the destination, so any prefix length is
    // semantically neutral. The payoff is structural: the old target often
    // stops being entered sideways (e.g. a bottom-test loop's condition
    // block and its loop-entry jump), which unblocks the run collapse and
    // fusion passes below.
    {
      constexpr size_t kThreadWindow = 3;
      // Vec ops count as control: a thread window must never copy into a
      // vec block (kVecLoopBegin..kVecLoopEnd is a contiguous unit whose
      // body ops are only reachable through their own Begin).
      auto is_control = [](PlanOpCode c) {
        return c == PlanOpCode::kJump || c == PlanOpCode::kBranch ||
               c == PlanOpCode::kReturn || c == PlanOpCode::kReturnVoid ||
               c == PlanOpCode::kAbort || IsVecOp(c);
      };
      auto is_unconditional = [](PlanOpCode c) {
        return c == PlanOpCode::kJump || c == PlanOpCode::kReturn ||
               c == PlanOpCode::kReturnVoid || c == PlanOpCode::kAbort;
      };
      std::vector<PlanOp> threaded;
      threaded.reserve(ops.size());
      std::vector<int32_t> remap(ops.size() + 1, 0);
      for (size_t j = 0; j < ops.size(); ++j) {
        remap[j] = static_cast<int32_t>(threaded.size());
        const PlanOp& op = ops[j];
        if (op.code == PlanOpCode::kJump) {
          size_t t = static_cast<size_t>(op.target);
          size_t end = t;  // one past the prefix to inline
          while (end < ops.size() && end - t < kThreadWindow &&
                 !is_control(ops[end].code)) {
            ++end;
          }
          // Thread only when the prefix reaches a control op inside the
          // window; otherwise the copy would end in a rejoin jump and save
          // no dispatches — pure code growth. A vec op is never copied:
          // duplicating a kVecLoopBegin would detach it from its body.
          if (end < ops.size() && end - t < kThreadWindow && !IsVecOp(ops[end].code)) {
            ++end;  // the control op itself is part of the prefix
            for (size_t m = t; m < end; ++m) {
              threaded.push_back(ops[m]);  // targets still in old indices
            }
            if (!is_unconditional(ops[end - 1].code)) {
              // The prefix ends in a conditional branch: its fall-through
              // must rejoin the original successor.
              PlanOp rejoin;
              rejoin.code = PlanOpCode::kJump;
              rejoin.target = static_cast<int32_t>(end);
              threaded.push_back(rejoin);
            }
            continue;
          }
        }
        threaded.push_back(op);
      }
      Retarget(remap, &threaded);
      ops = std::move(threaded);
    }

    // Pass B3: collapse each maximal straight-line run of >= 3 consecutive
    // kBinOps (no branch landing inside it; landing on its head is fine)
    // into one kBinOpRun whose {kind, a, b, dst} entries live in args_pool.
    // Small integer kConsts join a run as immediate entries (kind -1) so a
    // loop-body constant doesn't split the chain. Every entry still stores
    // its destination in order, so the run is indistinguishable from the
    // unfused ops to any reader or to a branch that follows it.
    {
      const std::vector<char> leader = Leaders(ops);
      auto run_member = [](const PlanOp& op) {
        if (op.code == PlanOpCode::kBinOp) {
          return true;
        }
        // Value{kI64, v, 0.0} == Value::I64(v), so an int32-sized I64 const
        // is exactly an immediate entry.
        return op.code == PlanOpCode::kConst && op.imm_tag == ValueTag::kI64 &&
               op.imm >= INT32_MIN && op.imm <= INT32_MAX;
      };
      std::vector<PlanOp> packed;
      packed.reserve(ops.size());
      std::vector<int32_t> remap(ops.size() + 1, 0);
      size_t j = 0;
      while (j < ops.size()) {
        remap[j] = static_cast<int32_t>(packed.size());
        size_t k = j;
        while (k < ops.size() && run_member(ops[k]) && (k == j || !leader[k])) {
          ++k;
        }
        // Any >= 3 straight-line run pays for itself: one dispatch plus a
        // tight entry loop beats three dispatches even when the entries are
        // all constants (function-entry const blocks are the common case).
        if (k - j >= 3) {
          PlanOp run;
          run.code = PlanOpCode::kBinOpRun;
          run.args_off = static_cast<int32_t>(out->args_pool.size());
          run.args_len = static_cast<int32_t>(4 * (k - j));
          for (size_t m = j; m < k; ++m) {
            remap[m] = static_cast<int32_t>(packed.size());
            if (ops[m].code == PlanOpCode::kConst) {
              out->args_pool.push_back(-1);
              out->args_pool.push_back(static_cast<int32_t>(ops[m].imm));
              out->args_pool.push_back(-1);
            } else {
              out->args_pool.push_back(static_cast<int32_t>(ops[m].binop));
              out->args_pool.push_back(ops[m].a);
              out->args_pool.push_back(ops[m].b);
            }
            out->args_pool.push_back(ops[m].dst);
          }
          packed.push_back(run);
          plan_->ops_fused_ += static_cast<int64_t>(k - j - 1);
          plan_->run_count_ += 1;
          plan_->run_len_sum_ += static_cast<int64_t>(k - j);
          plan_->run_len_max_ =
              std::max(plan_->run_len_max_, static_cast<int64_t>(k - j));
          j = k;
        } else {
          packed.push_back(ops[j]);
          j += 1;
        }
      }
      Retarget(remap, &packed);
      ops = std::move(packed);
    }

    // Pass C: peephole fusion over adjacent pairs, repeated to a fixpoint —
    // a later round can absorb a round-1 superinstruction's neighbor (e.g.
    // kBinOpRunBranch + the jump it falls through into becomes
    // kBinOpRunBranchElse). Intermediate destinations
    // are still written (no liveness analysis), so semantics are identical
    // whether or not a pair fuses. Branch/jump destinations start basic
    // blocks; a block leader must stay addressable, so it can never be the
    // second half of a fusion.
    bool changed = true;
    while (changed) {
      changed = false;
      const std::vector<char> leader = Leaders(ops);
      std::vector<PlanOp> fused;
      fused.reserve(ops.size());
      std::vector<int32_t> remap(ops.size() + 1, 0);
      size_t i = 0;
      while (i < ops.size()) {
        remap[i] = static_cast<int32_t>(fused.size());
        PlanOp merged;
        if (i + 1 < ops.size() && !leader[i + 1] && TryFuse(ops[i], ops[i + 1], &merged)) {
          remap[i + 1] = static_cast<int32_t>(fused.size());
          fused.push_back(merged);
          plan_->ops_fused_ += 1;
          changed = true;
          i += 2;
        } else {
          fused.push_back(ops[i]);
          i += 1;
        }
      }
      Retarget(remap, &fused);
      ops = std::move(fused);
    }
    out->ops = std::move(ops);
  }

  // ---------------------------------------------------------------------
  // Pass V: loop vectorization.
  //
  // Recognizes the counted-loop shape FunctionBuilder::For emits (after
  // copy elimination and const hoisting):
  //
  //     H:   done = i >= limit          (kBinOp kGe)
  //     H+1: if (done) goto E           (kBranch)
  //          <body>                     (H+2 .. J-2)
  //     J-1: i = i + <const 1>          (kBinOp kAdd)
  //     J:   goto H                     (kJump)
  //     E:   ...
  //
  // and, when the body qualifies (pure arithmetic / filters / native-array
  // column access — the layout cost model's "columnar" bucket), splices a
  // strip-mined vec block in front of the untouched scalar loop:
  //
  //     VB:  kVecLoopBegin  (exit -> E, bail -> H)
  //          <vec body over column vectors + selection vector>
  //     VE:  kVecLoopEnd    (commit, i += n, -> VB)
  //     H:   ... scalar loop, unchanged ...
  //     E:   ...
  //
  // The scalar loop is simultaneously the vectorize-off path (never entered
  // when strips run to completion: VB jumps straight to E when no
  // iterations remain) and the bail target. All strip side effects — slot
  // writebacks, native-array scatters, the induction advance — are deferred
  // to kVecLoopEnd, so a bail anywhere in a strip re-enters the scalar loop
  // with pristine strip-start state and replays the strip lane by lane:
  // aborts and faults fire at exactly the iteration, in exactly the
  // lane-major order, the interpreter would produce. Loops whose bodies
  // contain pointer-chasing or effectful ops (record reads with symbolic
  // offsets, calls, allocation, emit) are rejected and stay row-layout;
  // the rejection reasons feed the op_mix bench output.
  void VectorizeLoops(std::vector<PlanOp>* ops_ptr, PlanFunction* out) {
    std::vector<PlanOp>& ops = *ops_ptr;

    // Slots that start as an I64 constant and are never written (the
    // hoisted consts): the step-size check needs their values.
    std::vector<int32_t> writes(static_cast<size_t>(out->num_vars), 0);
    for (const PlanOp& op : ops) {
      if (op.dst >= 0 && static_cast<size_t>(op.dst) < writes.size()) {
        writes[static_cast<size_t>(op.dst)] += 1;
      }
    }
    auto known_i64 = [&](int32_t slot, int64_t* v) {
      if (slot < out->num_params || static_cast<size_t>(slot) >= writes.size()) return false;
      const Value& init = out->init_slots[static_cast<size_t>(slot)];
      if (writes[static_cast<size_t>(slot)] != 0 || init.tag != ValueTag::kI64) {
        return false;
      }
      *v = init.i;
      return true;
    };

    size_t h = 0;
    while (h + 3 < ops.size()) {
      size_t loop_end = 0;  // J (the back-edge jump), once a loop matches
      if (!MatchCountedLoop(ops, h, &loop_end)) {
        ++h;
        continue;
      }
      const size_t J = loop_end;
      std::string reject;
      std::vector<PlanOp> vec = LowerLoopBody(ops, h, J, out, known_i64, &reject);
      if (vec.empty()) {
        plan_->vec_loops_rejected_ += 1;
        if (plan_->vec_reject_reasons_.size() < 64) {
          plan_->vec_reject_reasons_.push_back(reject);
        }
        h = J + 1;
        continue;
      }

      // Splice [Begin, body..., End] in front of the scalar loop at h. Each
      // Begin gets the plan's next dense loop index: the executor finds the
      // loop's column state by it, with no lookup per strip.
      vec.front().field_index = static_cast<int32_t>(plan_->vec_loops_);
      const size_t K = vec.size();
      const int32_t E = ops[h + 1].target;  // loop exit (old index)
      std::vector<PlanOp> spliced;
      spliced.reserve(ops.size() + K);
      spliced.insert(spliced.end(), ops.begin(), ops.begin() + static_cast<long>(h));
      for (PlanOp& v : vec) {
        // Vec-op targets were emitted in "final index" space already except
        // for the symbolic markers below.
        spliced.push_back(v);
      }
      spliced.insert(spliced.end(), ops.begin() + static_cast<long>(h), ops.end());
      // Old indices >= h shift by K; vec ops' targets are patched here so
      // LowerLoopBody doesn't need to know the final layout.
      for (size_t m = 0; m < spliced.size(); ++m) {
        PlanOp& op = spliced[m];
        bool is_new_vec = m >= h && m < h + K;
        if (is_new_vec) {
          PlanOp& vop = op;
          if (vop.code == PlanOpCode::kVecLoopBegin) {
            vop.target = static_cast<int32_t>(E >= static_cast<int32_t>(h) ? E + K : E);
            vop.target2 = static_cast<int32_t>(h + K);
          } else if (vop.code == PlanOpCode::kVecLoopEnd) {
            vop.target = static_cast<int32_t>(h);  // back to Begin
          } else {
            vop.target2 = static_cast<int32_t>(h + K);  // bail target
          }
          continue;
        }
        if (op.target >= static_cast<int32_t>(h)) {
          op.target += static_cast<int32_t>(K);
        }
        if (op.target2 >= static_cast<int32_t>(h)) {
          op.target2 += static_cast<int32_t>(K);
        }
      }
      ops = std::move(spliced);
      plan_->vec_loops_ += 1;
      plan_->ops_vectorized_ += static_cast<int64_t>(J - h + 1);
      h = J + K + 1;  // continue after the (shifted) scalar loop
    }
  }

  // Matches the For() shape at `h` and verifies no control edge enters the
  // loop interior from outside. On success *J is the back-edge jump index.
  static bool MatchCountedLoop(const std::vector<PlanOp>& ops, size_t h, size_t* J) {
    const PlanOp& cmp = ops[h];
    if (cmp.code != PlanOpCode::kBinOp || cmp.binop != BinOpKind::kGe) return false;
    const PlanOp& br = ops[h + 1];
    if (br.code != PlanOpCode::kBranch || br.a != cmp.dst || br.target < 0) return false;
    const size_t E = static_cast<size_t>(br.target);
    if (E <= h + 1 || E > ops.size()) return false;
    const size_t j = E - 1;
    if (j <= h + 1 || j >= ops.size()) return false;
    const PlanOp& back = ops[j];
    if (back.code != PlanOpCode::kJump || back.target != static_cast<int32_t>(h)) return false;
    // No branch from anywhere may land strictly inside (h, j] except a
    // body-internal continue targeting the increment at j-1.
    for (size_t q = 0; q < ops.size(); ++q) {
      for (int32_t t : {ops[q].target, ops[q].target2}) {
        if (t <= static_cast<int32_t>(h) || t > static_cast<int32_t>(j)) continue;
        bool is_continue = t == static_cast<int32_t>(j - 1) && q > h + 1 && q < j - 1;
        bool is_exit_branch = q == h + 1;
        if (!is_continue && !is_exit_branch) return false;
      }
    }
    *J = j;
    return true;
  }

  // Qualifies the body of the loop [h, J] and lowers it to a vec block
  // [kVecLoopBegin, body..., kVecLoopEnd]. Returns an empty vector (and a
  // reason) when the loop must stay scalar. `known_i64` resolves slots
  // written by exactly one kConst.
  template <typename KnownI64>
  std::vector<PlanOp> LowerLoopBody(const std::vector<PlanOp>& ops, size_t h, size_t J,
                                    PlanFunction* out, const KnownI64& known_i64,
                                    std::string* reject) {
    const int32_t i_slot = ops[h].a;
    const int32_t limit_slot = ops[h].b;
    const int32_t done_slot = ops[h].dst;
    auto fail = [&](const std::string& why) {
      *reject = why;
      return std::vector<PlanOp>();
    };
    if (i_slot < 0 || limit_slot < 0 || done_slot < 0) return fail("malformed-head");
    if (done_slot == i_slot || done_slot == limit_slot) return fail("aliased-head-slots");

    // Increment must be i = i + 1 with a known-const step slot.
    const PlanOp& inc = ops[J - 1];
    if (inc.code != PlanOpCode::kBinOp || inc.binop != BinOpKind::kAdd || inc.dst != i_slot) {
      return fail("non-unit-step");
    }
    int64_t step = 0;
    int32_t step_slot = inc.a == i_slot ? inc.b : (inc.b == i_slot ? inc.a : -1);
    if (step_slot < 0 || !known_i64(step_slot, &step) || step != 1) {
      return fail("non-unit-step");
    }
    if (J < h + 3) return fail("empty-body");

    // Slots written anywhere in [h, J] (done, i, and body dsts).
    std::vector<char> written(static_cast<size_t>(out->num_vars), 0);
    std::vector<int32_t> body_writes(static_cast<size_t>(out->num_vars), 0);
    for (size_t p = h; p <= J; ++p) {
      int32_t d = ops[p].dst;
      if (d >= 0 && static_cast<size_t>(d) < written.size()) {
        written[static_cast<size_t>(d)] = 1;
        if (p >= h + 2 && p <= J - 2) {
          body_writes[static_cast<size_t>(d)] += 1;
        }
      }
    }
    if (written[static_cast<size_t>(limit_slot)] &&
        !(limit_slot == i_slot || limit_slot == done_slot)) {
      return fail("limit-written-in-loop");
    }
    if (body_writes[static_cast<size_t>(i_slot)] > 0) return fail("induction-written-in-body");

    const int32_t kIndCol = 0;
    int32_t ncols = 1;  // col 0 is the induction vector
    int32_t nscans = 0;
    std::vector<int32_t> col_of(static_cast<size_t>(out->num_vars), -1);
    std::vector<char> is_scan_slot(static_cast<size_t>(out->num_vars), 0);
    std::vector<std::pair<int32_t, int32_t>> col_wb;   // (slot, col)
    std::vector<std::pair<int32_t, int32_t>> scan_wb;  // (slot, scan idx)
    std::vector<int32_t> load_bases;
    // Element gathers at the induction index: (base slot, index into `body`).
    std::vector<std::pair<int32_t, size_t>> own_lane_gathers;
    std::vector<size_t> store_positions;  // indices into `body`
    std::vector<PlanOp> body;
    std::string why;

    // Resolve a read: mode 0 = column, mode 1 = loop-invariant slot.
    auto resolve = [&](int32_t s, int32_t* ref, int32_t* mode) {
      if (s < 0 || static_cast<size_t>(s) >= col_of.size()) return false;
      if (s == i_slot) {
        *ref = kIndCol;
        *mode = 0;
        return true;
      }
      if (col_of[static_cast<size_t>(s)] >= 0) {
        *ref = col_of[static_cast<size_t>(s)];
        *mode = 0;
        return true;
      }
      if (!written[static_cast<size_t>(s)]) {
        *ref = s;
        *mode = 1;
        return true;
      }
      return false;  // read of a body-defined slot before its definition
    };
    auto def_col = [&](int32_t slot, bool track_writeback) {
      int32_t c = ncols++;
      col_of[static_cast<size_t>(slot)] = c;
      if (track_writeback) col_wb.emplace_back(slot, c);
      return c;
    };

    for (size_t p = h + 2; p <= J - 2; ++p) {
      const PlanOp& s = ops[p];
      PlanOp v;
      v.kind = s.kind;
      v.float_kind = s.float_kind;
      switch (s.code) {
        case PlanOpCode::kBinOp: {
          bool carried = s.dst >= 0 && (s.a == s.dst || s.b == s.dst) && s.dst != i_slot &&
                         col_of[static_cast<size_t>(s.dst)] < 0;
          if (carried) {
            // Loop-carried reduction: single body write, operand is the
            // carried slot itself -> ordered kVecScan.
            if (body_writes[static_cast<size_t>(s.dst)] != 1) {
              return fail("carried-slot-multi-write");
            }
            int32_t other = s.a == s.dst ? s.b : s.a;
            int32_t oref = 0, omode = 0;
            if (!resolve(other, &oref, &omode)) return fail("carried-operand-unresolved");
            v.code = PlanOpCode::kVecScan;
            v.binop = s.binop;
            v.a = s.dst;                       // carried slot
            v.b = oref;
            v.d = omode;
            v.c = s.a == s.dst ? 0 : 1;        // carry on the left / right
            v.dst = def_col(s.dst, /*track_writeback=*/false);
            v.dst2 = nscans;
            scan_wb.emplace_back(s.dst, nscans);
            is_scan_slot[static_cast<size_t>(s.dst)] = 1;
            ++nscans;
            break;
          }
          if (s.dst < 0 || body_writes[static_cast<size_t>(s.dst)] != 1 || s.dst == i_slot ||
              is_scan_slot[static_cast<size_t>(s.dst)] != 0) {
            return fail("multi-write-slot");
          }
          int32_t aref = 0, amode = 0, bref = 0, bmode = 0;
          if (!resolve(s.a, &aref, &amode) || !resolve(s.b, &bref, &bmode)) {
            return fail("operand-unresolved");
          }
          v.code = PlanOpCode::kVecBinOp;
          v.binop = s.binop;
          v.a = aref;
          v.c = amode;
          v.b = bref;
          v.d = bmode;
          v.dst = def_col(s.dst, true);
          break;
        }
        case PlanOpCode::kConst: {
          if (s.dst < 0 || body_writes[static_cast<size_t>(s.dst)] != 1) {
            return fail("multi-write-slot");
          }
          if (s.imm_tag != ValueTag::kI64 && s.imm_tag != ValueTag::kF64) {
            return fail("non-numeric-const");
          }
          v.code = PlanOpCode::kVecUnOp;
          v.b = 1;  // broadcast
          v.c = 2;  // immediate
          v.imm_tag = s.imm_tag;
          v.imm = s.imm;
          v.fimm = s.fimm;
          v.dst = def_col(s.dst, true);
          break;
        }
        case PlanOpCode::kAssign:
        case PlanOpCode::kUnOp: {
          if (s.dst < 0 || body_writes[static_cast<size_t>(s.dst)] != 1) {
            return fail("multi-write-slot");
          }
          int32_t aref = 0, amode = 0;
          if (!resolve(s.a, &aref, &amode)) return fail("operand-unresolved");
          v.code = PlanOpCode::kVecUnOp;
          v.unop = s.unop;
          v.b = s.code == PlanOpCode::kAssign ? 1 : 0;
          v.a = aref;
          v.c = amode;
          v.dst = def_col(s.dst, true);
          break;
        }
        case PlanOpCode::kNativeArrayLength:
        case PlanOpCode::kNativeArrayLoad: {
          if (s.dst < 0 || body_writes[static_cast<size_t>(s.dst)] != 1) {
            return fail("multi-write-slot");
          }
          if (s.a < 0 || written[static_cast<size_t>(s.a)]) {
            return fail("gather-base-not-invariant");
          }
          v.code = PlanOpCode::kVecReadCol;
          v.a = s.a;
          if (s.code == PlanOpCode::kNativeArrayLength) {
            v.c = 1;  // length broadcast
          } else {
            int32_t iref = 0, imode = 0;
            if (!resolve(s.b, &iref, &imode)) return fail("gather-index-unresolved");
            v.b = iref;
            v.d = imode;
            v.c = 0;
            if (imode == 0 && iref == kIndCol) {
              own_lane_gathers.emplace_back(s.a, body.size());
            }
          }
          load_bases.push_back(s.a);
          v.dst = def_col(s.dst, true);
          break;
        }
        case PlanOpCode::kNativeArrayStore:
        case PlanOpCode::kNativeArrayStoreOwned: {
          if (s.a < 0 || written[static_cast<size_t>(s.a)]) {
            return fail("scatter-base-not-invariant");
          }
          int32_t iref = 0, imode = 0, vref = 0, vmode = 0;
          if (!resolve(s.b, &iref, &imode) || imode != 0) {
            return fail("scatter-index-not-column");
          }
          if (!resolve(s.c, &vref, &vmode)) return fail("scatter-value-unresolved");
          v.code = PlanOpCode::kVecWriteCol;
          v.a = s.a;
          v.b = iref;
          v.c = vref;
          v.d = vmode;
          v.imm = s.code == PlanOpCode::kNativeArrayStoreOwned ? 1 : 0;  // owned accumulator
          store_positions.push_back(body.size());
          break;
        }
        case PlanOpCode::kBranch: {
          // A continue-style branch targeting the increment is a filter:
          // lanes where the condition holds skip the rest of the body.
          if (s.target != static_cast<int32_t>(J - 1)) return fail("irreducible-branch");
          int32_t cref = 0, cmode = 0;
          if (!resolve(s.a, &cref, &cmode)) return fail("filter-cond-unresolved");
          v.code = PlanOpCode::kVecFilter;
          v.a = cref;
          v.c = cmode;
          v.b = 0;  // keep lanes where the condition is false (branch skips)
          break;
        }
        default:
          // Pointer-chasing / effectful op: symbolic-offset record reads,
          // calls, allocation, emits, aborts. The cost model
          // keeps this loop row-layout.
          return fail(std::string("row-op:") + PlanOpName(s.code));
      }
      body.push_back(v);
    }

    if (ncols <= 1 && nscans == 0 && store_positions.empty()) {
      return fail("no-vectorizable-work");
    }
    if (ncols > 128) return fail("too-many-columns");

    // Deferred scatters demand that no lane can observe this strip's stores:
    // every gathered base must be a provably different array. Statically
    // distinct slots get a runtime address guard; an identical slot is a
    // certain alias — except for an accumulate form's in-place update, a
    // single owned scatter a[i] = e whose base is gathered only as a[i]
    // before it: each lane then reads just its own element, before the
    // scalar loop would have overwritten it.
    if (!store_positions.empty() && !load_bases.empty()) {
      std::sort(load_bases.begin(), load_bases.end());
      load_bases.erase(std::unique(load_bases.begin(), load_bases.end()), load_bases.end());
      for (size_t sp : store_positions) {
        int32_t sbase = body[sp].a;
        const bool in_place = body[sp].imm == 1 && body[sp].b == kIndCol &&
                              store_positions.size() == 1 && InPlaceGathers(body, sbase, sp,
                                                                            own_lane_gathers);
        std::vector<int32_t> guards;
        for (int32_t lb : load_bases) {
          if (lb != sbase) {
            guards.push_back(lb);
          } else if (!in_place) {
            return fail("scatter-gather-alias");
          }
        }
        body[sp].args_off = static_cast<int32_t>(out->args_pool.size());
        body[sp].args_len = static_cast<int32_t>(guards.size());
        for (int32_t lb : guards) {
          out->args_pool.push_back(lb);
        }
      }
    }
    // With multiple scatters in one strip, commit order is (op, lane) while
    // scalar order is (lane, op); those agree only when no two scatters can
    // hit the same element from different lanes — guaranteed when every
    // index is the (all-distinct) induction vector.
    if (store_positions.size() > 1) {
      for (size_t sp : store_positions) {
        if (body[sp].b != kIndCol) return fail("multi-scatter-computed-index");
      }
    }

    // Assemble [Begin, body..., End]. Targets that depend on the final
    // layout (exit, bail) are patched by the caller.
    std::vector<PlanOp> vec;
    vec.reserve(body.size() + 2);
    PlanOp begin;
    begin.code = PlanOpCode::kVecLoopBegin;
    begin.a = i_slot;
    begin.b = limit_slot;
    begin.c = ncols;
    begin.d = done_slot;
    begin.dst = kIndCol;
    begin.imm = nscans;
    vec.push_back(begin);
    for (PlanOp& v : body) {
      vec.push_back(v);
    }
    PlanOp end;
    end.code = PlanOpCode::kVecLoopEnd;
    end.a = i_slot;
    end.dst = kIndCol;
    // A body slot is always written before the body reads it, so only a
    // read outside the loop can observe its exit value: the strip writes
    // back just those slots. (Operand and argument fields outside the loop
    // are all counted as reads, which over-approximates.)
    std::vector<char> read_outside(static_cast<size_t>(out->num_vars), 0);
    auto mark = [&read_outside](int32_t v) {
      if (v >= 0 && static_cast<size_t>(v) < read_outside.size()) {
        read_outside[static_cast<size_t>(v)] = 1;
      }
    };
    for (size_t p = 0; p < ops.size(); ++p) {
      if (p >= h && p <= J) {
        continue;
      }
      const PlanOp& o = ops[p];
      for (int32_t v : {o.a, o.b, o.c, o.d}) {
        mark(v);
      }
      for (int32_t j = 0; j < o.args_len; ++j) {
        mark(out->args_pool[static_cast<size_t>(o.args_off + j)]);
      }
    }
    std::erase_if(col_wb, [&read_outside](const std::pair<int32_t, int32_t>& wb) {
      return !read_outside[static_cast<size_t>(wb.first)];
    });
    end.args_off = static_cast<int32_t>(out->args_pool.size());
    out->args_pool.push_back(static_cast<int32_t>(col_wb.size()));
    for (const auto& wb : col_wb) {
      out->args_pool.push_back(wb.first);
      out->args_pool.push_back(wb.second);
    }
    out->args_pool.push_back(static_cast<int32_t>(scan_wb.size()));
    for (const auto& wb : scan_wb) {
      out->args_pool.push_back(wb.first);
      out->args_pool.push_back(wb.second);
    }
    end.args_len = static_cast<int32_t>(out->args_pool.size()) - end.args_off;
    vec.push_back(end);
    return vec;
  }

  // True when every read of `base` in the vec body is a length broadcast or
  // an element gather at the induction index placed before the scatter at
  // `store_at`.
  static bool InPlaceGathers(const std::vector<PlanOp>& body, int32_t base, size_t store_at,
                             const std::vector<std::pair<int32_t, size_t>>& own_lane_gathers) {
    for (size_t p = 0; p < body.size(); ++p) {
      const PlanOp& v = body[p];
      if (v.code != PlanOpCode::kVecReadCol || v.a != base || v.c == 1) {
        continue;
      }
      bool own_lane = false;
      for (const auto& [b, at] : own_lane_gathers) {
        own_lane = own_lane || (b == base && at == p);
      }
      if (!own_lane || p > store_at) {
        return false;
      }
    }
    return true;
  }

  static bool TryFuse(const PlanOp& x, const PlanOp& y, PlanOp* out) {
    if (x.code == PlanOpCode::kBinOp && y.code == PlanOpCode::kBranch) {
      *out = x;
      out->code = PlanOpCode::kBinOpBranch;
      out->c = y.a;
      out->target = y.target;
      return true;
    }
    if (x.code == PlanOpCode::kUnOp && x.unop == UnOpKind::kNot &&
        y.code == PlanOpCode::kBranch) {
      *out = x;
      out->code = PlanOpCode::kNotBranch;
      out->c = y.a;
      out->target = y.target;
      return true;
    }
    // A conditional branch that falls through into a jump takes both edges
    // in one dispatch (the shape jump threading leaves behind loop tails).
    if (y.code == PlanOpCode::kJump &&
        (x.code == PlanOpCode::kBranch || x.code == PlanOpCode::kBinOpRunBranch)) {
      *out = x;
      out->code = x.code == PlanOpCode::kBranch ? PlanOpCode::kBranchElse
                                                : PlanOpCode::kBinOpRunBranchElse;
      out->target2 = y.target;
      return true;
    }
    if (x.code == PlanOpCode::kBinOpRun && y.code == PlanOpCode::kBranch) {
      *out = x;
      out->code = PlanOpCode::kBinOpRunBranch;
      out->c = y.a;
      out->target = y.target;
      return true;
    }
    if (x.code == PlanOpCode::kBinOp && y.code == PlanOpCode::kBinOp) {
      // Both results are still stored, and the second binop reads its
      // operands from the slots after the first one's store, so dependent
      // and independent pairs alike behave exactly as when unfused. The
      // second kind rides in `imm`, which kBinOp never uses.
      *out = x;
      out->code = PlanOpCode::kBinOpBin;
      out->imm = static_cast<int64_t>(y.binop);
      out->c = y.a;
      out->d = y.b;
      out->dst2 = y.dst;
      return true;
    }
    if (x.code == PlanOpCode::kReadNativeConst && y.code == PlanOpCode::kBinOp &&
        y.dst != x.dst) {
      // The binop may read the loaded value (y.a/y.b == x.dst is fine: the
      // load's slot is written first), but must not overwrite it before the
      // operands are read — excluded by y.dst != x.dst above for the only
      // aliasing that matters.
      *out = x;
      out->code = PlanOpCode::kReadConstBin;
      out->binop = y.binop;
      out->b = y.a;
      out->c = y.b;
      out->dst2 = y.dst;
      return true;
    }
    return false;
  }

  void LowerStatement(const Statement& s, PlanFunction* out, std::vector<PlanOp>* ops) {
    PlanOp op;
    op.dst = s.dst;
    op.a = s.a;
    op.b = s.b;
    op.c = s.c;
    op.klass = s.klass;
    op.binop = s.binop;
    op.unop = s.unop;
    op.abort_reason = s.abort_reason;
    switch (s.op) {
      case Op::kLabel:
      case Op::kMonitorEnter:
      case Op::kMonitorExit:
        return;  // no-ops carry no runtime behavior: emit nothing
      case Op::kConst:
        op.code = PlanOpCode::kConst;
        op.imm_tag = s.imm.tag;
        op.imm = s.imm.i;
        op.fimm = s.imm.d;
        break;
      case Op::kAssign:
        op.code = PlanOpCode::kAssign;
        break;
      case Op::kBinOp:
        op.code = PlanOpCode::kBinOp;
        break;
      case Op::kUnOp:
        op.code = PlanOpCode::kUnOp;
        break;
      case Op::kDeserialize:
      case Op::kSerialize:
      case Op::kFieldLoad:
      case Op::kFieldStore:
      case Op::kArrayLoad:
      case Op::kArrayStore:
      case Op::kArrayLength:
      case Op::kNewObject:
      case Op::kNewArray:
        // Heap-object ops run on the interpreter only: one that can execute
        // leaves the whole program without a plan.
        heap_op_ = true;
        return;
      case Op::kCall:
        op.code = PlanOpCode::kCall;
        op.callee = s.func;
        op.args_off = static_cast<int32_t>(out->args_pool.size());
        op.args_len = static_cast<int32_t>(s.args.size());
        for (int arg : s.args) {
          out->args_pool.push_back(arg);
        }
        break;
      case Op::kCallNative:
        op.code = PlanOpCode::kIntrinsic;
        op.intrinsic = ResolveIntrinsic(s.native_name);
        op.args_off = static_cast<int32_t>(out->args_pool.size());
        op.args_len = static_cast<int32_t>(s.args.size());
        for (int arg : s.args) {
          out->args_pool.push_back(arg);
        }
        break;
      case Op::kBranch:
        op.code = PlanOpCode::kBranch;
        op.target = s.label;  // label id until the patch pass
        break;
      case Op::kJump:
        op.code = PlanOpCode::kJump;
        op.target = s.label;
        break;
      case Op::kReturn:
        op.code = PlanOpCode::kReturn;
        break;
      case Op::kGetAddress:
        op.code = PlanOpCode::kGetAddress;
        break;
      case Op::kGWriteObject:
        op.code = PlanOpCode::kGWriteObject;
        break;
      case Op::kReadNative:
        op.kind = s.elem_kind;
        op.field_index = s.field_index;
        op.code = LowerOffset(s, &op) ? PlanOpCode::kReadNativeConst
                                      : PlanOpCode::kReadNativeSym;
        break;
      case Op::kWriteNative:
        op.code = PlanOpCode::kWriteNative;
        op.kind = s.elem_kind;
        op.field_index = s.field_index;
        break;
      case Op::kAddrOfField:
        op.field_index = s.field_index;
        op.code = LowerOffset(s, &op) ? PlanOpCode::kAddrOfFieldConst
                                      : PlanOpCode::kAddrOfFieldSym;
        break;
      case Op::kNativeArrayLength:
        op.code = PlanOpCode::kNativeArrayLength;
        break;
      case Op::kNativeArrayLoad:
        op.code = PlanOpCode::kNativeArrayLoad;
        op.kind = s.elem_kind;
        break;
      case Op::kNativeArrayStore:
        op.code = PlanOpCode::kNativeArrayStore;
        op.kind = s.elem_kind;
        break;
      case Op::kNativeArrayElemAddr:
        op.code = PlanOpCode::kNativeArrayElemAddr;
        break;
      case Op::kAppendRecord:
        op.code = PlanOpCode::kAppendRecord;
        break;
      case Op::kAppendArray:
        op.code = PlanOpCode::kAppendArray;
        break;
      case Op::kAttachField:
        op.code = PlanOpCode::kAttachField;
        op.field_index = s.field_index;
        break;
      case Op::kAttachElement:
        op.code = PlanOpCode::kAttachElement;
        break;
      case Op::kAbort:
        op.code = PlanOpCode::kAbort;
        break;
      case Op::kWriteOwned:
        op.code = PlanOpCode::kWriteOwned;
        op.kind = s.elem_kind;
        if (LowerOffset(s, &op)) {
          op.expr_id = -1;  // constant offset: the handler reads imm
        }
        break;
      case Op::kNativeArrayStoreOwned:
        op.code = PlanOpCode::kNativeArrayStoreOwned;
        op.kind = s.elem_kind;
        break;
      case Op::kFoldSlot:
        op.code = PlanOpCode::kFoldSlot;
        op.imm = s.imm.i;
        break;
    }
    op.float_kind = op.kind == FieldKind::kF32 || op.kind == FieldKind::kF64;
    ops->push_back(op);
  }

  const SerProgram& program_;
  const ExprPool& pool_;
  SerPlan* plan_;
  PlanOptions options_;
  Flattener flattener_;
  std::unordered_map<int, std::pair<int32_t, int32_t>> flat_cache_;
  bool heap_op_ = false;
};

std::shared_ptr<const SerPlan> CompilePlan(const SerProgram& program,
                                           const DataStructAnalyzer& layouts,
                                           const PlanOptions& options) {
  auto plan = std::make_shared<SerPlan>();
  PlanBuilder builder(program, layouts, plan.get(), options);
  return builder.Build() ? plan : nullptr;
}

const char* PlanOpName(PlanOpCode code) {
  switch (code) {
    case PlanOpCode::kConst: return "const";
    case PlanOpCode::kAssign: return "assign";
    case PlanOpCode::kBinOp: return "binop";
    case PlanOpCode::kUnOp: return "unop";
    case PlanOpCode::kCall: return "call";
    case PlanOpCode::kIntrinsic: return "intrinsic";
    case PlanOpCode::kBranch: return "branch";
    case PlanOpCode::kJump: return "jump";
    case PlanOpCode::kReturn: return "return";
    case PlanOpCode::kReturnVoid: return "returnvoid";
    case PlanOpCode::kGetAddress: return "getaddress";
    case PlanOpCode::kGWriteObject: return "gwriteobject";
    case PlanOpCode::kReadNativeConst: return "readnative.const";
    case PlanOpCode::kReadNativeSym: return "readnative.sym";
    case PlanOpCode::kWriteNative: return "writenative";
    case PlanOpCode::kAddrOfFieldConst: return "addroffield.const";
    case PlanOpCode::kAddrOfFieldSym: return "addroffield.sym";
    case PlanOpCode::kNativeArrayLength: return "narraylength";
    case PlanOpCode::kNativeArrayLoad: return "narrayload";
    case PlanOpCode::kNativeArrayStore: return "narraystore";
    case PlanOpCode::kNativeArrayElemAddr: return "narrayelemaddr";
    case PlanOpCode::kAppendRecord: return "appendrecord";
    case PlanOpCode::kAppendArray: return "appendarray";
    case PlanOpCode::kAttachField: return "attachfield";
    case PlanOpCode::kAttachElement: return "attachelement";
    case PlanOpCode::kAbort: return "abort";
    case PlanOpCode::kWriteOwned: return "writeowned";
    case PlanOpCode::kNativeArrayStoreOwned: return "narraystoreowned";
    case PlanOpCode::kFoldSlot: return "foldslot";
    case PlanOpCode::kBinOpBranch: return "binop+branch";
    case PlanOpCode::kNotBranch: return "not+branch";
    case PlanOpCode::kReadConstBin: return "read.const+binop";
    case PlanOpCode::kBinOpBin: return "binop+binop";
    case PlanOpCode::kBinOpRun: return "binop.run";
    case PlanOpCode::kBinOpRunBranch: return "binop.run+branch";
    case PlanOpCode::kBranchElse: return "branch+else";
    case PlanOpCode::kBinOpRunBranchElse: return "binop.run+branch+else";
    case PlanOpCode::kVecLoopBegin: return "vec.loop.begin";
    case PlanOpCode::kVecBinOp: return "vec.binop";
    case PlanOpCode::kVecUnOp: return "vec.unop";
    case PlanOpCode::kVecScan: return "vec.scan";
    case PlanOpCode::kVecReadCol: return "vec.readcol";
    case PlanOpCode::kVecWriteCol: return "vec.writecol";
    case PlanOpCode::kVecFilter: return "vec.filter";
    case PlanOpCode::kVecLoopEnd: return "vec.loop.end";
    case PlanOpCode::kCount: break;
  }
  return "?";
}

}  // namespace gerenuk
