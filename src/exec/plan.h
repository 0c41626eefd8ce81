// Flat direct-threaded execution plans for transformed SERs.
//
// The tree-walking Interpreter pays per statement for what the plan compiler
// pays once per stage: label lookups, klass->field() indirection, SizeExpr
// resolution for offsets that are really constants, and the branchy Op
// switch over 40-byte Statement structs holding vectors and strings. A
// SerPlan lowers every function of a transformed SerProgram into a
// contiguous array of fixed-size PlanOps with
//   * branch targets resolved to op indices (kLabel/kMonitor* disappear),
//   * field offsets and kinds pre-bound into the op,
//   * constant-foldable offset expressions folded to immediates (symbolic
//     ones flattened into an iterative per-plan FlatStep run),
//   * fused superinstructions for the dominant shapes (compare+branch,
//     not+branch filters, const-read+binop, binop runs, branch+else).
// The ISA is native-only: it has no heap-object op. The statement the
// transformer keeps behind each Case-7 abort is unreachable and is not
// lowered; a program with any other heap-object op (say, a control-path
// object of an unregistered klass) gets no plan, and MakeFastRunner runs it
// on the Interpreter instead.
// The PlanExecutor runs plans with computed-goto dispatch (GCC/Clang; a
// plain switch elsewhere) and batches the record channel: input addresses
// are prefetched in runs and emits are buffered, amortizing the per-record
// std::function hops.
//
// Semantics are bit-for-bit those of the Interpreter — including the
// dynamic float/int binop rule, builder-vs-committed address dispatch, and
// SerAbort on committed-record writes — so the interpreter stays the
// reference implementation and the abort/slow-path machinery is untouched
// (tests/plan_test.cc holds the differential proof).
#ifndef SRC_EXEC_PLAN_H_
#define SRC_EXEC_PLAN_H_

#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/exec/interpreter.h"
#include "src/support/metrics.h"

namespace gerenuk {

enum class PlanOpCode : uint8_t {
  kConst,
  kAssign,
  kBinOp,
  kUnOp,
  kCall,
  kIntrinsic,
  kBranch,
  kJump,
  kReturn,
  kReturnVoid,  // synthetic fall-off-the-end return
  kGetAddress,
  kGWriteObject,
  kReadNativeConst,  // offset folded to an immediate at compile time
  kReadNativeSym,    // genuinely symbolic offset (FlatStep run)
  kWriteNative,
  kAddrOfFieldConst,
  kAddrOfFieldSym,
  kNativeArrayLength,
  kNativeArrayLoad,
  kNativeArrayStore,
  kNativeArrayElemAddr,
  kAppendRecord,
  kAppendArray,
  kAttachField,
  kAttachElement,
  kAbort,
  kWriteOwned,             // owned-accumulator field write; expr_id < 0 => imm offset
  kNativeArrayStoreOwned,  // owned-accumulator primitive array element write
  kFoldSlot,               // dst = channel fold slot (mode in imm; dst < 0 => none)
  // --- fused superinstructions (intermediate dsts are still written, so
  // fusion is invisible to any later reader of those slots) ---
  kBinOpBranch,   // dst = a <binop> b; if (slots[c]) goto target
  kNotBranch,     // dst = !a;          if (slots[c]) goto target
  kReadConstBin,  // dst = readNative(a, imm); dst2 = b <binop> c
  kBinOpBin,      // dst = a <binop> b; dst2 = c <binop2:imm> d — the second
                  // binop reads slots after the first one's store, so a
                  // dependent pair behaves exactly as when unfused
  kBinOpRun,      // {kind, a, b, dst} x (args_len/4) binops from args_pool,
                  // executed in order against the slots — an arithmetic
                  // chain costs one dispatch instead of one per binop. An
                  // entry with kind < 0 is an int32 immediate: dst = I64(a).
  kBinOpRunBranch,  // kBinOpRun then: if (slots[c]) goto target
  // A conditional branch whose fall-through was itself a jump: both edges
  // resolved in one dispatch (if (slots[cond]) goto target else target2).
  kBranchElse,         // cond is a
  kBinOpRunBranchElse, // the run first; cond is c
  // --- vectorized batch tier (see DESIGN.md §13) ---------------------------
  // A qualifying counted loop is strip-mined: the vec block runs strips of
  // `vector_batch_size` iterations over per-loop column vectors; the original
  // scalar loop is kept immediately after the block as both the vectorize-off
  // path and the bail target. All observable side effects of a strip (slot
  // writebacks, native-array scatters) are deferred to kVecLoopEnd, so a bail
  // mid-strip hands off to the scalar loop with pristine strip-start state —
  // aborts and faults then fire at exactly the iteration, and with exactly
  // the lane-major ordering, the interpreter would produce.
  //
  // Operand encoding shared by the vec body ops: a ref/mode pair selects a
  // column (mode 0: ref is a column id), a loop-invariant slot (mode 1: ref
  // is a slot id), or the op's immediate payload (mode 2, kVecUnOp only).
  kVecLoopBegin,  // a=induction slot, b=limit slot, c=#columns, d=done slot;
                  // dst=induction column; target=loop exit, target2=scalar
                  // loop head (bail); imm=#scan ops; field_index=the loop's
                  // dense index in its plan. Computes n=min(batch,
                  // limit-i); n<=0 writes done=true and jumps to target.
  kVecBinOp,      // dst col = <binop>(a/c ref/mode, b/d ref/mode) per lane
  kVecUnOp,       // dst col = <unop>(a/c) per lane; b==1 => plain copy or
                  // broadcast (imm_tag/imm/fimm when c==2)
  kVecScan,       // serial loop-carried reduction, bit-exact order: carried
                  // slot a, operand b/d, direction c (0: carry<op>x, 1:
                  // x<op>carry); dst col holds the running value per lane,
                  // dst2 is the scan's writeback index
  kVecReadCol,    // gather: base slot a (invariant), index b/d, element
                  // `kind`; c==1 => native array length broadcast instead
  kVecWriteCol,   // deferred scatter: base slot a, index column b, value c/d,
                  // element `kind`; args = alias-guard slots (bases this
                  // loop reads — equal address at runtime bails to scalar);
                  // imm == 1: a is an owned committed array (accumulate form)
  kVecFilter,     // shrink the selection vector: cond a/c, keep lanes where
                  // AsBool(cond) == b
  kVecLoopEnd,    // commit the strip: apply pending scatters, write back
                  // columns/scan carries per args = [ncol,(slot,col)...,
                  // nscan,(slot,idx)...], advance induction slot a (col dst),
                  // jump target back to kVecLoopBegin
  kCount,
};

inline bool IsVecOp(PlanOpCode c) {
  return c >= PlanOpCode::kVecLoopBegin && c <= PlanOpCode::kVecLoopEnd;
}

const char* PlanOpName(PlanOpCode code);

// OpProfile's fixed-size arrays index by opcode; growing the ISA past the
// profile's capacity must bump OpProfile::kMaxOps, not silently truncate.
static_assert(static_cast<size_t>(PlanOpCode::kCount) <= OpProfile::kMaxOps,
              "PlanOpCode outgrew OpProfile::kMaxOps; bump it in metrics.h");

// kCallNative symbols resolved at compile time (the interpreter string-
// compares per execution). kUnknown lowers names without a runtime
// implementation; executing one is fatal, exactly like the interpreter.
enum class Intrinsic : uint8_t {
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kStringLength,
  kStringHash,
  kStringEquals,
  kStringCompare,
  kUnknown,
};

// One lowered op. Fixed size, no heap-owning members: the whole plan is a
// few contiguous arrays, and dispatch touches exactly one cache line per op.
struct PlanOp {
  PlanOpCode code = PlanOpCode::kReturnVoid;
  BinOpKind binop = BinOpKind::kAdd;
  UnOpKind unop = UnOpKind::kNeg;
  FieldKind kind = FieldKind::kI32;   // field/element kind for data ops
  bool float_kind = false;            // kind is kF32/kF64 (precomputed)
  ValueTag imm_tag = ValueTag::kNone; // kConst payload tag
  AbortReason abort_reason = AbortReason::kLoadAndEscape;
  Intrinsic intrinsic = Intrinsic::kUnknown;
  int32_t dst = -1;
  int32_t a = -1;
  int32_t b = -1;
  int32_t c = -1;
  int32_t d = -1;          // kBinOpBin second binop's rhs
  int32_t dst2 = -1;       // kReadConstBin/kBinOpBin second destination
  int32_t target = -1;     // branch/jump destination op index
  int32_t target2 = -1;    // kBranchElse et al: fall-through jump destination
  int32_t args_off = 0;    // kCall/kIntrinsic: run in PlanFunction::args_pool
  int32_t args_len = 0;
  int32_t callee = -1;     // kCall: plan-local function index
  int32_t field_index = -1;  // builder-side field ops
  int32_t flat_off = -1;   // symbolic offset: FlatStep run in the plan
  int32_t flat_len = 0;    // 0 with flat_off<0 => fall back to ResolveOffset
  int32_t expr_id = -1;    // pool id kept for the ResolveOffset fallback
  int64_t imm = 0;         // folded offset / kConst integer payload
  double fimm = 0.0;       // kConst float payload
  const Klass* klass = nullptr;
};

// A symbolic offset flattened post-order: step i's value may feed later
// steps' length reads; the run's last step is the offset. Evaluated
// iteratively into a small stack buffer — no recursion, no std::function.
// Runs longer than kMaxFlatSteps keep the recursive ResolveOffset fallback.
inline constexpr size_t kMaxFlatSteps = 16;
struct FlatStep {
  int64_t constant = 0;
  int32_t first_term = 0;  // into SerPlan::flat_terms
  int32_t num_terms = 0;
};
struct FlatTerm {
  int64_t scale = 0;
  int32_t step = 0;  // run-local index of the step locating the i32 length
};

class SerPlan;

struct PlanFunction {
  const Function* src = nullptr;
  const SerPlan* plan = nullptr;  // back-pointer (set after all lowering)
  int num_params = 0;
  int num_vars = 0;
  // A fresh frame's slots: None, except each slot whose only writer was a
  // constant — the compiler drops those ops and the frame starts with
  // their values.
  std::vector<Value> init_slots;
  std::vector<PlanOp> ops;
  std::vector<int32_t> args_pool;  // call/intrinsic argument variable ids
};

// The compiled, immutable form of one transformed SerProgram. Shared
// read-only across workers (each worker owns its own PlanExecutor).
class SerPlan {
 public:
  const PlanFunction* Lookup(const Function* fn) const {
    auto it = by_fn_.find(fn);
    return it == by_fn_.end() ? nullptr : &funcs_[it->second];
  }
  const PlanFunction* entry() const { return entry_; }
  const std::vector<PlanFunction>& funcs() const { return funcs_; }
  const std::vector<FlatStep>& flat_steps() const { return flat_steps_; }
  const std::vector<FlatTerm>& flat_terms() const { return flat_terms_; }

  // Compile statistics (BENCH_plans.json's op mix).
  const int64_t* op_counts() const { return op_counts_; }
  int64_t ops_total() const { return ops_total_; }
  int64_t ops_fused() const { return ops_fused_; }
  int64_t ops_copies_elided() const { return ops_copies_elided_; }
  int64_t offsets_folded() const { return offsets_folded_; }
  int64_t offsets_symbolic() const { return offsets_symbolic_; }
  // Fused-run shape (kBinOpRun collapse): how many runs and how long.
  int64_t run_count() const { return run_count_; }
  int64_t run_len_sum() const { return run_len_sum_; }
  int64_t run_len_max() const { return run_len_max_; }

  // Vectorization outcome: counted loops strip-mined into the vec tier, the
  // scalar body ops those loops cover, loops examined but kept scalar (and
  // why), and the layout the cost model chose for this SER — "columnar"
  // when at least one loop vectorized, "row" otherwise.
  int64_t vec_loops() const { return vec_loops_; }
  int64_t vec_loops_rejected() const { return vec_loops_rejected_; }
  int64_t ops_vectorized() const { return ops_vectorized_; }
  int32_t vector_batch_size() const { return vector_batch_size_; }
  int64_t vec_bail_after_strips() const { return vec_bail_after_strips_; }
  const char* layout() const { return vec_loops_ > 0 ? "columnar" : "row"; }
  const std::vector<std::string>& vec_reject_reasons() const { return vec_reject_reasons_; }

 private:
  friend class PlanBuilder;  // the compiler (plan_compiler.cc) fills these in

  std::vector<PlanFunction> funcs_;
  std::unordered_map<const Function*, size_t> by_fn_;
  const PlanFunction* entry_ = nullptr;
  std::vector<FlatStep> flat_steps_;
  std::vector<FlatTerm> flat_terms_;
  int64_t op_counts_[static_cast<size_t>(PlanOpCode::kCount)] = {};
  int64_t ops_total_ = 0;
  int64_t ops_fused_ = 0;
  int64_t ops_copies_elided_ = 0;
  int64_t offsets_folded_ = 0;
  int64_t offsets_symbolic_ = 0;
  int64_t run_count_ = 0;
  int64_t run_len_sum_ = 0;
  int64_t run_len_max_ = 0;
  int64_t vec_loops_ = 0;
  int64_t vec_loops_rejected_ = 0;
  int64_t ops_vectorized_ = 0;
  int32_t vector_batch_size_ = 0;
  int64_t vec_bail_after_strips_ = -1;
  std::vector<std::string> vec_reject_reasons_;
};

// Compile-time knobs for the vectorization tier. The vec config is part of
// the plan's identity: engines fold it into ProgramSignature so a cache hit
// can never hand a scalar-compiled plan to a vectorized config (plan_cache.h).
struct PlanOptions {
  bool vectorize = true;        // run the loop vectorizer pass
  int32_t vector_batch_size = 256;  // lanes per strip (column vector length)
  // Test-only: force the Nth kVecLoopBegin of every loop entry to bail to
  // the scalar loop, exercising the mid-loop handoff. -1 = never.
  int64_t vec_bail_after_strips = -1;
};

// Lowers every function of `program` (a *transformed* SerProgram; labels
// must be resolved). Returns null when a reachable statement is a
// heap-object op: such a program runs on the Interpreter. `layouts` supplies the ExprPool for offset folding and
// flattening — run ExprPool::FoldConstants() first for best results.
std::shared_ptr<const SerPlan> CompilePlan(const SerProgram& program,
                                           const DataStructAnalyzer& layouts,
                                           const PlanOptions& options = PlanOptions());

// Direct-threaded executor over one or more SerPlans. Functions are looked
// up across every registered plan, so a stage plan and its key/reduce
// function plans execute through one runner (sharing the builder store).
class PlanExecutor : public RootProvider, public SerRunner {
 public:
  PlanExecutor(const SerPlan& plan, Heap& heap, const WellKnown& wk,
               const DataStructAnalyzer* layouts, BuilderStore* builders);
  ~PlanExecutor() override;

  // Registers an additional plan's functions (key extraction, reduce folds).
  void AddPlan(const SerPlan& plan);

  void set_channel(RecordChannel* channel) override;

  using SerRunner::CallFunction;
  Value CallFunction(const Function* func, const Value* args, size_t nargs) override;

  int64_t ReadStringBytes(Value v, std::string* out) override;

  // Plan ops dispatched since construction (the dispatch microbenchmark's
  // denominator; fused ops count once).
  int64_t statements_executed() const override { return ops_executed_; }

  // Sampled plan-op profiler. When enabled, every dispatch bumps the
  // opcode's exact count and every `stride`-th dispatch takes one clock
  // read, attributing the elapsed nanos since the previous sample to the
  // opcode observed there. The profiled and unprofiled dispatch loops are
  // separate template instantiations, so the unprofiled loop carries zero
  // extra instructions (the tracing-off overhead budget is "none", not
  // "one branch per op"). A null profile or non-positive stride disables.
  void EnableProfiling(OpProfile* profile, int64_t stride) {
    profile_ = (stride > 0) ? profile : nullptr;
    profile_stride_ = stride;
    profile_countdown_ = stride;
    profile_prev_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
  }

  // Delivers buffered emits to the channel's batch sink. Must run before
  // any builder reset; SerExecutor calls it at batch boundaries and after
  // the record loop. No-op when nothing is buffered.
  void FlushEmits();

  // RootProvider: every kRef slot of every active frame.
  void VisitRoots(const std::function<void(ObjRef*)>& visit) override;

 private:
  struct Frame {
    const PlanFunction* func = nullptr;
    std::vector<Value> slots;
  };

  // Per-loop columnar scratch. Columns are 64-byte-aligned 8-byte lanes
  // (int64 bits; doubles live in the same buffer via their bit pattern, the
  // per-column tag says which view is live). One VecState per kVecLoopBegin
  // op, lazily built and cached for the executor's lifetime — loop bodies
  // contain no calls, so a loop can never have two live strips at once.
  struct VecState {
    int32_t ncols = 0;
    int32_t cap = 0;  // vector_batch_size lanes per column
    std::vector<int64_t> storage;  // ncols+2 columns (2 operand scratch)
    std::vector<int64_t*> col;     // aligned pointers into storage
    std::vector<ValueTag> col_tag;
    std::vector<int32_t> col_last;  // last lane that wrote the col this strip
    std::vector<int32_t> sel;       // dense selection vector (lane indices)
    int32_t sel_len = 0;
    bool sel_dense = true;  // sel is the identity [0, n)
    int64_t base = 0;       // induction value at strip start
    int32_t n = 0;          // lanes in this strip
    int64_t strips_done = 0;  // for the vec_bail_after_strips test knob
    std::vector<Value> scan_carry;
    std::vector<uint8_t> scan_valid;
    struct Pending {  // deferred scatter: op + the selection it ran under
      const PlanOp* op = nullptr;
      int32_t count = 0;  // -1 = dense [0, n)
      std::vector<int32_t> lanes;
    };
    std::vector<Pending> pending;
    size_t pending_count = 0;  // live prefix of `pending` (entries reused)
  };

  static constexpr size_t kInputBatch = 256;
  static constexpr size_t kEmitBatch = 128;

  Frame* AcquireFrame(const PlanFunction* func);
  void ReleaseFrame();
  Value Invoke(const PlanFunction& func, const Value* args, size_t nargs);
  template <bool kProfiled>
  Value Execute(Frame& frame);
  Value RunIntrinsic(const PlanOp& op, const Value* slots, const int32_t* args_pool);
  void RefillInput();

  // Vectorized-tier lane kernels (plan.cc). Those returning bool report
  // "false = bail": a hazard was detected before any observable side effect,
  // and the dispatch loop jumps to the scalar loop head to replay the strip
  // lane by lane.
  // The column states of `plan`'s vec loops, indexed by kVecLoopBegin's
  // field_index (entries built lazily by VecStateFor).
  std::unique_ptr<VecState>* VecStatesOf(const SerPlan& plan);
  static VecState* VecStateFor(std::unique_ptr<VecState>& slot, int32_t cap, int32_t ncols,
                               int32_t nscans);
  static bool LanesInBounds(const VecState& st, const int64_t* idxc, int32_t col, int64_t uidx,
                            int64_t len);
  static bool VecBinOpLanes(VecState& st, const PlanOp& op, const Value* slots);
  static bool VecUnOpLanes(VecState& st, const PlanOp& op, const Value* slots);
  static bool VecScanLanes(VecState& st, const PlanOp& op, const Value* slots);
  bool VecReadColLanes(VecState& st, const PlanOp& op, const Value* slots);
  bool VecWriteColPrepare(VecState& st, const PlanOp& op, const Value* slots,
                          const int32_t* args_pool);
  static void VecFilterLanes(VecState& st, const PlanOp& op, const Value* slots);
  void VecCommitStrip(VecState& st, const PlanOp& end_op, Value* slots,
                      const int32_t* args_pool);

  // Profiler hot-path hook: exact dispatch count, then a countdown to the
  // next timing sample. Only the kProfiled=true Execute instantiation
  // references it.
  void ProfileOp(size_t code) {
    profile_->dispatches[code] += 1;
    if (--profile_countdown_ <= 0) {
      ProfileSample(code);
    }
  }
  void ProfileSample(size_t code);

  const SerPlan& primary_;
  Heap& heap_;
  const WellKnown& wk_;
  const DataStructAnalyzer* layouts_;
  BuilderStore* builders_;
  RecordChannel* channel_ = nullptr;
  std::unordered_map<const Function*, const PlanFunction*> fn_index_;
  // One-entry lookup cache: record loops call the same body repeatedly.
  const Function* last_fn_ = nullptr;
  const PlanFunction* last_pf_ = nullptr;
  std::vector<std::unique_ptr<Frame>> frame_pool_;  // [0, active) live
  size_t active_frames_ = 0;
  // Vectorized-loop scratch, one table per plan that ran a vec loop (a
  // runner holds one to three plans). `vec_cur_` is the state of the strip
  // currently executing (set by Begin, read by the body ops — valid because
  // vec bodies contain no calls).
  std::vector<std::pair<const SerPlan*, std::vector<std::unique_ptr<VecState>>>> vec_states_;
  VecState* vec_cur_ = nullptr;
  int64_t ops_executed_ = 0;
  // Sampled profiler state (see EnableProfiling). Null profile = off; the
  // dispatch loop then runs the unprofiled instantiation.
  OpProfile* profile_ = nullptr;
  int64_t profile_stride_ = 0;
  int64_t profile_countdown_ = 0;
  int64_t profile_prev_ns_ = 0;
  // Batched channel state.
  int64_t input_buf_[kInputBatch];
  size_t input_pos_ = 0;
  size_t input_len_ = 0;
  std::vector<EmittedRecord> emit_buf_;
};

// Fast-path runner factory: a PlanExecutor over `plan` plus `extra_plans`
// (the functions the body calls by name) when every one of them is non-null,
// else the reference Interpreter over `program`. A plan is null when the
// plan compiler is off or CompilePlan found a reachable heap-object op.
std::unique_ptr<SerRunner> MakeFastRunner(const SerPlan* plan, const SerProgram& program,
                                          Heap& heap, const WellKnown& wk,
                                          const DataStructAnalyzer* layouts,
                                          BuilderStore* builders,
                                          const std::vector<const SerPlan*>& extra_plans = {});

}  // namespace gerenuk

#endif  // SRC_EXEC_PLAN_H_
