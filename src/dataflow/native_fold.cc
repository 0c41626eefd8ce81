#include "src/dataflow/native_fold.h"

#include <cstring>

namespace gerenuk {

void NativeFolder::Fold(FoldAcc* acc, int64_t rec) {
  const Value args[2] = {Value::Addr(acc->addr), Value::Addr(rec)};
  const int64_t result = runner_.CallFunction(fn_, args, 2).i;
  if (result == acc->addr) {
    builders_.Clear();
    return;  // fn returned its accumulator untouched
  }
  body_.Clear();
  builders_.RenderBody(result, klass_, body_);
  builders_.Clear();
  const uint32_t size = static_cast<uint32_t>(body_.size());
  if (acc->owned && size == acc->size) {
    std::memcpy(reinterpret_cast<uint8_t*>(acc->addr), body_.data(), size);
    return;
  }
  acc->addr = scratch_->AppendRecord(body_.data(), size);
  acc->size = size;
  acc->owned = true;
}

KeyedNativeFold::KeyedNativeFold(SerRunner& runner, BuilderStore& builders,
                                 const Function* key_fn, bool key_is_string, const Function* fn,
                                 const Klass* klass, MemoryTracker* tracker)
    : runner_(runner),
      key_fn_(key_fn),
      key_is_string_(key_is_string),
      tracker_(tracker),
      scratch_(tracker),
      folder_(runner, builders, fn, klass, &scratch_) {}

void KeyedNativeFold::Add(int64_t addr, uint32_t size) {
  if (EvalShuffleKeyInto(runner_, key_fn_, Value::Addr(addr), key_is_string_, &key_)) {
    key_allocs_saved_ += 1;
  }
  auto [it, inserted] = index_.try_emplace(key_, accs_.size());
  if (inserted) {
    accs_.push_back(FoldAcc{addr, size, false});
    return;
  }
  FoldAcc& acc = accs_[it->second];
  const int64_t before = acc.owned ? 4 + int64_t{acc.size} : 0;
  folder_.Fold(&acc, addr);
  folds_ += 1;
  owned_bytes_ += (acc.owned ? 4 + int64_t{acc.size} : 0) - before;
  MaybeCompact();
}

void KeyedNativeFold::MaybeCompact() {
  const int64_t used = scratch_.bytes_used();
  if (used <= (8 << 20) || used <= 2 * owned_bytes_) {
    return;
  }
  NativePartition compacted(tracker_);
  for (FoldAcc& acc : accs_) {
    if (acc.owned) {
      acc.addr = compacted.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr), acc.size);
    }
  }
  scratch_ = std::move(compacted);
}

void KeyedNativeFold::EmitTo(NativePartition& out) const {
  for (const FoldAcc& acc : accs_) {
    out.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr), acc.size);
  }
}

}  // namespace gerenuk
