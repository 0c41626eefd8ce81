#include "src/dataflow/native_fold.h"

#include <cstring>

#include "src/transform/emit_fold.h"

namespace gerenuk {

void NativeFolder::Fold(SerRunner& runner, BuilderStore& builders, FoldAcc* acc, int64_t rec) {
  if (acc_fn_ != nullptr) {
    Own(acc);
    const Value args[2] = {Value::Addr(acc->addr), Value::Addr(rec)};
    if (runner.CallFunction(acc_fn_, args, 2).i != 0) {
      return;
    }
  }
  Reduce(runner, builders, acc, rec);
}

void NativeFolder::Own(FoldAcc* acc) {
  if (!acc->owned) {
    acc->addr = scratch_->AppendRecord(reinterpret_cast<const uint8_t*>(acc->addr), acc->size);
    acc->owned = true;
  }
  // The accumulate form writes without the committed-record refusal: only
  // ever hand it bytes this fold owns.
  GERENUK_CHECK(acc->owned && !IsBuilderAddr(acc->addr));
}

void NativeFolder::Reduce(SerRunner& runner, BuilderStore& builders, FoldAcc* acc, int64_t rec) {
  const size_t mark = builders.size();
  const Value args[2] = {Value::Addr(acc->addr), Value::Addr(rec)};
  const int64_t result = runner.CallFunction(fn_, args, 2).i;
  if (result == acc->addr) {
    builders.Truncate(mark);
    return;  // fn returned its accumulator untouched
  }
  body_.Clear();
  builders.RenderBody(result, klass_, body_);
  builders.Truncate(mark);
  const uint32_t size = static_cast<uint32_t>(body_.size());
  if (acc->owned && size == acc->size) {
    std::memcpy(reinterpret_cast<uint8_t*>(acc->addr), body_.data(), size);
    return;
  }
  acc->addr = scratch_->AppendRecord(body_.data(), size);
  acc->size = size;
  acc->owned = true;
}

KeyedNativeFold::KeyedNativeFold(const Function* fn, const Function* acc_fn, const Klass* klass,
                                 MemoryTracker* tracker)
    : tracker_(tracker),
      builder_reads_exact_(PrimFieldsAreWide(klass)),
      scratch_(tracker),
      folder_(fn, acc_fn, klass, &scratch_) {}

FoldAcc* KeyedNativeFold::Lookup(const ShuffleKey& key, size_t hash, bool* inserted) {
  const uint32_t id = index_.Insert(key, hash, inserted);
  if (*inserted) {
    accs_.emplace_back();
  }
  return &accs_[id];
}

void KeyedNativeFold::Add(SerRunner& runner, BuilderStore& builders, const ShuffleKey& key,
                          size_t hash, int64_t addr, uint32_t size) {
  bool inserted = false;
  FoldAcc* acc = Lookup(key, hash, &inserted);
  if (inserted) {
    *acc = FoldAcc{addr, size, false};
    return;
  }
  FoldInto(runner, builders, acc, addr);
}

void KeyedNativeFold::AddEmitted(SerRunner& runner, BuilderStore& builders, const ShuffleKey& key,
                                 size_t hash, int64_t addr, const Klass* klass) {
  FoldAcc* acc = LookupEmitted(builders, key, hash, addr, klass);
  if (acc == nullptr) {
    return;
  }
  if (!builder_reads_exact_) {
    addr = Stage(builders, addr, klass);
  }
  FoldInto(runner, builders, acc, addr);
}

FoldAcc* KeyedNativeFold::LookupEmitted(BuilderStore& builders, const ShuffleKey& key,
                                        size_t hash, int64_t addr, const Klass* klass) {
  bool inserted = false;
  FoldAcc* acc = Lookup(key, hash, &inserted);
  if (inserted) {
    const int64_t body = builders.Render(addr, klass, scratch_);
    const uint32_t size = scratch_.record_size(scratch_.record_count() - 1);
    *acc = FoldAcc{body, size, true};
    owned_bytes_ += 4 + int64_t{size};
    return nullptr;
  }
  return acc;
}

int64_t KeyedNativeFold::Slot(BuilderStore& builders, const ShuffleKey& key, size_t hash,
                              int64_t addr, const Klass* klass) {
  return OwnedSlot(LookupEmitted(builders, key, hash, addr, klass));
}

int64_t KeyedNativeFold::Probe(const ShuffleKey& key, size_t hash) {
  const uint32_t id = index_.Find(key, hash);
  return OwnedSlot(id == KeyIndex::kNotFound ? nullptr : &accs_[id]);
}

int64_t KeyedNativeFold::OwnedSlot(FoldAcc* acc) {
  if (acc == nullptr) {
    return 0;
  }
  folds_ += 1;
  folder_.Own(acc);
  return acc->addr;
}

int64_t KeyedNativeFold::Stage(BuilderStore& builders, int64_t addr, const Klass* klass) {
  if (!IsBuilderAddr(addr)) {
    return addr;
  }
  staged_.Clear();
  builders.RenderBody(addr, klass, staged_);
  return reinterpret_cast<int64_t>(staged_.data());
}

void KeyedNativeFold::Reduce(SerRunner& runner, BuilderStore& builders, const ShuffleKey& key,
                             size_t hash, int64_t rec) {
  const uint32_t id = index_.Find(key, hash);
  GERENUK_CHECK(id != KeyIndex::kNotFound && accs_[id].owned);
  FoldAcc* acc = &accs_[id];
  const int64_t before = 4 + int64_t{acc->size};
  folder_.Reduce(runner, builders, acc, rec);
  owned_bytes_ += 4 + int64_t{acc->size} - before;
  MaybeCompact();
}

void KeyedNativeFold::FoldInto(SerRunner& runner, BuilderStore& builders, FoldAcc* acc,
                               int64_t rec) {
  const int64_t before = acc->owned ? 4 + int64_t{acc->size} : 0;
  folder_.Fold(runner, builders, acc, rec);
  folds_ += 1;
  owned_bytes_ += (acc->owned ? 4 + int64_t{acc->size} : 0) - before;
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

void KeyedNativeFold::EmitTo(NativePartition& out) {
  bool scratch_is_output = out.record_count() == 0 && scratch_.record_count() == accs_.size();
  for (size_t i = 0; scratch_is_output && i < accs_.size(); ++i) {
    scratch_is_output = accs_[i].owned && accs_[i].addr == scratch_.record_addr(i);
  }
  if (scratch_is_output) {
    out = std::move(scratch_);
    return;
  }
  for (const FoldAcc& acc : accs_) {
    out.AppendRecord(reinterpret_cast<const uint8_t*>(acc.addr), acc.size);
  }
}

void KeyedNativeFold::Clear() {
  index_.Clear();
  accs_.clear();
  scratch_ = NativePartition(tracker_);
  owned_bytes_ = 0;
  folds_ = 0;
}

}  // namespace gerenuk
