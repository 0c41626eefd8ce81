#include "src/shuffle/shuffle_service.h"

#include <chrono>
#include <utility>

#include "src/exec/fault.h"
#include "src/shuffle/compress.h"
#include "src/support/fnv.h"
#include "src/support/logging.h"

namespace gerenuk {

bool CreditGate::Acquire(int64_t bytes) {
  if (budget_ <= 0 || bytes <= 0) {
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  bool waited = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms_);
  // An oversized request (bytes > budget_) is admitted once the gate is
  // idle — waiting for credit that can never exist would deadlock.
  while (inflight_ > 0 && inflight_ + bytes > budget_) {
    waited = true;
    if (grace_ms_ <= 0) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;  // grace elapsed: admit over budget rather than risk deadlock
    }
  }
  inflight_ += bytes;
  return waited;
}

void CreditGate::Release(int64_t bytes) {
  if (budget_ <= 0 || bytes <= 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ -= bytes;
  }
  cv_.notify_all();
}

int64_t CreditGate::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

BucketReader::BucketReader(BucketReader&& other) noexcept
    : parts_(std::move(other.parts_)),
      owned_(std::move(other.owned_)),
      gate_(other.gate_),
      credit_bytes_(other.credit_bytes_) {
  // parts_ entries pointing into owned_ stay valid: the vector move
  // transfers the element storage without relocating elements.
  other.gate_ = nullptr;
  other.credit_bytes_ = 0;
}

BucketReader::~BucketReader() {
  if (gate_ != nullptr) {
    gate_->Release(credit_bytes_);
  }
}

void BucketReader::ForEachRecord(
    const std::function<void(int64_t addr, uint32_t size)>& fn) const {
  for (const NativePartition* part : parts_) {
    for (size_t r = 0; r < part->record_count(); ++r) {
      fn(part->record_addr(r), part->record_size(r));
    }
  }
}

ShuffleRun::ShuffleRun(int producers, int buckets, const ShuffleConfig& config)
    : config_(config),
      bucket_blocks_(static_cast<size_t>(buckets)),
      file_(config.spill_dir),
      gate_(config.fetch_budget_bytes, config.backpressure_grace_ms) {
  (void)producers;  // sizing hint only; blocks arrive via Add
  for (auto& blocks : bucket_blocks_) {
    blocks.reserve(static_cast<size_t>(producers));
  }
}

void ShuffleRun::Add(int producer, int bucket, NativePartition&& part, EngineStats* stats,
                     TraceSink* sink) {
  GERENUK_CHECK(bucket >= 0 && bucket < num_buckets());
  Block block;
  block.producer = producer;
  const int64_t part_bytes = part.bytes_used();
  const bool spill = config_.spill_threshold_bytes > 0 &&
                     resident_bytes_ + part_bytes > config_.spill_threshold_bytes;
  if (!spill) {
    block.resident = std::move(part);
    resident_bytes_ += part_bytes;
  } else {
    ByteBuffer wire;
    part.SerializeTo(wire);
    // Reserved for the stored-codec frame (one codec byte plus the wire).
    // This also keeps GCC 12 from a false -Warray-bounds report on that
    // append into a buffer it last saw grow by one byte.
    ByteBuffer stored(wire.size() + 1);
    if (config_.compress) {
      CompressBlock(wire.data(), wire.size(), &stored);
    } else {
      stored.WriteU8(0);  // stored-codec frame; DecompressBlock handles both
      stored.WriteBytes(wire.data(), wire.size());
    }
    block.spilled = true;
    block.raw_size = static_cast<uint32_t>(wire.size());
    block.stored_size = static_cast<uint32_t>(stored.size());
    block.seal = SealDigest(stored.data(), stored.size());
    block.offset = file_.Append(stored.data(), stored.size());
    spilled_blocks_ += 1;
    if (stats != nullptr) {
      stats->spill_blocks += 1;
      stats->spill_bytes_raw += static_cast<int64_t>(wire.size());
      stats->spill_bytes_stored += static_cast<int64_t>(stored.size());
    }
    if (sink != nullptr) {
      sink->Counter(TraceEventType::kSpillBytes, "spill_bytes",
                    static_cast<int64_t>(stored.size()));
    }
    part.Release();
  }
  bucket_blocks_[static_cast<size_t>(bucket)].push_back(std::move(block));
}

BucketReader ShuffleRun::OpenBucket(int bucket, EngineStats* stats, TraceSink* sink) const {
  GERENUK_CHECK(bucket >= 0 && bucket < num_buckets());
  const std::vector<Block>& blocks = bucket_blocks_[static_cast<size_t>(bucket)];
  int64_t fetch_raw_bytes = 0;
  size_t spilled = 0;
  for (const Block& block : blocks) {
    if (block.spilled) {
      fetch_raw_bytes += block.raw_size;
      ++spilled;
    }
  }

  BucketReader reader;
  reader.parts_.reserve(blocks.size());
  if (spilled > 0) {
    // One acquisition for the whole bucket: a reader never waits on itself,
    // so a bucket larger than the budget still makes progress.
    if (gate_.Acquire(fetch_raw_bytes) && stats != nullptr) {
      stats->fetch_backpressure_waits += 1;
    }
    reader.gate_ = &gate_;
    reader.credit_bytes_ = fetch_raw_bytes;
    reader.owned_.reserve(spilled);  // parts_ takes stable element addresses
    if (spilled >= 2 && stats != nullptr) {
      stats->spill_merges += 1;  // external merge of >= 2 spilled runs
    }
  }

  std::vector<uint8_t> stored;
  std::vector<uint8_t> raw;
  for (const Block& block : blocks) {
    if (!block.spilled) {
      reader.parts_.push_back(&block.resident);
      continue;
    }
    stored.resize(block.stored_size);
    file_.ReadAt(block.offset, stored.data(), stored.size());
    if (SealDigest(stored.data(), stored.size()) != block.seal) {
      throw TaskError(TaskErrorKind::kCorruptInput, -1, 0, 0,
                      "spilled shuffle block failed its integrity seal (bucket " +
                          std::to_string(bucket) + ", producer " +
                          std::to_string(block.producer) + ")");
    }
    if (!DecompressBlock(stored.data(), stored.size(), block.raw_size, &raw)) {
      throw TaskError(TaskErrorKind::kCorruptInput, -1, 0, 0,
                      "spilled shuffle block failed to decompress (bucket " +
                          std::to_string(bucket) + ", producer " +
                          std::to_string(block.producer) + ")");
    }
    ByteReader in(raw.data(), raw.size());
    try {
      reader.owned_.push_back(NativePartition::Parse(in, config_.tracker));
    } catch (const WireFormatError& e) {
      throw TaskError(TaskErrorKind::kCorruptInput, -1, 0, 0,
                      "spilled shuffle block wire bytes malformed (bucket " +
                          std::to_string(bucket) + ", producer " +
                          std::to_string(block.producer) + "): " + e.what());
    }
    reader.parts_.push_back(&reader.owned_.back());
    if (stats != nullptr) {
      stats->shuffle_fetches += 1;
    }
    if (sink != nullptr) {
      sink->Counter(TraceEventType::kFetchBytes, "fetch_bytes",
                    static_cast<int64_t>(block.raw_size));
    }
  }
  return reader;
}

void ShuffleRun::ForEachRecordInBucket(
    int bucket, EngineStats* stats, TraceSink* sink,
    const std::function<void(int64_t addr, uint32_t size)>& fn) const {
  OpenBucket(bucket, stats, sink).ForEachRecord(fn);
}

void ShuffleRun::CorruptStoredByteForTest(int64_t ordinal) {
  int64_t seen = 0;
  for (const auto& blocks : bucket_blocks_) {
    for (const Block& block : blocks) {
      if (block.spilled && seen++ == ordinal) {
        file_.FlipByteForTest(block.offset);
        return;
      }
    }
  }
  GERENUK_CHECK(false) << "no spilled block with ordinal " << ordinal;
}

}  // namespace gerenuk
