// Helpers for the source-ingest tests (SourceIngest* in spark_test.cc and
// hadoop_test.cc): fingerprints of a source dataset's native partitions and
// the record bodies a kBaseline build must match.
#ifndef TESTS_SOURCE_INGEST_H_
#define TESTS_SOURCE_INGEST_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/dataflow/dataset.h"

namespace gerenuk {

// A built source dataset's native partitions as their producers committed
// them: each partition's wire form (record sizes, bodies and the seal's
// checksum), its seal and its bytes_used().
struct PartitionPrint {
  std::vector<std::vector<uint8_t>> wire;
  std::vector<uint64_t> seals;
  std::vector<int64_t> bytes_used;
  bool operator==(const PartitionPrint&) const = default;
};

inline PartitionPrint PrintPartitions(const DatasetPtr& ds) {
  PartitionPrint print;
  for (const NativePartition& part : ds->native_parts) {
    EXPECT_TRUE(part.sealed());
    ByteBuffer wire;
    part.SerializeTo(wire);
    print.wire.emplace_back(wire.data(), wire.data() + wire.size());
    print.seals.push_back(part.checksum());
    print.bytes_used.push_back(part.bytes_used());
  }
  return print;
}

// A kBaseline dataset's heap records in the inline format, partition by
// partition: what the same source built in kGerenuk must hold natively.
inline std::vector<std::vector<uint8_t>> BaselineRecordBodies(Heap& heap, const DatasetPtr& ds) {
  InlineSerializer serde(heap);
  std::vector<std::vector<uint8_t>> parts;
  for (const std::vector<ObjRef>& refs : ds->heap_parts) {
    std::vector<uint8_t>& bytes = parts.emplace_back();
    for (ObjRef ref : refs) {
      ByteBuffer record;
      serde.WriteRecord(ref, ds->klass, record);
      bytes.insert(bytes.end(), record.data() + 4, record.data() + record.size());
    }
  }
  return parts;
}

// The native counterpart of BaselineRecordBodies.
inline std::vector<std::vector<uint8_t>> NativeRecordBodies(const DatasetPtr& ds) {
  std::vector<std::vector<uint8_t>> parts;
  for (const NativePartition& part : ds->native_parts) {
    std::vector<uint8_t>& bytes = parts.emplace_back();
    for (size_t r = 0; r < part.record_count(); ++r) {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(part.record_addr(r));
      bytes.insert(bytes.end(), p, p + part.record_size(r));
    }
  }
  return parts;
}

}  // namespace gerenuk

#endif  // TESTS_SOURCE_INGEST_H_
