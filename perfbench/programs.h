// The paper programs the benchmark drives, their seeded inputs, and the
// baseline-mode reference every timed job is checked against.
//
// A program runs through the public workload API only: SparkWorkloads::Run*
// (which ingest their own input) or HadoopWorkloads::Make*Input followed by
// Run* (the benchmark times the ingest call as its own span).
#ifndef PERFBENCH_PROGRAMS_H_
#define PERFBENCH_PROGRAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"

namespace perfbench {

// Input sizes. kFig6a is the size of bench_fig6a_spark / bench_fig6b_hadoop
// (per-job fixed costs dominate); kLarge is about ten times that (per-record
// work dominates).
enum class Scale { kFig6a, kLarge };

// Every program's input, generated from one seed. Only the fields of the
// programs asked for are filled.
struct Inputs {
  gerenuk::SyntheticPoints km;
  gerenuk::SyntheticLabeledPoints lr;
  gerenuk::SyntheticLabeledPoints gb;
  gerenuk::SyntheticLabeledPoints cs;
  gerenuk::SyntheticGraph graph;              // PR and CC
  std::vector<std::string> wc_lines;          // Spark WordCount
  std::vector<gerenuk::SyntheticPost> so_posts;  // SO-App (account grouping)
  std::vector<gerenuk::SyntheticPost> posts;     // IUF, UAH, SPF, UED, CED
  std::vector<std::string> text;                 // IMC, TFC
};

// Clock shared with an engine's trace, so spans the benchmark records line up
// with the engine's own stage and task spans. Without a trace it reads the
// steady clock.
class SpanClock {
 public:
  explicit SpanClock(gerenuk::TraceSink* sink = nullptr) : sink_(sink) {}
  int64_t Now() const;

 private:
  gerenuk::TraceSink* sink_;
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t ns() const { return end_ns - start_ns; }
};

// The workload objects of one engine pair. `hadoop` is null when the
// workload runs no Hadoop program.
struct Drivers {
  gerenuk::SparkWorkloads* spark = nullptr;
  gerenuk::HadoopWorkloads* hadoop = nullptr;
};

struct Program {
  const char* name;
  bool hadoop;  // runs on the HadoopEngine
  void (*make)(Scale scale, uint64_t seed, Inputs* in);
  int64_t (*records)(const Inputs& in);  // input records the job ingests
  // Runs the job. Hadoop programs fill `ingest` (timed with `clock`).
  gerenuk::WorkloadResult (*run)(const Drivers& d, const Inputs& in, const SpanClock& clock,
                                 Span* ingest);
};

// Looks programs up by name; aborts on an unknown one.
std::vector<const Program*> ProgramsNamed(const std::vector<std::string>& names);

// Fills the inputs of `programs` at `scale`. Each program draws from its own
// stream derived from `seed`, so adding a program changes no other input.
Inputs MakeInputs(const std::vector<const Program*>& programs, Scale scale, uint64_t seed);

// Engine configurations. Gerenuk mode keeps every engine default except the
// mode and the worker count. The reference runs baseline mode, serially,
// with a heap large enough for the kLarge inputs (at 64 MB baseline KMeans
// over 60k points dies in klass.cc instead of reporting an OOM).
gerenuk::EngineConfig GerenukConfig(int workers);
gerenuk::HadoopConfig GerenukHadoopConfig(int workers);

// Runs every program once in baseline mode on fresh engines; the results
// are what every Gerenuk-mode job must reproduce.
std::vector<gerenuk::WorkloadResult> RunReference(const std::vector<const Program*>& programs,
                                                  const Inputs& in);

// Same output: equal record counts and checksums within 1e-6 relative (the
// float reductions of the two modes may associate differently).
bool SameOutput(const gerenuk::WorkloadResult& got, const gerenuk::WorkloadResult& want);

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAMS_H_
