#include "perfbench/programs.h"

#include <atomic>
#include <cmath>
#include <thread>

#include "perfbench/report.h"
#include "src/support/logging.h"
#include "src/support/trace.h"

namespace perfbench {
namespace {

using gerenuk::WorkloadResult;

// Picks the kFig6a or the kLarge value.
int64_t Sized(Scale scale, int64_t fig6a, int64_t large) {
  return scale == Scale::kFig6a ? fig6a : large;
}

// SplitMix64 of the workload seed and the program name: one independent,
// reproducible stream per program.
uint64_t StreamSeed(uint64_t seed, const char* name) {
  uint64_t x = seed;
  for (const char* c = name; *c != '\0'; ++c) {
    x = x * 131 + static_cast<unsigned char>(*c);
  }
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int64_t Count(size_t n) { return static_cast<int64_t>(n); }

// Spark programs ingest inside Run*, so `ingest` stays empty for them.
#define SPARK_RUN(body)                                                                  \
  [](const Drivers& d, const Inputs& in, const SpanClock&, Span*) -> WorkloadResult { \
    return d.spark->body;                                                                \
  }

// Hadoop programs: the benchmark times Make*Input, then runs the job.
#define HADOOP_RUN(make_input, field, job)                                          \
  [](const Drivers& d, const Inputs& in, const SpanClock& clock, Span* ingest) {   \
    ingest->start_ns = clock.Now();                                                 \
    gerenuk::DatasetPtr input = d.hadoop->make_input(in.field);                     \
    ingest->end_ns = clock.Now();                                                   \
    return d.hadoop->job(input);                                                    \
  }

void MakeGraph(Scale s, uint64_t seed, Inputs* in) {
  if (in->graph.num_vertices == 0) {
    in->graph = gerenuk::MakePowerLawGraph(Sized(s, 4000, 20000), Sized(s, 20000, 100000),
                                           StreamSeed(seed, "graph"));
  }
}
void MakePosts(Scale s, uint64_t seed, Inputs* in) {
  if (in->posts.empty()) {
    in->posts = gerenuk::MakePosts(Sized(s, 3000, 100000), Sized(s, 250, 8000), 16,
                                   StreamSeed(seed, "posts"));
  }
}
void MakeText(Scale s, uint64_t seed, Inputs* in) {
  if (in->text.empty()) {
    in->text = gerenuk::MakeTextLines(Sized(s, 2000, 40000), 10, 500, StreamSeed(seed, "text"));
  }
}

int64_t GraphRecords(const Inputs& in) { return 2 * in.graph.num_vertices; }  // links + ranks
int64_t PostRecords(const Inputs& in) { return Count(in.posts.size()); }
int64_t TextRecords(const Inputs& in) { return Count(in.text.size()); }

const Program kPrograms[] = {
    {"KM", false,
     [](Scale s, uint64_t seed, Inputs* in) {
       in->km = gerenuk::MakeClusteredPoints(Sized(s, 6000, 60000), 10, 5, StreamSeed(seed, "KM"));
     },
     [](const Inputs& in) { return Count(in.km.values.size()); },
     SPARK_RUN(RunKMeans(in.km, 5, 5))},
    {"LR", false,
     [](Scale s, uint64_t seed, Inputs* in) {
       in->lr = gerenuk::MakeLabeledPoints(Sized(s, 6000, 60000), 10, StreamSeed(seed, "LR"));
     },
     [](const Inputs& in) { return Count(in.lr.features.size()); },
     SPARK_RUN(RunLogisticRegression(in.lr, 5, 0.5))},
    {"GB", false,
     [](Scale s, uint64_t seed, Inputs* in) {
       in->gb = gerenuk::MakeLabeledPoints(Sized(s, 4000, 40000), 8, StreamSeed(seed, "GB"));
     },
     [](const Inputs& in) { return Count(in.gb.features.size()); },
     SPARK_RUN(RunGradientBoosting(in.gb, 5, 0.3))},
    {"CS", false,
     [](Scale s, uint64_t seed, Inputs* in) {
       in->cs = gerenuk::MakeLabeledPoints(Sized(s, 20000, 200000), 12, StreamSeed(seed, "CS"));
     },
     [](const Inputs& in) { return Count(in.cs.features.size()); },
     SPARK_RUN(RunChiSquareSelector(in.cs))},
    {"PR", false, MakeGraph, GraphRecords, SPARK_RUN(RunPageRank(in.graph, 8))},
    {"CC", false, MakeGraph, GraphRecords, SPARK_RUN(RunConnectedComponents(in.graph, 5))},
    {"WC", false,
     [](Scale s, uint64_t seed, Inputs* in) {
       in->wc_lines =
           gerenuk::MakeTextLines(Sized(s, 4000, 40000), 10, 500, StreamSeed(seed, "WC"));
     },
     [](const Inputs& in) { return Count(in.wc_lines.size()); },
     SPARK_RUN(RunWordCount(in.wc_lines))},
    // SO-App phase 1: an initial capacity of 4 overflows for every active
    // account, so each task aborts and re-runs on the slow path. Its slow
    // path grows faster than its input; the sizes keep it a minority share.
    {"SO", false,
     [](Scale s, uint64_t seed, Inputs* in) {
       in->so_posts = gerenuk::MakePosts(Sized(s, 2000, 8000), Sized(s, 200, 800), 8,
                                         StreamSeed(seed, "SO"));
     },
     [](const Inputs& in) { return Count(in.so_posts.size()); },
     SPARK_RUN(RunAccountGrouping(in.so_posts, 4))},
    {"IUF", true, MakePosts, PostRecords, HADOOP_RUN(MakePostInput, posts, RunIuf)},
    {"UAH", true, MakePosts, PostRecords, HADOOP_RUN(MakePostInput, posts, RunUah)},
    {"SPF", true, MakePosts, PostRecords, HADOOP_RUN(MakePostInput, posts, RunSpf)},
    {"UED", true, MakePosts, PostRecords, HADOOP_RUN(MakePostInput, posts, RunUed)},
    {"CED", true, MakePosts, PostRecords, HADOOP_RUN(MakePostInput, posts, RunCed)},
    {"IMC", true, MakeText, TextRecords, HADOOP_RUN(MakeTextInput, text, RunImc)},
    {"TFC", true, MakeText, TextRecords, HADOOP_RUN(MakeTextInput, text, RunTfc)},
};

#undef SPARK_RUN
#undef HADOOP_RUN

}  // namespace

int64_t SpanClock::Now() const { return sink_ != nullptr ? sink_->Now() : SteadyNowNs(); }

std::vector<const Program*> ProgramsNamed(const std::vector<std::string>& names) {
  std::vector<const Program*> out;
  for (const std::string& name : names) {
    const Program* found = nullptr;
    for (const Program& p : kPrograms) {
      if (name == p.name) {
        found = &p;
      }
    }
    GERENUK_CHECK(found != nullptr) << "unknown program " << name;
    out.push_back(found);
  }
  return out;
}

Inputs MakeInputs(const std::vector<const Program*>& programs, Scale scale, uint64_t seed) {
  Inputs in;
  for (const Program* p : programs) {
    p->make(scale, seed, &in);
  }
  return in;
}

gerenuk::EngineConfig GerenukConfig(int workers) {
  gerenuk::EngineConfig config;
  config.execution.mode = gerenuk::EngineMode::kGerenuk;
  config.execution.num_workers = workers;
  return config;
}

gerenuk::HadoopConfig GerenukHadoopConfig(int workers) {
  gerenuk::HadoopConfig config;
  config.engine = GerenukConfig(workers);
  return config;
}

std::vector<WorkloadResult> RunReference(const std::vector<const Program*>& programs,
                                         const Inputs& in) {
  gerenuk::EngineConfig config;
  config.execution.mode = gerenuk::EngineMode::kBaseline;
  config.execution.heap_bytes = 256u << 20;
  gerenuk::HadoopConfig hadoop_config;
  hadoop_config.engine = config;

  // Programs run on kReferenceThreads threads, each on a fresh engine, so
  // one program's heap state never reaches another's reference.
  constexpr int kReferenceThreads = 4;
  std::vector<WorkloadResult> results(programs.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    const SpanClock clock;
    for (size_t i = next++; i < programs.size(); i = next++) {
      const Program& p = *programs[i];
      Span ingest;
      if (p.hadoop) {
        gerenuk::HadoopEngine engine(hadoop_config);
        gerenuk::HadoopWorkloads workloads(engine);
        results[i] = p.run(Drivers{nullptr, &workloads}, in, clock, &ingest);
      } else {
        gerenuk::SparkEngine engine(config);
        gerenuk::SparkWorkloads workloads(engine);
        results[i] = p.run(Drivers{&workloads, nullptr}, in, clock, &ingest);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return results;
}

bool SameOutput(const WorkloadResult& got, const WorkloadResult& want) {
  return got.records == want.records &&
         std::abs(got.checksum - want.checksum) <= 1e-6 * (std::abs(want.checksum) + 1.0);
}

}  // namespace perfbench
