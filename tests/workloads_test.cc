// Every benchmark program must produce the same result (to floating-point
// reordering tolerance) in baseline and Gerenuk modes — the paper's "we also
// verified that no incorrect results were produced by our transformation".
#include <gtest/gtest.h>

#include "src/workloads/hadoop_workloads.h"
#include "src/workloads/spark_workloads.h"

namespace gerenuk {
namespace {

EngineConfig SmallSpark(EngineMode mode) {
  EngineConfig config;
  config.execution.mode = mode;
  config.execution.heap_bytes = 64u << 20;
  config.execution.num_partitions = 3;
  return config;
}

HadoopConfig SmallHadoop(EngineMode mode) {
  HadoopConfig config;
  config.engine.execution.mode = mode;
  config.engine.execution.heap_bytes = 64u << 20;
  config.engine.execution.num_partitions = 3;
  config.num_reducers = 2;
  config.sort_buffer_bytes = 64 << 10;
  return config;
}

TEST(SparkWorkloadsTest, PageRankMatchesAcrossModes) {
  SyntheticGraph graph = MakePowerLawGraph(300, 1500, 7);
  double checksums[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    WorkloadResult result = workloads.RunPageRank(graph, 3);
    checksums[static_cast<int>(mode)] = result.checksum;
    EXPECT_GT(result.records, 0);
    EXPECT_GT(result.checksum, 0.0);
  }
  EXPECT_NEAR(checksums[0], checksums[1], 1e-6 * std::abs(checksums[0]));
}

TEST(SparkWorkloadsTest, ConnectedComponentsMatchesAcrossModes) {
  SyntheticGraph graph = MakePowerLawGraph(200, 1200, 9);
  double checksums[2];
  int64_t records[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    WorkloadResult result = workloads.RunConnectedComponents(graph, 4);
    checksums[static_cast<int>(mode)] = result.checksum;
    records[static_cast<int>(mode)] = result.records;
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(records[0], records[1]);
  // Labels only shrink from their vertex-id initialization, and propagation
  // must have merged something.
  EXPECT_LT(checksums[0], 200.0 * 199.0 / 2.0);
  EXPECT_GE(checksums[0], 0.0);
}

TEST(SparkWorkloadsTest, KMeansMatchesAcrossModes) {
  SyntheticPoints points = MakeClusteredPoints(400, 4, 3, 11);
  double checksums[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    checksums[static_cast<int>(mode)] = workloads.RunKMeans(points, 3, 3).checksum;
  }
  EXPECT_NEAR(checksums[0], checksums[1], 1e-6 * std::abs(checksums[0]) + 1e-9);
}

TEST(SparkWorkloadsTest, LogisticRegressionMatchesAcrossModes) {
  SyntheticLabeledPoints points = MakeLabeledPoints(300, 5, 13);
  double checksums[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    checksums[static_cast<int>(mode)] =
        workloads.RunLogisticRegression(points, 3, 0.5).checksum;
  }
  EXPECT_NEAR(checksums[0], checksums[1], 1e-9);
  EXPECT_NE(checksums[0], 0.0);  // the model actually learned something
}

TEST(SparkWorkloadsTest, ChiSquareMatchesAcrossModes) {
  SyntheticLabeledPoints points = MakeLabeledPoints(300, 6, 17);
  double checksums[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    checksums[static_cast<int>(mode)] = workloads.RunChiSquareSelector(points).checksum;
  }
  EXPECT_NEAR(checksums[0], checksums[1], 1e-9);
  EXPECT_GT(checksums[0], 0.0);
}

TEST(SparkWorkloadsTest, GradientBoostingMatchesAcrossModes) {
  SyntheticLabeledPoints points = MakeLabeledPoints(250, 4, 19);
  double checksums[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    checksums[static_cast<int>(mode)] = workloads.RunGradientBoosting(points, 3, 0.5).checksum;
  }
  EXPECT_NEAR(checksums[0], checksums[1], 1e-9);
  EXPECT_NE(checksums[0], 0.0);
}

TEST(SparkWorkloadsTest, WordCountMatchesAcrossModes) {
  std::vector<std::string> lines = MakeTextLines(150, 6, 100, 23);
  double checksums[2];
  int64_t records[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    WorkloadResult result = workloads.RunWordCount(lines);
    checksums[static_cast<int>(mode)] = result.checksum;
    records[static_cast<int>(mode)] = result.records;
  }
  EXPECT_EQ(checksums[0], 150 * 6);  // total word occurrences
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(records[0], records[1]);
}

// A job's driver-side objects (its CollectToHeap results) are garbage once
// it returns, and the next job's ResetMetrics collects them: a closed loop
// of jobs on one engine keeps a flat peak instead of adding one result set
// per pass.
TEST(SparkWorkloadsTest, PeakMemoryStaysFlatAcrossPasses) {
  SyntheticGraph graph = MakePowerLawGraph(2000, 10000, 7);
  for (const char* program : {"PR", "CC"}) {
    EngineConfig config = SmallSpark(EngineMode::kGerenuk);
    config.execution.num_workers = 4;
    SparkEngine engine(config);
    SparkWorkloads workloads(engine);
    int64_t second = 0;
    for (int pass = 1; pass <= 10; ++pass) {
      if (program[0] == 'P') {
        workloads.RunPageRank(graph, 3);
      } else {
        workloads.RunConnectedComponents(graph, 3);
      }
      if (pass == 2) {
        second = engine.peak_memory_bytes();
      }
    }
    EXPECT_NEAR(static_cast<double>(engine.peak_memory_bytes()), static_cast<double>(second),
                0.01 * static_cast<double>(second))
        << program;
  }
}

TEST(SparkWorkloadsTest, AccountGroupingAbortsAndStaysCorrect) {
  std::vector<SyntheticPost> posts = MakePosts(800, 120, 5, 29);
  double checksums[2];
  int aborts[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    SparkEngine engine(SmallSpark(mode));
    SparkWorkloads workloads(engine);
    WorkloadResult result = workloads.RunAccountGrouping(posts, 4);
    checksums[static_cast<int>(mode)] = result.checksum;
    aborts[static_cast<int>(mode)] = engine.stats().aborts;
  }
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(checksums[0], 800.0);  // every post grouped exactly once
  EXPECT_EQ(aborts[0], 0);         // baseline never aborts
  // Zipf activity makes heavy users exceed capacity 4: real aborts happen.
  EXPECT_GT(aborts[1], 0);
}

TEST(SparkWorkloadsTest, GerenukRunsTransformedCode) {
  SyntheticGraph graph = MakePowerLawGraph(100, 400, 31);
  SparkEngine engine(SmallSpark(EngineMode::kGerenuk));
  SparkWorkloads workloads(engine);
  workloads.RunPageRank(graph, 2);
  EXPECT_GT(engine.stats().transform.statements_transformed, 50);
  EXPECT_GT(engine.stats().fast_path_commits, 0);
  EXPECT_EQ(engine.stats().aborts, 0);
}

TEST(HadoopWorkloadsTest, AllJobsMatchAcrossModes) {
  std::vector<SyntheticPost> posts = MakePosts(500, 80, 6, 37);
  std::vector<std::string> lines = MakeTextLines(120, 8, 60, 41);
  struct Row {
    double checksum;
    int64_t records;
  };
  std::vector<Row> rows[2];
  for (EngineMode mode : {EngineMode::kBaseline, EngineMode::kGerenuk}) {
    HadoopEngine engine(SmallHadoop(mode));
    HadoopWorkloads workloads(engine);
    DatasetPtr post_input = workloads.MakePostInput(posts);
    DatasetPtr text_input = workloads.MakeTextInput(lines);
    for (const WorkloadResult& result :
         {workloads.RunIuf(post_input), workloads.RunUah(post_input),
          workloads.RunSpf(post_input), workloads.RunUed(post_input),
          workloads.RunCed(post_input), workloads.RunImc(text_input),
          workloads.RunTfc(text_input)}) {
      rows[static_cast<int>(mode)].push_back({result.checksum, result.records});
    }
  }
  ASSERT_EQ(rows[0].size(), 7u);
  for (size_t i = 0; i < rows[0].size(); ++i) {
    EXPECT_EQ(rows[0][i].checksum, rows[1][i].checksum) << "job " << i;
    EXPECT_EQ(rows[0][i].records, rows[1][i].records) << "job " << i;
  }
  // Sanity anchors: IUF counts all posts; IMC/TFC count all words.
  EXPECT_EQ(rows[0][0].checksum, 500.0);
  EXPECT_EQ(rows[0][5].checksum, 120.0 * 8);
  EXPECT_EQ(rows[0][6].checksum, 120.0 * 8);
}

TEST(DatagenTest, GraphShape) {
  SyntheticGraph graph = MakePowerLawGraph(1000, 5000, 43);
  EXPECT_EQ(graph.num_vertices, 1000);
  EXPECT_EQ(graph.num_edges(), 5000);
  // Skew: the most popular destination should receive far more than average.
  std::vector<int> in_degree(1000, 0);
  for (const auto& adjacency : graph.out_edges) {
    EXPECT_GE(adjacency.size(), 1u);
    for (int64_t dst : adjacency) {
      in_degree[static_cast<size_t>(dst)] += 1;
    }
  }
  int max_in = *std::max_element(in_degree.begin(), in_degree.end());
  EXPECT_GT(max_in, 50);  // vs average of 5
}

TEST(DatagenTest, PostsAreLongTailed) {
  std::vector<SyntheticPost> posts = MakePosts(2000, 200, 5, 47);
  std::vector<int> per_user(200, 0);
  for (const auto& post : posts) {
    ASSERT_LT(post.user_id, 200);
    per_user[static_cast<size_t>(post.user_id)] += 1;
  }
  int max_posts = *std::max_element(per_user.begin(), per_user.end());
  EXPECT_GT(max_posts, 40);  // heavy users exist (vs average of 10)
}


// Each partition's seal and bytes_used() for the Hadoop inputs below, as the
// heap-object ingest path (build each record as objects, serialize it,
// collect the heap) committed them before sources wrote through
// RecordWriter. Pinning them keeps "the same bytes as before" checkable.
struct PinnedPartition {
  uint64_t seal;
  int64_t bytes_used;
};
constexpr PinnedPartition kPinnedPostParts[] = {{0x6033be39ae21506dULL, 45847},
                                                {0x9805352b719908aeULL, 45619},
                                                {0x61584f8854c74451ULL, 45757},
                                                {0x78311a5f9de66bc0ULL, 45540}};
constexpr PinnedPartition kPinnedTextParts[] = {{0x02082ed4d7c9da2dULL, 37188},
                                                {0x19b103387493b3a8ULL, 37114},
                                                {0x9a176f7ff65f8f8eULL, 37156},
                                                {0xdb5874f25976f19bULL, 37146}};

void ExpectPinned(const DatasetPtr& ds, const PinnedPartition (&pinned)[4],
                  const std::string& what) {
  ASSERT_EQ(ds->native_parts.size(), 4u) << what;
  for (size_t p = 0; p < 4; ++p) {
    const NativePartition& part = ds->native_parts[p];
    EXPECT_TRUE(part.sealed()) << what << " p=" << p;
    EXPECT_EQ(part.checksum(), pinned[p].seal) << what << " p=" << p;
    EXPECT_EQ(part.bytes_used(), pinned[p].bytes_used) << what << " p=" << p;
  }
}

TEST(SourceIngestTest, HadoopInputsMatchPinnedSeals) {
  const std::vector<SyntheticPost> posts = MakePosts(3000, 250, 16, 41);
  const std::vector<std::string> lines = MakeTextLines(2000, 10, 500, 43);
  // In-process engines first: process-mode engines must fork from a driver
  // with no worker threads alive.
  for (bool processes : {false, true}) {
    for (int workers : {1, 2, 8}) {
      HadoopConfig config;
      config.engine.execution.mode = EngineMode::kGerenuk;
      config.engine.execution.heap_bytes = 24u << 20;
      config.engine.execution.num_partitions = 4;
      config.engine.execution.num_workers = workers;
      config.engine.execution.process_executors = processes;
      HadoopEngine engine(config);
      HadoopWorkloads workloads(engine);
      const std::string where =
          "workers=" + std::to_string(workers) + " processes=" + std::to_string(processes);
      ExpectPinned(workloads.MakePostInput(posts), kPinnedPostParts, "posts " + where);
      ExpectPinned(workloads.MakeTextInput(lines), kPinnedTextParts, "text " + where);
    }
  }
}

}  // namespace
}  // namespace gerenuk
