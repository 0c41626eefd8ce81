// Observability-layer tests (ctest -L obs): the determinism contract of the
// merged timeline, the Chrome trace-event export shape, ring-buffer overflow
// accounting, abort -> slow-path span nesting, and the sampled plan-op
// profiler. See DESIGN.md "Observability".
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/support/trace.h"
#include "tests/pair_job.h"

namespace gerenuk {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON syntax checker (recursive descent, validates only — no DOM).
// Enough to guarantee the export loads in chrome://tracing / Perfetto.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        return false;
      }
    }
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Splits the export into per-event object lines (the writer emits one event
// per line) and asserts every one carries the required ph/ts/pid/tid fields.
void CheckEventObjectShape(const std::string& json) {
  int events_seen = 0;
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string::npos) {
      end = json.size();
    }
    std::string line = json.substr(start, end - start);
    start = end + 1;
    if (!line.empty() && line[0] == ',') {
      line.erase(0, 1);
    }
    if (line.empty() || line[0] != '{' || line.find("\"traceEvents\"") != std::string::npos) {
      continue;  // header / footer
    }
    ++events_seen;
    EXPECT_NE(line.find("\"ph\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"pid\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
  }
  EXPECT_GT(events_seen, 2);  // more than just the metadata records
}

// ---------------------------------------------------------------------------
// Shared workload: the pair job with one forced SER abort (narrow stage,
// task 1) and one injected-exception retry (shuffle stage, task 1), run with
// tracing on. The fault plan is keyed by driver task ordinals, which are
// assigned identically for every worker count.
// ---------------------------------------------------------------------------

struct TraceRun {
  std::vector<uint8_t> bytes;             // output records (determinism anchor)
  std::vector<std::string> scrubbed;      // Trace::ScrubbedLines()
  std::vector<TraceEvent> events;         // merged timeline copy
  std::string json;                       // Chrome export
  int64_t dropped = 0;
};

TraceRun RunFaultedPairJob(int workers, size_t buffer_events) {
  EngineConfig config = SparkWith(workers);
  config.observability.trace = true;
  config.observability.trace_buffer_events = buffer_events;
  config.fault.max_task_attempts = 3;
  SparkJob job(config);
  DatasetPtr in = job.MakeInput(400);

  job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + 1);
  DatasetPtr doubled =
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});

  job.engine.fault_plan().InjectException(job.engine.next_task_ordinal() + 1);
  DatasetPtr out = job.engine.ReduceByKey(doubled, job.udfs, {},
                                          KeySpec{job.get_key, false}, job.sum_values);

  TraceRun run;
  run.bytes = DatasetBytes(out);
  Trace* trace = job.engine.trace();
  run.scrubbed = trace->ScrubbedLines();
  run.events = trace->events();
  run.json = TraceExporter(*trace).ChromeJson();
  run.dropped = trace->dropped_events();
  return run;
}

// ---------------------------------------------------------------------------
// Determinism contract: scrubbed event sequences are byte-identical across
// worker counts, under forced aborts and retries.
// ---------------------------------------------------------------------------

TEST(TraceDeterminismTest, ScrubbedLinesIdenticalAcrossWorkerCounts) {
  TraceRun reference = RunFaultedPairJob(1, Trace::kDefaultBufferEvents);
  ASSERT_FALSE(reference.scrubbed.empty());
  ASSERT_EQ(reference.dropped, 0);

  for (int workers : kWorkerCounts) {
    if (workers == 1) {
      continue;
    }
    TraceRun run = RunFaultedPairJob(workers, Trace::kDefaultBufferEvents);
    EXPECT_EQ(run.bytes, reference.bytes) << "workers=" << workers;
    ASSERT_EQ(run.dropped, 0) << "workers=" << workers;
    ASSERT_EQ(run.scrubbed.size(), reference.scrubbed.size()) << "workers=" << workers;
    for (size_t i = 0; i < run.scrubbed.size(); ++i) {
      ASSERT_EQ(run.scrubbed[i], reference.scrubbed[i])
          << "workers=" << workers << " line " << i;
    }
  }
}

TEST(TraceDeterminismTest, ScrubbedSequenceContainsExpectedFaultEvents) {
  TraceRun run = RunFaultedPairJob(2, Trace::kDefaultBufferEvents);
  int aborts = 0;
  int retries = 0;
  int slow_paths = 0;
  for (const std::string& line : run.scrubbed) {
    if (line.find("instant abort") == 0) {
      ++aborts;
    }
    if (line.find("instant retry") == 0) {
      ++retries;
    }
    if (line.find("span slow_path") == 0) {
      ++slow_paths;
    }
  }
  EXPECT_EQ(aborts, 1);       // the one forced SER abort
  EXPECT_EQ(retries, 1);      // the one injected-exception retry
  EXPECT_GE(slow_paths, 1);   // re-execution after the abort
}

// ---------------------------------------------------------------------------
// Export shape: the Chrome trace parses as JSON and every event object has
// the ph/ts/pid/tid structure the trace viewers require.
// ---------------------------------------------------------------------------

TEST(TraceExportTest, ChromeJsonParsesWithRequiredFields) {
  TraceRun run = RunFaultedPairJob(2, Trace::kDefaultBufferEvents);
  ASSERT_FALSE(run.json.empty());
  EXPECT_TRUE(JsonChecker(run.json).Valid());
  CheckEventObjectShape(run.json);
  // The export names threads: driver plus one lane per worker.
  EXPECT_NE(run.json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(run.json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(run.json.find("\"worker-1\""), std::string::npos);
}

TEST(TraceExportTest, TextTimelineRendersEveryMergedEvent) {
  EngineConfig config = SparkWith(2);
  config.observability.trace = true;
  SparkJob job(config);
  DatasetPtr in = job.MakeInput(100);
  DatasetPtr out =
      job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
  ASSERT_EQ(out->TotalRecords(), 100);
  Trace* trace = job.engine.trace();
  std::string text = TraceExporter(*trace).TextTimeline();
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  EXPECT_EQ(lines, trace->events().size());
}

// ---------------------------------------------------------------------------
// Ring overflow: a tiny per-worker buffer drops events (counted, never
// blocking) and the export still parses — including under a forced-abort
// fault plan.
// ---------------------------------------------------------------------------

TEST(TraceOverflowTest, TinyRingDropsAndCountsUnderForcedAborts) {
  TraceRun run = RunFaultedPairJob(2, /*buffer_events=*/16);
  EXPECT_GT(run.dropped, 0);
  EXPECT_TRUE(JsonChecker(run.json).Valid());
  CheckEventObjectShape(run.json);
}

TEST(TraceOverflowTest, DroppedCounterSurfacesInEngineMetrics) {
  EngineConfig config = SparkWith(2);
  config.observability.trace = true;
  config.observability.trace_buffer_events = 16;
  SparkJob job(config);
  job.engine.ForceAborts(4);
  DatasetPtr out = job.engine.RunStage(job.MakeInput(400), job.udfs,
                                       {NarrowOp::Map(job.double_value, job.pair)});
  ASSERT_EQ(out->TotalRecords(), 400);
  MetricsRegistry metrics = job.engine.metrics();
  EXPECT_GT(metrics.Counter("trace_dropped_events"), 0);
  EXPECT_EQ(metrics.Counter("trace_dropped_events"), job.engine.trace()->dropped_events());
}

// ---------------------------------------------------------------------------
// Abort nesting: the abort instant lands inside the fast-path span, and a
// slow-path span follows on the same worker lane (same tid in the export).
// ---------------------------------------------------------------------------

TEST(TraceNestingTest, AbortInstantNestsInFastSpanThenSlowPathFollows) {
  TraceRun run = RunFaultedPairJob(2, Trace::kDefaultBufferEvents);

  const TraceEvent* abort_ev = nullptr;
  for (const TraceEvent& ev : run.events) {
    if (ev.type == TraceEventType::kAbort) {
      ASSERT_EQ(abort_ev, nullptr) << "expected exactly one abort";
      abort_ev = &ev;
    }
  }
  ASSERT_NE(abort_ev, nullptr);
  EXPECT_EQ(abort_ev->task, 1);  // the forced-abort task

  const TraceEvent* fast = nullptr;
  const TraceEvent* slow = nullptr;
  for (const TraceEvent& ev : run.events) {
    if (ev.task != abort_ev->task || ev.worker != abort_ev->worker) {
      continue;
    }
    if (ev.type == TraceEventType::kFastPath && ev.ts_ns <= abort_ev->ts_ns &&
        abort_ev->ts_ns <= ev.ts_ns + ev.dur_ns) {
      fast = &ev;
    }
    if (ev.type == TraceEventType::kSlowPath && ev.ts_ns >= abort_ev->ts_ns) {
      slow = &ev;
    }
  }
  ASSERT_NE(fast, nullptr) << "abort instant not covered by a fast-path span";
  ASSERT_NE(slow, nullptr) << "no slow-path span after the abort";
  EXPECT_EQ(fast->worker, slow->worker);  // same tid lane in the export
  EXPECT_EQ(slow->attempt, fast->attempt);
}

// ---------------------------------------------------------------------------
// Map-side combine of a reduce with no accumulate form: a "combine" span of
// its own, inside the map task's span and after its fast_path span, so
// exec.fast_path_ms never counts it.
// ---------------------------------------------------------------------------

TEST(TraceCombineTest, CombineSpansAreNotFastPathAndSitInsideTheirTask) {
  auto inside = [](const TraceEvent& outer, const TraceEvent& ev) {
    return ev.ts_ns >= outer.ts_ns && ev.ts_ns + ev.dur_ns <= outer.ts_ns + outer.dur_ns;
  };
  auto same_attempt = [](const TraceEvent& a, const TraceEvent& b) {
    return a.worker == b.worker && a.task == b.task && a.attempt == b.attempt;
  };
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.observability.trace = true;
    SparkJob job(config);
    const Function* poisoned = BuildPoisonedSum(&job);  // has no accumulate form
    DatasetPtr in = job.MakeInput(400);
    job.engine.ReduceByKey(in, job.udfs, {}, KeySpec{job.get_key, false}, poisoned);
    const std::vector<TraceEvent> events = job.engine.trace()->events();

    int combines = 0;
    for (const TraceEvent& ev : events) {
      if (ev.kind != TraceEventKind::kSpan || std::string(ev.name) != "combine") {
        continue;
      }
      combines += 1;
      EXPECT_NE(ev.type, TraceEventType::kFastPath) << "combine span filed as fast path";
      EXPECT_EQ(ev.type, TraceEventType::kCombine);
      bool in_task = false;
      for (const TraceEvent& other : events) {
        if (other.kind != TraceEventKind::kSpan || &other == &ev || !same_attempt(other, ev)) {
          continue;
        }
        if (other.type == TraceEventType::kTask && inside(other, ev)) {
          in_task = true;
        }
        if (other.type == TraceEventType::kFastPath) {
          EXPECT_TRUE(other.ts_ns + other.dur_ns <= ev.ts_ns ||
                      ev.ts_ns + ev.dur_ns <= other.ts_ns)
              << "combine span overlaps a fast_path span of task " << ev.task;
        }
      }
      EXPECT_TRUE(in_task) << "combine span outside its task span, task " << ev.task;
    }
    EXPECT_EQ(combines, config.execution.num_partitions)
        << "one combine per map task, workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Source ingest: one "source" stage span holding one task span per partition.
// ---------------------------------------------------------------------------

TEST(TraceSourceTest, IngestTasksNestInOneSourceStageSpan) {
  std::vector<std::string> reference;
  for (int workers : kWorkerCounts) {
    EngineConfig config = SparkWith(workers);
    config.observability.trace = true;
    SparkJob job(config);
    DatasetPtr in = job.MakeInput(400);
    job.engine.RunStage(in, job.udfs, {NarrowOp::Map(job.double_value, job.pair)});
    const std::vector<TraceEvent> events = job.engine.trace()->events();

    const TraceEvent* source = nullptr;
    for (const TraceEvent& ev : events) {
      if (ev.type == TraceEventType::kStage && std::string(ev.name) == "source") {
        ASSERT_EQ(source, nullptr) << "expected exactly one source stage";
        source = &ev;
      }
    }
    ASSERT_NE(source, nullptr) << "workers=" << workers;
    std::vector<int64_t> tasks;
    for (const TraceEvent& ev : events) {
      if (ev.type == TraceEventType::kTask && ev.ts_ns >= source->ts_ns &&
          ev.ts_ns + ev.dur_ns <= source->ts_ns + source->dur_ns) {
        EXPECT_GE(ev.worker, 0) << "ingest tasks run on worker sinks";
        tasks.push_back(ev.task);
      }
    }
    std::sort(tasks.begin(), tasks.end());
    EXPECT_EQ(tasks, (std::vector<int64_t>{0, 1, 2, 3})) << "workers=" << workers;

    std::vector<std::string> scrubbed = job.engine.trace()->ScrubbedLines();
    if (reference.empty()) {
      reference = scrubbed;
    }
    EXPECT_EQ(scrubbed, reference) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Hadoop engine: same trace plumbing, same determinism contract.
// ---------------------------------------------------------------------------

TEST(TraceHadoopTest, ScrubbedLinesIdenticalAcrossWorkerCounts) {
  auto run_job = [](int workers) {
    HadoopConfig config = HadoopWith(workers);
    config.engine.observability.trace = true;
    HadoopJob job(config);
    DatasetPtr in = job.MakeInput(300);
    job.engine.fault_plan().AbortTask(job.engine.next_task_ordinal() + 1);
    DatasetPtr out = job.engine.RunJob(in, job.udfs, job.explode, job.pair,
                                       KeySpec{job.get_key, false}, job.sum_values,
                                       job.sum_values);
    std::pair<std::vector<uint8_t>, std::vector<std::string>> result;
    result.first = DatasetBytes(out);
    result.second = job.engine.trace()->ScrubbedLines();
    EXPECT_TRUE(JsonChecker(TraceExporter(*job.engine.trace()).ChromeJson()).Valid())
        << "workers=" << workers;
    return result;
  };

  auto reference = run_job(1);
  ASSERT_FALSE(reference.second.empty());
  bool saw_map_stage = false;
  bool saw_reduce_stage = false;
  for (const std::string& line : reference.second) {
    if (line.find("span map ") == 0) {
      saw_map_stage = true;
    }
    if (line.find("span reduce ") == 0) {
      saw_reduce_stage = true;
    }
  }
  EXPECT_TRUE(saw_map_stage);
  EXPECT_TRUE(saw_reduce_stage);

  for (int workers : kWorkerCounts) {
    if (workers == 1) {
      continue;
    }
    auto run = run_job(workers);
    EXPECT_EQ(run.first, reference.first) << "workers=" << workers;
    ASSERT_EQ(run.second.size(), reference.second.size()) << "workers=" << workers;
    for (size_t i = 0; i < run.second.size(); ++i) {
      ASSERT_EQ(run.second[i], reference.second[i]) << "workers=" << workers << " line " << i;
    }
  }
}

// Every Hadoop reduce task's folds run inside fast_path spans, closed around
// each aborted group's slow_path span: the spans never overlap, and fast
// plus slow never exceed the task span (no fold time lands in task_other).
TEST(TraceHadoopTest, ReduceTaskFoldsSitInFastPathSpans) {
  for (int workers : kWorkerCounts) {
    HadoopConfig config = HadoopWith(workers);
    config.engine.observability.trace = true;
    HadoopJob job(config);
    const Function* poisoned = BuildPoisonedSum(&job);  // key 3's group aborts
    DatasetPtr in = job.MakeInput(300);
    job.engine.RunJob(in, job.udfs, job.explode, job.pair, KeySpec{job.get_key, false},
                      poisoned);
    const std::vector<TraceEvent> events = job.engine.trace()->events();

    const TraceEvent* reduce = nullptr;
    for (const TraceEvent& ev : events) {
      if (ev.type == TraceEventType::kStage && std::string(ev.name) == "reduce") {
        reduce = &ev;
      }
    }
    ASSERT_NE(reduce, nullptr) << "workers=" << workers;
    auto inside = [](const TraceEvent& outer, const TraceEvent& ev) {
      return ev.ts_ns >= outer.ts_ns && ev.ts_ns + ev.dur_ns <= outer.ts_ns + outer.dur_ns;
    };
    int tasks = 0;
    int slow_spans = 0;
    for (const TraceEvent& task : events) {
      if (task.type != TraceEventType::kTask || !inside(*reduce, task)) {
        continue;
      }
      tasks += 1;
      std::vector<const TraceEvent*> paths;
      for (const TraceEvent& ev : events) {
        if ((ev.type == TraceEventType::kFastPath || ev.type == TraceEventType::kSlowPath) &&
            ev.worker == task.worker && ev.task == task.task && ev.attempt == task.attempt &&
            inside(task, ev)) {
          paths.push_back(&ev);
        }
      }
      std::sort(paths.begin(), paths.end(),
                [](const TraceEvent* x, const TraceEvent* y) { return x->ts_ns < y->ts_ns; });
      int64_t covered = 0;
      int fast = 0;
      for (size_t i = 0; i < paths.size(); ++i) {
        covered += paths[i]->dur_ns;
        fast += paths[i]->type == TraceEventType::kFastPath ? 1 : 0;
        slow_spans += paths[i]->type == TraceEventType::kSlowPath ? 1 : 0;
        if (i + 1 < paths.size()) {
          EXPECT_LE(paths[i]->ts_ns + paths[i]->dur_ns, paths[i + 1]->ts_ns)
              << "overlapping path spans in reduce task " << task.task;
        }
      }
      EXPECT_GE(fast, 1) << "reduce task " << task.task << ", workers=" << workers;
      EXPECT_LE(covered, task.dur_ns) << "reduce task " << task.task;
    }
    EXPECT_EQ(tasks, config.num_reducers) << "workers=" << workers;
    EXPECT_EQ(slow_spans, 1) << "only key 3's group aborts";
  }
}

// ---------------------------------------------------------------------------
// Plan-op profiler: with a sampling stride set, dispatch counts and clock
// samples accumulate into EngineStats::plan_ops — with identical dispatch
// totals for every worker count (sampled nanos are physical, so only counted
// for presence).
// ---------------------------------------------------------------------------

TEST(TracePlanProfilerTest, StrideCollectsDispatchCountsAndSamples) {
  auto run_stage = [](int workers) {
    EngineConfig config = SparkWith(workers);
    config.observability.plan_profile_stride = 8;
    SparkJob job(config);
    DatasetPtr out = job.engine.RunStage(job.MakeInput(400), job.udfs,
                                         {NarrowOp::Map(job.double_value, job.pair)});
    EXPECT_EQ(out->TotalRecords(), 400);
    return job.engine.stats().plan_ops;
  };

  OpProfile reference = run_stage(1);
  EXPECT_GT(reference.total_dispatches(), 0);
  EXPECT_GT(reference.samples, 0);

  OpProfile wide = run_stage(8);
  EXPECT_EQ(wide.total_dispatches(), reference.total_dispatches());
  for (int i = 0; i < OpProfile::kMaxOps; ++i) {
    EXPECT_EQ(wide.dispatches[i], reference.dispatches[i]) << "opcode " << i;
  }
}

TEST(TracePlanProfilerTest, DisabledStrideLeavesProfileEmpty) {
  EngineConfig config = SparkWith(2);
  ASSERT_EQ(config.observability.plan_profile_stride, 0);  // off by default
  SparkJob job(config);
  DatasetPtr out = job.engine.RunStage(job.MakeInput(100), job.udfs,
                                       {NarrowOp::Map(job.double_value, job.pair)});
  ASSERT_EQ(out->TotalRecords(), 100);
  EXPECT_TRUE(job.engine.stats().plan_ops.empty());
}

}  // namespace
}  // namespace gerenuk
