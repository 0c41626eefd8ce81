// Run options, the result every workload returns, and the order statistics
// the metrics are built from.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // Chrome traces land here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;     // every checked output matched the reference
  int64_t attempted = 0;   // jobs in the measured windows
  int64_t failed = 0;      // failed, refused, or wrong output
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed above the result line

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Counts one checked job.
  void Check(bool ok) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      correct = false;
    }
  }
};

// Nearest-rank percentile, p in [0, 1]; an empty sample reads 0.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
double GeoMean(const std::vector<double>& values);

// Median of `value(job)` over the jobs of each program index below
// `programs`, skipping programs with no job: the per-program figures the
// geomean metrics are taken over.
template <typename Job, typename Value>
std::vector<double> MediansByProgram(const std::vector<Job>& jobs, size_t programs, Value value) {
  std::vector<double> medians;
  for (size_t p = 0; p < programs; ++p) {
    std::vector<double> values;
    for (const Job& job : jobs) {
      if (job.program == p) {
        values.push_back(value(job));
      }
    }
    if (!values.empty()) {
      medians.push_back(Median(std::move(values)));
    }
  }
  return medians;
}

int64_t SteadyNowNs();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
