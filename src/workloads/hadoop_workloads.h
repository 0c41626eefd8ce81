// The Hadoop benchmark programs of §4.2 (Table 2), adapted from the
// StackOverflow-sourced MapReduce programs the paper uses:
//   IUF — Inactive Users Filtering        (per-user activity counts)
//   UAH — Active User Activity Histogram  (histogram over per-user counts)
//   SPF — Spam Posts Filtering            (suspicious posts per user)
//   UED — User Engagement Distribution    (posts per score bucket)
//   CED — Community Expert Detection      (top scorer per topic)
//   IMC — In-Map Combiner                 (word count with combiner)
//   TFC — Term Frequency Calculation      (word count over documents)
// The first five run over StackOverflow-like posts; IMC and TFC over
// Wikipedia-like text.
#ifndef SRC_WORKLOADS_HADOOP_WORKLOADS_H_
#define SRC_WORKLOADS_HADOOP_WORKLOADS_H_

#include <string>
#include <vector>

#include "src/mapreduce/hadoop.h"
#include "src/workloads/datagen.h"
#include "src/workloads/spark_workloads.h"  // for WorkloadResult

namespace gerenuk {

class HadoopWorkloads {
 public:
  explicit HadoopWorkloads(HadoopEngine& engine);

  DatasetPtr MakePostInput(const std::vector<SyntheticPost>& posts);
  DatasetPtr MakeTextInput(const std::vector<std::string>& lines);

  WorkloadResult RunIuf(const DatasetPtr& posts);  // user -> activity count
  WorkloadResult RunUah(const DatasetPtr& posts);  // activity bucket -> users
  WorkloadResult RunSpf(const DatasetPtr& posts);  // user -> spam post count
  WorkloadResult RunUed(const DatasetPtr& posts);  // score bucket -> posts
  WorkloadResult RunCed(const DatasetPtr& posts);  // topic -> best score
  WorkloadResult RunImc(const DatasetPtr& text);   // word count w/ combiner
  WorkloadResult RunTfc(const DatasetPtr& text);   // word count, no combiner

  HadoopEngine& engine() { return engine_; }
  const SerProgram& udfs() const { return udfs_; }

  const Klass* post;
  const Klass* doc;
  const Klass* user_count;
  const Klass* topic_score;
  const Klass* word_count;

 private:
  WorkloadResult RunCountJob(const std::string& name, const DatasetPtr& input,
                             const Function* map_fn, bool with_combiner);

  HadoopEngine& engine_;
  SerProgram udfs_;

  const Function* iuf_map_;
  const Function* spf_map_;
  const Function* ued_map_;
  const Function* uc_key_;
  const Function* uc_sum_;
  const Function* ced_map_;
  const Function* ts_key_;
  const Function* ts_max_;
  const Function* tokenize_;
  const Function* wc_key_;
  const Function* wc_sum_;
};

}  // namespace gerenuk

#endif  // SRC_WORKLOADS_HADOOP_WORKLOADS_H_
