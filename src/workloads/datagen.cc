#include "src/workloads/datagen.h"

#include <cmath>

namespace gerenuk {

int64_t SyntheticGraph::num_edges() const {
  int64_t total = 0;
  for (const auto& adjacency : out_edges) {
    total += static_cast<int64_t>(adjacency.size());
  }
  return total;
}

SyntheticGraph MakePowerLawGraph(int64_t vertices, int64_t edges, uint64_t seed) {
  GERENUK_CHECK_GE(edges, vertices);
  SyntheticGraph graph;
  graph.num_vertices = vertices;
  graph.out_edges.resize(static_cast<size_t>(vertices));
  Rng rng(seed);
  ZipfSampler popularity(static_cast<uint64_t>(vertices), 1.1);
  // One guaranteed outgoing edge per vertex (no dangling sources), the rest
  // with Zipf-skewed sources and destinations.
  for (int64_t v = 0; v < vertices; ++v) {
    int64_t dst = static_cast<int64_t>(popularity.Sample(rng));
    if (dst == v) {
      dst = (dst + 1) % vertices;
    }
    graph.out_edges[static_cast<size_t>(v)].push_back(dst);
  }
  for (int64_t e = vertices; e < edges; ++e) {
    int64_t src = static_cast<int64_t>(popularity.Sample(rng));
    int64_t dst = static_cast<int64_t>(popularity.Sample(rng));
    if (dst == src) {
      dst = (dst + 1) % vertices;
    }
    graph.out_edges[static_cast<size_t>(src)].push_back(dst);
  }
  return graph;
}

SyntheticPoints MakeClusteredPoints(int64_t count, int dim, int clusters, uint64_t seed) {
  SyntheticPoints points;
  points.dim = dim;
  Rng rng(seed);
  std::vector<std::vector<double>> centers(static_cast<size_t>(clusters));
  for (auto& center : centers) {
    center.resize(static_cast<size_t>(dim));
    for (double& c : center) {
      c = rng.NextDouble(-10.0, 10.0);
    }
  }
  for (int64_t i = 0; i < count; ++i) {
    int c = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(clusters)));
    std::vector<double> value(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      value[static_cast<size_t>(d)] = centers[static_cast<size_t>(c)][static_cast<size_t>(d)] +
                                      rng.NextGaussian();
    }
    points.values.push_back(std::move(value));
    points.true_cluster.push_back(c);
  }
  return points;
}

SyntheticLabeledPoints MakeLabeledPoints(int64_t count, int dim, uint64_t seed) {
  SyntheticLabeledPoints points;
  points.dim = dim;
  Rng rng(seed);
  for (int64_t i = 0; i < count; ++i) {
    double label = rng.NextDouble() < 0.5 ? 0.0 : 1.0;
    double shift = label == 0.0 ? -1.0 : 1.0;
    std::vector<double> feature(static_cast<size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      feature[static_cast<size_t>(d)] = shift + rng.NextGaussian();
    }
    points.features.push_back(std::move(feature));
    points.labels.push_back(label);
  }
  return points;
}

std::vector<SyntheticPost> MakePosts(int64_t count, int64_t users, int topics, uint64_t seed) {
  std::vector<SyntheticPost> posts;
  posts.reserve(static_cast<size_t>(count));
  Rng rng(seed);
  ZipfSampler user_activity(static_cast<uint64_t>(users), 1.2);
  ZipfSampler vocab(2000, 1.05);
  for (int64_t i = 0; i < count; ++i) {
    SyntheticPost post;
    post.user_id = static_cast<int64_t>(user_activity.Sample(rng));
    post.topic = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(topics)));
    post.score = static_cast<int32_t>(rng.NextBounded(100)) - 10;  // some negatives (spam-ish)
    int words = 4 + static_cast<int>(rng.NextBounded(12));
    for (int w = 0; w < words; ++w) {
      if (w > 0) {
        post.text += ' ';
      }
      post.text += 'w' + std::to_string(vocab.Sample(rng));
    }
    posts.push_back(std::move(post));
  }
  return posts;
}

std::vector<std::string> MakeTextLines(int64_t lines, int words_per_line, int vocabulary,
                                       uint64_t seed) {
  std::vector<std::string> result;
  result.reserve(static_cast<size_t>(lines));
  Rng rng(seed);
  ZipfSampler vocab(static_cast<uint64_t>(vocabulary), 1.05);
  for (int64_t i = 0; i < lines; ++i) {
    std::string line;
    for (int w = 0; w < words_per_line; ++w) {
      if (w > 0) {
        line += ' ';
      }
      line += "term" + std::to_string(vocab.Sample(rng));
    }
    result.push_back(std::move(line));
  }
  return result;
}

}  // namespace gerenuk
