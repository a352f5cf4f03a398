#include "graph/generators.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ppsm {

std::shared_ptr<const Schema> BuildSchemaFor(const DatasetConfig& config) {
  auto schema = std::make_shared<Schema>();
  for (size_t t = 0; t < config.num_types; ++t) {
    const auto type = schema->AddType("type" + std::to_string(t));
    PPSM_CHECK_OK(type);
    for (size_t a = 0; a < config.attributes_per_type; ++a) {
      const auto attr = schema->AddAttribute(
          type.value(), "type" + std::to_string(t) + "/attr" +
                            std::to_string(a));
      PPSM_CHECK_OK(attr);
      for (size_t l = 0; l < config.labels_per_attribute; ++l) {
        const auto label = schema->AddLabel(
            attr.value(), "type" + std::to_string(t) + "/attr" +
                              std::to_string(a) + "/label" +
                              std::to_string(l));
        PPSM_CHECK_OK(label);
      }
    }
  }
  return schema;
}

Result<AttributedGraph> GenerateDataset(const DatasetConfig& config) {
  if (config.num_vertices == 0) {
    return Status::InvalidArgument("num_vertices must be > 0");
  }
  if (config.num_types == 0 || config.attributes_per_type == 0 ||
      config.labels_per_attribute == 0) {
    return Status::InvalidArgument("schema dimensions must be > 0");
  }
  const std::shared_ptr<const Schema> schema = BuildSchemaFor(config);
  Rng rng(config.seed);
  const ZipfDistribution type_dist(config.num_types, config.type_zipf_skew);
  const ZipfDistribution label_dist(config.labels_per_attribute,
                                    config.label_zipf_skew);

  GraphBuilder builder(schema);
  builder.ReserveVertices(config.num_vertices);

  // Vertex attributes: type via Zipf over types, then per attribute of that
  // type one (sometimes two) labels via Zipf over the attribute's labels.
  for (size_t v = 0; v < config.num_vertices; ++v) {
    const auto type = static_cast<VertexTypeId>(type_dist.Sample(rng));
    std::vector<LabelId> labels;
    for (const AttributeId attr : schema->AttributesOfType(type)) {
      const auto& attr_labels = schema->LabelsOfAttribute(attr);
      labels.push_back(attr_labels[label_dist.Sample(rng)]);
      if (rng.Chance(config.multi_label_probability)) {
        labels.push_back(attr_labels[label_dist.Sample(rng)]);
      }
    }
    builder.AddVertex(type, std::move(labels));
  }

  // Preferential attachment: vertex v >= 1 attaches `edges_per_vertex`
  // distinct edges to earlier vertices drawn from the degree-weighted
  // endpoint pool (classic Barabási–Albert construction, which yields the
  // power-law degree distribution of web/social graphs).
  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(config.num_vertices * config.edges_per_vertex * 2);
  endpoint_pool.push_back(0);
  for (VertexId v = 1; v < config.num_vertices; ++v) {
    const size_t want = std::min<size_t>(config.edges_per_vertex, v);
    size_t added = 0;
    size_t attempts = 0;
    while (added < want && attempts < want * 20) {
      ++attempts;
      const VertexId target = endpoint_pool[rng.Below(endpoint_pool.size())];
      if (builder.TryAddEdge(v, target)) {
        endpoint_pool.push_back(target);
        endpoint_pool.push_back(v);
        ++added;
      }
    }
    if (added == 0) {
      // Degenerate fallback so the graph stays connected: link to v-1.
      if (builder.TryAddEdge(v, v - 1)) {
        endpoint_pool.push_back(v - 1);
        endpoint_pool.push_back(v);
      }
    }
  }

  // Uniform random extra edges.
  const auto extra = static_cast<size_t>(
      std::llround(static_cast<double>(builder.NumEdges()) *
                   config.extra_edge_fraction));
  size_t added_extra = 0;
  size_t attempts = 0;
  while (added_extra < extra && attempts < extra * 20 + 100) {
    ++attempts;
    const auto u = static_cast<VertexId>(rng.Below(config.num_vertices));
    const auto v = static_cast<VertexId>(rng.Below(config.num_vertices));
    if (builder.TryAddEdge(u, v)) ++added_extra;
  }

  return builder.Build();
}

DatasetConfig NotreDameLike(double scale) {
  DatasetConfig config;
  config.name = "notredame-like";
  config.num_vertices =
      std::max<size_t>(64, static_cast<size_t>(30000 * scale));
  config.edges_per_vertex = 3;
  config.extra_edge_fraction = 0.1;
  config.num_types = 1;
  config.attributes_per_type = 1;
  config.labels_per_attribute = 200;  // Paper Table 2: 200 labels.
  config.type_zipf_skew = 0.0;
  // Milder skew than the multi-typed presets: with a single type and 200
  // labels, skew 1.0 would put ~19% of all vertices on the head label and
  // query selectivity collapses at bench scales.
  config.label_zipf_skew = 0.85;
  config.multi_label_probability = 0.1;
  config.seed = 20160626;
  return config;
}

DatasetConfig DbpediaLike(double scale) {
  DatasetConfig config;
  config.name = "dbpedia-like";
  config.num_vertices =
      std::max<size_t>(64, static_cast<size_t>(48000 * scale));
  config.edges_per_vertex = 3;
  config.extra_edge_fraction = 0.05;
  // Paper Table 2: 86 types / 101 attributes / 6300 labels. Scaled-down
  // vocabulary keeps per-type label counts comparable.
  config.num_types = 24;
  config.attributes_per_type = 2;
  config.labels_per_attribute = 24;
  config.type_zipf_skew = 0.9;
  config.label_zipf_skew = 1.1;
  config.multi_label_probability = 0.2;
  config.seed = 20160627;
  return config;
}

DatasetConfig Uk2002Like(double scale) {
  DatasetConfig config;
  config.name = "uk2002-like";
  config.num_vertices =
      std::max<size_t>(64, static_cast<size_t>(80000 * scale));
  config.edges_per_vertex = 6;  // Paper: avg degree ~28; densest preset here.
  config.extra_edge_fraction = 0.15;
  config.num_types = 40;
  config.attributes_per_type = 1;
  config.labels_per_attribute = 24;
  config.type_zipf_skew = 0.7;
  config.label_zipf_skew = 0.9;
  config.multi_label_probability = 0.1;
  config.seed = 20160628;
  return config;
}

Result<AttributedGraph> GenerateUniformRandomGraph(size_t num_vertices,
                                                   size_t num_edges,
                                                   size_t num_labels,
                                                   uint64_t seed) {
  if (num_vertices == 0) {
    return Status::InvalidArgument("num_vertices must be > 0");
  }
  const size_t max_edges = num_vertices * (num_vertices - 1) / 2;
  if (num_edges > max_edges) {
    return Status::InvalidArgument("more edges requested than the complete "
                                   "graph holds");
  }
  auto schema = std::make_shared<Schema>();
  const auto type = schema->AddType("t");
  PPSM_CHECK_OK(type);
  const auto attr = schema->AddAttribute(type.value(), "a");
  PPSM_CHECK_OK(attr);
  std::vector<LabelId> universe;
  for (size_t l = 0; l < std::max<size_t>(1, num_labels); ++l) {
    std::string name = "l";
    name += std::to_string(l);
    const auto label = schema->AddLabel(attr.value(), name);
    PPSM_CHECK_OK(label);
    universe.push_back(label.value());
  }

  Rng rng(seed);
  GraphBuilder builder(std::move(schema));
  builder.ReserveVertices(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    std::vector<LabelId> labels{universe[rng.Below(universe.size())]};
    if (rng.Chance(0.3)) labels.push_back(universe[rng.Below(universe.size())]);
    builder.AddVertex(0, std::move(labels));
  }
  while (builder.NumEdges() < num_edges) {
    const auto u = static_cast<VertexId>(rng.Below(num_vertices));
    const auto v = static_cast<VertexId>(rng.Below(num_vertices));
    builder.TryAddEdge(u, v);
  }
  return builder.Build();
}

}  // namespace ppsm
