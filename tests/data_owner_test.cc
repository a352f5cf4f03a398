#include "cloud/data_owner.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "cloud/cloud_server.h"
#include "graph/example_graphs.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "match/result_join.h"
#include "match/subgraph_matcher.h"
#include "util/hash.h"
#include "util/random.h"

namespace ppsm {
namespace {

/// Algorithm 3 the long way, as the owner once ran it: materialize
/// R(Qo,Gk) = Rin ∪ F_1(Rin) ∪ ... (Rin itself for the baseline upload),
/// keep the rows that are injective, free of noise ids, type/label
/// compatible with Q and whose every Q edge is in a hash set of E(G), then
/// sort and dedup. ProcessResponse must equal it byte for byte.
MatchSet ExpandThenFilterOracle(const DataOwner& owner,
                                const AttributedGraph& query,
                                const MatchSet& rin) {
  const AttributedGraph& g = owner.graph();
  std::unordered_set<uint64_t, EdgeKeyHash> edges;
  g.ForEachEdge(
      [&](VertexId u, VertexId v) { edges.insert(UndirectedEdgeKey(u, v)); });
  const MatchSet candidates = owner.IsBaselineUpload()
                                  ? rin
                                  : ExpandByAutomorphisms(rin, owner.kag().avt);
  MatchSet kept(query.NumVertices());
  for (size_t r = 0; r < candidates.NumMatches(); ++r) {
    const auto row = candidates.Get(r);
    bool keep = !MatchSet::HasDuplicateVertices(row);
    for (VertexId q = 0; keep && q < row.size(); ++q) {
      keep = row[q] < owner.kag().num_original_vertices &&
             g.TypesContainAll(row[q], query.Types(q)) &&
             g.LabelsContainAll(row[q], query.Labels(q));
    }
    query.ForEachEdge([&](VertexId a, VertexId b) {
      keep = keep && edges.contains(UndirectedEdgeKey(row[a], row[b]));
    });
    if (keep) kept.Append(row);
  }
  kept.SortDedup();
  return kept;
}

/// Q with the same topology and types but only the first label of each
/// vertex: a less selective query, so Rin carries more rows.
AttributedGraph FirstLabelOnly(const AttributedGraph& query) {
  GraphBuilder builder(query.schema());
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    std::vector<LabelId> labels;
    if (!query.Labels(v).empty()) labels.push_back(query.Labels(v)[0]);
    builder.AddVertex(query.PrimaryType(v), std::move(labels));
  }
  query.ForEachEdge([&](VertexId a, VertexId b) {
    EXPECT_TRUE(builder.AddEdge(a, b).ok());
  });
  return builder.Build().value();
}

/// Owner on DbpediaLike(0.01) plus the cloud it uploads to. Its 480
/// vertices fill a k-automorphic Gk for k in {2, 3, 4} without noise
/// vertices; `num_vertices` = 481 forces some.
struct OwnerAndCloud {
  AttributedGraph graph;
  DataOwner owner;
  CloudServer cloud;
};

OwnerAndCloud MakeOwnerAndCloud(uint32_t k, bool baseline,
                                size_t num_vertices = 480) {
  DatasetConfig config = DbpediaLike(0.01);
  config.num_vertices = num_vertices;
  AttributedGraph g = GenerateDataset(config).value();
  DataOwnerOptions options;
  options.k = k;
  options.baseline_upload = baseline;
  DataOwner owner = DataOwner::Create(g, g.schema(), options).value();
  CloudServer cloud = CloudServer::Host(owner.upload_bytes()).value();
  return {std::move(g), std::move(owner), std::move(cloud)};
}

/// Serves `query` on the cloud and returns the decoded Rin.
MatchSet ServeRin(const OwnerAndCloud& setup, const AttributedGraph& query) {
  const std::vector<uint8_t> request =
      setup.owner.AnonymizeQueryToRequest(query).value();
  const WireAnswer answer = setup.cloud.Serve(request).value();
  return MatchSet::Deserialize(answer.response_payload).value();
}

TEST(DataOwner, SetupStatsPopulated) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok()) << owner.status();
  const SetupStats& stats = owner->setup_stats();
  EXPECT_EQ(stats.gk_vertices, 8u);
  EXPECT_GE(stats.gk_edges, ex.graph.NumEdges());
  EXPECT_EQ(stats.noise_edges, stats.gk_edges - ex.graph.NumEdges());
  EXPECT_GT(stats.upload_bytes, 0u);
  EXPECT_GE(stats.total_ms, 0.0);
  EXPECT_LE(stats.go_edges, stats.gk_edges);
}

TEST(DataOwner, RejectsBadOptions) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 0;
  EXPECT_FALSE(DataOwner::Create(ex.graph, ex.schema, options).ok());
  options.k = 2;
  EXPECT_FALSE(DataOwner::Create(ex.graph, nullptr, options).ok());
}

TEST(DataOwner, AnonymizeQueryUsesGroups) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  auto qo = owner->AnonymizeQuery(ex.query);
  ASSERT_TRUE(qo.ok());
  EXPECT_EQ(qo->NumVertices(), ex.query.NumVertices());
  EXPECT_EQ(qo->NumEdges(), ex.query.NumEdges());
  for (VertexId v = 0; v < qo->NumVertices(); ++v) {
    // Same label count structure, but every label is now a group id.
    for (const LabelId g : qo->Labels(v)) {
      EXPECT_LT(g, owner->lct().NumGroups());
    }
    for (const LabelId l : ex.query.Labels(v)) {
      EXPECT_TRUE(qo->HasLabel(v, owner->lct().GroupOfLabel(l)));
    }
  }
}

TEST(DataOwner, ProcessResponseRejectsWrongArity) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  MatchSet wrong(3);  // Query has 5 vertices.
  EXPECT_FALSE(
      owner->ProcessResponse(ex.query, wrong.Serialize()).ok());
  EXPECT_FALSE(
      owner->ProcessResponse(ex.query, std::vector<uint8_t>{1}).ok());
}

TEST(DataOwner, FilterDropsNoiseAndFalsePositives) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());

  // Hand-craft a "response" containing one genuine match, one fabricated
  // tuple whose edge does not exist in G, and one with a duplicate vertex.
  const MatchSet truth = FindSubgraphMatches(ex.query, ex.graph);
  ASSERT_EQ(truth.NumMatches(), 2u);
  MatchSet response(ex.query.NumVertices());
  response.Append(truth.Get(0));
  std::vector<VertexId> fabricated(truth.Get(0).begin(), truth.Get(0).end());
  fabricated[1] = ex.p4;  // p4 does not work at c1 / graduate from s1.
  response.Append(fabricated);
  std::vector<VertexId> duplicated(truth.Get(0).begin(), truth.Get(0).end());
  duplicated[4] = duplicated[1];
  response.Append(duplicated);

  DataOwner::ClientStats stats;
  auto results =
      owner->ProcessResponse(ex.query, response.Serialize(), &stats);
  ASSERT_TRUE(results.ok()) << results.status();
  // The genuine match survives. Expansion may add its symmetric twin, but
  // that twin contains noise-edge pairs and must be filtered unless it is
  // also genuine — compare against ground truth subset.
  for (size_t r = 0; r < results->NumMatches(); ++r) {
    bool in_truth = false;
    for (size_t t = 0; t < truth.NumMatches(); ++t) {
      if (std::ranges::equal(results->Get(r), truth.Get(t))) in_truth = true;
    }
    EXPECT_TRUE(in_truth);
  }
  EXPECT_GE(results->NumMatches(), 1u);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_EQ(stats.results, results->NumMatches());
}

TEST(DataOwner, BaselineSkipsExpansion) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  EXPECT_TRUE(owner->IsBaselineUpload());

  const MatchSet truth = FindSubgraphMatches(ex.query, ex.graph);
  MatchSet response(ex.query.NumVertices());
  response.Append(truth.Get(0));
  DataOwner::ClientStats stats;
  auto results =
      owner->ProcessResponse(ex.query, response.Serialize(), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.candidates, 1u);  // No automorphic expansion.
  EXPECT_EQ(results->NumMatches(), 1u);
}

TEST(DataOwner, EndToEndAgainstCloudServer) {
  // Owner + server round trip without the facade.
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 3;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  auto server = CloudServer::Host(owner->upload_bytes());
  ASSERT_TRUE(server.ok());

  const RunningExample ex = MakeRunningExample();
  (void)ex;
  // Use a one-edge query over the generated schema.
  GraphBuilder qb(g->schema());
  const VertexId a = qb.AddVertex(
      g->PrimaryType(0),
      std::vector<LabelId>(g->Labels(0).begin(), g->Labels(0).end()));
  const VertexId nb = g->Neighbors(0)[0];
  const VertexId b = qb.AddVertex(
      g->PrimaryType(nb),
      std::vector<LabelId>(g->Labels(nb).begin(), g->Labels(nb).end()));
  ASSERT_TRUE(qb.AddEdge(a, b).ok());
  const AttributedGraph query = qb.Build().value();

  auto request = owner->AnonymizeQueryToRequest(query);
  ASSERT_TRUE(request.ok());
  auto answer = server->Serve(*request);
  ASSERT_TRUE(answer.ok());
  auto results = owner->ProcessResponse(query, answer->response_payload);
  ASSERT_TRUE(results.ok());
  const MatchSet truth = FindSubgraphMatches(query, *g);
  EXPECT_TRUE(MatchSet::EquivalentUnordered(*results, truth));
}

TEST(DataOwner, RejectsRinIdOutsideGk) {
  // Regression: an id past the AVT used to be looked up unchecked by
  // Avt::Apply (an out-of-bounds read, a crash in Release).
  const OwnerAndCloud setup = MakeOwnerAndCloud(3, /*baseline=*/false);
  ASSERT_LT(setup.owner.kag().avt.NumVertices(), 400000000u);
  Rng rng(5);
  const AttributedGraph query = ExtractQuery(setup.graph, 1, rng)->query;
  MatchSet rin(2);
  rin.Append(std::vector<VertexId>{0, 400000000});
  const auto results = setup.owner.ProcessResponse(query, rin.Serialize());
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
}

TEST(DataOwnerAlgorithm3, MatchesExpandThenFilterOracleOnCloudResponses) {
  for (const bool baseline : {false, true}) {
    for (const uint32_t k : {2u, 3u, 4u}) {
      if (baseline && k != 2) continue;
      SCOPED_TRACE(::testing::Message() << "k=" << k << " baseline="
                                        << baseline);
      const OwnerAndCloud setup = MakeOwnerAndCloud(k, baseline);
      const uint32_t images = baseline ? 1 : k;
      Rng rng(40 + k);
      size_t nonempty_rins = 0;
      for (size_t edges = 1; edges <= 4; ++edges) {
        const ExtractedQuery extracted =
            ExtractQuery(setup.graph, edges, rng).value();
        for (const AttributedGraph& query :
             {extracted.query, FirstLabelOnly(extracted.query)}) {
          const MatchSet rin = ServeRin(setup, query);
          nonempty_rins += rin.empty() ? 0 : 1;
          const std::vector<uint8_t> payload = rin.Serialize();
          DataOwner::ClientStats stats;
          const MatchSet fused =
              setup.owner.ProcessResponse(query, payload, &stats).value();
          EXPECT_TRUE(fused == ExpandThenFilterOracle(setup.owner, query, rin));
          MatchSet truth = FindSubgraphMatches(query, setup.graph);
          truth.SortDedup();
          EXPECT_TRUE(fused == truth);
          EXPECT_EQ(stats.candidates, images * rin.NumMatches());
          EXPECT_EQ(stats.results, fused.NumMatches());
        }
      }
      EXPECT_GT(nonempty_rins, 0u);
    }
  }
}

TEST(DataOwnerAlgorithm3, MatchesOracleOnHandMadeRins) {
  // Rins the cloud would not send: every row next to its automorphic twin
  // F_1(row) (so identical survivors must be deduplicated), plus rows with
  // a repeated vertex and rows naming noise vertices.
  for (const uint32_t k : {3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const OwnerAndCloud setup =
        MakeOwnerAndCloud(k, /*baseline=*/false, /*num_vertices=*/481);
    const KAutomorphicGraph& kag = setup.owner.kag();
    ASSERT_GT(kag.NumNoiseVertices(), 0u);
    const VertexId noise = static_cast<VertexId>(kag.num_original_vertices);
    Rng rng(70 + k);
    size_t twin_results = 0;
    for (size_t edges = 1; edges <= 3; ++edges) {
      const AttributedGraph query =
          ExtractQuery(setup.graph, edges, rng).value().query;
      const MatchSet served = ServeRin(setup, query);
      ASSERT_FALSE(served.empty());
      MatchSet rin(query.NumVertices());
      for (size_t r = 0; r < served.NumMatches(); ++r) {
        const auto row = served.Get(r);
        rin.Append(row);
        rin.Append(kag.avt.ApplyToMatch(row, 1));
        std::vector<VertexId> repeated(row.begin(), row.end());
        repeated.back() = repeated.front();
        rin.Append(repeated);
        std::vector<VertexId> noisy(row.begin(), row.end());
        noisy[r % noisy.size()] = noise;
        rin.Append(noisy);
      }
      DataOwner::ClientStats stats;
      const MatchSet fused =
          setup.owner.ProcessResponse(query, rin.Serialize(), &stats).value();
      EXPECT_TRUE(fused == ExpandThenFilterOracle(setup.owner, query, rin));
      // Twins add no new matches: the orbit of a row is the orbit of F_1(row).
      EXPECT_TRUE(fused ==
                  setup.owner.ProcessResponse(query, served.Serialize())
                      .value());
      EXPECT_EQ(stats.candidates, k * rin.NumMatches());
      twin_results += fused.NumMatches();
    }
    // The twins only test dedup if some image survived twice.
    EXPECT_GT(twin_results, 0u);

    // A path a-b-c whose ends share a type and carry no labels: the row
    // (x, y, x) over a real edge x-y passes every check but injectivity.
    const VertexId y = 0;
    const VertexId x = setup.graph.Neighbors(y)[0];
    GraphBuilder qb(setup.graph.schema());
    const VertexId a = qb.AddVertex(setup.graph.PrimaryType(x), {});
    const VertexId b = qb.AddVertex(setup.graph.PrimaryType(y), {});
    const VertexId c = qb.AddVertex(setup.graph.PrimaryType(x), {});
    ASSERT_TRUE(qb.AddEdge(a, b).ok());
    ASSERT_TRUE(qb.AddEdge(b, c).ok());
    const AttributedGraph path = qb.Build().value();
    MatchSet repeated(3);
    repeated.Append(std::vector<VertexId>{x, y, x});
    const auto fused =
        setup.owner.ProcessResponse(path, repeated.Serialize()).value();
    EXPECT_TRUE(fused.empty());
    EXPECT_TRUE(fused == ExpandThenFilterOracle(setup.owner, path, repeated));
  }
}

}  // namespace
}  // namespace ppsm
