// Sharded-cloud tests: a CloudCluster answers byte-identically to the
// unsharded CloudServer at every shard count (the DESIGN.md §13 guarantee),
// shard uploads round-trip through the owner store and re-host to the same
// answers, the exchange meters count real bytes, baseline uploads are
// rejected, and the PpsmSystem facade serves the sharded path end to end —
// including concurrently (run under TSan in CI) and with the same cloud
// metrics as the single server.

#include "cloud/cluster.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/owner_store.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace ppsm {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ppsm_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

uint64_t HistogramCount(const std::string& name) {
  MetricSnapshot snap;
  if (!MetricsRegistry::Global().Find(name, &snap)) return 0;
  return snap.histogram.count;
}

double CounterValue(const std::string& name) {
  MetricSnapshot snap;
  if (!MetricsRegistry::Global().Find(name, &snap)) return 0.0;
  return snap.value;
}

struct Fixture {
  AttributedGraph graph;
  DataOwner owner;
  std::vector<std::vector<uint8_t>> requests;  // Serialized Qo workload.
};

Fixture MakeFixture(uint32_t k, size_t num_queries, uint64_t seed = 11) {
  auto g = GenerateDataset(DbpediaLike(0.01));
  EXPECT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = k;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  EXPECT_TRUE(owner.ok());
  Fixture fx{*std::move(g), *std::move(owner), {}};
  Rng rng(seed);
  for (size_t i = 0; i < num_queries; ++i) {
    auto extracted = ExtractQuery(fx.graph, 3 + i % 5, rng);
    EXPECT_TRUE(extracted.ok());
    auto request = fx.owner.AnonymizeQueryToRequest(extracted->query);
    EXPECT_TRUE(request.ok());
    fx.requests.push_back(*std::move(request));
  }
  return fx;
}

TEST(Cluster, ByteIdenticalToUnshardedAtEveryShardCount) {
  // The acceptance bar of the sharded design: not equivalent-up-to-order
  // but BYTE-identical response payloads, for k=8 and a mixed workload.
  Fixture fx = MakeFixture(/*k=*/8, /*num_queries=*/6);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();

  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), num_shards);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_EQ(cluster->num_shards(), num_shards);
    EXPECT_EQ(cluster->k(), 8u);

    for (const auto& request : fx.requests) {
      auto want = server->Serve(request);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = cluster->Serve(request);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->response_payload, want->response_payload)
          << "shards=" << num_shards;
      // The global plan must be the unsharded plan, star for star.
      EXPECT_EQ(got->stats.num_stars, want->stats.num_stars);
      EXPECT_EQ(got->stats.rs_size, want->stats.rs_size);
      EXPECT_EQ(got->stats.result_rows, want->stats.result_rows);
      ASSERT_EQ(got->stats.stars.size(), want->stats.stars.size());
      for (size_t s = 0; s < want->stats.stars.size(); ++s) {
        EXPECT_EQ(got->stats.stars[s].center, want->stats.stars[s].center);
        EXPECT_EQ(got->stats.stars[s].candidates,
                  want->stats.stars[s].candidates);
        EXPECT_EQ(got->stats.stars[s].rows, want->stats.stars[s].rows);
        EXPECT_EQ(got->stats.stars[s].estimated_rows,
                  want->stats.stars[s].estimated_rows);
      }
      ASSERT_EQ(got->stats.shards.size(), num_shards);
    }
  }
}

TEST(Cluster, ShardUploadsRoundTripThroughTheStore) {
  Fixture fx = MakeFixture(/*k=*/3, /*num_queries=*/4);
  auto plan = fx.owner.BuildShardUploads(/*num_shards=*/4, /*seed=*/7);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->shards.size(), 4u);
  EXPECT_EQ(plan->partitioning.num_parts, 4u);

  const std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(SaveShardUploads(*plan, dir).ok());
  auto reloaded = LoadShardUploads(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  // The partitioner assignment reloads exactly — a cluster re-hosted from
  // the snapshot slices Go the same way the original did.
  EXPECT_EQ(reloaded->partitioning, plan->partitioning);
  ASSERT_EQ(reloaded->shards.size(), plan->shards.size());
  for (size_t s = 0; s < plan->shards.size(); ++s) {
    EXPECT_EQ(reloaded->shards[s].Serialize(), plan->shards[s].Serialize());
  }

  // Re-hosting the reloaded shards merges to the unsharded answers.
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  auto cluster = CloudCluster::HostShards(std::move(reloaded->shards));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  for (const auto& request : fx.requests) {
    auto want = server->Serve(request);
    ASSERT_TRUE(want.ok());
    auto got = cluster->Serve(request);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->response_payload, want->response_payload);
  }
}

TEST(Cluster, ExchangeMetersCountShardTraffic) {
  Fixture fx = MakeFixture(/*k=*/2, /*num_queries=*/3);
  auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), /*num_shards=*/3);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  EXPECT_EQ(cluster->ExchangedBytes(), 0u);
  size_t profiled_bytes = 0;
  for (const auto& request : fx.requests) {
    auto answer = cluster->Serve(request);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_EQ(answer->stats.shards.size(), 3u);
    for (const ShardProfile& shard : answer->stats.shards) {
      if (shard.shard == 0) {
        // The coordinator is colocated with shard 0: no wire hop.
        EXPECT_EQ(shard.exchanged_bytes, 0u);
      } else {
        EXPECT_GT(shard.exchanged_bytes, 0u);
      }
      profiled_bytes += shard.exchanged_bytes;
    }
  }
  // The cluster-lifetime meter agrees with the per-query profiles.
  EXPECT_EQ(cluster->ExchangedBytes(), profiled_bytes);
}

TEST(Cluster, SystemFacadeServesShardedBatchesConcurrently) {
  // End to end through PpsmSystem (owner + channel + service + cluster),
  // with a concurrent batch — the TSan job runs this binary, so the
  // coordinator's merge/exchange path gets checked for data races.
  auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig unsharded_config;
  unsharded_config.k = 2;
  auto unsharded = PpsmSystem::Setup(*g, g->schema(), unsharded_config);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status();

  SystemConfig config = unsharded_config;
  config.num_shards = 4;
  auto sharded = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_NE(sharded->cluster(), nullptr);
  EXPECT_EQ(sharded->cluster()->num_shards(), 4u);
  EXPECT_EQ(unsharded->cluster(), nullptr);

  std::vector<QueryRequest> workload;
  Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i % 4, rng);
    ASSERT_TRUE(extracted.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    request.tag = "q" + std::to_string(i);
    workload.push_back(std::move(request));
  }

  const BatchResult want = unsharded->ExecuteBatch(workload, 4);
  const BatchResult got = sharded->ExecuteBatch(workload, 4);
  ASSERT_EQ(want.summary.succeeded, workload.size());
  ASSERT_EQ(got.summary.succeeded, workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_TRUE(got.responses[i].matches == want.responses[i].matches)
        << "query " << i;
    EXPECT_EQ(got.responses[i].tag, workload[i].tag);
    EXPECT_EQ(got.responses[i].cloud.shards.size(), 4u);
  }
}

TEST(Cluster, ShardedQueriesRecordTheCloudPipelineMetrics) {
  // A sharded query runs the same cloud pipeline as the single server, so
  // a repeated pattern hits the coordinator's plan cache and every phase
  // lands in the ppsm_cloud_* counters and histograms.
  auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.num_shards = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok()) << system.status();
  ASSERT_NE(system->cluster(), nullptr);
  Rng rng(5);
  auto extracted = ExtractQuery(*g, 4, rng);
  ASSERT_TRUE(extracted.ok());
  QueryRequest request;
  request.pattern = extracted->query;

  const double hits_before = CounterValue("ppsm_cloud_plan_cache_hits_total");
  const uint64_t joins_before = HistogramCount("ppsm_cloud_join_ms");
  const uint64_t plans_before = HistogramCount("ppsm_cloud_decomposition_ms");
  const QueryResponse first = system->Execute(request);
  ASSERT_TRUE(first.ok()) << first.status;
  EXPECT_FALSE(first.cloud.plan_cache_hit);
  const QueryResponse second = system->Execute(request);
  ASSERT_TRUE(second.ok()) << second.status;
  EXPECT_TRUE(second.cloud.plan_cache_hit);

  EXPECT_EQ(CounterValue("ppsm_cloud_plan_cache_hits_total"),
            hits_before + 1.0);
  EXPECT_EQ(HistogramCount("ppsm_cloud_join_ms"), joins_before + 2);
  EXPECT_EQ(HistogramCount("ppsm_cloud_decomposition_ms"), plans_before + 2);
  EXPECT_EQ(system->cluster()->plan_cache_stats().hits, 1u);
}

TEST(Cluster, FacadeRejectsShardedBaseline) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.method = Method::kBas;
  config.num_shards = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  EXPECT_FALSE(system.ok());
  EXPECT_EQ(system.status().code(), StatusCode::kInvalidArgument);
}

TEST(Cluster, BaselineUploadsAreRejected) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());

  auto plan = owner->BuildShardUploads(/*num_shards=*/2, /*seed=*/7);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);

  auto cluster = CloudCluster::Host(owner->upload_bytes(), /*num_shards=*/2);
  EXPECT_FALSE(cluster.ok());
}

}  // namespace
}  // namespace ppsm
