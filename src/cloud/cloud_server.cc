#include "cloud/cloud_server.h"

#include <numeric>

#include "match/decomposition.h"
#include "match/unit_matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ppsm {

namespace {
/// Setup-time gauges of the hosted index; the query-time ppsm_cloud_*
/// metrics live with the pipeline (cloud/pipeline.cc).
struct IndexMetrics {
  MetricsRegistry::Gauge index_memory_bytes;
  MetricsRegistry::Gauge index_build_ms;
  MetricsRegistry::Gauge hosted_edges;

  static const IndexMetrics& Get() {
    static const IndexMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      IndexMetrics metrics;
      metrics.index_memory_bytes = r.gauge("ppsm_cloud_index_memory_bytes",
                                           "VBV/LBV index footprint");
      metrics.index_build_ms =
          r.gauge("ppsm_cloud_index_build_ms", "Offline index build time");
      metrics.hosted_edges =
          r.gauge("ppsm_cloud_hosted_edges", "|E| of the hosted graph");
      return metrics;
    }();
    return m;
  }
};
}  // namespace

Result<CloudServer> CloudServer::Host(std::span<const uint8_t> package_bytes,
                                      const CloudConfig& config) {
  PPSM_ASSIGN_OR_RETURN(UploadPackage package,
                        UploadPackage::Deserialize(package_bytes));
  return Host(std::move(package), config);
}

Result<CloudServer> CloudServer::Host(UploadPackage package,
                                      const CloudConfig& config) {
  return HostImpl(std::move(package), config, /*slice=*/false);
}

Result<CloudServer> CloudServer::HostSlice(UploadPackage package,
                                           const CloudConfig& config) {
  if (package.IsBaseline()) {
    return Status::InvalidArgument("shard slices require the optimized shape");
  }
  CloudConfig slice_config = config;
  slice_config.plan_cache_entries = 0;
  return HostImpl(std::move(package), slice_config, /*slice=*/true);
}

Result<CloudServer> CloudServer::HostImpl(UploadPackage package,
                                          const CloudConfig& config,
                                          bool slice) {
  CloudServer server(config);
  const size_t num_types = package.num_types;
  const size_t num_groups = package.type_of_group.size();

  size_t num_centers = 0;
  if (package.IsBaseline()) {
    server.baseline_ = true;
    server.data_ = std::move(*package.full_gk);
    num_centers = server.data_.NumVertices();
    server.to_gk_.resize(num_centers);
    std::iota(server.to_gk_.begin(), server.to_gk_.end(), 0);
    // Identity table: k = 1 makes every automorphic function the identity,
    // so the join below degenerates to a plain natural join over Gk.
    server.avt_ = Avt(1, static_cast<uint32_t>(num_centers));
    for (uint32_t v = 0; v < num_centers; ++v) server.avt_.Place(v, 0, v);
    server.stats_ = ComputeGraphStatistics(server.data_, package.k, num_types,
                                           std::move(package.type_of_group));
  } else {
    if (!package.go.has_value() || !package.avt.has_value()) {
      return Status::InvalidArgument("optimized upload lacks Go or AVT");
    }
    if (package.avt->k() != package.k) {
      return Status::InvalidArgument("AVT k disagrees with package k");
    }
    // A shard slice hosts only its part of B1, so its prefix is smaller
    // than the AVT; the full package must cover every AVT row exactly.
    if (slice ? package.go->num_b1 > package.avt->num_rows()
              : package.go->num_b1 != package.avt->num_rows()) {
      return Status::InvalidArgument("Go block size disagrees with AVT rows");
    }
    for (const VertexId gk_id : package.go->to_gk) {
      if (!package.avt->Contains(gk_id)) {
        return Status::InvalidArgument("Go references vertex outside AVT");
      }
    }
    server.stats_ = ComputeGkStatistics(*package.go, num_types,
                                        std::move(package.type_of_group));
    server.hops_ = package.go->hops;
    num_centers = package.go->num_b1;
    server.to_gk_ = std::move(package.go->to_gk);
    server.data_ = std::move(package.go->graph);
    server.avt_ = std::move(*package.avt);
  }

  WallTimer timer;
  {
    PPSM_TRACE_SPAN_CAT("cloud.index_build", "setup");
    PPSM_ASSIGN_OR_RETURN(
        server.index_,
        CloudIndex::Build(server.data_, num_centers, num_types, num_groups,
                          server.num_threads()));
  }
  server.index_build_ms_ = timer.ElapsedMillis();
  const IndexMetrics& metrics = IndexMetrics::Get();
  metrics.index_memory_bytes.Set(
      static_cast<double>(server.index_.MemoryBytes()));
  metrics.index_build_ms.Set(server.index_build_ms_);
  metrics.hosted_edges.Set(static_cast<double>(server.data_.NumEdges()));
  return server;
}

Result<UnitDecomposition> CloudServer::PlanUnits(
    const AttributedGraph& qo) const {
  // Candidate-aware over this server's index, so hub-rooted units with
  // astronomic match sets are avoided.
  return DecomposeQueryUnits(qo, stats_, data_, index_, EffectiveUnitDepth());
}

Result<std::vector<UnitMatches>> CloudServer::MatchUnitRows(
    const AttributedGraph& qo, const UnitDecomposition& plan,
    const UnitMatchOptions& options, CloudQueryStats& /*stats*/) const {
  // MatchUnits spreads the units across the pool workers — star units run
  // MatchStar verbatim, deeper units the scoped backtracker — and chunks
  // each candidate-root loop. Rows come back in hosted (Go-local) ids.
  return MatchUnits(data_, index_, qo, plan.units, options);
}

}  // namespace ppsm
