#ifndef PPSM_CLOUD_CLOUD_SERVER_H_
#define PPSM_CLOUD_CLOUD_SERVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/messages.h"
#include "cloud/pipeline.h"
#include "graph/attributed_graph.h"
#include "match/index.h"
#include "match/statistics.h"
#include "util/status.h"

namespace ppsm {

/// The honest-but-curious cloud. It only ever sees anonymized artifacts:
/// the upload package (Go+AVT, or Gk for the baseline) and per-query Qo
/// graphs whose labels are opaque group ids. Query evaluation is the shared
/// CloudPipeline (§4.2.1); this host plans with the candidate-aware cost
/// model over its own VBV/LBV index and matches units locally. On the
/// optimized path the join expands unit matches with the automorphic
/// functions and returns Rin; the baseline path hosts all of Gk, joins
/// without expansion, and returns R(Qo,Gk).
///
/// Thread-safety: as CloudPipeline — Serve is const and concurrency-safe.
/// Concurrent admission control and batching live in cloud/query_service.h.
class CloudServer : public CloudPipeline {
 public:
  /// Ingests a serialized upload package and builds the offline index.
  static Result<CloudServer> Host(std::span<const uint8_t> package_bytes,
                                  const CloudConfig& config = {});
  /// Same, from an in-memory package (tests).
  static Result<CloudServer> Host(UploadPackage package,
                                  const CloudConfig& config = {});
  /// Hosts one shard's slice of Go (ShardUpload::package) for a
  /// CloudCluster, which serves the queries itself: the slice gets no plan
  /// cache. The slice's B1 prefix is smaller than the full AVT, so the
  /// full-package consistency check num_b1 == avt.num_rows is relaxed to
  /// num_b1 <= avt.num_rows; the index build is the regular one.
  static Result<CloudServer> HostSlice(UploadPackage package,
                                       const CloudConfig& config);

  /// Unit-matching workers per query (config().num_threads, clamped >= 1).
  size_t num_threads() const { return config().num_threads; }

  bool IsBaseline() const { return baseline_; }
  /// Hop radius of the hosted Go (1 for the paper's Go and the baseline).
  uint32_t hops() const { return hops_; }
  /// Deepest decomposition unit the planner may pick on this server: the
  /// hosted radius, tightened by config.max_unit_depth when set.
  uint32_t EffectiveUnitDepth() const {
    uint32_t depth = hops_;
    if (config().max_unit_depth > 0 && config().max_unit_depth < depth) {
      depth = config().max_unit_depth;
    }
    return depth;
  }
  size_t IndexMemoryBytes() const { return index_.MemoryBytes(); }
  double IndexBuildMillis() const { return index_build_ms_; }
  /// Number of vertices the index treats as candidate star centers.
  size_t NumCenters() const { return index_.num_centers(); }
  /// Number of edges stored in the hosted graph (|E(Go)| or |E(Gk)|).
  size_t HostedEdges() const { return data_.NumEdges(); }
  const GkStatistics& statistics() const { return stats_; }
  /// Read access for the cluster coordinator (shard-local matching and the
  /// merged candidate lists run outside this server).
  const AttributedGraph& data() const { return data_; }
  const CloudIndex& index() const { return index_; }

 private:
  explicit CloudServer(const CloudConfig& config) : CloudPipeline(config) {}

  static Result<CloudServer> HostImpl(UploadPackage package,
                                      const CloudConfig& config,
                                      bool slice);

  Result<UnitDecomposition> PlanUnits(
      const AttributedGraph& qo) const override;
  Result<std::vector<UnitMatches>> MatchUnitRows(
      const AttributedGraph& qo, const UnitDecomposition& plan,
      const UnitMatchOptions& options,
      CloudQueryStats& stats) const override;

  bool baseline_ = false;
  uint32_t hops_ = 1;              // Hop radius of the hosted Go.
  AttributedGraph data_;           // Go (compact ids) or Gk.
  CloudIndex index_;
  GkStatistics stats_;
  double index_build_ms_ = 0.0;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CLOUD_SERVER_H_
