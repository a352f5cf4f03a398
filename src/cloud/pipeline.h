#ifndef PPSM_CLOUD_PIPELINE_H_
#define PPSM_CLOUD_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "kauto/avt.h"
#include "match/decomposition.h"
#include "match/unit_matcher.h"
#include "query/query_api.h"
#include "util/intersect.h"
#include "util/status.h"

namespace ppsm {

/// Serving knobs of a hosted cloud, one CloudServer or a whole CloudCluster
/// alike. The shard count is not one of them: it is the deployment's shape
/// (SystemConfig::num_shards, CloudCluster::Host).
struct CloudConfig {
  /// Worker threads for the unit-matching and join phases of one query
  /// (paper §4.2.1: stars are independent). Drawn from the shared
  /// ThreadPool; 0 clamps to 1 (serial).
  size_t num_threads = 1;
  /// Capacity of the decomposition plan cache (LRU over canonical Qo
  /// signatures; see match/decomposition.h QoSignature). 0 disables caching.
  size_t plan_cache_entries = 128;
  /// QueryService admission bound: queries executing simultaneously. Further
  /// arrivals wait in a queue bounded at 2 * max_inflight, beyond which they
  /// are refused with ResourceExhausted. 0 clamps to 1.
  size_t max_inflight = 16;
  /// Per-query wall-clock budget, measured from admission (queue wait
  /// included). Expiry surfaces as Status::DeadlineExceeded. 0 = no deadline.
  uint64_t query_deadline_ms = 0;
  /// Cap on the BFS depth of decomposition units the planner may pick
  /// (match/query_unit.h). 0 = use the hosted graph's full hop radius; 1 =
  /// star-only (the paper's §4.2.1 decomposition, byte-identical plans and
  /// answers). Values above the hosted radius are clamped to it — deeper
  /// units could not be matched completely.
  uint32_t max_unit_depth = 0;
  /// Unit matching via the per-query auxiliary graph + set-intersection
  /// kernels (match/aux_graph.h, util/intersect.h). Rows are byte-identical
  /// either way; off is the A/B reference path.
  bool aux_graph = true;
  /// Intersection kernel for the aux path (kAuto = §5.1 cost model per
  /// step). Output-neutral; exposed for A/B and calibration runs.
  IntersectKernel intersect_kernel = IntersectKernel::kAuto;
};

/// Point-in-time plan-cache accounting for one hosted cloud (the global
/// ppsm_cloud_plan_cache_* metrics aggregate across clouds).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// The cloud's one query pipeline (paper §4.2.1). Serve runs, for every
/// host shape:
///
///   decode Qo -> plan (plan cache, or the ILP over PlanUnits' costs)
///   -> MatchUnitRows -> translate rows to Gk ids -> result join -> Rin
///
/// with the deadline checkpoints, the row-cap refusal, per-query stats and
/// the ppsm_cloud_* metrics in between. A host supplies only the two steps
/// that differ: how unit costs are planned and how unit rows are matched
/// and gathered. CloudServer matches over its own index; CloudCluster
/// matches on every shard and merges the exchanged rows.
///
/// Thread-safety: a hosted pipeline is immutable — Serve is const and any
/// number of threads may call it concurrently (the plan cache is the only
/// shared mutable state and sits behind its own mutex).
class CloudPipeline : public QueryHandler {
 public:
  // Movable, not copyable. Out-of-line because PlanCache is incomplete here.
  ~CloudPipeline() override;
  CloudPipeline(CloudPipeline&&) noexcept;
  CloudPipeline& operator=(CloudPipeline&&) noexcept;

  /// The one query entry point (QueryHandler): evaluates a serialized Qo
  /// under the given context. ctx.stats, when set, is filled on every
  /// return path — failure included.
  Result<WireAnswer> Serve(std::span<const uint8_t> qo_bytes,
                           const QueryContext& ctx = {}) const final;
  ServiceLimits limits() const final {
    return {config_.max_inflight, config_.query_deadline_ms};
  }

  const CloudConfig& config() const { return config_; }
  /// Hit/miss/occupancy counters of this cloud's plan cache.
  PlanCacheStats plan_cache_stats() const;
  uint32_t k() const { return avt_.k(); }

 protected:
  /// Clamps num_threads and max_inflight to >= 1 and allocates the plan
  /// cache when config.plan_cache_entries > 0.
  explicit CloudPipeline(const CloudConfig& config);

  /// Cost-model unit decomposition of Qo (run on a plan-cache miss). Must
  /// be pure in Qo for a given host: its result is memoized by signature.
  virtual Result<UnitDecomposition> PlanUnits(
      const AttributedGraph& qo) const = 0;
  /// Matches `plan.units` and returns one UnitMatches per unit, in plan
  /// order, with rows in the host id space that to_gk_ maps to Gk ids.
  /// `stats` is the query's record (hosts add their own sections).
  virtual Result<std::vector<UnitMatches>> MatchUnitRows(
      const AttributedGraph& qo, const UnitDecomposition& plan,
      const UnitMatchOptions& options, CloudQueryStats& stats) const = 0;

  /// Host row id -> Gk id, applied to every matched row before the join.
  std::vector<VertexId> to_gk_;
  /// The table whose automorphic functions the join expands with.
  Avt avt_;

 private:
  struct PlanCache;  // Mutex + LRU, behind a pointer so the host moves.

  CloudConfig config_;
  std::unique_ptr<PlanCache> plan_cache_;  // Null when caching disabled.
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_PIPELINE_H_
