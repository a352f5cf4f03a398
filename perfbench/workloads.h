#ifndef PPSM_PERFBENCH_WORKLOADS_H_
#define PPSM_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ppsm_system.h"
#include "graph/attributed_graph.h"
#include "graph/generators.h"
#include "match/match_set.h"
#include "util/status.h"

namespace ppsm::perfbench {

/// Order in which the clients, sharing one cursor, walk the schedule.
enum class ScheduleOrder {
  kShuffled,  // Random order: repeats land at random distances, so the
              // 128-entry LRU plan cache hits on part of the traffic.
  kSpaced,    // Each pattern's repeats evenly spaced: a run of any length
              // holds every pattern in proportion, and a pattern returns
              // only after the rest of the pool ran (no plan-cache hits).
};

/// One named workload: a fixed data graph, the deployment built over it,
/// and the traffic the clients send.
///
/// Traffic comes from a fixed universe of patterns drawn from the graph.
/// Per-query cost is heavy-tailed (a few patterns cost thousands of times
/// the median), so a plain random pool would swing the metrics from seed to
/// seed. Instead the universe is ranked by each pattern's query time and
/// reply size, recorded once in perfbench/strata/<name>.txt; every seed
/// keeps the costliest 2% and the largest-reply 10% of the universe and
/// draws one pattern from each further run of four patterns in time order,
/// weighting it by four. The traffic mix then matches the universe's on
/// every seed.
struct WorkloadSpec {
  std::string name;
  DatasetConfig dataset;  // The graph is fixed; --seed draws the traffic.
  uint32_t num_shards = 1;
  uint32_t go_hops = 1;
  uint64_t universe_seed = 1;
  size_t universe_size = 0;
  size_t min_edges = 4;  // |E(Q)| drawn uniformly in [min_edges, max_edges].
  size_t max_edges = 4;
  /// Universe patterns whose recorded response is larger are left out
  /// (0 = keep all), for workloads aimed at layers other than the big-Rin
  /// tail.
  int64_t max_response_bytes = 0;
  ScheduleOrder order = ScheduleOrder::kShuffled;
  bool socket = false;       // Served by a PpsmServer over loopback.
  size_t setup_repeats = 5;  // Setup() runs; setup_s is their median.
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// The deployment every workload uses: the deployed defaults (EFF, flight
/// recorder on, program tracer off, one matching thread per query), k = 3,
/// and the workload's shard count and Go radius.
SystemConfig DeploymentConfig(const WorkloadSpec& spec);

/// The workload's pattern universe: `universe_size` patterns drawn with the
/// §6.3 random-walk extractor from a fixed seed.
Result<std::vector<AttributedGraph>> DrawUniverse(const WorkloadSpec& spec,
                                                  const AttributedGraph& graph);

/// FNV-1a over the serialized universe: ties a strata file to the exact
/// patterns it ranks.
uint64_t UniverseDigest(const std::vector<AttributedGraph>& universe);

/// Per-pattern response bytes (-1 = refused at the cloud's row cap) and
/// query time of the universe, as recorded in a strata file. Only the rank
/// order of the times matters, so the file carries over between hosts.
struct Strata {
  uint64_t digest = 0;
  std::vector<int64_t> response_bytes;
  std::vector<double> query_ms;
};
Status WriteStrata(const std::string& path, const Strata& strata);
Result<Strata> ReadStrata(const std::string& path);

/// Order-independent digest of a match set: equal row multisets give equal
/// digests. The ground truth is digested after SortDedup, so a reply whose
/// rows are distinct matches it exactly when it is the same set.
struct AnswerDigest {
  uint64_t rows = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;
  bool operator==(const AnswerDigest&) const = default;
};
AnswerDigest DigestOf(const MatchSet& matches);

/// Exact set comparison (sort + dedup both sides); the slow path behind a
/// digest mismatch, so a reply with duplicate rows is judged as a set.
bool SameSet(MatchSet reply, MatchSet truth);

/// A pattern of the seed's pool, its share of the traffic, and its
/// brute-force ground truth R(Q,G).
struct PoolPattern {
  size_t universe_index = 0;
  AttributedGraph pattern;
  uint32_t weight = 1;  // Occurrences per schedule period.
  AnswerDigest truth;
};

/// Draws the seed's pool from the ranked universe (see WorkloadSpec) and
/// computes each pattern's ground truth with FindSubgraphMatches on
/// `threads` threads. Without strata every universe pattern ranks equal,
/// which keeps the run valid but lets the mix vary with the seed.
std::vector<PoolPattern> DrawPool(const WorkloadSpec& spec,
                                  const AttributedGraph& graph,
                                  const std::vector<AttributedGraph>& universe,
                                  const Strata* strata, uint64_t seed,
                                  size_t threads);

/// One schedule period: pool indices, each pattern `weight` times, in the
/// workload's order.
std::vector<uint32_t> BuildSchedule(const WorkloadSpec& spec,
                                    const std::vector<PoolPattern>& pool,
                                    uint64_t seed);

}  // namespace ppsm::perfbench

#endif  // PPSM_PERFBENCH_WORKLOADS_H_
