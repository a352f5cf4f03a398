#ifndef PPSM_BENCH_BENCH_COMMON_H_
#define PPSM_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "util/status.h"
#include "util/table.h"

namespace ppsm::bench {

/// One benchmark dataset: a paper-analogue preset scaled to bench size.
struct BenchDataset {
  std::string name;  // "Web-NotreDame*", etc. (the * marks the analogue).
  DatasetConfig config;
};

/// The three dataset analogues (paper Table 2), scaled by
/// `scale_multiplier` on top of their preset sizes. The benches default to
/// laptop-friendly sizes; export PPSM_BENCH_SCALE to grow/shrink them.
std::vector<BenchDataset> StandardDatasets(double scale_multiplier);

/// PPSM_BENCH_SCALE (default `def`): multiplies preset dataset sizes.
double ScaleFromEnv(double def = 0.05);
/// PPSM_BENCH_QUERIES (default `def`): queries averaged per configuration
/// (the paper uses 100).
size_t QueriesFromEnv(size_t def = 20);

/// Directory for CSV output (PPSM_BENCH_OUT, default "bench_results");
/// created if missing. Returns "" (and CSVs are skipped) on failure.
std::string OutDir();

/// Prints the table and, if OutDir() is usable, writes `<stem>.csv` there
/// along with `<stem>.metrics.json` — the global MetricsRegistry as flat
/// JSON, so perf PRs can diff where the cloud/network/client time went
/// (set PPSM_BENCH_NO_METRICS=1 to skip the dump).
void Emit(const Table& table, const std::string& stem);

/// Writes the global registry to `<OutDir()>/<stem>.metrics.json`.
void DumpMetricsJson(const std::string& stem);

/// Averaged per-query measurements across a batch of random queries of one
/// size, mirroring the paper's reporting (§6.3: 100 random queries,
/// averaged).
struct QueryAggregates {
  double cloud_ms = 0.0;        // Cloud query evaluation (decomp+match+join).
  double decomposition_ms = 0.0;
  double star_matching_ms = 0.0;
  double join_ms = 0.0;
  double client_ms = 0.0;       // Algorithm 3 on the client.
  double network_ms = 0.0;      // Simulated request+response transfer.
  double total_ms = 0.0;        // End-to-end.
  double rs_size = 0.0;         // |RS| (paper Fig. 19).
  double result_rows = 0.0;     // |Rin| (or |R(Qo,Gk)| for BAS).
  double response_bytes = 0.0;
  double candidates = 0.0;      // |R(Qo,Gk)| examined at the client.
  double final_results = 0.0;   // |R(Q,G)|.
  size_t queries = 0;
  /// Queries the cloud refused with ResourceExhausted (row-cap guard);
  /// excluded from the averages.
  size_t refused = 0;
};

/// Extracts `count` random queries with |E(Q)| = `query_edges` from `graph`
/// and runs them through `system`, averaging the outcome fields.
Result<QueryAggregates> RunQueryWorkload(PpsmSystem& system,
                                         const AttributedGraph& graph,
                                         size_t query_edges, size_t count,
                                         uint64_t seed);

/// All four methods in the paper's presentation order.
inline const Method kAllMethods[] = {Method::kEff, Method::kRan,
                                     Method::kFsim, Method::kBas};
/// The paper's k sweep.
inline const uint32_t kAllKs[] = {2, 3, 4, 5, 6};
/// The paper's query-size sweep.
inline const size_t kAllQuerySizes[] = {4, 6, 8, 10, 12};

}  // namespace ppsm::bench

#endif  // PPSM_BENCH_BENCH_COMMON_H_
