// Reproduces the paper's cloud query-time study:
//  * Figures 14, 15, 25 and 28-30: query response time vs |E(Q)| for each
//    k in 2..6 on all three datasets, methods EFF/RAN/FSIM/BAS;
//  * Figures 16, 17, 26: query response time vs k for |E(Q)| in {6, 12}.
// Expected shapes: EFF < RAN < FSIM << BAS, widening with |E(Q)| and k;
// BAS degrades fastest because it searches all of Gk.

#include <iostream>
#include <map>

#include "bench/bench_common.h"
#include "obs/flight_recorder.h"

namespace ppsm::bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_query_time] scale=" << scale
            << " queries/config=" << queries << "\n\n";

  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return;
    }
    // (k, method, |E(Q)|) -> formatted avg cloud ms ("-" when every query
    // was refused at the row cap; a trailing * marks partial refusals).
    std::map<std::tuple<uint32_t, int, size_t>, std::string> grid;
    for (const uint32_t k : kAllKs) {
      for (const Method method : kAllMethods) {
        SystemConfig config;
        config.method = method;
        config.k = k;
        auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
        if (!system.ok()) {
          std::cerr << system.status() << "\n";
          return;
        }
        for (const size_t qsize : kAllQuerySizes) {
          auto agg = RunQueryWorkload(*system, *graph, qsize, queries,
                                      /*seed=*/qsize * 1000 + k);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return;
          }
          std::string cell = agg->queries == 0
                                 ? "-"
                                 : Table::Num(agg->cloud_ms, 3);
          if (agg->refused > 0 && agg->queries > 0) cell += "*";
          grid[{k, static_cast<int>(method), qsize}] = cell;
        }
      }
    }

    // Figures 14/15/25/28/29/30: one table per k, rows = |E(Q)|.
    const std::string stem = dataset.name.substr(0, dataset.name.find('*'));
    for (const uint32_t k : kAllKs) {
      Table table("Figure 14-15/25/28-30: cloud query time (ms) on " +
                      dataset.name + ", k=" + std::to_string(k),
                  {"|E(Q)|", "EFF", "RAN", "FSIM", "BAS"});
      for (const size_t qsize : kAllQuerySizes) {
        table.AddRowValues(
            qsize, grid[{k, static_cast<int>(Method::kEff), qsize}],
            grid[{k, static_cast<int>(Method::kRan), qsize}],
            grid[{k, static_cast<int>(Method::kFsim), qsize}],
            grid[{k, static_cast<int>(Method::kBas), qsize}]);
      }
      Emit(table, "fig14_query_time_" + stem + "_k" + std::to_string(k));
    }

    // Figures 16/17/26: rows = k, one table per |E(Q)| in {6, 12}.
    for (const size_t qsize : {size_t{6}, size_t{12}}) {
      Table table("Figure 16-17/26: cloud query time (ms) on " +
                      dataset.name + ", |E(Q)|=" + std::to_string(qsize),
                  {"k", "EFF", "RAN", "FSIM", "BAS"});
      for (const uint32_t k : kAllKs) {
        table.AddRowValues(
            k, grid[{k, static_cast<int>(Method::kEff), qsize}],
            grid[{k, static_cast<int>(Method::kRan), qsize}],
            grid[{k, static_cast<int>(Method::kFsim), qsize}],
            grid[{k, static_cast<int>(Method::kBas), qsize}]);
      }
      Emit(table,
           "fig16_query_time_vs_k_" + stem + "_q" + std::to_string(qsize));
    }
  }

  // §5.1 cost-model accuracy over every query the sweep just ran, from the
  // flight recorder's per-star / per-join-step estimate-vs-actual pairs.
  const CostModelCalibration calibration =
      SummarizeCostModelCalibration(FlightRecorder::Global().Recent());
  Table cal("Cost-model calibration ((estimate+1)/(actual+1), 1.0 = exact)",
            {"dimension", "samples", "p50", "p90", "p99", "mean |log2|"});
  cal.AddRowValues("star cardinality", calibration.star_samples,
                   Table::Num(calibration.star_ratio_p50, 3),
                   Table::Num(calibration.star_ratio_p90, 3),
                   Table::Num(calibration.star_ratio_p99, 3),
                   Table::Num(calibration.star_mean_abs_log2, 3));
  cal.AddRowValues("join-step output", calibration.join_samples,
                   Table::Num(calibration.join_ratio_p50, 3),
                   Table::Num(calibration.join_ratio_p90, 3),
                   Table::Num(calibration.join_ratio_p99, 3),
                   Table::Num(calibration.join_mean_abs_log2, 3));
  Emit(cal, "query_time_calibration");
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  return 0;
}
