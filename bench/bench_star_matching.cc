// Reproduces paper Figures 18 & 31 (star matching time) and Figures 19 & 32
// (|RS|, the star-match result-set size) for EFF/RAN/FSIM over
// k in 2..6 and |E(Q)| in {6, 12}. Expected shape: EFF < RAN < FSIM on both
// metrics — the cost-model grouping shrinks every star's candidate set.

#include <iostream>

#include "bench/bench_common.h"

namespace ppsm::bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_star_matching] scale=" << scale
            << " queries/config=" << queries << "\n\n";
  const Method methods[] = {Method::kEff, Method::kRan, Method::kFsim};
  const size_t qsizes[] = {6, 12};

  Table time_table("Figure 18/31: star matching time (ms)",
                   {"dataset", "method", "k=2 q6", "k=2 q12", "k=3 q6",
                    "k=3 q12", "k=4 q6", "k=4 q12", "k=5 q6", "k=5 q12",
                    "k=6 q6", "k=6 q12"});
  Table rs_table("Figure 19/32: |RS| (star match result size)",
                 {"dataset", "method", "k=2 q6", "k=2 q12", "k=3 q6",
                  "k=3 q12", "k=4 q6", "k=4 q12", "k=5 q6", "k=5 q12",
                  "k=6 q6", "k=6 q12"});

  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return;
    }
    for (const Method method : methods) {
      std::vector<std::string> time_row{dataset.name, MethodName(method)};
      std::vector<std::string> rs_row{dataset.name, MethodName(method)};
      for (const uint32_t k : kAllKs) {
        SystemConfig config;
        config.method = method;
        config.k = k;
        auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
        if (!system.ok()) {
          std::cerr << system.status() << "\n";
          return;
        }
        for (const size_t qsize : qsizes) {
          auto agg = RunQueryWorkload(*system, *graph, qsize, queries,
                                      /*seed=*/qsize * 77 + k);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return;
          }
          time_row.push_back(Table::Num(agg->star_matching_ms, 3));
          rs_row.push_back(Table::Num(agg->rs_size, 1));
        }
      }
      time_table.AddRow(time_row);
      rs_table.AddRow(rs_row);
    }
  }
  Emit(time_table, "fig18_star_matching_time");
  Emit(rs_table, "fig19_rs_size");
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  return 0;
}
