// Reproduces paper Figures 20, 21 & 27: client-side processing time
// (Algorithm 3) — (a) vs |E(Q)| at k=3, (b) vs k at |E(Q)|=6 — for all four
// methods on every dataset. Expected shapes: client time is orders of
// magnitude below cloud time; EFF < RAN/FSIM (fewer candidates), BAS is
// slightly cheaper than EFF at the client only (its cloud already expanded
// R(Qo,Gk)).

#include <iostream>
#include <map>
#include <memory>

#include "bench/bench_common.h"

namespace ppsm::bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_client] scale=" << scale
            << " queries/config=" << queries << "\n\n";

  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return;
    }
    const std::string stem = dataset.name.substr(0, dataset.name.find('*'));

    // (a) vs |E(Q)| at k = 3.
    {
      std::map<int, std::unique_ptr<PpsmSystem>> systems;
      for (const Method method : kAllMethods) {
        SystemConfig config;
        config.method = method;
        config.k = 3;
        auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
        if (!system.ok()) {
          std::cerr << system.status() << "\n";
          return;
        }
        systems[static_cast<int>(method)] =
            std::make_unique<PpsmSystem>(std::move(*system));
      }
      Table table("Figure 20/21/27a: client processing time (ms) on " +
                      dataset.name + ", k=3",
                  {"|E(Q)|", "EFF", "RAN", "FSIM", "BAS"});
      for (const size_t qsize : kAllQuerySizes) {
        std::vector<std::string> row{std::to_string(qsize)};
        for (const Method method : kAllMethods) {
          auto agg =
              RunQueryWorkload(*systems[static_cast<int>(method)], *graph,
                               qsize, queries, /*seed=*/qsize * 31);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return;
          }
          row.push_back(Table::Num(agg->client_ms, 4));
        }
        table.AddRow(row);
      }
      Emit(table, "fig20_client_time_vs_q_" + stem);
    }

    // (b) vs k at |E(Q)| = 6.
    {
      Table table("Figure 20/21/27b: client processing time (ms) on " +
                      dataset.name + ", |E(Q)|=6",
                  {"k", "EFF", "RAN", "FSIM", "BAS"});
      for (const uint32_t k : kAllKs) {
        std::vector<std::string> row{std::to_string(k)};
        for (const Method method : kAllMethods) {
          SystemConfig config;
          config.method = method;
          config.k = k;
          auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
          if (!system.ok()) {
            std::cerr << system.status() << "\n";
            return;
          }
          auto agg = RunQueryWorkload(*system, *graph, 6, queries,
                                      /*seed=*/k * 131);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return;
          }
          row.push_back(Table::Num(agg->client_ms, 4));
        }
        table.AddRow(row);
      }
      Emit(table, "fig20_client_time_vs_k_" + stem);
    }
  }
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  return 0;
}
