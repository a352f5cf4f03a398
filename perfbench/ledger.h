#ifndef PPSM_PERFBENCH_LEDGER_H_
#define PPSM_PERFBENCH_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "query/query_api.h"
#include "util/status.h"

namespace ppsm::perfbench {

/// The layers one query's trace is split into, named after the modules that
/// run them. The tree is fixed:
///
///   query                       top-level call (Execute / NetClient::Execute)
///   ├── owner.anonymize         DataOwner::AnonymizeQueryToRequest
///   ├── cloud.serve             QueryService::Execute
///   │   ├── query_service.queue_wait
///   │   ├── decomposition
///   │   ├── unit_matcher
///   │   │   └── aux_graph.build
///   │   └── result_join
///   └── owner.alg3              DataOwner::ProcessResponse
///
/// Spans under cloud.serve are derived from the CloudQueryStats the reply
/// carries and laid out back to back inside their parent.
enum Layer : uint8_t {
  kQuery,
  kAnonymize,
  kServe,
  kQueueWait,
  kDecomposition,
  kUnitMatcher,
  kAuxBuild,
  kResultJoin,
  kAlg3,
  kNumLayers,
};

const char* LayerName(Layer layer);

/// Nearest-rank percentile of `values`, p in [0, 1]; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// One traced query: start and duration of each layer's span, in
/// nanoseconds on the steady clock (start 0 and duration 0 = absent).
struct QueryTrace {
  uint64_t query_id = 0;
  uint32_t client = 0;
  std::array<int64_t, kNumLayers> start_ns{};
  std::array<int64_t, kNumLayers> dur_ns{};
  /// Bit per layer: the span was derived from server-reported stats rather
  /// than timed around a call in this process.
  uint32_t derived = 0;
};

/// Lays the cloud sub-phases of `stats` out inside the cloud.serve span that
/// starts at `serve_start_ns`: queue wait, decomposition, unit matching (aux
/// build first) and the join, back to back.
void AddCloudPhases(const CloudQueryStats& stats, int64_t serve_start_ns,
                    QueryTrace& trace);

/// Per-layer self time: the span's duration minus its children's.
std::array<int64_t, kNumLayers> SelfTimes(const QueryTrace& trace);

/// Chrome-trace JSON (chrome://tracing, Perfetto) of the first
/// `max_queries` traces, one thread row per client.
Status WriteChromeTrace(const std::vector<QueryTrace>& traces,
                        size_t max_queries, const std::string& path);

/// Per-layer self time and share of the summed query wall time, mapped to
/// the north-star layers 1-10, with the layers that cannot be separated
/// from outside the program named.
void PrintLedger(const std::string& workload,
                 const std::vector<QueryTrace>& traces, bool socket,
                 std::ostream& out);

}  // namespace ppsm::perfbench

#endif  // PPSM_PERFBENCH_LEDGER_H_
