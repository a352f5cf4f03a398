#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>

namespace ppsm::perfbench {

namespace {

constexpr Layer kParent[kNumLayers] = {
    kNumLayers,    // query
    kQuery,        // owner.anonymize
    kQuery,        // cloud.serve
    kServe,        // query_service.queue_wait
    kServe,        // decomposition
    kServe,        // unit_matcher
    kUnitMatcher,  // aux_graph.build
    kServe,        // result_join
    kQuery,        // owner.alg3
};

int64_t Nanos(double ms) { return static_cast<int64_t>(ms * 1e6); }

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case kQuery:
      return "query";
    case kAnonymize:
      return "owner.anonymize";
    case kServe:
      return "cloud.serve";
    case kQueueWait:
      return "query_service.queue_wait";
    case kDecomposition:
      return "decomposition";
    case kUnitMatcher:
      return "unit_matcher";
    case kAuxBuild:
      return "aux_graph.build";
    case kResultJoin:
      return "result_join";
    case kAlg3:
      return "owner.alg3";
    case kNumLayers:
      break;
  }
  return "?";
}

void AddCloudPhases(const CloudQueryStats& stats, int64_t serve_start_ns,
                    QueryTrace& trace) {
  int64_t at = serve_start_ns;
  const auto place = [&](Layer layer, double ms) {
    trace.start_ns[layer] = at;
    trace.dur_ns[layer] = Nanos(ms);
    trace.derived |= 1u << layer;
    at += trace.dur_ns[layer];
  };
  place(kQueueWait, stats.queue_wait_ms);
  place(kDecomposition, stats.decomposition_ms);
  const int64_t match_start = at;
  place(kUnitMatcher, stats.star_matching_ms);
  trace.start_ns[kAuxBuild] = match_start;
  trace.dur_ns[kAuxBuild] =
      std::min(Nanos(stats.aux_build_ms), trace.dur_ns[kUnitMatcher]);
  trace.derived |= 1u << kAuxBuild;
  place(kResultJoin, stats.join_ms);
}

std::array<int64_t, kNumLayers> SelfTimes(const QueryTrace& trace) {
  std::array<int64_t, kNumLayers> self = trace.dur_ns;
  for (int layer = 1; layer < kNumLayers; ++layer) {
    self[kParent[layer]] -= trace.dur_ns[layer];
  }
  return self;
}

Status WriteChromeTrace(const std::vector<QueryTrace>& traces,
                        size_t max_queries, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  const size_t n = std::min(max_queries, traces.size());
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < n; ++i) {
    origin = std::min(origin, traces[i].start_ns[kQuery]);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  out << std::fixed << std::setprecision(3);
  for (size_t i = 0; i < n; ++i) {
    const QueryTrace& trace = traces[i];
    for (int l = 0; l < kNumLayers; ++l) {
      const auto layer = static_cast<Layer>(l);
      if (trace.start_ns[layer] == 0 && trace.dur_ns[layer] == 0) continue;
      out << (first ? "" : ",") << "\n{\"name\":\"" << LayerName(layer)
          << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << trace.client << ",\"ts\":"
          << static_cast<double>(trace.start_ns[layer] - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(trace.dur_ns[layer]) / 1e3
          << ",\"args\":{\"query_id\":" << trace.query_id
          << ",\"parent\":\""
          << (layer == kQuery ? "" : LayerName(kParent[layer]))
          << "\",\"derived\":" << ((trace.derived >> layer) & 1u) << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("failed writing trace: " + path);
  return Status::OK();
}

void PrintLedger(const std::string& workload,
                 const std::vector<QueryTrace>& traces, bool socket,
                 std::ostream& out) {
  struct Row {
    const char* name;
    Layer layer;  // Self time of this span.
    const char* north_star;
    const char* source;
  };
  const Row rows[] = {
      {"owner.anonymize", kAnonymize, "1-2",
       socket ? "inside the server; part of net.wire here"
              : "spanned; Qo encode is inside it"},
      {"query_service.queue_wait", kQueueWait, "-", "CloudQueryStats"},
      {"decomposition", kDecomposition, "3", "CloudQueryStats"},
      {"aux_graph.build", kAuxBuild, "4", "CloudQueryStats"},
      {"unit_matcher", kUnitMatcher, socket ? "5+6" : "5",
       socket ? "CloudQueryStats; shard exchange is inside it"
              : "CloudQueryStats"},
      {"result_join", kResultJoin, "7", "CloudQueryStats"},
      {"cloud.other", kServe, "8",
       "cloud.serve minus its phases: Rin encode + service overhead"},
      {"net.wire", kQuery, "9",
       socket ? "round trip minus server-reported compute"
              : "no wire in process: call overhead only"},
      {"owner.alg3", kAlg3, "10",
       socket ? "server-reported client_ms" : "spanned"},
  };
  double wall_total = 0.0;
  std::vector<std::vector<double>> self_ms(kNumLayers);
  for (const QueryTrace& trace : traces) {
    wall_total += static_cast<double>(trace.dur_ns[kQuery]) / 1e6;
    const auto self = SelfTimes(trace);
    for (int l = 0; l < kNumLayers; ++l) {
      self_ms[l].push_back(static_cast<double>(self[l]) / 1e6);
    }
  }
  out << "\nPer-layer ledger, " << workload << " (" << traces.size()
      << " traced queries; self time = span minus its children)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-26s %-6s %12s %12s %9s  %s\n",
                "layer", "layer#", "self ms mean", "self ms p50", "share",
                "source");
  out << line;
  const char* dominant = "";
  double dominant_share = -1.0;
  for (const Row& row : rows) {
    double sum = 0.0;
    for (const double v : self_ms[row.layer]) sum += v;
    const double mean =
        traces.empty() ? 0.0 : sum / static_cast<double>(traces.size());
    const double share = wall_total > 0.0 ? sum / wall_total : 0.0;
    if (share > dominant_share) {
      dominant_share = share;
      dominant = row.name;
    }
    std::snprintf(line, sizeof(line), "%-26s %-6s %12.4f %12.4f %8.1f%%  %s\n",
                  row.name, row.north_star, mean,
                  Percentile(self_ms[row.layer], 0.5), 100.0 * share,
                  row.source);
    out << line;
  }
  std::snprintf(line, sizeof(line), "dominant layer: %s (%.1f%% of query wall)\n",
                dominant, 100.0 * dominant_share);
  out << line;
  out << "not separable from outside yet: layer 2 (Qo encode) inside "
         "owner.anonymize; layer 6 (shard exchange) inside unit_matcher; "
         "layer 8 (Rin encode) inside cloud.other"
      << (socket ? "; layers 1-2 inside net.wire over the socket" : "")
      << "\n";
}

}  // namespace ppsm::perfbench
