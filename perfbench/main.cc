// The repository benchmark binary. One workload per invocation:
//
//   ppsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// It generates the workload's inputs from --seed, sets the deployment up
// several times (setup_s is the median), answers every pool pattern once and
// checks it against the brute-force ground truth, then runs four closed-loop
// clients for S seconds, checking every reply again. With --trace 0 the last
// stdout line is the end-to-end metrics; with --trace 1 the run is split into
// an untraced and a traced half, the per-layer ledger is printed, a
// Chrome-trace JSON is written under .bench_build/traces/, and the last line
// is the per-layer metrics. perfbench/README.md documents every metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "ledger.h"
#include "match/subgraph_matcher.h"
#include "net/net_client.h"
#include "net/ppsm_server.h"
#include "net/serving_system.h"
#include "net/wire.h"
#include "obs/query_profile.h"
#include "workloads.h"

namespace ppsm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kClients = 4;
// Traces exported to the Chrome-trace file (the ledger uses every query).
constexpr size_t kExportedTraces = 2000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// Peak resident set of the process so far (Linux reports KiB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool calibrate = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--calibrate") {
      args.calibrate = true;
      --i;
      continue;
    }
    if (i + 1 == argc) return false;
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

// Deterministic per-pattern counters from the verification pass.
struct PatternCounters {
  double response_bytes = 0;
  double frame_bytes = 0;
  double rin_rows = 0;
  double rs_rows = 0;
  double candidates = 0;
  double matches = 0;
  double exchanged_bytes = 0;
  double aux_bytes = 0;
  double intersect_calls = 0;
  double peak_join_rows = 0;  // In TrafficMix: the largest in the pool.
};

// What one client saw in a timed window, or all of them merged.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t in_window = 0;  // Successes that completed before the deadline,
  Clock::time_point last_in_window;  // the last of them at this time.
  std::vector<double> latency_ms;
  std::vector<QueryTrace> traces;
  std::vector<double> anonymize_us;
  std::vector<QueryProfile> profiles;
  uint64_t plan_cache_hits = 0;
};

struct Window : Tally {
  double seconds = 0.0;  // From the start to the last in-window completion.
  // Completions up to the deadline over the time they took. Queries still
  // running at the deadline finish and are checked, but a multi-second one
  // would otherwise stretch the window it is divided by.
  double qps() const { return seconds > 0.0 ? in_window / seconds : 0.0; }
};

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Runs the workload's queries through its path: PpsmSystem::Execute in
// process, or NetClient::Execute against a loopback PpsmServer.
class Deployment {
 public:
  static Result<std::unique_ptr<Deployment>> Start(const WorkloadSpec& spec,
                                                   PpsmSystem system) {
    auto deployment = std::unique_ptr<Deployment>(new Deployment());
    deployment->socket_ = spec.socket;
    if (!spec.socket) {
      deployment->system_.emplace(std::move(system));
      return deployment;
    }
    deployment->serving_ =
        std::make_unique<ServingSystem>(std::move(system));
    PpsmServerOptions options;
    options.worker_threads = kClients;
    PPSM_ASSIGN_OR_RETURN(deployment->server_,
                          PpsmServer::Start(deployment->serving_.get(),
                                            options));
    for (size_t c = 0; c < kClients; ++c) {
      PPSM_ASSIGN_OR_RETURN(
          NetClient client,
          NetClient::Connect("127.0.0.1", deployment->server_->port()));
      deployment->clients_.push_back(std::move(client));
    }
    deployment->pinned_ = deployment->serving_->Pin();
    return deployment;
  }

  ~Deployment() {
    for (NetClient& client : clients_) client.Close();
    if (server_) server_->Stop();
  }

  bool socket() const { return socket_; }

  // One query from client `c`; fills `trace` when non-null.
  QueryResponse Run(size_t c, const QueryRequest& request, QueryTrace* trace,
                    double* anonymize_us) {
    if (trace == nullptr) {
      if (!socket_) return system_->Execute(request);
      Result<QueryResponse> reply = clients_[c].Execute(request);
      return reply.ok() ? std::move(reply).value() : Failed(reply.status());
    }
    return socket_ ? RunSocketTraced(c, request, *trace, *anonymize_us)
                   : RunInProcessTraced(request, *trace, *anonymize_us);
  }

 private:
  Deployment() = default;

  static QueryResponse Failed(Status status) {
    QueryResponse response;
    response.status = std::move(status);
    return response;
  }

  // PpsmSystem::Execute's three layers called one by one, each spanned.
  QueryResponse RunInProcessTraced(const QueryRequest& request,
                                   QueryTrace& trace, double& anonymize_us) {
    const PpsmSystem& system = *system_;
    const auto span = [&](Layer layer, int64_t start) {
      trace.start_ns[layer] = start;
      trace.dur_ns[layer] = NowNs() - start;
    };
    QueryResponse response;
    const int64_t start = NowNs();
    Result<std::vector<uint8_t>> qo =
        system.owner().AnonymizeQueryToRequest(request.pattern);
    span(kAnonymize, start);
    anonymize_us = static_cast<double>(trace.dur_ns[kAnonymize]) / 1e3;
    if (!qo.ok()) return Failed(qo.status());
    const int64_t serve_start = NowNs();
    Result<WireAnswer> answer = system.service().Execute(*qo);
    span(kServe, serve_start);
    if (!answer.ok()) {
      span(kQuery, start);
      return Failed(answer.status());
    }
    response.cloud = answer->stats;
    response.request_bytes = qo->size();
    response.response_bytes = answer->response_payload.size();
    AddCloudPhases(response.cloud, serve_start, trace);
    const int64_t alg3_start = NowNs();
    DataOwner::ClientStats client;
    Result<MatchSet> matches = system.owner().ProcessResponse(
        request.pattern, answer->response_payload, &client);
    span(kAlg3, alg3_start);
    span(kQuery, start);
    trace.query_id = response.cloud.query_id;
    if (!matches.ok()) return Failed(matches.status());
    response.matches = std::move(matches).value();
    response.client_ms = client.total_ms;
    response.client_candidates = client.candidates;
    return response;
  }

  // Over the socket the owner runs inside the server, so only the round
  // trip is timed here; cloud phases and Algorithm 3 come from the reply's
  // server-reported stats. The anonymize step is replayed off the path on
  // this thread against the same owner to give its cost.
  QueryResponse RunSocketTraced(size_t c, const QueryRequest& request,
                                QueryTrace& trace, double& anonymize_us) {
    const int64_t start = NowNs();
    Result<QueryResponse> reply = clients_[c].Execute(request);
    trace.start_ns[kQuery] = start;
    trace.dur_ns[kQuery] = NowNs() - start;
    const int64_t replay = NowNs();
    (void)pinned_->system.owner().AnonymizeQueryToRequest(request.pattern);
    anonymize_us = static_cast<double>(NowNs() - replay) / 1e3;
    if (!reply.ok()) return Failed(reply.status());
    QueryResponse response = std::move(reply).value();
    trace.query_id = response.cloud.query_id;
    // Server-side order inside the round trip: serve, then Algorithm 3;
    // the unattributed remainder (wire, framing, dispatch, anonymize) is
    // the query span's self time.
    const int64_t serve_ns = static_cast<int64_t>(
        (response.cloud.queue_wait_ms + response.cloud.total_ms) * 1e6);
    const int64_t alg3_ns = static_cast<int64_t>(response.client_ms * 1e6);
    const int64_t serve_start =
        start + std::max<int64_t>(0, (trace.dur_ns[kQuery] - serve_ns -
                                      alg3_ns) / 2);
    trace.start_ns[kServe] = serve_start;
    trace.dur_ns[kServe] = serve_ns;
    trace.start_ns[kAlg3] = serve_start + serve_ns;
    trace.dur_ns[kAlg3] = alg3_ns;
    trace.derived |= (1u << kServe) | (1u << kAlg3);
    AddCloudPhases(response.cloud, serve_start, trace);
    return response;
  }

  bool socket_ = false;
  std::optional<PpsmSystem> system_;
  std::unique_ptr<ServingSystem> serving_;
  std::unique_ptr<PpsmServer> server_;
  std::vector<NetClient> clients_;
  std::shared_ptr<const ServingSnapshot> pinned_;
};

bool Verify(const QueryResponse& response, const PoolPattern& entry,
            const AttributedGraph& graph) {
  if (DigestOf(response.matches) == entry.truth) return true;
  // Digest mismatch: compare exactly as sets (duplicates in the reply are
  // not an error on their own).
  MatchSet truth = FindSubgraphMatches(entry.pattern, graph);
  return SameSet(response.matches, std::move(truth));
}

// Four closed-loop clients for `seconds`: each sends its next query only
// after its previous reply arrived, and checks every reply. The clients
// share one cursor into the schedule.
Window RunWindow(Deployment& deployment, const std::vector<PoolPattern>& pool,
                 const std::vector<uint32_t>& schedule,
                 const AttributedGraph& graph, double seconds, bool traced,
                 std::atomic<uint64_t>& cursor) {
  std::vector<Tally> tallies(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      QueryRequest request;
      while (Clock::now() < end) {
        const PoolPattern& entry =
            pool[schedule[cursor++ % schedule.size()]];
        request.pattern = entry.pattern;
        QueryTrace trace;
        trace.client = static_cast<uint32_t>(c);
        double anonymize_us = 0.0;
        const Clock::time_point sent = Clock::now();
        const QueryResponse response = deployment.Run(
            c, request, traced ? &trace : nullptr, &anonymize_us);
        const Clock::time_point received = Clock::now();
        ++tally.attempted;
        if (!response.ok()) {
          ++tally.failed;
          continue;
        }
        tally.latency_ms.push_back(Seconds(sent, received) * 1e3);
        if (received <= end) {
          ++tally.in_window;
          tally.last_in_window = received;
        }
        if (!Verify(response, entry, graph)) ++tally.wrong;
        if (traced) {
          tally.traces.push_back(trace);
          tally.anonymize_us.push_back(anonymize_us);
          tally.profiles.push_back(ToQueryProfile(response.cloud));
          tally.plan_cache_hits += response.cloud.plan_cache_hit ? 1 : 0;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Window window;
  for (const Tally& tally : tallies) {
    window.seconds =
        std::max(window.seconds, Seconds(start, tally.last_in_window));
    window.attempted += tally.attempted;
    window.failed += tally.failed;
    window.wrong += tally.wrong;
    window.in_window += tally.in_window;
    window.plan_cache_hits += tally.plan_cache_hits;
    Append(window.latency_ms, tally.latency_ms);
    Append(window.traces, tally.traces);
    Append(window.anonymize_us, tally.anonymize_us);
    Append(window.profiles, tally.profiles);
  }
  return window;
}

struct Verification {
  uint64_t wrong = 0;
  uint64_t failed = 0;
  std::vector<PatternCounters> counters;  // Per pool pattern.
};

// Answers every pool pattern once through the workload's path, checks it
// against the ground truth and records its exact counters.
Verification VerifyPool(Deployment& deployment,
                        const std::vector<PoolPattern>& pool,
                        const AttributedGraph& graph) {
  std::vector<PatternCounters> counters(pool.size());
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      QueryRequest request;
      for (size_t i = next++; i < pool.size(); i = next++) {
        request.pattern = pool[i].pattern;
        const QueryResponse response =
            deployment.Run(c, request, nullptr, nullptr);
        if (!response.ok()) {
          ++failed;
          std::cerr << "pattern " << pool[i].universe_index << ": "
                    << response.status << "\n";
          continue;
        }
        if (!Verify(response, pool[i], graph)) ++wrong;
        PatternCounters& count = counters[i];
        count.response_bytes = response.response_bytes;
        count.frame_bytes =
            deployment.socket()
                ? 2.0 * kFrameHeaderBytes +
                      SerializeQueryRequest(request).size() +
                      SerializeQueryResponse(response).size()
                : response.request_bytes + response.response_bytes;
        count.rin_rows = response.cloud.result_rows;
        count.rs_rows = response.cloud.rs_size;
        count.candidates = response.client_candidates;
        count.matches = response.matches.NumMatches();
        for (const ShardProfile& shard : response.cloud.shards) {
          count.exchanged_bytes += shard.exchanged_bytes;
        }
        count.aux_bytes = response.cloud.aux_bytes;
        count.intersect_calls = response.cloud.intersect_scalar +
                                response.cloud.intersect_galloping +
                                response.cloud.intersect_simd;
        count.peak_join_rows = response.cloud.peak_join_rows;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return {wrong, failed, std::move(counters)};
}

// Per-query expectation of each exact counter under the traffic mix; the
// peak is the largest over the pool.
PatternCounters TrafficMix(const std::vector<PoolPattern>& pool,
                           const std::vector<PatternCounters>& counters) {
  double total_weight = 0.0;
  for (const PoolPattern& entry : pool) total_weight += entry.weight;
  PatternCounters mix;
  for (size_t i = 0; i < pool.size(); ++i) {
    const PatternCounters& c = counters[i];
    const double w = pool[i].weight / total_weight;
    mix.response_bytes += w * c.response_bytes;
    mix.frame_bytes += w * c.frame_bytes;
    mix.rin_rows += w * c.rin_rows;
    mix.rs_rows += w * c.rs_rows;
    mix.candidates += w * c.candidates;
    mix.matches += w * c.matches;
    mix.exchanged_bytes += w * c.exchanged_bytes;
    mix.aux_bytes += w * c.aux_bytes;
    mix.intersect_calls += w * c.intersect_calls;
    mix.peak_join_rows = std::max(mix.peak_join_rows, c.peak_join_rows);
  }
  return mix;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string StrataPath(const WorkloadSpec& spec) {
  return "perfbench/strata/" + spec.name + ".txt";
}

// Sets the deployment up `repeats` times; returns the last one and the
// wall time of each PpsmSystem::Setup call.
Result<PpsmSystem> SetUp(const WorkloadSpec& spec,
                         const AttributedGraph& graph, size_t repeats,
                         std::vector<double>& setup_s) {
  const SystemConfig config = DeploymentConfig(spec);
  std::optional<PpsmSystem> system;
  for (size_t r = 0; r < repeats; ++r) {
    system.reset();
    AttributedGraph copy = graph;
    const Clock::time_point t0 = Clock::now();
    Result<PpsmSystem> setup =
        PpsmSystem::Setup(std::move(copy), graph.schema(), config);
    setup_s.push_back(Seconds(t0, Clock::now()));
    if (!setup.ok()) return setup.status();
    system.emplace(std::move(setup).value());
  }
  return std::move(*system);
}

// Answers every universe pattern once in process and records its response
// size and query time: the ranking DrawPool stratifies on.
int Calibrate(const WorkloadSpec& spec, const AttributedGraph& graph,
              const std::vector<AttributedGraph>& universe) {
  std::vector<double> setup_s;
  Result<PpsmSystem> system = SetUp(spec, graph, 1, setup_s);
  if (!system.ok()) {
    std::cerr << "setup: " << system.status() << "\n";
    return 1;
  }
  Strata strata;
  strata.digest = UniverseDigest(universe);
  strata.response_bytes.assign(universe.size(), -1);
  strata.query_ms.assign(universe.size(), 0.0);
  // One query at a time, so each time is the pattern's own cost.
  QueryRequest request;
  for (size_t i = 0; i < universe.size(); ++i) {
    request.pattern = universe[i];
    const Clock::time_point sent = Clock::now();
    const QueryResponse response = system->Execute(request);
    strata.query_ms[i] = Seconds(sent, Clock::now()) * 1e3;
    if (response.ok()) {
      strata.response_bytes[i] = static_cast<int64_t>(response.response_bytes);
    } else if (response.status.code() != StatusCode::kResourceExhausted) {
      std::cerr << "pattern " << i << ": " << response.status << "\n";
    }
  }
  const Status written = WriteStrata(StrataPath(spec), strata);
  if (!written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::cout << "wrote " << StrataPath(spec) << "\n";
  return 0;
}

// The per-layer metrics of a traced run (see perfbench/README.md).
std::vector<Metric> LayerMetrics(const Window& plain, const Window& traced,
                                 const PatternCounters& mix,
                                 const SetupStats& setup_stats,
                                 double index_ms) {
  const std::vector<QueryTrace>& traces = traced.traces;
  std::vector<double> serve_ms, alg3_ms, queue_ms, decomposition_ms,
      aux_ms, match_ms, join_ms, other_ms, wire_ms;
  double wall_sum = 0.0, alg3_sum = 0.0, serve_sum = 0.0;
  for (const QueryTrace& trace : traces) {
    const auto self = SelfTimes(trace);
    const auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
    serve_ms.push_back(ms(trace.dur_ns[kServe]));
    alg3_ms.push_back(ms(trace.dur_ns[kAlg3]));
    queue_ms.push_back(ms(trace.dur_ns[kQueueWait]));
    decomposition_ms.push_back(ms(trace.dur_ns[kDecomposition]));
    aux_ms.push_back(ms(trace.dur_ns[kAuxBuild]));
    match_ms.push_back(ms(self[kUnitMatcher]));
    join_ms.push_back(ms(trace.dur_ns[kResultJoin]));
    other_ms.push_back(ms(self[kServe]));
    wire_ms.push_back(ms(self[kQuery]));
    wall_sum += ms(trace.dur_ns[kQuery]);
    alg3_sum += ms(trace.dur_ns[kAlg3]);
    serve_sum += ms(trace.dur_ns[kServe]);
  }
  const CostModelCalibration calibration =
      SummarizeCostModelCalibration(traced.profiles);
  const double n = std::max<double>(1.0, traces.size());
  return {
      {"owner.anonymize_us_p50", Median(traced.anonymize_us), "us"},
      {"owner.alg3_ms_p50", Median(alg3_ms), "ms"},
      {"owner.alg3_ms_p99", Percentile(alg3_ms, 0.99), "ms"},
      {"owner.alg3_share", wall_sum > 0 ? alg3_sum / wall_sum : 0, "ratio"},
      {"owner.alg3_candidates", mix.candidates, "rows"},
      {"owner.alg3_yield",
       mix.candidates > 0 ? mix.matches / mix.candidates : 0, "ratio"},
      {"cloud.serve_ms_p50", Median(serve_ms), "ms"},
      {"cloud.serve_ms_p99", Percentile(serve_ms, 0.99), "ms"},
      {"cloud.share", wall_sum > 0 ? serve_sum / wall_sum : 0, "ratio"},
      {"query_service.queue_wait_ms_p99", Percentile(queue_ms, 0.99), "ms"},
      {"decomposition.ms_p50", Median(decomposition_ms), "ms"},
      {"decomposition.plan_cache_hit_ratio", traced.plan_cache_hits / n,
       "ratio"},
      {"decomposition.star_est_ratio_p50", calibration.star_ratio_p50,
       "ratio"},
      {"aux_graph.build_ms_p50", Median(aux_ms), "ms"},
      {"aux_graph.bytes_mean", mix.aux_bytes, "bytes"},
      {"unit_matcher.ms_p50", Median(match_ms), "ms"},
      {"unit_matcher.rs_rows", mix.rs_rows, "rows"},
      {"unit_matcher.intersect_calls", mix.intersect_calls, "count"},
      {"shard_exchange.bytes", mix.exchanged_bytes, "bytes"},
      {"result_join.ms_p50", Median(join_ms), "ms"},
      {"result_join.ms_p99", Percentile(join_ms, 0.99), "ms"},
      {"result_join.peak_rows_max", mix.peak_join_rows, "rows"},
      {"result_join.rin_rows", mix.rin_rows, "rows"},
      {"result_join.step_est_ratio_p50", calibration.join_ratio_p50,
       "ratio"},
      {"cloud.other_ms_p50", Median(other_ms), "ms"},
      {"net.wire_ms_p50", Median(wire_ms), "ms"},
      {"net.frame_bytes", mix.frame_bytes, "bytes"},
      {"setup.lct_ms", setup_stats.lct_ms, "ms"},
      {"setup.kauto_ms", setup_stats.kauto_ms, "ms"},
      {"setup.go_ms", setup_stats.go_ms, "ms"},
      {"setup.index_ms", index_ms, "ms"},
      {"setup.upload_bytes", static_cast<double>(setup_stats.upload_bytes),
       "bytes"},
      {"trace.overhead_frac",
       plain.qps() > 0 ? 1.0 - traced.qps() / plain.qps() : 0, "ratio"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadSpec& spec = *found;
  std::signal(SIGPIPE, SIG_IGN);
  const Clock::time_point run_start = Clock::now();

  // --- Inputs: the fixed graph and universe, the seed's pool and schedule.
  Result<AttributedGraph> graph_or = GenerateDataset(spec.dataset);
  if (!graph_or.ok()) {
    std::cerr << "dataset: " << graph_or.status() << "\n";
    return 1;
  }
  const AttributedGraph graph = std::move(graph_or).value();
  Result<std::vector<AttributedGraph>> universe = DrawUniverse(spec, graph);
  if (!universe.ok()) {
    std::cerr << "patterns: " << universe.status() << "\n";
    return 1;
  }
  if (args.calibrate) return Calibrate(spec, graph, *universe);

  Result<Strata> strata = ReadStrata(StrataPath(spec));
  const bool stratified = strata.ok() &&
                          strata->digest == UniverseDigest(*universe) &&
                          strata->response_bytes.size() == universe->size();
  const std::string strata_note =
      stratified ? "stratified by " + StrataPath(spec)
                 : "UNSTRATIFIED: " + StrataPath(spec) +
                       " is missing or does not match the universe; rerun "
                       "with --calibrate";
  if (!stratified) std::cerr << "warning: " << strata_note << "\n";
  const std::vector<PoolPattern> pool =
      DrawPool(spec, graph, *universe, stratified ? &*strata : nullptr,
               args.seed, kClients);
  const std::vector<uint32_t> schedule = BuildSchedule(spec, pool, args.seed);
  const double inputs_s = Seconds(run_start, Clock::now());

  // --- Set-up, several times; setup_s is the median.
  std::vector<double> setup_s;
  Result<PpsmSystem> system = SetUp(spec, graph, spec.setup_repeats, setup_s);
  if (!system.ok()) {
    std::cerr << "setup: " << system.status() << "\n";
    return 1;
  }
  const SetupStats setup_stats = system->setup_stats();
  double index_ms = 0.0;
  if (const CloudCluster* cluster = system->cluster()) {
    for (uint32_t s = 0; s < cluster->num_shards(); ++s) {
      index_ms += cluster->shard(s).IndexBuildMillis();
    }
  } else {
    index_ms = system->cloud().IndexBuildMillis();
  }
  Result<std::unique_ptr<Deployment>> started =
      Deployment::Start(spec, std::move(system).value());
  if (!started.ok()) {
    std::cerr << "deployment: " << started.status() << "\n";
    return 1;
  }
  Deployment& deployment = **started;

  // --- Verification pass: every pool pattern once through the workload's
  // path, checked against the ground truth. It also measures the exact
  // counters and warms the caches.
  const Verification verified = VerifyPool(deployment, pool, graph);
  const PatternCounters mix = TrafficMix(pool, verified.counters);
  const double ready_s = Seconds(run_start, Clock::now());

  // --- Timed traffic.
  std::atomic<uint64_t> cursor{0};
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Window plain = RunWindow(deployment, pool, schedule, graph,
                                 untraced_seconds, false, cursor);
  Window traced;
  if (args.trace) {
    traced = RunWindow(deployment, pool, schedule, graph, args.seconds / 2,
                       true, cursor);
  }
  const double peak_rss_mb = PeakRssMb();

  const uint64_t wrong = verified.wrong + plain.wrong + traced.wrong;
  const uint64_t failed = verified.failed + plain.failed + traced.failed;
  const uint64_t attempted =
      pool.size() + plain.attempted + traced.attempted;
  std::cout << "workload " << spec.name << " seed " << args.seed
            << ": |V|=" << graph.NumVertices() << " |E|=" << graph.NumEdges()
            << " k=" << DeploymentConfig(spec).k << " shards=" << spec.num_shards
            << " hops=" << spec.go_hops << " universe=" << universe->size()
            << " pool=" << pool.size() << " schedule=" << schedule.size()
            << " clients=" << kClients << " path="
            << (spec.socket ? "socket" : "in-process") << "\n"
            << "  host: nproc=" << std::thread::hardware_concurrency()
            << " build=" << PPSM_PERFBENCH_BUILD_TYPE
            << " compiler=" << PPSM_PERFBENCH_COMPILER << "\n"
            << "  " << strata_note << "\n"
            << "  inputs+truth " << inputs_s << " s, ready after " << ready_s
            << " s\n";
  std::cout << "queries " << attempted << " (" << pool.size()
            << " verifying, " << plain.attempted << " untraced, "
            << plain.in_window << " of them within " << plain.seconds
            << " s), failed " << failed
            << ", wrong answers " << wrong << ", peak RSS " << peak_rss_mb
            << " MB, setup_s runs";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_qps", plain.qps(), "1/s"},
        {"latency_p50_ms", Percentile(plain.latency_ms, 0.50), "ms"},
        {"latency_p99_ms", Percentile(plain.latency_ms, 0.99), "ms"},
        {"response_bytes_per_query", mix.response_bytes, "bytes"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    metrics = LayerMetrics(plain, traced, mix, setup_stats, index_ms);
    PrintLedger(spec.name, traced.traces, spec.socket, std::cout);
    std::error_code ec;
    std::filesystem::create_directories(".bench_build/traces", ec);
    const std::string path = ".bench_build/traces/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    const Status written =
        WriteChromeTrace(traced.traces, kExportedTraces, path);
    if (written.ok()) {
      std::cout << "chrome trace: " << path << "\n";
    } else {
      std::cerr << "warning: " << written << "\n";
    }
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << ResultJson(wrong == 0 && failed == 0, attempted, failed,
                          metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace ppsm::perfbench

int main(int argc, char** argv) {
  ppsm::perfbench::Args args;
  if (!ppsm::perfbench::ParseArgs(argc, argv, args)) {
    std::cerr << "usage: ppsm_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       ppsm_perfbench --calibrate --workload NAME\n";
    return 2;
  }
  return ppsm::perfbench::Run(args);
}
