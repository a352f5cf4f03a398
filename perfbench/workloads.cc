#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "graph/query_extractor.h"
#include "graph/serialize.h"
#include "match/subgraph_matcher.h"
#include "util/random.h"

namespace ppsm::perfbench {

namespace {

constexpr uint32_t kPrivacyK = 3;
// Pool drawing (see WorkloadSpec): the shares of the universe, costliest
// and largest-reply, that every seed keeps, and the run length the rest is
// sampled from. Reply sizes stay heavy-tailed further down the ranking than
// query times do, hence the larger share.
constexpr double kCertainTimeShare = 0.02;
constexpr double kCertainBytesShare = 0.10;
constexpr size_t kSampleEvery = 4;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> specs;

  // Selective, cloud-bound queries over the many-typed knowledge graph:
  // decomposition and unit matching dominate, Algorithm 3 is small. The
  // shuffled schedule repeats patterns at random distances, so the plan
  // cache hits on part of the traffic.
  WorkloadSpec dbp;
  dbp.name = "dbp-selective";
  dbp.dataset = DbpediaLike(1.0);
  dbp.universe_seed = 0xdb9;
  dbp.universe_size = 2048;
  dbp.min_edges = 4;
  dbp.max_edges = 12;
  dbp.order = ScheduleOrder::kShuffled;
  specs.push_back(dbp);

  // One vertex type and 200 Zipf labels: low-selectivity patterns give a
  // large Rin, so the owner's Algorithm 3 and the result join dominate.
  WorkloadSpec nd;
  nd.name = "nd-fanout";
  nd.dataset = NotreDameLike(0.1);
  nd.universe_seed = 0x9d;
  nd.universe_size = 1024;
  nd.min_edges = 4;
  nd.max_edges = 5;
  nd.order = ScheduleOrder::kSpaced;
  nd.setup_repeats = 9;  // Set-up takes ~20 ms here.
  specs.push_back(nd);

  // The denser crawl on two shards with radius-2 Go (path and tree units),
  // served over loopback sockets. Spaced repeats keep every query a
  // plan-cache miss, so the ILP runs each time. The 2.7% of patterns with
  // a reply above 64 KiB are left to nd-fanout: kept here, a few
  // multi-second Algorithm 3 runs would set this workload's throughput.
  WorkloadSpec uk;
  uk.name = "uk-sharded-socket";
  uk.dataset = Uk2002Like(0.25);
  uk.num_shards = 2;
  uk.go_hops = 2;
  uk.universe_seed = 0x02c;
  uk.universe_size = 2048;
  uk.min_edges = 4;
  uk.max_edges = 12;
  uk.max_response_bytes = 64 << 10;
  uk.order = ScheduleOrder::kSpaced;
  uk.socket = true;
  specs.push_back(uk);
  return specs;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = BuildWorkloads();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

SystemConfig DeploymentConfig(const WorkloadSpec& spec) {
  SystemConfig config;
  config.method = Method::kEff;
  config.k = kPrivacyK;
  config.num_shards = spec.num_shards;
  config.go_hops = spec.go_hops;
  config.cloud.num_threads = 1;
  return config;
}

Result<std::vector<AttributedGraph>> DrawUniverse(
    const WorkloadSpec& spec, const AttributedGraph& graph) {
  std::vector<AttributedGraph> universe;
  universe.reserve(spec.universe_size);
  Rng rng(spec.universe_seed);
  const size_t span = spec.max_edges - spec.min_edges + 1;
  for (size_t i = 0; i < spec.universe_size; ++i) {
    const size_t edges = spec.min_edges + rng.Below(span);
    PPSM_ASSIGN_OR_RETURN(ExtractedQuery extracted,
                          ExtractQuery(graph, edges, rng));
    universe.push_back(std::move(extracted.query));
  }
  return universe;
}

uint64_t UniverseDigest(const std::vector<AttributedGraph>& universe) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const AttributedGraph& pattern : universe) {
    for (const uint8_t byte : SerializeGraph(pattern)) {
      hash = (hash ^ byte) * 0x100000001b3ULL;
    }
  }
  return hash;
}

Status WriteStrata(const std::string& path, const Strata& strata) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << "# Response bytes (-1: refused at the row cap) and query ms of each "
         "universe pattern, written by ppsm_perfbench --calibrate.\n"
      << "digest " << std::hex << strata.digest << std::dec << "\n";
  for (size_t i = 0; i < strata.response_bytes.size(); ++i) {
    out << strata.response_bytes[i] << " " << strata.query_ms[i] << "\n";
  }
  out.close();
  if (!out) return Status::Internal("failed writing " + path);
  return Status::OK();
}

Result<Strata> ReadStrata(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("no strata file '" + path + "'");
  Strata strata;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("digest ", 0) == 0) {
      strata.digest = std::stoull(line.substr(7), nullptr, 16);
    } else {
      std::istringstream fields(line);
      int64_t bytes = -1;
      double ms = 0.0;
      if (!(fields >> bytes >> ms)) {
        return Status::InvalidArgument("bad strata line '" + line + "'");
      }
      strata.response_bytes.push_back(bytes);
      strata.query_ms.push_back(ms);
    }
  }
  return strata;
}

AnswerDigest DigestOf(const MatchSet& matches) {
  AnswerDigest digest;
  digest.rows = matches.NumMatches();
  for (size_t r = 0; r < digest.rows; ++r) {
    uint64_t a = 0x9e3779b97f4a7c15ULL;
    uint64_t b = 0x2545f4914f6cdd1dULL;
    for (const VertexId v : matches.Get(r)) {
      a = Mix(a ^ v);
      b = Mix(b + v * 0x100000001b3ULL);
    }
    digest.sum_a += a;
    digest.sum_b += b;
  }
  return digest;
}

bool SameSet(MatchSet reply, MatchSet truth) {
  reply.SortDedup();
  truth.SortDedup();
  return reply == truth;
}

std::vector<PoolPattern> DrawPool(const WorkloadSpec& spec,
                                  const AttributedGraph& graph,
                                  const std::vector<AttributedGraph>& universe,
                                  const Strata* strata, uint64_t seed,
                                  size_t threads) {
  // Rank the universe costliest first; refused patterns, and those above
  // the workload's response cap, are left out.
  std::vector<size_t> ranked;
  for (size_t i = 0; i < universe.size(); ++i) {
    const int64_t bytes = strata ? strata->response_bytes[i] : 0;
    if (bytes >= 0 &&
        (spec.max_response_bytes == 0 || bytes <= spec.max_response_bytes)) {
      ranked.push_back(i);
    }
  }
  if (strata != nullptr) {
    std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
      return strata->query_ms[a] > strata->query_ms[b];
    });
  }
  // The costliest and the largest-reply patterns are in every pool: they
  // carry most of the time and most of the bytes.
  const auto share = [&](double fraction) {
    return static_cast<size_t>(
        std::ceil(fraction * static_cast<double>(ranked.size())));
  };
  std::vector<size_t> by_bytes = ranked;
  if (strata != nullptr) {
    std::stable_sort(by_bytes.begin(), by_bytes.end(), [&](size_t a, size_t b) {
      return strata->response_bytes[a] > strata->response_bytes[b];
    });
  }
  std::vector<char> is_certain(universe.size(), 0);
  for (size_t i = 0; i < share(kCertainTimeShare); ++i) {
    is_certain[ranked[i]] = 1;
  }
  for (size_t i = 0; i < share(kCertainBytesShare); ++i) {
    is_certain[by_bytes[i]] = 1;
  }
  std::vector<PoolPattern> pool;
  const auto add = [&](size_t index, size_t weight) {
    PoolPattern entry;
    entry.universe_index = index;
    entry.pattern = universe[index];
    entry.weight = static_cast<uint32_t>(weight);
    pool.push_back(std::move(entry));
  };
  std::vector<size_t> sampled;
  for (const size_t index : ranked) {
    if (is_certain[index]) {
      add(index, 1);
    } else {
      sampled.push_back(index);
    }
  }
  Rng rng(Mix(seed) ^ Mix(spec.universe_seed));
  for (size_t i = 0; i < sampled.size(); i += kSampleEvery) {
    const size_t run = std::min(kSampleEvery, sampled.size() - i);
    add(sampled[i + rng.Below(run)], run);
  }

  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < pool.size(); i = next++) {
        MatchSet truth = FindSubgraphMatches(pool[i].pattern, graph);
        truth.SortDedup();
        pool[i].truth = DigestOf(truth);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return pool;
}

std::vector<uint32_t> BuildSchedule(const WorkloadSpec& spec,
                                    const std::vector<PoolPattern>& pool,
                                    uint64_t seed) {
  Rng rng(Mix(seed + 0x632be59bd9b4e019ULL));
  std::vector<std::pair<double, uint32_t>> keyed;
  for (uint32_t p = 0; p < pool.size(); ++p) {
    const double offset = rng.NextDouble();
    for (uint32_t j = 0; j < pool[p].weight; ++j) {
      // kSpaced: occurrence j of a pattern with weight n sits at (j + u)/n
      // of the period, u random per pattern.
      keyed.emplace_back(spec.order == ScheduleOrder::kSpaced
                             ? (j + offset) / pool[p].weight
                             : rng.NextDouble(),
                         p);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> schedule;
  schedule.reserve(keyed.size());
  for (const auto& [key, p] : keyed) schedule.push_back(p);
  return schedule;
}

}  // namespace ppsm::perfbench
