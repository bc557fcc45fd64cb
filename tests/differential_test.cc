// Differential conformance loop: randomized graphs cross-checked across
// algorithms, chunk counts, parameter binding and the resource governor,
// and universal (N) seed sets against a brute-force oracle. Every run
// prints its seed; reproduce a failure with
//   EQL_DIFF_SEED=<seed> ctest -R differential
// Iteration counts are deliberately small — this is a regression net, the
// open-ended exploration lives in fuzz/.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctp/algorithm.h"
#include "ctp/parallel.h"
#include "eval/engine.h"
#include "eval/params.h"
#include "test_util.h"

namespace eql {
namespace {

uint64_t DiffSeed() {
  static const uint64_t seed = [] {
    uint64_t s = 20230807;  // default: fixed, so CI is deterministic
    if (const char* env = std::getenv("EQL_DIFF_SEED")) {
      s = std::strtoull(env, nullptr, 10);
    }
    std::printf("[ differential ] EQL_DIFF_SEED=%llu\n",
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

bool IsSubset(const CanonicalResults& part, const CanonicalResults& full) {
  for (const auto& es : part) {
    if (full.count(es) == 0) return false;
  }
  return true;
}

CanonicalResults ParallelCanonical(const ParallelCtpOutcome& out) {
  CanonicalResults set;
  for (const auto& r : out.results) set.insert(out.arena.EdgeSet(r.tree));
  return set;
}

TEST(DifferentialTest, AlgorithmsAgreeOnRandomGraphs) {
  Rng rng(DiffSeed());
  for (int iter = 0; iter < 3; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Graph g = MakeRandomGraph(9 + iter, 13 + 2 * iter, &rng);
    auto sets = PickSeedSets(g, 2 + (iter % 2), 2, &rng);
    auto bft = RunAlgo(AlgorithmKind::kBft, g, sets);
    ASSERT_NE(bft, nullptr);
    const CanonicalResults oracle = Canonical(bft->results());
    // Complete algorithms must match the exhaustive baseline exactly.
    for (AlgorithmKind kind :
         {AlgorithmKind::kGam, AlgorithmKind::kMoLesp, AlgorithmKind::kBftM,
          AlgorithmKind::kBftAM}) {
      auto run = RunAlgo(kind, g, sets);
      ASSERT_NE(run, nullptr);
      EXPECT_EQ(Canonical(run->results()), oracle) << AlgorithmName(kind);
    }
    // The restricted family never invents results it shouldn't have.
    for (AlgorithmKind kind : {AlgorithmKind::kEsp, AlgorithmKind::kMoEsp,
                               AlgorithmKind::kLesp}) {
      auto run = RunAlgo(kind, g, sets);
      ASSERT_NE(run, nullptr);
      EXPECT_TRUE(IsSubset(Canonical(run->results()), oracle))
          << AlgorithmName(kind);
    }
  }
}

// MAX only bounds which minimal trees are reported, never which trees are
// minimal: a complete algorithm under MAX n must return exactly the
// unbounded exhaustive (BFT) answer restricted to trees of at most n edges,
// and the restricted ESP family a subset of that.
TEST(DifferentialTest, MaxEqualsFilteredUnboundedSearch) {
  Rng rng(DiffSeed() + 5);
  for (int iter = 0; iter < 60; ++iter) {
    const int nodes = 8 + static_cast<int>(rng.Below(6));  // 8..13
    Graph g = MakeRandomGraph(nodes, nodes + static_cast<int>(rng.Below(nodes)),
                              &rng);
    const int m = 2 + static_cast<int>(rng.Below(3));  // 2..4 seed sets
    auto sets = PickSeedSets(g, m, 2, &rng);
    auto bft = RunAlgo(AlgorithmKind::kBft, g, sets);
    ASSERT_NE(bft, nullptr);
    const CanonicalResults unbounded = Canonical(bft->results());
    for (uint32_t max = 1; max <= 5; ++max) {
      SCOPED_TRACE("iteration " + std::to_string(iter) + ", MAX " +
                   std::to_string(max));
      CanonicalResults oracle;
      for (const auto& es : unbounded) {
        if (es.size() <= max) oracle.insert(es);
      }
      CtpFilters filters;
      filters.max_edges = max;
      for (AlgorithmKind kind : {AlgorithmKind::kGam, AlgorithmKind::kMoLesp}) {
        auto run = RunAlgo(kind, g, sets, filters);
        ASSERT_NE(run, nullptr);
        EXPECT_EQ(Canonical(run->results()), oracle) << AlgorithmName(kind);
      }
      for (AlgorithmKind kind : {AlgorithmKind::kEsp, AlgorithmKind::kMoEsp,
                                 AlgorithmKind::kLesp}) {
        auto run = RunAlgo(kind, g, sets, filters);
        ASSERT_NE(run, nullptr);
        EXPECT_TRUE(IsSubset(Canonical(run->results()), oracle))
            << AlgorithmName(kind);
      }
    }
  }
}

// Brute-force answer to a CTP with one universal member N (Section 4.9),
// sharing no code with the search: every edge set of at most `max_edges`
// edges that forms a tree (connected and acyclic, edges taken as
// undirected) holding exactly one node of each explicit set, whose leaves
// are all explicit seed nodes except at most one (N's representative).
// The 0-edge tree counts when one node lies in every explicit set; the
// explicit sets must be disjoint, so that happens only for a single set.
CanonicalResults UniversalOracle(const Graph& g,
                                 const std::vector<std::vector<NodeId>>& sets,
                                 size_t max_edges) {
  const size_t n = g.NumNodes();
  std::vector<int> seed_of(n, -1);  // which explicit set holds a node
  for (size_t i = 0; i < sets.size(); ++i) {
    for (NodeId v : sets[i]) seed_of[v] = static_cast<int>(i);
  }
  CanonicalResults out;
  if (sets.size() == 1) out.insert(std::vector<EdgeId>{});
  std::vector<EdgeId> edges;
  std::vector<int> degree(n), parent(n);
  auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  // Depth-first over ascending edge ids, so each subset is visited once.
  auto check = [&] {
    std::fill(degree.begin(), degree.end(), 0);
    for (size_t v = 0; v < n; ++v) parent[v] = static_cast<int>(v);
    for (EdgeId e : edges) {
      const int a = find(g.Source(e)), b = find(g.Target(e));
      if (a == b) return;  // a cycle (parallel edges included)
      parent[a] = b;
      ++degree[g.Source(e)];
      ++degree[g.Target(e)];
    }
    std::vector<int> hits(sets.size(), 0);
    int root = -1, non_seed_leaves = 0;
    for (size_t v = 0; v < n; ++v) {
      if (degree[v] == 0) continue;
      // Acyclic with |E| edges: one component iff every node shares a root.
      if (root == -1) root = find(static_cast<int>(v));
      if (find(static_cast<int>(v)) != root) return;
      if (seed_of[v] >= 0) {
        ++hits[seed_of[v]];
      } else if (degree[v] == 1) {
        ++non_seed_leaves;
      }
    }
    for (int h : hits) {
      if (h != 1) return;
    }
    if (non_seed_leaves <= 1) out.insert(edges);
  };
  auto extend = [&](auto&& self, EdgeId next) -> void {
    if (!edges.empty()) check();
    if (edges.size() == max_edges) return;
    for (EdgeId e = next; e < g.NumEdges(); ++e) {
      edges.push_back(e);
      self(self, e + 1);
      edges.pop_back();
    }
  };
  extend(extend, 0);
  return out;
}

// Section 4.9's universal set N has no exhaustive baseline in the engine
// (BFT rejects it), so the brute-force oracle above pins it: GAM is exact
// under both queue strategies and at every chunk count, and the restricted
// family never returns a tree outside it.
TEST(DifferentialTest, UniversalSetMatchesBruteForce) {
  Rng rng(DiffSeed() + 6);
  for (int iter = 0; iter < 60; ++iter) {
    const int nodes = 8 + static_cast<int>(rng.Below(6));  // 8..13
    Graph g = MakeRandomGraph(nodes, nodes + static_cast<int>(rng.Below(nodes)),
                              &rng);
    const int k = 1 + static_cast<int>(rng.Below(3));  // 1..3 explicit sets
    const auto explicit_sets = PickSeedSets(g, k, 2, &rng);
    // N goes in at a random position among the explicit sets.
    const size_t at = rng.Below(k + 1);
    auto sets = explicit_sets;
    sets.insert(sets.begin() + at, std::vector<NodeId>{});
    std::vector<bool> universal(sets.size(), false);
    universal[at] = true;
    auto seeds = SeedSets::Make(g, sets, universal);
    ASSERT_TRUE(seeds.ok()) << seeds.status().ToString();
    for (uint32_t max = 1; max <= 4; ++max) {
      SCOPED_TRACE("iteration " + std::to_string(iter) + ", k " +
                   std::to_string(k) + ", MAX " + std::to_string(max));
      const CanonicalResults oracle = UniversalOracle(g, explicit_sets, max);
      CtpFilters filters;
      filters.max_edges = max;
      for (QueueStrategy qs :
           {QueueStrategy::kSingle, QueueStrategy::kPerSatSubset}) {
        auto gam = RunUniversal(g, sets, universal, filters, qs,
                                AlgorithmKind::kGam);
        ASSERT_NE(gam, nullptr);
        EXPECT_EQ(Canonical(gam->results()), oracle)
            << "GAM, queue strategy " << static_cast<int>(qs);
        for (AlgorithmKind kind :
             {AlgorithmKind::kEsp, AlgorithmKind::kMoEsp, AlgorithmKind::kLesp,
              AlgorithmKind::kMoLesp}) {
          auto run = RunUniversal(g, sets, universal, filters, qs, kind);
          ASSERT_NE(run, nullptr);
          EXPECT_TRUE(IsSubset(Canonical(run->results()), oracle))
              << AlgorithmName(kind) << ", queue strategy "
              << static_cast<int>(qs);
        }
      }
      for (unsigned chunks : {1u, 2u, 3u}) {
        ParallelCtpOptions opts;
        opts.num_threads = chunks;
        opts.algorithm = AlgorithmKind::kGam;
        opts.queue_strategy = QueueStrategy::kPerSatSubset;
        auto out = EvaluateCtpParallel(g, *seeds, filters, opts);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        EXPECT_EQ(ParallelCanonical(*out), oracle) << chunks << " chunks";
      }
    }
  }
}

TEST(DifferentialTest, ChunkCountNeverChangesTheAnswer) {
  Rng rng(DiffSeed() + 1);
  Graph g = MakeRandomGraph(12, 18, &rng);
  // A wide first set so up to 4 chunks are actually possible.
  std::vector<std::vector<NodeId>> sets = {{0, 1, 2, 3}, {4}, {5}};
  auto seeds = SeedSets::Of(g, sets);
  ASSERT_TRUE(seeds.ok());
  auto sequential = RunAlgo(AlgorithmKind::kGam, g, sets);
  ASSERT_NE(sequential, nullptr);
  const CanonicalResults oracle = Canonical(sequential->results());
  for (unsigned chunks : {1u, 2u, 3u, 4u}) {
    ParallelCtpOptions opts;
    opts.num_threads = chunks;
    opts.algorithm = AlgorithmKind::kGam;
    auto out = EvaluateCtpParallel(g, *seeds, {}, opts);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(ParallelCanonical(*out), oracle) << chunks << " chunks";
  }
}

TEST(DifferentialTest, InlineAndParamQueriesMatch) {
  Rng rng(DiffSeed() + 3);
  Graph g = MakeRandomGraph(14, 24, &rng);
  EqlEngine engine(g);
  auto inline_r = engine.Run(
      "SELECT ?t WHERE { CONNECT (\"n0\", \"n2\" -> ?t) MAX 4 LIMIT 20 }");
  ASSERT_TRUE(inline_r.ok()) << inline_r.status().ToString();
  auto prepared = engine.Prepare(
      "SELECT ?t WHERE { CONNECT ($a, $b -> ?t) MAX $m LIMIT 20 }");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ParamMap params;
  params.Set("a", "n0").Set("b", "n2").Set("m", static_cast<int64_t>(4));
  auto bound_r = prepared->Execute(params);
  ASSERT_TRUE(bound_r.ok()) << bound_r.status().ToString();
  ASSERT_EQ(inline_r->table.NumRows(), bound_r->table.NumRows());
  for (size_t i = 0; i < inline_r->table.NumRows(); ++i) {
    EXPECT_EQ(inline_r->RowToString(g, i), bound_r->RowToString(g, i));
  }
}

TEST(DifferentialTest, GovernorOffAndGenerousBudgetMatch) {
  Rng rng(DiffSeed() + 4);
  Graph g = MakeRandomGraph(14, 24, &rng);
  EqlEngine engine(g);
  auto prepared =
      engine.Prepare("SELECT ?t WHERE { CONNECT (\"n0\", \"n3\" -> ?t) }");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto off = prepared->Execute();
  ASSERT_TRUE(off.ok());
  ExecOptions generous;
  generous.memory_budget_bytes = 1ull << 30;
  auto on = prepared->Execute({}, generous);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->outcome, SearchOutcome::kOk);
  ASSERT_EQ(on->table.NumRows(), off->table.NumRows());
  for (size_t i = 0; i < on->table.NumRows(); ++i) {
    EXPECT_EQ(on->RowToString(g, i), off->RowToString(g, i));
  }
  ASSERT_EQ(on->ctp_runs.size(), off->ctp_runs.size());
  for (size_t i = 0; i < on->ctp_runs.size(); ++i) {
    // Identical work, and the accounting is visible only when governed.
    EXPECT_EQ(on->ctp_runs[i].stats.trees_built,
              off->ctp_runs[i].stats.trees_built);
    EXPECT_GT(on->ctp_runs[i].stats.memory_bytes_peak, 0u);
    EXPECT_EQ(off->ctp_runs[i].stats.memory_bytes_peak, 0u);
  }
}

}  // namespace
}  // namespace eql
