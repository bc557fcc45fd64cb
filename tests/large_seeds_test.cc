// Section 4.9: universal (N) seed sets and very large / skewed seed sets
// with per-sat-subset priority queues.
#include <gtest/gtest.h>

#include "gen/kg.h"
#include "test_util.h"

namespace eql {
namespace {

TEST(UniversalSeedTest, TwoSeedUniversalEnumeratesRootedTrees) {
  // Chain of 3 forward edges; S1 = {node 1}, S2 = N. Results: the 1-node
  // tree plus every tree growing from node 1 (each rooted tree is a
  // connection from the seed to "anything").
  Graph g;
  NodeId n0 = g.AddNode("a0");
  NodeId n1 = g.AddNode("a1");
  NodeId n2 = g.AddNode("a2");
  NodeId n3 = g.AddNode("a3");
  g.AddEdge(n0, n1, "t");
  g.AddEdge(n1, n2, "t");
  g.AddEdge(n2, n3, "t");
  g.Finalize();
  CtpFilters f;
  auto algo = RunUniversal(g, {{n0}, {}}, {false, true}, f);
  // Edge sets: {}, {e0}, {e0,e1}, {e0,e1,e2} — one per prefix.
  EXPECT_EQ(algo->results().size(), 4u);
  EXPECT_TRUE(algo->stats().complete);
}

TEST(UniversalSeedTest, MaxEdgesBoundsUniversalExplosion) {
  KgParams p;
  p.num_nodes = 200;
  p.num_edges = 500;
  auto g = MakeSyntheticKg(p);
  ASSERT_TRUE(g.ok());
  CtpFilters f;
  f.max_edges = 2;
  auto algo = RunUniversal(*g, {{0}, {}}, {false, true}, f);
  EXPECT_TRUE(algo->stats().complete);
  for (const auto& r : algo->results().results()) {
    EXPECT_LE(algo->arena().Get(r.tree).NumEdges(), 2u);
  }
  EXPECT_GT(algo->results().size(), 1u);
}

TEST(UniversalSeedTest, LimitBoundsUniversalExplosion) {
  KgParams p;
  p.num_nodes = 500;
  p.num_edges = 1500;
  auto g = MakeSyntheticKg(p);
  ASSERT_TRUE(g.ok());
  CtpFilters f;
  f.limit = 50;
  auto algo = RunUniversal(*g, {{0}, {}}, {false, true}, f);
  EXPECT_EQ(algo->results().size(), 50u);
  EXPECT_TRUE(algo->stats().budget_exhausted);
}

TEST(UniversalSeedTest, ThreeSetsOneUniversal) {
  // S1={A}, S2={B}, S3=N on a path A - x - B: results are trees connecting A
  // and B, each tree node serving as the N match.
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId x = g.AddNode("x");
  NodeId b = g.AddNode("B");
  g.AddEdge(a, x, "t");
  g.AddEdge(x, b, "t");
  g.Finalize();
  CtpFilters f;
  auto algo = RunUniversal(g, {{a}, {b}, {}}, {false, false, true}, f);
  ASSERT_GE(algo->results().size(), 1u);
  // The A-x-B path must be among the results, with the universal member
  // bound to some tree node (the root).
  bool found = false;
  for (const auto& r : algo->results().results()) {
    if (algo->arena().Get(r.tree).NumEdges() == 2) {
      found = true;
      EXPECT_NE(r.seed_of_set[2], kNoNode);
    }
  }
  EXPECT_TRUE(found);
}

TEST(UniversalSeedTest, UniversalWithBftIsUnimplemented) {
  Graph g;
  NodeId a = g.AddNode("A");
  NodeId b = g.AddNode("B");
  g.AddEdge(a, b, "t");
  g.Finalize();
  auto seeds = SeedSets::Make(g, {{a}, {}}, {false, true});
  ASSERT_TRUE(seeds.ok());
  auto algo = CreateCtpAlgorithm(AlgorithmKind::kBft, g, *seeds, {});
  Status st = algo->Run();
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

TEST(MultiQueueTest, SubsetQueuesPreserveResultsOnRandomGraphs) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(42 + seed);
    Graph g = MakeRandomGraph(9, 13, &rng);
    auto sets = PickSeedSets(g, 3, 2, &rng);
    auto single = RunAlgo(AlgorithmKind::kMoLesp, g, sets, {}, nullptr,
                          QueueStrategy::kSingle);
    auto multi = RunAlgo(AlgorithmKind::kMoLesp, g, sets, {}, nullptr,
                         QueueStrategy::kPerSatSubset);
    EXPECT_EQ(Canonical(single->results()), Canonical(multi->results()))
        << "seed " << seed;
  }
}

TEST(MultiQueueTest, SkewedSeedSetsStillComplete) {
  // One tiny set against one huge set (one order of magnitude bigger, as in
  // Section 4.9 (ii)); both strategies must agree with the oracle.
  Rng rng(7);
  Graph g = MakeRandomGraph(40, 60, &rng);
  std::vector<NodeId> big;
  for (NodeId n = 1; n < 33; ++n) big.push_back(n);
  std::vector<std::vector<NodeId>> sets = {{0}, big};
  auto oracle = RunAlgo(AlgorithmKind::kBft, g, sets);
  auto multi = RunAlgo(AlgorithmKind::kMoLesp, g, sets, {}, nullptr,
                       QueueStrategy::kPerSatSubset);
  EXPECT_EQ(Canonical(oracle->results()), Canonical(multi->results()));
}

TEST(MultiQueueTest, FocusesExplorationNearSmallSets) {
  // With per-subset queues, growth around the small set should not be
  // starved by the big set's frontier: with a tree budget too small for the
  // single queue to cross the graph, the multi-queue run still finds the
  // (unique) connection on a long line with a fat far side.
  auto d = MakeLine(2, 30);
  Graph& g = d.graph;
  // The single-queue engine interleaves both ends; per-subset pops from the
  // smaller queue first. On a symmetric line both behave the same, so add
  // heavy branching near seed B only (enlarging its frontier).
  // (Rebuild the graph: MakeLine finalizes it.)
  Graph g2;
  NodeId a = g2.AddNode("A");
  NodeId prev = a;
  std::vector<NodeId> chain;
  for (int i = 0; i < 30; ++i) {
    NodeId n = g2.AddNode("c" + std::to_string(i));
    g2.AddEdge(prev, n, "t");
    prev = n;
    chain.push_back(n);
  }
  NodeId b = g2.AddNode("B");
  g2.AddEdge(prev, b, "t");
  for (int i = 0; i < 40; ++i) {
    NodeId x = g2.AddNode("fan" + std::to_string(i));
    g2.AddEdge(b, x, "t");
  }
  g2.Finalize();
  (void)g;
  CtpFilters f;
  f.max_edges = 32;
  auto multi = RunAlgo(AlgorithmKind::kMoLesp, g2, {{a}, {b}}, f, nullptr,
                       QueueStrategy::kPerSatSubset);
  EXPECT_EQ(multi->results().size(), 1u);
}

}  // namespace
}  // namespace eql
