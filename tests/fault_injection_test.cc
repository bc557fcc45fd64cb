// Graceful-degradation proofs for the resource governor and the fault
// injector (util/fault.h): every induced failure — memory budget, alloc
// fault, queue-pop fault, mid-emit fault, dropped parallel chunk — must end
// the search cleanly with a well-formed partial result (a subset of the
// un-faulted answer, every tree passing VerifyTreeInvariants), the right
// outcome flag, and nothing stuck or leaking behind it.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctp/algorithm.h"
#include "ctp/parallel.h"
#include "eval/engine.h"
#include "test_util.h"
#include "util/fault.h"

namespace eql {
namespace {

/// RunAlgo with a CtpAlgorithmTuning (the shared helper takes none).
struct TunedRun {
  SeedSets seeds;
  std::unique_ptr<CtpAlgorithm> algo;
};

TunedRun RunTuned(AlgorithmKind kind, const Graph& g,
                  const std::vector<std::vector<NodeId>>& sets,
                  CtpFilters filters, const CtpAlgorithmTuning& tuning) {
  auto seeds = SeedSets::Of(g, sets);
  EXPECT_TRUE(seeds.ok()) << seeds.status().ToString();
  TunedRun run{std::move(seeds).value(), nullptr};
  run.algo = CreateCtpAlgorithm(kind, g, run.seeds, std::move(filters), nullptr,
                                QueueStrategy::kSingle, tuning);
  Status st = run.algo->Run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return run;
}

/// Every result tree of `run` is a well-formed minimal connecting tree.
void ExpectWellFormed(const Graph& g, const TunedRun& run) {
  for (const auto& r : run.algo->results().results()) {
    Status s = VerifyTreeInvariants(g, run.seeds, run.algo->arena(), r.tree,
                                    /*require_minimal=*/true);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

/// True when every element of `part` is in `full`.
bool IsSubset(const CanonicalResults& part, const CanonicalResults& full) {
  return std::all_of(part.begin(), part.end(),
                     [&](const auto& es) { return full.count(es) > 0; });
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small enough that the un-faulted oracle enumerates in well under a
    // second, big enough that every governed run below spans many ~128-op
    // poll batches before natural completion.
    Rng rng(77);
    g_ = MakeRandomGraph(14, 24, &rng);
    sets_ = PickSeedSets(g_, 3, 2, &rng);
    auto oracle = RunAlgo(AlgorithmKind::kGam, g_, sets_);
    ASSERT_NE(oracle, nullptr);
    oracle_ = Canonical(oracle->results());
    ASSERT_GE(oracle_.size(), 2u) << "fixture too small to observe partials";
  }

  /// Seed sets whose largest set is wide enough to split into >= 3 chunks
  /// (PickSeedSets caps at 2 members, which caps the chunk count too).
  std::vector<std::vector<NodeId>> WideSets() const {
    return {{0, 1, 2, 3}, {4}, {5}};
  }

  Graph g_;
  std::vector<std::vector<NodeId>> sets_;
  CanonicalResults oracle_;
};

// ---------------------------------------------------------------------------
// Resource governor.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, TinyMemoryBudgetDegradesGracefully) {
  CtpFilters filters;
  filters.memory_budget_bytes = 1;  // below any real footprint
  auto run = RunTuned(AlgorithmKind::kGam, g_, sets_, filters, {});
  const SearchStats& st = run.algo->stats();
  EXPECT_TRUE(st.memory_budget_hit);
  EXPECT_FALSE(st.complete);
  EXPECT_EQ(st.Outcome(), SearchOutcome::kMemoryBudget);
  EXPECT_GT(st.memory_bytes_peak, 0u);
  ExpectWellFormed(g_, run);
  EXPECT_TRUE(IsSubset(Canonical(run.algo->results()), oracle_));
}

TEST_F(FaultInjectionTest, GenerousBudgetIsByteIdenticalToUngoverned) {
  CtpFilters governed;
  governed.memory_budget_bytes = 1ull << 30;  // never binds
  for (AlgorithmKind kind :
       {AlgorithmKind::kGam, AlgorithmKind::kMoLesp, AlgorithmKind::kBft}) {
    auto on = RunTuned(kind, g_, sets_, governed, {});
    auto off = RunTuned(kind, g_, sets_, {}, {});
    const SearchStats& a = on.algo->stats();
    const SearchStats& b = off.algo->stats();
    EXPECT_EQ(Canonical(on.algo->results()), Canonical(off.algo->results()))
        << AlgorithmName(kind);
    // Same work, not just the same answer: the governor only reads the
    // accounting, it must not steer the search.
    EXPECT_EQ(a.trees_built, b.trees_built) << AlgorithmName(kind);
    EXPECT_EQ(a.grow_attempts, b.grow_attempts) << AlgorithmName(kind);
    EXPECT_EQ(a.merge_attempts, b.merge_attempts) << AlgorithmName(kind);
    EXPECT_FALSE(a.memory_budget_hit);
    EXPECT_TRUE(a.complete);
    EXPECT_GT(a.memory_bytes_peak, 0u) << "budget set => accounting visible";
    EXPECT_EQ(b.memory_bytes_peak, 0u) << "no budget => accounting never read";
  }
}

TEST_F(FaultInjectionTest, BudgetedBftDegradesGracefully) {
  CtpFilters filters;
  filters.memory_budget_bytes = 1;
  auto run = RunTuned(AlgorithmKind::kBft, g_, sets_, filters, {});
  const SearchStats& st = run.algo->stats();
  EXPECT_TRUE(st.memory_budget_hit);
  EXPECT_FALSE(st.complete);
  EXPECT_EQ(st.Outcome(), SearchOutcome::kMemoryBudget);
  ExpectWellFormed(g_, run);
}

// ---------------------------------------------------------------------------
// Deterministic fault sites, sequential searches.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, AllocFaultInGamStopsCleanly) {
  FaultInjector fault;
  fault.Arm(kFaultSiteAlloc, /*trigger=*/5);
  CtpAlgorithmTuning tuning;
  tuning.fault = &fault;
  auto run = RunTuned(AlgorithmKind::kGam, g_, sets_, {}, tuning);
  const SearchStats& st = run.algo->stats();
  EXPECT_TRUE(st.fault_injected);
  EXPECT_FALSE(st.complete);
  EXPECT_EQ(st.Outcome(), SearchOutcome::kFaultInjected);
  EXPECT_EQ(fault.Fired(kFaultSiteAlloc), 1u);
  EXPECT_GE(fault.Probes(kFaultSiteAlloc), 5u);
  ExpectWellFormed(g_, run);
  EXPECT_TRUE(IsSubset(Canonical(run.algo->results()), oracle_));
}

TEST_F(FaultInjectionTest, AllocFaultInBftStopsCleanly) {
  FaultInjector fault;
  fault.Arm(kFaultSiteAlloc, /*trigger=*/5);
  CtpAlgorithmTuning tuning;
  tuning.fault = &fault;
  auto run = RunTuned(AlgorithmKind::kBft, g_, sets_, {}, tuning);
  const SearchStats& st = run.algo->stats();
  EXPECT_TRUE(st.fault_injected);
  EXPECT_FALSE(st.complete);
  EXPECT_EQ(st.Outcome(), SearchOutcome::kFaultInjected);
  EXPECT_EQ(fault.Fired(kFaultSiteAlloc), 1u);
  ExpectWellFormed(g_, run);
}

TEST_F(FaultInjectionTest, QueuePopFaultStopsCleanly) {
  FaultInjector fault;
  fault.Arm(kFaultSiteQueuePop, /*trigger=*/3);
  CtpAlgorithmTuning tuning;
  tuning.fault = &fault;
  auto run = RunTuned(AlgorithmKind::kMoLesp, g_, sets_, {}, tuning);
  const SearchStats& st = run.algo->stats();
  EXPECT_TRUE(st.fault_injected);
  EXPECT_FALSE(st.complete);
  EXPECT_EQ(fault.Fired(kFaultSiteQueuePop), 1u);
  ExpectWellFormed(g_, run);
  EXPECT_TRUE(IsSubset(Canonical(run.algo->results()), oracle_));
}

TEST_F(FaultInjectionTest, EmitFaultKeepsDeliveredResults) {
  FaultInjector fault;
  fault.Arm(kFaultSiteEmit, /*trigger=*/1);
  CtpAlgorithmTuning tuning;
  tuning.fault = &fault;
  auto run = RunTuned(AlgorithmKind::kGam, g_, sets_, {}, tuning);
  const SearchStats& st = run.algo->stats();
  EXPECT_TRUE(st.fault_injected);
  // The fault fires *after* the first result is out — the delivered row
  // survives; the cut is everything that would have followed.
  EXPECT_EQ(run.algo->results().results().size(), 1u);
  ExpectWellFormed(g_, run);
  EXPECT_TRUE(IsSubset(Canonical(run.algo->results()), oracle_));
}

TEST_F(FaultInjectionTest, SeededArmIsDeterministic) {
  FaultInjector a, b;
  a.ArmSeeded(kFaultSiteAlloc, /*seed=*/42, /*range=*/100);
  b.ArmSeeded(kFaultSiteAlloc, /*seed=*/42, /*range=*/100);
  CtpAlgorithmTuning ta, tb;
  ta.fault = &a;
  tb.fault = &b;
  auto ra = RunTuned(AlgorithmKind::kGam, g_, sets_, {}, ta);
  auto rb = RunTuned(AlgorithmKind::kGam, g_, sets_, {}, tb);
  EXPECT_EQ(a.Probes(kFaultSiteAlloc), b.Probes(kFaultSiteAlloc));
  EXPECT_EQ(a.Fired(kFaultSiteAlloc), b.Fired(kFaultSiteAlloc));
  EXPECT_EQ(Canonical(ra.algo->results()), Canonical(rb.algo->results()));
  EXPECT_EQ(ra.algo->stats().fault_injected, rb.algo->stats().fault_injected);
}

// ---------------------------------------------------------------------------
// Parallel executor: dropped chunks and divided budgets.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, ChunkMergeFaultDropsOneChunkOnly) {
  const auto wide = WideSets();
  auto seeds = SeedSets::Of(g_, wide);
  ASSERT_TRUE(seeds.ok());
  ParallelCtpOptions opts;
  opts.num_threads = 3;
  opts.algorithm = AlgorithmKind::kGam;

  auto full = EvaluateCtpParallel(g_, *seeds, {}, opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GE(full->threads_used, 3u);
  CanonicalResults full_set;
  for (const auto& r : full->results) full_set.insert(full->arena.EdgeSet(r.tree));
  auto sequential = RunAlgo(AlgorithmKind::kGam, g_, wide);
  ASSERT_NE(sequential, nullptr);
  EXPECT_EQ(full_set, Canonical(sequential->results()));

  FaultInjector fault;
  fault.Arm(kFaultSiteChunkMerge, /*trigger=*/2);
  opts.fault = &fault;
  auto faulted = EvaluateCtpParallel(g_, *seeds, {}, opts);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_TRUE(faulted->stats.fault_injected);
  EXPECT_FALSE(faulted->stats.complete);
  EXPECT_EQ(fault.Fired(kFaultSiteChunkMerge), 1u);
  EXPECT_EQ(fault.Probes(kFaultSiteChunkMerge), faulted->threads_used);

  // The surviving union: a strict subset missing exactly one chunk's slice,
  // every tree still well-formed.
  CanonicalResults partial;
  for (const auto& r : faulted->results) {
    partial.insert(faulted->arena.EdgeSet(r.tree));
    Status s = VerifyTreeInvariants(g_, *seeds, faulted->arena, r.tree,
                                    /*require_minimal=*/true);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(IsSubset(partial, full_set));
  EXPECT_LE(partial.size(), full_set.size());
}

TEST_F(FaultInjectionTest, ExecutorSurvivesFaultsAndBudgets) {
  // One pool, hit with a fault run and a budget run, must afterwards still
  // produce the complete answer — no stuck workers, no poisoned arenas.
  CtpExecutor pool(2);
  const auto wide = WideSets();
  auto seeds = SeedSets::Of(g_, wide);
  ASSERT_TRUE(seeds.ok());
  auto sequential = RunAlgo(AlgorithmKind::kGam, g_, wide);
  ASSERT_NE(sequential, nullptr);

  ParallelCtpOptions opts;
  opts.num_threads = 3;
  opts.algorithm = AlgorithmKind::kGam;

  FaultInjector fault;
  fault.Arm(kFaultSiteAlloc, /*trigger=*/4);
  opts.fault = &fault;
  auto faulted = pool.Evaluate(g_, *seeds, {}, opts);
  ASSERT_TRUE(faulted.ok());
  EXPECT_TRUE(faulted->stats.fault_injected);

  opts.fault = nullptr;
  CtpFilters tight;
  tight.memory_budget_bytes = 1;
  auto squeezed = pool.Evaluate(g_, *seeds, tight, opts);
  ASSERT_TRUE(squeezed.ok());
  EXPECT_TRUE(squeezed->stats.memory_budget_hit);
  EXPECT_FALSE(squeezed->stats.complete);

  auto clean = pool.Evaluate(g_, *seeds, {}, opts);
  ASSERT_TRUE(clean.ok());
  CanonicalResults recovered;
  for (const auto& r : clean->results) recovered.insert(clean->arena.EdgeSet(r.tree));
  EXPECT_EQ(recovered, Canonical(sequential->results()));
  EXPECT_TRUE(clean->stats.complete);
}

TEST_F(FaultInjectionTest, ParallelBudgetIsDividedAndReportsPeaks) {
  auto seeds = SeedSets::Of(g_, WideSets());
  ASSERT_TRUE(seeds.ok());
  ParallelCtpOptions opts;
  opts.num_threads = 2;
  opts.algorithm = AlgorithmKind::kGam;
  CtpFilters tight;
  tight.memory_budget_bytes = 2;  // 1 byte per chunk
  auto out = EvaluateCtpParallel(g_, *seeds, tight, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->stats.memory_budget_hit);
  EXPECT_FALSE(out->stats.complete);
  EXPECT_GT(out->stats.memory_bytes_peak, 0u);
  for (const auto& r : out->results) {
    Status s = VerifyTreeInvariants(g_, *seeds, out->arena, r.tree,
                                    /*require_minimal=*/true);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Engine: fault runs execute the plan's order like every other run.
// ---------------------------------------------------------------------------

std::set<std::string> RowSet(const Graph& g, const QueryResult& r) {
  std::set<std::string> rows;
  for (size_t i = 0; i < r.table.NumRows(); ++i) rows.insert(r.RowToString(g, i));
  return rows;
}

TEST(EngineFaultTest, AllocFaultInEitherStageOfATwoCtpQuery) {
  // ?t1 is seeded from the BGP's table (dependent), ?t2 from its own
  // predicates (independent); the plan runs ?t2 first.
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(
      "SELECT ?p ?t1 ?t2 WHERE { ?p \"citizenOf\" \"USA\" . "
      "CONNECT(?p, \"France\" -> ?t1) MAX 3 "
      "CONNECT(\"Elon\", \"Doug\" -> ?t2) MAX 2 }");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  FaultInjector counter;  // unarmed: counts a full run's alloc probes
  ExecOptions exec;
  exec.fault = &counter;
  auto clean = prepared->Execute({}, exec);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->outcome, SearchOutcome::kOk);
  ASSERT_GT(clean->table.NumRows(), 0u);
  const std::set<std::string> clean_rows = RowSet(g, *clean);
  const uint64_t probes = counter.Probes(kFaultSiteAlloc);
  ASSERT_GE(probes, 2u);

  // The first probe falls in the first stage run, the last in the last.
  std::set<size_t> faulted_stages;
  for (uint64_t trigger : {uint64_t{1}, probes}) {
    SCOPED_TRACE("trigger " + std::to_string(trigger));
    FaultInjector fault;
    fault.Arm(kFaultSiteAlloc, trigger);
    exec.fault = &fault;
    auto r = prepared->Execute({}, exec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->outcome, SearchOutcome::kFaultInjected);
    EXPECT_EQ(fault.Fired(kFaultSiteAlloc), 1u);
    for (const std::string& row : RowSet(g, *r)) {
      EXPECT_TRUE(clean_rows.count(row)) << "row not in the unfaulted answer: "
                                         << row;
    }
    ASSERT_EQ(r->ctp_runs.size(), 2u);
    for (size_t i = 0; i < r->ctp_runs.size(); ++i) {
      if (r->ctp_runs[i].stats.fault_injected) faulted_stages.insert(i);
    }
  }
  EXPECT_EQ(faulted_stages, (std::set<size_t>{0, 1}))
      << "each trigger should fault a different stage";
}

// ---------------------------------------------------------------------------
// Injector bookkeeping.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FiresExactlyOnceOnTrigger) {
  FaultInjector f;
  f.Arm("site", 3);
  EXPECT_FALSE(f.ShouldFail("site"));
  EXPECT_FALSE(f.ShouldFail("site"));
  EXPECT_TRUE(f.ShouldFail("site"));
  EXPECT_FALSE(f.ShouldFail("site"));
  EXPECT_EQ(f.Probes("site"), 4u);
  EXPECT_EQ(f.Fired("site"), 1u);
}

TEST(FaultInjectorTest, UnarmedSitesCountButNeverFire) {
  FaultInjector f;
  EXPECT_FALSE(f.ShouldFail("quiet"));
  EXPECT_FALSE(f.ShouldFail("quiet"));
  EXPECT_EQ(f.Probes("quiet"), 2u);
  EXPECT_EQ(f.Fired("quiet"), 0u);
}

TEST(FaultInjectorTest, DisarmAndRearm) {
  FaultInjector f;
  f.Arm("s", 1);
  EXPECT_TRUE(f.ShouldFail("s"));
  f.Arm("s", 0);  // disarm
  EXPECT_FALSE(f.ShouldFail("s"));
  f.Arm("s", 3);  // probes kept (2 so far): the next probe is the 3rd -> fires
  EXPECT_TRUE(f.ShouldFail("s"));
  EXPECT_EQ(f.Fired("s"), 2u);
}

}  // namespace
}  // namespace eql
