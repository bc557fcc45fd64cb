// Plan equivalence: the cost-based plan layer (eval/plan.h) reorders CTP
// execution, skips provably-empty searches and shares identical table
// specs, but the projected rows must be the ones a query-order execution
// produces — pinned byte-for-byte by references frozen from the engine's
// former fixed query-order path (tests/golden/plan_rows_*.txt). Also covers
// the Prepare-time rejection of cyclic free-member dependencies and the
// CSE/skip telemetry flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/engine.h"
#include "eval/params.h"
#include "eval/sink.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace eql {
namespace {

// ---------------------------------------------------------------------------
// Reduced manifest loader (same format as conformance_test.cc; we only need
// graph, query, params and the check_rows option).
// ---------------------------------------------------------------------------

struct Manifest {
  std::string graph_text;
  std::string query;
  std::vector<std::pair<std::string, std::string>> params;
  bool check_rows = true;
};

std::string TrimCopy(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

Manifest LoadManifest(const std::string& path) {
  Manifest m;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line, section;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    if (!line.empty() && line[0] == '[') {
      section = TrimCopy(line);
      continue;
    }
    if (section == "[graph]") {
      if (!TrimCopy(line).empty()) m.graph_text += line + "\n";
    } else if (section == "[query]") {
      m.query += line + "\n";
    } else if (section == "[params]" || section == "[options]") {
      const std::string t = TrimCopy(line);
      if (t.empty()) continue;
      size_t eq = t.find('=');
      if (eq == std::string::npos) continue;
      if (section == "[params]") {
        m.params.emplace_back(t.substr(0, eq), t.substr(eq + 1));
      } else if (t.substr(0, eq) == "check_rows") {
        m.check_rows = t.substr(eq + 1) != "false";
      }
    }
  }
  return m;
}

std::vector<std::string> ManifestFiles() {
  std::vector<std::string> files;
  const std::filesystem::path dir =
      std::filesystem::path(EQL_SOURCE_DIR) / "tests" / "conformance";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".manifest") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

ParamMap BindParams(const Manifest& m) {
  ParamMap params;
  for (const auto& [k, v] : m.params) {
    bool digits = !v.empty();
    for (char c : v) digits &= std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (digits) {
      params.Set(k, static_cast<int64_t>(std::stoll(v)));
    } else {
      params.Set(k, v);
    }
  }
  return params;
}

/// Rendered row sequence, unsorted: the join consumes stage tables in
/// stage-id order whatever order the stages ran in, so this is stable.
std::vector<std::string> RowsOf(const Graph& g, const QueryResult& r) {
  std::vector<std::string> out;
  for (size_t i = 0; i < r.table.NumRows(); ++i) {
    out.push_back(r.RowToString(g, i));
  }
  return out;
}

class PlanEquivalenceTest : public ::testing::TestWithParam<std::string> {};

// ---------------------------------------------------------------------------
// Frozen references: the former fixed query-order path's rows, outcome and
// BGP cardinalities for every row-checked manifest, sequentially and on a
// 2-thread engine (plus each CTP's chunk count there). Execution must
// reproduce them byte-for-byte: stage tables join in stage-id order
// whatever order the stages ran in.
// ---------------------------------------------------------------------------

/// Deterministic text of one execution: status or outcome, BGP row counts,
/// optionally per-CTP chunk counts, then the unsorted rendered rows.
std::string RenderRun(const Graph& g, const Result<QueryResult>& r,
                      bool with_chunks) {
  if (!r.ok()) return "status: " + r.status().ToString() + "\n";
  std::string out = "outcome: ";
  out += SearchOutcomeName(r->outcome);
  out += "\nbgp_rows:";
  for (uint64_t n : r->bgp_rows) out += " " + std::to_string(n);
  out += "\n";
  if (with_chunks) {
    out += "parallel_chunks:";
    for (const CtpRunInfo& run : r->ctp_runs) {
      out += " " + std::to_string(run.parallel_chunks);
    }
    out += "\n";
  }
  out += "rows: " + std::to_string(r->table.NumRows()) + "\n";
  for (const std::string& row : RowsOf(g, *r)) out += row + "\n";
  return out;
}

std::filesystem::path FrozenRowsPath(unsigned num_threads) {
  return std::filesystem::path(EQL_SOURCE_DIR) / "tests" / "golden" /
         (num_threads > 1 ? "plan_rows_pool2.txt" : "plan_rows_sequential.txt");
}

std::string ManifestStem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

/// The "== stem ==" section of a frozen-rows file, without its header.
std::string FrozenSection(unsigned num_threads, const std::string& stem) {
  std::ifstream in(FrozenRowsPath(num_threads), std::ios::binary);
  EXPECT_TRUE(in.good()) << FrozenRowsPath(num_threads);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string header = "== " + stem + " ==\n";
  size_t begin = text.find(header);
  if (begin == std::string::npos) return "";
  begin += header.size();
  size_t end = text.find("\n== ", begin);
  return text.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end + 1 - begin);
}

void CheckFrozenRows(const std::string& manifest_path, unsigned num_threads) {
  Manifest m = LoadManifest(manifest_path);
  ASSERT_FALSE(m.graph_text.empty());
  if (!m.check_rows) return;  // timing-dependent manifest (e.g. TIMEOUT)
  auto g = ParseGraphText(m.graph_text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EngineOptions opts;
  opts.num_threads = num_threads;
  EqlEngine engine(*g, opts);
  auto prepared = engine.Prepare(m.query);
  const Result<QueryResult> r =
      prepared.ok() ? prepared->Execute(BindParams(m))
                    : Result<QueryResult>(prepared.status());
  const std::string expected =
      FrozenSection(num_threads, ManifestStem(manifest_path));
  ASSERT_FALSE(expected.empty())
      << "no frozen section for " << ManifestStem(manifest_path);
  EXPECT_EQ(RenderRun(*g, r, num_threads > 1), expected);
}

TEST_P(PlanEquivalenceTest, RowsMatchFrozenFixedOrder) {
  CheckFrozenRows(GetParam(), 1);
}

TEST_P(PlanEquivalenceTest, RowsMatchFrozenFixedOrderOnPool) {
  CheckFrozenRows(GetParam(), 2);
}

std::string ManifestTestName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string stem = std::filesystem::path(info.param).stem().string();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return stem;
}

INSTANTIATE_TEST_SUITE_P(Manifests, PlanEquivalenceTest,
                         ::testing::ValuesIn(ManifestFiles()),
                         ManifestTestName);

// ---------------------------------------------------------------------------
// Point tests on the Figure 1 graph.
// ---------------------------------------------------------------------------

constexpr const char* kTwoCtpQuery =
    "SELECT ?p ?t1 ?t2 WHERE { ?p \"citizenOf\" \"USA\" . "
    "CONNECT(?p, \"France\" -> ?t1) MAX 3 "
    "CONNECT(\"Elon\", \"Doug\" -> ?t2) MAX 2 }";

TEST(PlanEquivalence, PreparedAndOneShotMatch) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto oneshot = engine.Run(kTwoCtpQuery);
  ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
  auto prepared = engine.Prepare(kTwoCtpQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto executed = prepared->Execute();
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_EQ(RowsOf(g, *oneshot), RowsOf(g, *executed));
}

TEST(PlanEquivalence, StreamingMatchesMaterialized) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(kTwoCtpQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto materialized = prepared->Execute();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  CollectingSink sink;
  auto streamed = prepared->Execute({}, sink);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->rows_streamed, materialized->table.NumRows());
  EXPECT_EQ(sink.rows.size(), materialized->table.NumRows());
}

// ---------------------------------------------------------------------------
// Bugfix regression: cyclic $-free member dependencies between CTPs must be
// rejected at Prepare with an actionable message — the engine used to accept
// the query and fail at execution with "all seed sets are universal".
// ---------------------------------------------------------------------------

TEST(PlanCycles, TwoCycleOfFreeMembersRejectedAtPrepare) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(
      "SELECT ?t1 ?t2 WHERE { CONNECT(?x, ?y -> ?t1) MAX 2 "
      "CONNECT(?y, ?x -> ?t2) MAX 2 }");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prepared.status().message().find("cyclic member dependency"),
            std::string::npos)
      << prepared.status().ToString();
}

TEST(PlanCycles, GroundedChainStillAccepted) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  // ?x is grounded by a predicate, so the shared members form a chain, not
  // a cycle: CTP ?t2 seeds ?y from ?t1's table.
  auto prepared = engine.Prepare(
      "SELECT ?t1 ?t2 WHERE { CONNECT(?x, ?y -> ?t1) MAX 2 "
      "CONNECT(?y, \"Doug\" -> ?t2) MAX 2 FILTER(label(?x) = \"Bob\") }");
  EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
}

// ---------------------------------------------------------------------------
// Skip + CSE telemetry.
// ---------------------------------------------------------------------------

TEST(PlanSkip, EmptyUpstreamStageSkipsLaterSearches) {
  Graph g = MakeFigure1Graph();
  // The BGP's edge label misses the dictionary -> empty table -> the CTP
  // cannot contribute a surviving row, so the planner skips its search.
  const char* query =
      "SELECT ?a ?b ?t WHERE { ?a \"noSuchEdge\" ?b . "
      "CONNECT(\"Bob\", \"Carole\" -> ?t) }";
  EqlEngine engine(g);
  auto r = engine.Run(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.NumRows(), 0u);
  ASSERT_EQ(r->ctp_runs.size(), 1u);
  EXPECT_TRUE(r->ctp_runs[0].skipped);
  EXPECT_EQ(r->ctp_runs[0].num_results, 0u);
  EXPECT_EQ(r->ctp_runs[0].stats.trees_built, 0u);
}

/// The error a full (unskipped) run raises for the query below, frozen
/// from the former fixed query-order path, which never skipped.
constexpr const char* kSeedValidationError =
    "invalid_argument: CTP ?t: seed set 0 is empty (no node matched its "
    "predicate)";

TEST(PlanSkip, SkippedStagePreservesSeedValidationErrors) {
  Graph g = MakeFigure1Graph();
  // Even with the skip available (empty BGP), an empty seed set must raise
  // the error a full run raises.
  const char* query =
      "SELECT ?a ?b ?t WHERE { ?a \"noSuchEdge\" ?b . "
      "CONNECT(\"NoSuchNode\", \"Carole\" -> ?t) }";
  EqlEngine engine(g);
  auto r = engine.Run(query);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), kSeedValidationError);
}

// Bugfix regression: a member seeded from an empty upstream table is data,
// not a query error — the stage yields no rows with its search skipped.
// Both queries used to fail with "seed set 0 is empty".
TEST(PlanSkip, MemberSeededFromEmptyBgpYieldsNoRows) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto r = engine.Run(
      "SELECT ?a ?t WHERE { ?a \"noSuchEdge\" ?b . "
      "CONNECT(?a, \"Carole\" -> ?t) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->outcome, SearchOutcome::kOk);
  EXPECT_EQ(r->table.NumRows(), 0u);
  ASSERT_EQ(r->ctp_runs.size(), 1u);
  EXPECT_TRUE(r->ctp_runs[0].skipped);
  EXPECT_EQ(r->ctp_runs[0].stats.trees_built, 0u);
}

/// ?t1 is CONNECT("Bob", "Carole") with `t1_filters`; ?t2 seeds ?x from
/// ?t1's table.
std::string ChainedCtpQuery(const std::string& t1_filters) {
  return "SELECT ?x ?t2 WHERE { CONNECT(?x, \"Carole\" -> ?t1) " + t1_filters +
         " CONNECT(?x, \"Doug\" -> ?t2) FILTER(label(?x) = \"Bob\") }";
}

TEST(PlanSkip, MemberSeededFromEmptyCtpYieldsNoRows) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  // A dead LABEL empties ?t1's table deterministically.
  auto r = engine.Run(ChainedCtpQuery("LABEL {\"noSuchLabel\"}"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table.NumRows(), 0u);
  ASSERT_EQ(r->ctp_runs.size(), 2u);
  EXPECT_TRUE(r->ctp_runs[0].dead_labels);
  EXPECT_TRUE(r->ctp_runs[1].skipped);
  EXPECT_EQ(r->ctp_runs[1].stats.trees_built, 0u);
}

TEST(PlanSkip, FaultEmptiedUpstreamStaysAPartialResult) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(ChainedCtpQuery(""));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // The first tree ?t1 keeps fails, so ?t1 ends with an empty table: the
  // query keeps its fault outcome instead of turning into an error.
  FaultInjector fault;
  fault.Arm(kFaultSiteAlloc);
  ExecOptions opts;
  opts.fault = &fault;
  auto r = prepared->Execute({}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->outcome, SearchOutcome::kFaultInjected);
  EXPECT_EQ(r->table.NumRows(), 0u);
  ASSERT_EQ(r->ctp_runs.size(), 2u);
  EXPECT_EQ(r->ctp_runs[0].num_results, 0u);
  EXPECT_TRUE(r->ctp_runs[1].skipped);
}

TEST(PlanSkip, EmptyDerivedMemberKeepsLiteralSeedErrors) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  // ?a is derived from an empty BGP table; the literal beside it matches no
  // node, which stays the error a full run raises.
  auto r = engine.Run(
      "SELECT ?a ?t WHERE { ?a \"noSuchEdge\" ?b . "
      "CONNECT(\"NoSuchNode\", ?a -> ?t) }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), kSeedValidationError);
}

TEST(PlanCse, IdenticalCtpTableSpecsShareOneSearch) {
  Graph g = MakeFigure1Graph();
  const char* query =
      "SELECT ?t1 ?t2 WHERE { CONNECT(\"Bob\", \"Carole\" -> ?t1) MAX 2 "
      "CONNECT(\"Bob\", \"Carole\" -> ?t2) MAX 2 }";
  EqlEngine engine(g);
  auto r = engine.Run(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->ctp_runs.size(), 2u);
  EXPECT_FALSE(r->ctp_runs[0].shared);
  EXPECT_TRUE(r->ctp_runs[1].shared);
  EXPECT_EQ(r->ctp_runs[0].num_results, r->ctp_runs[1].num_results);
  // The two identical CTP tables share no column: a cross product.
  EXPECT_EQ(r->table.NumRows(),
            r->ctp_runs[0].num_results * r->ctp_runs[1].num_results);
  EXPECT_GT(r->table.NumRows(), 0u);
}

TEST(PlanCse, RunBatchSharesAcrossQueries) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);  // no pool: the batch runs serially, deterministically
  const std::string q = "SELECT ?t WHERE { CONNECT(\"Bob\", \"Carole\" -> ?t) }";
  const std::string_view batch[] = {q, q};
  auto results = engine.RunBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  EXPECT_EQ(RowsOf(g, *results[0]), RowsOf(g, *results[1]));
  ASSERT_EQ(results[1]->ctp_runs.size(), 1u);
  EXPECT_FALSE(results[0]->ctp_runs[0].shared);
  EXPECT_TRUE(results[1]->ctp_runs[0].shared);
  // A fresh Run after the batch must NOT see the batch's cache (it is
  // batch-scoped, not engine-scoped).
  auto solo = engine.Run(q);
  ASSERT_TRUE(solo.ok());
  EXPECT_FALSE(solo->ctp_runs[0].shared);
}

TEST(PlanExplain, RendersEstimatesAndActuals) {
  Graph g = MakeFigure1Graph();
  EqlEngine engine(g);
  auto prepared = engine.Prepare(kTwoCtpQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const std::string estimates = prepared->Explain();
  EXPECT_NE(estimates.find("plan: cost-unit=edge-visits"), std::string::npos)
      << estimates;
  EXPECT_NE(estimates.find("ctp exec order"), std::string::npos) << estimates;
  EXPECT_EQ(estimates.find("actual:"), std::string::npos) << estimates;
  auto r = prepared->Execute();
  ASSERT_TRUE(r.ok());
  const std::string actuals = prepared->Explain(*r);
  EXPECT_NE(actuals.find("actual:"), std::string::npos) << actuals;
}

}  // namespace
}  // namespace eql
