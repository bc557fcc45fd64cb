// The algebraic plan layer between Prepare and execution.
//
// A PhysicalPlan lowers a validated query into explicit stages — one BGP
// scan node per variable-connected pattern group, one CTP search node per
// connecting tree pattern — wired by the binding analysis of
// ctp/analysis.h: each CTP member's seed-set source (BGP table, earlier CTP
// table, predicate, or universal) is resolved once, at plan time, instead of
// being rediscovered by scanning tables at execution time. On top of that
// structure the planner computes, from GraphStats (eval/stats.h):
//
//  * a cost estimate per stage (unit: ESTIMATED EDGE VISITS — the number of
//    edges a search/scan is expected to touch; seed counts x a branching
//    series for CTPs, index-scan sizes for BGPs),
//  * an execution order for the CTP stages: a topological order of the
//    dependency DAG that runs cheap/selective stages first (ties broken by
//    stage id, so the order is deterministic),
//  * common-sub-expression sharing: a CTP whose table spec (query/ast.h
//    CtpTableKey) matches an earlier self-grounded CTP is marked share_of
//    and reuses its rows/trees instead of searching again.
//
// What the planner may and may not change — the soundness contract:
// a CTP's result set is defined relative to its full seed SETS (minimality,
// Def 2.8, is seed-set-relative), so the planner NEVER re-derives seeds from
// different sources or pushes extra bindings into them; it only reorders
// stage *execution* (answer-preserving because sources are pinned and the
// searches are deterministic), short-circuits stages that cannot contribute
// rows (any empty stage table empties the final join), and shares
// byte-identical work. The final join consumes stage tables in stage-id
// order, not execution order, so the projected rows are those of running
// the stages in query order (the tree-registry indexing and per-stage
// telemetry may differ; rows do not). Timeout-carrying CTPs are excluded
// from sharing — their truncation point is wall-clock-dependent.
//
// EXPLAIN renders the plan tree with the estimates, and — given a
// QueryResult — the post-execution actuals (rows, trees, algorithm, view,
// outcome) aligned per stage. The rendering is deterministic: estimates use
// only integer/IEEE arithmetic on graph statistics (no clocks), which is
// what makes the golden tests in tests/explain_golden_test.cc possible.
//
// Internal header (not in the public allowlist); the public surface is
// PreparedQuery::Explain in eval/engine.h.
#ifndef EQL_EVAL_PLAN_H_
#define EQL_EVAL_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "ctp/analysis.h"
#include "eval/stats.h"
#include "graph/graph.h"
#include "query/ast.h"
#include "util/status.h"

namespace eql {

struct QueryResult;  // eval/engine.h; Explain takes actuals from it

/// One node of the lowered plan: a BGP scan or a CTP search.
struct PlanStage {
  enum class Kind { kBgp, kCtp };
  Kind kind = Kind::kBgp;
  /// BGP group index (kind kBgp) or CTP query index (kind kCtp).
  size_t input = 0;

  /// Stage ids whose tables this stage reads for seed derivation (CTP only;
  /// BGP stage ids < num_bgps, CTP stage ids = num_bgps + query index). The
  /// planner's exec order is a topological order of this DAG, and a CSE
  /// follower additionally depends on its canonical stage.
  std::vector<size_t> deps;

  /// CSE: non-empty for self-grounded CTPs (every member seeded by its own
  /// predicate or universal, no TIMEOUT) — the canonical table-spec key.
  std::string cse_key;
  /// Stage id of the earlier CTP with the same key this stage reuses;
  /// SIZE_MAX when this stage does its own work.
  size_t share_of = SIZE_MAX;
  /// Some later stage shares this one: its rows/trees must outlive stitch.
  bool shared_by_later = false;

  /// Estimated seed-set size per member (CTP only); universal members are
  /// estimated as the full node count.
  std::vector<double> member_est;
  /// Estimated result-table rows (an upper-bound heuristic).
  double est_rows = 0;
  /// Estimated cost in edge visits (see the cost-model note above).
  double est_cost = 0;
};

/// The lowered, ordered plan. Stages are in stage-id order — BGP groups
/// first (group order), then CTPs (query order). Execution follows
/// ctp_exec_order, but the final join reads the stage tables in stage-id
/// order, which is what keeps the projected rows independent of the
/// execution order.
struct PhysicalPlan {
  size_t num_bgps = 0;
  /// Pattern indexes of each BGP group (GroupIntoBgps order); structural,
  /// so valid for any `$`-bound copy of the query.
  std::vector<std::vector<size_t>> bgp_groups;
  /// Member seed sources + CTP dependency lists (ctp/analysis.h).
  CtpBindingAnalysis binding;
  std::vector<PlanStage> stages;

  /// CTP stage ids in planner execution order (cost-ascending topological).
  std::vector<size_t> ctp_exec_order;
  /// Same, with the final CTP (query order) forced last: a streaming
  /// execution emits rows from that stage's search, so it must run after
  /// every table it joins against exists.
  std::vector<size_t> ctp_exec_order_streaming;

  size_t CtpStageId(size_t ctp_index) const { return num_bgps + ctp_index; }
};

/// Lowers a validated query over `g` into a PhysicalPlan: groups BGPs,
/// resolves member sources (rejecting cyclic free-member dependencies — see
/// AnalyzeCtpBindings), estimates costs from `stats`, assigns CSE keys and
/// computes both execution orders.
Result<PhysicalPlan> BuildPhysicalPlan(const Query& q, const Graph& g,
                                       const GraphStats& stats);

/// Renders the plan tree as text: one line per stage with seed sources and
/// estimates, plus the exec order and CSE notes. With `actuals` (a
/// QueryResult of this query's execution), each stage line is annotated
/// with actual cardinalities and outcome — times are deliberately omitted
/// so the text stays machine-independent (the shell's `.stats` dump covers
/// timing).
std::string RenderExplain(const PhysicalPlan& plan, const Query& q,
                          const Graph& g, const QueryResult* actuals = nullptr);

}  // namespace eql

#endif  // EQL_EVAL_PLAN_H_
