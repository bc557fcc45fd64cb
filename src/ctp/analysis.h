// Result-shape analysis: the notions the paper's completeness guarantees are
// stated in (Definitions 4.4-4.8), computed on concrete trees.
//
//  * Simple tree decomposition theta(t) (Def 4.6): the unique partition of a
//    result's edges into simple edge sets (pieces whose leaves are seeds and
//    whose internal nodes are not).
//  * p-simple pieces / p-piecewise-simple results (Defs 4.5, 4.7).
//  * (u,n)-rooted-merge shape (Def 4.8): a piece that is a "spider" with a
//    single (non-seed) branching node.
//
// These drive the property-test oracles: MoESP must find all 2ps results
// (Property 4) and all path results (Property 5); MoLESP all 3ps results
// (Property 7), everything for m <= 3 (Property 8), and every result whose
// pieces are rooted merges (Property 9).
//
// The second half is *stage* analysis: where each CTP member's seed set
// comes from under the engine's fixed evaluation order (Section 3 step B.1),
// which earlier stages a CTP therefore depends on, and the rejection of
// cyclic free-member references. The planner (eval/plan.h) consumes this to
// order stages; the engine consumes it to resolve bindings without rescanning
// tables.
#ifndef EQL_CTP_ANALYSIS_H_
#define EQL_CTP_ANALYSIS_H_

#include <cstddef>
#include <vector>

#include "ctp/seed_sets.h"
#include "ctp/tree.h"
#include "graph/graph.h"
#include "query/ast.h"
#include "util/status.h"

namespace eql {

/// Classification of one result tree.
struct TreeShape {
  /// theta(t): each piece is a sorted edge-id vector.
  std::vector<std::vector<EdgeId>> pieces;

  /// Maximum leaf count over pieces; the tree is p-piecewise simple exactly
  /// for p >= this value.
  int max_piece_leaves = 0;

  /// True if no tree node has more than two incident tree edges; path
  /// results are 2ps (Property 5's precondition).
  bool is_path = false;

  /// True if every piece has at most one branching (degree >= 3) node, and
  /// that node is not a seed — i.e., every piece is a (u,n)-rooted merge in
  /// the extended sense of Property 9 (paths count as u <= 2 merges).
  bool property9_applies = false;
};

/// Computes theta(t) and the shape flags. Tree `id` must have only seed
/// leaves (a CTP result); single-node trees yield an empty decomposition
/// with property9_applies = true.
TreeShape AnalyzeTree(const Graph& g, const SeedSets& seeds,
                      const TreeArena& arena, TreeId id);

/// True if the result is p-piecewise simple (Def 4.7).
inline bool IsPiecewiseSimple(const TreeShape& shape, int p) {
  return shape.max_piece_leaves <= p;
}

// ---------------------------------------------------------------------------
// CTP stage-dependency analysis (consumed by the planner, eval/plan.h).
// ---------------------------------------------------------------------------

/// Where one CTP member's seed set comes from under the fixed evaluation
/// order: the first binding table carrying the member variable — BGP tables
/// in group order, then earlier CTP tables in query order — else the
/// member's own predicate, else the universal set N (Section 4.9).
struct CtpMemberSource {
  enum class Kind {
    kBgpTable,   ///< distinct bindings of a BGP table (narrowed by the
                 ///< member's own predicate, if any)
    kCtpTable,   ///< distinct bindings of an earlier CTP's table
    kPredicate,  ///< NodesMatchingPredicate over the member's conditions
    kUniversal,  ///< unconstrained: the universal seed set
  };
  Kind kind = Kind::kUniversal;
  /// BGP group index (kBgpTable) or CTP query index (kCtpTable); SIZE_MAX
  /// for the table-free kinds.
  size_t source = SIZE_MAX;
};

/// Binding structure of a query's CTP stages. `member_sources[i][k]` is the
/// source of CTP i's k-th member; `ctp_deps[i]` lists the earlier CTPs whose
/// tables CTP i reads (sorted, unique). The engine must evaluate a CTP after
/// every stage in its dep list — any order satisfying that yields the same
/// seed sets, hence (searches being deterministic) the same CTP tables.
struct CtpBindingAnalysis {
  std::vector<std::vector<CtpMemberSource>> member_sources;
  std::vector<std::vector<size_t>> ctp_deps;
};

/// Computes the binding analysis for a validated query. `bgp_groups` lists
/// the pattern indexes of each BGP group, in GroupIntoBgps order.
///
/// Rejects (InvalidArgument) cyclic `$`-free member dependencies: two or
/// more CTPs chained only through mutually free members (no predicate
/// conditions, no parameters, no BGP binding), leaving some CTP of the chain
/// with every seed set universal — a query bug, diagnosed at Prepare. A
/// single all-free CTP fails at run time ("all seed sets are universal").
Result<CtpBindingAnalysis> AnalyzeCtpBindings(
    const Query& q, const std::vector<std::vector<size_t>>& bgp_groups);

}  // namespace eql

#endif  // EQL_CTP_ANALYSIS_H_
