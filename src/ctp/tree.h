// Rooted trees with provenance (Definitions 4.1, 4.2) and their arena.
//
// Trees are immutable once created and stored in a TreeArena; everything else
// (history, queues, result sets) refers to them by TreeId.
//
// Representation: a tree is a *parent-pointer record*, not an owned edge
// vector. Grow stores only {base tree, added edge, new root}; Merge stores
// its two operands; Mo stores its base and the new root. The edge set of a
// tree is the disjoint union along its provenance DAG and materializes
// lazily (result emission, tests, export) by walking child pointers — so
// building a tree is an O(1) allocation-free append to a flat arena vector
// instead of an O(|T|) vector copy per Grow/Merge. Each record carries:
//  * its root (GAM distinguishes a root; BFT trees carry a nominal root),
//  * sat(t), the signature of seed sets it covers (Observation 1),
//  * the edge count (node count is always edge count + 1),
//  * an incremental edge-set hash (XOR of per-edge terms; see HashSetElem)
//    maintained in O(1) per constructor and used by the search history,
//  * when a decomposable score function is attached to the arena
//    (SetScoreAccumulator), the running node+edge delta sum of sigma —
//    maintained in O(1) per constructor exactly like the hash, so result
//    emission reads the score without an O(|T|) walk (ctp/score.h),
//  * provenance: the Init/Grow/Merge/Mo formula that built it (Def 4.1, 4.5),
//  * whether the provenance contains Mo (Grow is disabled on those, §4.5),
//  * whether it is an (n, s)-rooted path (Def 4.4) and its seed endpoint,
//    maintained incrementally for LESP's seed-signature updates (§4.6).
//
// Trees built outside the calculus (BFT minimization products, baseline
// outputs) store their edges in a flat pool inside the arena.
#ifndef EQL_CTP_TREE_H_
#define EQL_CTP_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ctp/seed_sets.h"
#include "graph/graph.h"
#include "util/bitset64.h"
#include "util/epoch.h"
#include "util/hash.h"

namespace eql {

class ScoreFunction;

using TreeId = uint32_t;
inline constexpr TreeId kNoTree = UINT32_MAX;

/// How a tree was produced (Def 4.1 plus MoESP's Mo, §4.5). kExternal marks
/// trees assembled outside the Grow/Merge calculus (BFT minimization results,
/// baseline outputs).
enum class ProvKind : uint8_t { kInit, kGrow, kMerge, kMo, kExternal };

/// An immutable rooted tree in parent-pointer form. Trivially copyable —
/// copy it out of the arena when holding it across arena growth.
struct RootedTree {
  NodeId root = kNoNode;
  Bitset64 sat;

  TreeId child1 = kNoTree;  ///< Grow/Mo base, or Merge left operand
  TreeId child2 = kNoTree;  ///< Merge right operand
  EdgeId grow_edge = kNoEdge;  ///< the edge a Grow added

  uint32_t num_edges = 0;   ///< |edge set|; the node count is num_edges + 1
  uint32_t ext_offset = 0;  ///< kExternal only: offset into the arena edge pool

  /// Incremental edge-set hash: XOR over HashSetElem(e) of the set (0 for
  /// Init trees, which all share the empty edge set).
  uint64_t edge_set_hash = 0;

  /// Incremental partial score: sum of NodeDelta over nodes plus EdgeDelta
  /// over edges of the attached decomposable sigma (ctp/score.h); the full
  /// score is score_acc + RootTerm(root). 0 when no accumulator is attached.
  double score_acc = 0;

  ProvKind kind = ProvKind::kInit;

  /// True if any ancestor in the provenance is a Mo re-rooting; Grow is
  /// disabled on such trees (§4.5: "Grow is disabled on any tree whose
  /// provenance includes Mo").
  bool mo_tainted = false;

  /// True if this tree is an (root, path_seed)-rooted path (Def 4.4): a pure
  /// Grow chain from Init(path_seed) containing no other seed node.
  bool is_rooted_path = false;
  NodeId path_seed = kNoNode;

  size_t NumEdges() const { return num_edges; }
  size_t NumNodes() const { return static_cast<size_t>(num_edges) + 1; }
};

/// Append-only store of all trees built during one search. The store is a
/// flat vector: Make* may invalidate references returned by Get(), so hold
/// trees by value (they are small) across arena growth.
class TreeArena {
 public:
  const RootedTree& Get(TreeId id) const { return trees_[id]; }
  size_t size() const { return trees_.size(); }

  /// Heap bytes owned (capacity-based), the unit the resource governor
  /// budgets against (ctp/gam.h). O(1).
  size_t MemoryBytes() const {
    return trees_.capacity() * sizeof(RootedTree) +
           ext_pool_.capacity() * sizeof(EdgeId);
  }

  /// Attaches a decomposable score function (score.h): every Make* from now
  /// on maintains RootedTree::score_acc incrementally. `score` must satisfy
  /// IsEdgeAdditive(); both pointers must outlive the attachment, which ends
  /// at the next Clear() or SetScoreAccumulator(nullptr, nullptr) — the
  /// engines re-attach per search.
  void SetScoreAccumulator(const Graph* g, const ScoreFunction* score) {
    assert((g == nullptr) == (score == nullptr));
    acc_graph_ = g;
    acc_score_ = score;
  }
  /// The attached score function; nullptr when score_acc is not maintained.
  const ScoreFunction* score_accumulator() const { return acc_score_; }

  /// Builds Init(n) (Def 4.1 case 1).
  TreeId MakeInit(NodeId n, const SeedSets& seeds);

  /// Builds Grow(t, e) rooted at new_root (Def 4.1 case 2). The caller has
  /// already validated Grow1/Grow2.
  TreeId MakeGrow(TreeId t, EdgeId e, NodeId new_root, const SeedSets& seeds);

  /// Builds Merge(t1, t2) (Def 4.1 case 3); both must share only their root.
  TreeId MakeMerge(TreeId t1, TreeId t2, const SeedSets& seeds);

  /// Builds Mo(t, new_root): same edges/nodes, re-rooted at a seed (§4.5).
  TreeId MakeMo(TreeId t, NodeId new_root);

  /// Builds a tree from explicit parts (BFT minimization products, baseline
  /// outputs). `edges` need not be sorted; duplicates are dropped and nodes
  /// and sat are derived.
  TreeId MakeAdHoc(NodeId root, std::vector<EdgeId> edges, const Graph& g,
                   const SeedSets& seeds) {
    return MakeAdHocInPlace(root, &edges, g, seeds);
  }

  /// In-place variant for callers with a reusable buffer: sorts/uniques
  /// `*edges` and copies it into the arena pool, with no intermediate
  /// allocation (BFT pays this once per minimization). A distinct name, not
  /// an overload: a braced `{}`/`{0}` argument would overload-resolve to a
  /// null vector pointer.
  TreeId MakeAdHocInPlace(NodeId root, std::vector<EdgeId>* edges, const Graph& g,
                          const SeedSets& seeds);

  /// Variant for an edge set that is already sorted and duplicate-free
  /// (the parallel merge's staged results): copies it into the arena pool.
  TreeId MakeAdHocSorted(NodeId root, std::span<const EdgeId> edges, const Graph& g,
                         const SeedSets& seeds);

  /// Reserves room for `trees` more trees holding `ext_edges` more external
  /// edges, so a bulk load grows each buffer once.
  void Reserve(size_t trees, size_t ext_edges) {
    trees_.reserve(trees_.size() + trees);
    ext_pool_.reserve(ext_pool_.size() + ext_edges);
  }

  /// Removes the most recently created tree; only valid when nothing else
  /// references it (the engines pop provenances rejected by isNew).
  void PopLast() {
    if (trees_.back().kind == ProvKind::kExternal) {
      ext_pool_.resize(trees_.back().ext_offset);
    }
    trees_.pop_back();
  }

  // ---- lazy materialization ------------------------------------------------

  /// Calls `fn(EdgeId)` exactly once per edge of the tree, in provenance
  /// order (not sorted). O(|T|) with no allocation for pure Grow chains;
  /// recursion depth is bounded by the number of Merge steps.
  template <typename Fn>
  void ForEachEdge(TreeId id, Fn&& fn) const {
    TreeId cur = id;
    while (cur != kNoTree) {
      const RootedTree& t = trees_[cur];
      switch (t.kind) {
        case ProvKind::kInit:
          return;
        case ProvKind::kGrow:
          fn(t.grow_edge);
          cur = t.child1;
          break;
        case ProvKind::kMo:
          cur = t.child1;
          break;
        case ProvKind::kMerge:
          ForEachEdge(t.child2, fn);
          cur = t.child1;
          break;
        case ProvKind::kExternal:
          for (uint32_t i = 0; i < t.num_edges; ++i) fn(ext_pool_[t.ext_offset + i]);
          return;
      }
    }
  }

  /// Calls `fn(NodeId)` for the root and both endpoints of every edge; a
  /// node with k incident tree edges is visited up to k (+1) times — callers
  /// dedup with an EpochSet or sort-unique when they need the set.
  template <typename Fn>
  void ForEachNodeDup(const Graph& g, TreeId id, Fn&& fn) const {
    fn(trees_[id].root);
    ForEachEdge(id, [&](EdgeId e) {
      fn(g.Source(e));
      fn(g.Target(e));
    });
  }

  /// The edge set, sorted ascending (the value the CTP variable binds to,
  /// Def 2.8). Materializes; use only off the hot path.
  std::vector<EdgeId> EdgeSet(TreeId id) const;

  /// The node set, sorted ascending. Materializes; off the hot path only.
  std::vector<NodeId> NodeSet(const Graph& g, TreeId id) const;

  /// Appends the edge set, unsorted, to `*out` (reusable-buffer variant).
  void AppendEdges(TreeId id, std::vector<EdgeId>* out) const;

  /// True if node `n` is in the tree. O(|T|) provenance walk with early
  /// exit; hot paths stamp the node set once instead (StampNodes).
  bool ContainsNode(const Graph& g, TreeId id, NodeId n) const;

  /// Clears `*set` and inserts every node of the tree. One O(|T|) walk; the
  /// engines' Grow1/Merge1 tests then run in O(1) per probe.
  void StampNodes(const Graph& g, TreeId id, EpochSet* set) const {
    set->Clear();
    ForEachNodeDup(g, id, [&](NodeId n) { set->Insert(n); });
  }

  /// True if the only node of tree `id` stamped in `stamped_other` is
  /// `shared` (Merge1 against a pre-stamped partner; `shared` must be a node
  /// of both trees).
  bool SharesOnlyNode(const Graph& g, TreeId id, const EpochSet& stamped_other,
                      NodeId shared) const;

  /// True iff both trees have exactly the same edge set. Exact (used to
  /// resolve hash collisions); `scratch` is clobbered.
  bool EdgeSetsEqual(TreeId a, TreeId b, EpochSet* scratch) const;

  /// Convenience Merge1 check for tests and cold paths: the trees share
  /// exactly the node `shared_root`.
  bool SharesOnlyRoot(const Graph& g, TreeId a, TreeId b, NodeId shared_root) const;

  /// Renders the provenance formula, e.g. "Merge(Grow(Init(B),e3),Init(C))".
  std::string ProvenanceToString(TreeId id, const Graph& g) const;

  /// Renders the edge set as "{A-l->B, ...}" for messages and examples.
  std::string TreeToString(TreeId id, const Graph& g) const;

  /// Drops all trees and detaches the score accumulator (arena reuse
  /// between runs; the accumulator's lifetime is one search).
  void Clear() {
    trees_.clear();
    ext_pool_.clear();
    acc_graph_ = nullptr;
    acc_score_ = nullptr;
  }

 private:
  TreeId Push(const RootedTree& t) {
    trees_.push_back(t);
    return static_cast<TreeId>(trees_.size() - 1);
  }

  std::vector<RootedTree> trees_;
  std::vector<EdgeId> ext_pool_;  ///< edge storage for kExternal trees
  const Graph* acc_graph_ = nullptr;
  const ScoreFunction* acc_score_ = nullptr;  ///< not owned; see setter
};

/// Sanity-checks that the tree's edge set forms a tree over its node set,
/// that it is minimal in the sense of Def 2.8 (every leaf is a seed; at most
/// one node per non-universal seed set; if `allow_root_leaf` the root may be
/// a non-seed leaf — used for universal seed sets), that sat matches, and
/// that the incremental edge-set hash matches a from-scratch recomputation.
/// Returns an error describing the first violated invariant.
Status VerifyTreeInvariants(const Graph& g, const SeedSets& seeds,
                            const TreeArena& arena, TreeId id,
                            bool require_minimal, bool allow_root_leaf = false);

/// True if `root` reaches every node of the tree following tree edges in
/// their stored direction — the UNI filter invariant (Section 2, UNI).
bool RootReachesAllDirected(const Graph& g, const TreeArena& arena, TreeId id,
                            NodeId root);

/// Same check over a pre-materialized edge list (`num_nodes` = edges + 1);
/// callers probing many candidate roots of one tree materialize once.
bool RootReachesAllDirected(const Graph& g, const std::vector<EdgeId>& edges,
                            size_t num_nodes, NodeId root);

}  // namespace eql

#endif  // EQL_CTP_TREE_H_
