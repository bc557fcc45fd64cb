#include "ctp/tree.h"

#include <algorithm>

#include "ctp/score.h"
#include "util/string_util.h"

namespace eql {

TreeId TreeArena::MakeInit(NodeId n, const SeedSets& seeds) {
  RootedTree t;
  t.root = n;
  t.sat = seeds.Signature(n);
  t.kind = ProvKind::kInit;
  t.is_rooted_path = true;  // the trivial (n, n)-rooted path
  t.path_seed = n;
  t.edge_set_hash = 0;  // empty set
  if (acc_score_ != nullptr) t.score_acc = acc_score_->NodeDelta(*acc_graph_, n);
  return Push(t);
}

TreeId TreeArena::MakeGrow(TreeId id, EdgeId e, NodeId new_root,
                           const SeedSets& seeds) {
  const RootedTree& t = trees_[id];
  RootedTree out;
  out.root = new_root;
  out.sat = t.sat | seeds.Signature(new_root);
  out.kind = ProvKind::kGrow;
  out.child1 = id;
  out.grow_edge = e;
  out.num_edges = t.num_edges + 1;
  out.edge_set_hash = t.edge_set_hash ^ HashSetElem(e);
  // Grow adds exactly node new_root and edge e; quantized deltas (score.h)
  // keep this sum exact in any association order.
  if (acc_score_ != nullptr) {
    out.score_acc = t.score_acc + acc_score_->NodeDelta(*acc_graph_, new_root) +
                    acc_score_->EdgeDelta(*acc_graph_, e);
  }
  out.mo_tainted = t.mo_tainted;
  // A Grow chain from Init(s) remains an (n, s)-rooted path as long as it
  // never touches another seed node (Def 4.4).
  out.is_rooted_path = t.is_rooted_path && seeds.Signature(new_root).Empty();
  out.path_seed = out.is_rooted_path ? t.path_seed : kNoNode;
  return Push(out);
}

TreeId TreeArena::MakeMerge(TreeId id1, TreeId id2, const SeedSets& seeds) {
  const RootedTree& t1 = trees_[id1];
  const RootedTree& t2 = trees_[id2];
  (void)seeds;
  RootedTree out;
  out.root = t1.root;
  out.sat = t1.sat | t2.sat;
  out.kind = ProvKind::kMerge;
  out.child1 = id1;
  out.child2 = id2;
  out.num_edges = t1.num_edges + t2.num_edges;
  // Merge1 guarantees edge-disjoint operands, so the set hash is the XOR.
  out.edge_set_hash = t1.edge_set_hash ^ t2.edge_set_hash;
  // Merge1 also guarantees the operands share exactly the root node, whose
  // delta both partial sums counted — subtract one copy.
  if (acc_score_ != nullptr) {
    out.score_acc = t1.score_acc + t2.score_acc -
                    acc_score_->NodeDelta(*acc_graph_, t1.root);
  }
  out.mo_tainted = t1.mo_tainted || t2.mo_tainted;
  return Push(out);
}

TreeId TreeArena::MakeMo(TreeId id, NodeId new_root) {
  const RootedTree& t = trees_[id];
  RootedTree out;
  out.root = new_root;
  out.sat = t.sat;
  out.kind = ProvKind::kMo;
  out.child1 = id;
  out.num_edges = t.num_edges;
  out.edge_set_hash = t.edge_set_hash;
  out.score_acc = t.score_acc;  // same nodes and edges, only the root moves
  out.mo_tainted = true;
  return Push(out);
}

TreeId TreeArena::MakeAdHocInPlace(NodeId root, std::vector<EdgeId>* edges, const Graph& g,
                            const SeedSets& seeds) {
  std::sort(edges->begin(), edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
  return MakeAdHocSorted(root, *edges, g, seeds);
}

TreeId TreeArena::MakeAdHocSorted(NodeId root, std::span<const EdgeId> edges,
                                  const Graph& g, const SeedSets& seeds) {
  RootedTree out;
  out.root = root;
  out.kind = ProvKind::kExternal;
  out.ext_offset = static_cast<uint32_t>(ext_pool_.size());
  out.num_edges = static_cast<uint32_t>(edges.size());
  out.sat = seeds.Signature(root);
  for (EdgeId e : edges) {
    out.edge_set_hash ^= HashSetElem(e);
    out.sat |= seeds.Signature(g.Source(e));
    out.sat |= seeds.Signature(g.Target(e));
  }
  if (acc_score_ != nullptr) {
    // External trees have no provenance to inherit a sum from; evaluate the
    // decomposition over the explicit parts (still exact: on-grid deltas).
    std::vector<NodeId> nodes;
    nodes.reserve(2 * edges.size() + 1);
    nodes.push_back(root);
    double sum = 0;
    for (EdgeId e : edges) {
      sum += acc_score_->EdgeDelta(g, e);
      nodes.push_back(g.Source(e));
      nodes.push_back(g.Target(e));
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    for (NodeId n : nodes) sum += acc_score_->NodeDelta(g, n);
    out.score_acc = sum;
  }
  ext_pool_.insert(ext_pool_.end(), edges.begin(), edges.end());
  return Push(out);
}

std::vector<EdgeId> TreeArena::EdgeSet(TreeId id) const {
  std::vector<EdgeId> out;
  out.reserve(trees_[id].num_edges);
  ForEachEdge(id, [&](EdgeId e) { out.push_back(e); });
  std::sort(out.begin(), out.end());
  return out;
}

void TreeArena::AppendEdges(TreeId id, std::vector<EdgeId>* out) const {
  ForEachEdge(id, [&](EdgeId e) { out->push_back(e); });
}

std::vector<NodeId> TreeArena::NodeSet(const Graph& g, TreeId id) const {
  std::vector<NodeId> out;
  out.reserve(trees_[id].NumNodes());
  ForEachNodeDup(g, id, [&](NodeId n) { out.push_back(n); });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool TreeArena::ContainsNode(const Graph& g, TreeId id, NodeId n) const {
  TreeId cur = id;
  if (trees_[id].root == n) return true;
  while (cur != kNoTree) {
    const RootedTree& t = trees_[cur];
    switch (t.kind) {
      case ProvKind::kInit:
        return t.root == n;
      case ProvKind::kGrow:
        if (t.root == n || g.Source(t.grow_edge) == n || g.Target(t.grow_edge) == n) {
          return true;
        }
        cur = t.child1;
        break;
      case ProvKind::kMo:
        cur = t.child1;
        break;
      case ProvKind::kMerge:
        if (ContainsNode(g, t.child2, n)) return true;
        cur = t.child1;
        break;
      case ProvKind::kExternal:
        for (uint32_t i = 0; i < t.num_edges; ++i) {
          EdgeId e = ext_pool_[t.ext_offset + i];
          if (g.Source(e) == n || g.Target(e) == n) return true;
        }
        return t.root == n;
    }
  }
  return false;
}

bool TreeArena::SharesOnlyNode(const Graph& g, TreeId id,
                               const EpochSet& stamped_other, NodeId shared) const {
  // Walk this tree's nodes (duplicate mentions are fine: a repeated probe of
  // the same node gives the same verdict) and fail on any stamped node that
  // is not `shared`.
  if (trees_[id].root != shared && stamped_other.Contains(trees_[id].root)) {
    return false;
  }
  bool ok = true;
  ForEachEdge(id, [&](EdgeId e) {
    NodeId s = g.Source(e), d = g.Target(e);
    if (s != shared && stamped_other.Contains(s)) ok = false;
    if (d != shared && stamped_other.Contains(d)) ok = false;
  });
  return ok;
}

bool TreeArena::EdgeSetsEqual(TreeId a, TreeId b, EpochSet* scratch) const {
  const RootedTree& ta = trees_[a];
  const RootedTree& tb = trees_[b];
  if (ta.num_edges != tb.num_edges) return false;
  scratch->Clear();
  ForEachEdge(a, [&](EdgeId e) { scratch->Insert(e); });
  bool equal = true;
  // Edges within one tree are distinct, so membership of every edge of b in
  // a, plus equal cardinality, implies set equality.
  ForEachEdge(b, [&](EdgeId e) {
    if (!scratch->Contains(e)) equal = false;
  });
  return equal;
}

bool TreeArena::SharesOnlyRoot(const Graph& g, TreeId a, TreeId b,
                               NodeId shared_root) const {
  std::vector<NodeId> na = NodeSet(g, a);
  std::vector<NodeId> nb = NodeSet(g, b);
  size_t i = 0, j = 0;
  bool saw_root = false;
  while (i < na.size() && j < nb.size()) {
    if (na[i] < nb[j]) {
      ++i;
    } else if (na[i] > nb[j]) {
      ++j;
    } else {
      if (na[i] != shared_root) return false;
      saw_root = true;
      ++i;
      ++j;
    }
  }
  return saw_root;
}

std::string TreeArena::ProvenanceToString(TreeId id, const Graph& g) const {
  const RootedTree& t = trees_[id];
  switch (t.kind) {
    case ProvKind::kInit:
      return "Init(" + g.NodeLabel(t.root) + ")";
    case ProvKind::kGrow:
      return "Grow(" + ProvenanceToString(t.child1, g) + ",e" +
             std::to_string(t.grow_edge) + "->" + g.NodeLabel(t.root) + ")";
    case ProvKind::kMerge:
      return "Merge(" + ProvenanceToString(t.child1, g) + "," +
             ProvenanceToString(t.child2, g) + ")";
    case ProvKind::kMo:
      return "Mo(" + ProvenanceToString(t.child1, g) + "," + g.NodeLabel(t.root) +
             ")";
    case ProvKind::kExternal:
      return "External(" + g.NodeLabel(t.root) + ")";
  }
  return "?";
}

std::string TreeArena::TreeToString(TreeId id, const Graph& g) const {
  std::vector<EdgeId> edges = EdgeSet(id);
  std::string out = "root=" + g.NodeLabel(trees_[id].root) + " {";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ", ";
    out += g.EdgeToString(edges[i]);
  }
  out += "}";
  return out;
}

bool RootReachesAllDirected(const Graph& g, const TreeArena& arena, TreeId id,
                            NodeId root) {
  const RootedTree& t = arena.Get(id);
  if (t.num_edges == 0) return true;
  std::vector<EdgeId> edges;
  edges.reserve(t.num_edges);
  arena.AppendEdges(id, &edges);
  return RootReachesAllDirected(g, edges, t.NumNodes(), root);
}

bool RootReachesAllDirected(const Graph& g, const std::vector<EdgeId>& edges,
                            size_t num_nodes, NodeId root) {
  if (edges.empty()) return true;
  // BFS over tree edges, respecting direction. Tree size is small, so a
  // simple frontier over the edge list suffices.
  std::vector<NodeId> frontier = {root};
  std::vector<NodeId> reached = {root};
  while (!frontier.empty()) {
    NodeId n = frontier.back();
    frontier.pop_back();
    for (EdgeId e : edges) {
      if (g.Source(e) != n) continue;
      NodeId to = g.Target(e);
      if (std::find(reached.begin(), reached.end(), to) == reached.end()) {
        reached.push_back(to);
        frontier.push_back(to);
      }
    }
  }
  return reached.size() == num_nodes;
}

Status VerifyTreeInvariants(const Graph& g, const SeedSets& seeds,
                            const TreeArena& arena, TreeId id,
                            bool require_minimal, bool allow_root_leaf) {
  const RootedTree& t = arena.Get(id);
  std::vector<EdgeId> edges = arena.EdgeSet(id);
  std::vector<NodeId> nodes = arena.NodeSet(g, id);
  if (nodes.empty()) return Status::Internal("tree has no nodes");
  if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
    return Status::Internal("edge multiset contains a duplicate");
  }
  if (edges.size() != t.num_edges) {
    return Status::Internal(StrFormat("num_edges=%u but %zu edges materialize",
                                      t.num_edges, edges.size()));
  }
  uint64_t hash = 0;
  for (EdgeId e : edges) hash ^= HashSetElem(e);
  if (hash != t.edge_set_hash) {
    return Status::Internal("incremental edge-set hash mismatch");
  }
  if (edges.size() + 1 != nodes.size()) {
    return Status::Internal(StrFormat("not a tree: %zu edges, %zu nodes",
                                      edges.size(), nodes.size()));
  }
  if (!std::binary_search(nodes.begin(), nodes.end(), t.root)) {
    return Status::Internal("root not in node set");
  }

  // Connectivity + degree census via union-find over the node set.
  std::vector<NodeId> parent(nodes.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<NodeId>(i);
  auto find = [&](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto index_of = [&](NodeId n) {
    return static_cast<NodeId>(
        std::lower_bound(nodes.begin(), nodes.end(), n) - nodes.begin());
  };
  std::vector<int> deg(nodes.size(), 0);
  for (EdgeId e : edges) {
    NodeId a = index_of(g.Source(e)), b = index_of(g.Target(e));
    if (a >= nodes.size() || b >= nodes.size() ||
        nodes[a] != g.Source(e) || nodes[b] != g.Target(e)) {
      return Status::Internal("edge endpoint outside node set");
    }
    ++deg[a];
    ++deg[b];
    NodeId ra = find(a), rb = find(b);
    if (ra == rb) return Status::Internal("edge set contains a cycle");
    parent[ra] = rb;
  }
  NodeId r0 = find(0);
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (find(static_cast<NodeId>(i)) != r0) return Status::Internal("tree disconnected");
  }

  // sat must equal the union of node signatures; one node per covered set.
  Bitset64 sat;
  Bitset64 overlap_check;
  for (NodeId n : nodes) {
    Bitset64 sig = seeds.Signature(n);
    if (sig.Intersects(overlap_check)) {
      return Status::Internal("two nodes from the same seed set (Def 2.8 (ii))");
    }
    overlap_check |= sig;
    sat |= sig;
  }
  if (!(sat == t.sat)) return Status::Internal("sat signature mismatch");

  if (require_minimal && nodes.size() > 1) {
    // (deg computed above; leaves are deg==1 nodes)
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (deg[i] != 1) continue;  // only leaves must be seeds (Observation 1)
      if (seeds.Signature(nodes[i]).Empty() &&
          !(allow_root_leaf && nodes[i] == t.root)) {
        return Status::Internal("non-seed leaf " + g.NodeLabel(nodes[i]) +
                                " (result not minimal)");
      }
    }
  }
  return Status::Ok();
}

}  // namespace eql
