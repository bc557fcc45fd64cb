#include "ctp/analysis.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace eql {

TreeShape AnalyzeTree(const Graph& g, const SeedSets& seeds,
                      const TreeArena& arena, TreeId id) {
  const std::vector<EdgeId> edges = arena.EdgeSet(id);
  TreeShape shape;
  if (edges.empty()) {
    shape.is_path = true;
    shape.property9_applies = true;
    return shape;
  }

  // Local adjacency over the tree's edges.
  std::unordered_map<NodeId, std::vector<EdgeId>> adj;
  for (EdgeId e : edges) {
    adj[g.Source(e)].push_back(e);
    adj[g.Target(e)].push_back(e);
  }

  shape.is_path = true;
  for (const auto& [n, es] : adj) {
    if (es.size() > 2) shape.is_path = false;
  }

  // theta(t): flood-fill over edges, never expanding *through* a seed node.
  // Every maximal component obtained this way is a simple edge set: its
  // leaves are seed cut-points or original tree leaves (seeds, by result
  // minimality), and its internal nodes are non-seeds.
  std::unordered_map<EdgeId, bool> visited;
  shape.property9_applies = true;
  for (EdgeId start : edges) {
    if (visited[start]) continue;
    std::vector<EdgeId> piece;
    std::vector<EdgeId> stack = {start};
    visited[start] = true;
    while (!stack.empty()) {
      EdgeId e = stack.back();
      stack.pop_back();
      piece.push_back(e);
      for (NodeId n : {g.Source(e), g.Target(e)}) {
        if (!seeds.Signature(n).Empty()) continue;  // cut at seeds
        for (EdgeId e2 : adj[n]) {
          if (!visited[e2]) {
            visited[e2] = true;
            stack.push_back(e2);
          }
        }
      }
    }
    std::sort(piece.begin(), piece.end());

    // Piece statistics: leaves and branching nodes within the piece.
    std::unordered_map<NodeId, int> deg;
    for (EdgeId e : piece) {
      ++deg[g.Source(e)];
      ++deg[g.Target(e)];
    }
    int leaves = 0;
    int branch_nodes = 0;
    bool branch_is_seed = false;
    for (const auto& [n, d] : deg) {
      if (d == 1) ++leaves;
      if (d >= 3) {
        ++branch_nodes;
        if (!seeds.Signature(n).Empty()) branch_is_seed = true;
      }
    }
    shape.max_piece_leaves = std::max(shape.max_piece_leaves, leaves);
    // Property 9 needs each piece to be a (u,n)-rooted merge: one non-seed
    // center from which seed-terminated legs radiate (u<=2 pieces are paths).
    if (branch_nodes > 1 || branch_is_seed) shape.property9_applies = false;

    shape.pieces.push_back(std::move(piece));
  }
  return shape;
}

Result<CtpBindingAnalysis> AnalyzeCtpBindings(
    const Query& q, const std::vector<std::vector<size_t>>& bgp_groups) {
  CtpBindingAnalysis out;

  // First BGP group (in group order) whose patterns carry `var`; SIZE_MAX if
  // none. Mirrors the engine's first-match table scan: BGP tables precede
  // CTP tables in the stage list.
  auto bgp_group_of = [&](const std::string& var) -> size_t {
    for (size_t gi = 0; gi < bgp_groups.size(); ++gi) {
      for (size_t pi : bgp_groups[gi]) {
        const EdgePattern& ep = q.patterns[pi];
        if (ep.source.var == var || ep.edge.var == var || ep.target.var == var) {
          return gi;
        }
      }
    }
    return SIZE_MAX;
  };
  // First CTP before `before` whose table carries `var` (member columns plus
  // the tree column, exactly like BindingTable::HasColumn would report).
  auto earlier_ctp_of = [&](const std::string& var, size_t before) -> size_t {
    for (size_t j = 0; j < before; ++j) {
      if (q.ctps[j].tree_var == var) return j;
      for (const Predicate& pm : q.ctps[j].members) {
        if (pm.var == var) return j;
      }
    }
    return SIZE_MAX;
  };

  for (size_t i = 0; i < q.ctps.size(); ++i) {
    std::vector<CtpMemberSource> sources;
    std::vector<size_t> deps;
    for (const Predicate& m : q.ctps[i].members) {
      CtpMemberSource src;
      const size_t b = bgp_group_of(m.var);
      if (b != SIZE_MAX) {
        src.kind = CtpMemberSource::Kind::kBgpTable;
        src.source = b;
      } else if (const size_t j = earlier_ctp_of(m.var, i); j != SIZE_MAX) {
        src.kind = CtpMemberSource::Kind::kCtpTable;
        src.source = j;
        deps.push_back(j);
      } else if (!m.IsEmpty()) {
        src.kind = CtpMemberSource::Kind::kPredicate;
      } else {
        src.kind = CtpMemberSource::Kind::kUniversal;
      }
      sources.push_back(src);
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    out.member_sources.push_back(std::move(sources));
    out.ctp_deps.push_back(std::move(deps));
  }

  // Cyclic free-member rejection: CTPs chained only through mutually free
  // members leave the chain's first stage with every seed set universal —
  // the bindings reference each other in a cycle and nothing grounds them.
  if (q.ctps.size() > 1) {
    // A member occurrence is "free" when nothing grounds it locally: no
    // predicate conditions (a `$param` condition counts as grounding — it
    // becomes a literal at bind time) and no BGP binding.
    auto is_free = [&](const Predicate& m) {
      return m.IsEmpty() && bgp_group_of(m.var) == SIZE_MAX;
    };
    // Union-find over CTPs, united through vars free at both occurrences.
    std::vector<size_t> parent(q.ctps.size());
    for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
    auto find = [&](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (size_t i = 0; i < q.ctps.size(); ++i) {
      for (const Predicate& mi : q.ctps[i].members) {
        if (!is_free(mi)) continue;
        for (size_t j = i + 1; j < q.ctps.size(); ++j) {
          for (const Predicate& mj : q.ctps[j].members) {
            if (is_free(mj) && mj.var == mi.var) parent[find(i)] = find(j);
          }
        }
      }
    }
    std::vector<size_t> comp_size(q.ctps.size(), 0);
    for (size_t i = 0; i < q.ctps.size(); ++i) ++comp_size[find(i)];
    for (size_t i = 0; i < q.ctps.size(); ++i) {
      if (comp_size[find(i)] < 2) continue;
      bool all_universal = !out.member_sources[i].empty();
      for (const CtpMemberSource& s : out.member_sources[i]) {
        all_universal &= s.kind == CtpMemberSource::Kind::kUniversal;
      }
      if (!all_universal) continue;
      std::string vars, partners;
      for (const Predicate& m : q.ctps[i].members) {
        vars += (vars.empty() ? "?" : ", ?") + m.var;
      }
      for (size_t j = 0; j < q.ctps.size(); ++j) {
        if (j != i && find(j) == find(i)) {
          partners += (partners.empty() ? "?" : ", ?") + q.ctps[j].tree_var;
        }
      }
      return Status::InvalidArgument(
          "cyclic member dependency: CTP ?" + q.ctps[i].tree_var +
          " shares only free members (" + vars + ") with CTP " + partners +
          ", so no seed set of ?" + q.ctps[i].tree_var +
          " is grounded; break the cycle with a predicate, a BGP binding, or "
          "a $param on one shared member");
    }
  }
  return out;
}

}  // namespace eql
