// Seed sets S_1..S_m of a CTP (Definition 2.8) with per-node signatures.
//
// A node's *signature* is the bitset of seed sets it belongs to; sat(t) of a
// tree (Observation 1) is the union of its nodes' signatures. Universal sets
// (an S_i equal to N, all graph nodes — Section 4.9) are flagged rather than
// materialized: they contribute no signature bits and are excluded from the
// mask a result must cover, because any node of the tree matches them.
//
// With a universal set (Section 4.9), a result is a tree (edges undirected)
// holding exactly one node of each other set, whose leaves are all seeds of
// those sets but at most one: N's representative, the root the N member
// binds. A node in every other set is the 0-edge result. (Def 2.8 read
// literally admits only 1-node trees, every node being in N.) GAM is
// complete for this set; tests/differential_test.cc checks it by brute force.
#ifndef EQL_CTP_SEED_SETS_H_
#define EQL_CTP_SEED_SETS_H_

#include <vector>

#include "graph/graph.h"
#include "util/bitset64.h"
#include "util/status.h"

namespace eql {

/// Immutable collection of m seed sets over one graph. m must be in [1, 64].
class SeedSets {
 public:
  /// Builds seed sets; `sets[i]` lists the nodes of S_i (ignored and allowed
  /// empty when `universal[i]`). Duplicate nodes inside one set are deduped.
  static Result<SeedSets> Make(const Graph& g, std::vector<std::vector<NodeId>> sets,
                               std::vector<bool> universal = {});

  /// Convenience for tests/examples: no universal sets.
  static Result<SeedSets> Of(const Graph& g, std::vector<std::vector<NodeId>> sets) {
    return Make(g, std::move(sets));
  }

  int num_sets() const { return static_cast<int>(sets_.size()); }

  /// Nodes of S_i; empty for universal sets.
  const std::vector<NodeId>& Set(int i) const { return sets_[i]; }

  bool IsUniversal(int i) const { return universal_[i]; }
  bool HasUniversal() const { return has_universal_; }

  /// Bitset of sets that node n seeds (universal sets contribute no bits).
  /// A dense per-NodeId array: the innermost Grow2 loop probes this per
  /// incident edge, so the lookup must be one indexed load, not a hash probe.
  Bitset64 Signature(NodeId n) const { return signature_[n]; }
  bool IsSeed(NodeId n) const { return !signature_[n].Empty(); }

  /// All m sets.
  Bitset64 FullMask() const { return full_mask_; }
  /// The sets a result tree must explicitly cover (non-universal ones).
  Bitset64 RequiredMask() const { return required_mask_; }

  /// All distinct seed nodes across non-universal sets.
  const std::vector<NodeId>& AllSeeds() const { return all_seeds_; }

  /// Total seed count of set i (0 for universal).
  size_t SetSize(int i) const { return sets_[i].size(); }

 private:
  SeedSets() = default;

  std::vector<std::vector<NodeId>> sets_;
  std::vector<bool> universal_;
  std::vector<Bitset64> signature_;  ///< dense, one slot per graph node
  std::vector<NodeId> all_seeds_;
  Bitset64 full_mask_;
  Bitset64 required_mask_;
  bool has_universal_ = false;
};

}  // namespace eql

#endif  // EQL_CTP_SEED_SETS_H_
