// The GAM family of CTP evaluation algorithms (Sections 4.2, 4.4-4.7).
//
// One engine implements five published algorithms as configuration deltas,
// mirroring how the paper layers them:
//
//   GAM     (§4.2)  grow-from-root + aggressive merge; duplicate detection at
//                   the *rooted tree* level ("GAM discards all but the first
//                   provenance built for a given rooted tree").
//   ESP     (§4.4)  + edge-set pruning: only the first provenance per edge
//                   set survives (Def 4.3). Fast but incomplete in general.
//   MoESP   (§4.5)  + Mo trees: whenever a Grow/Merge gains seeds, re-rooted
//                   copies at every seed node are injected; Grow is disabled
//                   on Mo-tainted trees. Complete for 2-piecewise-simple
//                   results (Property 4), hence for all path results.
//   LESP    (§4.6)  + limited pruning: per-node seed signatures ss_n; a tree
//                   rooted at n with popcount(ss_n) >= 3 and degree(n) >= 3
//                   escapes edge-set pruning (checked at rooted level
//                   instead, Alg. 4). Guarantees (u,n)-rooted merges.
//   MoLESP  (§4.7)  Mo trees + limited pruning; complete for m <= 3
//                   (Property 8) and for all results whose simple tree
//                   decomposition consists of rooted merges (Property 9).
//
// The engine also implements the Section 4.9 strategies for very large and
// universal (N) seed sets: per-sat-subset priority queues popped
// smallest-first, and suppression of Init trees for universal sets. Under N
// (results: ctp/seed_sets.h) only GAM is complete: Properties 4 and 8 do not
// extend to it, so MoESP and MoLESP return subsets (Figure 1's
// CONNECT("Bob", "Carole", ?any) MAX 3: 8 trees under GAM, 4 under MoLESP).
//
// Memory discipline: all per-tree scratch state lives in flat per-NodeId /
// per-EdgeId arrays with epoch versioning (util/epoch.h) — nothing is
// cleared or reallocated between trees — and trees themselves are O(1)
// parent-pointer records (ctp/tree.h), so the grow/dedup inner loop does no
// heap allocation.
#ifndef EQL_CTP_GAM_H_
#define EQL_CTP_GAM_H_

#include <atomic>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "ctp/filters.h"
#include "ctp/history.h"
#include "ctp/result_set.h"
#include "ctp/search_order.h"
#include "ctp/seed_sets.h"
#include "ctp/stats.h"
#include "ctp/tree.h"
#include "ctp/view.h"
#include "graph/graph.h"
#include "util/epoch.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace eql {

/// How Grow opportunities are distributed over priority queues (§4.9).
enum class QueueStrategy {
  kSingle,        ///< one global queue (the default)
  kPerSatSubset,  ///< one queue per sat(t) mask; pop from the fewest-entries
                  ///< queue, focusing exploration near small seed sets
};

/// Configuration selecting a GAM-family algorithm and its environment.
struct GamConfig {
  bool edge_set_pruning = false;  ///< ESP (Def 4.3)
  bool mo_trees = false;          ///< MoESP (§4.5)
  bool lesp_spare = false;        ///< LESP's limited pruning (§4.6)
  QueueStrategy queue_strategy = QueueStrategy::kSingle;
  CtpFilters filters;
  /// Exploration order; not owned; nullptr selects SmallestFirstOrder.
  SearchOrder* order = nullptr;

  /// Seed-set chunking for the parallel executor (ctp/parallel.h). When
  /// `chunk_set >= 0`, Init trees for that seed set come only from
  /// `chunk_nodes` (sorted ascending), and the set's *other* members are
  /// excluded from the search entirely — Grow never enters them and Init
  /// skips them even when they also belong to another set. The run is then
  /// exactly the CTP with S_chunk_set := chunk_nodes evaluated on the graph
  /// minus the excluded nodes, so chunk result sets are disjoint slices of
  /// the full CTP's result set (each result contains exactly one S_chunk_set
  /// node, Def 2.8 (ii), and it lies in exactly one chunk).
  int chunk_set = -1;
  const std::vector<NodeId>* chunk_nodes = nullptr;  ///< not owned; sorted

  /// Compiled adjacency view for the filters' static predicates (ctp/view.h);
  /// not owned, must outlive the search. The search always iterates a view;
  /// nullptr compiles a local view (a pass-through onto the graph CSRs,
  /// free to build, when there is no LABEL set). The view's direction must be
  /// kBackward when filters.unidirectional and kBoth otherwise, and its
  /// label set must equal filters.allowed_labels (asserted in debug).
  const CompiledCtpView* view = nullptr;

  /// Cooperative cancellation (not owned; may be null). Polled at the same
  /// batched check sites as the TIMEOUT deadline, so a set flag stops the
  /// search within ~128 operations with stats.cancelled — this is how a
  /// streaming sink's early stop reaches every search of a query, including
  /// chunk workers on the pool (ctp/parallel.h threads one flag into every
  /// chunk's config alongside the shared deadline). Time limits do not use
  /// it: CheckDeadline reads the deadline right after the flag.
  const std::atomic<bool>* cancel = nullptr;

  /// Streaming emission hook, installed into the result set (result_set.h):
  /// called with each accepted result; returning false stops the search with
  /// stats.cancelled. Incompatible with TOP-k truncation (FinalizeTopK
  /// reorders after the fact) — with filters.top_k set the hook is ignored
  /// (debug builds assert), so rows are never streamed that the truncation
  /// would disown. The engine's streaming path leaves top_k unset.
  ResultHook on_result;

  /// Deterministic fault injection for the robustness suites (util/fault.h);
  /// not owned, may be null (the production configuration). When set, the
  /// search probes the canonical sites — kFaultSiteAlloc in ProcessNewTree,
  /// kFaultSiteQueuePop at each main-loop pop, kFaultSiteEmit per emitted
  /// result — and a firing probe winds the search down gracefully with
  /// stats.fault_injected, like a timeout.
  FaultInjector* fault = nullptr;

  /// k used by TOP-k bound pruning; 0 = filters.top_k. Pruning applies
  /// whenever it is sound: sigma is decomposable with HasNonPositiveDeltas
  /// (score.h), k > 0, and there is no LIMIT and no max_trees budget. Once
  /// k results are held, any tree whose partial score sum cannot beat the
  /// k-th best is neither grown, merged, nor reported — sigma never
  /// increases along Grow/Merge, so no descendant of such a tree can enter
  /// the final TOP-k window. Rooted-path trees stay exempt from the
  /// grow/registration prunes so the ss_n maintenance LESP's spare
  /// decisions read (§4.6) is unchanged (their merges may still be pruned:
  /// merge products are never rooted paths and never feed ss_n). LIMIT and
  /// max_trees truncate deterministically, and pruning would redirect which
  /// work fits; a TIMEOUT cutoff is best-effort either way. The ROADMAP
  /// architecture note on bound pruning has the full soundness argument.
  ///
  /// The parallel executor clears filters.top_k on chunk configs (the TOP-k
  /// window is applied to the global union) but passes the user's k here so
  /// chunks keep pruning against their local k-th best, which is itself a
  /// lower bound on work the global window can accept.
  int bound_prune_k = 0;

  static GamConfig Gam() { return GamConfig{}; }
  static GamConfig Esp() {
    GamConfig c;
    c.edge_set_pruning = true;
    return c;
  }
  static GamConfig MoEsp() {
    GamConfig c = Esp();
    c.mo_trees = true;
    return c;
  }
  static GamConfig Lesp() {
    GamConfig c = Esp();
    c.lesp_spare = true;
    return c;
  }
  static GamConfig MoLesp() {
    GamConfig c = Esp();
    c.mo_trees = true;
    c.lesp_spare = true;
    return c;
  }
};

/// Long-lived search memory a GamSearch can borrow instead of allocating its
/// own: the tree arena, the history tables, and the flat per-node scratch
/// whose construction dominates short searches. A pool worker keeps one
/// SearchMemory for its lifetime and reuses it across chunks, CTPs, and
/// queries (ctp/parallel.h); PrepareFor() logically clears everything in
/// O(touched), not O(graph), via epoch versioning, and every buffer keeps
/// its grown capacity.
///
/// A SearchMemory may serve only one live GamSearch at a time.
struct SearchMemory {
  TreeArena arena;
  SearchHistory history{&arena};
  /// recordForMerging index: trees rooted at each node (flat per-NodeId).
  EpochBuckets trees_rooted_in;
  /// ss_n (§4.6), flat per-NodeId.
  EpochArray<Bitset64> seed_sig;
  // Epoch-versioned per-tree scratch (no clearing between trees).
  EpochSet grow_nodes;   ///< node set of the tree being grown (Grow1)
  EpochSet merge_nodes;  ///< node set of the merge subject (Merge1)

  /// Clears all state and sizes the flat buffers for `g`'s id bounds.
  void PrepareFor(const Graph& g);

  /// Heap bytes owned by the borrowed allocators (capacity-based, O(1)).
  /// Epoch-cleared structures keep their capacity, so a pooled worker's
  /// bytes reflect its high-water footprint — exactly what a budget should
  /// bound.
  size_t MemoryBytes() const {
    return arena.MemoryBytes() + history.MemoryBytes() +
           trees_rooted_in.MemoryBytes() + seed_sig.MemoryBytes() +
           grow_nodes.MemoryBytes() + merge_nodes.MemoryBytes();
  }
};

/// One CTP evaluation over one graph and seed-set collection. Single-use:
/// construct, Run() once, read results()/stats().
class GamSearch {
 public:
  /// `memory` (optional, not owned) is a reusable SearchMemory; it is
  /// Prepared here and must outlive the search. nullptr allocates a private
  /// one (the single-shot path).
  GamSearch(const Graph& g, const SeedSets& seeds, GamConfig config,
            SearchMemory* memory = nullptr);

  /// Executes the search to completion, timeout, LIMIT, or tree budget.
  /// Always returns OK; consult stats() for how the run ended.
  Status Run();

  const CtpResultSet& results() const { return results_; }
  const SearchStats& stats() const { return stats_; }
  const TreeArena& arena() const { return arena_; }
  const GamConfig& config() const { return config_; }

  /// ss_n after the run (exposed for tests of the LESP machinery).
  Bitset64 SeedSignatureOf(NodeId n) const { return seed_sig_.Get(n); }

  /// Heap bytes of everything this search allocates: the SearchMemory
  /// allocators plus the result set, the priority queues (size-based — the
  /// live entries; the underlying heap capacity is not observable) and the
  /// merge worklist. O(1); this is what filters.memory_budget_bytes bounds.
  size_t MemoryBytes() const {
    return mem_->MemoryBytes() + results_.MemoryBytes() +
           queue_entries_ * sizeof(QueueEntry) +
           pending_merge_.capacity() * sizeof(TreeId);
  }

 private:
  struct QueueEntry {
    double priority;
    uint64_t tie;
    uint64_t seq;
    TreeId tree;
    EdgeId edge;
    NodeId new_root;
  };
  struct EntryGreater {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  using PrioQ = std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryGreater>;

  /// Algorithm 4. Also classifies LESP spares (out-param may be null). `id`
  /// must be the most recent arena tree (the candidate under test).
  bool IsNew(TreeId id, bool* lesp_spared) const;

  /// Algorithm 2 after a positive isNew: history, result emission, merge
  /// registration, Mo injection, Grow enqueueing.
  void ProcessNewTree(TreeId id);

  /// Pushes all eligible (tree, edge) Grow opportunities of id's root.
  void EnqueueGrows(TreeId id);

  /// Algorithm 5 over the pending worklist (aggressive merging).
  void DrainMerges();

  /// Maintains ss_n when a new (n,s)-rooted path appears (§4.6; Alg. 1 l.10).
  void UpdateSeedSignature(const RootedTree& t);

  bool IsResult(const RootedTree& t) const;
  void EmitResult(TreeId id);
  void CheckDeadline();
  bool ChunkExcludes(NodeId n) const;

  /// True if bound pruning is active and no tree whose partial score sum is
  /// `bound` (an upper bound on every descendant's score) can still enter
  /// the TOP-k window. Strictly-below comparison: candidates that could tie
  /// the k-th best are kept, so the pruned search reports the same TOP-k
  /// under both the sequential (insertion-order) and the parallel
  /// (total-order) tie-breaks.
  bool ScorePrunable(double bound) const {
    return prune_active_ && bound < results_.KthBestScore();
  }

  size_t QueueIndexFor(const RootedTree& t);
  /// Index of the non-empty queue with fewest entries; SIZE_MAX if all
  /// empty. O(log) amortized via the lazy size heap, not a linear scan.
  size_t PickQueue();
  /// Records a size change of queue `qi` in the lazy size heap.
  void NoteQueueSize(size_t qi);

  const Graph& g_;
  const SeedSets& seeds_;
  GamConfig config_;
  SmallestFirstOrder default_order_;
  SearchOrder* order_;

  /// Borrowed or privately owned memory; the references below alias into it
  /// so the search body reads the same either way.
  std::unique_ptr<SearchMemory> owned_memory_;
  SearchMemory* mem_;
  TreeArena& arena_;
  SearchHistory& history_;
  EpochBuckets& trees_rooted_in_;
  EpochArray<Bitset64>& seed_sig_;
  std::vector<PrioQ> queues_;
  /// sat-mask -> queue index (§4.9). Dense-indexed by the mask's bits for
  /// small m (the common case); hash fallback beyond kDenseMaskBits sets.
  static constexpr int kDenseMaskBits = 16;
  std::vector<uint32_t> queue_of_mask_dense_;
  std::unordered_map<uint64_t, uint32_t> queue_of_mask_sparse_;
  /// Lazy min-heap of (queue size, queue index); stale entries are dropped
  /// on pop. Every nonempty queue always has one exact entry.
  std::priority_queue<std::pair<uint64_t, uint64_t>,
                      std::vector<std::pair<uint64_t, uint64_t>>,
                      std::greater<std::pair<uint64_t, uint64_t>>>
      queue_size_heap_;
  std::vector<TreeId> pending_merge_;

  EpochSet& grow_nodes_;   ///< node set of the tree being grown (Grow1)
  EpochSet& merge_nodes_;  ///< node set of the merge subject (Merge1)

  CtpResultSet results_;
  SearchStats stats_;
  Deadline deadline_;
  Stopwatch run_sw_;  ///< restarted by Run(); prices first_result_ms
  uint64_t seq_ = 0;
  uint64_t queue_entries_ = 0;  ///< live entries across queues_ (accounting)
  uint64_t ops_since_deadline_check_ = 0;
  bool stop_ = false;
  /// Set when the score and filters make TOP-k bound pruning sound (ctor).
  bool prune_active_ = false;
  /// Holds the view compiled when config.view was null; config_.view then
  /// points here.
  std::optional<CompiledCtpView> local_view_;
};

}  // namespace eql

#endif  // EQL_CTP_GAM_H_
