#include "ctp/parallel.h"

#include <algorithm>
#include <bit>
#include <compare>
#include <span>

#include "util/stopwatch.h"

namespace eql {

namespace {

/// One result staged by a chunk worker, extracted before the worker's arena
/// is recycled. Its sorted edge set and seed tuple live in the chunk's flat
/// buffers (ChunkOutput), so staging costs no allocation per result and the
/// merge tears down three vectors per chunk, not two per result.
struct ChunkResult {
  uint64_t hash = 0;  ///< incremental XOR edge-set hash (the dedup word)
  double score = 0;
  NodeId root = kNoNode;
  uint32_t num_edges = 0;
  uint32_t num_seeds = 0;
  size_t edge_offset = 0;  ///< into ChunkOutput::edges
  size_t seed_offset = 0;  ///< into ChunkOutput::seeds
};

/// Output slot of one chunk task (written by exactly one worker).
struct ChunkOutput {
  Status status = Status::Ok();
  SearchStats stats;
  std::vector<ChunkResult> results;
  std::vector<EdgeId> edges;  ///< the results' sorted edge sets, back to back
  std::vector<NodeId> seeds;  ///< the results' seed tuples, back to back
};

/// A staged result with its spans resolved: what the merge dedups, orders
/// and materializes. Contiguous, so sorting touches no chunk buffer unless
/// two candidates tie on score, edge count and hash.
struct Candidate {
  double score = 0;
  uint64_t hash = 0;
  std::span<const EdgeId> edges;
  std::span<const NodeId> seed_of_set;
  NodeId root = kNoNode;
};

/// Total order on results: score desc, then fewest edges, then edge-set
/// hash, then seed tuple, then the edge sets themselves. Independent of
/// thread scheduling and chunk order, so TOP-k/LIMIT tie-breaks are stable
/// run to run and across pool sizes.
bool ResultLess(const Candidate& a, const Candidate& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.edges.size() != b.edges.size()) return a.edges.size() < b.edges.size();
  if (a.hash != b.hash) return a.hash < b.hash;
  if (auto c = std::lexicographical_compare_three_way(
          a.seed_of_set.begin(), a.seed_of_set.end(), b.seed_of_set.begin(),
          b.seed_of_set.end());
      c != 0) {
    return c < 0;
  }
  return std::ranges::lexicographical_compare(a.edges, b.edges);
}

}  // namespace

CtpExecutor::CtpExecutor(unsigned num_workers) {
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  num_workers = std::min(num_workers, 512u);  // header: thread-spawn guard
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

CtpExecutor::~CtpExecutor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

CtpExecutor& CtpExecutor::Default() {
  static CtpExecutor* pool = new CtpExecutor(0);  // leaked by design (header)
  return *pool;
}

void CtpExecutor::Submit(TaskGroup* group, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++group->pending_;
    queue_.push_back(Task{group, std::move(fn)});
  }
  work_cv_.notify_one();
}

void CtpExecutor::FinishTask(TaskGroup* group) {
  bool last;
  {
    std::lock_guard<std::mutex> lk(mu_);
    last = --group->pending_ == 0;
  }
  if (last) done_cv_.notify_all();
}

void CtpExecutor::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with nothing left to run
    Task t = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    t.fn();
    FinishTask(t.group);
    lk.lock();
  }
}

void CtpExecutor::Wait(TaskGroup* group) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (group->pending_ == 0) return;
    // Help: run a queued task of this group inline rather than sleeping.
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [&](const Task& t) { return t.group == group; });
    if (it != queue_.end()) {
      Task t = std::move(*it);
      queue_.erase(it);
      lk.unlock();
      t.fn();
      FinishTask(group);
      lk.lock();
      continue;
    }
    // All remaining group tasks are running on workers; they signal done_cv_.
    done_cv_.wait(lk, [&] { return group->pending_ == 0; });
  }
}

std::unique_ptr<SearchMemory> CtpExecutor::AcquireMemory() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_memory_.empty()) {
      auto m = std::move(free_memory_.back());
      free_memory_.pop_back();
      return m;
    }
  }
  return std::make_unique<SearchMemory>();
}

void CtpExecutor::ReleaseMemory(std::unique_ptr<SearchMemory> m) {
  std::lock_guard<std::mutex> lk(mu_);
  // Retain at most one memory per worker plus a couple for helping caller
  // threads; an unbounded list would pin peak-search-sized arenas for the
  // life of the pool (Default() lives as long as the process).
  if (free_memory_.size() < workers_.size() + 2) {
    free_memory_.push_back(std::move(m));
  }
}

Result<ParallelCtpOutcome> CtpExecutor::Evaluate(
    const Graph& g, const SeedSets& seeds, const CtpFilters& filters,
    const ParallelCtpOptions& options) {
  Stopwatch sw;
  if (!IsGamFamily(options.algorithm)) {
    return Status::InvalidArgument(
        "parallel evaluation needs a GAM-family algorithm");
  }
  // Split the largest non-universal seed set.
  size_t split_idx = SIZE_MAX;
  size_t split_size = 0;
  for (int i = 0; i < seeds.num_sets(); ++i) {
    if (seeds.IsUniversal(i)) continue;
    if (seeds.SetSize(i) > split_size) {
      split_size = seeds.SetSize(i);
      split_idx = static_cast<size_t>(i);
    }
  }
  if (split_idx == SIZE_MAX) {
    return Status::InvalidArgument("no splittable seed set");
  }

  unsigned chunks =
      options.num_threads != 0 ? options.num_threads : num_workers();
  chunks = std::min<unsigned>(std::max(1u, chunks),
                              static_cast<unsigned>(split_size));
  const std::vector<NodeId>& split_set = seeds.Set(static_cast<int>(split_idx));

  // One shared absolute deadline for the whole CTP: chunks started late (more
  // chunks than workers) get the remaining budget, not a fresh one.
  const Deadline deadline = filters.timeout_ms >= 0
                                ? Deadline::AfterMs(filters.timeout_ms)
                                : Deadline::Infinite();

  // Round-robin chunking keeps chunk workloads balanced even when the seed
  // set is sorted by graph region; each chunk is then sorted so the chunk
  // exclusion probe in the search is a binary search.
  std::vector<std::vector<NodeId>> chunk_nodes(chunks);
  for (size_t i = 0; i < split_set.size(); ++i) {
    chunk_nodes[i % chunks].push_back(split_set[i]);
  }
  for (auto& c : chunk_nodes) std::sort(c.begin(), c.end());

  // Compile the CTP's static predicates once, cached in the executor;
  // every chunk shares the view read-only, and repeated CTPs over the same
  // label vocabulary (query batches) reuse it. Without LABEL or UNI each
  // chunk's search makes its own pass-through view, which costs nothing.
  std::shared_ptr<const CompiledCtpView> view;
  if (filters.allowed_labels || filters.unidirectional) {
    view = view_cache_.Get(g, filters.allowed_labels,
                           CompiledCtpView::DirectionFor(filters.unidirectional));
  }

  std::vector<ChunkOutput> outputs(chunks);
  TaskGroup group;
  for (unsigned c = 0; c < chunks; ++c) {
    Submit(&group, [this, &g, &seeds, &filters, &options, &deadline, &sw,
                    &chunk_nodes, &outputs, &view, c, chunks, split_idx] {
      ChunkOutput& out = outputs[c];
      // Chunks queued behind a smaller pool start late; remember the offset
      // so first_result_ms reports time since Evaluate() entry, not since
      // this chunk's own start.
      const double chunk_start_ms = sw.ElapsedMs();
      const int64_t remaining = deadline.RemainingMs();
      if (remaining == 0) {  // budget spent before this chunk even started
        out.stats.timed_out = true;
        return;
      }
      GamConfig config = MakeGamConfig(options.algorithm);
      config.queue_strategy = options.queue_strategy;
      config.filters = filters;
      config.filters.top_k = -1;  // TOP-k needs the global union
      config.view = view.get();
      config.cancel = options.cancel;
      config.fault = options.fault;
      // The per-query budget bounds the *sum* of chunk footprints: each
      // chunk gets an equal slice. Integer division may leave a remainder
      // unused — the budget is a ceiling, not a target.
      if (filters.memory_budget_bytes != 0) {
        config.filters.memory_budget_bytes =
            std::max<uint64_t>(1, filters.memory_budget_bytes / chunks);
      }
      // Chunks keep pruning against their local k-th best even though their
      // filters carry no TOP-k: a chunk's k results with score >= s all
      // reach the union, so a chunk candidate strictly below its local s can
      // never enter the global TOP-k window either.
      if (filters.score != nullptr && filters.top_k > 0) {
        config.bound_prune_k = filters.top_k;
      }
      if (filters.timeout_ms >= 0) config.filters.timeout_ms = remaining;
      // LIMIT push-down: without a score every chunk result survives to the
      // union (chunk results partition the full result set), so no chunk
      // needs more than `limit` of them. With a score the global TOP-k /
      // LIMIT pick from the full candidate set, so chunks run uncapped.
      if (filters.score != nullptr) config.filters.limit = UINT64_MAX;
      config.chunk_set = static_cast<int>(split_idx);
      config.chunk_nodes = &chunk_nodes[c];

      std::unique_ptr<SearchMemory> memory = AcquireMemory();
      {
        GamSearch search(g, seeds, std::move(config), memory.get());
        out.status = search.Run();
        if (out.status.ok()) {
          out.stats = search.stats();
          if (out.stats.first_result_ms >= 0) {
            out.stats.first_result_ms += chunk_start_ms;
          }
          out.results.reserve(search.results().size());
          for (const CtpResult& r : search.results().results()) {
            const RootedTree& t = search.arena().Get(r.tree);
            ChunkResult cr;
            cr.hash = t.edge_set_hash;
            cr.root = t.root;
            cr.score = r.score;
            cr.edge_offset = out.edges.size();
            cr.seed_offset = out.seeds.size();
            search.arena().AppendEdges(r.tree, &out.edges);
            std::sort(out.edges.begin() + cr.edge_offset, out.edges.end());
            cr.num_edges = static_cast<uint32_t>(out.edges.size() - cr.edge_offset);
            out.seeds.insert(out.seeds.end(), r.seed_of_set.begin(),
                             r.seed_of_set.end());
            cr.num_seeds = static_cast<uint32_t>(r.seed_of_set.size());
            out.results.push_back(cr);
          }
        }
      }
      ReleaseMemory(std::move(memory));
    });
  }
  Wait(&group);

  ParallelCtpOutcome out;
  out.split_set = split_idx;
  out.threads_used = chunks;
  out.used_view = view != nullptr;

  for (ChunkOutput& chunk : outputs) {
    if (!chunk.status.ok()) return chunk.status;
    out.chunk_stats.push_back(chunk.stats);
    out.stats.init_trees += chunk.stats.init_trees;
    out.stats.grow_attempts += chunk.stats.grow_attempts;
    out.stats.merge_attempts += chunk.stats.merge_attempts;
    out.stats.trees_built += chunk.stats.trees_built;
    out.stats.mo_trees += chunk.stats.mo_trees;
    out.stats.trees_pruned += chunk.stats.trees_pruned;
    out.stats.lesp_spared += chunk.stats.lesp_spared;
    out.stats.bound_pruned += chunk.stats.bound_pruned;
    out.stats.queue_pushed += chunk.stats.queue_pushed;
    out.stats.duplicate_results += chunk.stats.duplicate_results;
    out.stats.timed_out |= chunk.stats.timed_out;
    out.stats.budget_exhausted |= chunk.stats.budget_exhausted;
    out.stats.cancelled |= chunk.stats.cancelled;
    out.stats.memory_budget_hit |= chunk.stats.memory_budget_hit;
    out.stats.fault_injected |= chunk.stats.fault_injected;
    // Peaks sum: the chunks' footprints coexist (the per-query budget was
    // divided across them), so the aggregate peak is the total.
    out.stats.memory_bytes_peak += chunk.stats.memory_bytes_peak;
    // Earliest first-result across chunks, measured from Evaluate() entry
    // (chunk starts are offset above, so queued chunks report honestly).
    if (chunk.stats.first_result_ms >= 0 &&
        (out.stats.first_result_ms < 0 ||
         chunk.stats.first_result_ms < out.stats.first_result_ms)) {
      out.stats.first_result_ms = chunk.stats.first_result_ms;
    }
  }

  // Cross-chunk dedup on the one-word incremental hash, in chunk order, in
  // an open-addressing table of `merged` indices (the hash is already
  // avalanched, so its low bits pick the slot). Chunk result sets are
  // disjoint by construction (header), so this is pure insurance; exactness
  // on a 64-bit collision costs one span compare.
  size_t staged = 0;
  for (const ChunkOutput& chunk : outputs) staged += chunk.results.size();
  std::vector<Candidate> merged;
  merged.reserve(staged);
  constexpr uint32_t kEmptySlot = UINT32_MAX;
  std::vector<uint32_t> slots(std::bit_ceil(2 * staged + 1), kEmptySlot);
  const size_t mask = slots.size() - 1;
  for (const ChunkOutput& chunk : outputs) {
    // Fault site "chunk-merge": one probe per chunk. A firing chunk's slice
    // is dropped from the union — the shape of a worker lost after its
    // search finished — and the run reports kFaultInjected; the surviving
    // chunks still form a well-formed (partial) result set.
    if (options.fault != nullptr &&
        options.fault->ShouldFail(kFaultSiteChunkMerge)) {
      out.stats.fault_injected = true;
      continue;
    }
    for (const ChunkResult& r : chunk.results) {
      const Candidate c{
          r.score, r.hash,
          std::span<const EdgeId>(chunk.edges.data() + r.edge_offset, r.num_edges),
          std::span<const NodeId>(chunk.seeds.data() + r.seed_offset, r.num_seeds),
          r.root};
      size_t slot = r.hash & mask;
      bool dup = false;
      for (; slots[slot] != kEmptySlot; slot = (slot + 1) & mask) {
        const Candidate& seen = merged[slots[slot]];
        if (seen.hash == c.hash && std::ranges::equal(seen.edges, c.edges)) {
          dup = true;
          break;
        }
      }
      if (dup) {
        ++out.stats.duplicate_results;
        continue;
      }
      slots[slot] = static_cast<uint32_t>(merged.size());
      merged.push_back(c);
    }
  }

  // Deterministic total order before TOP-k/LIMIT (header). The order is
  // strict once duplicates are gone, so selecting the window first and
  // sorting only it yields the prefix a full sort would.
  size_t window = merged.size();
  if (filters.score != nullptr && filters.top_k > 0) {
    window = std::min(window, static_cast<size_t>(filters.top_k));
  }
  if (filters.limit < window) window = static_cast<size_t>(filters.limit);
  if (window < merged.size()) {
    std::nth_element(merged.begin(), merged.begin() + window, merged.end(),
                     ResultLess);
    merged.resize(window);
  }
  std::sort(merged.begin(), merged.end(), ResultLess);

  size_t window_edges = 0;
  for (const Candidate& c : merged) window_edges += c.edges.size();
  out.arena.Reserve(merged.size(), window_edges);
  out.results.reserve(merged.size());
  for (const Candidate& c : merged) {
    TreeId id = out.arena.MakeAdHocSorted(c.root, c.edges, g, seeds);
    out.results.push_back(CtpResult{
        id, std::vector<NodeId>(c.seed_of_set.begin(), c.seed_of_set.end()),
        c.score});
  }
  out.stats.results_found = out.results.size();
  out.stats.complete = !out.stats.timed_out && !out.stats.budget_exhausted &&
                       !out.stats.cancelled && !out.stats.memory_budget_hit &&
                       !out.stats.fault_injected;
  out.stats.elapsed_ms = sw.ElapsedMs();
  return out;
}

Result<ParallelCtpOutcome> EvaluateCtpParallel(const Graph& g,
                                               const SeedSets& seeds,
                                               const CtpFilters& filters,
                                               const ParallelCtpOptions& options) {
  CtpExecutor& executor =
      options.executor != nullptr ? *options.executor : CtpExecutor::Default();
  return executor.Evaluate(g, seeds, filters, options);
}

}  // namespace eql
