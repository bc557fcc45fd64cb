#include "eval/engine.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "eval/plan.h"
#include "eval/stats.h"
#include "query/parser.h"
#include "query/validator.h"
#include "storage/bgp_eval.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace eql {

// ---------------------------------------------------------------------------
// The compiled plan behind PreparedQuery: everything Execute can reuse across
// calls. Immutable after PlanQuery; shared by concurrent executions.
// ---------------------------------------------------------------------------

struct PreparedQuery::Plan {
  /// The validated query, possibly still carrying `$name` placeholders.
  Query query;
  /// Head columns + kinds of streamed rows (static: roles are structural).
  RowSchema schema;
  /// The lowered stage algebra: BGP groups, member seed sources, per-stage
  /// cost estimates, CSE marks and both execution orders (eval/plan.h).
  /// Structural, so valid for any `$`-bound copy of the query.
  PhysicalPlan physical;
  /// Graph statistics the estimates came from (shared process-wide cache,
  /// keyed by Graph::uid()); kept for EXPLAIN.
  std::shared_ptr<const GraphStats> stats;

  struct PlannedCtp {
    /// SCORE function, constructed (and its name validated) once; shared by
    /// concurrent executions — score functions are stateless.
    std::unique_ptr<ScoreFunction> score;
    /// LABEL ids resolved + normalized at Prepare when the label set is
    /// fully literal; nullopt when `$` params force per-call resolution.
    std::optional<std::vector<StrId>> static_labels;
    /// Pre-warmed compiled view for static LABEL/UNI predicates; holding the
    /// shared_ptr keeps it alive across cache LRU churn.
    std::shared_ptr<const CompiledCtpView> warmed_view;
  };
  std::vector<PlannedCtp> ctps;
};

// ---------------------------------------------------------------------------
// Per-call execution state.
// ---------------------------------------------------------------------------

/// Merged options + resolved executor + deadlines for one execution.
struct EqlEngine::ExecEnv {
  EngineOptions opts;
  std::optional<int> top_k_override;
  Deadline query_deadline;
  CtpExecutor* executor = nullptr;
  /// Set when a streaming sink stops the execution; checked by searches at
  /// their deadline sites (null in materialized mode — nothing sets it).
  std::atomic<bool>* cancel = nullptr;
  StreamState* stream = nullptr;
  /// Index of the CTP whose results stream row-by-row (the last one).
  size_t stream_ctp = SIZE_MAX;
  /// Per-query memory budget on the search-side allocators (bytes; 0 =
  /// unlimited). Every CTP checks the full budget — worker arenas are
  /// recycled between stages, not cumulative (see engine.h).
  uint64_t memory_budget = 0;
  /// Deterministic fault injection for this call (tests only; may be null).
  FaultInjector* fault = nullptr;
};

/// State of one streaming execution: the sink, the pre-joined context table,
/// and the emission counters.
struct EqlEngine::StreamState {
  ResultSink* sink = nullptr;
  const std::vector<std::string>* head = nullptr;
  /// Tree registry of the *earlier* (materialized) CTP stages; the streaming
  /// CTP's trees are passed alongside each emission instead.
  const std::vector<ResultTreeInfo>* earlier = nullptr;
  BindingTable pre;   ///< join of every table except the streaming CTP's
  bool has_pre = false;
  std::vector<std::string> ctp_cols;  ///< streaming CTP: member vars + tree var
  std::vector<ColKind> ctp_kinds;
  uint64_t rows = 0;
  double first_row_ms = -1;
  Stopwatch sw;  ///< started at ExecutePlan entry
  std::atomic<bool> cancel{false};
  /// The execution's effective cancel flag: &cancel, unless the caller
  /// supplied an external one (ExecOptions::cancel) — then that, so sink
  /// stops and caller cancellation share one lever.
  std::atomic<bool>* cancel_flag = &cancel;
  bool stopped = false;  ///< the sink returned false

  /// Emits every final row induced by one connecting tree of the streaming
  /// CTP: its one-row table joins against the pre-joined context and
  /// projects the head. Returns false once the sink requests a stop.
  bool EmitTreeRows(std::vector<uint32_t> member_row,
                    const ResultTreeInfo& tree);
};

bool EqlEngine::StreamState::EmitTreeRows(std::vector<uint32_t> member_row,
                                          const ResultTreeInfo& tree) {
  BindingTable one(ctp_cols, ctp_kinds);
  // The fresh tree gets the first index past the earlier-stage registry; the
  // per-row remap below resolves it.
  member_row.push_back(static_cast<uint32_t>(earlier->size()));
  one.AddRow(std::move(member_row));
  BindingTable joined =
      has_pre ? BindingTable::NaturalJoin(one, pre) : std::move(one);
  auto projected = joined.Project(*head, /*distinct=*/false);
  if (!projected.ok()) return false;  // head ⊆ columns: cannot happen
  const BindingTable& t = *projected;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    StreamRow row;
    row.values.reserve(t.NumColumns());
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      const uint32_t v = t.At(r, c);
      if (t.kind(c) == ColKind::kTree) {
        row.values.push_back(static_cast<uint32_t>(row.trees.size()));
        row.trees.push_back(v < earlier->size() ? (*earlier)[v] : tree);
      } else {
        row.values.push_back(v);
      }
    }
    ++rows;
    if (first_row_ms < 0) first_row_ms = sw.ElapsedMs();
    if (!sink->OnRow(std::move(row))) {
      stopped = true;
      cancel_flag->store(true, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

EqlEngine::EqlEngine(const Graph& g, EngineOptions options)
    : g_(g), options_(options) {
  if (options_.executor != nullptr) {
    executor_ = options_.executor;
  } else if (options_.num_threads > 1) {
    owned_executor_ = std::make_unique<CtpExecutor>(options_.num_threads);
    executor_ = owned_executor_.get();
  }
}

EqlEngine::~EqlEngine() = default;

namespace {

/// Max/min seed-set size ratio at which a CTP switches to per-subset
/// queues (Section 4.9).
constexpr double kSkewThreshold = 64.0;

/// Builds engine-level CtpFilters from the (bound) filter spec, the merged
/// options and the plan's precompiled pieces. The whole-query deadline clamps
/// every CTP's budget to the *remaining* time, so a multi-CTP query cannot
/// run N x the user's budget.
Result<CtpFilters> CompileFilters(const Graph& g, const CtpFilterSpec& spec,
                                  const EngineOptions& opts,
                                  const PreparedQuery::Plan::PlannedCtp& pc,
                                  const std::optional<int>& top_k_override,
                                  const Deadline& query_deadline) {
  CtpFilters f;
  f.unidirectional = spec.uni;
  if (spec.labels) {
    if (pc.static_labels) {
      f.allowed_labels = *pc.static_labels;  // resolved + normalized at Prepare
    } else {
      std::vector<StrId> ids;
      for (const std::string& l : *spec.labels) {
        StrId id = g.dict().Lookup(l);
        if (id != kNoStrId) ids.push_back(id);
        // Unknown labels simply cannot match any edge; they narrow the set.
      }
      f.allowed_labels = std::move(ids);
      f.NormalizeLabels();
    }
  }
  if (spec.max_edges) f.max_edges = *spec.max_edges;
  f.timeout_ms = spec.timeout_ms ? *spec.timeout_ms : opts.default_ctp_timeout_ms;
  if (!query_deadline.IsInfinite()) {
    const int64_t remaining = query_deadline.RemainingMs();
    f.timeout_ms = f.timeout_ms < 0 ? remaining : std::min(f.timeout_ms, remaining);
  }
  if (spec.limit) f.limit = *spec.limit;
  if (opts.default_max_trees > 0) f.max_trees = opts.default_max_trees;
  if (pc.score != nullptr) {
    f.score = pc.score.get();
    if (spec.top_k) f.top_k = *spec.top_k;
    if (top_k_override && *top_k_override > 0) f.top_k = *top_k_override;
  }
  return f;
}

/// Step (C)'s join order: tables sharing columns first, cross products last.
/// Takes pointers so callers can pick a subset of the stage tables (the
/// streaming path joins everything except the final CTP's); the input order
/// is the stage-id order whatever order the stages ran in, which is what
/// makes the rows independent of the execution order. `consume` moves out
/// of the tables (the one-shot path); false copies the first table so the
/// stage tables stay usable (the streaming path still derives the final
/// CTP's seeds from them).
BindingTable GreedyJoin(std::vector<BindingTable*> tables, bool consume) {
  BindingTable acc;
  if (tables.empty()) return acc;
  std::vector<bool> used(tables.size(), false);
  acc = consume ? std::move(*tables[0]) : *tables[0];
  used[0] = true;
  for (size_t step = 1; step < tables.size(); ++step) {
    int best = -1;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (used[i]) continue;
      for (const auto& col : tables[i]->columns()) {
        if (acc.HasColumn(col)) {
          best = static_cast<int>(i);
          break;
        }
      }
      if (best >= 0) break;
    }
    if (best < 0) {  // no shared columns anywhere: cross with the first unused
      for (size_t i = 0; i < tables.size() && best < 0; ++i) {
        if (!used[i]) best = static_cast<int>(i);
      }
    }
    acc = BindingTable::NaturalJoin(acc, *tables[best]);
    used[best] = true;
  }
  return acc;
}

}  // namespace

// ---------------------------------------------------------------------------
// Planning (the Prepare-time front end).
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const PreparedQuery::Plan>> EqlEngine::PlanQuery(
    Query q) const {
  auto plan = std::make_shared<PreparedQuery::Plan>();
  if (q.param_names.empty()) q.param_names = CollectParamNames(q);

  // Head schema: roles are structural, so kinds are known without executing.
  plan->schema.columns = q.head;
  for (const std::string& h : q.head) {
    ColKind kind = ColKind::kNode;
    for (const CtpPattern& ctp : q.ctps) {
      if (ctp.tree_var == h) kind = ColKind::kTree;
    }
    for (const EdgePattern& ep : q.patterns) {
      if (ep.edge.var == h) kind = ColKind::kEdge;
    }
    plan->schema.kinds.push_back(kind);
  }

  // Lower to the stage algebra: BGP groups, member seed sources (rejecting
  // cyclic free-member dependencies), cost estimates, CSE marks and both
  // execution orders.
  plan->stats = GraphStats::Get(g_);
  auto physical = BuildPhysicalPlan(q, g_, *plan->stats);
  if (!physical.ok()) return physical.status();
  plan->physical = std::move(physical).value();

  // Per-CTP compilation: score construction (validating the name), literal
  // LABEL resolution, and compiled-view pre-warming.
  for (const CtpPattern& ctp : q.ctps) {
    PreparedQuery::Plan::PlannedCtp pc;
    const CtpFilterSpec& spec = ctp.filters;
    if (spec.score) {
      pc.score = CreateScoreFunction(*spec.score);
      if (pc.score == nullptr) {
        return Status::InvalidArgument("unknown score function '" + *spec.score +
                                       "' (try edge_count, degree_penalty, "
                                       "label_diversity, root_degree)");
      }
    }
    if (spec.labels && spec.label_params.empty()) {
      std::vector<StrId> ids;
      for (const std::string& l : *spec.labels) {
        StrId id = g_.dict().Lookup(l);
        if (id != kNoStrId) ids.push_back(id);
      }
      pc.static_labels = NormalizeLabelSet(std::move(ids));
    }
    // Pre-warm the compiled view for static predicates, mirroring the
    // execution-time condition so the Get there is a guaranteed cache hit.
    if ((pc.static_labels.has_value() || spec.uni) &&
        spec.label_params.empty() &&
        (IsGamFamily(options_.algorithm) || !spec.uni)) {
      ViewCache& cache =
          executor_ != nullptr ? executor_->view_cache() : view_cache_;
      pc.warmed_view = cache.Get(
          g_, pc.static_labels, CompiledCtpView::DirectionFor(spec.uni));
    }
    plan->ctps.push_back(std::move(pc));
  }

  plan->query = std::move(q);
  return std::shared_ptr<const PreparedQuery::Plan>(std::move(plan));
}

Result<PreparedQuery> EqlEngine::Prepare(std::string_view query_text) const {
  auto parsed = ParseQuery(query_text);
  if (!parsed.ok()) return parsed.status();
  Query q = std::move(parsed).value();
  Status st = ValidateQuery(&q);
  if (!st.ok()) return st;
  auto plan = PlanQuery(std::move(q));
  if (!plan.ok()) return plan.status();
  return PreparedQuery(this, std::move(plan).value());
}

Result<QueryResult> EqlEngine::Run(std::string_view query_text) const {
  return RunWithCse(query_text, nullptr);
}

Result<QueryResult> EqlEngine::RunParsed(const Query& q) const {
  auto plan = PlanQuery(q);
  if (!plan.ok()) return plan.status();
  const PreparedQuery::Plan& p = **plan;
  if (!p.query.param_names.empty()) {
    return Status::InvalidArgument(
        "query has unbound parameters ($" + p.query.param_names[0] +
        "); use Prepare + Execute(params)");
  }
  QueryResult out;
  Status st = ExecutePlan(p, p.query, ExecOptions{}, nullptr, nullptr, &out);
  if (!st.ok()) return st;
  return out;
}

// ---------------------------------------------------------------------------
// PreparedQuery surface.
// ---------------------------------------------------------------------------

const std::vector<std::string>& PreparedQuery::param_names() const {
  return plan_->query.param_names;
}
const Query& PreparedQuery::query() const { return plan_->query; }
const RowSchema& PreparedQuery::schema() const { return plan_->schema; }

namespace {

/// Binds `params` against the plan's query, returning the query to execute:
/// the plan's own (no binding needed) or `*storage`. One definition shared
/// by both Execute overloads so binding semantics cannot diverge.
Result<const Query*> BindForExecute(const PreparedQuery::Plan& plan,
                                    const ParamMap& params, Query* storage) {
  if (plan.query.param_names.empty() && params.empty()) return &plan.query;
  auto b = BindParams(plan.query, params);
  if (!b.ok()) return b.status();
  *storage = std::move(b).value();
  return storage;
}

}  // namespace

Result<QueryResult> PreparedQuery::Execute(const ParamMap& params,
                                           const ExecOptions& opts) const {
  Query bound_storage;
  auto bound = BindForExecute(*plan_, params, &bound_storage);
  if (!bound.ok()) return bound.status();
  QueryResult out;
  Status st = engine_->ExecutePlan(*plan_, **bound, opts, nullptr, nullptr, &out);
  if (!st.ok()) return st;
  return out;
}

Result<QueryResult> PreparedQuery::Execute(const ParamMap& params,
                                           ResultSink& sink,
                                           const ExecOptions& opts) const {
  Query bound_storage;
  auto bound = BindForExecute(*plan_, params, &bound_storage);
  if (!bound.ok()) return bound.status();
  QueryResult out;
  EqlEngine::StreamState stream;
  stream.sink = &sink;
  Status st = engine_->ExecutePlan(*plan_, **bound, opts, &stream, nullptr, &out);
  if (!st.ok()) return st;
  return out;
}

std::string PreparedQuery::Explain() const {
  return RenderExplain(plan_->physical, plan_->query, engine_->g_);
}

std::string PreparedQuery::Explain(const QueryResult& result) const {
  return RenderExplain(plan_->physical, plan_->query, engine_->g_, &result);
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// Staged output of one CTP evaluation: everything ExecutePlan needs to
/// stitch the CTP table into the query. Tree handles are still CTP-local —
/// row i pairs with trees[i], and the stitch step offsets them into
/// QueryResult::trees — so stages can be produced concurrently.
struct EqlEngine::CtpStage {
  CtpRunInfo run;
  std::vector<ResultTreeInfo> trees;
  std::vector<std::vector<uint32_t>> rows;  ///< member bindings, no tree col
};

/// RunBatch-scoped CSE store: complete, clean CTP results of self-grounded
/// table specs, keyed by CtpTableKey. Scoped to one batch on purpose — an
/// engine-lifetime cache would let a query's telemetry (trees built, peak
/// memory) depend on unrelated earlier traffic. First insert wins, so
/// concurrent batch queries racing on the same spec stay deterministic in
/// what later queries observe.
struct EqlEngine::BatchCseCache {
  struct Entry {
    std::vector<std::vector<uint32_t>> rows;
    std::vector<ResultTreeInfo> trees;
    CtpRunInfo run;
  };
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> entries;

  std::shared_ptr<const Entry> Find(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    return it == entries.end() ? nullptr : it->second;
  }
  void Insert(const std::string& key, std::shared_ptr<const Entry> entry) {
    std::lock_guard<std::mutex> lock(mu);
    entries.emplace(key, std::move(entry));  // first insert wins
  }
};

Status EqlEngine::EvalOneCtp(const CtpPattern& ctp, size_t ctp_index,
                             const PreparedQuery::Plan& plan, const ExecEnv& env,
                             const std::vector<BindingTable>& tables,
                             bool skip_search, CtpStage* stage) const {
  const EngineOptions& opts = env.opts;
  CtpRunInfo& run = stage->run;
  run.tree_var = ctp.tree_var;

  // Seed sources were resolved at plan time (ctp/analysis.h); the bound
  // query has the same variable structure, so the indexes hold.
  const std::vector<CtpMemberSource>& sources =
      plan.physical.binding.member_sources[ctp_index];

  std::vector<std::vector<NodeId>> sets;
  std::vector<bool> universal;
  bool empty_derived = false;
  for (size_t mi = 0; mi < ctp.members.size(); ++mi) {
    const Predicate& member = ctp.members[mi];
    const CtpMemberSource& src = sources[mi];
    const BindingTable* source_table = nullptr;
    if (src.kind == CtpMemberSource::Kind::kBgpTable) {
      source_table = &tables[src.source];
    } else if (src.kind == CtpMemberSource::Kind::kCtpTable) {
      source_table = &tables[plan.physical.CtpStageId(src.source)];
    }
    if (source_table != nullptr) {
      // Bound by a BGP: seed set = distinct bindings, narrowed by the
      // member's own predicate if it has one (Section 3, step B.1).
      std::vector<NodeId> nodes = source_table->DistinctValues(member.var);
      if (!member.IsEmpty()) {
        std::erase_if(nodes, [&](NodeId n) {
          return !PredicateMatches(g_, member, n, true);
        });
      }
      empty_derived |= nodes.empty();
      sets.push_back(std::move(nodes));
      universal.push_back(false);
    } else if (src.kind == CtpMemberSource::Kind::kPredicate) {
      sets.push_back(NodesMatchingPredicate(g_, member));
      if (sets.back().empty()) {  // an error even beside an empty derived set
        return Status::InvalidArgument(StrFormat(
            "CTP ?%s: seed set %zu is empty (no node matched its predicate)",
            ctp.tree_var.c_str(), mi));
      }
      universal.push_back(false);
    } else {
      // Unconstrained member: the universal N seed set (Section 4.9).
      sets.push_back({});
      universal.push_back(true);
    }
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    run.seed_set_sizes.push_back(universal[i] ? SIZE_MAX : sets[i].size());
  }

  // An empty derived set is data, not a query error: no row of this stage
  // can survive the join, so the search is skipped.
  if (empty_derived) {
    run.skipped = true;
    run.algorithm = opts.algorithm;
    run.stats.complete = true;
    return Status::Ok();  // stage stays empty -> empty CTP table
  }

  auto seeds = SeedSets::Make(g_, std::move(sets), universal);
  if (!seeds.ok()) {
    return Status(seeds.status().code(),
                  "CTP ?" + ctp.tree_var + ": " + seeds.status().message());
  }

  auto filters = CompileFilters(g_, ctp.filters, opts, plan.ctps[ctp_index],
                                env.top_k_override, env.query_deadline);
  if (!filters.ok()) return filters.status();
  filters->memory_budget_bytes = env.memory_budget;
  if (seeds->HasUniversal() && filters->limit == UINT64_MAX &&
      opts.universal_default_limit > 0) {
    filters->limit = opts.universal_default_limit;
  }

  // Adaptive choice (Property 3): two plain seed sets are fully served by
  // the cheaper ESP; anything else gets the configured default.
  AlgorithmKind kind = opts.algorithm;
  if (opts.adaptive_algorithm && seeds->num_sets() == 2 &&
      !seeds->HasUniversal() && !filters->unidirectional) {
    kind = AlgorithmKind::kEsp;
  }

  // Planner short-circuit: an upstream stage table is empty, so no row of
  // this stage can survive the final join. Seed validation and filter
  // compilation already ran; only the search is skipped. The one error
  // raised *inside* a search is BFT's rejection of universal/UNI inputs, so
  // those stages fall through and fail fast exactly as a full run would.
  if (skip_search) {
    const bool search_may_error =
        !IsGamFamily(kind) && (seeds->HasUniversal() || filters->unidirectional);
    if (!search_may_error) {
      run.skipped = true;
      run.algorithm = kind;
      run.stats.complete = true;
      return Status::Ok();  // stage stays empty -> empty CTP table
    }
  }

  // Dead-label short-circuit: a LABEL clause whose names all miss the
  // dictionary admits no edge, so unless a single seed node alone satisfies
  // every required set (a zero-edge result), the CTP table is empty and the
  // search — Init trees, signatures, merge machinery — can be skipped.
  if (ctp.filters.labels && !ctp.filters.labels->empty() &&
      filters->allowed_labels && filters->allowed_labels->empty()) {
    bool zero_edge_possible = false;
    for (NodeId n : seeds->AllSeeds()) {
      if (seeds->Signature(n).Contains(seeds->RequiredMask())) {
        zero_edge_possible = true;
        break;
      }
    }
    if (!zero_edge_possible) {
      run.dead_labels = true;
      run.stats.complete = true;
      return Status::Ok();  // stage stays empty -> empty CTP table
    }
  }

  // Section 4.9: universal sets or badly skewed sizes -> subset queues.
  QueueStrategy qs = QueueStrategy::kSingle;
  if (opts.auto_queue_strategy) {
    size_t min_size = SIZE_MAX, max_size = 0;
    for (int i = 0; i < seeds->num_sets(); ++i) {
      if (seeds->IsUniversal(i)) continue;
      min_size = std::min(min_size, seeds->SetSize(i));
      max_size = std::max(max_size, seeds->SetSize(i));
    }
    if (seeds->HasUniversal() ||
        (min_size > 0 && static_cast<double>(max_size) / min_size >=
                             kSkewThreshold)) {
      qs = QueueStrategy::kPerSatSubset;
    }
  }
  run.used_subset_queues = qs == QueueStrategy::kPerSatSubset;
  run.algorithm = kind;

  // Worker-pool path: chunk the CTP across the pool (ctp/parallel.h) when
  // one is configured. SeedSets guarantees a non-empty, non-universal set
  // to split.
  if (env.executor != nullptr && opts.num_threads > 1 && IsGamFamily(kind)) {
    ParallelCtpOptions popts;
    popts.num_threads = opts.num_threads;
    popts.algorithm = kind;
    popts.queue_strategy = qs;
    popts.cancel = env.cancel;
    popts.fault = env.fault;
    auto outcome = env.executor->Evaluate(g_, *seeds, *filters, popts);
    if (!outcome.ok()) return outcome.status();
    run.used_view = outcome->used_view;
    run.stats = outcome->stats;
    run.num_results = outcome->results.size();
    run.parallel_chunks = outcome->threads_used;
    for (const CtpResult& r : outcome->results) {
      std::vector<uint32_t> row;
      row.reserve(ctp.members.size());
      for (NodeId n : r.seed_of_set) row.push_back(n);
      stage->rows.push_back(std::move(row));
      stage->trees.push_back(ResultTreeInfo{
          outcome->arena.EdgeSet(r.tree), outcome->arena.Get(r.tree).root,
          r.score});
    }
    return Status::Ok();
  }

  // Sequential path: fetch the LABEL/UNI view (without either, the search
  // makes its own free pass-through view). BFT under UNI is rejected
  // downstream, so only GAM-family searches request the backward layout.
  // The cache is the executor's when a pool exists — RunBatch queries then
  // share compiled views — and engine-local otherwise; a plan with static
  // predicates skips the cache entirely (pre-warmed at Prepare).
  CtpAlgorithmTuning tuning;
  tuning.cancel = env.cancel;
  tuning.fault = env.fault;
  std::shared_ptr<const CompiledCtpView> view;
  if ((filters->allowed_labels.has_value() || filters->unidirectional) &&
      (IsGamFamily(kind) || !filters->unidirectional)) {
    const PreparedQuery::Plan::PlannedCtp& pc = plan.ctps[ctp_index];
    if (pc.warmed_view != nullptr && pc.static_labels == filters->allowed_labels) {
      view = pc.warmed_view;
    } else {
      ViewCache& cache =
          env.executor != nullptr ? env.executor->view_cache() : view_cache_;
      view = cache.Get(g_, filters->allowed_labels,
                       CompiledCtpView::DirectionFor(filters->unidirectional));
    }
    tuning.view = view.get();
    run.used_view = true;
  }

  // Row streaming: the final CTP of a streaming execution emits joined rows
  // straight from the search's result hook — unless TOP-k truncation means
  // no row is final until the search ends (then the stage materializes and
  // ExecutePlan emits afterwards).
  if (env.stream != nullptr && ctp_index == env.stream_ctp &&
      filters->top_k <= 0) {
    StreamState& st = *env.stream;
    tuning.on_result = [&st](const TreeArena& arena, const CtpResult& r) {
      std::vector<uint32_t> member_row;
      member_row.reserve(r.seed_of_set.size());
      for (NodeId n : r.seed_of_set) member_row.push_back(n);
      ResultTreeInfo tree{arena.EdgeSet(r.tree), arena.Get(r.tree).root,
                          r.score};
      return st.EmitTreeRows(std::move(member_row), tree);
    };
    run.streamed_rows = true;
  }

  auto algo = CreateCtpAlgorithm(kind, g_, *seeds, std::move(filters).value(),
                                 nullptr, qs, tuning);
  Status st = algo->Run();
  if (!st.ok()) return st;
  run.stats = algo->stats();
  run.num_results = algo->results().size();
  // Rows that already streamed through the hook are never read again —
  // materializing them here would grow memory with the full result set,
  // defeating the streaming contract.
  if (!run.streamed_rows) {
    for (const CtpResult& r : algo->results().results()) {
      std::vector<uint32_t> row;
      row.reserve(ctp.members.size());
      for (NodeId n : r.seed_of_set) row.push_back(n);
      stage->rows.push_back(std::move(row));
      stage->trees.push_back(ResultTreeInfo{algo->arena().EdgeSet(r.tree),
                                            algo->arena().Get(r.tree).root,
                                            r.score});
    }
  }
  return Status::Ok();
}

Status EqlEngine::ExecutePlan(const PreparedQuery::Plan& plan, const Query& q,
                              const ExecOptions& exec_opts, StreamState* stream,
                              BatchCseCache* batch_cse, QueryResult* out) const {
  Stopwatch total_sw;

  // ---- Merge the per-call overrides into this execution's environment.
  ExecEnv env;
  env.opts = options_;
  if (exec_opts.ctp_timeout_ms) {
    env.opts.default_ctp_timeout_ms = *exec_opts.ctp_timeout_ms;
  }
  if (exec_opts.query_timeout_ms) {
    env.opts.default_query_timeout_ms = *exec_opts.query_timeout_ms;
  }
  if (exec_opts.num_threads) env.opts.num_threads = *exec_opts.num_threads;
  if (exec_opts.algorithm) env.opts.algorithm = *exec_opts.algorithm;
  if (exec_opts.adaptive_algorithm) {
    env.opts.adaptive_algorithm = *exec_opts.adaptive_algorithm;
  }
  env.top_k_override = exec_opts.top_k;
  env.memory_budget = exec_opts.memory_budget_bytes.value_or(
      env.opts.default_memory_budget_bytes);
  env.fault = exec_opts.fault;
  env.executor = executor_;
  if (exec_opts.num_threads) {
    if (*exec_opts.num_threads > 1) {
      // One long-lived engine serving heterogeneous traffic: a pool-less
      // engine borrows the process-wide pool for this call.
      if (env.executor == nullptr) env.executor = &CtpExecutor::Default();
    } else {
      env.executor = nullptr;  // forced sequential for this call
    }
  }
  env.query_deadline = env.opts.default_query_timeout_ms >= 0
                           ? Deadline::AfterMs(env.opts.default_query_timeout_ms)
                           : Deadline::Infinite();
  env.stream = stream;
  env.cancel = exec_opts.cancel;  // caller cancellation works in both modes
  if (stream != nullptr) {
    if (env.cancel == nullptr) env.cancel = &stream->cancel;
    stream->cancel_flag = env.cancel;
    env.stream_ctp = q.ctps.empty() ? SIZE_MAX : q.ctps.size() - 1;
    stream->head = &q.head;
    stream->earlier = &out->trees;
    stream->sink->OnSchema(plan.schema);
  }

  // ---- Step (A): evaluate every BGP into a binding table. Tables live in a
  // stage-id-indexed vector (BGP groups first, then CTPs in query order) and
  // are joined in that order, whatever order the CTP stages ran in — which
  // is what keeps the projected rows independent of the execution order.
  Stopwatch sw;
  const PhysicalPlan& pp = plan.physical;
  const size_t num_stages = pp.stages.size();
  std::vector<BindingTable> tables(num_stages);
  bool empty_stage = false;
  for (size_t gi = 0; gi < pp.num_bgps; ++gi) {
    std::vector<EdgePattern> bgp;
    bgp.reserve(pp.bgp_groups[gi].size());
    for (size_t pi : pp.bgp_groups[gi]) bgp.push_back(q.patterns[pi]);
    auto t = EvaluateBgp(g_, bgp);
    if (!t.ok()) return t.status();
    out->bgp_rows.push_back(t->NumRows());
    empty_stage |= t->NumRows() == 0;
    tables[gi] = std::move(t).value();
  }
  out->bgp_ms = sw.ElapsedMs();

  // ---- Step (B): evaluate every CTP against seed sets from its plan-time
  // sources, in the plan's cost-ascending topological order, as dependency
  // waves; searches are skipped once an upstream table is empty, and
  // identical table specs share one search.
  sw.Restart();
  std::vector<CtpStage> stages(q.ctps.size());
  std::vector<char> stitched(num_stages, 1);  // BGP stages stitched above
  for (size_t i = 0; i < q.ctps.size(); ++i) stitched[pp.CtpStageId(i)] = 0;

  // Stitches stage i's CTP table (member vars + tree handle) into its
  // stage-id slot, offsetting the stage-local tree indexes into the query's
  // registry. Run info stays in `stages` — telemetry is assembled in query
  // order after step (B), so ctp_runs follows the query text, not the
  // execution order.
  auto stitch = [&](size_t i) {
    CtpStage& stage = stages[i];
    const CtpPattern& ctp = q.ctps[i];
    const size_t sid = pp.CtpStageId(i);
    // Batch-scoped CSE: publish complete, clean results of shareable specs
    // before the rows move into the table.
    if (batch_cse != nullptr && !pp.stages[sid].cse_key.empty() &&
        !stage.run.shared && !stage.run.skipped && !stage.run.streamed_rows &&
        stage.run.stats.complete &&
        stage.run.stats.Outcome() == SearchOutcome::kOk) {
      auto entry = std::make_shared<BatchCseCache::Entry>();
      entry->rows = stage.rows;
      entry->trees = stage.trees;
      entry->run = stage.run;
      batch_cse->Insert(pp.stages[sid].cse_key, std::move(entry));
    }
    std::vector<std::string> cols;
    std::vector<ColKind> kinds;
    for (const Predicate& m : ctp.members) {
      cols.push_back(m.var);
      kinds.push_back(ColKind::kNode);
    }
    cols.push_back(ctp.tree_var);
    kinds.push_back(ColKind::kTree);
    BindingTable ctp_table(std::move(cols), std::move(kinds));
    const uint32_t tree_offset = static_cast<uint32_t>(out->trees.size());
    // An in-query CSE canonical's rows/trees must survive the stitch: later
    // stages copy them instead of searching again.
    const bool keep = pp.stages[sid].shared_by_later;
    for (size_t r = 0; r < stage.rows.size(); ++r) {
      std::vector<uint32_t> row =
          keep ? stage.rows[r] : std::move(stage.rows[r]);
      row.push_back(tree_offset + static_cast<uint32_t>(r));
      ctp_table.AddRow(std::move(row));
    }
    if (keep) {
      for (const ResultTreeInfo& t : stage.trees) out->trees.push_back(t);
    } else {
      for (ResultTreeInfo& t : stage.trees) out->trees.push_back(std::move(t));
    }
    empty_stage |= ctp_table.NumRows() == 0;
    tables[sid] = std::move(ctp_table);
    stitched[sid] = 1;
  };

  // CSE resolution for a stage: copy the canonical stage's (or a batch
  // sibling's) rows/trees instead of searching. Only complete, clean results
  // are shared — a hit therefore implies the donor's identical validation
  // succeeded, so no error path is masked.
  auto try_share = [&](size_t sid) -> bool {
    const PlanStage& st = pp.stages[sid];
    const size_t ci = st.input;
    if (st.share_of != SIZE_MAX) {
      const CtpStage& src = stages[pp.stages[st.share_of].input];
      if (src.run.skipped || src.run.streamed_rows || !src.run.stats.complete ||
          src.run.stats.Outcome() != SearchOutcome::kOk) {
        return false;
      }
      CtpStage& dst = stages[ci];
      dst.run = src.run;
      dst.run.tree_var = q.ctps[ci].tree_var;
      dst.run.shared = true;
      dst.rows = src.rows;
      dst.trees = src.trees;
      return true;
    }
    if (batch_cse != nullptr && !st.cse_key.empty()) {
      if (auto entry = batch_cse->Find(st.cse_key)) {
        CtpStage& dst = stages[ci];
        dst.run = entry->run;
        dst.run.tree_var = q.ctps[ci].tree_var;
        dst.run.shared = true;
        dst.rows = entry->rows;
        dst.trees = entry->trees;
        return true;
      }
    }
    return false;
  };

  // Runs a topological order of CTP stage ids. With a pool, each wave is
  // every not-yet-run stage whose dependencies are stitched (independent
  // chains overlap); without one, waves have size one and execution follows
  // the cost order exactly.
  auto run_stages = [&](std::vector<size_t> remaining) -> Status {
    while (!remaining.empty()) {
      std::vector<size_t> wave, rest;
      for (size_t sid : remaining) {
        bool ready = true;
        for (size_t d : pp.stages[sid].deps) ready &= stitched[d] != 0;
        if (ready && (wave.empty() || env.executor != nullptr)) {
          wave.push_back(sid);
        } else {
          rest.push_back(sid);
        }
      }
      remaining = std::move(rest);
      const bool skip = empty_stage;  // one decision per wave: deterministic
      std::vector<size_t> searches;
      for (size_t sid : wave) {
        if (!try_share(sid)) searches.push_back(sid);
      }
      if (env.executor != nullptr && searches.size() > 1) {
        std::vector<Status> stage_status(searches.size());
        CtpExecutor::TaskGroup group;
        for (size_t k = 0; k < searches.size(); ++k) {
          const size_t ci = pp.stages[searches[k]].input;
          env.executor->Submit(&group, [this, &q, &plan, &env, &tables, &stages,
                                        &stage_status, ci, k, skip] {
            stage_status[k] = EvalOneCtp(q.ctps[ci], ci, plan, env, tables,
                                         skip, &stages[ci]);
          });
        }
        env.executor->Wait(&group);
        for (const Status& st : stage_status) {
          if (!st.ok()) return st;
        }
      } else {
        for (size_t sid : searches) {
          const size_t ci = pp.stages[sid].input;
          Status st =
              EvalOneCtp(q.ctps[ci], ci, plan, env, tables, skip, &stages[ci]);
          if (!st.ok()) return st;
        }
      }
      for (size_t sid : wave) stitch(pp.stages[sid].input);
    }
    return Status::Ok();
  };

  if (stream == nullptr) {
    EQL_RETURN_IF_ERROR(run_stages(pp.ctp_exec_order));
    out->ctp_ms = sw.ElapsedMs();
  } else if (!q.ctps.empty()) {
    // Streaming path: all CTPs but the last run exactly as above; the last
    // one emits rows against the pre-joined context as its search produces
    // trees. The streaming stage itself never shares or publishes CSE
    // results — its rows leave through the sink.
    const size_t last = q.ctps.size() - 1;
    const size_t last_sid = pp.CtpStageId(last);
    std::vector<size_t> order = pp.ctp_exec_order_streaming;
    order.pop_back();  // the final CTP streams below
    EQL_RETURN_IF_ERROR(run_stages(std::move(order)));

    // Pre-join every table except the streaming CTP's (which does not exist
    // yet): each emitted tree then joins against this one context table.
    std::vector<BindingTable*> pre;
    pre.reserve(num_stages > 0 ? num_stages - 1 : 0);
    for (size_t sid = 0; sid < num_stages; ++sid) {
      if (sid != last_sid) pre.push_back(&tables[sid]);
    }
    stream->has_pre = !pre.empty();
    if (stream->has_pre) {
      stream->pre = GreedyJoin(std::move(pre), /*consume=*/false);
    }
    const CtpPattern& ctp = q.ctps[last];
    for (const Predicate& m : ctp.members) {
      stream->ctp_cols.push_back(m.var);
      stream->ctp_kinds.push_back(ColKind::kNode);
    }
    stream->ctp_cols.push_back(ctp.tree_var);
    stream->ctp_kinds.push_back(ColKind::kTree);

    Status st = EvalOneCtp(ctp, last, plan, env, tables,
                           /*skip_search=*/empty_stage, &stages[last]);
    if (!st.ok()) return st;
    // TOP-k / chunk-parallel stages materialize first; emit their final
    // result order now (still incremental relative to the join and any
    // downstream consumer, and a deterministic prefix under early stop).
    if (!stages[last].run.streamed_rows && !stream->stopped) {
      for (size_t r = 0; r < stages[last].rows.size(); ++r) {
        if (!stream->EmitTreeRows(std::move(stages[last].rows[r]),
                                  stages[last].trees[r])) {
          break;
        }
      }
    }
    out->ctp_ms = sw.ElapsedMs();
  } else {
    out->ctp_ms = sw.ElapsedMs();
  }

  // Telemetry in query order regardless of execution order, so callers (and
  // EXPLAIN's actuals) index ctp_runs by CTP position in the query text.
  for (CtpStage& stage : stages) out->ctp_runs.push_back(std::move(stage.run));

  // ---- Step (C): natural-join everything and project the head.
  sw.Restart();
  auto all_tables = [&] {
    std::vector<BindingTable*> all;
    all.reserve(num_stages);
    for (BindingTable& t : tables) all.push_back(&t);
    return all;
  };
  if (stream == nullptr) {
    BindingTable acc = GreedyJoin(all_tables(), /*consume=*/true);
    auto projected = acc.Project(q.head, /*distinct=*/false);
    if (!projected.ok()) return projected.status();
    out->table = std::move(projected).value();
  } else if (q.ctps.empty()) {
    // Pure-BGP streaming: the join is the result; emit its rows in order.
    BindingTable acc = GreedyJoin(all_tables(), /*consume=*/true);
    auto projected = acc.Project(q.head, /*distinct=*/false);
    if (!projected.ok()) return projected.status();
    const BindingTable& t = *projected;
    for (size_t r = 0; r < t.NumRows() && !stream->stopped; ++r) {
      StreamRow row;
      row.values = t.Row(r);
      ++stream->rows;
      if (stream->first_row_ms < 0) stream->first_row_ms = stream->sw.ElapsedMs();
      if (!stream->sink->OnRow(std::move(row))) stream->stopped = true;
    }
  }
  out->join_ms = sw.ElapsedMs();
  out->total_ms = total_sw.ElapsedMs();

  // Cancellation from any lever — sink early-stop, Cursor::Close, or a
  // caller-owned ExecOptions::cancel — must be visible in the result, or a
  // truncated partial answer masquerades as a complete one.
  out->cancelled = (stream != nullptr && stream->stopped) ||
                   (env.cancel != nullptr &&
                    env.cancel->load(std::memory_order_relaxed));
  for (const CtpRunInfo& run : out->ctp_runs) {
    out->cancelled |= run.stats.cancelled;
  }
  // Structured outcome: the worst cutoff across the query's CTP runs, plus
  // engine-level cancellation (a sink stop or ExecOptions::cancel can fire
  // after every search finished clean).
  out->outcome = SearchOutcome::kOk;
  for (const CtpRunInfo& run : out->ctp_runs) {
    out->outcome = CombineOutcomes(out->outcome, run.stats.Outcome());
  }
  if (out->cancelled) {
    out->outcome = CombineOutcomes(out->outcome, SearchOutcome::kCancelled);
  }

  if (stream != nullptr) {
    out->rows_streamed = stream->rows;
    out->first_row_ms = stream->first_row_ms;
    // Rows went to the sink; the materialized registry (used only to remap
    // earlier-stage tree columns during emission) is not part of the
    // streaming contract.
    out->trees.clear();
    out->table = BindingTable();
  }
  return Status::Ok();
}

/// One-shot run with an optional batch-scoped CSE store threaded through to
/// ExecutePlan. Binding semantics match PreparedQuery::Execute with no
/// params (a query with `$` placeholders errors identically).
Result<QueryResult> EqlEngine::RunWithCse(std::string_view query_text,
                                          BatchCseCache* batch_cse) const {
  auto prepared = Prepare(query_text);
  if (!prepared.ok()) return prepared.status();
  const PreparedQuery::Plan& plan = *prepared->plan_;
  Query bound_storage;
  auto bound = BindForExecute(plan, {}, &bound_storage);
  if (!bound.ok()) return bound.status();
  QueryResult out;
  Status st =
      ExecutePlan(plan, **bound, ExecOptions{}, nullptr, batch_cse, &out);
  if (!st.ok()) return st;
  return out;
}

std::vector<Result<QueryResult>> EqlEngine::RunBatch(
    std::span<const std::string_view> queries) const {
  // One CSE store per batch: queries repeating a self-grounded CTP table
  // spec (a common dashboard shape) search once and share the result.
  BatchCseCache batch_cse;
  std::vector<std::optional<Result<QueryResult>>> staged(queries.size());
  if (executor_ == nullptr || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) {
      staged[i].emplace(RunWithCse(queries[i], &batch_cse));
    }
  } else {
    CtpExecutor::TaskGroup group;
    for (size_t i = 0; i < queries.size(); ++i) {
      executor_->Submit(&group, [this, &staged, &queries, &batch_cse, i] {
        staged[i].emplace(RunWithCse(queries[i], &batch_cse));
      });
    }
    executor_->Wait(&group);
  }
  std::vector<Result<QueryResult>> out;
  out.reserve(staged.size());
  for (auto& s : staged) out.push_back(std::move(*s));
  return out;
}

std::string QueryResult::RowToString(const Graph& g, size_t r) const {
  std::string out;
  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c > 0) out += "  ";
    out += "?" + table.columns()[c] + "=";
    uint32_t v = table.At(r, c);
    switch (table.kind(c)) {
      case ColKind::kNode:
        out += g.NodeLabel(v);
        break;
      case ColKind::kEdge:
        out += "[" + g.EdgeToString(v) + "]";
        break;
      case ColKind::kTree: {
        const ResultTreeInfo& t = trees[v];
        out += "{";
        for (size_t i = 0; i < t.edges.size(); ++i) {
          if (i > 0) out += ", ";
          out += g.EdgeToString(t.edges[i]);
        }
        out += "}";
        break;
      }
    }
  }
  return out;
}

}  // namespace eql
