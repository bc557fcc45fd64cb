// The EQL engine: parses, validates, plans and executes extended queries —
// the full evaluation strategy of Section 3.
//
//   (A) evaluate every BGP b_i into a binding table B_i;
//   (B) for every CTP: derive seed sets from the B_i (or from node
//       predicates; unconstrained members become universal N sets), push the
//       CTP filters into the search, run the configured algorithm (MoLESP by
//       default), and materialize the (s_1..s_m, t) tuples as a table. An
//       empty derived seed set skips the search (no rows); a literal member
//       matching no node is an error;
//   (C) natural-join all tables and project the head.
//
// Section 4.9: an unconstrained member means the universal set N, never
// "every node" (results: ctp/seed_sets.h; only GAM is complete for them,
// the default MoLESP returns a subset). A CTP with a universal set or
// badly skewed seed-set sizes switches to per-sat-subset queues
// automatically (EngineOptions::auto_queue_strategy).
//
// Public surface (this header + eval/sink.h + eval/params.h):
//
//   * One-shot: EqlEngine::Run(text) — parse, validate, plan, execute,
//     materialize.
//   * Prepared: EqlEngine::Prepare(text) compiles the front end ONCE —
//     parse, validation, the BGP/CTP stage graph, score-function and LABEL
//     resolution, pre-warmed compiled views — into a PreparedQuery whose
//     Execute(params) re-binds `$name` placeholders against the cached plan.
//   * Streaming: Execute(params, sink) pushes joined rows into a ResultSink
//     as the CTP search produces connecting trees; Cursor wraps that in a
//     pull interface. Early stop cancels the underlying searches, including
//     chunk workers on the pool.
//   * Per-call overrides: ExecOptions adjusts timeouts, TOP-k, chunking
//     and the algorithm per Execute, so one long-lived engine + pool serves
//     heterogeneous traffic.
//
// Failure semantics (the resource-governor / graceful-degradation contract):
//   * Resource exhaustion is an *outcome*, not an error. A query that hits a
//     TIMEOUT, the per-query memory budget, a cancel flag, or an injected
//     fault still returns Ok with a well-formed QueryResult; only Status-
//     level failures (parse/validate/bind errors, impossible plans) surface
//     as errors. QueryResult::outcome says which cutoff — if any — ended the
//     run (kOk | kTimeout | kCancelled | kMemoryBudget | kFaultInjected,
//     worst across the query's searches), and per-CTP detail sits in
//     ctp_runs[i].stats (Outcome(), complete, memory_bytes_peak).
//   * `stats.complete == false` means the search stopped before exhausting
//     its space: the result is a subset of the full answer. Which subset is
//     deterministic for cutoffs that do not depend on wall-clock (LIMIT,
//     max_trees: the first N in search order) and best-effort for those that
//     do (TIMEOUT, memory budget on differently-sized machines, cancel).
//   * Budgets: per-CTP TIMEOUT (query text), default_ctp_timeout_ms,
//     default_query_timeout_ms / ExecOptions::query_timeout_ms (one shared
//     absolute deadline clamping every CTP), LIMIT / max_trees (counted
//     truncations, outcome stays kOk), and memory_budget_bytes (per query;
//     divided equally among parallel chunks; enforced against the searches'
//     own byte accounting at the same ~128-op poll sites as the deadline).
//   * Ordering of partial results: a cut-off search finalizes exactly like a
//     complete one (dedup, TOP-k sort, deterministic parallel total order),
//     so partial output is always a *prefix* of some valid result order —
//     streaming executions in emission order, materialized TOP-k runs in
//     score order over the results found so far. Rows are never silently
//     dropped after they were emitted; a mid-stream cutoff just ends the
//     stream early and reports the outcome in the summary.
//
// Planning & EXPLAIN (the algebraic plan layer, eval/plan.h):
//   * Prepare lowers the validated query into a PhysicalPlan: one stage per
//     BGP group and per CTP, each CTP member's seed-set source (BGP table,
//     earlier CTP table, own predicate, or universal) resolved once, plus
//     per-stage cardinality/cost estimates from graph statistics
//     (eval/stats.h; cached per Graph::uid(), which is immutable after
//     Finalize — the invalidation rule is "new graph, new uid, new stats").
//   * COST-MODEL UNITS: estimated edge visits — seed counts times a
//     saturating branching series for CTP searches, index-scan sizes for
//     BGP scans. Deterministic (pure integer/IEEE arithmetic, no clocks),
//     so EXPLAIN output is stable across runs and machines.
//   * Every execution runs the CTP stages in the plan's one order: a
//     cost-ascending topological order of the dependency DAG, as waves on
//     the pool (stages whose dependencies are done run concurrently).
//     Stages that can no longer contribute rows (an upstream stage
//     produced an empty table) skip their search — seed derivation and its
//     error paths still run, so diagnostics are those of a full run — and
//     CTPs with identical self-grounded table specs share one search (also
//     across RunBatch).
//   * The planner never changes WHERE a seed set comes from — CTP results
//     are defined relative to their full seed sets (Def 2.8), so binding
//     sources are pinned at plan time and the execution order cannot change
//     a CTP's table. The final join consumes the tables in stage-id order
//     (BGP groups, then CTPs in query order), not execution order, so the
//     projected rows are those of running the stages in query order;
//     tests/golden/plan_rows_*.txt pins them against references taken
//     from that order. ctp_runs is likewise indexed in query order, and
//     deterministic fault injection (ExecOptions::fault) probes its sites
//     along this same order.
//   * PreparedQuery::Explain() renders the plan tree with estimates;
//     Explain(result) adds per-stage actual cardinalities and outcomes.
//     eql_shell exposes both as `.explain` / `--explain` and `.stats`.
//
// Thread-safety and lifetime contract:
//   * EqlEngine is const and thread-safe after construction; it must outlive
//     every PreparedQuery and Cursor it hands out (handles keep a pointer to
//     the engine, not a copy).
//   * PreparedQuery is immutable; any number of threads may Execute the same
//     handle concurrently. Copies share the underlying plan. Parameters are
//     per-call: a ParamMap is read-only during execution and owned by the
//     caller.
//   * The Graph must outlive the engine (and hence every handle).
#ifndef EQL_EVAL_ENGINE_H_
#define EQL_EVAL_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ctp/algorithm.h"
#include "ctp/parallel.h"
#include "eval/params.h"
#include "eval/sink.h"
#include "graph/graph.h"
#include "query/ast.h"
#include "storage/binding_table.h"
#include "util/status.h"

namespace eql {

/// Engine-wide defaults; per-CTP filters in the query override them, and
/// per-call ExecOptions override both.
struct EngineOptions {
  AlgorithmKind algorithm = AlgorithmKind::kMoLesp;
  /// Pick the cheapest algorithm whose completeness guarantee covers the
  /// CTP: ESP for plain two-seed-set CTPs (complete by Property 3 and
  /// fastest, Fig. 11), `algorithm` otherwise. A first step towards the
  /// paper's "adaptive EQL optimization" future work (Section 6).
  bool adaptive_algorithm = false;
  int64_t default_ctp_timeout_ms = 60000;
  /// Whole-query wall-clock budget in milliseconds; < 0 = none. Every CTP's
  /// own TIMEOUT is additionally clamped to the *remaining* query budget, so
  /// a multi-CTP query can no longer run ~N x the per-CTP budget — the
  /// deadline is one shared absolute point in time, like the parallel
  /// executor's chunk deadline. CTPs that start after expiry report
  /// timed_out with empty tables; the query still returns its well-formed
  /// (possibly empty) result rather than an error.
  int64_t default_query_timeout_ms = -1;
  /// Safety cap on kept provenances per CTP (0 = unbounded).
  uint64_t default_max_trees = 0;
  /// Cap on emitted results per CTP when a universal (N) seed set makes the
  /// result space unbounded and the query gives no LIMIT.
  uint64_t universal_default_limit = 10000;
  /// Section 4.9's per-sat-subset queues (universal or skewed seed sets);
  /// false keeps one global queue.
  bool auto_queue_strategy = true;
  /// CTP parallelism: the number of seed-set chunks each CTP is split into
  /// and dispatched onto the worker pool (ctp/parallel.h). 0 or 1 =
  /// sequential, in-process evaluation. Parallel CTP results are emitted in
  /// the executor's deterministic total order, not search order.
  unsigned num_threads = 0;
  /// Pool to run on (not owned). nullptr with num_threads > 1 makes the
  /// engine build a private pool with num_threads workers; pass a shared
  /// pool to amortize workers (and their arenas) across engines.
  CtpExecutor* executor = nullptr;
  /// Default per-query memory budget (bytes; 0 = unlimited) on the search-
  /// side allocators — see CtpFilters::memory_budget_bytes and the "Failure
  /// semantics" section above. Each CTP of a query checks against the full
  /// budget (CTPs run against recycled arenas, not cumulatively); parallel
  /// chunks split it equally.
  uint64_t default_memory_budget_bytes = 0;
};

/// Per-call overrides for one Execute/Run: every set field supersedes the
/// engine's EngineOptions (and, for top_k, the query's own TOP) for that
/// call only. Defaults leave everything untouched, so Execute(params) with a
/// default ExecOptions is byte-identical to the engine-options run.
struct ExecOptions {
  /// Whole-query deadline for this call (ms; < 0 = none). See
  /// EngineOptions::default_query_timeout_ms for the clamping semantics.
  std::optional<int64_t> query_timeout_ms;
  /// Default per-CTP TIMEOUT for CTPs that set none in the query text.
  std::optional<int64_t> ctp_timeout_ms;
  /// Overrides TOP k on every CTP that carries a SCORE (ignored otherwise —
  /// a score function is what makes "the k best" well-defined).
  std::optional<int> top_k;
  /// Per-CTP chunk count for this call. > 1 uses the engine's pool when it
  /// has one, else the process-wide default pool (CtpExecutor::Default());
  /// 0/1 forces sequential evaluation even on a pooled engine.
  std::optional<unsigned> num_threads;
  std::optional<AlgorithmKind> algorithm;
  std::optional<bool> adaptive_algorithm;
  /// Per-query memory budget for this call (bytes; 0 = unlimited).
  /// Overrides EngineOptions::default_memory_budget_bytes.
  std::optional<uint64_t> memory_budget_bytes;
  /// Caller-owned cancellation flag (not owned; may be null). Setting it
  /// stops the execution at the searches' deadline-check sites — including
  /// pool chunks — within ~128 operations, whether or not any row is in
  /// flight. Cursor::Close uses this to tear down a stream whose search is
  /// grinding on without producing rows. It is a lever for callers that stop
  /// wanting rows, not a time bound: each poll reads the query deadline
  /// right after this flag, so wall-clock limits belong in query_timeout_ms.
  std::atomic<bool>* cancel = nullptr;
  /// Deterministic fault injection for this call (util/fault.h; not owned,
  /// may be null). Threaded into every search and the parallel merge step;
  /// see GamConfig::fault / ParallelCtpOptions::fault. Tests only.
  FaultInjector* fault = nullptr;
};

/// Per-CTP execution report.
struct CtpRunInfo {
  std::string tree_var;
  SearchStats stats;  ///< stats.first_result_ms = time to first tree (ms)
  size_t num_results = 0;
  bool used_subset_queues = false;
  AlgorithmKind algorithm = AlgorithmKind::kMoLesp;  ///< what actually ran
  std::vector<size_t> seed_set_sizes;  ///< SIZE_MAX marks a universal set
  unsigned parallel_chunks = 0;  ///< seed-set chunks used; 0 = sequential
  /// The CTP has a LABEL set or UNI, so its search iterated a view from the
  /// view cache (ctp/view.h); other CTPs iterate a pass-through view onto
  /// the graph CSRs.
  bool used_view = false;
  /// The LABEL filter named only labels absent from the dictionary and no
  /// zero-edge result was possible: the search was short-circuited to an
  /// empty table (no edge can match a dead label set).
  bool dead_labels = false;
  /// Rows of this CTP reached the sink incrementally, straight from the
  /// search's emission hook (streaming executions only; false means the CTP
  /// materialized first — parallel chunking and TOP-k both require the full
  /// candidate set before any row is final).
  bool streamed_rows = false;
  /// The planner skipped this CTP's search because an upstream stage
  /// produced an empty table, so no row of this stage could survive the
  /// final join. Seed derivation and filter compilation still ran (their
  /// error paths are part of the query's semantics); stats reflect no
  /// search work.
  bool skipped = false;
  /// This CTP reused the rows/trees of an identical earlier CTP (common-
  /// sub-expression sharing, in-query or across RunBatch) instead of
  /// searching; stats are copied from the canonical run.
  bool shared = false;
};

/// The outcome of one query: a head-projected table plus the tree registry
/// that kTree columns index into, and execution telemetry. A streaming
/// execution (Execute with a sink) reports telemetry only: rows went to the
/// sink, so `table`/`trees` stay empty and rows_streamed/first_row_ms record
/// what the sink saw.
struct QueryResult {
  BindingTable table;
  std::vector<ResultTreeInfo> trees;
  std::vector<CtpRunInfo> ctp_runs;
  /// Row count of each BGP group's binding table, in group order (feeds the
  /// per-stage "actual" column of PreparedQuery::Explain).
  std::vector<uint64_t> bgp_rows;
  double bgp_ms = 0;
  double ctp_ms = 0;
  double join_ms = 0;
  double total_ms = 0;
  uint64_t rows_streamed = 0;   ///< rows delivered to the sink (streaming)
  double first_row_ms = -1;     ///< ms from Execute start to the first sink row
  /// The execution was stopped early — by the sink returning false, by
  /// Cursor::Close, or by a caller-owned ExecOptions::cancel flag. Partial
  /// results are never silently complete.
  bool cancelled = false;
  /// Structured outcome of the query: the worst SearchOutcome across its CTP
  /// runs (and kCancelled when `cancelled` is set). kOk does not imply the
  /// result is complete — LIMIT/max_trees truncations keep kOk; check
  /// ctp_runs[i].stats.complete for coverage. See "Failure semantics" above.
  SearchOutcome outcome = SearchOutcome::kOk;

  /// Renders row r as "var=value" pairs (labels for nodes, edge lists for
  /// trees).
  std::string RowToString(const Graph& g, size_t r) const;
};

class EqlEngine;

/// A query compiled once and executable many times: parsing, validation,
/// score-function construction, LABEL resolution, the dependent-CTP stage
/// analysis and compiled-view pre-warming all happened at Prepare time.
/// Execute re-binds `$name` parameters against the cached plan and runs.
///
/// Immutable and thread-safe: concurrent Execute calls on one handle are
/// fine (per-call state is local; the plan is read-only). Copies are cheap
/// and share the plan. The engine (and its graph) must outlive every handle.
class PreparedQuery {
 public:
  /// Materializing execution: byte-identical to EqlEngine::Run on the text
  /// with the parameter values written inline.
  Result<QueryResult> Execute(const ParamMap& params = {},
                              const ExecOptions& opts = {}) const;

  /// Streaming execution: rows are pushed into `sink` as the final CTP's
  /// search produces connecting trees (see eval/sink.h for the order
  /// contract). The returned QueryResult carries telemetry only. If the
  /// sink stops early, in-flight searches — including pool chunks — are
  /// cancelled via the shared-deadline check sites and the result is marked
  /// cancelled.
  Result<QueryResult> Execute(const ParamMap& params, ResultSink& sink,
                              const ExecOptions& opts = {}) const;

  /// EXPLAIN: renders the compiled plan tree — stages, seed sources,
  /// estimated cardinalities/costs (unit: edge visits) and the planned
  /// execution order. Deterministic text (no clocks); see "Planning &
  /// EXPLAIN" above.
  std::string Explain() const;
  /// EXPLAIN ANALYZE flavor: the same tree annotated per stage with actual
  /// cardinalities, algorithm, view use and outcome taken from `result`
  /// (which should come from executing this prepared query). Times are
  /// deliberately omitted to keep the text machine-independent.
  std::string Explain(const QueryResult& result) const;

  /// The `$name` placeholders Execute must bind, in first-appearance order.
  const std::vector<std::string>& param_names() const;
  /// The validated (unbound) query.
  const Query& query() const;
  /// Streamed-row schema (the head's columns and kinds).
  const RowSchema& schema() const;

  /// Opaque compiled plan (defined in engine.cc); exposed as a name only so
  /// the engine can hand plans around.
  struct Plan;

 private:
  friend class EqlEngine;
  PreparedQuery(const EqlEngine* engine, std::shared_ptr<const Plan> plan)
      : engine_(engine), plan_(std::move(plan)) {}

  const EqlEngine* engine_;
  std::shared_ptr<const Plan> plan_;
};

/// Pull-style wrapper over the streaming execution: the query runs on a
/// background thread into a bounded row buffer; Next() blocks for the next
/// row and the producer blocks when the buffer is full (backpressure).
/// Close() — or destruction — cancels the underlying searches and joins the
/// thread. Move-only; not thread-safe (one consumer).
class Cursor {
 public:
  Cursor(Cursor&&) noexcept;
  Cursor& operator=(Cursor&&) noexcept;
  ~Cursor();

  /// Blocks for the next row; false when the stream is exhausted, errored,
  /// or closed. After false, status()/summary() are final.
  bool Next(StreamRow* row);

  /// Row schema; blocks until the background execution published it.
  const RowSchema& schema();

  /// Stops the execution (cancelling in-flight searches) and joins the
  /// producer. Idempotent; implied by destruction.
  void Close();

  /// Final status of the execution; Ok while rows are still flowing.
  Status status() const;
  /// Telemetry of the finished execution; valid after Next returned false.
  const QueryResult& summary() const;

 private:
  friend class PreparedQuery;
  friend class EqlEngine;
  struct Impl;
  explicit Cursor(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Facade: construct once per graph, Run/Prepare queries repeatedly (const
/// and thread-safe: per-query state is local; the worker pool is internally
/// synchronized).
class EqlEngine {
 public:
  explicit EqlEngine(const Graph& g, EngineOptions options = {});
  ~EqlEngine();

  /// Compiles `query_text` into a reusable PreparedQuery (see its docs for
  /// the thread-safety/lifetime contract). The whole front end — lexing,
  /// parsing, validation, score construction, LABEL resolution, stage
  /// analysis, view pre-warming — runs here, once.
  Result<PreparedQuery> Prepare(std::string_view query_text) const;

  /// One-shot: parses + validates + executes. A thin wrapper over
  /// Prepare + Execute with a materializing result; parameterized queries
  /// are rejected here (there is nothing to bind `$name` against).
  Result<QueryResult> Run(std::string_view query_text) const;

  /// Executes an already-validated query. With a worker pool configured
  /// (EngineOptions::num_threads/executor), step (B) dispatches every CTP of
  /// the query onto the pool: the CTPs of one query run concurrently, and
  /// each GAM-family CTP is additionally chunk-parallel (ctp/parallel.h).
  Result<QueryResult> RunParsed(const Query& q) const;

  /// Executes many queries, amortizing the worker pool — and its per-worker
  /// arenas/scratch — across the batch: each query runs as one pool task
  /// (whose CTPs then fan out onto the same pool). Falls back to a serial
  /// loop when the engine has no pool. results[i] corresponds to queries[i].
  std::vector<Result<QueryResult>> RunBatch(
      std::span<const std::string_view> queries) const;

  /// Opens a pull-style cursor over a streaming execution of `prepared`
  /// (which must belong to this engine). Binding/validation errors surface
  /// through Cursor::status() after the first Next() returns false.
  Cursor OpenCursor(const PreparedQuery& prepared, const ParamMap& params = {},
                    const ExecOptions& opts = {}) const;

  const EngineOptions& options() const { return options_; }
  /// The pool CTPs run on; nullptr when evaluation is sequential.
  CtpExecutor* executor() const { return executor_; }

 private:
  friend class PreparedQuery;
  struct CtpStage;
  struct ExecEnv;
  struct StreamState;
  struct BatchCseCache;

  /// Builds the reusable plan behind Prepare/RunParsed.
  Result<std::shared_ptr<const PreparedQuery::Plan>> PlanQuery(Query q) const;

  /// Run with an optional batch-scoped CSE cache (RunBatch shares identical
  /// self-grounded CTP searches across its queries through one of these).
  Result<QueryResult> RunWithCse(std::string_view query_text,
                                 BatchCseCache* batch_cse) const;

  /// Runs a bound (parameter-free) query against its plan. `stream` null =
  /// materialize into out->table exactly as Run always has; non-null =
  /// stream rows into the sink and fill telemetry only. `batch_cse` may be
  /// null (no cross-query sharing).
  Status ExecutePlan(const PreparedQuery::Plan& plan, const Query& bound,
                     const ExecOptions& exec_opts, StreamState* stream,
                     BatchCseCache* batch_cse, QueryResult* out) const;

  /// Evaluates CTP `ctp_index` against the stage tables (indexed by stage
  /// id; only this CTP's plan-resolved source slots are read). With
  /// `skip_search` the stage runs in validation-only mode: seed derivation,
  /// filter compilation and their error paths execute, but the search —
  /// whose rows could not survive the final join — does not.
  Status EvalOneCtp(const CtpPattern& ctp, size_t ctp_index,
                    const PreparedQuery::Plan& plan, const ExecEnv& env,
                    const std::vector<BindingTable>& tables, bool skip_search,
                    CtpStage* stage) const;

  const Graph& g_;
  EngineOptions options_;
  std::unique_ptr<CtpExecutor> owned_executor_;
  CtpExecutor* executor_ = nullptr;
  /// Compiled-view cache for sequential evaluation without a pool; engines
  /// with a pool share the executor's cache instead. Internally
  /// synchronized, hence usable from the const Run methods.
  mutable ViewCache view_cache_;
};

}  // namespace eql

#endif  // EQL_EVAL_ENGINE_H_
