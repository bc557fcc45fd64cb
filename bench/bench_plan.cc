// bench_plan — what the cost-based plan layer (eval/plan.h) saves, on
// workloads written in deliberately pessimal order. Each measurement times
// the planned execution against the searches a query-order execution would
// run (its baseline), and checks the plan's deterministic counters:
//   * pessimal ordering: an expensive CONNECT appears textually first and a
//     cheap zero-result CONNECT last. The planner runs the cheap stage
//     first, sees its empty table, and skips the expensive search (no tree
//     built). Baseline: the expensive CONNECT alone.
//   * in-query CSE: the same expensive table spec written twice; the
//     planner runs one search and the second stage shares it. Baseline: the
//     single-spec query executed twice.
//   * batch CSE: RunBatch over copies of the same query; every query after
//     the first shares the batch-scoped result. Baseline: the query
//     executed once per copy.
// Rows are pinned by tests/plan_equivalence_test.cc; the row counts here
// are a tripwire only.
//
// Usage: bench_plan [OUT.json]   (default BENCH_plan.json)
// Honors EQL_BENCH_SCALE: 0 smoke, 1 default, 2 paper-scale.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/engine.h"
#include "graph/graph.h"
#include "util/stopwatch.h"

namespace eql {
namespace {

/// A layered DAG S -> L1 -> ... -> Lk -> T of width `w`: every layer is
/// fully connected to the next, so CONNECT("S", "T") with MAX = k+1 must
/// enumerate w^k minimal trees — deliberately expensive. Two extra
/// edge-free nodes ("lone0", "lone1") give the planner a provably-cheap,
/// provably-empty CONNECT to run first.
Graph MakePessimalGraph(int width, int layers) {
  Graph g;
  std::vector<NodeId> prev = {g.AddNode("S")};
  for (int l = 0; l < layers; ++l) {
    std::vector<NodeId> layer;
    for (int i = 0; i < width; ++i) {
      layer.push_back(g.AddNode("L" + std::to_string(l) + "_" +
                                std::to_string(i)));
    }
    for (NodeId a : prev) {
      for (NodeId b : layer) g.AddEdge(a, b, "e");
    }
    prev = std::move(layer);
  }
  NodeId t = g.AddNode("T");
  for (NodeId a : prev) g.AddEdge(a, t, "e");
  g.AddNode("lone0");
  g.AddNode("lone1");
  g.Finalize();
  return g;
}

struct Timing {
  double baseline_ms = 0;
  double planned_ms = 0;
  size_t baseline_rows = 0;
  size_t planned_rows = 0;
  double Speedup() const {
    return baseline_ms / (planned_ms > 0 ? planned_ms : 1e-9);
  }
};

/// Interleaved min-of-reps: each rep runs the baseline, then the planned
/// work, so host load drift cannot masquerade as a planner win. Each
/// callback returns the rows it produced.
template <typename Baseline, typename Planned>
Timing Measure(int reps, Baseline&& baseline, Planned&& planned) {
  Timing t;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    t.baseline_rows = baseline();
    const double b = sw.ElapsedMs();
    sw.Restart();
    t.planned_rows = planned();
    const double p = sw.ElapsedMs();
    if (rep == 0 || b < t.baseline_ms) t.baseline_ms = b;
    if (rep == 0 || p < t.planned_ms) t.planned_ms = p;
  }
  return t;
}

/// Rows of `iters` executions of `prepared`, or SIZE_MAX on an error.
size_t ExecuteRows(const PreparedQuery& prepared, int iters) {
  size_t rows = 0;
  for (int i = 0; i < iters; ++i) {
    auto r = prepared.Execute();
    if (!r.ok()) return SIZE_MAX;
    rows += r->table.NumRows();
  }
  return rows;
}

int Fail(const char* what) {
  std::fprintf(stderr, "PLAN CHECK FAILED: %s\n", what);
  return 1;
}

int Main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_plan.json";
  bench::Banner("cost-based plan layer vs the searches of query order",
                "Section 3 (evaluation strategy; plan-layer extension)");

  const int scale = bench::Scale();
  const int width = scale == 0 ? 8 : scale == 1 ? 12 : 16;
  const int layers = 3;
  Graph g = MakePessimalGraph(width, layers);
  std::printf("layered DAG: %zu nodes, %zu edges (width %d, %d layers)\n",
              g.NumNodes(), g.NumEdges(), width, layers);
  EqlEngine engine(g);

  const int iters = scale == 0 ? 3 : 5;
  const int reps = 5;
  const std::string max = " MAX " + std::to_string(layers + 1);
  auto prepare = [&](const std::string& text) {
    auto p = engine.Prepare(text);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(p).value();
  };

  // ---- Pessimal ordering: expensive search first, empty cheap probe last.
  const std::string big_text =
      "SELECT ?t WHERE { CONNECT(\"S\", \"T\" -> ?t)" + max + " }";
  const PreparedQuery big = prepare(big_text);
  const PreparedQuery pessimal = prepare(
      "SELECT ?big ?none WHERE { CONNECT(\"S\", \"T\" -> ?big)" + max +
      " CONNECT(\"lone0\", \"lone1\" -> ?none) MAX 1 }");
  const Timing order = Measure(
      reps, [&] { return ExecuteRows(big, iters); },
      [&] { return ExecuteRows(pessimal, iters); });
  auto pessimal_run = pessimal.Execute();
  if (!pessimal_run.ok() || pessimal_run->ctp_runs.size() != 2) {
    return Fail("pessimal query did not run");
  }
  const CtpRunInfo& big_run = pessimal_run->ctp_runs[0];
  if (order.planned_rows != 0 || order.baseline_rows == 0 ||
      order.baseline_rows == SIZE_MAX) {
    return Fail("pessimal row counts");
  }
  if (!big_run.skipped || big_run.stats.trees_built != 0) {
    return Fail("pessimal: the expensive stage was searched, not skipped");
  }
  std::printf(
      "pessimal order: search %8.2f ms | planned %8.2f ms | %5.2fx "
      "(empty probe first, big search skipped; %zu rows)\n",
      order.baseline_ms, order.planned_ms, order.Speedup(), order.planned_rows);

  // ---- In-query CSE: the identical expensive spec twice.
  // TOP keeps the cross-product join bounded (32x32 rows) while the search
  // still has to enumerate every minimal tree — the cost being shared.
  const std::string spec = max + " SCORE edge_count TOP 32";
  const PreparedQuery one =
      prepare("SELECT ?t1 WHERE { CONNECT(\"S\", \"T\" -> ?t1)" + spec + " }");
  const PreparedQuery dup = prepare(
      "SELECT ?t1 ?t2 WHERE { CONNECT(\"S\", \"T\" -> ?t1)" + spec +
      " CONNECT(\"S\", \"T\" -> ?t2)" + spec + " }");
  const Timing cse = Measure(
      reps, [&] { return ExecuteRows(one, /*iters=*/2); },
      [&] { return ExecuteRows(dup, /*iters=*/1); });
  auto dup_run = dup.Execute();
  if (!dup_run.ok() || dup_run->ctp_runs.size() != 2) {
    return Fail("in-query CSE query did not run");
  }
  const bool cse_shared = dup_run->ctp_runs[1].shared;
  const size_t one_rows = cse.baseline_rows / 2;
  if (cse.planned_rows != one_rows * one_rows || one_rows == 0) {
    return Fail("in-query CSE row counts");
  }
  if (!cse_shared) return Fail("in-query CSE: the second stage searched again");
  std::printf(
      "in-query CSE:   2 searches %8.2f ms | planned %8.2f ms | %5.2fx "
      "(one search shared by both tables; %zu rows)\n",
      cse.baseline_ms, cse.planned_ms, cse.Speedup(), cse.planned_rows);

  // ---- Batch CSE: the same single-CTP query N times through RunBatch.
  const int batch_n = 4;
  const std::vector<std::string_view> batch(batch_n, big_text);
  size_t batch_shared = 0;
  const Timing batched = Measure(
      reps, [&] { return ExecuteRows(big, batch_n); },
      [&] {
        size_t rows = 0;
        batch_shared = 0;
        for (const auto& r : engine.RunBatch(batch)) {
          if (!r.ok()) return SIZE_MAX;
          rows += r->table.NumRows();
          for (const CtpRunInfo& run : r->ctp_runs) batch_shared += run.shared;
        }
        return rows;
      });
  if (batched.planned_rows != batched.baseline_rows ||
      batched.planned_rows == SIZE_MAX) {
    return Fail("batch CSE row counts");
  }
  if (batch_shared != static_cast<size_t>(batch_n - 1)) {
    return Fail("batch CSE: a later query searched again");
  }
  std::printf(
      "batch CSE (%d):  %d searches %8.2f ms | planned %8.2f ms | %5.2fx "
      "(first search reused by the rest; %zu rows)\n",
      batch_n, batch_n, batched.baseline_ms, batched.planned_ms,
      batched.Speedup(), batched.planned_rows);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"plan_layer\",\n"
      "  \"graph\": {\"nodes\": %zu, \"edges\": %zu, \"width\": %d, "
      "\"layers\": %d},\n"
      "  \"pessimal\": {\"baseline_ms\": %.3f, \"planned_ms\": %.3f, "
      "\"speedup\": %.3f, \"rows\": %zu, \"skipped\": %s, "
      "\"trees_built\": %llu},\n"
      "  \"cse\": {\"baseline_ms\": %.3f, \"planned_ms\": %.3f, "
      "\"speedup\": %.3f, \"rows\": %zu, \"shared\": %s},\n"
      "  \"batch\": {\"queries\": %d, \"baseline_ms\": %.3f, "
      "\"planned_ms\": %.3f, \"speedup\": %.3f, \"rows\": %zu, "
      "\"shared\": %zu}\n"
      "}\n",
      g.NumNodes(), g.NumEdges(), width, layers, order.baseline_ms,
      order.planned_ms, order.Speedup(), order.planned_rows,
      big_run.skipped ? "true" : "false",
      static_cast<unsigned long long>(big_run.stats.trees_built),
      cse.baseline_ms, cse.planned_ms, cse.Speedup(), cse.planned_rows,
      cse_shared ? "true" : "false", batch_n, batched.baseline_ms,
      batched.planned_ms, batched.Speedup(), batched.planned_rows,
      batch_shared);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace eql

int main(int argc, char** argv) { return eql::Main(argc, argv); }
