// eql_shell — run EQL queries against a triple file from the command line.
//
// Usage:
//   eql_shell GRAPH.tsv [options] [-q QUERY]...
//   eql_shell --snapshot GRAPH.snap [options] [-q QUERY]...
//   eql_shell GRAPH.tsv < queries.eql        (queries separated by ';')
//
// Options:
//   -q QUERY          run this query (repeatable); otherwise read stdin
//   --snapshot FILE   serve queries from an mmap'd binary snapshot
//                     (graph/snapshot.h; produce one with eql_pack) instead
//                     of parsing a triple file
//   --algorithm NAME  bft|bft_m|bft_am|gam|esp|moesp|lesp|molesp (default molesp)
//   --adaptive        pick ESP automatically for plain m=2 CTPs (Property 3)
//   --parallel N      evaluate CTPs on a worker pool, split N ways (0 = off)
//   --timeout MS      default per-CTP timeout (default 60000)
//   --query-timeout MS whole-query wall-clock budget (default: none)
//   --memory-budget BYTES
//                     per-query search-memory budget (default: none); a run
//                     that hits it keeps its partial results and exits 5
//   --stream          stream rows as the search produces them (prints the
//                     time to first row); materialized output otherwise
//   --format NAME     result format: table (default, aligned columns), tsv,
//                     or json (SPARQL-results-style). Shares the eqld
//                     daemon's serializers (src/server/format.h), so shell
//                     output is byte-identical to the server's for the same
//                     rows. Result documents go to stdout; timing and
//                     telemetry lines go to stderr, so piped output stays
//                     machine-parseable.
//   --max-rows N      print at most N result rows per query (default 20;
//                     0 = every row)
//   --stats           print per-CTP search statistics
//   --explain         print the query plan (with post-execution actuals)
//                     after each query; CTP stages run in the plan's cost
//                     order (see "Planning & EXPLAIN" in eval/engine.h)
//   --demo            load the paper's Figure 1 graph instead of a file
//
// Numeric values are decimal digits only (no sign) and must fit their
// setting: --parallel at most 256, --memory-budget at least 1. Anything
// else exits 2 (bad command line).
//
// Interactive / piped mode additionally understands dot-commands on their
// own line:
//   .parallel N       switch CTP parallelism to N chunks (0 = sequential)
//   .explain on|off   toggle the per-query plan printout
//   .stats on|off     toggle the per-CTP statistics dump (rows, trees,
//                     time, view/skip/share flags, outcome)
//   .stats            (no argument) print the session status: graph source,
//                     snapshot open-time and mapped bytes, engine options
//   .open FILE        switch to serving queries from snapshot FILE
//                     (mmap zero-copy; drops prepared queries)
//   .stream on|off    toggle streaming row delivery
//   .batch FILE       run the ';'-separated queries in FILE as one batch
//                     through EqlEngine::RunBatch (amortizes the pool)
//   .prepare NAME QUERY;
//                     compile QUERY (which may use $param placeholders) once
//                     under NAME — the query text runs to the next ';', so
//                     it may span lines
//   .bind NAME $k=v [$k2=v2 ...]
//                     set NAME's parameters (strings may be "quoted";
//                     integers bind as integers)
//   .run NAME         execute the prepared query with its bound parameters
//
// Exit codes (the highest-numbered category encountered wins when several
// statements run): 0 = all queries ran to completion; 1 = the graph failed
// to load; 2 = bad command line; 3 = a query failed to parse/validate/
// prepare; 4 = a query failed during execution; 5 = a query ended on a
// resource cutoff (TIMEOUT, query deadline, memory budget, cancellation) —
// its partial results were printed, but coverage was reduced. Status-level
// failures map to categories through ShellExitCodeForCode (util/status.h) —
// the same single mapping the eqld daemon uses for HTTP codes.
//
// The graph file format is the tab-separated triple format of
// src/graph/graph_io.h ("src<TAB>label<TAB>dst", plus @type/@literal lines).
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.h"

#include "eval/engine.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "server/format.h"
#include "util/string_util.h"

namespace eql {
namespace {

Graph MakeDemoGraph() {
  const char* triples =
      "Bob\tfounded\tOrgB\n"
      "Alice\tinvestsIn\tOrgB\n"
      "Bob\tparentOf\tAlice\n"
      "OrgB\tlocatedIn\tFrance\n"
      "Bob\tcitizenOf\tUSA\n"
      "Carole\tcitizenOf\tUSA\n"
      "Carole\tfounded\tOrgA\n"
      "Doug\tCEO\tOrgA\n"
      "Doug\tinvestsIn\tOrgC\n"
      "Carole\tfounded\tOrgC\n"
      "Elon\tparentOf\tDoug\n"
      "Alice\tcitizenOf\tFrance\n"
      "Doug\tcitizenOf\tFrance\n"
      "Elon\tcitizenOf\tFrance\n"
      "OrgC\tlocatedIn\tUSA\n"
      "Elon\taffiliation\tNLP\n"
      "OrgB\tfunds\tNLP\n"
      "Falcon\taffiliation\tNLP\n"
      "Falcon\tinvestsIn\tUSA\n"
      "@type\tBob\tentrepreneur\n"
      "@type\tAlice\tentrepreneur\n"
      "@type\tCarole\tentrepreneur\n"
      "@type\tDoug\tentrepreneur\n"
      "@type\tElon\tpolitician\n"
      "@type\tFalcon\tpolitician\n"
      "@type\tOrgA\tcompany\n"
      "@type\tOrgB\tcompany\n"
      "@type\tOrgC\tcompany\n"
      "@type\tUSA\tcountry\n"
      "@type\tFrance\tcountry\n";
  auto g = ParseGraphText(triples);
  return std::move(g).value();
}

// Exit-code categories (see the file comment). Several statements may run
// in one invocation; the highest-numbered category encountered is returned.
constexpr int kExitOk = 0;
constexpr int kExitGraphLoad = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitExec = 4;
constexpr int kExitResource = 5;

/// Upper bound of --parallel / .parallel (CTP chunks, and pool workers).
constexpr uint64_t kMaxParallel = 256;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s GRAPH.tsv|--snapshot FILE|--demo [--algorithm NAME] "
               "[--adaptive]\n"
               "       [--parallel N] [--timeout MS] [--query-timeout MS]\n"
               "       [--memory-budget BYTES] [--stream] [--format table|tsv|json]\n"
               "       [--max-rows N] [--stats]\n"
               "       [--explain]\n"
               "       [-q QUERY]...\n",
               argv0);
  return kExitUsage;
}

/// Maps a finished execution to an exit-code category: a resource cutoff
/// (timeout, memory budget, cancellation) is not an error — results were
/// printed, with the serializer's own "(partial results)" note — but it must
/// not exit 0 either, or scripts treat a truncated answer as a complete one.
int OutcomeExitCode(const QueryResult& r) {
  return r.outcome == SearchOutcome::kOk ? kExitOk : kExitResource;
}

struct ShellArgs {
  std::string graph_path;
  std::string snapshot_path;
  bool demo = false;
  bool stats = false;
  bool explain = false;
  bool stream = false;
  size_t max_rows = 20;
  ResultFormat format = ResultFormat::kTable;
  EngineOptions options;
  std::vector<std::string> queries;
};

bool ParseArgs(int argc, char** argv, ShellArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    // A numeric flag's value: digits only, within [min, max].
    auto number = [&](uint64_t min, uint64_t max, uint64_t* out) {
      const char* v = next();
      if (v != nullptr && ParseDecimalInRange(v, min, max, out)) return true;
      std::fprintf(stderr, "%s needs a number in [%llu, %llu]\n", a.c_str(),
                   static_cast<unsigned long long>(min),
                   static_cast<unsigned long long>(max));
      return false;
    };
    uint64_t n = 0;
    if (a == "--demo") {
      args->demo = true;
    } else if (a == "--stats") {
      args->stats = true;
    } else if (a == "--explain") {
      args->explain = true;
    } else if (a == "--adaptive") {
      args->options.adaptive_algorithm = true;
    } else if (a == "--algorithm") {
      const char* v = next();
      if (v == nullptr) return false;
      auto kind = ParseAlgorithmName(v);
      if (!kind) {
        std::fprintf(stderr, "unknown algorithm '%s'\n", v);
        return false;
      }
      args->options.algorithm = *kind;
    } else if (a == "--parallel") {
      if (!number(0, kMaxParallel, &n)) return false;
      args->options.num_threads = static_cast<unsigned>(n);
    } else if (a == "--timeout") {
      if (!number(0, INT64_MAX, &n)) return false;
      args->options.default_ctp_timeout_ms = static_cast<int64_t>(n);
    } else if (a == "--query-timeout") {
      if (!number(0, INT64_MAX, &n)) return false;
      args->options.default_query_timeout_ms = static_cast<int64_t>(n);
    } else if (a == "--memory-budget") {
      if (!number(1, UINT64_MAX, &n)) return false;
      args->options.default_memory_budget_bytes = n;
    } else if (a == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      args->snapshot_path = v;
    } else if (a == "--stream") {
      args->stream = true;
    } else if (a == "--format") {
      const char* v = next();
      if (v == nullptr) return false;
      auto format = ParseResultFormat(v);
      if (!format.has_value()) {
        std::fprintf(stderr,
                     "unknown format '%s' (expected table, tsv or json)\n", v);
        return false;
      }
      args->format = *format;
    } else if (a == "--max-rows") {
      if (!number(0, SIZE_MAX, &n)) return false;
      args->max_rows = static_cast<size_t>(n);
    } else if (a == "-q") {
      const char* v = next();
      if (v == nullptr) return false;
      args->queries.push_back(v);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return false;
    } else if (args->graph_path.empty()) {
      args->graph_path = a;
    } else {
      return false;
    }
  }
  if (!args->snapshot_path.empty() && !args->graph_path.empty()) {
    std::fprintf(stderr, "give either GRAPH.tsv or --snapshot FILE, not both\n");
    return false;
  }
  return args->demo || !args->graph_path.empty() ||
         !args->snapshot_path.empty();
}

/// How the current graph came to be; the bare `.stats` command reports it.
struct GraphSource {
  std::string path;  ///< empty for the demo graph
  bool snapshot = false;
  double open_ms = 0;
  uint64_t mapped_bytes = 0;
};

/// Serializes a materialized result to stdout in the session's --format,
/// via the same serializers the eqld daemon streams over HTTP.
void PrintResult(const Graph& g, const ShellArgs& args, const QueryResult& r) {
  FileByteSink out(stdout);
  SerializeResult(g, r, args.format, out, args.max_rows);
  std::fflush(stdout);
}

void PrintCtpStats(const QueryResult& r) {
  for (const auto& run : r.ctp_runs) {
    std::string mode;
    if (run.used_subset_queues) mode += ", subset-queues";
    if (run.parallel_chunks > 0) {
      mode += ", " + std::to_string(run.parallel_chunks) + " chunks";
    }
    if (run.used_view) mode += ", view";
    if (run.dead_labels) mode += ", dead-labels";
    if (run.skipped) mode += ", skipped";
    if (run.shared) mode += ", shared";
    if (run.streamed_rows) mode += ", streamed";
    std::fprintf(stderr, "  [?%s via %s%s] rows=%zu outcome=%s %s\n",
                 run.tree_var.c_str(), AlgorithmName(run.algorithm),
                 mode.c_str(), run.num_results,
                 SearchOutcomeName(run.stats.Outcome()),
                 run.stats.ToString().c_str());
  }
}

/// Streaming execution of one prepared query: rows serialize to stdout as
/// they arrive, in the session's --format (table buffers until the end —
/// its column widths need every row; pick tsv/json for true streaming).
int StreamPrepared(const EqlEngine& engine, const Graph& g,
                   const ShellArgs& args, const PreparedQuery& prepared,
                   const ParamMap& params) {
  (void)engine;
  /// fwrite + flush per write, so rows appear as the search emits them.
  class FlushingSink : public ByteSink {
   public:
    bool Write(std::string_view bytes) override {
      if (std::fwrite(bytes.data(), 1, bytes.size(), stdout) != bytes.size()) {
        return false;
      }
      return std::fflush(stdout) == 0;
    }
  } out;
  SerializingSink sink(g, args.format, out, args.max_rows);
  auto r = prepared.Execute(params, sink);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    return ShellExitCodeForCode(r.status().code());
  }
  sink.Finish(FinishInfo{r->outcome, 0});
  std::fflush(stdout);
  std::fprintf(stderr,
               "%llu row(s) streamed in %.1f ms (first row after %.1f ms)\n",
               static_cast<unsigned long long>(r->rows_streamed), r->total_ms,
               r->first_row_ms);
  if (args.explain) std::fprintf(stderr, "%s", prepared.Explain(*r).c_str());
  if (args.stats) PrintCtpStats(*r);
  return OutcomeExitCode(*r);
}

int RunPrepared(const EqlEngine& engine, const Graph& g, const ShellArgs& args,
                const PreparedQuery& prepared, const ParamMap& params) {
  if (args.stream) {
    return StreamPrepared(engine, g, args, prepared, params);
  }
  auto r = prepared.Execute(params);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    return ShellExitCodeForCode(r.status().code());
  }
  std::fprintf(stderr, "%zu row(s) in %.1f ms (BGP %.1f | CTP %.1f | join %.1f)\n",
               r->table.NumRows(), r->total_ms, r->bgp_ms, r->ctp_ms,
               r->join_ms);
  PrintResult(g, args, *r);
  if (args.explain) std::fprintf(stderr, "%s", prepared.Explain(*r).c_str());
  if (args.stats) PrintCtpStats(*r);
  return OutcomeExitCode(*r);
}

int RunQuery(const EqlEngine& engine, const Graph& g, const ShellArgs& args,
             const std::string& query) {
  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "error: %s\n", prepared.status().ToString().c_str());
    return ShellExitCodeForCode(prepared.status().code());
  }
  if (!prepared->param_names().empty()) {
    std::fprintf(
        stderr,
        "query has unbound $parameters; use .prepare NAME / .bind / .run\n");
    return kExitParse;
  }
  return RunPrepared(engine, g, args, *prepared, ParamMap());
}

/// Parses ".bind"-style `$k=v` assignments; values may be "quoted" (with
/// spaces) and bare integers bind as integers. Returns false on bad syntax.
bool ParseBindArgs(const std::string& text, ParamMap* params) {
  size_t i = 0;
  auto skip_ws = [&] { while (i < text.size() && std::isspace((unsigned char)text[i])) ++i; };
  for (skip_ws(); i < text.size(); skip_ws()) {
    if (text[i] == '$') ++i;  // optional $ prefix on the name
    size_t name_start = i;
    while (i < text.size() && (std::isalnum((unsigned char)text[i]) || text[i] == '_')) ++i;
    if (i == name_start || i >= text.size() || text[i] != '=') return false;
    std::string name = text.substr(name_start, i - name_start);
    ++i;  // '='
    std::string value;
    bool quoted = false;
    if (i < text.size() && text[i] == '"') {
      quoted = true;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        value += text[i++];
      }
      if (i >= text.size()) return false;  // unterminated
      ++i;
    } else {
      while (i < text.size() && !std::isspace((unsigned char)text[i])) value += text[i++];
    }
    bool is_int = !quoted && !value.empty();
    for (size_t k = (value[0] == '-' ? 1 : 0); is_int && k < value.size(); ++k) {
      is_int = std::isdigit((unsigned char)value[k]);
    }
    if (is_int && !(value.size() == 1 && value[0] == '-')) {
      params->Set(std::move(name), static_cast<int64_t>(std::atoll(value.c_str())));
    } else {
      params->Set(std::move(name), std::move(value));
    }
  }
  return true;
}

/// Splits `text` into ';'-separated, trimmed, non-empty queries.
std::vector<std::string> SplitQueries(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    std::string q(Trim(std::string_view(text).substr(pos, semi - pos)));
    if (!q.empty()) out.push_back(std::move(q));
    pos = semi + 1;
  }
  return out;
}

int RunBatchFile(const EqlEngine& engine, const Graph& g, const ShellArgs& args,
                 const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return kExitExec;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::vector<std::string> queries = SplitQueries(ss.str());
  if (queries.empty()) {
    std::printf("no queries in '%s'\n", path.c_str());
    return kExitOk;
  }
  std::vector<std::string_view> views(queries.begin(), queries.end());
  Stopwatch sw;
  auto results = engine.RunBatch(views);
  double total_ms = sw.ElapsedMs();
  int code = kExitOk;
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(stderr, "\n> %s\n", queries[i].c_str());
    if (!results[i].ok()) {
      std::fprintf(stderr, "error: %s\n", results[i].status().ToString().c_str());
      code = std::max(code, ShellExitCodeForCode(results[i].status().code()));
      continue;
    }
    const QueryResult& r = *results[i];
    std::fprintf(stderr, "%zu row(s) in %.1f ms\n", r.table.NumRows(),
                 r.total_ms);
    PrintResult(g, args, r);
    code = std::max(code, OutcomeExitCode(r));
  }
  std::fprintf(stderr, "\nbatch: %zu queries in %.1f ms (pool: %s)\n", queries.size(),
              total_ms, engine.executor() != nullptr ? "yes" : "no");
  return code;
}

int Main(int argc, char** argv) {
  ShellArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  Graph graph;
  GraphSource source;
  if (args.demo) {
    graph = MakeDemoGraph();
    std::fprintf(stderr, "loaded demo graph (paper Figure 1): %zu nodes, %zu edges\n",
                graph.NumNodes(), graph.NumEdges());
  } else if (!args.snapshot_path.empty()) {
    Stopwatch sw;
    SnapshotInfo info;
    auto opened = OpenSnapshot(args.snapshot_path, {}, &info);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return kExitGraphLoad;
    }
    const double open_ms = sw.ElapsedMs();
    graph = std::move(opened).value();
    source = GraphSource{args.snapshot_path, true, open_ms, info.file_bytes};
    std::fprintf(
        stderr,
        "opened snapshot %s: %zu nodes, %zu edges (%.2f MB mapped in "
        "%.2f ms)\n",
        args.snapshot_path.c_str(), graph.NumNodes(), graph.NumEdges(),
        info.file_bytes / 1e6, open_ms);
  } else {
    auto loaded = LoadGraphFile(args.graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return kExitGraphLoad;
    }
    graph = std::move(loaded).value();
    source = GraphSource{args.graph_path, false, 0, 0};
    std::fprintf(stderr, "loaded %s: %zu nodes, %zu edges\n", args.graph_path.c_str(),
                graph.NumNodes(), graph.NumEdges());
  }
  auto engine = std::make_unique<EqlEngine>(graph, args.options);

  int exit_code = kExitOk;
  if (!args.queries.empty()) {
    for (const std::string& q : args.queries) {
      std::fprintf(stderr, "\n> %s\n", q.c_str());
      exit_code = std::max(exit_code, RunQuery(*engine, graph, args, q));
    }
    return exit_code;
  }

  // Interactive / piped mode: statements separated by ';', dot-commands on
  // their own line.
  std::fprintf(
      stderr,
      "enter queries terminated by ';' (.parallel N | "
      ".explain on|off | .stats [on|off] | .open FILE | "
      ".stream on|off | .batch FILE | .prepare NAME Q; | .bind NAME $k=v | "
      ".run NAME | Ctrl-D)\n");
  std::string buffer, line;
  // Prepared-query registry: handles borrow the engine, so rebuilding the
  // engine (.parallel / .open) invalidates and clears them.
  std::map<std::string, PreparedQuery> prepared_queries;
  std::map<std::string, ParamMap> bound_params;
  std::string pending_prepare;  ///< name awaiting its ';'-terminated text
  auto rebuild_engine = [&] {
    engine = std::make_unique<EqlEngine>(graph, args.options);
    if (!prepared_queries.empty()) {
      std::printf("(dropped %zu prepared quer%s: engine options changed)\n",
                  prepared_queries.size(),
                  prepared_queries.size() == 1 ? "y" : "ies");
      prepared_queries.clear();
    }
  };
  // Drains every complete ';'-terminated statement out of the buffer: a
  // pending .prepare claims the statement, anything else runs as a query.
  auto drain_buffer = [&] {
    size_t semi;
    while ((semi = buffer.find(';')) != std::string::npos) {
      std::string q(Trim(std::string_view(buffer).substr(0, semi)));
      buffer.erase(0, semi + 1);
      if (q.empty() && pending_prepare.empty()) continue;
      if (!pending_prepare.empty()) {
        auto prepared = engine->Prepare(q);
        if (!prepared.ok()) {
          std::fprintf(stderr, "error: %s\n", prepared.status().ToString().c_str());
          exit_code = std::max(exit_code, kExitParse);
        } else {
          std::string params_note;
          if (!prepared->param_names().empty()) {
            params_note = " (parameters:";
            for (const auto& p : prepared->param_names()) params_note += " $" + p;
            params_note += ")";
          }
          prepared_queries.insert_or_assign(pending_prepare,
                                            std::move(prepared).value());
          std::printf("prepared '%s'%s\n", pending_prepare.c_str(),
                      params_note.c_str());
        }
        pending_prepare.clear();
        continue;
      }
      exit_code = std::max(exit_code, RunQuery(*engine, graph, args, q));
    }
  };
  while (std::getline(std::cin, line)) {
    std::string trimmed(Trim(line));
    // Dot-commands are ".word ..." — a lone '.' is query text (the triple
    // terminator may sit on its own line). While a .prepare is collecting
    // its query text, everything flows into the buffer.
    if (pending_prepare.empty() && trimmed.size() >= 2 && trimmed[0] == '.' &&
        std::isalpha(static_cast<unsigned char>(trimmed[1]))) {
      std::istringstream cmd(trimmed);
      std::string name, arg;
      cmd >> name >> arg;
      if (name == ".parallel") {
        uint64_t n = 0;
        if (!ParseDecimalInRange(arg, 0, kMaxParallel, &n)) {
          std::printf(".parallel expects a chunk count in [0, %llu]\n",
                      static_cast<unsigned long long>(kMaxParallel));
          continue;
        }
        args.options.num_threads = static_cast<unsigned>(n);
        rebuild_engine();
        if (args.options.num_threads > 1) {
          std::printf("parallel: %u chunks on a %u-worker pool\n",
                      args.options.num_threads, args.options.num_threads);
        } else {
          std::printf("parallel: off (sequential CTP evaluation)\n");
        }
      } else if (name == ".explain") {
        if (arg != "on" && arg != "off") {
          std::printf(".explain expects 'on' or 'off'\n");
          continue;
        }
        args.explain = arg == "on";
        std::printf("plan printout: %s\n", arg.c_str());
      } else if (name == ".stats") {
        if (arg.empty()) {
          // Bare `.stats`: session status, including how the graph is stored.
          if (source.path.empty()) {
            std::printf("graph: demo (paper Figure 1), %zu nodes, %zu edges\n",
                        graph.NumNodes(), graph.NumEdges());
          } else {
            std::printf("graph: %s (%s), %zu nodes, %zu edges\n",
                        source.path.c_str(),
                        source.snapshot ? "mmap snapshot" : "parsed text",
                        graph.NumNodes(), graph.NumEdges());
          }
          if (source.snapshot) {
            std::printf("snapshot: %.2f MB mapped, opened in %.2f ms\n",
                        source.mapped_bytes / 1e6, source.open_ms);
          }
          std::printf(
              "options: parallel=%u explain=%s ctp-stats=%s stream=%s\n",
              args.options.num_threads, args.explain ? "on" : "off",
              args.stats ? "on" : "off", args.stream ? "on" : "off");
          continue;
        }
        if (arg != "on" && arg != "off") {
          std::printf(".stats expects 'on', 'off', or no argument\n");
          continue;
        }
        args.stats = arg == "on";
        std::printf("per-CTP statistics: %s\n", arg.c_str());
      } else if (name == ".open") {
        if (arg.empty()) {
          std::printf(".open needs a snapshot file\n");
          continue;
        }
        Stopwatch sw;
        SnapshotInfo info;
        auto opened = OpenSnapshot(arg, {}, &info);
        if (!opened.ok()) {
          std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
          exit_code = std::max(exit_code, kExitGraphLoad);
          continue;
        }
        const double open_ms = sw.ElapsedMs();
        // The engine borrows the graph; retire it before swapping the
        // storage out from under it.
        engine.reset();
        graph = std::move(opened).value();
        source = GraphSource{arg, true, open_ms, info.file_bytes};
        rebuild_engine();
        std::printf(
            "opened snapshot %s: %zu nodes, %zu edges (%.2f MB mapped in "
            "%.2f ms)\n",
            arg.c_str(), graph.NumNodes(), graph.NumEdges(),
            info.file_bytes / 1e6, open_ms);
      } else if (name == ".stream") {
        if (arg != "on" && arg != "off") {
          std::printf(".stream expects 'on' or 'off'\n");
          continue;
        }
        args.stream = arg == "on";
        std::printf("streaming row delivery: %s\n", arg.c_str());
      } else if (name == ".batch") {
        if (arg.empty()) {
          std::printf(".batch needs a file name\n");
        } else {
          exit_code = std::max(exit_code, RunBatchFile(*engine, graph, args, arg));
        }
      } else if (name == ".prepare") {
        if (arg.empty()) {
          std::printf(".prepare needs a name: .prepare NAME SELECT ... ;\n");
          continue;
        }
        if (!Trim(buffer).empty()) {
          // Leftover unterminated input would silently prepend itself to
          // the prepared statement; drop it loudly instead.
          std::printf("(discarding unterminated input before .prepare)\n");
          buffer.clear();
        }
        pending_prepare = arg;
        // The rest of the line starts the query text; it runs to ';'.
        std::string rest;
        std::getline(cmd, rest);
        buffer += rest;
        buffer += '\n';
        drain_buffer();  // a one-line .prepare completes immediately
      } else if (name == ".bind") {
        if (arg.empty() || !prepared_queries.count(arg)) {
          std::printf(".bind: no prepared query named '%s'\n", arg.c_str());
          continue;
        }
        std::string rest;
        std::getline(cmd, rest);
        ParamMap params;
        if (!ParseBindArgs(rest, &params)) {
          std::printf(".bind expects $name=value pairs (strings quoted)\n");
          continue;
        }
        bound_params[arg] = std::move(params);
        std::printf("bound %zu parameter(s) for '%s'\n",
                    bound_params[arg].size(), arg.c_str());
      } else if (name == ".run") {
        auto it = prepared_queries.find(arg);
        if (it == prepared_queries.end()) {
          std::printf(".run: no prepared query named '%s'\n", arg.c_str());
          continue;
        }
        auto pit = bound_params.find(arg);
        exit_code = std::max(
            exit_code,
            RunPrepared(*engine, graph, args, it->second,
                        pit != bound_params.end() ? pit->second : ParamMap()));
      } else {
        std::printf(
            "unknown command '%s' (try .parallel N, .explain on|off, "
            ".stats [on|off], "
            ".open FILE, .stream on|off, .batch FILE, .prepare, .bind "
            "or .run)\n",
            name.c_str());
      }
      continue;
    }
    buffer += line;
    buffer += '\n';
    drain_buffer();
  }
  return exit_code;
}

}  // namespace
}  // namespace eql

int main(int argc, char** argv) { return eql::Main(argc, argv); }
