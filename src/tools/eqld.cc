// eqld — the EQL network query daemon.
//
// Serves a graph (snapshot file or built-in synthetic KG) over HTTP/1.1:
// ad-hoc queries, prepared handles, streamed chunked results, admission
// control. Protocol and endpoint reference: docs/server.md.
//
//   eqld --snapshot kg.eqls --port 8322
//   eqld --synthetic --nodes 20000 --edges 80000 --port 0   # ephemeral port
//
// Runs until SIGTERM/SIGINT, then drains: in-flight queries finish, idle
// connections close, exit 0.
//
// Exit codes (stable — supervisors branch on them; see docs/server.md):
//   0  clean shutdown (drained after SIGTERM/SIGINT)
//   2  usage error (bad flag / missing graph source)
//   3  graph load failure (snapshot unreadable/corrupt, synthetic failed)
//   4  network failure (bind/listen: address in use, bad address, ...)
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "gen/kg.h"
#include "server/server.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: eqld (--snapshot PATH | --synthetic) [options]\n"
               "\n"
               "graph source:\n"
               "  --snapshot PATH       mmap-open a snapshot (eql_pack output)\n"
               "  --synthetic           generate the built-in synthetic KG\n"
               "  --nodes N             synthetic node count   (default 10000)\n"
               "  --edges N             synthetic edge count   (default 40000)\n"
               "\n"
               "network:\n"
               "  --bind ADDR           listen address         (default 127.0.0.1)\n"
               "  --port N              listen port; 0 = ephemeral (default 8322)\n"
               "  --max-connections N   concurrent connections (default 128)\n"
               "\n"
               "admission / quotas:\n"
               "  --max-concurrent N    server-wide concurrent queries (default 64)\n"
               "  --per-client N        per-client concurrent queries  (default 8)\n"
               "                        (cooperative: keyed on peer IP + the\n"
               "                        client-supplied X-EQL-Client header)\n"
               "  --per-peer N          per-IP concurrent queries, enforced\n"
               "                        regardless of header; 0 = off (default 0)\n"
               "  --timeout-ms N        per-query deadline, 0 = none   (default 30000)\n"
               "                        (the one wall-clock bound; a client's\n"
               "                        timeout_ms can only tighten it)\n"
               "  --memory-budget-mb N  per-query memory cap, 0 = none (default 0)\n"
               "\n"
               "overload resilience (docs/server.md \"Overload & degradation\"):\n"
               "  --max-memory-mb N     process-wide query-memory pool; per-query\n"
               "                        budgets are leased from it, shrinking to\n"
               "                        its headroom; 0 = off       (default 0)\n"
               "  --shed-p95-ms N       shed load when admit-to-first-byte p95\n"
               "                        exceeds N ms; 0 = off       (default 0)\n"
               "\n"
               "engine:\n"
               "  --threads N           CTP search chunks per query    (default 0)\n"
               "  --cache-capacity N    prepared-statement LRU entries (default 128)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  bool synthetic = false;
  uint64_t nodes = 10000, edges = 40000;
  eql::ServerOptions options;
  options.port = 8322;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // The flag's value, which must fit the field it sets: a wrapped or
    // truncated number would run the server under a setting nobody asked
    // for (--port 70000 binding 4464, --timeout-ms 2^63 going negative).
    auto next = [&](uint64_t max) {
      uint64_t v = 0;
      if (i + 1 >= argc || !eql::ParseDecimalInRange(argv[++i], 0, max, &v)) {
        std::fprintf(stderr, "eqld: %s needs a number in [0, %llu]\n",
                     arg.c_str(), static_cast<unsigned long long>(max));
        std::exit(2);
      }
      return v;
    };
    constexpr uint64_t kMiBMax = UINT64_MAX >> 20;  // MiB that fit in bytes
    if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--synthetic") {
      synthetic = true;
    } else if (arg == "--nodes") {
      nodes = next(UINT32_MAX);
    } else if (arg == "--edges") {
      edges = next(UINT64_MAX);
    } else if (arg == "--bind" && i + 1 < argc) {
      options.bind_address = argv[++i];
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(next(UINT16_MAX));
    } else if (arg == "--max-connections") {
      options.max_connections = static_cast<uint32_t>(next(UINT32_MAX));
    } else if (arg == "--max-concurrent") {
      options.admission.max_concurrent =
          static_cast<uint32_t>(next(UINT32_MAX));
    } else if (arg == "--per-client") {
      options.admission.per_client_concurrent =
          static_cast<uint32_t>(next(UINT32_MAX));
    } else if (arg == "--per-peer") {
      options.admission.per_peer_concurrent =
          static_cast<uint32_t>(next(UINT32_MAX));
    } else if (arg == "--timeout-ms") {
      options.admission.query_timeout_ms =
          static_cast<int64_t>(next(INT64_MAX));
    } else if (arg == "--memory-budget-mb") {
      options.admission.memory_budget_bytes = next(kMiBMax) << 20;
    } else if (arg == "--max-memory-mb") {
      options.admission.memory_pool_bytes = next(kMiBMax) << 20;
    } else if (arg == "--shed-p95-ms") {
      options.admission.queue_delay_p95_ms =
          static_cast<int64_t>(next(INT64_MAX));
    } else if (arg == "--threads") {
      options.engine.num_threads = static_cast<unsigned>(next(UINT_MAX));
    } else if (arg == "--cache-capacity") {
      options.prepared_cache_capacity = static_cast<size_t>(next(SIZE_MAX));
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "eqld: unknown argument '%s'\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }
  if (snapshot_path.empty() && !synthetic) {
    std::fprintf(stderr, "eqld: need --snapshot PATH or --synthetic\n");
    Usage(stderr);
    return 2;
  }

  eql::EqldServer server(options);
  if (!snapshot_path.empty()) {
    eql::Status st = server.OpenSnapshotFile(snapshot_path);
    if (!st.ok()) {
      std::fprintf(stderr,
                   "eqld: fatal: cannot serve snapshot '%s': %s\n"
                   "eqld: check the path exists, is readable, and was "
                   "written by eql_pack\n",
                   snapshot_path.c_str(), st.ToString().c_str());
      return 3;
    }
  } else {
    eql::KgParams params;
    params.num_nodes = static_cast<uint32_t>(nodes);
    params.num_edges = edges;
    auto g = eql::MakeSyntheticKg(params);
    if (!g.ok()) {
      std::fprintf(stderr, "eqld: fatal: synthetic graph generation: %s\n",
                   g.status().ToString().c_str());
      return 3;
    }
    server.SetGraph(std::move(g).value(),
                    "synthetic(" + std::to_string(nodes) + "," +
                        std::to_string(edges) + ")");
  }

  eql::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr,
                 "eqld: fatal: cannot listen on %s:%u: %s\n"
                 "eqld: check the address is local and the port is free "
                 "(port 0 picks an ephemeral one)\n",
                 options.bind_address.c_str(), options.port,
                 st.ToString().c_str());
    return 4;
  }

  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // The smoke harness waits for this line to know the port is live.
  std::printf("eqld listening on %s:%u\n", options.bind_address.c_str(),
              server.port());
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("eqld: draining\n");
  std::fflush(stdout);
  server.Shutdown();
  std::printf("eqld: stopped\n");
  return 0;
}
