// eql_pack: pack text graphs into mmap snapshots, generate synthetic
// inputs, and inspect/verify snapshot files.
//
//   eql_pack pack <input> -o <out> [--threads N] [--format tsv|nt] [--json]
//   eql_pack gen -o <out.tsv> [--nodes N] [--edges E] [--seed S]
//                [--labels L] [--types T]
//   eql_pack info <file>
//   eql_pack verify <file>
//
// Numeric values are decimal digits only and must fit their setting:
// --threads 0..256 (0 = hardware concurrency), --nodes up to 2^32-1,
// --labels and --types at least 1. Anything else exits 1 (usage).
//
// `pack` runs the parallel bulk loader (graph/bulk_load.h); its output is
// deterministic (byte-identical across thread counts). `gen` writes the
// seeded scale-free generator's graph as TSV so the pack path is exercised
// end to end. `verify` re-reads every section checksum.

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "gen/kg.h"
#include "graph/bulk_load.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "util/string_util.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitError = 2;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  eql_pack pack <input> -o <out> [--threads N] [--format tsv|nt] "
      "[--json]\n"
      "  eql_pack gen -o <out.tsv> [--nodes N] [--edges E] [--seed S] "
      "[--labels L] [--types T]\n"
      "  eql_pack info <file>\n"
      "  eql_pack verify <file>\n");
  return kExitUsage;
}

/// Parses the value of numeric flag `flag` into [min, max], or says why not.
bool FlagValue(const std::string& flag, const char* text, uint64_t min,
               uint64_t max, uint64_t* out) {
  if (eql::ParseDecimalInRange(text, min, max, out)) return true;
  std::fprintf(stderr, "%s needs a number in [%llu, %llu]\n", flag.c_str(),
               static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  return false;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int RunPack(int argc, char** argv) {
  std::string input, output;
  eql::BulkLoadOptions options;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      uint64_t n = 0;
      if (!FlagValue(arg, argv[++i], 0, 256, &n)) return kExitUsage;
      options.num_threads = static_cast<int>(n);
    } else if (arg == "--format" && i + 1 < argc) {
      std::string f = argv[++i];
      if (f == "tsv") {
        options.format = eql::BulkLoadFormat::kTsv;
      } else if (f == "nt") {
        options.format = eql::BulkLoadFormat::kNTriples;
      } else {
        std::fprintf(stderr, "unknown --format %s (want tsv|nt)\n", f.c_str());
        return kExitUsage;
      }
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] != '-' && input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (input.empty() || output.empty()) return Usage();

  eql::Result<eql::BulkLoadStats> r =
      eql::PackGraphFile(input, output, options);
  if (!r.ok()) {
    std::fprintf(stderr, "eql_pack: %s\n", r.status().ToString().c_str());
    return kExitError;
  }
  const eql::BulkLoadStats& s = *r;
  const double total = s.parse_seconds + s.merge_seconds + s.write_seconds;
  const uint64_t rss = eql::CurrentPeakRssBytes();
  std::fprintf(stderr,
               "packed %s -> %s\n"
               "  input      %.1f MB, %llu lines\n"
               "  graph      %llu nodes, %llu edges, %llu strings\n"
               "  output     %.1f MB\n"
               "  time       %.2fs (parse %.2fs x%d threads, merge %.2fs, "
               "write %.2fs)\n"
               "  throughput %.1f MB/s, %.0f edges/s\n"
               "  peak rss   %.1f MB\n",
               input.c_str(), output.c_str(), s.input_bytes / 1e6,
               (unsigned long long)s.num_lines, (unsigned long long)s.num_nodes,
               (unsigned long long)s.num_edges,
               (unsigned long long)s.num_strings, s.output_bytes / 1e6, total,
               s.parse_seconds, s.threads_used, s.merge_seconds,
               s.write_seconds, total > 0 ? s.input_bytes / 1e6 / total : 0.0,
               total > 0 ? s.num_edges / total : 0.0, rss / 1e6);
  if (json) {
    std::printf(
        "{\"input_bytes\": %llu, \"output_bytes\": %llu, \"num_lines\": %llu, "
        "\"num_nodes\": %llu, \"num_edges\": %llu, \"num_strings\": %llu, "
        "\"threads\": %d, \"parse_seconds\": %.6f, \"merge_seconds\": %.6f, "
        "\"write_seconds\": %.6f, \"peak_rss_bytes\": %llu}\n",
        (unsigned long long)s.input_bytes, (unsigned long long)s.output_bytes,
        (unsigned long long)s.num_lines, (unsigned long long)s.num_nodes,
        (unsigned long long)s.num_edges, (unsigned long long)s.num_strings,
        s.threads_used, s.parse_seconds, s.merge_seconds, s.write_seconds,
        (unsigned long long)rss);
  }
  return kExitOk;
}

int RunGen(int argc, char** argv) {
  std::string output;
  eql::KgParams params;
  params.num_nodes = 100000;
  params.num_edges = 400000;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t n = 0;
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--nodes" && i + 1 < argc) {
      if (!FlagValue(arg, argv[++i], 0, UINT32_MAX, &n)) return kExitUsage;
      params.num_nodes = static_cast<uint32_t>(n);
    } else if (arg == "--edges" && i + 1 < argc) {
      if (!FlagValue(arg, argv[++i], 0, UINT64_MAX, &n)) return kExitUsage;
      params.num_edges = n;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!FlagValue(arg, argv[++i], 0, UINT64_MAX, &n)) return kExitUsage;
      params.seed = n;
    } else if (arg == "--labels" && i + 1 < argc) {
      if (!FlagValue(arg, argv[++i], 1, INT_MAX, &n)) return kExitUsage;
      params.num_labels = static_cast<int>(n);
    } else if (arg == "--types" && i + 1 < argc) {
      if (!FlagValue(arg, argv[++i], 1, INT_MAX, &n)) return kExitUsage;
      params.num_types = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (output.empty()) return Usage();

  auto start = std::chrono::steady_clock::now();
  eql::Result<eql::Graph> g = eql::MakeSyntheticKg(params);
  if (!g.ok()) {
    std::fprintf(stderr, "eql_pack: %s\n", g.status().ToString().c_str());
    return kExitError;
  }
  eql::Status st = eql::SaveGraphFile(*g, output);
  if (!st.ok()) {
    std::fprintf(stderr, "eql_pack: %s\n", st.ToString().c_str());
    return kExitError;
  }
  std::fprintf(stderr,
               "generated %s: %zu nodes, %zu edges (seed %llu) in %.1fms\n",
               output.c_str(), g->NumNodes(), g->NumEdges(),
               (unsigned long long)params.seed, MsSince(start));
  return kExitOk;
}

int RunInfo(const std::string& path) {
  eql::Result<eql::SnapshotInfo> info = eql::ReadSnapshotInfo(path);
  if (!info.ok()) {
    std::fprintf(stderr, "eql_pack: %s\n", info.status().ToString().c_str());
    return kExitError;
  }
  std::printf(
      "%s: %llu bytes, %llu nodes, %llu edges, %llu strings\n", path.c_str(),
      (unsigned long long)info->file_bytes, (unsigned long long)info->num_nodes,
      (unsigned long long)info->num_edges,
      (unsigned long long)info->num_strings);
  return kExitOk;
}

int RunVerify(const std::string& path) {
  auto start = std::chrono::steady_clock::now();
  eql::SnapshotOpenOptions options;
  options.verify_checksums = true;
  eql::Result<eql::Graph> g = eql::OpenSnapshot(path, options);
  if (!g.ok()) {
    std::fprintf(stderr, "eql_pack: %s\n", g.status().ToString().c_str());
    return kExitError;
  }
  std::printf("%s: ok (%zu nodes, %zu edges; verified in %.1fms)\n",
              path.c_str(), g->NumNodes(), g->NumEdges(), MsSince(start));
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "pack") return RunPack(argc - 2, argv + 2);
  if (cmd == "gen") return RunGen(argc - 2, argv + 2);
  if (cmd == "info" && argc == 3) return RunInfo(argv[2]);
  if (cmd == "verify" && argc == 3) return RunVerify(argv[2]);
  return Usage();
}
