// Shared plumbing for the figure-regeneration binaries: the configurations
// each paper figure compares, environment-variable overrides so a user can
// re-run a figure with more iterations (IB12X_BW_ITERS, IB12X_LAT_ITERS) or
// emit CSV (IB12X_CSV=1), and a `--json <path>` flag (or IB12X_JSON env) that
// appends every emitted table as one JSON-lines record for machine ingestion.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "mvx/mpi.hpp"

namespace ib12x::bench {

inline int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : def;
}

inline bool csv_requested() { return env_int("IB12X_CSV", 0) != 0; }

/// Where `--json <path>` (or IB12X_JSON) directed table records; empty = off.
inline std::string& json_path() {
  static std::string path;
  return path;
}

/// This binary's name, used as the "bench" field of JSON records.
inline std::string& bench_name() {
  static std::string name{"bench"};
  return name;
}

/// Parses the shared bench command line.  Every figure binary calls this
/// first; unknown arguments are left alone for bench-specific handling.
inline void init(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    std::string prog = argv[0];
    const std::size_t slash = prog.find_last_of('/');
    bench_name() = slash == std::string::npos ? prog : prog.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path() = argv[i + 1];
      ++i;
    }
  }
  if (json_path().empty()) {
    const char* v = std::getenv("IB12X_JSON");
    if (v != nullptr) json_path() = v;
  }
}

inline void json_escaped(std::FILE* f, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

/// Appends `table` to the `--json` file as one JSON-lines record.
inline void emit_json(const harness::Table& table) {
  if (json_path().empty()) return;
  std::FILE* f = std::fopen(json_path().c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s for append\n", json_path().c_str());
    return;
  }
  std::fprintf(f, "{\"bench\":\"");
  json_escaped(f, bench_name());
  std::fprintf(f, "\",\"table\":\"");
  json_escaped(f, table.title());
  std::fprintf(f, "\",\"row_header\":\"");
  json_escaped(f, table.row_header());
  std::fprintf(f, "\",\"columns\":[");
  for (std::size_t c = 0; c < table.column_count(); ++c) {
    std::fprintf(f, "%s\"", c == 0 ? "" : ",");
    json_escaped(f, table.column_label(c));
    std::fprintf(f, "\"");
  }
  std::fprintf(f, "],\"rows\":[");
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    std::fprintf(f, "%s{\"label\":\"", r == 0 ? "" : ",");
    json_escaped(f, table.row_label(r));
    std::fprintf(f, "\",\"values\":[");
    for (std::size_t c = 0; c < table.column_count(); ++c) {
      std::fprintf(f, "%s%.6g", c == 0 ? "" : ",", table.value(r, c));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

inline harness::BenchParams bench_params() {
  harness::BenchParams bp;
  bp.lat_iters = env_int("IB12X_LAT_ITERS", bp.lat_iters);
  bp.lat_skip = bp.lat_iters / 5;
  bp.bw_iters = env_int("IB12X_BW_ITERS", bp.bw_iters);
  bp.bw_skip = std::max(1, bp.bw_iters / 6);
  bp.a2a_iters = env_int("IB12X_A2A_ITERS", bp.a2a_iters);
  bp.a2a_skip = std::max(1, bp.a2a_iters / 5);
  return bp;
}

/// A labelled configuration column of a figure.
struct Column {
  std::string label;
  mvx::Config cfg;
};

inline Column original() { return {"orig-1QP", mvx::Config::original()}; }

inline Column epc(int qps) {
  return {"EPC-" + std::to_string(qps) + "QP",
          mvx::Config::enhanced(qps, mvx::Policy::EPC)};
}

inline Column policy_col(int qps, mvx::Policy p) {
  return {std::string(mvx::to_string(p)) + "-" + std::to_string(qps) + "QP",
          mvx::Config::enhanced(qps, p)};
}

inline void emit(const harness::Table& table) {
  table.print(stdout);
  if (csv_requested()) {
    std::printf("\n-- csv --\n");
    table.print_csv(stdout);
  }
  emit_json(table);
}

}  // namespace ib12x::bench
