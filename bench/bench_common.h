// Shared helpers for the per-figure/table benchmark binaries.
//
// Every binary prints its paper-shaped rows (so `./bench_x` with no
// arguments reproduces the experiment) and, given --json=PATH, writes the
// deterministic ones — peaks, arenas, traffic, state counts, plan bytes —
// for tools/check_bench_regression.py to compare exactly against
// bench/baselines/ (the `bench_baselines` ctest test). No row carries a
// time: perfbench (BENCHMARK.json) is the timing authority.
#ifndef SERENITY_BENCH_BENCH_COMMON_H_
#define SERENITY_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "alloc/arena_planner.h"
#include "core/pipeline.h"
#include "graph/graph.h"
#include "models/zoo.h"
#include "sched/baselines.h"
#include "sched/schedule.h"

namespace serenity::bench {

inline double Kb(std::int64_t bytes) {
  return static_cast<double>(bytes) / 1024.0;
}

// The three configurations of Figures 10/11/12/13.
struct CellMeasurement {
  models::BenchmarkCell cell;
  graph::Graph graph;

  // TensorFlow Lite baseline: declaration order + greedy-by-size arena.
  sched::Schedule tflite_schedule;
  std::int64_t tflite_peak = 0;        // liveness-sum footprint
  std::int64_t tflite_arena = 0;       // with the memory allocator

  // Dynamic programming only (graph unchanged).
  core::PipelineResult dp;
  std::int64_t dp_arena = 0;

  // Dynamic programming + identity graph rewriting.
  core::PipelineResult dp_rw;
  std::int64_t dp_rw_arena = 0;
};

inline CellMeasurement MeasureCell(const models::BenchmarkCell& cell) {
  CellMeasurement m;
  m.cell = cell;
  m.graph = cell.factory();

  m.tflite_schedule = sched::TfLiteOrderSchedule(m.graph);
  m.tflite_peak = sched::PeakFootprint(m.graph, m.tflite_schedule);
  m.tflite_arena =
      alloc::PlanArena(m.graph, m.tflite_schedule).arena_bytes;

  core::PipelineOptions dp_only;
  dp_only.enable_rewriting = false;
  m.dp = core::Pipeline(dp_only).Run(m.graph);
  if (m.dp.status.ok()) {
    m.dp_arena =
        alloc::PlanArena(m.dp.scheduled_graph, m.dp.schedule).arena_bytes;
  }

  m.dp_rw = core::Pipeline().Run(m.graph);
  if (m.dp_rw.status.ok()) {
    m.dp_rw_arena =
        alloc::PlanArena(m.dp_rw.scheduled_graph, m.dp_rw.schedule)
            .arena_bytes;
  }
  return m;
}

inline std::string CellLabel(const models::BenchmarkCell& cell) {
  return cell.group + " / " + cell.name;
}

inline void PrintRule(int width = 110) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

// ------------------------------------------------------------- JSON emitter
//
// A bench binary invoked with --json=PATH writes its paper-shaped rows as
// {"rows": [{...}, ...]} next to the human-readable table. Values are
// either numbers or strings; rows are flat.

class JsonRows {
 public:
  // Starts a new row.
  void Begin() { rows_.emplace_back(); }

  void Field(const std::string& key, const std::string& value) {
    rows_.back().push_back({key, Quote(value)});
  }
  void Field(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    rows_.back().push_back({key, buffer});
  }
  void Field(const std::string& key, std::int64_t value) {
    rows_.back().push_back({key, std::to_string(value)});
  }
  void Field(const std::string& key, std::uint64_t value) {
    rows_.back().push_back({key, std::to_string(value)});
  }

  // Writes {"rows": [...]} to `path`. Returns false (with a message on
  // stderr) if the file cannot be written — or if no rows were ever begun,
  // so a silently truncated bench fails its own test instead of handing
  // the baseline compare an empty file.
  bool WriteTo(const std::string& path) const {
    if (rows_.empty()) {
      std::fprintf(stderr,
                   "refusing to write %s: benchmark emitted zero rows\n",
                   path.c_str());
      return false;
    }
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("{\"rows\": [", file);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fputs(r == 0 ? "\n  {" : ",\n  {", file);
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        std::fprintf(file, "%s%s: %s", f == 0 ? "" : ", ",
                     Quote(rows_[r][f].first).c_str(),
                     rows_[r][f].second.c_str());
      }
      std::fputc('}', file);
    }
    std::fputs("\n]}\n", file);
    const bool ok = std::ferror(file) == 0;
    if (std::fclose(file) != 0 || !ok) {
      std::fprintf(stderr, "error writing %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  static std::string Quote(const std::string& raw) {
    std::string out = "\"";
    for (const char c : raw) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// Reads the --<name>=VALUE flags a bench accepts: returns one value per
// entry of `prefixes` (e.g. "--json="), "" where the flag is absent. Any
// other argument is an error: a usage line on stderr and exit status 2.
inline std::vector<std::string> ParseFlags(
    int argc, char** argv, const std::vector<std::string>& prefixes) {
  std::vector<std::string> values(prefixes.size());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::size_t p = 0;
    while (p < prefixes.size() && arg.rfind(prefixes[p], 0) != 0) ++p;
    if (p == prefixes.size()) {
      std::fprintf(stderr, "%s: unknown argument '%s'; accepted:", argv[0],
                   arg.c_str());
      for (const std::string& prefix : prefixes) {
        std::fprintf(stderr, " %sVALUE", prefix.c_str());
      }
      std::fprintf(stderr, "%s\n", prefixes.empty() ? " none" : "");
      std::exit(2);
    }
    values[p] = arg.substr(prefixes[p].size());
  }
  return values;
}

// The flags of a bench whose only option is --json=PATH.
inline std::string JsonFlag(int argc, char** argv) {
  return ParseFlags(argc, argv, {"--json="})[0];
}

}  // namespace serenity::bench

#endif  // SERENITY_BENCH_BENCH_COMMON_H_
