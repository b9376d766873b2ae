#ifndef DUALSIM_BENCH_BENCH_COMMON_H_
#define DUALSIM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>
#include <unistd.h>

#include "baseline/twintwig.h"
#include "core/engine.h"
#include "distsim/cluster.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "storage/disk_graph.h"
#include "util/logging.h"

namespace dualsim {
namespace bench {

/// Scale applied to every dataset in the benchmark harnesses. The shapes
/// in graph/datasets.cc are already scaled from the paper (DESIGN.md §2);
/// this knob shrinks them further for quick runs (DUALSIM_BENCH_SCALE env
/// var, default 1.0).
inline double BenchScale() {
  const char* env = std::getenv("DUALSIM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// Temp directory for on-disk databases, removed on destruction.
class ScopedDbDir {
 public:
  ScopedDbDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_bench_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~ScopedDbDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

/// Page size big enough to hold the graph's largest adjacency record (the
/// engine's small-degree precondition), at least 4 KiB.
inline std::size_t PageSizeFor(const Graph& g) {
  std::size_t need = static_cast<std::size_t>(g.MaxDegree()) * 4 + 64;
  std::size_t page = 4096;
  while (page < need) page *= 2;
  return page;
}

/// Builds (and opens) the on-disk database for `g` under `dir`.
inline std::unique_ptr<DiskGraph> BuildDb(const Graph& g,
                                          const ScopedDbDir& dir,
                                          const std::string& name) {
  const std::string path = dir.PathFor(name);
  Status s = BuildDiskGraph(g, path, PageSizeFor(g),
                            /*require_single_page=*/true);
  DS_CHECK(s.ok()) << s.ToString();
  auto disk = DiskGraph::Open(path, /*bypass_os_cache=*/true);
  DS_CHECK(disk.ok()) << disk.status().ToString();
  return std::move(*disk);
}

/// Engine options matching the paper's defaults: 15% buffer, 6 threads
/// (the i7-3930K of §6.1), paper buffer allocation.
inline EngineOptions PaperDefaults() {
  EngineOptions options;
  options.buffer_fraction = 0.15;
  options.num_threads = 6;
  return options;
}

/// Fixed single-machine budgets for the TTJ runs, playing the role of the
/// paper's fixed 24 GB machine: the *same* budget faces every dataset, so
/// failures onset as graphs grow. Calibrated against the scaled datasets
/// (see EXPERIMENTS.md "calibration"): TTJ spills beyond 1M tuples and
/// dies beyond 4M materialized tuples (intermediate + final rounds).
inline TwinTwigOptions PaperTtjOptions() {
  TwinTwigOptions options;
  options.memory_budget_tuples = 1'000'000;
  options.fail_budget_tuples = 3'500'000;
  return options;
}

/// Fixed cluster "hardware" for the distributed runs (51 machines in the
/// paper). One config faces every dataset; failure onsets are emergent.
/// Units are partial solutions; see EXPERIMENTS.md "calibration".
inline ClusterConfig PaperClusterConfig() {
  ClusterConfig config;
  config.num_slaves = 50;
  config.partition_skew = 3.0;
  config.psgl_graph_units_per_edge = 30.0;
  config.memory_partials_per_slave = 90'000;
  config.sparksql_block_limit_tuples = 120'000;
  config.hadoop_spill_limit_tuples = 240'000;
  return config;
}

/// "12.3s" / "417ms" / "93us" formatting for table cells.
inline std::string FormatSeconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  }
  return buf;
}

/// Dumps the process-wide MetricsSnapshot as a JSON sidecar next to the
/// benchmark's table output. The default path (conventionally
/// "<bench_name>.metrics.json" in the working directory) can be overridden
/// with the DUALSIM_METRICS_OUT env var; setting it to the empty string
/// suppresses the sidecar. Under DUALSIM_NO_METRICS the file is still
/// written but carries "metrics_enabled": false and empty sections.
inline void WriteMetricsSidecar(const std::string& default_path) {
  const char* env = std::getenv("DUALSIM_METRICS_OUT");
  const std::string path = env != nullptr ? env : default_path;
  if (path.empty()) return;
  if (obs::WriteMetricsJsonFile(path)) {
    std::printf("metrics sidecar: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write metrics sidecar %s\n", path.c_str());
  }
}

/// Accumulates flat benchmark rows and writes them on destruction as
/// BENCH_<name>.json — a JSON array of objects — so CI can persist the
/// numbers as artifacts next to the human-readable table output. The
/// DUALSIM_BENCH_JSON_DIR env var redirects the output directory; setting
/// it to the empty string suppresses the file.
class BenchJsonWriter {
 public:
  class Row {
   public:
    Row& Str(const std::string& key, const std::string& value) {
      Key(key);
      json_ += '"';
      for (char c : value) {
        if (c == '"' || c == '\\') json_ += '\\';
        json_ += c;
      }
      json_ += '"';
      return *this;
    }
    Row& Num(const std::string& key, double value) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      Key(key);
      json_ += buf;
      return *this;
    }
    Row& Int(const std::string& key, std::uint64_t value) {
      Key(key);
      json_ += std::to_string(value);
      return *this;
    }

   private:
    friend class BenchJsonWriter;
    void Key(const std::string& k) {
      if (!json_.empty()) json_ += ", ";
      json_ += '"';
      json_ += k;
      json_ += "\": ";
    }
    std::string json_;
  };

  explicit BenchJsonWriter(std::string bench_name)
      : name_(std::move(bench_name)) {}

  /// The returned reference stays valid for the writer's lifetime (rows
  /// live in a deque).
  Row& AddRow() { return rows_.emplace_back(); }

  ~BenchJsonWriter() {
    const char* dir = std::getenv("DUALSIM_BENCH_JSON_DIR");
    if (dir != nullptr && *dir == '\0') return;  // explicitly suppressed
    const std::string path = (dir != nullptr ? std::string(dir) + "/" : "") +
                             "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  {%s}%s\n", rows_[i].json_.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("bench json: %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  std::string name_;
  std::deque<Row> rows_;
};

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  PrintRule();
}

}  // namespace bench
}  // namespace dualsim

#endif  // DUALSIM_BENCH_BENCH_COMMON_H_
