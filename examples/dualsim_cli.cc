/// Command-line front end to the library — the workflow a downstream user
/// runs without writing C++:
///
///   dualsim_cli build <edge_list.txt> <db_path> [page_size]
///                     [--labels=<labels.txt>]
///       Preprocess (degree reorder via external sort) and write the
///       slotted-page database. With --labels, read one integer label per
///       line (line i = label of vertex i) and write a labeled (v3)
///       database carrying the label index.
///
///   dualsim_cli stats <db_path>
///       Print database statistics.
///
///   dualsim_cli verify <db_path>
///       Open the database (validating the catalog and, on labeled
///       files, the label index) and cross-check every slotted page
///       against the catalog (DiskGraph::VerifyAdjacency). Exit 0 when
///       clean, 8 (kGraphVerifyExitCode) when corrupt, 3 when unreadable.
///
///   dualsim_cli explain <query>
///       Show the prepared plan (RBI coloring, v-groups, matching order).
///
///   dualsim_cli query <db_path> <query> [buffer_fraction] [max_print]
///                     [metrics.json]
///       Enumerate the query; print up to max_print embeddings (default 0:
///       count only). When a metrics path is given (or DUALSIM_METRICS_OUT
///       is set) the process-wide MetricsSnapshot is written there as JSON.
///
/// <query> is "q1".."q5", a named shape ("triangle", "cycle5", ...), or an
/// edge list like "0-1,1-2,2-0". Vertex labels attach either inline
/// ("0-1,1-2,2-0,0=3,1=3") or as a suffix naming every vertex
/// ("triangle@3,3,*"); "*" matches any label.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/engine.h"
#include "graph/edge_list_io.h"
#include "obs/metrics.h"
#include "query/isomorphism.h"
#include "query/parser.h"
#include "runtime/plan_cache.h"
#include "service/query_service.h"
#include "storage/disk_graph.h"
#include "storage/preprocess.h"
#include "util/timer.h"

namespace {

using namespace dualsim;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// A missing/unreadable graph database gets a clear message and its own
/// exit code (3) so scripts can tell "bad path" from a query failure.
int FailGraphLoad(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return service::kGraphLoadExitCode;
}

/// Reads one integer label per line; line i labels vertex i. The file
/// must name every vertex of the graph it labels.
StatusOr<std::vector<LabelId>> ReadLabelsText(const std::string& path,
                                              VertexId num_vertices) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open label file " + path);
  std::vector<LabelId> labels;
  labels.reserve(num_vertices);
  long long value = 0;
  while (in >> value) {
    if (value < 0 || value > kMaxDataLabel) {
      return Status::InvalidArgument(
          "label " + std::to_string(value) + " for vertex " +
          std::to_string(labels.size()) + " out of range [0, " +
          std::to_string(kMaxDataLabel) + "]");
    }
    labels.push_back(static_cast<LabelId>(value));
  }
  if (labels.size() != num_vertices) {
    return Status::InvalidArgument(
        "label file " + path + " names " + std::to_string(labels.size()) +
        " vertices, graph has " + std::to_string(num_vertices));
  }
  return labels;
}

int CmdBuild(int argc, char** argv) {
  std::string labels_path;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--labels=", 0) == 0) {
      labels_path = arg.substr(std::string("--labels=").size());
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: build <edge_list.txt> <db_path> [page_size] "
                 "[--labels=<labels.txt>]\n");
    return 2;
  }
  auto loaded = ReadEdgeListText(argv[2]);
  if (!loaded.ok()) return FailGraphLoad(loaded.status());
  std::printf("loaded %u vertices, %llu edges\n", loaded->NumVertices(),
              static_cast<unsigned long long>(loaded->NumEdges()));
  if (!labels_path.empty()) {
    auto labels = ReadLabelsText(labels_path, loaded->NumVertices());
    if (!labels.ok()) return Fail(labels.status());
    loaded->SetLabels(*std::move(labels));
    std::printf("labels: %u distinct\n", loaded->NumLabels());
  }

  WallTimer timer;
  auto preprocessed = ExternalReorder(*loaded, /*memory_budget=*/64 << 20);
  if (!preprocessed.ok()) return Fail(preprocessed.status());
  std::printf("preprocessed (degree reorder, %llu sort runs) in %.3fs\n",
              static_cast<unsigned long long>(preprocessed->sort_stats.runs),
              timer.ElapsedSeconds());

  std::size_t page_size = argc > 4 ? std::atoi(argv[4]) : 0;
  if (page_size == 0) {
    page_size = 4096;
    while (page_size <
           static_cast<std::size_t>(preprocessed->reordered.MaxDegree()) * 4 +
               64) {
      page_size *= 2;
    }
  }
  if (Status s = BuildDiskGraph(preprocessed->reordered, argv[3], page_size);
      !s.ok()) {
    return Fail(s);
  }
  auto disk = DiskGraph::Open(argv[3]);
  if (!disk.ok()) return Fail(disk.status());
  std::printf("wrote %s: %u pages of %zu bytes\n", argv[3],
              (*disk)->num_pages(), page_size);
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: stats <db_path>\n");
    return 2;
  }
  auto disk = service::OpenServedGraph(argv[2]);
  if (!disk.ok()) return FailGraphLoad(disk.status());
  std::printf("vertices:          %u\n", (*disk)->num_vertices());
  std::printf("edges:             %llu\n",
              static_cast<unsigned long long>((*disk)->num_edges()));
  std::printf("pages:             %u x %zu bytes\n", (*disk)->num_pages(),
              (*disk)->page_size());
  std::printf("single-page lists: %s (largest vertex spans %u pages)\n",
              (*disk)->AllSinglePage() ? "yes" : "no",
              (*disk)->MaxVertexPages());
  return 0;
}

int CmdVerify(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: verify <db_path>\n");
    return 2;
  }
  // Open already validates the catalog (and the label index on labeled
  // files); an unreadable path keeps the load exit code, a readable but
  // inconsistent file gets the verify code.
  auto disk = service::OpenServedGraph(argv[2]);
  if (!disk.ok()) {
    std::fprintf(stderr, "error: %s\n", disk.status().ToString().c_str());
    return disk.status().code() == StatusCode::kNotFound
               ? service::kGraphLoadExitCode
               : service::kGraphVerifyExitCode;
  }
  WallTimer timer;
  bool degree_ordered = true;
  if (Status s = (*disk)->VerifyAdjacency(&degree_ordered); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return service::kGraphVerifyExitCode;
  }
  std::printf("verified %u pages in %.3fs: catalog and adjacency consistent\n",
              (*disk)->num_pages(), timer.ElapsedSeconds());
  std::printf("degree ordered: %s\n", degree_ordered ? "yes" : "no");
  if ((*disk)->HasLabels()) {
    std::printf("labels:         %u (index validated at open)\n",
                (*disk)->NumLabels());
  } else {
    std::printf("labels:         none (unlabeled v2 format)\n");
  }
  return 0;
}

int CmdExplain(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: explain <query>\n");
    return 2;
  }
  auto q = ParseQuery(argv[2]);
  if (!q.ok()) return Fail(q.status());

  // Route through a plan cache as the runtime does, so explain also shows
  // what a repeated query costs (canonicalization + LRU lookup only).
  PlanCache cache;
  const CanonicalQuery canonical = CanonicalizeQuery(*q);
  bool hit = false;
  auto plan = cache.GetOrPrepare(canonical, PlanOptions{}, &hit);
  if (!plan.ok()) return Fail(plan.status());
  WallTimer warm_timer;
  auto warm = cache.GetOrPrepare(CanonicalizeQuery(*q), PlanOptions{}, &hit);
  const double warm_millis = warm_timer.ElapsedMillis();
  if (!warm.ok()) return Fail(warm.status());

  std::fputs(ExplainPlan(**plan).c_str(), stdout);
  const PlanCache::CacheStats stats = cache.stats();
  std::printf("plan cache:    %llu hit / %llu miss (%s canonical form%s)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              canonical.exact ? "exact" : "fallback",
              canonical.identity ? "" : ", relabeled");
  std::printf("warm lookup:   %.4fms (vs %.3fms cold preparation)\n",
              warm_millis, (*plan)->prepare_millis);
  return 0;
}

/// Reads a whole positional argument as a number; false when any of it is
/// not (a flag, a typo, trailing junk) or it is out of range.
bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno == 0;
}

bool ParseNumber(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  *out = static_cast<int>(v);
  return end != text && *end == '\0' && errno == 0 && v == *out;
}

int QueryUsage(const char* what, const char* arg) {
  std::fprintf(stderr,
               "query: %s '%s'\nusage: query <db_path> <query> "
               "[buffer_fraction] [max_print] [metrics.json]\n",
               what, arg);
  return 2;
}

int CmdQuery(int argc, char** argv) {
  EngineOptions options;
  if (argc < 4) return QueryUsage("missing", "<db_path> <query>");
  int max_print = 0;
  if (argc > 4 && !ParseNumber(argv[4], &options.buffer_fraction)) {
    return QueryUsage("buffer_fraction is not a number:", argv[4]);
  }
  if (argc > 5 && !ParseNumber(argv[5], &max_print)) {
    return QueryUsage("max_print is not an integer:", argv[5]);
  }
  if (argc > 6 && argv[6][0] == '-') {
    return QueryUsage("unknown flag", argv[6]);
  }
  if (argc > 7) return QueryUsage("unexpected argument", argv[7]);
  auto disk = service::OpenServedGraph(argv[2]);
  if (!disk.ok()) return FailGraphLoad(disk.status());
  auto q = ParseQuery(argv[3]);
  if (!q.ok()) return Fail(q.status());

  DualSimEngine engine(disk->get(), options);
  std::mutex mu;
  int printed = 0;
  StatusOr<EngineStats> result =
      max_print > 0
          ? engine.Run(*q,
                       [&](std::span<const VertexId> m) {
                         std::lock_guard<std::mutex> lock(mu);
                         if (printed >= max_print) return;
                         ++printed;
                         std::printf("match %d: {", printed);
                         for (std::size_t i = 0; i < m.size(); ++i) {
                           std::printf("%su%zu->%u", i ? ", " : "", i, m[i]);
                         }
                         std::printf("}\n");
                       })
          : engine.Run(*q);
  if (!result.ok()) return Fail(result.status());

  std::printf("embeddings:    %llu\n",
              static_cast<unsigned long long>(result->embeddings));
  std::printf("elapsed:       %.3fs (prepare %.3fms)\n",
              result->elapsed_seconds, result->prepare_millis);
  std::printf("page reads:    %llu physical, %llu hits (%zu frames)\n",
              static_cast<unsigned long long>(result->io.physical_reads),
              static_cast<unsigned long long>(result->io.logical_hits),
              result->num_frames);
  std::printf("internal/external: %llu / %llu\n",
              static_cast<unsigned long long>(result->internal_embeddings),
              static_cast<unsigned long long>(result->external_embeddings));
  std::printf("plan cache:    %s (%llu hits / %llu misses this runtime)\n",
              result->plan_cached ? "hit" : "miss",
              static_cast<unsigned long long>(result->plan_cache_hits),
              static_cast<unsigned long long>(result->plan_cache_misses));

  const char* env = std::getenv("DUALSIM_METRICS_OUT");
  const std::string metrics_path =
      argc > 6 ? argv[6] : (env != nullptr ? env : "");
  if (!metrics_path.empty()) {
    if (!obs::WriteMetricsJsonFile(metrics_path)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("metrics:       %s\n", metrics_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "build") return CmdBuild(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "verify") return CmdVerify(argc, argv);
  if (command == "explain") return CmdExplain(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  std::fprintf(stderr,
               "usage: dualsim_cli <build|stats|verify|explain|query> ...\n");
  return 2;
}
