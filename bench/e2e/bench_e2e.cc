/// bench_e2e: one workload of the end-to-end benchmark, in one process.
///
///   bench_e2e --workload W --seed S --seconds T --json OUT
///             [--trace] [--trace-out FILE] [--expected FILE] [--oracle]
///             [--smoke] [--workdir DIR] [--git-sha SHA]
///
/// Sets the workload up at least 3 times and for at least 0.5 s (once under
/// --smoke), timing each set-up; runs one untimed warm-up operation per
/// connection, drives a closed loop for T seconds, checks every answer
/// against an in-memory reference, and sets up for another 0.5 s. With
/// --trace the loop runs twice, T/2 untraced and T/2 traced, so the tracing
/// overhead is measured inside one process; the bench's own spans around
/// each public call (plus the session's spans for in-process runs) go to
/// --trace-out. Every layer is measured from outside: wall time
/// around public calls, and deltas of obs::Metrics().Snapshot().
///
/// The seed relabels the vertices of a fixed-shape graph before the ≺
/// reordering (so page layout and window composition change, counts do
/// not) and seeds the request streams. run.py drives this binary; see
/// README.md for the workloads, metrics and run rules.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/bruteforce.h"
#include "baseline/chiba_nishizeki.h"
#include "bench_common.h"
#include "core/cost_model.h"
#include "core/plan.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "incr/edge_delta_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "query/queries.h"
#include "runtime/query_session.h"
#include "runtime/runtime.h"
#include "service/client.h"
#include "service/query_service.h"
#include "util/logging.h"
#include "util/random.h"

namespace dualsim::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// A workload that runs past this is aborted with exit code 3.
constexpr int kWatchdogSeconds = 300;
/// Embeddings a streaming request asks for (service-short).
constexpr std::uint32_t kStreamCap = 1000;
/// Edge flips per UPDATE batch (evolve-mixed).
constexpr int kFlipsPerUpdate = 4;
/// A tail percentile is reported only with this many samples beyond it.
constexpr std::size_t kTailSamples = 10;
/// Self times must sum to within this share of their root spans.
constexpr double kSelfTimeTolerance = 0.05;
/// Set-up repeats until this much set-up time is spent, half before and
/// half after the timed phases (at most kMaxSetupReps times per half), and
/// at least kMinSetupReps times before them.
constexpr double kSetupBudgetSeconds = 1.0;
constexpr int kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 500;

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool oracle = false;
  std::string json_path;
  std::string trace_path;
  std::string expected_path;
  std::string workdir = ".";
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload house-inmem|clique-spill|"
               "service-short|evolve-mixed --seed S --seconds T --json OUT\n"
               "       [--trace] [--trace-out FILE] [--expected FILE] "
               "[--oracle] [--smoke]\n"
               "       [--workdir DIR] [--git-sha SHA]\n",
               error.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--oracle") {
      o.oracle = true;
    } else if (arg == "--json") {
      o.json_path = value();
    } else if (arg == "--trace-out") {
      o.trace_path = value();
    } else if (arg == "--expected") {
      o.expected_path = value();
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else if (arg == "--git-sha") {
      o.git_sha = value();
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (o.json_path.empty()) Usage("--json is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

/// Knobs whose environment overrides would change what is measured; the
/// bench refuses to run while any is set, so every run measures defaults.
void RefusePinnedEnvironment() {
  for (const char* name :
       {"DUALSIM_BENCH_SCALE", "DUALSIM_IO_BACKEND",
        "DUALSIM_FORCE_INTERSECT_KERNEL", "DUALSIM_FAKE_NO_URING",
        "DUALSIM_FAKE_NO_AVX2"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "bench_e2e: refusing to run with %s set\n", name);
      std::exit(2);
    }
  }
}

// ---------------------------------------------------------------------------
// Tracing: the bench's own spans around public calls. Untraced runs pass a
// null Tracer and pay one pointer test per call.

class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // spans of one operation share it
    const char* name = "";      // string literal
    const char* layer = "";     // string literal
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
  };

  static constexpr std::size_t kCapacity = 1'000'000;

  std::uint64_t NowUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              epoch_)
            .count());
  }
  std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kCapacity) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::uint64_t parent = 0, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->NextId();
    span_.parent = parent;
    span_.request = request != 0 ? request : span_.id;
    span_.name = name;
    span_.layer = layer;
    span_.start_us = tracer_->NowUs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_us = tracer_->NowUs();
    tracer_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  std::uint64_t request() const { return span_.request; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
};

/// Copies the session's own spans (recorded into `ctx` since index `*next`)
/// into the tracer, nested under the bench span `parent`: session.run is
/// the child of `parent`, the other session spans are session.run's.
void ImportSessionSpans(const obs::TraceContext& ctx, std::uint64_t offset_us,
                        std::uint64_t parent, std::uint64_t request,
                        std::size_t* next, Tracer* tracer) {
  const auto spans = ctx.spans();
  const std::uint64_t run_id = tracer->NextId();
  for (std::size_t i = *next; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const bool is_run = std::strcmp(s.name, "session.run") == 0;
    Tracer::Span out;
    out.id = is_run ? run_id : tracer->NextId();
    out.parent = is_run ? parent : run_id;
    out.request = request;
    out.name = s.name;
    out.layer = std::strcmp(s.name, "scheduler.execute") == 0 ? "core"
                                                               : "runtime";
    out.start_us = s.start_us + offset_us;
    out.end_us = out.start_us + s.duration_us;
    tracer->Add(out);
  }
  *next = spans.size();
}

/// Self time per layer: a span's duration minus the part of it that its
/// children cover (children clipped to the parent interval). Only trees
/// rooted at an operation ("query", "update") count per layer; the set-up
/// and the subscriber's waits for pushes are summed per root name.
struct SelfTimes {
  std::map<std::string, double> layer_ms;  // operations, per layer
  std::map<std::string, double> other_ms;  // other trees, per root name
  std::map<std::string, double> name_ms;   // operations, per span name
  double root_ms = 0;  // summed root durations, set-up included
  std::uint64_t roots = 0;
  std::uint64_t roots_off = 0;  // roots whose tree's self times miss by >5%
};

SelfTimes ComputeSelfTimes(const std::vector<Tracer::Span>& spans) {
  std::map<std::uint64_t, std::vector<const Tracer::Span*>> children;
  std::map<std::uint64_t, const Tracer::Span*> by_id;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  SelfTimes out;
  std::map<std::uint64_t, double> tree_self_us;  // keyed by root id
  for (const auto& s : spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Tracer::Span* c : it->second) {
        const std::uint64_t b = std::max(c->start_us, s.start_us);
        const std::uint64_t e = std::min(c->end_us, s.end_us);
        if (b < e) cover.emplace_back(b, e);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;
    for (const auto& [b, e] : cover) {
      const std::uint64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    const double self_us =
        static_cast<double>(s.end_us - s.start_us - covered);
    // Walk to the root (parents always exist unless a span was dropped).
    const Tracer::Span* root = &s;
    while (root->parent != 0) {
      auto p = by_id.find(root->parent);
      if (p == by_id.end()) break;
      root = p->second;
    }
    tree_self_us[root->id] += self_us;
    if (std::strcmp(root->name, "query") != 0 &&
        std::strcmp(root->name, "update") != 0) {
      out.other_ms[root->name] += self_us / 1e3;
      continue;
    }
    out.layer_ms[s.layer] += self_us / 1e3;
    out.name_ms[s.name] += self_us / 1e3;
  }
  for (const auto& s : spans) {
    if (s.parent != 0) continue;
    const double dur = static_cast<double>(s.end_us - s.start_us);
    out.root_ms += dur / 1e3;
    ++out.roots;
    if (std::fabs(tree_self_us[s.id] - dur) > kSelfTimeTolerance * dur + 1) {
      ++out.roots_off;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Results

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Correctness checks: counted, with the first few failures kept verbatim.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++run_;
    if (ok) return;
    ++failed_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  std::uint64_t run() const { return run_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::mutex mu_;
  std::uint64_t run_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t n = 0;  // samples behind the value
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::uint64_t n) {
    metrics_.push_back({name, value, unit, n});
  }
  void Note(const std::string& note) { notes_.push_back(note); }

  std::string ToJson(const Options& o, const Checks& checks,
                     std::uint64_t attempted, std::uint64_t failed,
                     const std::map<std::string, std::string>& env,
                     const std::string& oracle_key,
                     std::uint64_t oracle_count) const {
    std::ostringstream j;
    j << "{\"workload\": \"" << JsonEscape(o.workload) << "\", \"seed\": "
      << o.seed << ", \"seconds\": " << Num(o.seconds)
      << ", \"trace\": " << (o.trace ? "true" : "false")
      << ", \"smoke\": " << (o.smoke ? "true" : "false")
      << ", \"correct\": " << (checks.failed() == 0 ? "true" : "false")
      << ", \"checks_run\": " << checks.run()
      << ", \"checks_failed\": " << checks.failed()
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed;
    j << ", \"check_failures\": [";
    for (std::size_t i = 0; i < checks.messages().size(); ++i) {
      j << (i ? ", " : "") << '"' << JsonEscape(checks.messages()[i]) << '"';
    }
    j << "], \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      j << (i ? ", " : "") << '"' << JsonEscape(notes_[i]) << '"';
    }
    j << "], \"env\": {";
    bool first = true;
    for (const auto& [k, v] : env) {
      j << (first ? "" : ", ") << '"' << k << "\": \"" << JsonEscape(v)
        << '"';
      first = false;
    }
    j << "}";
    if (!oracle_key.empty()) {
      j << ", \"oracle\": {\"key\": \"" << JsonEscape(oracle_key)
        << "\", \"count\": " << oracle_count << "}";
    }
    j << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      j << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
        << Num(m.value) << ", \"unit\": \"" << m.unit << "\", \"n\": " << m.n
        << "}";
    }
    j << "}}\n";
    return j.str();
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// True when `n` samples leave at least kTailSamples beyond percentile `p`.
bool TailSupported(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= kTailSamples;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mean of a histogram delta given as (samples, sum).
double HistMean(std::pair<std::uint64_t, std::uint64_t> h) {
  return Ratio(static_cast<double>(h.second), static_cast<double>(h.first));
}

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of this process's address space (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries the parent's peak across fork and
/// exec, so it would read run.py's footprint on the small workloads.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MillisSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

Clock::time_point Deadline(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// Steady-clock microseconds, comparable across threads.
std::uint64_t NowEpochUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Graphs

/// An RMAT shape: the generator draws it once from `base_seed`; the run's
/// seed only relabels it (see MakeGraph).
struct GraphShape {
  std::uint32_t vertices;
  std::uint32_t avg_degree;
  double a;
  std::uint64_t base_seed;

  std::string Key() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "rmat(n=%u,deg=%u,a=%.2f,base=%llu)",
                  vertices, avg_degree, a,
                  static_cast<unsigned long long>(base_seed));
    return buf;
  }
};

/// RMAT with ~15% edge oversampling, isolated vertices dropped, as the
/// synthetic datasets are made (graph/datasets.cc); then the surviving
/// vertices are shuffled with `seed` and ≺-reordered. Reordering breaks
/// degree ties by the shuffled id, so the seed moves vertices between
/// pages while every embedding count stays that of the shape.
Graph MakeGraph(const GraphShape& shape, std::uint64_t seed) {
  std::uint32_t scale = 1;
  while ((1u << scale) < shape.vertices) ++scale;
  const std::uint64_t edges =
      static_cast<std::uint64_t>(shape.vertices) * shape.avg_degree / 2;
  const double rest = (1.0 - shape.a) / 3.0;
  Graph g = RMat(scale, edges + edges / 7, shape.a, rest, rest,
                 shape.base_seed);
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) keep.push_back(v);
  }
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  for (std::size_t i = keep.size(); i > 1; --i) {
    std::swap(keep[i - 1], keep[rng.Uniform(i)]);
  }
  return ReorderByDegree(InducedSubgraph(g, keep));
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kEnumerate, kService, kEvolve };

struct WorkloadSpec {
  std::string name;
  Kind kind;
  GraphShape shape;
  double buffer_fraction = 0.15;
  std::size_t num_frames = 0;  // 0 = derive from buffer_fraction
  PaperQuery query = PaperQuery::kQ1;  // kEnumerate only
};

WorkloadSpec SpecFor(const Options& o) {
  // Smoke sizes keep every check on but finish in a few seconds.
  const bool s = o.smoke;
  const GraphShape lj{s ? 1500u : 10000u, 12, 0.53, 104};
  if (o.workload == "house-inmem") {
    return {o.workload, Kind::kEnumerate, lj, 1.0, 0, PaperQuery::kQ5};
  }
  if (o.workload == "clique-spill") {
    return {o.workload, Kind::kEnumerate,
            GraphShape{s ? 8000u : 80000u, 12, 0.53, 801}, 0.15, 0,
            PaperQuery::kQ4};
  }
  if (o.workload == "service-short") {
    return {o.workload, Kind::kService, GraphShape{300, 8, 0.55, 300}, 0.15,
            128};
  }
  if (o.workload == "evolve-mixed") {
    return {o.workload, Kind::kEvolve, lj, 1.0, 0};
  }
  Usage("unknown workload '" + o.workload + "'");
}

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double generate = 0;
  double build = 0;
  double open = 0;
  double runtime = 0;
  double serve = 0;  // QueryService::Start + connects + subscription
  double total = 0;
};

/// Everything one set-up produces. Members are destroyed in reverse order:
/// clients close before the service drains, the service stops before the
/// runtime it serves, the runtime before the database.
struct Deployment {
  Graph graph;
  std::string db_path;
  std::unique_ptr<DiskGraph> disk;
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<service::QueryService> service;
  /// Service connections: readers/clients first; for evolve-mixed the
  /// last two are the updater and the subscriber.
  std::vector<std::unique_ptr<service::QueryClient>> clients;
  std::uint64_t subscription_initial = 0;

  ~Deployment() {
    clients.clear();
    service.reset();
    runtime.reset();
    disk.reset();
    std::error_code ec;
    std::filesystem::remove(db_path, ec);
    std::filesystem::remove(db_path + ".meta", ec);
  }
};

constexpr int kServiceConnections = 4;
constexpr int kEvolveReaders = 2;

std::unique_ptr<service::QueryClient> Connect(std::uint16_t port) {
  auto client = std::make_unique<service::QueryClient>();
  Status s = client->Connect("127.0.0.1", port);
  DS_CHECK(s.ok()) << s.ToString();
  return client;
}

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec,
                                  const Options& o, Tracer* tracer,
                                  SetupTimes* times) {
  auto d = std::make_unique<Deployment>();
  const auto t0 = Clock::now();
  ScopedSpan root(tracer, "setup", "bench");
  {
    ScopedSpan span(tracer, "graph.generate", "graph", root.id(),
                    root.request());
    const auto t = Clock::now();
    d->graph = MakeGraph(spec.shape, o.seed);
    times->generate = SecondsSince(t);
  }
  d->db_path = (std::filesystem::path(o.workdir) / (spec.name + ".db"))
                   .string();
  {
    ScopedSpan span(tracer, "BuildDiskGraph", "storage", root.id(),
                    root.request());
    const auto t = Clock::now();
    Status s = BuildDiskGraph(d->graph, d->db_path,
                              bench::PageSizeFor(d->graph),
                              /*require_single_page=*/true);
    DS_CHECK(s.ok()) << s.ToString();
    times->build = SecondsSince(t);
  }
  {
    ScopedSpan span(tracer, "DiskGraph::Open", "storage", root.id(),
                    root.request());
    const auto t = Clock::now();
    auto disk = DiskGraph::Open(d->db_path, /*bypass_os_cache=*/false);
    DS_CHECK(disk.ok()) << disk.status().ToString();
    d->disk = std::move(*disk);
    times->open = SecondsSince(t);
  }
  {
    ScopedSpan span(tracer, "Runtime", "runtime", root.id(), root.request());
    const auto t = Clock::now();
    RuntimeOptions ropt;
    ropt.num_threads = 4;
    ropt.buffer_fraction = spec.buffer_fraction;
    ropt.num_frames = spec.num_frames;
    d->runtime = std::make_unique<Runtime>(d->disk.get(), ropt);
    DS_CHECK(d->runtime->init_status().ok())
        << d->runtime->init_status().ToString();
    times->runtime = SecondsSince(t);
  }
  if (spec.kind != Kind::kEnumerate) {
    const auto t = Clock::now();
    {
      ScopedSpan span(tracer, "QueryService::Start", "service", root.id(),
                      root.request());
      service::ServiceOptions sopt;
      sopt.num_workers = 2;
      sopt.session_max_frames = 64;
      d->service =
          std::make_unique<service::QueryService>(d->runtime.get(), sopt);
      Status s = d->service->Start();
      DS_CHECK(s.ok()) << s.ToString();
    }
    const int connections = spec.kind == Kind::kService
                                ? kServiceConnections
                                : kEvolveReaders + 2;
    for (int c = 0; c < connections; ++c) {
      ScopedSpan span(tracer, "QueryClient::Connect", "service", root.id(),
                      root.request());
      d->clients.push_back(Connect(d->service->port()));
    }
    if (spec.kind == Kind::kEvolve) {
      ScopedSpan span(tracer, "QueryClient::Subscribe", "service", root.id(),
                      root.request());
      auto sub = d->clients.back()->Subscribe("triangle");
      DS_CHECK(sub.ok()) << sub.status().ToString();
      d->subscription_initial = sub->initial_count;
    }
    times->serve = SecondsSince(t);
  }
  times->total = SecondsSince(t0);
  return d;
}

/// Sets the workload up until `budget` seconds of set-up time are spent
/// (at least `min_reps`, at most kMaxSetupReps times), appending each
/// set-up's times to `setups`; returns the last deployment.
std::unique_ptr<Deployment> SetUpRepeatedly(const WorkloadSpec& spec,
                                            const Options& o, double budget,
                                            int min_reps,
                                            std::vector<SetupTimes>* setups) {
  std::unique_ptr<Deployment> d;
  double spent = 0;
  for (std::size_t rep = 0;
       static_cast<int>(rep) < min_reps ||
       (spent < budget && rep < kMaxSetupReps);
       ++rep) {
    d.reset();
    SetupTimes t;
    d = SetUp(spec, o, nullptr, &t);
    setups->push_back(t);
    spent += t.total;
  }
  return d;
}

/// What one timed phase measured.
struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> query_ms;   // client-observed one-shot latency
  std::vector<double> update_ms;  // UPDATE sent -> UPDATE_ACK received
  std::vector<double> submit_us;  // SUBMIT -> ACCEPTED
  std::vector<double> delta_lag_ms;
  std::vector<double> prepare_ms;  // EngineStats::prepare_millis
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t embeddings = 0;  // summed over completed queries
  std::uint64_t streamed = 0;    // embeddings streamed to clients
  std::uint64_t diff_rows = 0;   // subscriber: added + retracted rows
  double predicted_reads = 0;    // Eq. 1, summed over completed queries
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;

  std::uint64_t Queries() const { return query_ms.size(); }
  std::uint64_t Updates() const { return update_ms.size(); }
  std::uint64_t Counter(const std::string& name) const {
    return after.counter(name) - std::min(after.counter(name),
                                          before.counter(name));
  }
  std::pair<std::uint64_t, std::uint64_t> Hist(const std::string& name) const {
    const auto a = after.histogram(name);
    const auto b = before.histogram(name);
    return {a.count - std::min(a.count, b.count),
            a.sum - std::min(a.sum, b.sum)};
  }
};

/// Eq. 1's predicted page reads for one run of `q` on `disk` with `frames`
/// buffer frames.
double PredictedReads(const DiskGraph& disk, const QueryGraph& q,
                      std::size_t frames) {
  auto plan = PreparePlan(q);
  DS_CHECK(plan.ok()) << plan.status().ToString();
  return PredictPageReads(MakeCostInputs(disk, *plan, frames));
}

/// Runs `body` between two metric snapshots and CPU/wall readings.
template <typename Body>
Phase Measure(Body body) {
  Phase p;
  p.before = obs::Metrics().Snapshot();
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  body(&p, t0);
  p.wall_s = SecondsSince(t0);
  p.cpu_s = CpuSeconds() - cpu0;
  p.after = obs::Metrics().Snapshot();
  return p;
}

// --- house-inmem / clique-spill: QuerySession::Run in a closed loop -------

Phase RunEnumeration(Deployment& d, const QueryGraph& q,
                     std::uint64_t expected, double predicted, double seconds,
                     Tracer* tracer, Checks* checks) {
  obs::TraceContext ctx("bench_e2e", 1 << 16);
  SessionOptions sopt;
  sopt.trace = tracer != nullptr ? &ctx : nullptr;
  QuerySession session(d.runtime.get(), sopt);
  const std::uint64_t offset_us =
      tracer != nullptr ? tracer->NowUs() - ctx.NowMicros() : 0;
  std::size_t imported = 0;
  return Measure([&](Phase* p, Clock::time_point t0) {
    const auto deadline = Deadline(t0, seconds);
    while (Clock::now() < deadline) {
      ++p->attempted;
      ScopedSpan root(tracer, "query", "bench");
      const auto t = Clock::now();
      StatusOr<EngineStats> stats = [&] {
        ScopedSpan span(tracer, "QuerySession::Run", "runtime", root.id(),
                        root.request());
        auto r = session.Run(q);
        if (tracer != nullptr) {
          ImportSessionSpans(ctx, offset_us, span.id(), root.request(),
                             &imported, tracer);
        }
        return r;
      }();
      const double ms = MillisSince(t);
      if (!stats.ok()) {
        ++p->failed;
        continue;
      }
      checks->Expect(stats->embeddings == expected,
                     "query returned " + std::to_string(stats->embeddings) +
                         " embeddings, reference " + std::to_string(expected));
      p->query_ms.push_back(ms);
      p->prepare_ms.push_back(stats->prepare_millis);
      p->embeddings += stats->embeddings;
      p->predicted_reads += predicted;
    }
  });
}

// --- service-short: 4 connections of short mixed queries -----------------

struct ServiceQuery {
  std::string text;
  std::uint64_t expected = 0;
  double predicted_reads = 0;
};

/// One request on `client`; returns false when it failed or was refused.
bool ServeOne(service::QueryClient& client, const ServiceQuery& sq,
              bool stream, Tracer* tracer, Phase* p, Checks* checks) {
  ++p->attempted;
  ScopedSpan root(tracer, "query", "bench");
  const auto t = Clock::now();
  service::ClientRequest req;
  req.query = sq.text;
  req.stream_embeddings = stream;
  req.max_embeddings = stream ? kStreamCap : 0;
  {
    ScopedSpan span(tracer, "QueryClient::Submit", "service", root.id(),
                    root.request());
    const auto ts = Clock::now();
    Status s = client.Submit(req);
    p->submit_us.push_back(SecondsSince(ts) * 1e6);
    if (!s.ok()) {
      ++p->failed;
      return false;
    }
  }
  StatusOr<service::ClientResult> result = [&] {
    ScopedSpan span(tracer, "QueryClient::Await", "service", root.id(),
                    root.request());
    return client.Await();
  }();
  const double ms = MillisSince(t);
  if (!result.ok() || result->code != service::WireCode::kOk) {
    ++p->failed;
    return false;
  }
  checks->Expect(result->embeddings == sq.expected,
                 sq.text + " returned " + std::to_string(result->embeddings) +
                     ", reference " + std::to_string(sq.expected));
  if (stream) {
    const std::uint64_t want = std::min<std::uint64_t>(sq.expected, kStreamCap);
    checks->Expect(result->streamed_embeddings == want,
                   sq.text + " streamed " +
                       std::to_string(result->streamed_embeddings) +
                       " embeddings, want " + std::to_string(want));
  }
  p->query_ms.push_back(ms);
  p->embeddings += result->embeddings;
  p->streamed += result->streamed_embeddings;
  p->predicted_reads += sq.predicted_reads;
  return true;
}

/// Merges per-thread phases into `into` (samples and tallies only).
void Merge(const Phase& from, Phase* into) {
  auto append = [](const std::vector<double>& a, std::vector<double>* b) {
    b->insert(b->end(), a.begin(), a.end());
  };
  append(from.query_ms, &into->query_ms);
  append(from.update_ms, &into->update_ms);
  append(from.submit_us, &into->submit_us);
  append(from.delta_lag_ms, &into->delta_lag_ms);
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->embeddings += from.embeddings;
  into->streamed += from.streamed;
  into->diff_rows += from.diff_rows;
  into->predicted_reads += from.predicted_reads;
}

Phase RunServiceShort(Deployment& d, const std::vector<ServiceQuery>& queries,
                      std::uint64_t seed, std::uint64_t phase_index,
                      double seconds, Tracer* tracer, Checks* checks) {
  return Measure([&](Phase* p, Clock::time_point t0) {
    const auto deadline = Deadline(t0, seconds);
    std::vector<Phase> per(d.clients.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < d.clients.size(); ++c) {
      threads.emplace_back([&, c] {
        Random rng(seed * 1000003 + phase_index * 101 + c);
        for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
          const ServiceQuery& sq = queries[rng.Uniform(queries.size())];
          ServeOne(*d.clients[c], sq, i % 4 == 3, tracer, &per[c], checks);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const Phase& x : per) Merge(x, p);
  });
}

// --- evolve-mixed: subscriber + updater + readers -------------------------

/// In-memory mirror of the served graph with every applied delta, from
/// which the updater draws valid flips and the final check counts.
class ShadowGraph {
 public:
  explicit ShadowGraph(const Graph& g) : adj_(g.NumVertices()) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      const auto n = g.Neighbors(v);
      adj_[v].assign(n.begin(), n.end());
    }
  }
  std::uint32_t NumVertices() const {
    return static_cast<std::uint32_t>(adj_.size());
  }
  const std::vector<VertexId>& Neighbors(VertexId v) const { return adj_[v]; }
  bool Has(VertexId u, VertexId v) const {
    return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
  }
  void Flip(VertexId u, VertexId v) {
    for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
      auto& list = adj_[a];
      auto it = std::lower_bound(list.begin(), list.end(), b);
      if (it != list.end() && *it == b) {
        list.erase(it);
      } else {
        list.insert(it, b);
      }
    }
  }
  Graph ToGraph() const {
    GraphBuilder builder(NumVertices());
    for (VertexId u = 0; u < NumVertices(); ++u) {
      for (VertexId v : adj_[u]) {
        if (u < v) builder.AddEdge(u, v);
      }
    }
    return builder.Build();
  }

 private:
  std::vector<std::vector<VertexId>> adj_;
};

/// One UPDATE batch of kFlipsPerUpdate distinct flips, applied to `shadow`:
/// half add an edge closing a triangle (a 2-hop pick), a quarter add a
/// uniform random edge, a quarter remove an existing edge.
std::vector<incr::EdgeDelta> DrawUpdate(ShadowGraph* shadow, Random* rng) {
  std::vector<incr::EdgeDelta> deltas;
  const std::uint32_t n = shadow->NumVertices();
  while (deltas.size() < kFlipsPerUpdate) {
    const std::uint64_t kind = rng->Uniform(4);
    VertexId u = static_cast<VertexId>(rng->Uniform(n));
    VertexId v = 0;
    const auto& nu = shadow->Neighbors(u);
    if (kind < 2) {
      if (nu.empty()) continue;
      const auto& nw = shadow->Neighbors(nu[rng->Uniform(nu.size())]);
      v = nw[rng->Uniform(nw.size())];
      if (v == u || shadow->Has(u, v)) continue;
    } else if (kind == 2) {
      v = static_cast<VertexId>(rng->Uniform(n));
      if (v == u || shadow->Has(u, v)) continue;
    } else {
      if (nu.empty()) continue;
      v = nu[rng->Uniform(nu.size())];
    }
    if (u > v) std::swap(u, v);
    const bool repeat = std::any_of(
        deltas.begin(), deltas.end(),
        [&](const incr::EdgeDelta& e) { return e.u == u && e.v == v; });
    if (repeat) continue;
    deltas.push_back({kind == 3 ? incr::DeltaOp::kRemoveEdge
                                : incr::DeltaOp::kAddEdge,
                      u, v});
  }
  for (const auto& e : deltas) shadow->Flip(e.u, e.v);
  return deltas;
}

struct EvolveState {
  ShadowGraph shadow;
  Random rng;
  ServiceQuery reader;           // q1 against the base snapshot
  std::uint64_t live_count = 0;  // subscriber's incrementally kept count
};

/// One closed-loop UPDATE; returns the acked sequence (0 on failure).
std::uint64_t UpdateOne(service::QueryClient& client, EvolveState* st,
                        Tracer* tracer, Phase* p, std::uint64_t* send_us) {
  ++p->attempted;
  const auto deltas = DrawUpdate(&st->shadow, &st->rng);
  ScopedSpan root(tracer, "update", "bench");
  const auto t = Clock::now();
  *send_us = NowEpochUs();
  StatusOr<service::UpdateAck> ack = [&] {
    ScopedSpan span(tracer, "QueryClient::Update", "service", root.id(),
                    root.request());
    return client.Update(deltas);
  }();
  if (!ack.ok() || ack->applied != deltas.size()) {
    ++p->failed;
    return 0;
  }
  p->update_ms.push_back(MillisSince(t));
  return ack->sequence;
}

Phase RunEvolveMixed(Deployment& d, EvolveState* st, double seconds,
                     Tracer* tracer, Checks* checks) {
  service::QueryClient& updater = *d.clients[kEvolveReaders];
  service::QueryClient& subscriber = *d.clients[kEvolveReaders + 1];
  return Measure([&](Phase* p, Clock::time_point t0) {
    const auto deadline = Deadline(t0, seconds);
    std::atomic<bool> updater_done{false};
    std::atomic<std::uint64_t> acked{0};     // updates acknowledged
    std::atomic<std::uint64_t> received{0};  // DELTA chains consumed
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sent;  // seq, us
    std::vector<std::pair<std::uint64_t, std::uint64_t>> recv;  // seq, us
    std::vector<Phase> per(kEvolveReaders + 2);

    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // subscriber: one DELTA chain per update
      Phase& mine = per[kEvolveReaders + 1];
      for (;;) {
        ScopedSpan span(tracer, "QueryClient::NextEvent", "service");
        auto event = subscriber.NextEvent();
        if (!event.ok()) return;  // Abort() below: every chain consumed
        if (event->ended) {
          checks->Expect(false, "subscription ended: " + event->end_message);
          return;
        }
        recv.emplace_back(event->sequence, NowEpochUs());
        const std::size_t arity = std::max<std::size_t>(event->arity, 1);
        st->live_count += event->added.size() / arity;
        st->live_count -= event->retracted.size() / arity;
        mine.diff_rows += (event->added.size() + event->retracted.size()) /
                          arity;
        received.fetch_add(1, std::memory_order_release);
      }
    });
    threads.emplace_back([&] {  // updater: closed-loop UPDATE batches
      Phase& mine = per[kEvolveReaders];
      while (Clock::now() < deadline) {
        std::uint64_t send_us = 0;
        const std::uint64_t seq =
            UpdateOne(updater, st, tracer, &mine, &send_us);
        if (seq == 0) break;  // a failed update leaves no DELTA to wait for
        sent.emplace_back(seq, send_us);
        acked.fetch_add(1, std::memory_order_release);
      }
      updater_done.store(true, std::memory_order_release);
    });
    for (int r = 0; r < kEvolveReaders; ++r) {
      threads.emplace_back([&, r] {  // readers: q1 until the updater ends
        while (!updater_done.load(std::memory_order_acquire)) {
          ServeOne(*d.clients[r], st->reader, false, tracer, &per[r],
                   checks);
        }
      });
    }
    // The ACK follows every subscriber's DELTA chain, so once the updater
    // is done the subscriber has exactly `acked` chains to read.
    while (!updater_done.load(std::memory_order_acquire) ||
           received.load(std::memory_order_acquire) <
               acked.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    subscriber.Abort();
    for (auto& t : threads) t.join();
    for (const Phase& x : per) Merge(x, p);

    std::map<std::uint64_t, std::uint64_t> recv_at(recv.begin(), recv.end());
    for (const auto& [seq, us] : sent) {
      auto it = recv_at.find(seq);
      if (it != recv_at.end() && it->second >= us) {
        p->delta_lag_ms.push_back(static_cast<double>(it->second - us) / 1e3);
      }
    }
    checks->Expect(recv.size() == sent.size(),
                   "subscriber saw " + std::to_string(recv.size()) +
                       " DELTA chains for " + std::to_string(sent.size()) +
                       " updates");
  });
}

// ---------------------------------------------------------------------------
// Reference counts

/// Pinned count for `key` from the expected-counts file, 0 when absent. The
/// file is JSON written by run.py; the key is looked up textually.
std::uint64_t PinnedCount(const std::string& path, const std::string& key) {
  if (path.empty()) return 0;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t at = text.find('"' + key + '"');
  if (at == std::string::npos) return 0;
  const std::size_t colon = text.find(':', at + key.size() + 2);
  if (colon == std::string::npos) return 0;
  return std::strtoull(text.c_str() + colon + 1, nullptr, 10);
}

// ---------------------------------------------------------------------------
// Metrics

void AddSetupMetrics(const std::vector<SetupTimes>& reps, Report* r) {
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : reps) v.push_back(t.*field);
    return Percentile(v, 0.5);
  };
  const auto n = reps.size();
  r->Add("setup_s", median(&SetupTimes::total), "s", n);
  r->Add("graph.generate_s", median(&SetupTimes::generate), "s", n);
  r->Add("storage.build_s", median(&SetupTimes::build), "s", n);
  r->Add("storage.open_s", median(&SetupTimes::open), "s", n);
  r->Add("runtime.construct_s", median(&SetupTimes::runtime), "s", n);
  r->Add("service.setup_s", median(&SetupTimes::serve), "s", n);
}

/// `<op>_p90_ms` and `<op>_p99_ms`, each only when at least kTailSamples
/// samples lie beyond it (with a note for each one omitted). Reporting p90
/// whenever it can be keeps it in every run of a workload whose sample
/// count sits near what p99 needs.
void AddTail(const std::string& op, const std::vector<double>& ms,
             Report* r) {
  for (const auto& [p, suffix] : {std::pair{0.90, "_p90_ms"},
                                  std::pair{0.99, "_p99_ms"}}) {
    if (TailSupported(ms.size(), p)) {
      r->Add(op + suffix, Percentile(ms, p), "ms", ms.size());
    } else {
      r->Note(op + suffix + " omitted: " + std::to_string(ms.size()) +
              " samples leave fewer than 10 beyond it");
    }
  }
}

/// End-to-end metrics of the (untraced) phase `e`.
void AddEndToEnd(const WorkloadSpec& spec, const Phase& e, Report* r) {
  const auto nq = e.Queries();
  r->Add("query_p50_ms", Percentile(e.query_ms, 0.5), "ms", nq);
  r->Add("queries_per_s", Ratio(static_cast<double>(nq), e.wall_s), "1/s",
         nq);
  r->Add("error_rate",
         Ratio(static_cast<double>(e.failed), static_cast<double>(e.attempted)),
         "fraction", e.attempted);
  if (spec.kind != Kind::kEnumerate) AddTail("query", e.query_ms, r);
  if (spec.kind == Kind::kEvolve) {
    const auto nu = e.Updates();
    r->Add("update_p50_ms", Percentile(e.update_ms, 0.5), "ms", nu);
    AddTail("update", e.update_ms, r);
    r->Add("updates_per_s", Ratio(static_cast<double>(nu), e.wall_s), "1/s",
           nu);
  }
}

/// Per-layer metrics of phase `p` (the traced phase under --trace).
void AddPerLayer(const WorkloadSpec& spec, const Phase& p,
                 const Phase& untraced, const SelfTimes* self, Report* r) {
  const double nq = static_cast<double>(p.Queries());
  const double nu = static_cast<double>(p.Updates());
  const double ops = nq + nu;
  const auto n_ops = static_cast<std::uint64_t>(ops);
  const auto n_q = p.Queries();
  auto count = [&](const std::string& name) {
    return static_cast<double>(p.Counter(name));
  };

  // storage: the buffer pool is shared by queries and updates, so its
  // counters are per operation.
  const double misses = count("bufferpool.misses");
  const double hits = count("bufferpool.hits");
  r->Add("storage.physical_reads_per_op", Ratio(misses, ops), "count", n_ops);
  r->Add("storage.hit_ratio", Ratio(hits, hits + misses), "ratio", n_ops);
  r->Add("storage.evictions_per_op", Ratio(count("bufferpool.evictions"), ops),
         "count", n_ops);
  const std::string backend = p.after.label("io.backend");
  const auto wait = p.Hist("io." + backend + ".submit_to_complete_us");
  r->Add("storage.read_wait_ms_per_op",
         Ratio(static_cast<double>(wait.second) / 1e3, ops), "ms", n_ops);
  r->Add("storage.reads_vs_eq1", Ratio(misses, p.predicted_reads), "ratio",
         n_q);
  r->Add("storage.read_retries", count("bufferpool.retries"), "count", n_ops);

  // core: one-shot queries only (updates run the incr pass).
  const auto pages = p.Hist("scheduler.window_pages");
  r->Add("core.windows_per_query", Ratio(count("scheduler.windows"), nq),
         "count", n_q);
  r->Add("core.degraded_windows_per_query",
         Ratio(count("scheduler.windows_degraded"), nq), "count", n_q);
  r->Add("core.pages_per_window", HistMean(pages), "count", pages.first);
  const double calls = count("intersect.calls");
  r->Add("core.intersect_calls_per_query", Ratio(calls, nq), "count", n_q);
  for (const char* k : {"scalar", "galloping", "avx2", "bitmap"}) {
    r->Add(std::string("core.intersect_share.") + k,
           Ratio(count(std::string("intersect.") + k + ".calls"), calls),
           "ratio", static_cast<std::uint64_t>(calls));
  }
  const auto sel = p.Hist("intersect.selectivity_pct");
  r->Add("core.intersect_selectivity_pct", HistMean(sel), "%", sel.first);
  r->Add("core.red_assignments_per_query",
         Ratio(count("match.red_assignments"), nq), "count", n_q);
  r->Add("core.vgroup_expansions_per_query",
         Ratio(count("match.vgroup_expansions"), nq), "count", n_q);
  r->Add("core.embeddings_per_query",
         Ratio(static_cast<double>(p.embeddings), nq), "count", n_q);

  // runtime
  const double cache_hits = count("plancache.hits");
  const double cache_misses = count("plancache.misses");
  r->Add("runtime.plan_cache_hit_ratio",
         Ratio(cache_hits, cache_hits + cache_misses), "ratio", n_q);
  r->Add("runtime.admission_waits_per_query",
         Ratio(count("runtime.admission_waits"), nq), "count", n_q);
  const auto admission = p.Hist("runtime.admission_wait_us");
  r->Add("runtime.admission_wait_ms_per_query",
         Ratio(static_cast<double>(admission.second) / 1e3, nq), "ms", n_q);
  if (!p.prepare_ms.empty()) {
    r->Add("runtime.prepare_ms", Mean(p.prepare_ms), "ms",
           p.prepare_ms.size());
  }

  // service
  r->Add("service.embeddings_streamed_per_query",
         Ratio(static_cast<double>(p.streamed), nq), "count", n_q);
  r->Add("service.rejected",
         count("service.requests_rejected_overload") +
             count("service.requests_rejected_draining") +
             count("service.requests_rejected_invalid"),
         "count", n_q);
  if (spec.kind != Kind::kEnumerate) {
    r->Add("service.submit_us_p50", Percentile(p.submit_us, 0.5), "us",
           p.submit_us.size());
    const auto served = p.Hist("service.request_latency_us");
    r->Add("service.wire_overhead_ms",
           Mean(p.query_ms) - HistMean(served) / 1e3, "ms", served.first);
    const auto queued = p.Hist("service.queue_wait_us");
    r->Add("service.queue_wait_ms_mean", HistMean(queued) / 1e3, "ms",
           queued.first);
  }

  // incr: zero where nothing is updated.
  const double rerun = count("incr.windows_rerun");
  const double skipped = count("incr.windows_skipped");
  const auto n_u = p.Updates();
  r->Add("incr.dirty_pages_per_update", Ratio(count("incr.dirty_pages"), nu),
         "count", n_u);
  r->Add("incr.windows_rerun_per_update", Ratio(rerun, nu), "count", n_u);
  r->Add("incr.window_skip_ratio", Ratio(skipped, rerun + skipped), "ratio",
         n_u);
  r->Add("incr.pass_pages_read_per_update",
         Ratio(count("incr.pass_pages_read"), nu), "count", n_u);
  r->Add("incr.apply_pages_read_per_update",
         Ratio(count("incr.apply_pages_read"), nu), "count", n_u);
  r->Add("incr.diff_rows_per_update",
         Ratio(static_cast<double>(p.diff_rows), nu), "count", n_u);
  if (spec.kind == Kind::kEvolve) {
    r->Add("incr.delta_lag_ms_p50", Percentile(p.delta_lag_ms, 0.5), "ms",
           p.delta_lag_ms.size());
  }

  // whole process
  r->Add("process.cpu_util", Ratio(p.cpu_s, p.wall_s * 4), "ratio", n_ops);
  r->Add("process.cpu_ms_per_op", Ratio(p.cpu_s * 1e3, ops), "ms", n_ops);

  if (self == nullptr) return;
  const double traced_p50 = Percentile(p.query_ms, 0.5);
  const double untraced_p50 = Percentile(untraced.query_ms, 0.5);
  r->Add("trace.overhead_pct",
         100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50), "%", n_q);
  for (const auto& [layer, ms] : self->layer_ms) {
    r->Add("trace.self_ms_per_op." + layer, Ratio(ms, ops), "ms", n_ops);
  }
  if (spec.kind == Kind::kEnumerate) {
    // Spans the session records itself: execute is core; run, prepare and
    // admit (plus the bench's span around Run) are the runtime's share.
    const auto execute = self->name_ms.find("scheduler.execute");
    const auto runtime = self->layer_ms.find("runtime");
    r->Add("core.execute_ms",
           execute == self->name_ms.end() ? 0.0 : Ratio(execute->second, nq),
           "ms", n_q);
    r->Add("runtime.session_self_ms",
           runtime == self->layer_ms.end() ? 0.0 : Ratio(runtime->second, nq),
           "ms", n_q);
  }
}

// ---------------------------------------------------------------------------
// Trace file

void WriteTrace(const std::string& path, const Options& o,
                const std::vector<Tracer::Span>& spans, std::uint64_t dropped,
                const SelfTimes& self, const Phase& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"dropped\": %llu,\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               static_cast<unsigned long long>(dropped));
  std::fprintf(f, " \"root_ms\": %s, \"roots\": %llu, \"roots_off\": %llu",
               Num(self.root_ms).c_str(),
               static_cast<unsigned long long>(self.roots),
               static_cast<unsigned long long>(self.roots_off));
  bool first = true;
  for (const auto* layers : {&self.layer_ms, &self.other_ms}) {
    std::fprintf(f, ",\n \"%s\": {",
                 layers == &self.layer_ms ? "layer_self_ms" : "other_self_ms");
    first = true;
    for (const auto& [layer, ms] : *layers) {
      std::fprintf(f, "%s\"%s\": %s", first ? "" : ", ", layer.c_str(),
                   Num(ms).c_str());
      first = false;
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, ",\n \"counter_deltas\": {");
  first = true;
  for (const auto& [name, value] : traced.after.counters) {
    const std::uint64_t delta = traced.Counter(name);
    if (delta == 0) continue;
    std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                 static_cast<unsigned long long>(delta));
    first = false;
  }
  std::fprintf(f, "},\n \"histogram_deltas\": {");
  first = true;
  for (const auto& [name, value] : traced.after.histograms) {
    const auto [count, sum] = traced.Hist(name);
    if (count == 0) continue;
    std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"sum\": %llu}",
                 first ? "" : ", ", name.c_str(),
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(sum));
    first = false;
  }
  std::fprintf(f, "},\n \"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"layer\": \"%s\", \"start_us\": %llu, "
                 "\"end_us\": %llu}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.layer,
                 static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.end_us),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Main

/// Aborts the process when the workload overruns kWatchdogSeconds.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "bench_e2e: workload ran past %d s; abort\n",
                         kWatchdogSeconds);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: it uses the members above
};

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  RefusePinnedEnvironment();
  const WorkloadSpec spec = SpecFor(o);
  Watchdog watchdog;
  std::filesystem::create_directories(o.workdir);

  Tracer tracer;
  Tracer* traced = o.trace ? &tracer : nullptr;
  Checks checks;
  Report report;

  // Set-up time is sampled in two halves, before and after the timed
  // phases, so one burst of load on the host cannot move every sample. The
  // last set-up before the phases serves them; only it is traced.
  const double half_budget = o.smoke ? 0 : kSetupBudgetSeconds / 2;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d =
      SetUpRepeatedly(spec, o, half_budget, o.smoke ? 1 : kMinSetupReps,
                      &setups);
  if (traced != nullptr) {
    d.reset();
    SetupTimes unused;
    d = SetUp(spec, o, traced, &unused);
  }
  const DiskGraph& disk = *d->disk;
  std::printf("%s: seed %llu, %u vertices, %llu edges, %llu pages, %zu "
              "frames\n",
              spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              d->graph.NumVertices(),
              static_cast<unsigned long long>(d->graph.NumEdges()),
              static_cast<unsigned long long>(disk.num_pages()),
              d->runtime->num_frames());

  // References and warm-up per workload kind; run_phase(i) runs timed phase
  // i. Phase 0 is untraced; under --trace phase 1 repeats it traced.
  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  std::string oracle_key;
  std::uint64_t oracle_count = 0;
  std::function<Phase(int)> run_phase;
  std::function<void()> final_check;
  if (spec.kind == Kind::kEnumerate) {
    const QueryGraph q = MakePaperQuery(spec.query);
    std::uint64_t expected = 0;
    if (spec.query == PaperQuery::kQ4) {
      expected = ChibaNishizekiFourCliques(d->graph);
    } else {
      oracle_key = std::string(PaperQueryName(spec.query)) + " on " +
                   spec.shape.Key();
      expected = o.oracle ? 0 : PinnedCount(o.expected_path, oracle_key);
      if (expected == 0) {
        std::printf("running the brute-force oracle for %s\n",
                    oracle_key.c_str());
        expected = CountOccurrences(d->graph, q);
        oracle_count = expected;
      } else {
        oracle_key.clear();
      }
    }
    const double predicted =
        PredictedReads(disk, q, d->runtime->num_frames());
    QuerySession warm(d->runtime.get());
    auto w = warm.Run(q);
    DS_CHECK(w.ok()) << w.status().ToString();
    checks.Expect(w->embeddings == expected,
                  "warm-up returned " + std::to_string(w->embeddings) +
                      ", reference " + std::to_string(expected));
    run_phase = [&, q, expected, predicted](int i) {
      return RunEnumeration(*d, q, expected, predicted, phase_s,
                            i > 0 ? traced : nullptr, &checks);
    };
  } else if (spec.kind == Kind::kService) {
    std::vector<ServiceQuery> queries;
    for (const char* text : {"q1", "q3", "q4", "path3"}) {
      auto q = ParseQuery(text);
      DS_CHECK(q.ok()) << q.status().ToString();
      queries.push_back({text, CountOccurrences(d->graph, *q),
                         PredictedReads(disk, *q, 64)});
    }
    Phase warm;
    for (auto& client : d->clients) {
      ServeOne(*client, queries[0], false, nullptr, &warm, &checks);
    }
    run_phase = [&, queries](int i) {
      return RunServiceShort(*d, queries, o.seed, i, phase_s,
                             i > 0 ? traced : nullptr, &checks);
    };
  } else {
    const std::uint64_t triangles = ChibaNishizekiTriangles(d->graph);
    auto st = std::make_shared<EvolveState>(EvolveState{
        ShadowGraph(d->graph), Random(o.seed * 7919 + 3),
        {"q1", triangles, PredictedReads(disk, MakeTriangleQuery(), 64)},
        d->subscription_initial});
    checks.Expect(st->live_count == triangles,
                  "subscription initial count " +
                      std::to_string(st->live_count) + ", reference " +
                      std::to_string(triangles));
    Phase warm;
    std::uint64_t unused = 0;
    ServeOne(*d->clients[0], st->reader, false, nullptr, &warm, &checks);
    // The warm-up update's DELTA chain is read here, before timing starts.
    if (UpdateOne(*d->clients[kEvolveReaders], st.get(), nullptr, &warm,
                  &unused) != 0) {
      auto event = d->clients.back()->NextEvent();
      DS_CHECK(event.ok() && !event->ended && event->arity == 3)
          << event.status().ToString();
      st->live_count += event->added.size() / 3;
      st->live_count -= event->retracted.size() / 3;
    }
    run_phase = [&, st](int i) {
      if (i > 0) {
        // Abort() closed the last subscriber; register a fresh one, whose
        // initial count must already match the shadow graph.
        d->clients.back() = Connect(d->service->port());
        auto sub = d->clients.back()->Subscribe("triangle");
        DS_CHECK(sub.ok()) << sub.status().ToString();
        st->live_count = sub->initial_count;
        const std::uint64_t want =
            ChibaNishizekiTriangles(st->shadow.ToGraph());
        checks.Expect(st->live_count == want,
                      "re-subscription initial count " +
                          std::to_string(st->live_count) + ", reference " +
                          std::to_string(want));
      }
      return RunEvolveMixed(*d, st.get(), phase_s, i > 0 ? traced : nullptr,
                            &checks);
    };
    final_check = [&, st] {
      const std::uint64_t want = ChibaNishizekiTriangles(st->shadow.ToGraph());
      checks.Expect(st->live_count == want,
                    "subscriber live count " + std::to_string(st->live_count) +
                        ", shadow graph has " + std::to_string(want));
    };
  }

  std::vector<Phase> phases;
  for (int i = 0; i < (o.trace ? 2 : 1); ++i) phases.push_back(run_phase(i));
  if (final_check) final_check();
  d.reset();
  SetUpRepeatedly(spec, o, half_budget, 0, &setups);

  std::unique_ptr<SelfTimes> self;
  if (traced != nullptr) {
    const auto spans = tracer.spans();
    self = std::make_unique<SelfTimes>(ComputeSelfTimes(spans));
    checks.Expect(self->roots_off == 0,
                  std::to_string(self->roots_off) + " of " +
                      std::to_string(self->roots) +
                      " root spans: layer self times miss the root by >5%");
    if (!o.trace_path.empty()) {
      WriteTrace(o.trace_path, o, spans, tracer.dropped(), *self,
                 phases.back());
    }
  }
  AddSetupMetrics(setups, &report);
  AddEndToEnd(spec, phases.front(), &report);
  AddPerLayer(spec, phases.back(), phases.front(), self.get(), &report);
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  const auto labels = obs::Metrics().Snapshot();
  const std::map<std::string, std::string> env = {
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"build_type", BENCH_E2E_BUILD_TYPE},
      {"git_sha", o.git_sha},
      {"io.backend", labels.label("io.backend")},
      {"intersect.kernel", labels.label("intersect.kernel")},
      {"graph", spec.shape.Key()},
  };
  const std::string json = report.ToJson(o, checks, attempted, failed, env,
                                         oracle_key, oracle_count);
  std::FILE* f = std::fopen(o.json_path.c_str(), "w");
  DS_CHECK(f != nullptr) << "cannot write " << o.json_path;
  std::fputs(json.c_str(), f);
  std::fclose(f);

  for (const auto& m : checks.messages()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());
  }
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dualsim::bench_e2e

int main(int argc, char** argv) {
  return dualsim::bench_e2e::Main(argc, argv);
}
