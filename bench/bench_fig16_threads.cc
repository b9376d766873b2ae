/// Figure 16 (Appendix B.1): CPU speed-up with 1..6 threads, q1 and q4 on
/// LJ, hot buffer (whole graph cached) so only CPU parallelism is
/// measured. Paper: ~5.5x at 6 threads for both queries.
///
/// Each cell repeats the query for at least 1 s and reports the median
/// per-run time: a single run takes only 15-90 ms here, too short for one
/// timing to show scaling.
///
/// Rows land in BENCH_fig16_threads.json for CI artifact upload.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/queries.h"

int main() {
  using namespace dualsim;
  using namespace dualsim::bench;

  PrintHeader("Figure 16: varying the number of execution threads (LJ)",
              "DUALSIM (SIGMOD'16) Figure 16 / Appendix B.1");
  std::printf("host exposes %u hardware thread(s); wall-clock speed-up is\n"
              "bounded by that (the paper's machine has 6 cores).\n",
              std::thread::hardware_concurrency());

  ScopedDbDir dir;
  Graph g = MakeDataset(DatasetKey::kLiveJournal, BenchScale());
  auto disk = BuildDb(g, dir, "lj.db");

  BenchJsonWriter json("fig16_threads");
  for (PaperQuery pq : {PaperQuery::kQ1, PaperQuery::kQ4}) {
    // Hot run: buffer covers the whole database so reads hit memory.
    double single = -1;
    std::printf("%s:", PaperQueryName(pq));
    for (int threads : {1, 2, 3, 4, 5, 6}) {
      EngineOptions options = PaperDefaults();
      options.buffer_fraction = 1.0;
      options.num_threads = threads;
      DualSimEngine engine(disk.get(), options);
      // Warm the buffer with one run, then time runs until 1 s has passed
      // (at least 3) and take the median.
      (void)engine.Run(MakePaperQuery(pq));
      std::vector<double> runs;
      double total = 0;
      while (total < 1.0 || runs.size() < 3) {
        auto result = engine.Run(MakePaperQuery(pq));
        if (!result.ok()) break;
        runs.push_back(result->elapsed_seconds);
        total += result->elapsed_seconds;
      }
      if (runs.empty()) continue;
      std::nth_element(runs.begin(), runs.begin() + runs.size() / 2,
                       runs.end());
      const double median = runs[runs.size() / 2];
      if (threads == 1) single = median;
      std::printf("  t%d=%s(%.2fx)", threads, FormatSeconds(median).c_str(),
                  single > 0 ? single / median : 0.0);
      json.AddRow()
          .Str("bench", "fig16_threads")
          .Str("query", PaperQueryName(pq))
          .Int("threads", threads)
          .Int("runs", runs.size())
          .Num("seconds", median)
          .Num("speedup", single > 0 ? single / median : 0.0);
    }
    std::printf("\n");
  }
  PrintRule();
  std::printf(
      "expected shape on a multi-core host: near-linear speed-up (paper:\n"
      "5.46x for q1 and 5.53x for q4 at 6 threads). On a single-core host\n"
      "the curve is flat by construction.\n");
  WriteMetricsSidecar("bench_fig16_threads.metrics.json");
  return 0;
}
