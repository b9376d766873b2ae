/// Figure 9: relative elapsed time of DualSim when the buffer shrinks from
/// 25% of the graph size down to 5%, for q1 and q4 on LJ and OK. Paper:
/// nearly flat for q1; about 2.2-2.6x degradation for q4 at 5%.
///
/// Rows land in BENCH_fig9_buffer_size.json for CI artifact upload.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "query/queries.h"

int main() {
  using namespace dualsim;
  using namespace dualsim::bench;

  PrintHeader("Figure 9: varying the buffer size (relative elapsed time)",
              "DUALSIM (SIGMOD'16) Figure 9");

  ScopedDbDir dir;
  BenchJsonWriter json("fig9_buffer_size");
  const std::vector<int> buffers = {5, 10, 15, 20, 25};
  for (DatasetKey key : {DatasetKey::kLiveJournal, DatasetKey::kOrkut}) {
    Graph g = MakeDataset(key, BenchScale());
    auto disk = BuildDb(g, dir, std::string(DatasetCode(key)) + ".db");
    for (PaperQuery pq : {PaperQuery::kQ1, PaperQuery::kQ4}) {
      // Baseline: 25% buffer.
      std::vector<double> seconds;
      std::vector<std::uint64_t> reads;
      for (int buf : buffers) {
        EngineOptions options = PaperDefaults();
        options.buffer_fraction = buf / 100.0;
        DualSimEngine engine(disk.get(), options);
        auto result = engine.Run(MakePaperQuery(pq));
        if (!result.ok()) {
          std::printf("%s %s buf=%d%% FAILED: %s\n", DatasetCode(key),
                      PaperQueryName(pq), buf,
                      result.status().ToString().c_str());
          seconds.push_back(-1);
          reads.push_back(0);
          continue;
        }
        seconds.push_back(result->elapsed_seconds);
        reads.push_back(result->io.physical_reads);
      }
      const double base = seconds.back();
      std::printf("%s %s:", DatasetCode(key), PaperQueryName(pq));
      for (std::size_t i = 0; i < buffers.size(); ++i) {
        std::printf("  %d%%=%.2fx(%s,%llur)", buffers[i],
                    base > 0 ? seconds[i] / base : 0.0,
                    FormatSeconds(seconds[i]).c_str(),
                    static_cast<unsigned long long>(reads[i]));
        json.AddRow()
            .Str("bench", "fig9_buffer_size")
            .Str("dataset", DatasetCode(key))
            .Str("query", PaperQueryName(pq))
            .Int("buffer_pct", buffers[i])
            .Num("seconds", seconds[i])
            .Num("relative", base > 0 ? seconds[i] / base : 0.0)
            .Int("physical_reads", reads[i]);
      }
      std::printf("\n");
    }
  }

  PrintRule();
  std::printf(
      "expected shape: q1 flat (~1x) everywhere; q4 degrades only at the\n"
      "smallest buffer (paper: 2.2-2.6x at 5%%).\n");
  WriteMetricsSidecar("bench_fig9_buffer_size.metrics.json");
  return 0;
}
