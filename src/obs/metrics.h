#ifndef DUALSIM_OBS_METRICS_H_
#define DUALSIM_OBS_METRICS_H_

/// Lock-cheap metrics for the dual-approach engine: monotonic counters,
/// gauges, and histograms with fixed log2 buckets, owned by a process-wide
/// registry and aggregated into a MetricsSnapshot on read.
///
/// Hot-path cost: one relaxed atomic increment on a per-thread shard (no
/// mutex, no CAS loop except the histogram max). Call sites cache the
/// metric pointer in a function-local static, so the registry's string
/// lookup happens once per call site, not per increment.
///
/// The whole layer compiles out under -DDUALSIM_NO_METRICS: the classes
/// keep their shape but lose their storage and every method becomes an
/// inline no-op, so instrumented code builds unchanged with zero cost.
/// Tests that assert on metric values must skip when `kMetricsEnabled`
/// is false (see tests/testkit/metrics_util.h).
///
/// Naming scheme (DESIGN.md §8): dot-separated `component.metric`, all
/// lowercase, e.g. "bufferpool.hits", "scheduler.windows",
/// "runtime.admission_wait_us" (histograms carry their unit as a suffix).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef DUALSIM_NO_METRICS
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#endif

namespace dualsim::obs {

#ifdef DUALSIM_NO_METRICS
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

/// Aggregated point-in-time view of every registered metric. Maps are
/// ordered so the JSON export is deterministic.
struct MetricsSnapshot {
  struct HistogramValue {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    /// Sparse (bucket, count) pairs; bucket b holds values in
    /// [2^(b-1), 2^b) with bucket 0 reserved for the value 0.
    std::vector<std::pair<int, std::uint64_t>> buckets;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramValue> histograms;
  /// Free-form string labels describing configuration rather than counts
  /// (e.g. "io.backend" -> "threadpool"). Last write wins; not reset by
  /// ResetAll since configuration survives a counter reset.
  std::map<std::string, std::string> labels;

  /// Counter value by name; 0 when absent (or when metrics are compiled
  /// out), so delta-based assertions degrade gracefully.
  std::uint64_t counter(std::string_view name) const;

  /// Histogram by name; an all-zero value when absent.
  HistogramValue histogram(std::string_view name) const;

  /// Label value by name; "" when absent.
  std::string label(std::string_view name) const;

  /// Compact single-object JSON: {"metrics_enabled": ..., "labels": {...},
  /// "counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
};

#ifndef DUALSIM_NO_METRICS

namespace internal {

inline constexpr std::size_t kNumShards = 16;
inline constexpr std::size_t kCacheLine = 64;

/// Per-thread shard assignment. The first kNumShards-1 threads each own a
/// shard exclusively: a single writer needs no atomic RMW, so their hot
/// path is a relaxed load + store (a plain add on x86). Later threads all
/// share the last shard and fall back to fetch_add. Slots are not yet
/// recycled on thread exit, so a process that starts more than
/// kNumShards-1 threads over its life (one that builds runtime after
/// runtime, say) puts every later writer on the shared shard: slower,
/// never wrong (ROADMAP item 3 carries the fix).
struct ThreadSlot {
  std::uint32_t shard;
  bool exclusive;
};

inline ThreadSlot AcquireThreadSlot() noexcept {
  static std::atomic<std::uint32_t> next{0};
  const std::uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  if (ordinal < kNumShards - 1) {
    return {ordinal, true};
  }
  return {static_cast<std::uint32_t>(kNumShards - 1), false};
}

inline ThreadSlot Slot() noexcept {
  thread_local const ThreadSlot slot = AcquireThreadSlot();
  return slot;
}

}  // namespace internal

/// Monotonic counter. Increment is a relaxed add on the calling thread's
/// shard (plain load+store for exclusive shard owners, fetch_add on the
/// shared overflow shard); value() sums the shards (reads may be slightly
/// stale under concurrent writers, exact once they quiesce).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(std::uint64_t delta = 1) noexcept {
    const internal::ThreadSlot slot = internal::Slot();
    std::atomic<std::uint64_t>& v = shards_[slot.shard].value;
    if (slot.exclusive) {
      v.store(v.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
    } else {
      v.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() noexcept {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(internal::kCacheLine) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, internal::kNumShards> shards_;
};

/// Last-write-wins gauge (not sharded; gauges are off the hot path).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Histogram with fixed log2 buckets: bucket 0 counts zeros, bucket b
/// counts values in [2^(b-1), 2^b). Per-thread shards keep Record() to a
/// couple of relaxed increments.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  static std::size_t BucketFor(std::uint64_t v) noexcept {
    return v == 0 ? 0
                  : std::min<std::size_t>(kNumBuckets - 1,
                                          std::bit_width(v));
  }

  /// Lower bound of bucket `b` (0 for the zero bucket).
  static std::uint64_t BucketLowerBound(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void Record(std::uint64_t v) noexcept {
    const internal::ThreadSlot slot = internal::Slot();
    Shard& s = shards_[slot.shard];
    if (slot.exclusive) {
      std::atomic<std::uint64_t>& bucket = s.buckets[BucketFor(v)];
      bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
      s.sum.store(s.sum.load(std::memory_order_relaxed) + v,
                  std::memory_order_relaxed);
      if (s.max.load(std::memory_order_relaxed) < v) {
        s.max.store(v, std::memory_order_relaxed);
      }
      return;
    }
    s.buckets[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = s.max.load(std::memory_order_relaxed);
    while (prev < v && !s.max.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
  }

  MetricsSnapshot::HistogramValue value() const;

  void Reset() noexcept {
    for (Shard& s : shards_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      s.max.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(internal::kCacheLine) Shard {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::array<Shard, internal::kNumShards> shards_;
};

/// Process-wide metric registry. Get* registers on first use and returns a
/// stable pointer (metrics are never deallocated; the registry leaks by
/// design to dodge static-destruction order).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Sets a configuration label included in every snapshot (last write
  /// wins). Labels survive ResetAll.
  void SetLabel(std::string_view name, std::string_view value);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (tests / bench warm-up only; prefer
  /// snapshot deltas in code that may run concurrently).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> labels_;
};

#else  // DUALSIM_NO_METRICS: same shape, zero storage, all no-ops.

class Counter {
 public:
  void Increment(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
  void Reset() noexcept {}
};

class Gauge {
 public:
  void Set(std::int64_t) noexcept {}
  void Add(std::int64_t) noexcept {}
  std::int64_t value() const noexcept { return 0; }
  void Reset() noexcept {}
};

class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;
  static std::size_t BucketFor(std::uint64_t v) noexcept {
    return v == 0 ? 0 : 1;  // shape only; unused when compiled out
  }
  static std::uint64_t BucketLowerBound(std::size_t) noexcept { return 0; }
  void Record(std::uint64_t) noexcept {}
  MetricsSnapshot::HistogramValue value() const { return {}; }
  void Reset() noexcept {}
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();
  Counter* GetCounter(std::string_view) { return &counter_; }
  Gauge* GetGauge(std::string_view) { return &gauge_; }
  Histogram* GetHistogram(std::string_view) { return &histogram_; }
  void SetLabel(std::string_view, std::string_view) {}
  MetricsSnapshot Snapshot() const { return {}; }
  void ResetAll() {}

 private:
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

#endif  // DUALSIM_NO_METRICS

/// Shorthand for MetricsRegistry::Global().
MetricsRegistry& Metrics();

/// Writes the global snapshot's JSON to `path` (parent directory must
/// exist). Returns false on I/O failure. Used by the CLI and the bench
/// sidecar helper; kept dependency-free so obs stays at the bottom of the
/// library stack.
bool WriteMetricsJsonFile(const std::string& path);

}  // namespace dualsim::obs

#endif  // DUALSIM_OBS_METRICS_H_
