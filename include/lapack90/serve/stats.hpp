// lapack90/serve/stats.hpp
//
// Serving observability. Every server keeps lock-free counters for each
// pipeline stage (admission, coalescing, execution) plus two latency
// histograms over completed jobs: total latency (submit -> future ready)
// and queue latency (submit -> start of the first batch call carrying one
// of the job's entries). Histograms use power-of-two nanosecond buckets —
// bucket b counts latencies in [2^(b-1), 2^b) ns — which makes them
// mergeable across servers by plain addition and keeps the record path to
// one relaxed fetch_add; percentile estimates interpolate inside the hit
// bucket, which is plenty for p50/p95/p99 reporting (the estimate is
// always within the bucket's 2x bounds of the true order statistic).
//
// `Server::stats()` snapshots one server; `la::serve::stats()` (serve.hpp)
// merges every live server plus the totals of already-destroyed ones.
#pragma once

#include <array>
#include <cstdint>

#include "lapack90/core/types.hpp"

namespace la::serve {

inline constexpr int kLatencyBuckets = 64;

/// Plain-value statistics snapshot. Counters and histograms merge by
/// addition (max latency by max), so fleet-wide views are just merges.
struct Stats {
  std::uint64_t submitted_jobs = 0;
  std::uint64_t submitted_entries = 0;
  std::uint64_t rejected_jobs = 0;    ///< admission-control rejections
  std::uint64_t completed_jobs = 0;
  std::uint64_t completed_entries = 0;
  std::uint64_t failed_entries = 0;   ///< per-entry INFO != 0
  std::uint64_t batches = 0;          ///< batched driver calls (flushes)
  std::uint64_t coalesced_entries = 0;  ///< entries sharing a flush with others
  std::uint64_t flush_full = 0;  ///< flushed at ServeBatchMax width, or solo
  /// Partial flushes: a group below ServeBatchMax flushed because the
  /// queue ran dry. The name is kept because the benchmark reads it.
  std::uint64_t flush_deadline = 0;
  std::uint64_t max_latency_ns = 0;
  std::array<std::uint64_t, kLatencyBuckets> latency_hist{};
  std::array<std::uint64_t, kLatencyBuckets> queue_hist{};

  void merge(const Stats& o) noexcept {
    submitted_jobs += o.submitted_jobs;
    submitted_entries += o.submitted_entries;
    rejected_jobs += o.rejected_jobs;
    completed_jobs += o.completed_jobs;
    completed_entries += o.completed_entries;
    failed_entries += o.failed_entries;
    batches += o.batches;
    coalesced_entries += o.coalesced_entries;
    flush_full += o.flush_full;
    flush_deadline += o.flush_deadline;
    if (o.max_latency_ns > max_latency_ns) {
      max_latency_ns = o.max_latency_ns;
    }
    for (int b = 0; b < kLatencyBuckets; ++b) {
      latency_hist[static_cast<std::size_t>(b)] +=
          o.latency_hist[static_cast<std::size_t>(b)];
      queue_hist[static_cast<std::size_t>(b)] +=
          o.queue_hist[static_cast<std::size_t>(b)];
    }
  }

  /// Quantile estimate (q in [0, 1]) over a histogram, in microseconds.
  /// 0 when the histogram is empty.
  [[nodiscard]] static double quantile_us(
      const std::array<std::uint64_t, kLatencyBuckets>& hist,
      double q) noexcept {
    std::uint64_t total = 0;
    for (const auto c : hist) {
      total += c;
    }
    if (total == 0) {
      return 0.0;
    }
    const double want = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (int b = 0; b < kLatencyBuckets; ++b) {
      const std::uint64_t c = hist[static_cast<std::size_t>(b)];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(seen + c) >= want) {
        // Interpolate inside [lo, hi) = [2^(b-1), 2^b) ns.
        const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
        const double hi = static_cast<double>(
            b >= 63 ? ~0ull : (1ull << b));
        const double frac =
            (want - static_cast<double>(seen)) / static_cast<double>(c);
        return (lo + (hi - lo) * frac) * 1e-3;
      }
      seen += c;
    }
    return static_cast<double>(max_latency_ns_or(hist)) * 1e-3;
  }

  [[nodiscard]] double latency_us(double q) const noexcept {
    // The in-bucket interpolation can overshoot the true tail; the exact
    // max is tracked separately, so clamp to keep p99 <= max.
    const double est = quantile_us(latency_hist, q);
    const double cap = max_us();
    return cap > 0.0 && est > cap ? cap : est;
  }
  [[nodiscard]] double queue_us(double q) const noexcept {
    return quantile_us(queue_hist, q);
  }
  [[nodiscard]] double p50_us() const noexcept { return latency_us(0.50); }
  [[nodiscard]] double p95_us() const noexcept { return latency_us(0.95); }
  [[nodiscard]] double p99_us() const noexcept { return latency_us(0.99); }
  [[nodiscard]] double max_us() const noexcept {
    return static_cast<double>(max_latency_ns) * 1e-3;
  }
  /// Mean entries per batched driver call — the coalescing factor.
  [[nodiscard]] double mean_batch_entries() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed_entries) /
                              static_cast<double>(batches);
  }

 private:
  [[nodiscard]] static std::uint64_t max_latency_ns_or(
      const std::array<std::uint64_t, kLatencyBuckets>& hist) noexcept {
    for (int b = kLatencyBuckets - 1; b >= 0; --b) {
      if (hist[static_cast<std::size_t>(b)] != 0) {
        return b >= 63 ? ~0ull : (1ull << b);
      }
    }
    return 0;
  }
};

}  // namespace la::serve
