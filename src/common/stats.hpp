// Streaming statistics used by the simulator's per-resource accounting and
// by the benchmark harness when summarising sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/units.hpp"

namespace nvmooc {

/// Welford-style streaming accumulator: numerically stable mean/variance
/// without storing samples.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1); 0 for n < 2.
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi); samples outside are clamped into
/// the boundary buckets so totals always reconcile.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  /// Linear-interpolated quantile in [0, 1]. An empty histogram yields 0
  /// with a warning (a percentile of nothing is a caller bug, not UB —
  /// check total() first when empty is expected).
  double quantile(double q) const;

  /// One-line text rendering, e.g. for debug dumps.
  std::string to_string() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// One busy interval, [first, second).
using BusyInterval = std::pair<Time, Time>;

/// Accumulates busy time on a resource from possibly-overlapping intervals
/// and reports utilisation over a window. Intervals may arrive out of
/// order; overlapping busy spans are unioned, which is exactly what
/// "channel was busy" means when multiple transactions pipeline on it.
///
/// Memory grows with every interval that does not touch the last one
/// (on PCM nearly one per cell activation). A caller that knows no
/// later interval can start before some time calls settle_before() to
/// fold the intervals behind it into a running total and free them.
class BusyTracker {
 public:
  void add_interval(Time start, Time end);

  /// Folds the busy time before `horizon` into the settled total and
  /// frees those intervals; an interval that straddles the horizon keeps
  /// only its part at or after it. The caller guarantees no later
  /// interval starts before `horizon`. busy_time() is unchanged.
  void settle_before(Time horizon);

  /// Total unioned busy time, settled plus held. Flattens lazily;
  /// amortised O(n log n).
  [[nodiscard]] Time busy_time() const;

  /// busy_time() / window, clamped to [0, 1]. window <= 0 yields 0.
  double utilization(Time window) const;

  /// Sum of raw interval lengths (with overlap double-counted); useful for
  /// measuring demanded service time vs wall occupancy.
  [[nodiscard]] Time raw_time() const { return raw_time_; }

  /// Intervals still held (not yet settled).
  std::size_t interval_count() const { return intervals_.size(); }

  /// Busy intervals charge the host profiler's timeline memory tally:
  /// they are the dominant per-timeline storage on long replays.
  using IntervalStore =
      std::vector<BusyInterval, CountingAllocator<BusyInterval, AllocDomain::kTimeline>>;

  /// Flattened (sorted, disjoint) list of the intervals still held.
  const IntervalStore& intervals() const {
    flatten();
    return intervals_;
  }

 private:
  static constexpr std::size_t kCompactThreshold = 1 << 16;

  void flatten() const;

  mutable IntervalStore intervals_;
  /// Set when an interval lands before the last one, so the list is no
  /// longer sorted; cleared by flatten().
  mutable bool dirty_ = false;
  /// Next size at which add_interval flattens an unsorted list; doubles
  /// when flattening fails to shrink it, keeping insertion amortised
  /// O(log n).
  mutable std::size_t compact_at_ = kCompactThreshold;
  Time raw_time_;
  /// Busy time folded by settle_before().
  Time settled_;
};

/// Unions the sorted, disjoint lists `inputs`, clipped to before
/// `horizon`, into `out` (sorted, coalesced) and returns its busy time.
/// Intervals that merely touch are coalesced.
[[nodiscard]] Time union_runs(std::span<const std::span<const BusyInterval>> inputs,
                              Time horizon, std::vector<BusyInterval>& out);

}  // namespace nvmooc
