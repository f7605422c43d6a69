#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hpp"

namespace nvmooc {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      // Guard the degenerate shapes (0 buckets / inverted range) that
      // would otherwise make add() index out of bounds or divide by an
      // infinite width: fall back to a single all-absorbing bucket.
      width_(buckets > 0 && hi > lo ? (hi - lo) / static_cast<double>(buckets) : 1.0),
      counts_(std::max<std::size_t>(buckets, 1), 0) {
  if (buckets == 0 || hi <= lo) {
    NVMOOC_LOG_WARN("Histogram([%g, %g), %zu buckets) is degenerate; "
                    "clamped to one bucket",
                    lo, hi, buckets);
  }
}

void Histogram::add(double x, std::uint64_t weight) {
  std::size_t index;
  if (x < lo_) {
    index = 0;
  } else if (x >= hi_) {
    index = counts_.size() - 1;
  } else {
    index = static_cast<std::size_t>((x - lo_) / width_);
    index = std::min(index, counts_.size() - 1);
  }
  counts_[index] += weight;
  total_ += weight;
}

double Histogram::bucket_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bucket_hi(std::size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) {
    NVMOOC_LOG_WARN("Histogram::quantile on an empty histogram; returning 0");
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac = counts_[i] ? (target - cumulative) / static_cast<double>(counts_[i]) : 0.0;
      return bucket_lo(i) + frac * width_;
    }
    cumulative = next;
  }
  return hi_;
}

std::string Histogram::to_string() const {
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), "[%.3g,%.3g)=%llu ", bucket_lo(i), bucket_hi(i),
                  static_cast<unsigned long long>(counts_[i]));
    out += buf;
  }
  if (!out.empty()) out.pop_back();
  return out;
}

void BusyTracker::add_interval(Time start, Time end) {
  if (end <= start) return;
  raw_time_ += end - start;
  // Fast path: back-to-back or overlapping appends extend the last
  // interval in place — the common case for a busy resource — keeping
  // memory proportional to the number of idle gaps, not reservations.
  // Extending the last entry is a union whether or not the list is
  // sorted, so it also applies after an out-of-order insert.
  if (!intervals_.empty() && start >= intervals_.back().first &&
      start <= intervals_.back().second) {
    intervals_.back().second = std::max(intervals_.back().second, end);
    return;
  }
  if (!intervals_.empty() && start < intervals_.back().first) dirty_ = true;
  intervals_.emplace_back(start, end);
  // Periodic compaction bounds memory on long replays.
  if (intervals_.size() >= compact_at_) {
    flatten();
    compact_at_ = std::max(kCompactThreshold, intervals_.size() * 2);
  }
}

void BusyTracker::flatten() const {
  if (!dirty_) return;
  std::sort(intervals_.begin(), intervals_.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    if (out > 0 && intervals_[i].first <= intervals_[out - 1].second) {
      intervals_[out - 1].second = std::max(intervals_[out - 1].second, intervals_[i].second);
    } else {
      intervals_[out++] = intervals_[i];
    }
  }
  intervals_.resize(out);
  dirty_ = false;
}

Time BusyTracker::busy_time() const {
  flatten();
  Time total;
  for (const auto& [start, end] : intervals_) total += end - start;
  return total;
}

Time union_busy_time(std::span<const BusyTracker* const> trackers) {
  using Interval = std::pair<Time, Time>;
  struct Cursor {
    Time start;  ///< at->first, kept here so comparisons stay in the heap.
    const Interval* at;
    const Interval* end;
  };
  std::vector<Cursor> heap;
  heap.reserve(trackers.size());
  for (const BusyTracker* tracker : trackers) {
    const BusyTracker::IntervalStore& list = tracker->intervals();
    if (!list.empty()) heap.push_back({list.front().first, list.data(), list.data() + list.size()});
  }
  // Min-heap on each cursor's next start: intervals come out in start
  // order, and overlapping or touching ones extend the current run.
  const auto later = [](const Cursor& a, const Cursor& b) { return a.start > b.start; };
  std::make_heap(heap.begin(), heap.end(), later);
  Time total;
  Time run_start;
  Time run_end;
  bool open = false;
  while (!heap.empty()) {
    Cursor& top = heap.front();
    const auto [start, end] = *top.at;
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
    } else {
      if (open) total += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (++top.at == top.end) {
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
      continue;
    }
    // The top advanced to a later start: sift it down.
    top.start = top.at->first;
    const Cursor moved = top;
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= heap.size()) break;
      if (child + 1 < heap.size() && heap[child + 1].start < heap[child].start) ++child;
      if (heap[child].start >= moved.start) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = moved;
  }
  if (open) total += run_end - run_start;
  return total;
}

double BusyTracker::utilization(Time window) const {
  if (window <= Time{}) return 0.0;
  const double u = static_cast<double>(busy_time()) / static_cast<double>(window);
  return std::clamp(u, 0.0, 1.0);
}

}  // namespace nvmooc
