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
  // interval in place — the common case for a busy resource, so runs of
  // touching grants cost one entry. Extending the last entry is a union
  // whether or not the list is sorted, so it also applies after an
  // out-of-order insert.
  if (!intervals_.empty() && start >= intervals_.back().first &&
      start <= intervals_.back().second) {
    intervals_.back().second = std::max(intervals_.back().second, end);
    return;
  }
  if (!intervals_.empty() && start < intervals_.back().first) dirty_ = true;
  intervals_.emplace_back(start, end);
  // Periodic flattening merges the overlaps that out-of-order inserts
  // leave behind. It does not bound memory: disjoint intervals stay
  // until settle_before() folds them.
  if (intervals_.size() >= compact_at_) {
    flatten();
    compact_at_ = std::max(kCompactThreshold, intervals_.size() * 2);
  }
}

void BusyTracker::settle_before(Time horizon) {
  flatten();
  auto held = intervals_.begin();
  for (; held != intervals_.end() && held->first < horizon; ++held) {
    if (held->second > horizon) {
      settled_ += horizon - held->first;
      held->first = horizon;
      break;
    }
    settled_ += held->second - held->first;
  }
  intervals_.erase(intervals_.begin(), held);
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
  Time total = settled_;
  for (const auto& [start, end] : intervals_) total += end - start;
  return total;
}

Time union_runs(std::span<const std::span<const BusyInterval>> inputs, Time horizon,
                std::vector<BusyInterval>& out) {
  out.clear();
  // Lists with an interval left before the horizon. The inputs are few
  // (the planes of a die, the dies and port of a package, ...), so a
  // linear scan for the earliest start beats a heap.
  struct Cursor {
    const BusyInterval* at;
    const BusyInterval* end;
  };
  std::vector<Cursor> live;
  live.reserve(inputs.size());
  for (std::span<const BusyInterval> list : inputs) {
    if (!list.empty() && list.front().first < horizon) {
      live.push_back({list.data(), list.data() + list.size()});
    }
  }
  Time total;
  while (!live.empty()) {
    std::size_t next = 0;
    for (std::size_t i = 1; i < live.size(); ++i) {
      if (live[i].at->first < live[next].at->first) next = i;
    }
    const Time start = live[next].at->first;
    const Time end = std::min(live[next].at->second, horizon);
    if (!out.empty() && start <= out.back().second) {
      if (end > out.back().second) {
        total += end - out.back().second;
        out.back().second = end;
      }
    } else {
      total += end - start;
      out.emplace_back(start, end);
    }
    if (++live[next].at == live[next].end || live[next].at->first >= horizon) {
      live[next] = live.back();
      live.pop_back();
    }
  }
  return total;
}

double BusyTracker::utilization(Time window) const {
  if (window <= Time{}) return 0.0;
  const double u = static_cast<double>(busy_time()) / static_cast<double>(window);
  return std::clamp(u, 0.0, 1.0);
}

}  // namespace nvmooc
