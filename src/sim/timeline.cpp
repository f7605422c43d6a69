#include "sim/timeline.hpp"

#include <algorithm>
#include <vector>

#include "check/audit.hpp"
#include "common/alloc_counter.hpp"
#include "obs/obs.hpp"

namespace nvmooc {

/// Erased gaps stay in place as tombstones (end == start, which no
/// positive duration fits) until a compaction drops them, so the live
/// gaps keep their list order. Per-block bounds let the first-fit scan
/// skip runs of gaps that cannot hold a request, and a min-heap on
/// (start, slot) finds the gap max_gaps eviction drops. The storage
/// charges the host profiler's timeline memory tally (the busy intervals
/// charge it via BusyTracker::IntervalStore).
class Timeline::GapList {
 public:
  struct Gap {
    Time start;
    Time end;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Live gaps.
  [[nodiscard]] std::size_t size() const { return gaps_.size() - dead_; }
  [[nodiscard]] const Gap& at(std::size_t slot) const { return gaps_[slot]; }

  /// Slot of the first live gap in list order that fits, or kNone.
  [[nodiscard]] std::size_t first_fit(Time earliest, Time duration) const {
    return scan(earliest, duration, [&](const Gap& gap) {
      return std::max(gap.start, earliest) + duration <= gap.end;
    });
  }

  /// The earliest start, no later than `best`, any gap offers for
  /// `duration` at or after `earliest`.
  [[nodiscard]] Time earliest_start(Time earliest, Time duration, Time best) const {
    // No gap can start a grant before `earliest`, so the search ends
    // once it reaches that.
    (void)scan(earliest, duration, [&](const Gap& gap) {
      const Time start = std::max(gap.start, earliest);
      if (start + duration <= gap.end) best = std::min(best, start);
      return best <= earliest;
    });
    return best;
  }

  void push(Gap gap) {
    const std::size_t slot = gaps_.size();
    gaps_.push_back(gap);
    if (slot % kBlock == 0) bounds_.emplace_back();
    if (slot % (kBlock * kBlock) == 0) group_bounds_.emplace_back();
    bounds_.back().add(gap.end, gap.end - gap.start);
    group_bounds_.back().add(gap.end, gap.end - gap.start);
    by_start_.push_back({gap.start, slot});
    std::push_heap(by_start_.begin(), by_start_.end(), Later{});
  }

  void erase(std::size_t slot) {
    const Gap gap = gaps_[slot];
    gaps_[slot].end = gap.start;
    ++dead_;
    if (dead_ >= kBlock && 2 * dead_ >= gaps_.size()) {
      compact();
      return;
    }
    // A bound only tightens when the erased gap attained one of its maxima.
    const std::size_t block = slot / kBlock;
    const Bound old = bounds_[block];
    if (gap.end < old.max_end && gap.end - gap.start < old.max_length) return;
    bounds_[block] = block_bound(block);
    const std::size_t group = block / kBlock;
    const Bound& group_bound = group_bounds_[group];
    if ((bounds_[block].max_end < old.max_end && old.max_end == group_bound.max_end) ||
        (bounds_[block].max_length < old.max_length &&
         old.max_length == group_bound.max_length)) {
      group_bounds_[group] = group_bound_of(group);
    }
  }

  /// Erases the live gap with the earliest start.
  void evict_earliest() {
    for (;;) {
      std::pop_heap(by_start_.begin(), by_start_.end(), Later{});
      const Key key = by_start_.back();
      by_start_.pop_back();
      // A slot is never reused before compact() rebuilds the heap, so an
      // entry is current exactly when its gap is still live.
      if (gaps_[key.slot].start < gaps_[key.slot].end) {
        erase(key.slot);
        return;
      }
    }
  }

 private:
  /// Upper bounds over a run of consecutive slots: the scan skips a run
  /// whose longest gap or latest end cannot hold the request. Tombstones
  /// add nothing (length 0).
  struct Bound {
    Time max_end;
    Time max_length;
    void add(Time end, Time length) {
      if (length <= Time{}) return;
      max_end = std::max(max_end, end);
      max_length = std::max(max_length, length);
    }
    [[nodiscard]] bool admits(Time need_end, Time duration) const {
      return max_length >= duration && max_end >= need_end;
    }
  };
  /// Eviction heap entry; entries of erased slots are pruned when popped.
  struct Key {
    Time start;
    std::size_t slot;
  };
  /// Orders the heap as a min-heap on (start, slot).
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.start != b.start ? a.start > b.start : a.slot > b.slot;
    }
  };
  template <typename T>
  using Store = std::vector<T, CountingAllocator<T, AllocDomain::kTimeline>>;
  /// Slots per block, and blocks per group: the scan tests a group's
  /// bound, then its blocks', then their gaps.
  static constexpr std::size_t kBlock = 32;

  /// Calls visit(gap) on the gaps, in list order, whose block and group
  /// bounds admit the request; returns the slot where visit first
  /// returned true, or kNone.
  template <typename Visit>
  std::size_t scan(Time earliest, Time duration, Visit visit) const {
    const Time need_end = earliest + duration;
    for (std::size_t group = 0; group < group_bounds_.size(); ++group) {
      if (!group_bounds_[group].admits(need_end, duration)) continue;
      const std::size_t last_block = std::min(bounds_.size(), (group + 1) * kBlock);
      for (std::size_t block = group * kBlock; block < last_block; ++block) {
        if (!bounds_[block].admits(need_end, duration)) continue;
        const std::size_t last = std::min(gaps_.size(), (block + 1) * kBlock);
        for (std::size_t slot = block * kBlock; slot < last; ++slot) {
          if (visit(gaps_[slot])) return slot;
        }
      }
    }
    return kNone;
  }

  [[nodiscard]] Bound block_bound(std::size_t block) const {
    Bound bound;
    const std::size_t last = std::min(gaps_.size(), (block + 1) * kBlock);
    for (std::size_t slot = block * kBlock; slot < last; ++slot) {
      bound.add(gaps_[slot].end, gaps_[slot].end - gaps_[slot].start);
    }
    return bound;
  }

  [[nodiscard]] Bound group_bound_of(std::size_t group) const {
    Bound bound;
    const std::size_t last = std::min(bounds_.size(), (group + 1) * kBlock);
    for (std::size_t block = group * kBlock; block < last; ++block) {
      bound.add(bounds_[block].max_end, bounds_[block].max_length);
    }
    return bound;
  }

  /// Drops the tombstones, keeping list order, and rebuilds the index.
  void compact() {
    std::size_t live = 0;
    for (const Gap& gap : gaps_) {
      if (gap.start < gap.end) gaps_[live++] = gap;
    }
    gaps_.resize(live);
    dead_ = 0;
    bounds_.resize((live + kBlock - 1) / kBlock);
    for (std::size_t block = 0; block < bounds_.size(); ++block) {
      bounds_[block] = block_bound(block);
    }
    group_bounds_.resize((bounds_.size() + kBlock - 1) / kBlock);
    for (std::size_t group = 0; group < group_bounds_.size(); ++group) {
      group_bounds_[group] = group_bound_of(group);
    }
    by_start_.clear();
    for (std::size_t slot = 0; slot < live; ++slot) by_start_.push_back({gaps_[slot].start, slot});
    std::make_heap(by_start_.begin(), by_start_.end(), Later{});
  }

  Store<Gap> gaps_;
  Store<Bound> bounds_;        ///< Per block of kBlock slots.
  Store<Bound> group_bounds_;  ///< Per group of kBlock blocks.
  Store<Key> by_start_;
  std::size_t dead_ = 0;
};

void Timeline::emit_span(const Reservation& grant, Time earliest,
                         Time duration) const {
  obs::TraceRecorder* recorder = obs::tracer();
  if (recorder == nullptr) return;
  std::vector<obs::SpanArg> args;
  if (grant.waited > Time{}) {
    args.push_back(obs::SpanArg::number(
        "waited_us", static_cast<double>(grant.waited) / static_cast<double>(kMicrosecond)));
  }
  recorder->span(recorder->track(trace_label_), "timeline", "reserve", grant.start,
                 duration, std::move(args));
  (void)earliest;
}

Timeline::Timeline(bool backfill, std::size_t max_gaps)
    : backfill_(backfill), max_gaps_(max_gaps) {}

Reservation Timeline::reserve(Time earliest, Time duration) {
  Reservation grant;
  if (duration <= Time{}) {
    grant.start = std::max(earliest, Time{0});
    grant.end = grant.start;
    return grant;
  }

  // Host telemetry (--speed-report): attribute the bookkeeping below to
  // the timeline wall-time bucket and tick the speedometer. Both reduce
  // to a thread-local null test when no HostSession is installed, and
  // neither touches the simulated arithmetic.
  obs::HostSection host_section(obs::HostSubsystem::kTimeline);
  if (obs::HostProfiler* host = obs::host_profiler()) {
    host->count(obs::HostEvent::kTimelineReservation);
  }

  // Try to backfill an earlier gap first.
  const std::size_t slot = gaps_ ? gaps_->first_fit(earliest, duration) : GapList::kNone;
  if (slot != GapList::kNone) {
    // Split the gap around the grant.
    const GapList::Gap old = gaps_->at(slot);
    grant.start = std::max(old.start, earliest);
    grant.end = grant.start + duration;
    gaps_->erase(slot);
    if (old.start < grant.start) gaps_->push({old.start, grant.start});
    if (grant.end < old.end) gaps_->push({grant.end, old.end});
  } else {
    grant.start = std::max(earliest, next_free_);
    grant.end = grant.start + duration;
    if (backfill_ && grant.start > next_free_) {
      if (!gaps_) gaps_ = std::make_unique<GapList>();
      gaps_->push({next_free_, grant.start});
      // Drop the earliest gap: it is the least likely to be usable,
      // since request arrival times only move forward.
      if (gaps_->size() > max_gaps_) gaps_->evict_earliest();
    }
    next_free_ = std::max(next_free_, grant.end);
  }
  grant.waited = grant.start - earliest;
  busy_.add_interval(grant.start, grant.end);
  ++reservation_count_;

  if (!trace_label_.empty()) {
    emit_span(grant, earliest, duration);
    if (obs::Profiler* prof = obs::profiler()) {
      prof->timeline_busy(trace_label_, grant.start, grant.end);
    }
  }
  if (check::Auditor* aud = check::auditor()) {
    aud->timeline_reserved(this, trace_label_, grant.start, grant.end);
  }
  return grant;
}

Time Timeline::peek(Time earliest, Time duration) const {
  if (duration <= Time{}) return std::max(earliest, Time{0});
  const Time best = std::max(earliest, next_free_);
  return gaps_ && best > earliest ? gaps_->earliest_start(earliest, duration, best) : best;
}

std::size_t Timeline::gap_count() const { return gaps_ ? gaps_->size() : 0; }

Timeline::Timeline(Timeline&&) noexcept = default;
Timeline& Timeline::operator=(Timeline&&) noexcept = default;

Timeline::~Timeline() {
  // Forget audit state keyed by this address: a later Timeline allocated
  // at the same spot is a different resource.
  if (check::Auditor* aud = check::auditor()) aud->timeline_released(this);
}

}  // namespace nvmooc
