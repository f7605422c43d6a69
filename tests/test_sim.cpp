// Unit tests for the reservation timeline (incl. backfill).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "sim/timeline.hpp"

namespace nvmooc {
namespace {

TEST(Timeline, FifoReservationsQueue) {
  Timeline timeline(false);
  const Reservation a = timeline.reserve(Time{0}, Time{100});
  EXPECT_EQ(a.start, Time{0});
  EXPECT_EQ(a.end, Time{100});
  EXPECT_EQ(a.waited, Time{0});

  const Reservation b = timeline.reserve(Time{10}, Time{50});
  EXPECT_EQ(b.start, Time{100});  // Queued behind a.
  EXPECT_EQ(b.waited, Time{90});
}

TEST(Timeline, GapNotUsedWithoutBackfill) {
  Timeline timeline(false);
  timeline.reserve(Time{1000}, Time{100});  // Leaves [0,1000) idle.
  const Reservation late = timeline.reserve(Time{0}, Time{10});
  EXPECT_EQ(late.start, Time{1100});
}

TEST(Timeline, BackfillUsesGap) {
  Timeline timeline(true);
  timeline.reserve(Time{1000}, Time{100});  // Gap [0,1000).
  const Reservation fill = timeline.reserve(Time{0}, Time{10});
  EXPECT_EQ(fill.start, Time{0});
  EXPECT_EQ(fill.waited, Time{0});
}

TEST(Timeline, BackfillSplitsGap) {
  Timeline timeline(true);
  timeline.reserve(Time{1000}, Time{100});
  timeline.reserve(Time{400}, Time{100});  // Inside the gap: [400,500).
  // Remaining sub-gaps [0,400) and [500,1000) both usable.
  EXPECT_EQ(timeline.reserve(Time{0}, Time{400}).start, Time{0});
  EXPECT_EQ(timeline.reserve(Time{0}, Time{500}).start, Time{500});
}

TEST(Timeline, BackfillRespectsEarliest) {
  Timeline timeline(true);
  timeline.reserve(Time{1000}, Time{100});
  const Reservation r = timeline.reserve(Time{600}, Time{200});
  EXPECT_EQ(r.start, Time{600});  // Fits the gap tail [600,800).
}

TEST(Timeline, BusyTimeAccumulates) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{10});
  timeline.reserve(Time{20}, Time{10});
  EXPECT_EQ(timeline.busy().busy_time(), Time{20});
  EXPECT_EQ(timeline.reservation_count(), 2u);
}

TEST(Timeline, ZeroDurationIsFree) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{100});
  const Reservation r = timeline.reserve(Time{5}, Time{0});
  EXPECT_EQ(r.start, Time{5});
  EXPECT_EQ(r.end, Time{5});
}

TEST(Timeline, PeekDoesNotReserve) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{100});
  EXPECT_EQ(timeline.peek(Time{0}, Time{10}), Time{100});
  EXPECT_EQ(timeline.peek(Time{0}, Time{10}), Time{100});  // Unchanged.
  EXPECT_EQ(timeline.next_free(), Time{100});
}

// Property: a dense stream of FIFO reservations is gap-free and ordered.
TEST(Timeline, PropertyDenseStreamIsContiguous) {
  Timeline timeline(false);
  Time expected_start;
  for (int i = 0; i < 1000; ++i) {
    const Reservation r = timeline.reserve(Time{0}, Time{7});
    EXPECT_EQ(r.start, expected_start);
    expected_start = r.end;
  }
  EXPECT_EQ(timeline.busy().busy_time(), Time{7000});
}

// Property: over a pseudo-random request stream — with and without
// backfill — every grant satisfies the reservation invariants:
//   * start >= earliest (never scheduled before the request is ready),
//   * waited == start - earliest (the wait accounting is exact),
//   * end == start + duration,
//   * no two granted intervals overlap (one resource, one user at a time).
TEST(Timeline, PropertyGrantedIntervalsHoldInvariants) {
  for (const bool backfill : {false, true}) {
    Timeline timeline(backfill);
    // Deterministic splitmix64-style stream: arrival jitter + mixed sizes.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };

    std::vector<std::pair<Time, Time>> granted;
    Time arrival;
    for (int i = 0; i < 2000; ++i) {
      arrival += Time{static_cast<std::int64_t>(next() % 50)};
      const Time duration{1 + static_cast<std::int64_t>(next() % 40)};
      const Time peeked = timeline.peek(arrival, duration);
      const Reservation r = timeline.reserve(arrival, duration);
      ASSERT_GE(r.start, arrival) << "granted before ready (i=" << i << ")";
      ASSERT_EQ(r.waited, r.start - arrival);
      ASSERT_EQ(r.end, r.start + duration);
      // peek() promised a slot no later than what reserve() granted.
      ASSERT_LE(peeked, r.start);
      granted.emplace_back(r.start, r.end);
    }

    std::sort(granted.begin(), granted.end());
    for (std::size_t i = 1; i < granted.size(); ++i) {
      ASSERT_LE(granted[i - 1].second, granted[i].first)
          << "overlapping grants [" << granted[i - 1].first << ", "
          << granted[i - 1].second << ") and [" << granted[i].first << ", "
          << granted[i].second << ") with backfill=" << backfill;
    }
    EXPECT_EQ(timeline.reservation_count(), 2000u);
  }
}

// The reservation rule Timeline implements, as a plain linear first-fit
// over a gap vector: the first gap in list order that fits wins; a
// backfilled grant erases its gap and appends up to two pieces; a grant
// at the end that opens a gap appends it and, past max_gaps, drops the
// gap with the earliest start.
class ReferenceTimeline {
 public:
  ReferenceTimeline(bool backfill, std::size_t max_gaps)
      : backfill_(backfill), max_gaps_(max_gaps) {}

  Reservation reserve(Time earliest, Time duration) {
    Reservation grant;
    if (duration <= Time{}) {
      grant.start = std::max(earliest, Time{0});
      grant.end = grant.start;
      return grant;
    }
    for (std::size_t i = 0; backfill_ && i < gaps_.size(); ++i) {
      const Time start = std::max(gaps_[i].first, earliest);
      if (start + duration > gaps_[i].second) continue;
      grant.start = start;
      grant.end = start + duration;
      grant.waited = start - earliest;
      busy_.add_interval(grant.start, grant.end);
      const std::pair<Time, Time> old = gaps_[i];
      gaps_.erase(gaps_.begin() + static_cast<std::ptrdiff_t>(i));
      if (old.first < grant.start) gaps_.emplace_back(old.first, grant.start);
      if (grant.end < old.second) gaps_.emplace_back(grant.end, old.second);
      return grant;
    }
    grant.start = std::max(earliest, next_free_);
    grant.end = grant.start + duration;
    grant.waited = grant.start - earliest;
    busy_.add_interval(grant.start, grant.end);
    if (backfill_ && grant.start > next_free_) {
      gaps_.emplace_back(next_free_, grant.start);
      if (gaps_.size() > max_gaps_) {
        gaps_.erase(std::min_element(gaps_.begin(), gaps_.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.first < b.first;
                                     }));
      }
    }
    next_free_ = std::max(next_free_, grant.end);
    return grant;
  }

  Time peek(Time earliest, Time duration) const {
    if (duration <= Time{}) return std::max(earliest, Time{0});
    Time best = std::max(earliest, next_free_);
    for (std::size_t i = 0; backfill_ && i < gaps_.size(); ++i) {
      const Time start = std::max(gaps_[i].first, earliest);
      if (start + duration <= gaps_[i].second) best = std::min(best, start);
    }
    return best;
  }

  Time next_free() const { return next_free_; }
  const BusyTracker& busy() const { return busy_; }
  std::size_t gap_count() const { return gaps_.size(); }

 private:
  bool backfill_;
  std::size_t max_gaps_;
  Time next_free_;
  std::vector<std::pair<Time, Time>> gaps_;
  BusyTracker busy_;
};

// Property: Timeline's indexed gap search grants exactly what the linear
// first-fit grants, over seeded random streams in FIFO and backfill mode
// and several gap caps. Late arrivals and short requests split gaps, which
// drives the gap list far past max_gaps; long jumps open fresh gaps and
// evict. Every grant, peek, next_free, gap count and the busy total must
// agree.
TEST(Timeline, PropertyIndexedSearchMatchesLinearFirstFit) {
  std::size_t most_gaps = 0;
  for (const bool backfill : {false, true}) {
    for (const std::size_t max_gaps : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                       std::size_t{64}}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Timeline timeline(backfill, max_gaps);
        ReferenceTimeline reference(backfill, max_gaps);
        std::uint64_t state = seed * 0x2545f4914f6cdd1dULL;
        const auto next = [&state] {
          state += 0x9e3779b97f4a7c15ULL;
          std::uint64_t z = state;
          z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
          z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
          return z ^ (z >> 31);
        };
        Time clock;
        std::pair<Time, Time> opened;
        for (int i = 0; i < 5000; ++i) {
          const std::uint64_t kind = next() % 16;
          Time earliest = clock;
          Time duration{static_cast<std::int64_t>(
              kind == 15 ? next() % 300 : next() % 12)};  // Includes 0.
          if (kind < 11) {
            // A late arrival in the recent past: a backfill candidate.
            earliest = std::max(Time{0}, clock - Time{static_cast<std::int64_t>(next() % 3000)});
          } else if (kind < 12) {
            // A jump past the end: opens a gap.
            clock += Time{static_cast<std::int64_t>(500 + next() % 4000)};
            earliest = clock;
            opened = {reference.next_free(), earliest};
          } else if (kind < 13) {
            // Exactly the last gap a jump opened, if it is still whole:
            // the fit and the bounds must admit equality.
            earliest = opened.first;
            duration = opened.second - opened.first;
          } else {
            clock += Time{static_cast<std::int64_t>(next() % 20)};
            earliest = clock;
          }
          ASSERT_EQ(timeline.peek(earliest, duration), reference.peek(earliest, duration))
              << "seed " << seed << " step " << i;
          const Reservation got = timeline.reserve(earliest, duration);
          const Reservation want = reference.reserve(earliest, duration);
          ASSERT_EQ(got.start, want.start) << "seed " << seed << " step " << i;
          ASSERT_EQ(got.end, want.end);
          ASSERT_EQ(got.waited, want.waited);
          ASSERT_EQ(timeline.next_free(), reference.next_free());
          ASSERT_EQ(timeline.gap_count(), reference.gap_count());
          most_gaps = std::max(most_gaps, timeline.gap_count());
        }
        EXPECT_EQ(timeline.busy().busy_time(), reference.busy().busy_time());
        EXPECT_EQ(timeline.busy().raw_time(), reference.busy().raw_time());
      }
    }
  }
  // The split path kept gaps without eviction, far past the largest cap.
  EXPECT_GT(most_gaps, std::size_t{8 * 64});
}

}  // namespace
}  // namespace nvmooc
