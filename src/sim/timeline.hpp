// Reservation timeline: the contention model for serially-occupied
// resources (channel buses, die planes, host links).
//
// A transaction asks to occupy the resource for `duration` starting no
// earlier than `earliest`. The timeline grants the first gap that fits
// (backfilling earlier holes when allowed), records the busy interval, and
// returns the granted [start, end). The difference start - earliest is the
// contention (queueing) time the caller attributes to this resource.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace nvmooc {

struct Reservation {
  Time start;
  Time end;
  /// Queueing delay experienced: start - earliest.
  [[nodiscard]] Time wait() const { return waited; }
  Time waited;
};

class Timeline {
 public:
  /// When `backfill` is true the timeline keeps a list of earlier idle
  /// gaps and grants each transaction the first gap, in list order, that
  /// fits it — this models out-of-order dispatch at a channel (PAQ-style).
  /// `max_gaps` is enforced only when a grant at the end opens a new gap
  /// (the earliest gap is dropped); a backfilled grant splits its gap into
  /// up to two pieces without eviction, so the list can outgrow
  /// `max_gaps`. When false it is a strict next-free-time resource (FIFO
  /// occupancy).
  explicit Timeline(bool backfill = false, std::size_t max_gaps = 64);

  /// Reserves `duration` starting at or after `earliest`.
  Reservation reserve(Time earliest, Time duration);

  /// First time the resource is free at or after `earliest` for `duration`
  /// (without reserving). Used by schedulers for candidate comparison.
  [[nodiscard]] Time peek(Time earliest, Time duration) const;

  [[nodiscard]] Time next_free() const { return next_free_; }
  const BusyTracker& busy() const { return busy_; }
  /// Folds busy time before `horizon` into the tracker's settled total
  /// (BusyTracker::settle_before); no later grant may start before it.
  void settle_busy_before(Time horizon) { busy_.settle_before(horizon); }
  std::uint64_t reservation_count() const { return reservation_count_; }
  /// Idle gaps currently held for backfill.
  [[nodiscard]] std::size_t gap_count() const;

  /// Names this resource for span tracing: when a label is set and a
  /// trace recorder is active (obs::tracer()), every reserve() emits its
  /// granted interval as a span on the track of that name, with the
  /// queueing wait attached as an arg. Empty label (the default) means
  /// no instrumentation — reserve() stays branch-plus-nothing.
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }
  const std::string& trace_label() const { return trace_label_; }

  ~Timeline();
  // The destructor releases audit state keyed by this address, and the
  // gap list is owned through a pointer: Timelines move (they live in
  // vectors) but do not copy.
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  Timeline(Timeline&&) noexcept;
  Timeline& operator=(Timeline&&) noexcept;

 private:
  /// The backfill gaps in list order, with the index that finds the first
  /// fit and the earliest gap (timeline.cpp). Allocated at the first gap,
  /// so a timeline that never opens one costs a null pointer.
  class GapList;

  void emit_span(const Reservation& grant, Time earliest, Time duration) const;

  bool backfill_;
  std::size_t max_gaps_;
  Time next_free_;
  std::unique_ptr<GapList> gaps_;
  BusyTracker busy_;
  std::uint64_t reservation_count_ = 0;
  std::string trace_label_;
};

}  // namespace nvmooc
