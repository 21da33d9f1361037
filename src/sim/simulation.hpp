// The discrete-event simulation kernel. Single-threaded, deterministic:
// events execute in (time, insertion sequence) order, so two runs with the
// same seed and configuration are bit-for-bit identical. All model components
// (links, disks, datanodes, clients, the namenode) are driven exclusively by
// callbacks scheduled here.
//
// Internally the queue is a two-tier calendar (ladder) structure over pooled,
// freelist-recycled event records — see DESIGN.md §10. The observable
// contract is unchanged from the original binary-heap core: strict
// (time, seq) pop order, schedule_now FIFO among same-time events, and
// cancellation via EventHandle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/small_fn.hpp"

namespace smarth::sim {

namespace detail {
struct EventRecord;
class EventPool;

/// Non-atomic intrusive refcount on the event pool. The simulation is
/// single-threaded (parallel sweeps run one Simulation per thread and never
/// share handles), so a plain counter avoids the two atomic RMWs per handle
/// that shared_ptr would charge the scheduling hot path.
class PoolRef {
 public:
  PoolRef() = default;
  explicit PoolRef(EventPool* pool);
  PoolRef(const PoolRef& other);
  PoolRef& operator=(const PoolRef& other);
  PoolRef(PoolRef&& other) noexcept : pool_(other.pool_) {
    other.pool_ = nullptr;
  }
  PoolRef& operator=(PoolRef&& other) noexcept;
  ~PoolRef();

  EventPool* get() const { return pool_; }
  EventPool* operator->() const { return pool_; }
  explicit operator bool() const { return pool_ != nullptr; }

 private:
  EventPool* pool_ = nullptr;
};
}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Liveness is tracked with a generation counter on the
/// pooled record (not shared_ptr identity): a handle whose record has been
/// recycled simply reads as not-pending. The handle keeps the pool itself
/// alive, so it stays safe to query even after the Simulation is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;
  /// Cancels the event if still pending; returns whether it was cancelled.
  /// Cancellation releases the captured callback state immediately; the
  /// record itself is reclaimed by the queue's next sweep over its bucket.
  bool cancel();

 private:
  friend class Simulation;
  EventHandle(detail::PoolRef pool, detail::EventRecord* rec,
              std::uint64_t gen)
      : pool_(std::move(pool)), rec_(rec), gen_(gen) {}

  detail::PoolRef pool_;
  detail::EventRecord* rec_ = nullptr;
  std::uint64_t gen_ = 0;
};

class Simulation {
 public:
  /// Event callbacks live inline in the pooled event record; captures up to
  /// 64 bytes never touch the heap. The packet path (Link, Network,
  /// DiskDevice) takes this same type, so a delivery callback moves from the
  /// transport into the event queue without being re-wrapped. A moved-in
  /// std::function fits too, but its own target is heap-allocated for any
  /// capture above two pointers, so hot paths pass lambdas directly.
  using Callback = SmallFn<64>;

  explicit Simulation(std::uint64_t seed = 0x5eed);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time. Valid inside and outside event callbacks.
  SimTime now() const { return now_; }

  /// The simulation-owned RNG; all model randomness must come from here.
  Rng& rng() { return rng_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()). The optional
  /// `category` (a string literal) labels the event for the runaway-model
  /// diagnostic dump; it is not copied, so it must outlive the simulation.
  EventHandle schedule_at(SimTime t, Callback cb);
  EventHandle schedule_at(SimTime t, const char* category, Callback cb);
  /// Schedules `cb` after `delay` (clamped at >= 0).
  EventHandle schedule_after(SimDuration delay, Callback cb);
  EventHandle schedule_after(SimDuration delay, const char* category,
                             Callback cb);
  /// Schedules `cb` to run after all currently queued events at now().
  EventHandle schedule_now(Callback cb) {
    return schedule_after(0, std::move(cb));
  }

  /// Fire-and-forget variants for hot paths: identical ordering semantics,
  /// but no EventHandle is materialized (skips the pool keep-alive refcount).
  void post_at(SimTime t, const char* category, Callback cb);
  void post_after(SimDuration delay, const char* category, Callback cb);
  void post_now(const char* category, Callback cb) {
    post_after(0, category, std::move(cb));
  }

  /// Runs until the event queue drains. Throws if the event limit is hit
  /// (runaway-model backstop); the exception message includes the top pending
  /// event categories so diverging models can be diagnosed without a rebuild.
  void run();
  /// Runs events with time <= `t`, then sets now() = t.
  /// Returns false if the event limit was reached with events still pending.
  bool run_until(SimTime t);
  /// Executes at most `n` events; returns the number executed.
  std::size_t run_steps(std::size_t n);

  bool empty() const;
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return scheduled_; }
  /// Events cancelled before firing (via EventHandle::cancel()).
  std::uint64_t events_cancelled() const;

  /// Backstop against runaway models; 0 disables. Default: 4e9.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// "category×count" summary of the top-N pending event categories, most
  /// numerous first (diagnostics; also embedded in the event-limit error).
  std::string pending_category_summary(std::size_t top_n = 8) const;

 private:
  bool execute_one();
  /// Removes `rec` (the queue's next event) and runs it.
  void fire(detail::EventRecord* rec);
  detail::EventRecord* enqueue(SimTime t, const char* category,
                               Callback&& cb);
  [[noreturn]] void throw_event_limit();

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t event_limit_ = 4'000'000'000ULL;
  Rng rng_;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smarth::sim
