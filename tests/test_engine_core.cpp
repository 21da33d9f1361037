// Event-core refactor coverage: randomized differential testing of the
// calendar queue against the pre-refactor reference design, tombstone
// accounting, the category dump the event limit produces, and SmallFn's
// ownership rules.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/reference_queue.hpp"
#include "sim/simulation.hpp"

namespace smarth::sim {
namespace {

// --- Differential: calendar queue vs reference priority_queue ---------------
// Drives both cores through the same randomized schedule/cancel script and
// demands the identical execution sequence. Scripts mix far-future times
// (exercising bucket distribution and ladder rebuilds), same-time ties
// (insertion-order FIFO), zero delays, nested scheduling from callbacks, and
// cancellation of a random live subset.

struct Script {
  struct Op {
    SimDuration delay = 0;
    bool cancel_some = false;
    int nested = 0;  ///< events scheduled from inside the callback
  };
  std::vector<Op> ops;
};

Script make_script(std::uint64_t seed, int size) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<SimDuration> delay(0, 1'000'000);
  std::uniform_int_distribution<int> shape(0, 9);
  Script script;
  for (int i = 0; i < size; ++i) {
    Script::Op op;
    const int kind = shape(rng);
    if (kind == 0) {
      op.delay = 0;  // schedule_now FIFO path
    } else if (kind == 1) {
      op.delay = 777;  // deliberate tie pile-up
    } else {
      op.delay = delay(rng);
    }
    op.cancel_some = kind == 2;
    op.nested = kind >= 8 ? 2 : 0;
    script.ops.push_back(op);
  }
  return script;
}

/// Runs a script against the calendar-queue Simulation; returns the order
/// in which event ids executed.
std::vector<int> run_calendar(const Script& script) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  int next_id = 0;
  for (const Script::Op& op : script.ops) {
    const int id = next_id++;
    handles.push_back(sim.schedule_after(op.delay, [&, id, op] {
      order.push_back(id);
      for (int n = 0; n < op.nested; ++n) {
        const int nested_id = 1'000'000 + id * 10 + n;
        sim.schedule_after(op.delay / 2 + n,
                           [&order, nested_id] { order.push_back(nested_id); });
      }
    }));
    if (op.cancel_some && handles.size() >= 3) {
      handles[handles.size() - 3].cancel();
    }
  }
  sim.run();
  return order;
}

/// The same script against the reference core.
std::vector<int> run_reference(const Script& script) {
  ReferenceQueue sim;
  std::vector<int> order;
  std::vector<ReferenceQueue::Handle> handles;
  int next_id = 0;
  for (const Script::Op& op : script.ops) {
    const int id = next_id++;
    handles.push_back(sim.schedule_after(op.delay, [&, id, op] {
      order.push_back(id);
      for (int n = 0; n < op.nested; ++n) {
        const int nested_id = 1'000'000 + id * 10 + n;
        sim.schedule_after(op.delay / 2 + n,
                           [&order, nested_id] { order.push_back(nested_id); });
      }
    }));
    if (op.cancel_some && handles.size() >= 3) {
      handles[handles.size() - 3].cancel();
    }
  }
  sim.run();
  return order;
}

TEST(EngineDifferential, RandomScriptsMatchReferenceCore) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Script script = make_script(seed, 400);
    const std::vector<int> calendar = run_calendar(script);
    const std::vector<int> reference = run_reference(script);
    ASSERT_EQ(calendar, reference) << "divergence at seed " << seed;
  }
}

TEST(EngineDifferential, LargePendingSetMatches) {
  // Enough simultaneous events to force several ladder rebuilds.
  const Script script = make_script(99, 5000);
  EXPECT_EQ(run_calendar(script), run_reference(script));
}

// --- Differential: targeted shapes ------------------------------------------
// Each harness below runs the same model on both cores; every callback's
// decisions derive from its event id, so the cores see identical scripts as
// long as they execute events in the same order.

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Watchdog churn: `kChains` packet chains each re-arm one of `kDogs`
/// far-future watchdogs on every event (cancel, then schedule anew), the
/// shape of a stream's ACK watchdog. Zero-delay hops ride along. Once a
/// chain stops, its watchdog eventually fires. A lone event far beyond
/// every deadline makes the calendar core keep all of them in its active
/// heap (few pending events: no ladder), so the re-arms leave their
/// tombstones there, as the HDFS streams' watchdogs do.
template <typename Core, typename Handle>
struct WatchdogChurn {
  static constexpr int kChains = 8;
  static constexpr int kDogs = 4;
  static constexpr int kStepsPerChain = 2000;
  static constexpr SimDuration kDeadline = 5'000'000'000;
  static constexpr SimTime kHorizon = 1'000'000'000'000;

  Core core;
  std::vector<int> order;
  std::array<Handle, kDogs> dogs{};

  void arm(int dog) {
    dogs[static_cast<std::size_t>(dog)].cancel();
    dogs[static_cast<std::size_t>(dog)] =
        core.schedule_after(kDeadline, [this, dog] {
          order.push_back(-1 - dog);
        });
  }

  void step(int chain, int n) {
    order.push_back(chain * 10'000 + n);
    arm(chain % kDogs);
    if (n + 1 >= kStepsPerChain) return;
    const std::uint64_t h = mix(static_cast<std::uint64_t>(chain) << 20 |
                                static_cast<std::uint64_t>(n));
    const SimDuration delay =
        h % 4 == 0 ? 0 : static_cast<SimDuration>(h % 2000);
    core.schedule_after(delay, [this, chain, n] { step(chain, n + 1); });
  }

  std::vector<int> run() {
    core.schedule_at(kHorizon, [this] { order.push_back(-1000); });
    for (int c = 0; c < kChains; ++c) {
      core.schedule_after(c % 3, [this, c] { step(c, 0); });
    }
    core.run();
    return order;
  }
};

TEST(EngineDifferential, WatchdogChurnMatchesReference) {
  WatchdogChurn<Simulation, EventHandle> calendar;
  WatchdogChurn<ReferenceQueue, ReferenceQueue::Handle> reference;
  const std::vector<int> got = calendar.run();
  ASSERT_EQ(got, reference.run());
  // Every chain ran to its end and every watchdog fired exactly once.
  using Churn = WatchdogChurn<Simulation, EventHandle>;
  EXPECT_EQ(got.size(), static_cast<std::size_t>(
                            Churn::kChains * Churn::kStepsPerChain +
                            Churn::kDogs + 1));
  EXPECT_TRUE(calendar.core.empty());
  EXPECT_GT(calendar.core.events_cancelled(), 10'000u);
}

/// Random spawner whose events schedule at now(), at ties and a little
/// later, and cancel earlier events. Shared by the segment and tie tests.
template <typename Core, typename Handle>
struct Spawner {
  Spawner(Core& core_in, std::vector<int>& order_in)
      : core(core_in), order(order_in) {}

  Core& core;
  std::vector<int>& order;
  std::vector<Handle> handles;
  int next_id = 0;
  int max_depth = 3;

  void spawn(SimDuration delay, int depth) {
    const int id = next_id++;
    handles.push_back(core.schedule_after(
        delay, [this, id, depth] { fire(id, depth); }));
  }

  void fire(int id, int depth) {
    order.push_back(id);
    const std::uint64_t h = mix(static_cast<std::uint64_t>(id));
    if (depth < max_depth) {
      if (h % 3 == 0) spawn(0, depth + 1);
      if (h % 5 == 0) spawn(0, depth + 1);
      if (h % 7 == 0) spawn(static_cast<SimDuration>(h % 40), depth + 1);
    }
    if (h % 11 == 0) {
      handles[static_cast<std::size_t>((h >> 8) % handles.size())].cancel();
    }
  }
};

/// One pause of a segmented run: how many events had run, the clock, and
/// the delays scheduled (relative to that clock) before resuming.
struct Boundary {
  std::uint64_t executed = 0;
  SimTime now = 0;
  std::vector<SimDuration> delays;
};

TEST(EngineDifferential, RunSegmentsWithNowSchedulingMatchReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    // Calendar core, driven by run_until / run_steps segments; between
    // segments a few events are scheduled at now() and just after.
    Simulation sim;
    std::vector<int> got;
    Spawner<Simulation, EventHandle> spawner{sim, got};
    for (int i = 0; i < 60; ++i) {
      spawner.spawn(static_cast<SimDuration>(rng() % 200), 0);
    }
    std::vector<Boundary> boundaries;
    for (int segment = 0; segment < 40; ++segment) {
      if (rng() % 2 == 0) {
        sim.run_until(sim.now() + static_cast<SimDuration>(rng() % 30));
      } else {
        sim.run_steps(static_cast<std::size_t>(rng() % 25));
      }
      Boundary b{sim.events_executed(), sim.now(), {}};
      const int inserts = static_cast<int>(rng() % 4);
      for (int k = 0; k < inserts; ++k) {
        b.delays.push_back(rng() % 3 == 0 ? 0
                                          : static_cast<SimDuration>(rng() % 20));
      }
      for (const SimDuration d : b.delays) spawner.spawn(d, 0);
      boundaries.push_back(std::move(b));
    }
    sim.run();

    // Reference core: run the same number of events, then make the same
    // insertions at the same absolute times.
    ReferenceQueue ref;
    std::vector<int> want;
    Spawner<ReferenceQueue, ReferenceQueue::Handle> ref_spawner{ref, want};
    std::mt19937_64 ref_rng(seed);
    for (int i = 0; i < 60; ++i) {
      ref_spawner.spawn(static_cast<SimDuration>(ref_rng() % 200), 0);
    }
    for (const Boundary& b : boundaries) {
      while (ref.events_executed() < b.executed) ASSERT_TRUE(ref.execute_one());
      for (const SimDuration d : b.delays) {
        const int id = ref_spawner.next_id++;
        ref_spawner.handles.push_back(
            ref.schedule_at(b.now + d, [&ref_spawner, id] {
              ref_spawner.fire(id, 0);
            }));
      }
    }
    ref.run();
    ASSERT_EQ(got, want) << "divergence at seed " << seed;
  }
}

TEST(EngineDifferential, NestedNowChainsAtTiedTimestampsMatchReference) {
  // Many events share each of a few instants; each spawns schedule_now
  // chains several levels deep that interleave with the instant's
  // remaining heap events and with new ties one tick later.
  auto seed_ties = [](auto& spawner) {
    for (int i = 0; i < 200; ++i) spawner.spawn(100 * (i % 4), 0);
  };
  Simulation sim;
  std::vector<int> got;
  Spawner<Simulation, EventHandle> calendar{sim, got};
  calendar.max_depth = 6;
  seed_ties(calendar);
  sim.run();

  ReferenceQueue ref;
  std::vector<int> want;
  Spawner<ReferenceQueue, ReferenceQueue::Handle> reference{ref, want};
  reference.max_depth = 6;
  seed_ties(reference);
  ref.run();

  ASSERT_EQ(got, want);
  EXPECT_GT(got.size(), 400u);
}

TEST(EngineCore, ScheduleNowRunsAfterEarlierEventsAtTheSameInstant) {
  Simulation sim;
  std::vector<char> order;
  sim.schedule_at(10, [&] {
    order.push_back('a');
    sim.schedule_now([&] { order.push_back('n'); });
  });
  sim.schedule_at(10, [&] { order.push_back('b'); });
  sim.schedule_at(11, [&] { order.push_back('c'); });
  sim.run_steps(1);  // 'a' ran; 'b' (heap) and 'n' (lane) both at t=10
  EXPECT_EQ(sim.pending_category_summary(), "event×3");
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'n', 'c'}));
}

TEST(EngineCore, DestructorReleasesSameInstantCallbacks) {
  auto token = std::make_shared<int>(0);
  {
    Simulation sim;
    sim.schedule_now([token] {});
    sim.schedule_at(5, [token] {});
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_FALSE(sim.empty());
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- Tombstones -------------------------------------------------------------

TEST(EngineCancellation, CancelledCounterTracksTombstones) {
  Simulation sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_at(100 + i, [] {}));
  }
  EXPECT_EQ(sim.events_cancelled(), 0u);
  for (int i = 0; i < 5; ++i) handles[static_cast<size_t>(i)].cancel();
  EXPECT_EQ(sim.events_cancelled(), 5u);
  // Double-cancel is a no-op, not a double count.
  handles[0].cancel();
  EXPECT_EQ(sim.events_cancelled(), 5u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.events_cancelled(), 5u);
}

TEST(EngineCancellation, CancelledEventsDoNotBlockEmpty) {
  // A cancelled record must not keep the simulation "non-empty" forever:
  // run() terminates without executing it even though its time never comes.
  Simulation sim;
  auto handle = sim.schedule_at(1'000'000'000, [] {});
  sim.schedule_at(10, [] {});
  handle.cancel();
  sim.run();
  EXPECT_EQ(sim.now(), 10);
  EXPECT_TRUE(sim.empty());
}

// --- Event-limit diagnostics ------------------------------------------------

TEST(EngineLimit, LimitDumpNamesTopPendingCategories) {
  Simulation sim;
  sim.set_event_limit(50);
  // A self-sustaining storm with a distinctive category name, plus a few
  // bystanders in another category.
  std::function<void()> storm = [&] { sim.post_after(1, "storm.tick", storm); };
  for (int i = 0; i < 8; ++i) storm();
  for (int i = 0; i < 3; ++i) sim.post_at(1'000'000, "bystander.later", [] {});
  try {
    sim.run();
    FAIL() << "expected the event limit to throw";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("event limit exceeded"), std::string::npos)
        << message;
    EXPECT_NE(message.find("storm.tick"), std::string::npos) << message;
    EXPECT_NE(message.find("bystander.later"), std::string::npos) << message;
  }
}

TEST(EngineLimit, CategorySummaryCountsPending) {
  Simulation sim;
  for (int i = 0; i < 4; ++i) sim.post_at(100, "a.lot", [] {});
  sim.post_at(100, "a.little", [] {});
  const std::string summary = sim.pending_category_summary();
  // Sorted by count: the bigger category leads.
  EXPECT_LT(summary.find("a.lot"), summary.find("a.little"));
  EXPECT_NE(summary.find("4"), std::string::npos);
}

// --- SmallFn ------------------------------------------------------------------

using Fn = SmallFn<64>;

TEST(SmallFnOwnership, InlineTrivialCaptureMovesByCopy) {
  int calls = 0;
  int* target = &calls;
  const int step = 3;
  auto lambda = [target, step] { *target += step; };
  static_assert(Fn::stores_inline<decltype(lambda)>());
  static_assert(std::is_trivially_copyable_v<decltype(lambda)>);
  Fn a = lambda;
  Fn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  Fn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  c();
  EXPECT_EQ(calls, 6);
}

TEST(SmallFnOwnership, InlineNonTrivialCaptureIsDestroyedOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    std::shared_ptr<int> owned(new int(7), [&destroyed](int* p) {
      ++destroyed;
      delete p;
    });
    auto lambda = [owned, &calls] { calls += *owned; };
    static_assert(Fn::stores_inline<decltype(lambda)>());
    static_assert(!std::is_trivially_copyable_v<decltype(lambda)>);
    Fn a = std::move(lambda);
    owned.reset();
    Fn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    Fn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
    c();
    EXPECT_EQ(calls, 7);
    EXPECT_EQ(destroyed, 0);
    c = nullptr;
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
}

/// Remembers its own address, so a relocation that skips the move
/// constructor (a byte copy) is caught when the copy is invoked.
struct SelfCheck {
  SelfCheck() : self(this) {}
  SelfCheck(SelfCheck&& /*other*/) noexcept : self(this) {}
  SelfCheck(const SelfCheck&) = delete;
  ~SelfCheck() = default;
  bool at_home() const { return self == this; }
  const SelfCheck* self;
};

TEST(SmallFnOwnership, InlineNonTrivialCaptureIsMoveConstructed) {
  bool at_home = false;
  auto lambda = [check = SelfCheck{}, &at_home] { at_home = check.at_home(); };
  static_assert(Fn::stores_inline<decltype(lambda)>());
  Fn a = std::move(lambda);
  Fn b = std::move(a);
  Fn c;
  c = std::move(b);
  c();
  EXPECT_TRUE(at_home);
}

TEST(SmallFnOwnership, HeapFallbackCaptureIsDestroyedOnce) {
  int destroyed = 0;
  int sum = 0;
  {
    std::shared_ptr<int> owned(new int(1), [&destroyed](int* p) {
      ++destroyed;
      delete p;
    });
    std::array<int, 32> big{};
    big.fill(2);
    auto lambda = [owned, big, &sum] {
      for (const int v : big) sum += v * *owned;
    };
    static_assert(!Fn::stores_inline<decltype(lambda)>());
    Fn a = std::move(lambda);
    owned.reset();
    Fn b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    b();
    EXPECT_EQ(sum, 64);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace smarth::sim
