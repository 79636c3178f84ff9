// Unit + property tests for the discrete-event engine and the max-min fair
// fluid system — the substrate every experiment stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "closure_fluid.hpp"
#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cs = cynthia::sim;

// ------------------------------------------------------------ event queue

TEST(EventQueue, FiresInTimeOrder) {
  cs::EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  cs::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FifoSurvivesCancellationAndInterleavedScheduling) {
  // The FIFO tie-break is a dedicated monotone sequence number, so it must
  // hold even when equal-time events are scheduled in bursts interleaved
  // with other timestamps, and when events in the middle of a tie group are
  // cancelled.
  cs::EventQueue q;
  std::vector<int> order;
  std::vector<cs::EventId> ties;
  for (int i = 0; i < 8; ++i) {
    ties.push_back(q.schedule(4.5, [&order, i] { order.push_back(i); }));
    q.schedule(1.0 + i, [&order, i] { order.push_back(100 + i); });
  }
  EXPECT_TRUE(q.cancel(ties[2]));
  EXPECT_TRUE(q.cancel(ties[5]));
  while (!q.empty()) q.pop().action();
  // Timestamps 1..4 first, then the eight-way 4.5 tie in scheduling order
  // (minus the two cancelled entries), then timestamps 5..8.
  EXPECT_EQ(order, (std::vector<int>{100, 101, 102, 103, 0, 1, 3, 4, 6, 7, 104, 105, 106, 107}));
}

TEST(EventQueue, PopReportsSchedulingOrderForEqualTimes) {
  cs::EventQueue q;
  const auto a = q.schedule(2.0, [] {});
  const auto b = q.schedule(2.0, [] {});
  const auto c = q.schedule(2.0, [] {});
  EXPECT_EQ(q.pop().id, a);
  EXPECT_EQ(q.pop().id, b);
  EXPECT_EQ(q.pop().id, c);
}

TEST(EventQueue, CancelSkipsEvent) {
  cs::EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  auto id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel is a no-op
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelFiredIsNoop) {
  cs::EventQueue q;
  auto id = q.schedule(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  cs::EventQueue q;
  auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.pop();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdNeverTouchesTheEventThatReusesItsSlot) {
  // Ids are generation << 32 | slot, and a freed slot is reused at once: an
  // id whose event fired, or was cancelled, must neither read as pending nor
  // cancel the next event in its slot.
  cs::EventQueue q;
  std::vector<int> order;
  const auto fired = q.schedule(1.0, [&] { order.push_back(1); });
  q.pop().action();
  const auto reuser = q.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(fired & 0xffffffffU, reuser & 0xffffffffU) << "the slot was not reused";
  EXPECT_NE(fired, reuser);
  EXPECT_FALSE(q.is_pending(fired));
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_TRUE(q.is_pending(reuser));

  const auto cancelled = q.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(cancelled));
  const auto reuser2 = q.schedule(4.0, [&] { order.push_back(4); });
  EXPECT_EQ(cancelled & 0xffffffffU, reuser2 & 0xffffffffU) << "the slot was not reused";
  EXPECT_FALSE(q.is_pending(cancelled));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_TRUE(q.is_pending(reuser2));
  EXPECT_EQ(q.pending(), 2u);

  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_FALSE(q.is_pending(0));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, PendingStaysExactOverASeededScript) {
  // A long random mix of schedules, cancels (of live, fired and cancelled
  // ids alike) and pops against a plain model of the live set: pending(),
  // empty() and is_pending() must agree with it after every step, and every
  // pop must return a live event in (time, scheduling order).
  cs::EventQueue q;
  cynthia::util::Rng rng(27);
  std::vector<cs::EventId> issued;
  std::vector<std::pair<double, cs::EventId>> live;  // (time, id) in scheduling order
  double now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.45 || live.empty()) {
      const double t = now + static_cast<double>(rng.uniform_int(0, 20));  // many ties
      const auto id = q.schedule(t, [] {});
      EXPECT_TRUE(std::find(issued.begin(), issued.end(), id) == issued.end())
          << "id reissued at step " << step;
      issued.push_back(id);
      live.emplace_back(t, id);
    } else if (pick < 0.7) {
      const auto id = issued[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
      const auto it = std::find_if(live.begin(), live.end(),
                                   [id](const auto& e) { return e.second == id; });
      EXPECT_EQ(q.cancel(id), it != live.end()) << "step " << step;
      if (it != live.end()) live.erase(it);
    } else {
      // The model's next event: earliest time, first scheduled among ties.
      auto next = live.begin();
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->first < next->first) next = it;
      }
      const auto popped = q.pop();
      ASSERT_EQ(popped.id, next->second) << "step " << step;
      EXPECT_EQ(popped.time, next->first);
      now = popped.time;
      live.erase(next);
    }
    ASSERT_EQ(q.pending(), live.size()) << "step " << step;
    EXPECT_EQ(q.empty(), live.empty());
    const auto probe = issued[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
    const bool in_model = std::any_of(live.begin(), live.end(),
                                      [probe](const auto& e) { return e.second == probe; });
    EXPECT_EQ(q.is_pending(probe), in_model) << "step " << step;
  }
}

TEST(EventQueue, EmptyPopThrows) {
  cs::EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

// ------------------------------------------------------------- simulator

TEST(Simulator, ClockAdvancesWithEvents) {
  cs::Simulator sim;
  double seen = -1.0;
  sim.at(5.0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, AfterIsRelative) {
  cs::Simulator sim;
  std::vector<double> times;
  sim.at(2.0, [&] {
    times.push_back(sim.now());
    sim.after(3.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
}

TEST(Simulator, PastSchedulingThrows) {
  cs::Simulator sim;
  sim.at(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  cs::Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunawayGuardThrows) {
  cs::Simulator sim;
  std::function<void()> loop = [&] { sim.after(0.0, loop); };
  sim.after(0.0, loop);
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

// ------------------------------------------------------------ fluid: basics

TEST(Fluid, SingleJobRunsAtCapacity) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("cpu", 2.0);
  double finish = -1.0;
  fs.start_job(10.0, {r}, [&](double t) { finish = t; });
  sim.run();
  EXPECT_NEAR(finish, 5.0, 1e-6);
}

TEST(Fluid, TwoJobsShareEqually) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("link", 10.0);
  std::vector<double> finishes;
  fs.start_job(10.0, {r}, [&](double t) { finishes.push_back(t); });
  fs.start_job(10.0, {r}, [&](double t) { finishes.push_back(t); });
  sim.run();
  ASSERT_EQ(finishes.size(), 2u);
  // Each gets 5 units/s: both finish at t=2.
  EXPECT_NEAR(finishes[0], 2.0, 1e-6);
  EXPECT_NEAR(finishes[1], 2.0, 1e-6);
}

TEST(Fluid, ShorterJobReleasesCapacity) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("link", 10.0);
  double short_f = -1, long_f = -1;
  fs.start_job(5.0, {r}, [&](double t) { short_f = t; });
  fs.start_job(20.0, {r}, [&](double t) { long_f = t; });
  sim.run();
  // Shared at 5/s until t=1 (short done), then long runs alone:
  // long has 15 left at t=1 -> finishes at t=2.5.
  EXPECT_NEAR(short_f, 1.0, 1e-6);
  EXPECT_NEAR(long_f, 2.5, 1e-6);
}

TEST(Fluid, MultiResourceJobLimitedByTightestLink) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto wide = fs.add_resource("wide", 100.0);
  auto narrow = fs.add_resource("narrow", 5.0);
  double finish = -1;
  fs.start_job(10.0, {wide, narrow}, [&](double t) { finish = t; });
  sim.run();
  EXPECT_NEAR(finish, 2.0, 1e-6);
}

TEST(Fluid, ZeroVolumeCompletesViaEventQueue) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  fs.add_resource("r", 1.0);
  bool done = false;
  fs.start_job(0.0, {}, [&](double) { done = true; });
  EXPECT_FALSE(done);  // not synchronous
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Fluid, HandlerReceivesEachJobsIdAndTag) {
  // The one completion path: the constructor's handler gets (id, tag, t)
  // for every drained job, ties in ascending id, and never a cancelled job.
  cs::Simulator sim;
  std::vector<std::pair<cs::JobId, cs::JobTag>> seen;
  std::vector<double> times;
  cs::FluidSystem fs(sim, [&](cs::JobId id, cs::JobTag tag, double t) {
    seen.emplace_back(id, tag);
    times.push_back(t);
  });
  const auto r = fs.add_resource("link", 10.0);
  const auto a = fs.start_job(10.0, {r}, 0xA);
  const auto cancelled = fs.start_job(10.0, {r}, 0xC);
  const auto b = fs.start_job(10.0, std::vector<cs::ResourceId>{r}, 0xB);
  const auto zero = fs.start_job(0.0, {}, 0xE);
  fs.cancel_job(cancelled);
  sim.run();
  using Seen = std::vector<std::pair<cs::JobId, cs::JobTag>>;
  EXPECT_EQ(seen, (Seen{{zero, 0xE}, {a, 0xA}, {b, 0xB}}));
  EXPECT_EQ(times, (std::vector<double>{0.0, sim.now(), sim.now()}));
  EXPECT_NEAR(sim.now(), 2.0, 1e-6);
}

TEST(Fluid, EmptyHandlerIsRejected) {
  cs::Simulator sim;
  EXPECT_THROW(cs::FluidSystem(sim, nullptr), std::invalid_argument);
}

TEST(Fluid, InvalidInputsThrow) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  EXPECT_THROW(fs.add_resource("bad", 0.0), std::invalid_argument);
  auto r = fs.add_resource("ok", 1.0);
  EXPECT_THROW(fs.start_job(1.0, {}, nullptr), std::invalid_argument);
  EXPECT_THROW(fs.start_job(1.0, {r + 100}, nullptr), std::out_of_range);
}

TEST(Fluid, RejectsNonFiniteCapacity) {
  // NaN passes a `capacity <= 0` test, and the water-filling never picks a
  // NaN- or inf-capacity resource as a bottleneck, so jobs crossing only
  // such resources would keep a stale rate. Both entry points refuse them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  for (const double bad : {nan, inf, -inf, 0.0, -1.0}) {
    EXPECT_THROW(fs.add_resource("bad", bad), std::invalid_argument) << bad;
  }
  auto r = fs.add_resource("link", 4.0);
  auto id = fs.start_job(8.0, {r}, nullptr);
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(fs.set_resource_capacity(r, bad), std::invalid_argument) << bad;
  }
  // A refused change leaves the allocation untouched.
  EXPECT_DOUBLE_EQ(fs.resource_capacity(r), 4.0);
  EXPECT_DOUBLE_EQ(fs.job_rate(id), 4.0);
  EXPECT_DOUBLE_EQ(fs.resource_used(r), 4.0);
  sim.run();
  EXPECT_NEAR(sim.now(), 2.0, 1e-6);
}

TEST(Fluid, RejectsNonFiniteVolume) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("link", 4.0);
  bool fired = false;
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(fs.start_job(bad, {r}, [&](double) { fired = true; }), std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(fs.active_jobs(), 0u);
  EXPECT_EQ(fs.realloc_count(), 0u);
  // The system is unchanged: the next job runs alone at full rate.
  double finish = -1.0;
  auto id = fs.start_job(8.0, {r}, [&](double t) { finish = t; });
  EXPECT_DOUBLE_EQ(fs.job_rate(id), 4.0);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_NEAR(finish, 2.0, 1e-6);
}

TEST(Fluid, CancelJobFreesCapacity) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("link", 10.0);
  double keep_f = -1;
  auto cancel_me = fs.start_job(1000.0, {r}, [&](double) { FAIL() << "cancelled job completed"; });
  fs.start_job(10.0, {r}, [&](double t) { keep_f = t; });
  sim.after(1.0, [&] { fs.cancel_job(cancel_me); });
  sim.run();
  // Shared 5/s for 1s (5 done), then full 10/s for remaining 5 -> t=1.5.
  EXPECT_NEAR(keep_f, 1.5, 1e-6);
}

TEST(Fluid, JobRemainingAndRateQueries) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("link", 4.0);
  auto id = fs.start_job(8.0, {r}, nullptr);
  EXPECT_DOUBLE_EQ(fs.job_rate(id), 4.0);
  sim.run_until(1.0);
  EXPECT_NEAR(fs.job_remaining(id), 4.0, 1e-6);
  sim.run();
  EXPECT_DOUBLE_EQ(fs.job_remaining(id), 0.0);
  EXPECT_DOUBLE_EQ(fs.job_rate(id), 0.0);
}

// ------------------------------------------------ fluid: max-min property

namespace {

/// Randomized topology: jobs crossing random subsets of links. Verifies the
/// two defining max-min properties on the instantaneous allocation:
/// feasibility (no link over capacity) and bottleneck justification (every
/// job is capped by at least one saturated link, or runs at link speed).
void check_maxmin_invariants(std::uint64_t seed) {
  cynthia::util::Rng rng(seed);
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  const int n_links = static_cast<int>(rng.uniform_int(2, 6));
  std::vector<cs::ResourceId> links;
  std::vector<double> caps;
  for (int i = 0; i < n_links; ++i) {
    const double cap = rng.uniform(1.0, 20.0);
    links.push_back(fs.add_resource("l" + std::to_string(i), cap));
    caps.push_back(cap);
  }
  const int n_jobs = static_cast<int>(rng.uniform_int(2, 10));
  std::vector<cs::JobId> jobs;
  std::vector<std::vector<cs::ResourceId>> paths;
  for (int j = 0; j < n_jobs; ++j) {
    std::vector<cs::ResourceId> path;
    for (int l = 0; l < n_links; ++l) {
      if (rng.chance(0.4)) path.push_back(links[l]);
    }
    if (path.empty()) path.push_back(links[0]);
    paths.push_back(path);
    jobs.push_back(fs.start_job(1e9, path, nullptr));  // long-lived
  }

  // Feasibility.
  for (int l = 0; l < n_links; ++l) {
    EXPECT_LE(fs.resource_used(links[l]), caps[l] + 1e-6);
  }
  // Bottleneck justification: each job crosses some link that is saturated
  // and on which the job's rate is maximal among that link's jobs.
  for (int j = 0; j < n_jobs; ++j) {
    const double rate = fs.job_rate(jobs[j]);
    EXPECT_GT(rate, 0.0);
    bool justified = false;
    for (auto l : paths[j]) {
      if (fs.resource_used(l) < fs.resource_capacity(l) - 1e-6) continue;
      // saturated link: is this job among its fastest?
      bool is_max = true;
      for (int k = 0; k < n_jobs; ++k) {
        if (std::find(paths[k].begin(), paths[k].end(), l) == paths[k].end()) continue;
        if (fs.job_rate(jobs[k]) > rate + 1e-6) {
          is_max = false;
          break;
        }
      }
      if (is_max) {
        justified = true;
        break;
      }
    }
    EXPECT_TRUE(justified) << "job " << j << " rate " << rate << " not bottleneck-justified";
  }
}

}  // namespace

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, AllocationIsMaxMinFair) { check_maxmin_invariants(GetParam()); }

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// ----------------------------------------------- fluid: conservation laws

class FluidConservation : public ::testing::TestWithParam<int> {};

TEST_P(FluidConservation, ServedVolumeEqualsInjectedVolume) {
  const int n_jobs = GetParam();
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto link = fs.add_resource("link", 7.0, cynthia::util::Seconds{0.5});
  cynthia::util::Rng rng(n_jobs * 1000 + 7);
  double injected = 0.0;
  int completed = 0;
  for (int j = 0; j < n_jobs; ++j) {
    const double vol = rng.uniform(0.5, 30.0);
    injected += vol;
    const double start = rng.uniform(0.0, 5.0);
    sim.at(start, [&fs, &completed, vol, link] {
      fs.start_job(vol, {link}, [&completed](double) { ++completed; });
    });
  }
  sim.run();
  EXPECT_EQ(completed, n_jobs);
  EXPECT_NEAR(fs.resource_volume_served(link), injected, injected * 1e-6 + 1e-6);
  // Trace agrees with the busy integral.
  const auto* trace = fs.resource_trace(link);
  ASSERT_NE(trace, nullptr);
  EXPECT_NEAR(trace->total_volume(), injected, injected * 1e-6 + 1e-6);
  // Utilization is consistent: served / (capacity * makespan).
  const double util = fs.resource_utilization(link, sim.now());
  EXPECT_NEAR(util, injected / (7.0 * sim.now()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, FluidConservation, ::testing::Values(1, 2, 5, 10, 25, 60));

TEST(Fluid, TraceIncludesTheOpenSegment) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto link = fs.add_resource("link", 2.0, cynthia::util::Seconds{0.5});
  bool done = false;
  fs.start_job(20.0, {link}, [&done](double) { done = true; });  // 10 s at full rate
  sim.run_until(3.0);
  ASSERT_FALSE(done);
  // No settle has happened since the allocation, yet the trace read must
  // cover the open segment [0, now) instead of stopping at the last settle.
  const auto* trace = fs.resource_trace(link);
  ASSERT_NE(trace, nullptr);
  EXPECT_NEAR(trace->end_time(), 3.0, 1e-9);
  EXPECT_NEAR(trace->total_volume(), 6.0, 1e-9);
  sim.run();
  EXPECT_TRUE(done);
  // After the queue drains the trace reaches the completion and conserves
  // the full injected volume (up to the scheduler's completion slack).
  EXPECT_NEAR(fs.resource_trace(link)->total_volume(), 20.0, 1e-6);
}

TEST(Fluid, CompletionOrderRespectsVolumes) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("r", 1.0);
  std::vector<int> order;
  fs.start_job(3.0, {r}, [&](double) { order.push_back(3); });
  fs.start_job(1.0, {r}, [&](double) { order.push_back(1); });
  fs.start_job(2.0, {r}, [&](double) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fluid, CallbackCanStartNewJobs) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("r", 1.0);
  int chain = 0;
  std::function<void(double)> next = [&](double) {
    if (++chain < 5) fs.start_job(1.0, {r}, next);
  };
  fs.start_job(1.0, {r}, next);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_NEAR(sim.now(), 5.0, 1e-5);
}

TEST(Fluid, UtilizationOfIdleResourceIsZero) {
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  auto r = fs.add_resource("idle", 3.0);
  auto busy = fs.add_resource("busy", 3.0);
  fs.start_job(9.0, {busy}, nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(fs.resource_utilization(r, sim.now()), 0.0);
  EXPECT_NEAR(fs.resource_utilization(busy, sim.now()), 1.0, 1e-9);
}
