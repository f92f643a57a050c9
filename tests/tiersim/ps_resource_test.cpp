#include "tiersim/ps_resource.hpp"

#include <gtest/gtest.h>

namespace rac::tiersim {
namespace {

TEST(PsResource, SingleJobRunsAtFullSpeed) {
  EventQueue q;
  PsResource cpu(q, 1);
  double done_at = -1.0;
  cpu.submit(2.0, [&] { done_at = q.now(); });
  q.run_until(10.0);
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(PsResource, TwoEqualJobsShareOneCore) {
  EventQueue q;
  PsResource cpu(q, 1);
  double a = -1.0;
  double b = -1.0;
  cpu.submit(1.0, [&] { a = q.now(); });
  cpu.submit(1.0, [&] { b = q.now(); });
  q.run_until(10.0);
  // Each progresses at rate 1/2: both finish at t = 2.
  EXPECT_NEAR(a, 2.0, 1e-9);
  EXPECT_NEAR(b, 2.0, 1e-9);
}

TEST(PsResource, MultiCoreRunsJobsInParallel) {
  EventQueue q;
  PsResource cpu(q, 2);
  double a = -1.0;
  double b = -1.0;
  cpu.submit(1.0, [&] { a = q.now(); });
  cpu.submit(1.0, [&] { b = q.now(); });
  q.run_until(10.0);
  EXPECT_NEAR(a, 1.0, 1e-9);
  EXPECT_NEAR(b, 1.0, 1e-9);
}

TEST(PsResource, UnequalJobsFinishInDemandOrder) {
  EventQueue q;
  PsResource cpu(q, 1);
  double small = -1.0;
  double big = -1.0;
  cpu.submit(1.0, [&] { small = q.now(); });
  cpu.submit(3.0, [&] { big = q.now(); });
  q.run_until(100.0);
  // Shared until the small job completes at t=2 (each got rate 1/2),
  // then the big one finishes its remaining 2 units alone at t=4.
  EXPECT_NEAR(small, 2.0, 1e-9);
  EXPECT_NEAR(big, 4.0, 1e-9);
}

TEST(PsResource, LateArrivalSharesRemainingWork) {
  EventQueue q;
  PsResource cpu(q, 1);
  double first = -1.0;
  double second = -1.0;
  cpu.submit(2.0, [&] { first = q.now(); });
  q.schedule_at(1.0, [&] { cpu.submit(0.5, [&] { second = q.now(); }); });
  q.run_until(100.0);
  // t=1: first has 1.0 left; both share: second (0.5) completes at t=2,
  // first then has 0.5 left, completes at 2.5.
  EXPECT_NEAR(second, 2.0, 1e-9);
  EXPECT_NEAR(first, 2.5, 1e-9);
}

TEST(PsResource, SlowdownStretchesService) {
  EventQueue q;
  PsResource cpu(q, 1, [](int n) { return n >= 2 ? 2.0 : 1.0; });
  double a = -1.0;
  double b = -1.0;
  cpu.submit(1.0, [&] { a = q.now(); });
  cpu.submit(1.0, [&] { b = q.now(); });
  q.run_until(100.0);
  // Two jobs: rate 1/2 each, further halved by slowdown 2 -> finish at 4.
  EXPECT_NEAR(a, 4.0, 1e-9);
  EXPECT_NEAR(b, 4.0, 1e-9);
}

TEST(PsResource, SetCoresTakesEffectImmediately) {
  EventQueue q;
  PsResource cpu(q, 1);
  double a = -1.0;
  double b = -1.0;
  cpu.submit(2.0, [&] { a = q.now(); });
  cpu.submit(2.0, [&] { b = q.now(); });
  q.schedule_at(1.0, [&] { cpu.set_cores(2); });
  q.run_until(100.0);
  // Until t=1 each runs at 1/2 (0.5 done); after, each at full rate:
  // remaining 1.5 -> both done at 2.5.
  EXPECT_NEAR(a, 2.5, 1e-9);
  EXPECT_NEAR(b, 2.5, 1e-9);
}

TEST(PsResource, CompletionHandlerCanResubmit) {
  EventQueue q;
  PsResource cpu(q, 1);
  double second_done = -1.0;
  cpu.submit(1.0, [&] {
    cpu.submit(1.0, [&] { second_done = q.now(); });
  });
  q.run_until(100.0);
  EXPECT_NEAR(second_done, 2.0, 1e-9);
}

TEST(PsResource, WorkDoneAccounting) {
  EventQueue q;
  PsResource cpu(q, 4);
  cpu.submit(1.0, [] {});
  cpu.submit(2.0, [] {});
  q.run_until(100.0);
  EXPECT_NEAR(cpu.work_done(), 3.0, 1e-6);
  EXPECT_EQ(cpu.active_jobs(), 0);
}

TEST(PsResource, ZeroDemandJobStillCompletesAsynchronously) {
  EventQueue q;
  PsResource cpu(q, 1);
  bool done = false;
  cpu.submit(0.0, [&] { done = true; });
  EXPECT_FALSE(done);  // not synchronous
  q.run_until(1.0);
  EXPECT_TRUE(done);
}

TEST(PsResource, SubUlpRemainderCompletesPastTwoToTheFourteenSeconds) {
  // Past 2^14 s half an ulp of the clock exceeds the 1e-12 completion
  // epsilon: a remainder of 1.7e-12 at rate 1/1.05 is 1.785e-12 of virtual
  // time, which `now + delay` rounds back to `now`. The completion timer
  // must finish the job instead of rescheduling itself at `now` forever;
  // the step cap turns a regression into a failure rather than a hang.
  EventQueue q;
  q.run_until(20000.0);
  PsResource cpu(q, 1, [](int) { return 1.05; });
  bool done = false;
  cpu.submit(1.7e-12, [&] { done = true; });
  for (int steps = 0; steps < 1000 && !done && q.step(); ++steps) {
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(cpu.active_jobs(), 0);
  EXPECT_EQ(q.now(), 20000.0);
}

TEST(PsResource, RejectsInvalidArguments) {
  EventQueue q;
  EXPECT_THROW(PsResource(q, 0), std::invalid_argument);
  PsResource cpu(q, 1);
  EXPECT_THROW(cpu.submit(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(cpu.submit(1.0, EventFn{}), std::invalid_argument);
  EXPECT_THROW(cpu.set_cores(0), std::invalid_argument);
}

}  // namespace
}  // namespace rac::tiersim
