#include "tiersim/ps_resource.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/contracts.hpp"

namespace rac::tiersim {

namespace {
// Completions within this many virtual seconds of each other are batched to
// avoid scheduling storms from floating-point near-ties.
constexpr double kTimeEps = 1e-12;
}  // namespace

PsResource::PsResource(EventQueue& queue, int cores, SlowdownFn slowdown)
    : queue_(queue), cores_(cores), slowdown_(std::move(slowdown)) {
  if (cores < 1) throw std::invalid_argument("PsResource: cores must be >= 1");
  last_update_ = queue_.now();
}

double PsResource::per_job_rate() const {
  const int n = static_cast<int>(jobs_.size());
  if (n == 0) return 0.0;
  double rate = std::min(1.0, static_cast<double>(cores_) / n);
  if (slowdown_) {
    const double s = slowdown_(n);
    RAC_EXPECT(s >= 1.0, "PsResource: slowdown factor below 1");
    rate /= s;
  }
  return rate;
}

void PsResource::advance() {
  const double now = queue_.now();
  const double elapsed = now - last_update_;
  if (elapsed > 0.0 && !jobs_.empty()) {
    const double progress = elapsed * current_rate_;
    for (Job& job : jobs_) {
      job.remaining = std::max(0.0, job.remaining - progress);
    }
    work_done_ += progress * static_cast<double>(jobs_.size());
    job_seconds_ += elapsed * static_cast<double>(jobs_.size());
  }
  last_update_ = now;
}

void PsResource::reschedule() {
  queue_.cancel(completion_event_);
  completion_event_ = EventHandle{};
  current_rate_ = per_job_rate();
  if (jobs_.empty() || current_rate_ <= 0.0) return;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const Job& job : jobs_) {
    min_remaining = std::min(min_remaining, job.remaining);
  }
  const double delay = min_remaining / current_rate_;
  completion_event_ = queue_.schedule_in(delay, [this] { on_completion_timer(); });
}

void PsResource::on_completion_timer() {
  completion_event_ = EventHandle{};
  advance();
  // Collect everything that is (numerically) done, in submission order;
  // the survivors keep their relative order (remove_if is stable). Done
  // includes a remainder too small to advance the clock: past 2^14 s half
  // an ulp of `now` exceeds kTimeEps, and rescheduling would never progress.
  const double now = queue_.now();
  std::vector<EventFn> done;
  const auto it = std::remove_if(jobs_.begin(), jobs_.end(), [&](Job& job) {
    if (job.remaining > kTimeEps &&
        now + job.remaining / current_rate_ > now) {
      return false;
    }
    done.push_back(std::move(job.on_complete));
    return true;
  });
  jobs_.erase(it, jobs_.end());
  reschedule();
  // Fire completions after internal state is consistent; a completion
  // handler may immediately submit new work to this resource.
  for (auto& fn : done) fn();
}

JobId PsResource::submit(double demand, EventFn on_complete) {
  if (demand < 0.0) throw std::invalid_argument("PsResource: negative demand");
  if (!on_complete) throw std::invalid_argument("PsResource: empty callback");
  advance();
  const JobId id = next_id_++;
  // Zero-demand jobs still take one trip through the event loop so that
  // callers observe uniform asynchronous behaviour.
  jobs_.push_back(Job{std::max(demand, kTimeEps), std::move(on_complete)});
  reschedule();
  return id;
}

void PsResource::set_cores(int cores) {
  if (cores < 1) throw std::invalid_argument("PsResource: cores must be >= 1");
  advance();
  cores_ = cores;
  reschedule();
}

double PsResource::busy_job_seconds() const noexcept {
  // Include the in-progress span since the last update.
  return job_seconds_ + (queue_.now() - last_update_) *
                            static_cast<double>(jobs_.size());
}

}  // namespace rac::tiersim
