#include "util/thread_pool.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "util/log.hpp"

namespace rac::util {

namespace {

thread_local bool t_on_pool_worker = false;

// Raw clock reads are justified here: the timings feed PoolTelemetry
// (which obs wires into its registry), and util cannot depend on obs.
double elapsed_us(std::chrono::steady_clock::time_point start) {
  const auto end =
      std::chrono::steady_clock::now();  // rac-analyze: allow(untracked-timer)
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace

std::optional<std::size_t> parse_thread_count(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' || parsed < 1) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  const char* env = std::getenv("RAC_THREADS");
  if (env == nullptr) return fallback;
  if (const auto parsed = parse_thread_count(env)) return *parsed;
  log_warn("RAC_THREADS='", env,
           "' is not a positive integer; falling back to hardware "
           "concurrency (", fallback, ")");
  return fallback;
}

ThreadPool::ThreadPool(std::size_t threads, PoolTelemetry telemetry)
    : threads_(threads == 0 ? default_thread_count() : threads),
      telemetry_(std::move(telemetry)) {
  if (threads_ < 2) return;  // size-1 pools run everything inline
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_pool_worker; }

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::pair<Region*, std::size_t> item;
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      item = queue_.front();
      queue_.pop_front();
      depth = queue_.size();
    }
    if (telemetry_.queue_depth) telemetry_.queue_depth(depth);
    run_task(*item.first, item.second);
  }
}

void ThreadPool::run_task(Region& region, std::size_t index) {
  const auto start =
      std::chrono::steady_clock::now();  // rac-analyze: allow(untracked-timer)
  try {
    (*region.body)(index);
  } catch (...) {
    region.errors[index] = std::current_exception();
  }
  if (telemetry_.task_us) telemetry_.task_us(elapsed_us(start));
  {
    const std::lock_guard<std::mutex> lock(region.mutex);
    if (--region.remaining == 0) region.done.notify_all();
  }
}

void ThreadPool::run_inline(std::size_t n,
                            const std::function<void(std::size_t)>& body) {
  // Same decomposition and completion semantics as the pooled path: every
  // task runs, the lowest-index exception wins.
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto start =
        std::chrono::steady_clock::now();  // rac-analyze: allow(untracked-timer)
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (telemetry_.task_us) telemetry_.task_us(elapsed_us(start));
  }
  rethrow_first(errors);
}

void ThreadPool::rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_ < 2 || n == 1 || on_worker_thread()) {
    run_inline(n, body);
    return;
  }

  Region region;
  region.body = &body;
  region.remaining = n;
  region.errors.resize(n);

  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < n; ++i) queue_.emplace_back(&region, i);
    depth = queue_.size();
  }
  work_.notify_all();
  if (telemetry_.queue_depth) telemetry_.queue_depth(depth);

  {
    std::unique_lock<std::mutex> lock(region.mutex);
    region.done.wait(lock, [&region] { return region.remaining == 0; });
  }
  rethrow_first(region.errors);
}

}  // namespace rac::util
