#include "rcr/rt/thread_pool.hpp"

#include "rcr/obs/obs.hpp"

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

namespace rcr::rt {

namespace {
thread_local bool tl_on_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || workers_.empty())
      throw std::runtime_error("ThreadPool::submit: pool unavailable");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  // Recorded outside the lock: the submitter, not the pool, pays for it.
  obs::counter_add("rcr.runtime.tasks");
  obs::histogram_observe("rcr.runtime.queue_depth",
                         static_cast<double>(depth));
}

bool ThreadPool::on_worker_thread() { return tl_on_worker; }

void ThreadPool::worker_loop() {
  tl_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("RCR_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 1024)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: intentional process lifetime

ThreadPool& locked_pool(std::size_t total) {
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(total > 0 ? total - 1 : 0);
  return *g_pool;
}
}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  // RCR_THREADS is read only when the pool is created, not on every lookup.
  return g_pool ? *g_pool : locked_pool(default_thread_count());
}

void set_global_threads(std::size_t total) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool.reset();
  locked_pool(total == 0 ? 1 : total);
}

std::size_t global_threads() { return global_pool().size() + 1; }

}  // namespace rcr::rt
