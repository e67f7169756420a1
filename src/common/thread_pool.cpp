#include "src/common/thread_pool.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace kconv {

namespace {

/// Set once per worker thread, for ThreadPool::current().
thread_local ThreadPool* tls_pool = nullptr;

}  // namespace

u32 ThreadPool::resolve_threads(u32 requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool* ThreadPool::current() { return tls_pool; }

ThreadPool::ThreadPool(u32 threads) {
  const u32 n = resolve_threads(threads);
  workers_.reserve(n);
  for (u32 i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Job* ThreadPool::open_job() const {
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    if ((*it)->open()) return *it;
  }
  return nullptr;
}

void ThreadPool::drain(Job& job, bool helper) {
  // Claim chunks until the job's counter runs dry (the "stealing": fast
  // threads keep claiming whatever slower ones have not).
  u64 ran = 0;
  std::exception_ptr err;
  while (true) {
    const u64 c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) break;
    const u64 b = job.begin + c * job.grain;
    const u64 e = std::min(b + job.grain, job.end);
    try {
      (*job.body)(b, e, static_cast<u32>(c));
    } catch (...) {
      if (!err) err = std::current_exception();
    }
    ++ran;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (helper) --job.helpers;
  job.finished += ran;
  if (err && !job.error) job.error = err;
  if (job.retired()) done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Job* job = nullptr;
    work_cv_.wait(lock, [&] {
      job = stop_ ? nullptr : open_job();
      return stop_ || job != nullptr;
    });
    if (stop_) return;
    // A registered helper keeps the job from retiring (and its caller's
    // frame from unwinding) until it has booked its chunks.
    ++job->helpers;
    lock.unlock();
    drain(*job, /*helper=*/true);
    lock.lock();
  }
}

void ThreadPool::parallel_for(u64 begin, u64 end, u64 grain,
                              const ChunkBody& body) {
  if (end <= begin) return;
  KCONV_CHECK(grain >= 1, "parallel_for grain must be positive");

  Job job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  job.grain = grain;
  job.n_chunks = (end - begin + grain - 1) / grain;

  std::unique_lock<std::mutex> lock(mu_);
  jobs_.push_back(&job);
  work_cv_.notify_all();
  if (tls_pool == this) {
    // Nested job: the calling worker drains it too, so it completes even
    // when no other worker is idle.
    lock.unlock();
    drain(job, /*helper=*/false);
    lock.lock();
  }
  done_cv_.wait(lock, [&] { return job.retired(); });
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  const std::exception_ptr err = job.error;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace kconv
