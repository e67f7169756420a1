// A small chunked work-stealing thread pool for host-side parallelism.
//
// The simulator executes thread blocks serially within a worker, but blocks
// are independent (CUDA semantics: no inter-block ordering), so a launch can
// shard its block list across host threads. The pool hands out contiguous
// chunks from a shared atomic counter — workers that finish early steal the
// remaining chunks, so ragged per-chunk costs still load-balance — while the
// chunk *indices* stay deterministic, which is what lets callers keep
// per-chunk state (stats shards, cache replicas) and merge it in index
// order regardless of which worker ran which chunk.
//
// parallel_for is reentrant: a chunk body running on one of the pool's own
// workers may call it again (trace replay splits a large block's lanes this
// way, docs/MODEL.md §5b). The nested job is published to the same workers;
// idle ones join it, and the calling worker drains it too, so a nested job
// completes even when every other worker is busy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/types.hpp"

namespace kconv {

/// Persistent worker pool executing chunked parallel-for jobs.
///
/// Any number of jobs may be in flight: top-level jobs from outside threads
/// (each caller blocks until its own job drained) and nested jobs published
/// by the pool's workers. Idle workers always take the newest job that
/// still has unclaimed chunks. The workers survive across jobs so repeated
/// launches do not pay thread creation.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(u32 threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  u32 size() const { return static_cast<u32>(workers_.size()); }

  /// The body of one contiguous chunk: [begin, end) plus the chunk index.
  using ChunkBody = std::function<void(u64 begin, u64 end, u32 chunk)>;

  /// Splits [begin, end) into chunks of at most `grain` items and runs
  /// `body` on the workers (chunk k covers [begin + k*grain, ...)). Blocks
  /// until every chunk finished; rethrows the first exception a body threw
  /// (remaining chunks still run to completion first). Called from one of
  /// this pool's workers, the caller drains the job alongside any idle
  /// workers; called from any other thread, only the workers run chunks.
  void parallel_for(u64 begin, u64 end, u64 grain, const ChunkBody& body);

  /// The pool the calling thread is a worker of, or nullptr.
  static ThreadPool* current();

  /// Maps a user-facing thread-count request to an actual count:
  /// 0 = hardware concurrency (at least 1), anything else verbatim.
  static u32 resolve_threads(u32 requested);

 private:
  /// One in-flight parallel_for, owned by its caller's stack frame. The
  /// descriptor fields are immutable once published; `finished`, `helpers`
  /// and `error` are guarded by mu_.
  struct Job {
    const ChunkBody* body = nullptr;
    u64 begin = 0;
    u64 end = 0;
    u64 grain = 1;
    u64 n_chunks = 0;
    std::atomic<u64> next_chunk{0};
    u64 finished = 0;  // chunks run to completion
    u32 helpers = 0;   // workers currently draining this job
    std::exception_ptr error;

    bool open() const {
      return next_chunk.load(std::memory_order_relaxed) < n_chunks;
    }
    bool retired() const { return finished == n_chunks && helpers == 0; }
  };

  void worker_loop();
  /// Newest published job with unclaimed chunks (mu_ held), or nullptr.
  Job* open_job() const;
  /// Claims and runs chunks of `job` until none are left, then books the
  /// finished chunks and the first error into the job under mu_ (a
  /// `helper` also deregisters itself there).
  void drain(Job& job, bool helper);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: new job / shutdown
  std::condition_variable done_cv_;  // signals callers: a job drained
  std::vector<Job*> jobs_;           // published, not yet retired; newest last
  bool stop_ = false;
};

}  // namespace kconv
