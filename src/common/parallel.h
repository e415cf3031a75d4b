// The one worker pool: runs independent indexed tasks across threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace flex {

/// Calls `body(i)` for every i in [0, count) on up to `jobs` threads
/// (jobs <= 1 or count <= 1: serially, in index order, on the calling
/// thread; jobs == 0: one per hardware thread). The calling thread is one
/// of the workers. Indices are handed out work-stealing from a shared
/// counter, so `body` must be safe to call from any thread and each
/// index's effect must not depend on which thread ran it or when.
template <typename Body>
void parallel_for(std::size_t count, int jobs, const Body& body) {
  if (jobs == 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      body(i);
    }
  };
  const auto threads =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), count);
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
}

}  // namespace flex
