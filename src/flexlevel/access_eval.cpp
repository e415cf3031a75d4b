#include "flexlevel/access_eval.h"

#include <algorithm>

#include "common/assert.h"

namespace flex::flexlevel {

bool ReducedCellPool::touch(std::uint64_t lpn) {
  if (!contains(lpn)) return false;
  const auto index = static_cast<std::uint32_t>(lpn);
  if (head_ != index) {
    unlink(index);
    link_front(index);
  }
  return true;
}

void ReducedCellPool::push_front(std::uint64_t lpn) {
  FLEX_EXPECTS(lpn < kNil);
  FLEX_EXPECTS(!contains(lpn));
  if (lpn >= links_.size()) links_.resize(lpn + 1);
  link_front(static_cast<std::uint32_t>(lpn));
  ++size_;
}

bool ReducedCellPool::erase(std::uint64_t lpn) {
  if (!contains(lpn)) return false;
  const auto index = static_cast<std::uint32_t>(lpn);
  unlink(index);
  links_[index] = Link{};
  --size_;
  return true;
}

std::uint64_t ReducedCellPool::pop_back() {
  FLEX_EXPECTS(tail_ != kNil);
  const std::uint32_t lpn = tail_;
  erase(lpn);
  return lpn;
}

void ReducedCellPool::clear() {
  std::fill(links_.begin(), links_.end(), Link{});
  head_ = kNil;
  tail_ = kNil;
  size_ = 0;
}

void ReducedCellPool::link_front(std::uint32_t lpn) {
  links_[lpn] = Link{.prev = kNil, .next = head_};
  if (head_ != kNil) links_[head_].prev = lpn;
  head_ = lpn;
  if (tail_ == kNil) tail_ = lpn;
}

void ReducedCellPool::unlink(std::uint32_t lpn) {
  const Link link = links_[lpn];
  if (link.prev != kNil) {
    links_[link.prev].next = link.next;
  } else {
    head_ = link.next;
  }
  if (link.next != kNil) {
    links_[link.next].prev = link.prev;
  } else {
    tail_ = link.prev;
  }
}

AccessEval::AccessEval(Config config)
    : config_(config), hotness_(config.hotness) {
  FLEX_EXPECTS(config_.freq_levels >= 1);
  FLEX_EXPECTS(config_.sensing_buckets >= 1);
  FLEX_EXPECTS(config_.pool_capacity_pages >= 1);
}

int AccessEval::freq_level(int hotness_count) const {
  FLEX_EXPECTS(hotness_count >= 0);
  // Map [0, filter_count] onto [1, N] proportionally: appearing in half the
  // window filters reaches the top level when N == 2 (Park & Du [13] treat
  // presence in multiple filters as hot).
  const int filters = hotness_.filter_count();
  const int scaled = hotness_count * config_.freq_levels / filters;
  return 1 + std::min(scaled, config_.freq_levels - 1);
}

int AccessEval::sensing_level_bucket(int extra_sensing_levels) const {
  FLEX_EXPECTS(extra_sensing_levels >= 0);
  if (extra_sensing_levels == 0) return 1;
  // Nonzero soft levels spread across the remaining buckets; with M == 2
  // any soft read lands in the top bucket, matching the paper's setup.
  const int bucket = 2 + (extra_sensing_levels - 1) / 2;
  return std::min(bucket, config_.sensing_buckets);
}

AccessDecision AccessEval::on_read(std::uint64_t lpn,
                                   int extra_sensing_levels) {
  const int count = hotness_.record(lpn);
  AccessDecision decision;
  // One lookup does both the membership test and the recency refresh.
  if (pool_.touch(lpn)) return decision;
  const int overhead =
      freq_level(count) * sensing_level_bucket(extra_sensing_levels);
  bool qualifies = overhead > config_.overhead_threshold;
  if (qualifies) {
    // Graduated hysteresis: migrations cost writes (Fig. 7), so admission
    // tightens as the pool fills — half-full pools demand presence in most
    // window filters, and a full pool (where admission also evicts) only
    // churns for data hot in every filter. Without this, a hot set larger
    // than the pool causes continuous migration thrash.
    const int filters = hotness_.filter_count();
    const double fill = static_cast<double>(pool_.size()) /
                        static_cast<double>(config_.pool_capacity_pages);
    if (fill >= 0.95) {
      qualifies = count >= filters;
    } else if (fill >= 0.5) {
      qualifies = count >= filters / 2 + 1;
    }
  }
  if (qualifies) {
    decision.migrate_to_reduced = true;
    decision.evicted = insert(lpn);
  }
  return decision;
}

std::vector<std::uint64_t> AccessEval::shrink_capacity(
    std::uint64_t new_capacity) {
  new_capacity = std::max<std::uint64_t>(new_capacity, 1);
  if (new_capacity < config_.pool_capacity_pages) {
    config_.pool_capacity_pages = new_capacity;
  }
  std::vector<std::uint64_t> evicted;
  while (pool_.size() > config_.pool_capacity_pages) {
    evicted.push_back(pool_.pop_back());
  }
  return evicted;
}

std::vector<std::uint64_t> AccessEval::rebuild_pool(
    const std::vector<std::uint64_t>& lpns) {
  pool_.clear();
  hotness_.reset();
  std::vector<std::uint64_t> overflow;
  for (const std::uint64_t lpn : lpns) {
    if (pool_.size() >= config_.pool_capacity_pages) {
      overflow.push_back(lpn);
      continue;
    }
    // push_front like insert(): the last-registered lpn reads as most
    // recent, and ascending registration keeps rebuilds deterministic.
    pool_.push_front(lpn);
  }
  FLEX_ENSURES(pool_.size() <= config_.pool_capacity_pages);
  return overflow;
}

void AccessEval::on_invalidate(std::uint64_t lpn) { pool_.erase(lpn); }

bool AccessEval::is_reduced(std::uint64_t lpn) const {
  return pool_.contains(lpn);
}

std::optional<std::uint64_t> AccessEval::insert(std::uint64_t lpn) {
  FLEX_EXPECTS(!is_reduced(lpn));
  std::optional<std::uint64_t> evicted;
  if (pool_.size() >= config_.pool_capacity_pages) {
    // Convert the least-recently-read reduced page back to normal state.
    evicted = pool_.pop_back();
  }
  pool_.push_front(lpn);
  FLEX_ENSURES(pool_.size() <= config_.pool_capacity_pages);
  return evicted;
}

}  // namespace flex::flexlevel
