// AccessEval (paper §5): decides which logical pages deserve reduced-state
// storage and bounds how many may hold it at once.
//
// Three components, as in the paper:
//  * the HLO (high-LDPC-overhead) identifier: read-frequency level L_f
//    (from the multi-Bloom hot-read identifier) times soft-sensing bucket
//    L_sensing; a product above the threshold marks the data HLO;
//  * the ReducedCell pool: a bounded LRU set of the pages currently kept in
//    reduced state (the paper caps it at 64 GB of a 256 GB drive), threaded
//    through an LPN-indexed link array so a read touches only its own
//    record and its list neighbours;
//  * the controller: on each read, classifies the page and emits the
//    migration/eviction decisions the FTL must carry out.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flexlevel/bloom.h"

namespace flex::flexlevel {

/// The ReducedCell pool's membership and recency: an exact LRU set of LPNs
/// threaded through one {prev, next} link pair per LPN (8 bytes). With no
/// hash index or node array, a hit touches only the page's link and its
/// list neighbours, and a miss one link. The link array grows to the
/// largest LPN ever admitted; LPNs past it are non-members. Order depends
/// only on the operation history.
class ReducedCellPool {
 public:
  std::uint64_t size() const { return size_; }
  bool contains(std::uint64_t lpn) const {
    return lpn < links_.size() && links_[lpn].prev != kAbsent;
  }
  /// Moves a member to the most-recent end; false for a non-member.
  bool touch(std::uint64_t lpn);
  /// Inserts a non-member as most recent.
  void push_front(std::uint64_t lpn);
  /// Removes `lpn`; false for a non-member.
  bool erase(std::uint64_t lpn);
  /// Evicts and returns the least-recently-read member (pool not empty).
  std::uint64_t pop_back();
  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xfffffffeu;     ///< list end
  static constexpr std::uint32_t kAbsent = 0xffffffffu;  ///< non-member

  struct Link {
    std::uint32_t prev = kAbsent;  ///< toward the most-recent end
    std::uint32_t next = kAbsent;  ///< toward the least-recent end
  };

  void link_front(std::uint32_t lpn);
  void unlink(std::uint32_t lpn);

  std::vector<Link> links_;  ///< by lpn
  std::uint32_t head_ = kNil;  ///< most recent
  std::uint32_t tail_ = kNil;  ///< least recent
  std::uint64_t size_ = 0;
};

/// What the FTL should do after a read completed.
struct AccessDecision {
  /// Store this page's data in a reduced-state page on its next placement.
  bool migrate_to_reduced = false;
  /// A page the pool evicted to make room; the FTL converts it back to a
  /// normal-state placement.
  std::optional<std::uint64_t> evicted = std::nullopt;
};

class AccessEval {
 public:
  struct Config {
    int freq_levels = 2;      ///< N in the paper (L_f in [1, N])
    int sensing_buckets = 2;  ///< M in the paper (L_sensing in [1, M])
    /// HLO iff L_f * L_sensing > threshold; with N = M = 2 the paper's
    /// intent (hot AND high-sensing) is product > 2.
    int overhead_threshold = 2;
    /// Maximum pages simultaneously held in reduced state (the pool size).
    std::uint64_t pool_capacity_pages = 1024;
    MultiBloomHotness::Config hotness;
  };

  explicit AccessEval(Config config);

  /// Records a completed read of `lpn` that needed `extra_sensing_levels`
  /// soft levels, and returns the controller's decision.
  AccessDecision on_read(std::uint64_t lpn, int extra_sensing_levels);

  /// A page's data was overwritten or trimmed: drop its pool membership
  /// (the new data starts cold in normal state).
  void on_invalidate(std::uint64_t lpn);

  bool is_reduced(std::uint64_t lpn) const;
  std::uint64_t pool_size() const { return pool_.size(); }
  std::uint64_t pool_capacity() const { return config_.pool_capacity_pages; }

  /// Shrinks the pool budget to `new_capacity` pages (floored at 1) and
  /// returns the LRU victims evicted to fit; the caller converts them back
  /// to normal state. Graceful degradation under block retirement: every
  /// retired block costs physical over-provisioning, so the ReducedCell
  /// budget gives it back. Shrink-only — a larger value is ignored
  /// (retirement is permanent).
  std::vector<std::uint64_t> shrink_capacity(std::uint64_t new_capacity);

  /// Power-on recovery: replaces the pool membership with `lpns` (the
  /// reduced-state survivors Mount() found on the medium, ascending) and
  /// forgets the hotness history — LRU order and Bloom filters are
  /// controller DRAM, so recovery is conservative: registration order
  /// stands in for recency and hotness re-learns from zero. LPNs past the
  /// pool budget are returned for the caller to migrate back to normal
  /// state (possible when a crash interrupted a shrink).
  std::vector<std::uint64_t> rebuild_pool(
      const std::vector<std::uint64_t>& lpns);

  /// L_f for a hotness count (exposed for tests).
  int freq_level(int hotness_count) const;
  /// L_sensing for an extra-sensing-level count (exposed for tests).
  int sensing_level_bucket(int extra_sensing_levels) const;

 private:
  std::optional<std::uint64_t> insert(std::uint64_t lpn);

  Config config_;
  MultiBloomHotness hotness_;
  ReducedCellPool pool_;
};

}  // namespace flex::flexlevel
