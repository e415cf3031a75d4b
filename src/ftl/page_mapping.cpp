#include "ftl/page_mapping.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/assert.h"

namespace flex::ftl {

namespace {

/// splitmix64 finalizer — derives the nonzero transient-flip delta a
/// silent corruption XORs into the delivered CRC (any nonzero value
/// models "some bits differ"; deriving it from the read identity keeps
/// distinct corruptions distinct).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Prefetches the cache line holding `p` into every level. On x86-64 a
/// volatile asm: GCC counts __builtin_prefetch as free of side effects, so
/// a function made only of loads and prefetches can be found pure and its
/// void calls deleted (gcc 12 -O2 did exactly that; DESIGN.md §2.6).
/// Always inlined, so the instruction sits in PageMappingFtl::prefetch at
/// every optimisation level, -O0 included, where the codegen test looks.
[[gnu::always_inline]] inline void prefetch_line(const void* p) {
#if defined(__x86_64__)
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p);
#endif
}

}  // namespace

PageMappingFtl::PageMappingFtl(FtlConfig config)
    : config_(config),
      payload_(config.integrity_seed, config.integrity_payload_words) {
  // map_ holds every ppn in 32 bits with kUnmappedPpn as the sentinel, and
  // OOB records every lpn with kInvalidLpn (equal to it): logical pages
  // never exceed total pages, so this one bound covers both.
  static_assert(kInvalidLpn == kUnmappedPpn);
  FLEX_EXPECTS(config_.spec.total_pages() < kUnmappedPpn);
  FLEX_EXPECTS(config_.over_provisioning > 0.0 &&
               config_.over_provisioning < 1.0);
  FLEX_EXPECTS(config_.gc_low_watermark >= 2);

  const std::uint64_t total_blocks =
      static_cast<std::uint64_t>(config_.spec.chips) *
      config_.spec.blocks_per_chip;
  FLEX_EXPECTS(total_blocks > config_.gc_low_watermark * 4);
  blocks_.resize(total_blocks);
  for (auto& block : blocks_) {
    block.erase_count = config_.initial_pe_cycles;
  }
  valid_.assign((config_.spec.total_pages() + 63) / 64, 0);
  if ((config_.spec.pages_per_block & (config_.spec.pages_per_block - 1)) ==
      0) {
    page_shift_ = 0;
    while ((1u << page_shift_) < config_.spec.pages_per_block) ++page_shift_;
  }
  std::size_t ring_capacity = 1;
  while (ring_capacity < total_blocks + 1) ring_capacity *= 2;
  free_ring_.assign(ring_capacity, 0);
  free_mask_ = ring_capacity - 1;
  for (std::uint64_t i = 0; i < total_blocks; ++i) {
    free_push(static_cast<std::uint32_t>(i));
  }

  logical_pages_ = logical_pages_of(config_);
  map_.assign(logical_pages_, kUnmappedPpn);
  gc_buckets_.resize(config_.spec.pages_per_block + 1);
  gc_bucket_pos_.assign(total_blocks, 0);
  // The medium: factory-fresh OOB areas and summary pages carrying the
  // pre-aged erase counts.
  oob_.assign(config_.spec.total_pages(), OobRecord{});
  summaries_.assign(total_blocks,
                    BlockSummary{.erase_count = config_.initial_pe_cycles});
  if (config_.integrity) {
    FLEX_EXPECTS(config_.integrity_payload_words >= 1);
    seals_.assign(config_.spec.total_pages(), 0);
  }
  version_.assign(logical_pages_, 0);
}

std::uint64_t PageMappingFtl::logical_pages_of(const FtlConfig& config) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(config.spec.total_pages()) *
                 (1.0 - config.over_provisioning)));
}

void PageMappingFtl::clear_block_pages(std::uint32_t block_id) {
  const std::uint64_t base = make_ppn(block_id, 0);
  for (std::uint32_t p = 0; p < config_.spec.pages_per_block; ++p) {
    clear_page_valid(base + p);
  }
}

void PageMappingFtl::candidate_insert(std::uint32_t block_id) {
  FLEX_ASSERT(!blocks_[block_id].retired);
  auto& bucket = gc_buckets_[blocks_[block_id].valid_count];
  gc_bucket_pos_[block_id] = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(block_id);
}

void PageMappingFtl::candidate_remove(std::uint32_t block_id,
                                      std::uint32_t old_valid) {
  auto& bucket = gc_buckets_[old_valid];
  const std::uint32_t pos = gc_bucket_pos_[block_id];
  FLEX_ASSERT(pos < bucket.size() && bucket[pos] == block_id);
  bucket[pos] = bucket.back();
  gc_bucket_pos_[bucket[pos]] = pos;
  bucket.pop_back();
}

std::uint32_t PageMappingFtl::usable_pages(const BlockMeta& block) const {
  if (block.mode == PageMode::kNormal) return config_.spec.pages_per_block;
  return static_cast<std::uint32_t>(
      std::floor(config_.spec.pages_per_block * kReducedCapacityFactor));
}

std::optional<PageInfo> PageMappingFtl::lookup(std::uint64_t lpn) const {
  FLEX_EXPECTS(lpn < logical_pages_);
  const std::uint64_t ppn = mapped_ppn(lpn);
  if (ppn == kInvalid) return std::nullopt;
  const BlockMeta& block = blocks_[block_of(ppn)];
  FLEX_ASSERT(page_lpn(ppn) == lpn);
  return PageInfo{.ppn = ppn,
                  .mode = block.mode,
                  .write_time = oob_[ppn].write_time,
                  .pe_cycles = block.erase_count,
                  .block_reads = block.read_count};
}

void PageMappingFtl::prefetch(std::uint64_t lpn) const {
  FLEX_EXPECTS(lpn < logical_pages_);
  const std::uint64_t ppn = mapped_ppn(lpn);
  if (ppn == kInvalid) return;
  // lookup() reads bytes 0-11 of the 24-byte OOB record and all of the
  // 24-byte BlockMeta; one record in eight straddles a line, so the last
  // byte read gets a prefetch of its own.
  const auto* oob = reinterpret_cast<const char*>(&oob_[ppn]);
  prefetch_line(oob);
  prefetch_line(oob + 11);
  const auto* block = reinterpret_cast<const char*>(&blocks_[block_of(ppn)]);
  prefetch_line(block);
  prefetch_line(block + sizeof(BlockMeta) - 1);
}

void PageMappingFtl::record_read(std::uint64_t ppn) {
  ++blocks_[block_of(ppn)].read_count;
}

std::uint64_t PageMappingFtl::block_read_count(std::uint64_t ppn) const {
  return blocks_[block_of(ppn)].read_count;
}

void PageMappingFtl::invalidate(std::uint64_t lpn) {
  const std::uint64_t ppn = mapped_ppn(lpn);
  if (ppn == kInvalid) return;
  const std::uint32_t block_id = block_of(ppn);
  BlockMeta& block = blocks_[block_id];
  FLEX_ASSERT(page_lpn(ppn) == lpn);
  clear_page_valid(ppn);
  FLEX_ASSERT(block.valid_count > 0);
  const bool closed = !block.open && block.next_page > 0;
  if (closed) {
    // Fused candidate_remove + candidate_insert for the adjacent-bucket
    // move (valid -> valid-1): same swap-remove-then-push-back sequence,
    // one gc_bucket_pos_ round-trip instead of two.
    auto& old_bucket = gc_buckets_[block.valid_count];
    const std::uint32_t pos = gc_bucket_pos_[block_id];
    FLEX_ASSERT(pos < old_bucket.size() && old_bucket[pos] == block_id);
    old_bucket[pos] = old_bucket.back();
    gc_bucket_pos_[old_bucket[pos]] = pos;
    old_bucket.pop_back();
    auto& new_bucket = gc_buckets_[block.valid_count - 1];
    gc_bucket_pos_[block_id] = static_cast<std::uint32_t>(new_bucket.size());
    new_bucket.push_back(block_id);
  }
  --block.valid_count;
  set_mapping(lpn, kInvalid);
}

std::uint32_t PageMappingFtl::allocate_block(PageMode mode) {
  for (;;) {
    FLEX_ASSERT(free_count_ > 0 && "FTL out of free blocks: GC failed");
    const std::uint32_t id = free_pop();
    BlockMeta& block = blocks_[id];
    FLEX_ASSERT(!block.retired);
    FLEX_ASSERT(block.valid_count == 0 && block.next_page == 0);
    if (injector_ && injector_->grown_defect(id, block.erase_count)) {
      ++stats_.grown_defects;
      mark_retired(id);
      continue;
    }
    block.mode = mode;
    block.open = true;
    return id;
  }
}

std::uint64_t PageMappingFtl::append(std::uint64_t lpn, PageMode mode,
                                     SimTime now, std::uint64_t* programs,
                                     bool relocation) {
  const auto mode_index = static_cast<std::size_t>(mode);
  for (;;) {
    std::uint32_t frontier = frontier_[mode_index];
    if (frontier == kNoBlock ||
        blocks_[frontier].next_page >= usable_pages(blocks_[frontier])) {
      if (frontier != kNoBlock) {
        blocks_[frontier].open = false;
        candidate_insert(frontier);
      }
      frontier = allocate_block(mode);
      frontier_[mode_index] = frontier;
    }
    BlockMeta& block = blocks_[frontier];
    const std::uint32_t page_id = block.next_page++;
    // A failed attempt still costs the chip a program op and burns the
    // page slot, so the attempt is counted before the fault check.
    ++stats_.nand_writes;
    ++*programs;
    if (injector_ && injector_->program_fails(make_ppn(frontier, page_id),
                                              block.erase_count)) {
      ++stats_.program_fails;
      retire_failed_frontier(frontier, now, programs);
      continue;  // re-drive the write on the fresh frontier
    }
    const std::uint64_t ppn = make_ppn(frontier, page_id);
    set_page_valid(ppn);
    ++block.valid_count;
    set_mapping(lpn, ppn);
    // The OOB record lands in the same page program as the data — atomic
    // with it, which is what makes last-epoch-wins recovery sound.
    FLEX_ASSERT(epoch_ < OobRecord::kEpochMask);
    OobRecord& oob = oob_[ppn];
    oob = OobRecord{.write_time = now,
                    .lpn = static_cast<std::uint32_t>(lpn),
                    .version = version_[lpn],
                    .tag = OobRecord::make_tag(++epoch_, block.mode)};
    if (config_.integrity) {
      // Seal the payload (claim == truth on a healthy program), then let
      // the silent-data fault kinds break it. Identity: a page slot is
      // programmed once per erase generation, so (ppn, erase_count) is
      // unique — the same discipline as program_fails.
      if (injector_ != nullptr &&
          injector_->misdirected_write(ppn, block.erase_count)) {
        // Data and seal went to some other page; this slot reports
        // success but stays unsealed garbage.
        ++stats_.misdirected_writes;
      } else {
        seals_[ppn] = payload_.crc(lpn, oob.version);
        oob.set_seal(SealState::kIntact);
        if (relocation && oob.version > 0 && injector_ != nullptr &&
            injector_->torn_relocation(ppn, block.erase_count)) {
          // Relocation DMA raced a host overwrite: the previous
          // generation's bytes land under the fresh seal.
          oob.set_seal(SealState::kTorn);
          ++stats_.torn_relocations;
        }
      }
    }
    return ppn;
  }
}

void PageMappingFtl::retire_failed_frontier(std::uint32_t block_id,
                                            SimTime now,
                                            std::uint64_t* programs) {
  BlockMeta& block = blocks_[block_id];
  FLEX_ASSERT(block.open && !block.retired);
  // Drop the frontier first: the relocations below must land elsewhere
  // (append will allocate a fresh block, re-checking for grown defects).
  if (frontier_[static_cast<std::size_t>(block.mode)] == block_id) {
    frontier_[static_cast<std::size_t>(block.mode)] = kNoBlock;
  }
  std::uint64_t moves = 0;
  relocate_valid_pages(block_id, now, &moves, programs);
  stats_.retire_page_moves += moves;
  clear_block_pages(block_id);
  block.next_page = 0;
  block.open = false;
  block.read_count = 0;
  mark_retired(block_id);
}

void PageMappingFtl::mark_retired(std::uint32_t block_id) {
  BlockMeta& block = blocks_[block_id];
  FLEX_ASSERT(!block.retired && block.valid_count == 0);
  block.retired = true;
  // Retirement is persisted in the summary page at once — a bad block
  // that came back from the dead after a crash would corrupt data. Its
  // OOB records are deliberately left in place: Mount skips retired
  // blocks when rebuilding the map (their live data was relocated, so a
  // newer-epoch copy exists) but still scans them for the epoch maximum.
  summaries_[block_id].retired = true;
  ++retired_count_;
  ++stats_.retired_blocks;
}

std::optional<std::uint32_t> PageMappingFtl::pick_gc_victim() const {
  // Greedy: the closed block with the fewest valid pages. Within a bucket,
  // the least-worn block is preferred, which doubles as wear leveling.
  for (const auto& bucket : gc_buckets_) {
    if (bucket.empty()) continue;
    // Bounded wear-leveling tiebreak: inspecting a handful of candidates
    // keeps victim selection O(1) while still steering GC toward less-worn
    // blocks. Fully-valid blocks (possible for reduced blocks, whose
    // usable slot count is lower) yield no space and are skipped.
    std::optional<std::uint32_t> best;
    const std::size_t scan = std::min<std::size_t>(bucket.size(), 32);
    for (std::size_t i = 0; i < scan; ++i) {
      const std::uint32_t id = bucket[i];
      if (blocks_[id].valid_count >= usable_pages(blocks_[id])) continue;
      if (!best || blocks_[id].erase_count < blocks_[*best].erase_count) {
        best = id;
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> PageMappingFtl::pick_wear_leveling_victim()
    const {
  // Least-worn closed block, whatever its valid count: its cold data is
  // what pins the wear imbalance. Linear scan, amortised by the interval.
  std::optional<std::uint32_t> best;
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    const BlockMeta& block = blocks_[id];
    if (block.open || block.retired || block.next_page == 0) continue;
    if (!best || block.erase_count < blocks_[*best].erase_count) best = id;
  }
  return best;
}

void PageMappingFtl::relocate_valid_pages(std::uint32_t block_id, SimTime now,
                                          std::uint64_t* page_moves,
                                          std::uint64_t* programs) {
  BlockMeta& victim = blocks_[block_id];
  const std::uint64_t base = make_ppn(block_id, 0);
  for (std::uint32_t p = 0; p < victim.next_page; ++p) {
    if (!page_valid(base + p)) continue;
    const std::uint64_t lpn = oob_[base + p].lpn;
    // Relocation reprograms the data into fresh cells, so its retention
    // clock restarts at `now`; only the logical identity is preserved.
    clear_page_valid(base + p);
    --victim.valid_count;
    set_mapping(lpn, kInvalid);
    append(lpn, victim.mode, now, programs, /*relocation=*/true);
    ++*page_moves;
  }
  FLEX_ASSERT(victim.valid_count == 0);
}

void PageMappingFtl::reclaim_block(std::uint32_t block_id, SimTime now,
                                   std::uint64_t* page_moves,
                                   std::uint64_t* programs) {
  BlockMeta& victim = blocks_[block_id];
  FLEX_ASSERT(!victim.retired);
  // Mark as open so relocation's invalidate path skips bucket updates.
  victim.open = true;
  relocate_valid_pages(block_id, now, page_moves, programs);
  clear_block_pages(block_id);
  victim.next_page = 0;
  victim.open = false;
  ++victim.erase_count;
  // Erase renews the cells: the accumulated pass-voltage stress is gone.
  victim.read_count = 0;
  ++stats_.nand_erases;
  // The summary page records the erase attempt either way (wear is real
  // even when the erase fails), so erase counts survive power loss.
  summaries_[block_id].erase_count = victim.erase_count;
  if (injector_ && injector_->erase_fails(block_id, victim.erase_count)) {
    // The erase failed: the block never returns to the free list, so the
    // GC loop (free count unchanged) simply reclaims another victim.
    ++stats_.erase_fails;
    mark_retired(block_id);
    return;
  }
  // A successful erase wipes the block's OOB records with the data.
  const std::uint64_t base = make_ppn(block_id, 0);
  std::fill_n(oob_.begin() + base, config_.spec.pages_per_block, OobRecord{});
  if (config_.integrity) {
    std::fill_n(seals_.begin() + base, config_.spec.pages_per_block, 0);
  }
  free_push(block_id);
}

void PageMappingFtl::maybe_garbage_collect(SimTime now,
                                           std::uint64_t* programs,
                                           std::uint64_t* erases) {
  while (free_count_ < config_.gc_low_watermark) {
    std::optional<std::uint32_t> victim_id;
    if (config_.static_wl_interval > 0 &&
        boot_gc_runs_ % config_.static_wl_interval ==
            config_.static_wl_interval - 1) {
      victim_id = pick_wear_leveling_victim();
    }
    if (!victim_id) victim_id = pick_gc_victim();
    FLEX_ASSERT(victim_id.has_value() &&
                "no GC victim: drive is over-committed");
    candidate_remove(*victim_id, blocks_[*victim_id].valid_count);
    ++stats_.gc_runs;
    ++boot_gc_runs_;
    std::uint64_t moves = 0;
    reclaim_block(*victim_id, now, &moves, programs);
    stats_.gc_page_moves += moves;
    ++*erases;
    if (telemetry::SpanRecorder* tracer =
            telemetry_ ? telemetry_->tracer() : nullptr) {
      tracer->record({.name = "gc",
                      .cat = "ftl",
                      .pid = telemetry_->pid,
                      .tid = telemetry::kFtlTrack,
                      .start = now,
                      .arg0_key = "pages_moved",
                      .arg0 = static_cast<double>(moves)});
    }
  }
}

std::optional<RefreshResult> PageMappingFtl::refresh_block(std::uint64_t ppn,
                                                           SimTime now) {
  const std::uint32_t block_id = block_of(ppn);
  if (blocks_[block_id].open || blocks_[block_id].retired ||
      blocks_[block_id].next_page == 0) {
    return std::nullopt;
  }
  RefreshResult result;
  // Top up free blocks first so the relocations below cannot exhaust the
  // frontier. GC may reclaim (and thereby renew, its read count cleared)
  // the target block itself or reopen it as a frontier; the refresh is
  // then moot (the GC side work stays accounted in stats_).
  maybe_garbage_collect(now, &result.page_programs, &result.erases);
  BlockMeta& block = blocks_[block_id];
  if (block.open || block.retired || block.next_page == 0) {
    return std::nullopt;
  }
  candidate_remove(block_id, block.valid_count);
  ++stats_.refresh_runs;
  std::uint64_t moves = 0;
  reclaim_block(block_id, now, &moves, &result.page_programs);
  stats_.refresh_page_moves += moves;
  result.pages_moved = moves;
  ++result.erases;
  return result;
}

WriteResult PageMappingFtl::write(std::uint64_t lpn, PageMode mode,
                                  SimTime now) {
  FLEX_EXPECTS(lpn < logical_pages_);
  WriteResult result;
  result.page_programs = 0;
  ++stats_.host_writes;
  // A host write is a new generation of the data; migrations and GC
  // relocations move a generation without bumping it.
  FLEX_ASSERT(version_[lpn] < ~0U && "u32 write generation overflow");
  ++version_[lpn];
  invalidate(lpn);
  maybe_garbage_collect(now, &result.page_programs, &result.erases);
  result.ppn = append(lpn, mode, now, &result.page_programs);
  result.mode = mode;
  return result;
}

WriteResult PageMappingFtl::migrate(std::uint64_t lpn, PageMode mode,
                                    SimTime now) {
  FLEX_EXPECTS(lpn < logical_pages_);
  FLEX_EXPECTS(mapped_ppn(lpn) != kInvalid);
  WriteResult result;
  result.page_programs = 0;
  ++stats_.mode_migrations;
  invalidate(lpn);
  maybe_garbage_collect(now, &result.page_programs, &result.erases);
  // A migration moves the existing generation between modes — a
  // relocation program, exposed to the torn-relocation fault like GC.
  result.ppn = append(lpn, mode, now, &result.page_programs,
                      /*relocation=*/true);
  result.mode = mode;
  return result;
}

WriteResult PageMappingFtl::repair(std::uint64_t lpn, SimTime now) {
  FLEX_EXPECTS(config_.integrity);
  FLEX_EXPECTS(lpn < logical_pages_);
  const std::uint64_t ppn = mapped_ppn(lpn);
  FLEX_EXPECTS(ppn != kInvalid);
  const PageMode mode = blocks_[block_of(ppn)].mode;
  WriteResult result;
  result.page_programs = 0;
  ++stats_.repair_writes;
  invalidate(lpn);
  maybe_garbage_collect(now, &result.page_programs, &result.erases);
  // Fresh current-generation data from the controller buffer (the array
  // regenerated it from a healthy replica): not a relocation, so the
  // torn fault cannot strike — though the program can still misdirect,
  // which is why read-repair scrubs until the copy verifies.
  result.ppn = append(lpn, mode, now, &result.page_programs);
  result.mode = mode;
  return result;
}

SealVerdict PageMappingFtl::verify_page(std::uint64_t lpn, std::uint64_t ppn,
                                        std::uint64_t block_reads) const {
  FLEX_EXPECTS(config_.integrity);
  FLEX_ASSERT(mapped_ppn(lpn) == ppn);
  const OobRecord& oob = oob_[ppn];
  SealVerdict verdict;
  if (oob.seal() == SealState::kNone) {
    // Expected a sealed page, found none (misdirected write): whatever
    // bytes are here, they are not ours and carry no matching seal.
    verdict.flagged = true;
    verdict.persistent = true;
    verdict.delivered_bad = true;
    return verdict;
  }
  const std::uint64_t expect_version = version_[lpn];
  const std::uint64_t payload_version = stored_version(oob);
  const std::uint64_t seal_crc = seals_[ppn];
  // The CRC of the bytes the cells hold: computed from the stored
  // payload's identity (the generator stands in for the page body).
  const std::uint64_t stored_crc = payload_.crc(oob.lpn, payload_version);
  // What this read actually delivers: the stored bytes, XOR-perturbed
  // when the read's transient post-ECC flip fires.
  std::uint64_t actual_crc = stored_crc;
  const bool transient_flip =
      injector_ != nullptr && injector_->silent_corruption(ppn, block_reads);
  if (transient_flip) {
    actual_crc ^= mix(ppn ^ (block_reads << 20)) | 1;
  }
  // Cross-checks: delivered bytes vs the seal's CRC claim, and the
  // seal's identity claim vs what the FTL/ledger expects of this read.
  const bool crc_ok = actual_crc == seal_crc;
  const bool identity_ok = oob.lpn == lpn && oob.version == expect_version;
  verdict.flagged = !crc_ok || !identity_ok;
  verdict.delivered_bad = transient_flip || oob.lpn != lpn ||
                          payload_version != expect_version;
  // Persistent iff the medium itself is wrong: re-delivering the same
  // cells without the transient flip would still fail the cross-check.
  verdict.persistent = !identity_ok || stored_crc != seal_crc;
  return verdict;
}

DataAudit PageMappingFtl::audit_data(std::uint64_t lpn,
                                     std::uint64_t version) const {
  FLEX_EXPECTS(config_.integrity);
  FLEX_EXPECTS(lpn < logical_pages_);
  const std::uint64_t ppn = mapped_ppn(lpn);
  FLEX_EXPECTS(ppn != kInvalid);
  const OobRecord& oob = oob_[ppn];
  const bool sealed = oob.seal() != SealState::kNone;
  const std::uint64_t payload_version = stored_version(oob);
  DataAudit audit;
  audit.seal_ok = sealed && oob.lpn == lpn && oob.version == version &&
                  seals_[ppn] == payload_.crc(oob.lpn, payload_version);
  audit.payload_ok = sealed && oob.lpn == lpn && payload_version == version;
  return audit;
}

MountReport PageMappingFtl::Mount(const MountOptions& options) {
  MountReport report;
  // Power loss wiped the volatile structures; mounting a live FTL discards
  // them the same way, which is what makes Mount idempotent.
  map_.assign(logical_pages_, kUnmappedPpn);
  version_.assign(logical_pages_, 0);
  free_head_ = 0;
  free_count_ = 0;
  frontier_[0] = kNoBlock;
  frontier_[1] = kNoBlock;
  for (auto& bucket : gc_buckets_) bucket.clear();
  std::fill(gc_bucket_pos_.begin(), gc_bucket_pos_.end(), 0);
  retired_count_ = 0;
  epoch_ = 0;

  // Per-block durable state first: summaries hold the erase counts and
  // the bad-block ledger.
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    BlockMeta& block = blocks_[id];
    block.erase_count = summaries_[id].erase_count;
    block.retired = summaries_[id].retired;
    block.mode = PageMode::kNormal;
    block.next_page = 0;
    block.valid_count = 0;
    block.open = false;
    block.read_count = 0;
    if (block.retired) ++retired_count_;
  }
  std::fill(valid_.begin(), valid_.end(), 0);

  // OOB scan, last-epoch-wins. Programmed records form a prefix of every
  // block (a failed program retires the block before any further program
  // there), so the scan stops at the first unprogrammed slot. Retired
  // blocks contribute to the epoch maximum only — their live data was
  // relocated before retirement (a newer copy exists elsewhere) or sits
  // behind a failed erase and cannot be trusted — but skipping their
  // epochs could make post-mount epochs regress below pre-crash ones.
  // The cleared map_ holds each lpn's winning ppn so far, and that
  // winner's own OOB record its epoch (epochs are unique).
  std::uint64_t live_records = 0;
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    BlockMeta& block = blocks_[id];
    const std::uint64_t base = make_ppn(id, 0);
    for (std::uint32_t p = 0; p < config_.spec.pages_per_block; ++p) {
      const OobRecord& oob = oob_[base + p];
      if (!oob.programmed()) break;
      ++report.pages_scanned;
      epoch_ = std::max(epoch_, oob.epoch());
      if (block.retired) continue;
      block.next_page = p + 1;
      block.mode = oob.mode();
      FLEX_ASSERT(oob.lpn < logical_pages_);
      const std::uint64_t winner = mapped_ppn(oob.lpn);
      if (winner == kInvalid || oob.epoch() > oob_[winner].epoch()) {
        set_mapping(oob.lpn, base + p);
      }
      ++live_records;
    }
  }

  // Install the winners (ascending lpn: reduced_lpns comes out sorted).
  for (std::uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    const std::uint64_t ppn = mapped_ppn(lpn);
    if (ppn == kInvalid) continue;
    const OobRecord& oob = oob_[ppn];
    version_[lpn] = oob.version;
    BlockMeta& block = blocks_[block_of(ppn)];
    set_page_valid(ppn);
    ++block.valid_count;
    ++report.mappings_recovered;
    if (oob.mode() == PageMode::kReduced) report.reduced_lpns.push_back(lpn);
  }
  report.stale_records = live_records - report.mappings_recovered;

  // Classify the in-service blocks. Ascending block id keeps the rebuilt
  // free list deterministic across repeated mounts (the pre-crash FIFO
  // order was volatile). Former write frontiers come back as closed data
  // blocks; append() opens fresh frontiers on demand.
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    BlockMeta& block = blocks_[id];
    if (block.retired) continue;
    if (block.next_page == 0) {
      free_push(id);
      ++report.free_blocks;
    } else {
      block.read_count = options.reseed_read_count;
      candidate_insert(id);
      ++report.data_blocks;
    }
  }
  report.retired_blocks = retired_count_;

  // Statistics are lifetime counts: the mount adds its own work and keeps
  // the rest. Every retirement was persisted when it happened, so the
  // event count still equals the recovered ledger.
  FLEX_ASSERT(stats_.retired_blocks == retired_count_);
  ++stats_.mounts;
  stats_.mount_pages_scanned += report.pages_scanned;
  stats_.mount_mappings_recovered += report.mappings_recovered;
  stats_.mount_stale_records += report.stale_records;
  boot_gc_runs_ = 0;
  return report;
}

Status PageMappingFtl::check_consistency() const {
  const auto fail = [](std::string message) {
    return Status::Internal(std::move(message));
  };
  for (std::uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    const std::uint64_t ppn = mapped_ppn(lpn);
    if (ppn == kInvalid) continue;
    const std::uint32_t block_id = block_of(ppn);
    const BlockMeta& block = blocks_[block_id];
    if (block.retired) {
      return fail("lpn " + std::to_string(lpn) + " maps into retired block " +
                  std::to_string(block_id));
    }
    const auto page_id =
        static_cast<std::uint32_t>(ppn % config_.spec.pages_per_block);
    if (page_id >= block.next_page) {
      return fail("lpn " + std::to_string(lpn) +
                  " maps past the write pointer of block " +
                  std::to_string(block_id));
    }
    if (page_lpn(ppn) != lpn) {
      return fail("lpn " + std::to_string(lpn) +
                  " maps to a page that does not map back (ppn " +
                  std::to_string(ppn) + ")");
    }
  }
  std::uint64_t mapped_pages = 0;
  std::uint32_t retired_seen = 0;
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    const BlockMeta& block = blocks_[id];
    if (block.retired) ++retired_seen;
    std::uint32_t valid_seen = 0;
    for (std::uint32_t p = 0; p < config_.spec.pages_per_block; ++p) {
      const std::uint64_t lpn = page_lpn(make_ppn(id, p));
      if (lpn == kInvalid) continue;
      ++valid_seen;
      ++mapped_pages;
      if (lpn >= logical_pages_ || mapped_ppn(lpn) != make_ppn(id, p)) {
        return fail("valid page in block " + std::to_string(id) +
                    " is not the mapped copy of lpn " + std::to_string(lpn));
      }
    }
    if (valid_seen != block.valid_count) {
      return fail("block " + std::to_string(id) + " valid_count " +
                  std::to_string(block.valid_count) + " but " +
                  std::to_string(valid_seen) + " valid pages");
    }
  }
  if (retired_seen != retired_count_) {
    return fail("retired ledger disagrees with block flags");
  }
  for (std::uint32_t i = 0; i < free_count_; ++i) {
    const std::uint32_t id = free_ring_[(free_head_ + i) & free_mask_];
    const BlockMeta& block = blocks_[id];
    if (block.retired || block.next_page != 0 || block.valid_count != 0) {
      return fail("free-listed block " + std::to_string(id) +
                  " is not an empty in-service block");
    }
  }
  std::uint64_t mapped_lpns = 0;
  for (std::uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    if (mapped_ppn(lpn) != kInvalid) ++mapped_lpns;
  }
  if (mapped_lpns != mapped_pages) {
    return fail("mapped lpn count disagrees with valid page count");
  }
  return Status::Ok();
}

std::vector<std::uint64_t> PageMappingFtl::double_mapped_lpns() const {
  // A double mapping is two valid physical copies claiming the same lpn —
  // the map_ table cannot show it (one entry per lpn), so count claims
  // from the physical side.
  std::vector<std::uint8_t> claims(logical_pages_, 0);
  std::vector<std::uint64_t> doubled;
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    const BlockMeta& block = blocks_[id];
    if (block.retired) continue;
    for (std::uint32_t p = 0; p < block.next_page; ++p) {
      const std::uint64_t lpn = page_lpn(make_ppn(id, p));
      if (lpn == kInvalid) continue;
      FLEX_ASSERT(lpn < logical_pages_);
      if (++claims[lpn] == 2) doubled.push_back(lpn);
    }
  }
  std::sort(doubled.begin(), doubled.end());
  return doubled;
}

std::vector<std::uint32_t> PageMappingFtl::retired_block_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(retired_count_);
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    if (blocks_[id].retired) ids.push_back(id);
  }
  return ids;
}

PageMappingFtl::~PageMappingFtl() {
  if (telemetry_) telemetry_->metrics.unbind(this);
}

void PageMappingFtl::attach_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry_) telemetry_->metrics.unbind(this);
  telemetry_ = telemetry;
  if (!telemetry_) return;
  for (const auto& [name, field] : kFtlStatsCounters) {
    telemetry_->metrics.bind(this, name,
                             [this, field] { return stats_.*field; });
  }
}

void PageMappingFtl::attach_fault_injector(
    const faults::FaultInjector* injector) {
  injector_ = injector;
}

std::uint32_t PageMappingFtl::min_erase_count() const {
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  for (const auto& block : blocks_) best = std::min(best, block.erase_count);
  return best;
}

std::uint32_t PageMappingFtl::max_erase_count() const {
  std::uint32_t best = 0;
  for (const auto& block : blocks_) best = std::max(best, block.erase_count);
  return best;
}

double PageMappingFtl::mean_erase_count() const {
  double sum = 0.0;
  for (const auto& block : blocks_) sum += block.erase_count;
  return sum / static_cast<double>(blocks_.size());
}

std::uint32_t PageMappingFtl::reduced_blocks() const {
  std::uint32_t count = 0;
  for (const auto& block : blocks_) {
    if (block.mode == PageMode::kReduced && block.next_page > 0) ++count;
  }
  return count;
}

}  // namespace flex::ftl
