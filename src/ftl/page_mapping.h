// Page-level-mapping flash translation layer with greedy garbage
// collection, erase-count-aware victim selection, and dual write frontiers
// (normal-state and reduced-state blocks).
//
// This is the FlashSim-equivalent substrate the paper modifies: AccessEval
// asks it to place data in reduced-state blocks, which hold only 3/4 of the
// logical pages of a normal block (ReduceCode's 3-bits-per-2-cells
// density), shrinking the effective over-provisioning — the mechanism
// behind LevelAdjust-only's GC penalty in Fig. 6(a).
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "faults/fault_injector.h"
#include "ftl/payload.h"
#include "nand/geometry.h"
#include "telemetry/telemetry.h"

namespace flex::ftl {

/// Storage state of a physical block / page.
enum class PageMode : std::uint8_t { kNormal, kReduced };

/// Logical pages a reduced-state block can hold, as a fraction of
/// pages_per_block (ReduceCode: 3 bits per 2 cells = 0.75, Table 1).
inline constexpr double kReducedCapacityFactor = 0.75;

struct FtlConfig {
  nand::NandSpec spec;
  /// Fraction of raw capacity reserved as over-provisioning (paper: 27%).
  double over_provisioning = 0.27;
  /// GC starts when the free-block count drops to this level.
  std::uint32_t gc_low_watermark = 8;
  /// P/E cycles already on every block at simulation start (pre-aging).
  std::uint32_t initial_pe_cycles = 0;
  /// Static wear leveling: every this-many GC victims, the least-worn
  /// closed block is reclaimed instead of the greedy choice, so blocks
  /// pinned by cold data still circulate. 0 disables.
  std::uint32_t static_wl_interval = 64;
  /// End-to-end integrity: carry a per-page payload identity + CRC64 seal
  /// alongside the OOB record of every program (derived by the simulator
  /// from SsdConfig::integrity — set there, not here). Off keeps the seal
  /// medium empty and every write path byte-identical.
  bool integrity = false;
  /// PayloadModel seed (the simulator passes its run seed).
  std::uint64_t integrity_seed = 0;
  /// 8-byte payload words per page (the modeled page body).
  std::uint32_t integrity_payload_words = 8;
};

struct FtlStats {
  std::uint64_t host_writes = 0;   ///< logical page writes accepted
  std::uint64_t nand_writes = 0;   ///< physical page programs (incl. GC)
  std::uint64_t nand_erases = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_page_moves = 0;
  std::uint64_t mode_migrations = 0;  ///< explicit normal<->reduced rewrites
  std::uint64_t refresh_runs = 0;        ///< read-disturb block refreshes
  std::uint64_t refresh_page_moves = 0;  ///< valid pages relocated by them
  // Fault handling (all zero unless a FaultInjector is attached).
  std::uint64_t program_fails = 0;  ///< program-status failures absorbed
  std::uint64_t erase_fails = 0;    ///< erase failures absorbed
  std::uint64_t grown_defects = 0;  ///< blocks found defective at allocation
  std::uint64_t retired_blocks = 0;     ///< blocks taken out of service
  std::uint64_t retire_page_moves = 0;  ///< valid pages rescued off them
  // Power-on recovery (all zero until Mount() runs). Every counter of this
  // struct counts over the FTL's lifetime: Mount() adds its own work and
  // resets nothing, so a window's delta spans any mounts inside it.
  std::uint64_t mounts = 0;
  std::uint64_t mount_pages_scanned = 0;       ///< OOB records read
  std::uint64_t mount_mappings_recovered = 0;  ///< L2P entries rebuilt
  std::uint64_t mount_stale_records = 0;       ///< lost last-epoch-wins
  // End-to-end integrity (all zero unless integrity + an injector are on).
  std::uint64_t misdirected_writes = 0;  ///< programs whose seal went astray
  std::uint64_t torn_relocations = 0;    ///< stale payload under fresh seal
  std::uint64_t repair_writes = 0;       ///< read-repair rewrites (repair())

  bool operator==(const FtlStats&) const = default;

  double write_amplification() const {
    return host_writes == 0
               ? 1.0
               : static_cast<double>(nand_writes) /
                     static_cast<double>(host_writes);
  }
};

/// Every FtlStats counter with its telemetry name: the one list the
/// registry binding and per-window deltas walk.
inline constexpr std::pair<const char*, std::uint64_t FtlStats::*>
    kFtlStatsCounters[] = {
        {"ftl.host_writes", &FtlStats::host_writes},
        {"ftl.nand_writes", &FtlStats::nand_writes},
        {"ftl.nand_erases", &FtlStats::nand_erases},
        {"ftl.gc_runs", &FtlStats::gc_runs},
        {"ftl.gc_page_moves", &FtlStats::gc_page_moves},
        {"ftl.mode_migrations", &FtlStats::mode_migrations},
        {"ftl.refresh_runs", &FtlStats::refresh_runs},
        {"ftl.refresh_page_moves", &FtlStats::refresh_page_moves},
        {"ftl.program_fails", &FtlStats::program_fails},
        {"ftl.erase_fails", &FtlStats::erase_fails},
        {"ftl.grown_defects", &FtlStats::grown_defects},
        {"ftl.retired_blocks", &FtlStats::retired_blocks},
        {"ftl.retire_page_moves", &FtlStats::retire_page_moves},
        {"ftl.mounts", &FtlStats::mounts},
        {"ftl.mount_pages_scanned", &FtlStats::mount_pages_scanned},
        {"ftl.mount_mappings_recovered", &FtlStats::mount_mappings_recovered},
        {"ftl.mount_stale_records", &FtlStats::mount_stale_records},
        {"ftl.misdirected_writes", &FtlStats::misdirected_writes},
        {"ftl.torn_relocations", &FtlStats::torn_relocations},
        {"ftl.repair_writes", &FtlStats::repair_writes},
};
static_assert(sizeof(FtlStats) ==
                  std::size(kFtlStatsCounters) * sizeof(std::uint64_t),
              "every FtlStats field is a listed counter");

/// Result of placing one logical page.
struct WriteResult {
  std::uint64_t ppn = 0;
  PageMode mode = PageMode::kNormal;
  /// Physical page programs this operation caused (1 + GC relocations).
  std::uint64_t page_programs = 1;
  std::uint64_t erases = 0;
};

/// What a read needs to know to model its latency/reliability.
struct PageInfo {
  std::uint64_t ppn = 0;
  PageMode mode = PageMode::kNormal;
  SimTime write_time = 0;
  std::uint32_t pe_cycles = 0;  ///< erase count of the containing block
  /// Reads of the containing block since its last erase — the disturb
  /// stress every page of the block has accumulated.
  std::uint64_t block_reads = 0;
};

/// Result of refreshing one block: its valid pages relocated to fresh
/// cells and the block erased. `page_programs`/`erases` include any GC the
/// relocations triggered (for latency/endurance accounting, like
/// WriteResult).
struct RefreshResult {
  std::uint64_t pages_moved = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t erases = 0;
};

/// Knobs for power-on recovery (Mount()).
struct MountOptions {
  /// Per-block read-disturb count assigned to every recovered data block.
  /// The true counters are volatile RAM and die with power; re-seeding
  /// them *at the refresh threshold* makes every survivor block scrub on
  /// its first post-mount read — conservative in the only safe direction,
  /// since disturb stress accumulated before the crash cannot be measured
  /// but may be arbitrarily close to the uncorrectable cliff. 0 restarts
  /// the counters optimistically (pre-PR behaviour of a fresh FTL).
  std::uint64_t reseed_read_count = 0;
};

/// What power-on recovery found on the medium.
struct MountReport {
  std::uint64_t pages_scanned = 0;         ///< programmed OOB records read
  std::uint64_t mappings_recovered = 0;    ///< live L2P entries installed
  std::uint64_t stale_records = 0;         ///< superseded copies skipped
  std::uint32_t free_blocks = 0;           ///< erased blocks re-listed
  std::uint32_t data_blocks = 0;           ///< blocks holding data
  std::uint32_t retired_blocks = 0;        ///< bad-block ledger size
  /// LPNs whose winning copy is stored in reduced state, ascending — the
  /// durable ReducedCell pool membership AccessEval re-registers from.
  std::vector<std::uint64_t> reduced_lpns;
};

/// Outcome of read-back seal verification (integrity on).
struct SealVerdict {
  /// The verification cross-check raised an integrity mismatch.
  bool flagged = false;
  /// The mismatch is in the cells themselves (misdirected write, torn
  /// relocation): a deepest-sensing re-read of the same page cannot cure
  /// it — only a replica or a repair rewrite can. False for a transient
  /// post-ECC flip, which a re-read does cure.
  bool persistent = false;
  /// The delivered bytes were not the expected generation's. A read with
  /// `delivered_bad && !flagged` is an undetected corruption — possible
  /// only through a genuine CRC64 collision, and what the bench's
  /// zero-undetected verdict counts.
  bool delivered_bad = false;
};

/// Medium-level data audit of one LPN (crash harness): is the durable
/// copy's seal self-consistent, and is its payload really the expected
/// generation? No transient fault is rolled — this inspects the medium,
/// not one read of it.
struct DataAudit {
  /// Seal present, claims (lpn, version), and its CRC matches the bytes
  /// actually stored. When false, any verifying read flags the page.
  bool seal_ok = false;
  /// The stored payload is generation (lpn, version).
  bool payload_ok = false;
};

class PageMappingFtl {
 public:
  explicit PageMappingFtl(FtlConfig config);
  /// Move-constructible only. Counter bindings stay with the object that
  /// made them (a moved-to FTL must attach again to be observed), and no
  /// assignment can overwrite a bound FTL.
  PageMappingFtl(PageMappingFtl&&) = default;
  PageMappingFtl& operator=(PageMappingFtl&&) = delete;
  ~PageMappingFtl();

  std::uint64_t logical_pages() const { return logical_pages_; }
  /// The logical capacity an FTL built from `config` exposes: the raw
  /// pages less over-provisioning.
  static std::uint64_t logical_pages_of(const FtlConfig& config);
  std::uint64_t physical_blocks() const { return blocks_.size(); }

  /// Looks up a logical page; nullopt if never written.
  std::optional<PageInfo> lookup(std::uint64_t lpn) const;

  /// Starts loading the cache lines a later lookup(lpn) reads: map_[lpn]
  /// and, when mapped, the first 12 bytes of the page's OOB record and its
  /// BlockMeta. Changes no state. Defined out of line, with an x86-64
  /// prefetch the compiler cannot drop (DESIGN.md §2.6), so the codegen
  /// test has a symbol to inspect.
  void prefetch(std::uint64_t lpn) const;

  /// Writes (or overwrites) a logical page into a block of `mode`,
  /// garbage-collecting first if free space is low.
  WriteResult write(std::uint64_t lpn, PageMode mode, SimTime now);

  /// Rewrites an existing page into the other mode, preserving its original
  /// write time (migration moves old data, it does not refresh its age
  /// relative to the retention clock — the program operation does reset the
  /// cell charge, so the stored age restarts; we model the restart).
  WriteResult migrate(std::uint64_t lpn, PageMode mode, SimTime now);

  /// Records one read of the page at `ppn`: every read stresses the whole
  /// containing block with the pass-through voltage, so the counter lives
  /// per block and is cleared by erase (GC, refresh).
  void record_read(std::uint64_t ppn);

  /// Reads accumulated by the block containing `ppn` since its last erase.
  std::uint64_t block_read_count(std::uint64_t ppn) const;

  /// Read-back verification of one NAND read of `lpn`'s mapped copy at
  /// `ppn` (integrity on): recomputes the CRC of the bytes the page
  /// actually delivers (its true payload identity, plus a transient
  /// post-ECC flip when the injector's silent-corruption roll fires at
  /// this (ppn, block_reads) identity) and cross-checks it against the
  /// seal's claim and the FTL's expected (lpn, version).
  SealVerdict verify_page(std::uint64_t lpn, std::uint64_t ppn,
                          std::uint64_t block_reads) const;

  /// Medium-level audit of `lpn`'s durable copy against the expected
  /// write generation `version` (see DataAudit). Requires a mapped lpn.
  DataAudit audit_data(std::uint64_t lpn, std::uint64_t version) const;

  /// Read-repair rewrite: re-programs `lpn` with a fresh copy of its
  /// *current* generation (payload and seal regenerated; the version is
  /// not bumped — this is not a host write). The array layer calls it to
  /// reconverge a mirror after replica failover found this drive's copy
  /// persistently corrupt.
  WriteResult repair(std::uint64_t lpn, SimTime now);

  /// Relocates every valid page of the block containing `ppn` into fresh
  /// cells (same storage mode; retention and disturb clocks restart) and
  /// erases the block. Returns nullopt without side effects when the block
  /// is an open write frontier — refreshing the append target is
  /// meaningless, and frontier data is freshly programmed anyway.
  std::optional<RefreshResult> refresh_block(std::uint64_t ppn, SimTime now);

  const FtlStats& stats() const { return stats_; }

  /// Binds the `ftl.*` counters to stats() and enables GC trace spans
  /// (see telemetry.h); nullptr detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

  /// Attaches the fault source (nullptr detaches — the default, and the
  /// zero-overhead path). With an injector attached the FTL absorbs its
  /// faults: a program-status failure re-drives the write to a fresh
  /// frontier page and retires the block (its valid pages relocated
  /// first — an acknowledged write is never lost); a failed or
  /// defect-flagged erase/allocation retires the block outright. Retired
  /// blocks leave service permanently: never a frontier, never a GC,
  /// wear-leveling or refresh victim — the drive keeps running on shrunken
  /// over-provisioning instead of asserting.
  void attach_fault_injector(const faults::FaultInjector* injector);

  /// Blocks currently retired (bad-block table size).
  std::uint32_t retired_block_count() const { return retired_count_; }
  /// Is the block containing `ppn` retired?
  bool block_retired(std::uint64_t ppn) const {
    return blocks_[block_of(ppn)].retired;
  }

  /// Power-on recovery: discards every volatile structure (L2P map, free
  /// list, frontiers, GC buckets, read counters) and rebuilds them from
  /// the durable medium — per-page OOB records and per-block
  /// summary pages. Mapping conflicts resolve last-epoch-wins: every
  /// program stamps a monotonic global epoch into its OOB record, so the
  /// newest surviving copy of each LPN is unambiguous even when a crash
  /// interrupts a GC/migration relocation train and leaves two copies.
  /// Idempotent: mounting twice (with equal options) yields byte-identical
  /// state — the free list is rebuilt in ascending block order. The
  /// lifetime statistics only grow: each mount adds one to `mounts` and
  /// its scan counts to the `mount_*` fields.
  MountReport Mount(const MountOptions& options = {});

  /// Full-structure invariant sweep (post-mount verification): every
  /// mapped LPN points at a valid page that maps back, valid counts match,
  /// free-listed blocks are empty and in service, ledger counts agree.
  /// Returns the first violation as an Internal status.
  Status check_consistency() const;

  /// LPNs with more than one valid physical copy (must be empty; the
  /// invariant the crash harness checks after every mount).
  std::vector<std::uint64_t> double_mapped_lpns() const;

  /// The raw L2P table (lpn -> ppn, kUnmappedPpn when unmapped) for
  /// byte-identity comparisons across mounts. Entries are 32 bits: the
  /// constructor bounds every ppn below kUnmappedPpn.
  const std::vector<std::uint32_t>& l2p_dump() const { return map_; }
  static constexpr std::uint32_t kUnmappedPpn = ~0U;

  /// Host-write generation of `lpn` (bumped per write(), preserved by
  /// migrations/relocations, recovered from OOB by Mount). The durability
  /// ledger compares this against the version it acknowledged as durable.
  std::uint64_t data_version(std::uint64_t lpn) const {
    FLEX_EXPECTS(lpn < logical_pages_);
    return version_[lpn];
  }

  /// Global program ordinal (the epoch the next program will exceed).
  std::uint64_t write_epoch() const { return epoch_; }

  /// Retired block ids, ascending (the bad-block ledger).
  std::vector<std::uint32_t> retired_block_ids() const;

  std::uint32_t free_blocks() const { return free_count_; }
  std::uint32_t min_erase_count() const;
  std::uint32_t max_erase_count() const;
  double mean_erase_count() const;
  /// Blocks currently holding reduced-state data.
  std::uint32_t reduced_blocks() const;

 private:
  // Volatile per-page state is one validity bit per ppn (valid_); a valid
  // page's lpn and write time are read from its OOB record, which the same
  // program wrote. A lookup touches the bitmap (resident: 1 bit per page)
  // and the first 12 bytes of one 24-byte OOB record.
  struct BlockMeta {
    PageMode mode = PageMode::kNormal;
    bool open = false;             ///< is a write frontier
    bool retired = false;          ///< out of service (bad block)
    std::uint32_t erase_count = 0;
    std::uint32_t next_page = 0;   ///< write pointer within the block
    std::uint32_t valid_count = 0;
    std::uint64_t read_count = 0;  ///< reads since last erase (disturb)
  };

  /// What a page program left of its integrity seal (integrity on).
  enum class SealState : std::uint8_t {
    kNone,    ///< never sealed, or misdirected: no seal landed here
    kIntact,  ///< the sealed generation's bytes are stored
    kTorn,    ///< the previous generation's bytes sit under the fresh seal
  };

  /// The durable per-page spare area, programmed atomically with the data
  /// (real NAND writes data + OOB in one page program). Survives power
  /// loss; only a successful erase clears it. Everything Mount() needs to
  /// rebuild the L2P map is here, packed to 24 bytes: lpn and version fit
  /// u32 (the constructor bounds logical_pages_, write() the version), and
  /// one u64 tag carries the epoch (bits 0-55), the mode (bit 56) and the
  /// seal state (bits 57-58). Epoch 0 means never programmed; append()
  /// asserts the epoch stays below 2^56.
  ///
  /// The integrity seal rides the same record. Its *claim* is what the
  /// controller sealed for the data it intended to write: the identity
  /// (lpn, version) is this record's own, and the CRC64 of that payload
  /// is the page's seals_ word. Its *truth* is the identity of the bytes
  /// the page actually holds (the generator regenerates any page from its
  /// identity, so it stands in for the full page body): (lpn, version)
  /// when `seal()` is kIntact, (lpn, version - 1) when kTorn. A healthy
  /// program has claim == truth; the silent-data fault kinds break
  /// exactly that: a misdirected write leaves the slot unsealed (kNone —
  /// data and seal landed on some other page while success was reported
  /// here), and a torn relocation stores the *previous* generation's
  /// bytes under the fresh seal. Neither fault touches a mapping field
  /// (lpn, version, epoch, mode): controller metadata updates travel a
  /// separate journaled path, so mapping-integrity invariants stay intact
  /// while the data rots.
  struct OobRecord {
    static constexpr std::uint64_t kEpochMask = (1ULL << 56) - 1;
    static constexpr unsigned kModeShift = 56;
    static constexpr unsigned kSealShift = 57;
    static constexpr std::uint64_t kSealMask = 3ULL << kSealShift;

    SimTime write_time = 0;
    std::uint32_t lpn = kInvalidLpn;
    std::uint32_t version = 0;  ///< host-write generation of the lpn
    std::uint64_t tag = 0;      ///< epoch | mode << 56 | seal << 57

    static std::uint64_t make_tag(std::uint64_t epoch, PageMode mode) {
      return epoch | static_cast<std::uint64_t>(mode) << kModeShift;
    }
    /// Global program ordinal (1-based; 0 = never programmed).
    std::uint64_t epoch() const { return tag & kEpochMask; }
    bool programmed() const { return epoch() != 0; }
    PageMode mode() const {
      return static_cast<PageMode>(tag >> kModeShift & 1);
    }
    SealState seal() const {
      return static_cast<SealState>((tag & kSealMask) >> kSealShift);
    }
    void set_seal(SealState seal) {
      tag = (tag & ~kSealMask) |
            static_cast<std::uint64_t>(seal) << kSealShift;
    }
  };
  // At a 24-byte stride, bytes 0-11 (what lookup() reads) straddle two
  // cache lines in one record of eight; DESIGN.md §2.6 measures that
  // trade against the 8 bytes per page saved.
  static_assert(sizeof(OobRecord) == 24, "OOB record must stay packed");

  /// Generation of the bytes a sealed page actually stores.
  static std::uint64_t stored_version(const OobRecord& oob) {
    return oob.version - (oob.seal() == SealState::kTorn ? 1u : 0u);
  }

  /// The durable per-block summary page, rewritten on erase / retirement
  /// (controllers keep erase counts and the bad-block table on the medium;
  /// losing either would reset wear leveling or resurrect bad blocks).
  struct BlockSummary {
    std::uint32_t erase_count = 0;
    bool retired = false;
  };

  static constexpr std::uint64_t kInvalid = ~0ULL;
  static_assert(static_cast<std::uint32_t>(kInvalid) == kUnmappedPpn);
  static constexpr std::uint32_t kInvalidLpn = ~0U;  ///< unprogrammed OOB

  std::uint32_t usable_pages(const BlockMeta& block) const;
  std::uint64_t make_ppn(std::uint32_t block, std::uint32_t page) const {
    if (page_shift_ != kNoShift) {
      return (static_cast<std::uint64_t>(block) << page_shift_) | page;
    }
    return static_cast<std::uint64_t>(block) * config_.spec.pages_per_block +
           page;
  }
  std::uint32_t block_of(std::uint64_t ppn) const {
    const auto block_id = static_cast<std::uint32_t>(
        page_shift_ != kNoShift ? ppn >> page_shift_
                                : ppn / config_.spec.pages_per_block);
    FLEX_EXPECTS(block_id < blocks_.size());
    return block_id;
  }
  /// Relocates `block`'s valid pages, erases it, and returns it to the
  /// free list (shared tail of GC and refresh) — unless the erase fails,
  /// in which case the block is retired instead. The caller must have
  /// removed it from the GC candidate buckets.
  void reclaim_block(std::uint32_t block_id, SimTime now,
                     std::uint64_t* page_moves, std::uint64_t* programs);
  /// Moves every valid page of `block_id` to fresh frontier space (shared
  /// by reclaim and retirement).
  void relocate_valid_pages(std::uint32_t block_id, SimTime now,
                            std::uint64_t* page_moves,
                            std::uint64_t* programs);
  void invalidate(std::uint64_t lpn);
  std::uint32_t allocate_block(PageMode mode);
  /// Takes `block_id` (an open frontier that just failed a program) out of
  /// service: relocates its valid pages to fresh frontier space, clears it
  /// and marks it retired. Counts relocation programs into `programs`.
  void retire_failed_frontier(std::uint32_t block_id, SimTime now,
                              std::uint64_t* programs);
  /// Marks an already-empty block retired (erase-fail / grown-defect tail).
  void mark_retired(std::uint32_t block_id);
  /// Clears the block's validity bits (erase/retire tail).
  void clear_block_pages(std::uint32_t block_id);
  /// Appends to the frontier of `mode`; assumes space exists.
  /// `relocation` marks programs that move an existing generation (GC,
  /// wear leveling, refresh, migration) — the only programs the torn-
  /// relocation fault can strike; host writes and repairs carry fresh
  /// data straight from the host/controller buffer.
  std::uint64_t append(std::uint64_t lpn, PageMode mode, SimTime now,
                       std::uint64_t* programs, bool relocation = false);
  void maybe_garbage_collect(SimTime now, std::uint64_t* programs,
                             std::uint64_t* erases);
  std::optional<std::uint32_t> pick_gc_victim() const;
  std::optional<std::uint32_t> pick_wear_leveling_victim() const;
  // GC-candidate bookkeeping: closed blocks bucketed by valid_count so the
  // greedy victim lookup is O(1) instead of O(blocks).
  void candidate_insert(std::uint32_t block_id);
  void candidate_remove(std::uint32_t block_id, std::uint32_t old_valid);

  bool page_valid(std::uint64_t ppn) const {
    return (valid_[ppn / 64] >> (ppn % 64)) & 1u;
  }
  void set_page_valid(std::uint64_t ppn) {
    valid_[ppn / 64] |= 1ULL << (ppn % 64);
  }
  void clear_page_valid(std::uint64_t ppn) {
    valid_[ppn / 64] &= ~(1ULL << (ppn % 64));
  }
  /// The lpn whose valid copy sits at `ppn`, or kInvalid.
  std::uint64_t page_lpn(std::uint64_t ppn) const {
    return page_valid(ppn) ? oob_[ppn].lpn : kInvalid;
  }
  // The only two touches of map_'s 32-bit entries: everything else sees a
  // u64 ppn, with kInvalid for an unmapped lpn. Every real ppn fits (the
  // constructor bounds total_pages below kUnmappedPpn), and kInvalid
  // narrows to kUnmappedPpn.
  std::uint64_t mapped_ppn(std::uint64_t lpn) const {
    const std::uint32_t entry = map_[lpn];
    return entry == kUnmappedPpn ? kInvalid : entry;
  }
  void set_mapping(std::uint64_t lpn, std::uint64_t ppn) {
    map_[lpn] = static_cast<std::uint32_t>(ppn);
  }

  FtlConfig config_;
  std::uint64_t logical_pages_;
  std::vector<BlockMeta> blocks_;
  std::vector<std::uint32_t> map_;   // lpn -> ppn (kUnmappedPpn if none)
  std::vector<std::uint64_t> valid_;  // validity bitmap by ppn
  /// log2(pages_per_block) when it is a power of two (the common
  /// geometry), else kNoShift: block_of()/make_ppn() then fall back to
  /// divide/multiply. Purely a strength reduction — same results.
  static constexpr std::uint32_t kNoShift = 0xffffffffu;
  std::uint32_t page_shift_ = kNoShift;
  // Free-block FIFO as a ring over a flat power-of-two vector (FIFO so
  // every free block circulates; a LIFO stack would recycle the same few
  // blocks and defeat wear leveling). Size is free_count_.
  std::vector<std::uint32_t> free_ring_;
  std::size_t free_mask_ = 0;
  std::size_t free_head_ = 0;
  void free_push(std::uint32_t id) {
    free_ring_[(free_head_ + free_count_) & free_mask_] = id;
    ++free_count_;
  }
  std::uint32_t free_pop() {
    const std::uint32_t id = free_ring_[free_head_];
    free_head_ = (free_head_ + 1) & free_mask_;
    --free_count_;
    return id;
  }
  std::uint32_t free_count_ = 0;
  // Current frontier per mode; kNoBlock when none is open.
  static constexpr std::uint32_t kNoBlock = ~0U;
  std::uint32_t frontier_[2] = {kNoBlock, kNoBlock};
  std::vector<std::vector<std::uint32_t>> gc_buckets_;  // by valid_count
  std::vector<std::uint32_t> gc_bucket_pos_;  // block -> index in its bucket
  FtlStats stats_;
  /// GC runs since construction or the last Mount(): the static
  /// wear-levelling cadence restarts with every boot.
  std::uint64_t boot_gc_runs_ = 0;
  const faults::FaultInjector* injector_ = nullptr;
  std::uint32_t retired_count_ = 0;
  // Durable state (the simulated medium): per-page OOB records, per-block
  // summaries, and — implicit in the OOB epochs — the program ordinal.
  // Power loss must not touch these; everything else above is volatile.
  std::vector<OobRecord> oob_;          // by ppn
  std::vector<BlockSummary> summaries_;  // by block id
  /// Per-page stored CRC claims of the seals (by ppn; empty unless
  /// config_.integrity). The rest of each seal is in its OobRecord.
  /// Durable like oob_: programmed with the page, wiped by erase,
  /// untouched by Mount().
  std::vector<std::uint64_t> seals_;
  /// The synthetic-payload generator behind the seals (fixed identity ->
  /// bytes function; see ftl/payload.h).
  PayloadModel payload_;
  std::uint64_t epoch_ = 0;
  // Volatile, rebuilt by Mount() from the winning OOB records.
  std::vector<std::uint32_t> version_;  // by lpn

  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace flex::ftl
