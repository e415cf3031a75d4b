// Integrity seals on the FTL medium: each silent-data fault kind must
// produce its documented read-back verdict, and the verdicts must be a
// function of the durable medium alone (unchanged across Mount()).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "ftl/page_mapping.h"

namespace flex::ftl {
namespace {

// Tiny drive: 2 chips x 16 blocks x 16 pages = 512 physical pages.
FtlConfig sealed_config() {
  FtlConfig cfg;
  cfg.spec.page_size_bytes = 4096;
  cfg.spec.pages_per_block = 16;
  cfg.spec.blocks_per_chip = 16;
  cfg.spec.chips = 2;
  cfg.over_provisioning = 0.25;
  cfg.gc_low_watermark = 3;
  cfg.integrity = true;
  cfg.integrity_seed = 2015;
  return cfg;
}

SealVerdict verify(const PageMappingFtl& ftl, std::uint64_t lpn,
                   std::uint64_t block_reads = 0) {
  const auto info = ftl.lookup(lpn);
  EXPECT_TRUE(info.has_value()) << "lpn " << lpn;
  return ftl.verify_page(lpn, info->ppn, block_reads);
}

TEST(SealTest, HealthyProgramsVerifyClean) {
  PageMappingFtl ftl(sealed_config());
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    ftl.write(lpn, PageMode::kNormal, 10);
  }
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    const SealVerdict verdict = verify(ftl, lpn);
    EXPECT_FALSE(verdict.flagged) << "lpn " << lpn;
    EXPECT_FALSE(verdict.persistent) << "lpn " << lpn;
    EXPECT_FALSE(verdict.delivered_bad) << "lpn " << lpn;
    const DataAudit audit = ftl.audit_data(lpn, ftl.data_version(lpn));
    EXPECT_TRUE(audit.seal_ok && audit.payload_ok) << "lpn " << lpn;
    // The ledger expecting a different generation sees a stale copy.
    const DataAudit stale = ftl.audit_data(lpn, ftl.data_version(lpn) + 1);
    EXPECT_FALSE(stale.seal_ok || stale.payload_ok) << "lpn " << lpn;
  }
}

TEST(SealTest, MisdirectedWritesFlagEveryReadPersistent) {
  faults::FaultConfig fault_cfg;
  fault_cfg.misdirected_write_rate = 1.0;
  const faults::FaultInjector injector(fault_cfg, 0xC0FFEE);
  PageMappingFtl ftl(sealed_config());
  ftl.attach_fault_injector(&injector);
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    ftl.write(lpn, PageMode::kNormal, 10);
  }
  EXPECT_EQ(ftl.stats().misdirected_writes, 100u);
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    const SealVerdict verdict = verify(ftl, lpn);
    EXPECT_TRUE(verdict.flagged) << "lpn " << lpn;
    EXPECT_TRUE(verdict.persistent) << "lpn " << lpn;
    EXPECT_TRUE(verdict.delivered_bad) << "lpn " << lpn;
    const DataAudit audit = ftl.audit_data(lpn, ftl.data_version(lpn));
    EXPECT_FALSE(audit.seal_ok || audit.payload_ok) << "lpn " << lpn;
  }
}

TEST(SealTest, TornRelocationsVerifyTorn) {
  faults::FaultConfig fault_cfg;
  fault_cfg.torn_relocation_rate = 1.0;
  const faults::FaultInjector injector(fault_cfg, 0xC0FFEE);
  PageMappingFtl ftl(sealed_config());
  ftl.attach_fault_injector(&injector);
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    ftl.write(lpn, PageMode::kNormal, 10);
  }
  // Host writes carry fresh data: the torn fault cannot strike them.
  EXPECT_EQ(ftl.stats().torn_relocations, 0u);
  EXPECT_FALSE(verify(ftl, 0).flagged);
  for (std::uint64_t lpn = 0; lpn < 50; ++lpn) {
    ftl.migrate(lpn, PageMode::kReduced, 20);
  }
  EXPECT_GE(ftl.stats().torn_relocations, 50u);
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    const SealVerdict verdict = verify(ftl, lpn);
    const DataAudit audit = ftl.audit_data(lpn, ftl.data_version(lpn));
    if (lpn < 50) {
      // Previous generation's bytes under the fresh seal: the identity
      // claim is right, the stored bytes fail its CRC on every re-read.
      EXPECT_TRUE(verdict.flagged) << "lpn " << lpn;
      EXPECT_TRUE(verdict.persistent) << "lpn " << lpn;
      EXPECT_TRUE(verdict.delivered_bad) << "lpn " << lpn;
      EXPECT_FALSE(audit.seal_ok || audit.payload_ok) << "lpn " << lpn;
    } else {
      EXPECT_FALSE(verdict.flagged) << "lpn " << lpn;
      EXPECT_TRUE(audit.seal_ok && audit.payload_ok) << "lpn " << lpn;
    }
  }
  // A repair rewrites the current generation fresh: the copy verifies.
  ftl.repair(3, 30);
  EXPECT_FALSE(verify(ftl, 3).flagged);
}

TEST(SealTest, TransientFlipIsFlaggedButNotPersistent) {
  faults::FaultConfig fault_cfg;
  fault_cfg.silent_corruption_rate = 1.0;
  const faults::FaultInjector injector(fault_cfg, 0xC0FFEE);
  PageMappingFtl ftl(sealed_config());
  ftl.attach_fault_injector(&injector);
  ftl.write(7, PageMode::kNormal, 10);
  const SealVerdict verdict = verify(ftl, 7, /*block_reads=*/3);
  EXPECT_TRUE(verdict.flagged);
  EXPECT_FALSE(verdict.persistent);
  EXPECT_TRUE(verdict.delivered_bad);
  // The medium itself is intact.
  const DataAudit audit = ftl.audit_data(7, ftl.data_version(7));
  EXPECT_TRUE(audit.seal_ok && audit.payload_ok);
}

TEST(SealTest, VerdictsUnchangedAcrossMount) {
  faults::FaultConfig fault_cfg;
  fault_cfg.silent_corruption_rate = 0.1;
  fault_cfg.misdirected_write_rate = 0.05;
  fault_cfg.torn_relocation_rate = 0.2;
  const faults::FaultInjector injector(fault_cfg, 0xBEEF);
  PageMappingFtl ftl(sealed_config());
  ftl.attach_fault_injector(&injector);
  Rng rng(11);
  const std::uint64_t span = ftl.logical_pages();
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t lpn = rng.below(span);
    if (i % 7 == 0 && ftl.lookup(lpn).has_value()) {
      ftl.migrate(lpn, i % 2 ? PageMode::kReduced : PageMode::kNormal, i);
    } else {
      ftl.write(lpn, PageMode::kNormal, i);
    }
  }
  ASSERT_GT(ftl.stats().gc_page_moves, 0u);
  ASSERT_GT(ftl.stats().torn_relocations, 0u);
  ASSERT_GT(ftl.stats().misdirected_writes, 0u);

  struct Snapshot {
    std::uint64_t version;
    bool flagged, persistent, delivered_bad, seal_ok, payload_ok;
    bool operator==(const Snapshot&) const = default;
  };
  const auto snapshot = [&] {
    std::vector<Snapshot> out;
    for (std::uint64_t lpn = 0; lpn < span; ++lpn) {
      if (!ftl.lookup(lpn).has_value()) continue;
      const SealVerdict verdict = verify(ftl, lpn, /*block_reads=*/lpn);
      const DataAudit audit = ftl.audit_data(lpn, ftl.data_version(lpn));
      out.push_back({ftl.data_version(lpn), verdict.flagged,
                     verdict.persistent, verdict.delivered_bad, audit.seal_ok,
                     audit.payload_ok});
    }
    return out;
  };
  const std::vector<Snapshot> before = snapshot();
  std::uint64_t flagged = 0;
  for (const Snapshot& s : before) flagged += s.flagged;
  ASSERT_GT(flagged, 0u);
  ftl.Mount();
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_TRUE(snapshot() == before);
}

TEST(SealTest, PackedOobFieldsSurviveMount) {
  // Each OOB record packs epoch, mode and seal state into one word. Mix
  // both modes with misdirected and torn programs on chosen writes, then
  // check that a mount reads back the same mapping, the same reduced-state
  // membership and the same verdict for every page.
  faults::FaultConfig misdirect_cfg;
  misdirect_cfg.misdirected_write_rate = 1.0;
  const faults::FaultInjector misdirect(misdirect_cfg, 0xC0FFEE);
  faults::FaultConfig torn_cfg;
  torn_cfg.torn_relocation_rate = 1.0;
  const faults::FaultInjector torn(torn_cfg, 0xC0FFEE);
  PageMappingFtl ftl(sealed_config());
  Rng rng(23);
  const std::uint64_t span = ftl.logical_pages();
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t lpn = rng.below(span);
    const PageMode mode = i % 3 == 0 ? PageMode::kReduced : PageMode::kNormal;
    if (i % 5 == 0 && ftl.lookup(lpn).has_value()) {
      // Every ninth migration (and any GC it triggers) is torn.
      ftl.attach_fault_injector(i % 9 == 0 ? &torn : nullptr);
      ftl.migrate(lpn, mode, i);
    } else {
      ftl.attach_fault_injector(i % 13 == 0 ? &misdirect : nullptr);
      ftl.write(lpn, mode, i);
    }
  }
  ftl.attach_fault_injector(nullptr);
  ASSERT_GT(ftl.stats().gc_page_moves, 0u);
  ASSERT_GT(ftl.stats().misdirected_writes, 0u);
  ASSERT_GT(ftl.stats().torn_relocations, 0u);

  struct PageState {
    std::uint64_t lpn, version;
    bool flagged, persistent, delivered_bad, seal_ok, payload_ok;
    bool operator==(const PageState&) const = default;
  };
  const auto medium = [&] {
    std::vector<PageState> out;
    for (std::uint64_t lpn = 0; lpn < span; ++lpn) {
      if (!ftl.lookup(lpn).has_value()) continue;
      const SealVerdict verdict = verify(ftl, lpn);
      const DataAudit audit = ftl.audit_data(lpn, ftl.data_version(lpn));
      out.push_back({lpn, ftl.data_version(lpn), verdict.flagged,
                     verdict.persistent, verdict.delivered_bad,
                     audit.seal_ok, audit.payload_ok});
    }
    return out;
  };
  std::vector<std::uint64_t> reduced;
  for (std::uint64_t lpn = 0; lpn < span; ++lpn) {
    const auto info = ftl.lookup(lpn);
    if (info.has_value() && info->mode == PageMode::kReduced) {
      reduced.push_back(lpn);
    }
  }
  const std::vector<PageState> before = medium();
  const std::vector<std::uint32_t> l2p = ftl.l2p_dump();
  const std::uint64_t epoch = ftl.write_epoch();
  std::uint64_t flagged = 0;
  std::uint64_t clean = 0;
  for (const PageState& page : before) {
    flagged += page.flagged;
    clean += page.seal_ok && page.payload_ok;
  }
  ASSERT_FALSE(reduced.empty());
  ASSERT_LT(reduced.size(), before.size());
  ASSERT_GT(flagged, 0u);
  ASSERT_GT(clean, 0u);

  const MountReport report = ftl.Mount();
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_EQ(report.reduced_lpns, reduced);
  EXPECT_EQ(ftl.l2p_dump(), l2p);
  EXPECT_EQ(ftl.write_epoch(), epoch);
  EXPECT_TRUE(medium() == before);
}

}  // namespace
}  // namespace flex::ftl
