// Deterministic NAND fault injection.
//
// Real 2Xnm MLC deployments live with grown defects: program-status
// failures, erase failures, and whole blocks that go bad in service (Cai
// et al., HPCA'15 describe remapping-based recovery as standard controller
// practice). This module decides *when* those faults strike; the FTL's
// bad-block management and the read policy's recovery ladder decide what
// happens next.
//
// Determinism contract: every decision is a pure hash of (run seed, fault
// kind, operation identity) — no internal state, no RNG stream. Each NAND
// operation has a naturally unique identity (a page slot is programmed
// once per erase generation of its block, a block is erased once per
// generation, allocated once per generation), so the same seed gives the
// same fault pattern whatever the call order, and a `--jobs N` bench sweep
// is bit-identical to a serial one. Enabling faults perturbs no other
// random stream: the simulator's Rng sequence (prefill ages,
// preconditioning) is untouched.
#pragma once

#include <cstdint>

namespace flex::faults {

/// Fault-injection knobs, nested in SsdConfig like ReadDisturbConfig.
/// Everything is off by default: with `enabled == false` the injector is
/// never constructed and every seed figure is reproduced bit-identically.
struct FaultConfig {
  bool enabled = false;
  /// Probability a page program reports a program-status failure. The FTL
  /// re-drives the write to a fresh frontier page and retires the block.
  double program_fail_rate = 0.0;
  /// Probability a block erase fails; the block is retired (its valid
  /// pages were already relocated by the reclaim that issued the erase).
  double erase_fail_rate = 0.0;
  /// Probability a block turns out to be a grown defect when it is next
  /// allocated as a write frontier; it is retired before any program.
  double grown_defect_rate = 0.0;
  /// Probability the recovery ladder's deepest-sensing re-read rescues an
  /// uncorrectable read; otherwise the read is declared lost
  /// (SsdResults::data_loss_reads).
  double read_retry_rescue = 0.9;
  /// Power-loss injection: when enabled, every event-queue boundary is a
  /// candidate crash point, adjudicated per event ordinal at `crash_rate`.
  /// Crash granularity is the event boundary — an event's callback runs to
  /// completion (so multi-page FTL sequences issued inside one event, e.g.
  /// a retirement relocation chain, are atomic with respect to power loss;
  /// what can be torn is anything still pending in the queue).
  bool crash_enabled = false;
  /// Per-event-boundary crash probability. Like every other fault it is a
  /// stateless hash, so crash-off runs are byte-identical by construction.
  double crash_rate = 0.0;
  /// Folded into the crash hash so a harness can sweep many distinct crash
  /// points for one workload seed without perturbing any other fault or
  /// RNG decision (those hash over different kinds / identities).
  std::uint64_t crash_salt = 0;
  // Silent-data-corruption kinds (only meaningful with
  // SsdConfig::integrity on — without payload seals nothing in the stack
  // could observe them, so Validate() rejects arming them integrity-off).
  /// Probability a read returns wrong bytes with a confident ECC status
  /// (post-ECC flip — retention/disturb errors that escape the code).
  /// Transient: adjudicated per read, so the recovery ladder's
  /// deepest-sensing re-read of the same cells gets clean data.
  double silent_corruption_rate = 0.0;
  /// Probability a page program lands its data+seal on some *other*
  /// physical page while reporting success at the intended one.
  /// Persistent: the intended page never holds the sealed payload, so no
  /// re-read of it can help — only a replica (or repair) can.
  double misdirected_write_rate = 0.0;
  /// Probability a GC/wear-leveling/refresh relocation program writes the
  /// *previous* generation of the page's payload under the fresh seal
  /// (controller DMA raced the host overwrite). Persistent, like a
  /// misdirected write, but the stale bytes carry a valid-looking page.
  double torn_relocation_rate = 0.0;
};

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, std::uint64_t seed);

  const FaultConfig& config() const { return config_; }

  /// Does the program of page `ppn` in erase generation `erase_count` of
  /// its block report a program-status failure?
  bool program_fails(std::uint64_t ppn, std::uint32_t erase_count) const;

  /// Does the erase ending generation `erase_count` of `block` fail?
  bool erase_fails(std::uint32_t block, std::uint32_t erase_count) const;

  /// Is `block`, allocated in generation `erase_count`, a grown defect?
  bool grown_defect(std::uint32_t block, std::uint32_t erase_count) const;

  /// Does the deepest-sensing re-read of `ppn` rescue an uncorrectable
  /// read? `block_reads` (the block's read count at this read) makes the
  /// identity unique per read of the page.
  bool read_retry_rescues(std::uint64_t ppn, std::uint64_t block_reads) const;

  /// Does the drive lose power at the event-queue boundary just before
  /// event `event_ordinal` fires? Hashed over (seed, kCrash, ordinal,
  /// crash_salt): deterministic per ordinal, independent of every other
  /// fault decision, and disjoint salts select disjoint crash points.
  bool crash_at(std::uint64_t event_ordinal) const;

  /// Does *this* read of `ppn` deliver silently corrupted bytes?
  /// `block_reads` is the block's read count at the read (same uniqueness
  /// trick as read_retry_rescues) — a re-read at a later count rolls a
  /// fresh decision, which is what makes the corruption transient.
  bool silent_corruption(std::uint64_t ppn, std::uint64_t block_reads) const;

  /// Is the program of `ppn` in erase generation `erase_count` misdirected
  /// (data written elsewhere, success reported here)?
  bool misdirected_write(std::uint64_t ppn, std::uint32_t erase_count) const;

  /// Does the relocation program of `ppn` in generation `erase_count` tear
  /// (stale payload generation under the fresh seal)?
  bool torn_relocation(std::uint64_t ppn, std::uint32_t erase_count) const;

 private:
  /// Uniform [0, 1) from the op identity — the whole injector is this hash.
  double roll(std::uint64_t kind, std::uint64_t a, std::uint64_t b) const;

  FaultConfig config_;
  std::uint64_t seed_;
};

}  // namespace flex::faults
