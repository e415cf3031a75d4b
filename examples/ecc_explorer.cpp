// ECC explorer: why 2Xnm NAND needs soft-decision LDPC (paper §1).
//
// Sweeps the raw BER and pits the paper's rate-8/9 QC-LDPC code against
// itself at two sensing depths on real encode/decode runs:
//   * hard input  — 0 extra sensing levels, what a hard-decision code
//                   like the 3Xnm generation's BCH gets to see;
//   * 6 levels    — deep soft sensing.
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "ldpc/channel.h"
#include "ldpc/decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_code.h"

namespace {

using namespace flex;

double ldpc_success_rate(const ldpc::QcLdpcCode& code,
                         const ldpc::Encoder& encoder,
                         const ldpc::Decoder& decoder, double ber, int levels,
                         int trials, Rng& rng) {
  const ldpc::SensingChannel channel(ber, levels);
  int ok = 0;
  std::vector<std::uint8_t> message(static_cast<std::size_t>(code.k()));
  for (int t = 0; t < trials; ++t) {
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.below(2));
    const auto cw = encoder.encode(message);
    const auto llrs = channel.transmit(cw, rng);
    const auto result = decoder.decode(llrs);
    if (result.success && result.bits == cw) ++ok;
  }
  return static_cast<double>(ok) / trials;
}

}  // namespace

int main() {
  Rng rng(1);
  const ldpc::QcLdpcCode ldpc_code = ldpc::QcLdpcCode::paper_code();
  std::printf("QC-LDPC(%d, %d) rate %.3f, hard input vs 6 sensing levels\n\n",
              ldpc_code.n(), ldpc_code.k(), ldpc_code.rate());

  const ldpc::Encoder encoder(ldpc_code);
  const ldpc::Decoder decoder(ldpc_code);

  TablePrinter table({"raw BER", "LDPC hard", "LDPC 6-level"});
  for (const double ber : {1e-3, 3e-3, 5e-3, 8e-3, 1.2e-2, 1.8e-2}) {
    table.add_row(
        {TablePrinter::num(ber),
         TablePrinter::num(
             ldpc_success_rate(ldpc_code, encoder, decoder, ber, 0, 8, rng),
             2),
         TablePrinter::num(
             ldpc_success_rate(ldpc_code, encoder, decoder, ber, 6, 8, rng),
             2)});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: 1.0 = every block decoded. Hard-decision decoding survives "
      "to ~4e-3;\nsoft sensing extends LDPC well past 1e-2 — at the price "
      "of the extra sensing levels\nwhose latency FlexLevel attacks.\n");
  return 0;
}
