// Test-side construction of SsdSimulator through its only public route,
// SsdSimulator::Builder. A configuration the Builder rejects is a bug in
// the test itself, so the helper fails the test with the Status message and
// then aborts (StatusOr::value() on an error is a contract violation).
#pragma once

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "reliability/ber_model.h"
#include "ssd/simulator.h"

namespace flex::test {

inline std::unique_ptr<ssd::SsdSimulator> build_simulator(
    ssd::SsdConfig config, const reliability::BerModel& normal,
    const reliability::BerModel& reduced) {
  auto built = ssd::SsdSimulator::Builder(normal, reduced)
                   .config(std::move(config))
                   .Build();
  EXPECT_TRUE(built.ok()) << built.status().to_string();
  return std::move(built).value();
}

}  // namespace flex::test
