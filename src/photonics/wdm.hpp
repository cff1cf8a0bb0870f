// Wavelength-division multiplexing primitives.
//
// The paper's EinsteinBarrier batches up to K = 16 input vectors into one
// crossbar pass by carrying each vector on its own wavelength channel
// (section IV-A2). WavelengthGrid describes the channel plan; the
// per-channel binary drives of one pass go straight to
// xbar::OpticalCrossbar::wdm_powers.
#pragma once

#include <cstddef>

namespace eb::phot {

// Paper: "Current technologies can support up to a capacity of K = 16".
inline constexpr std::size_t kMaxWdmCapacityReported = 16;

class WavelengthGrid {
 public:
  // `channels` DWDM channels spaced `spacing_ghz` apart around a
  // 193.4 THz (1550 nm) center.
  explicit WavelengthGrid(std::size_t channels, double spacing_ghz = 100.0);

  [[nodiscard]] std::size_t channels() const { return channels_; }
  [[nodiscard]] double spacing_ghz() const { return spacing_ghz_; }

  // Channel center frequency in THz.
  [[nodiscard]] double frequency_thz(std::size_t ch) const;
  // Channel wavelength in nm (c / f).
  [[nodiscard]] double wavelength_nm(std::size_t ch) const;

 private:
  std::size_t channels_;
  double spacing_ghz_;
};

}  // namespace eb::phot
