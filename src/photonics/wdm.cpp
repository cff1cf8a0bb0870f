#include "photonics/wdm.hpp"

#include "common/error.hpp"

namespace eb::phot {

namespace {
constexpr double kCenterThz = 193.4;       // ITU C-band anchor
constexpr double kSpeedOfLightNmThz = 299792.458;  // c in nm*THz
}  // namespace

WavelengthGrid::WavelengthGrid(std::size_t channels, double spacing_ghz)
    : channels_(channels), spacing_ghz_(spacing_ghz) {
  EB_REQUIRE(channels >= 1, "grid needs at least one channel");
  EB_REQUIRE(spacing_ghz > 0.0, "channel spacing must be positive");
}

double WavelengthGrid::frequency_thz(std::size_t ch) const {
  EB_REQUIRE(ch < channels_, "channel out of range");
  const double offset =
      (static_cast<double>(ch) -
       static_cast<double>(channels_ - 1) / 2.0) *
      spacing_ghz_ / 1000.0;
  return kCenterThz + offset;
}

double WavelengthGrid::wavelength_nm(std::size_t ch) const {
  return kSpeedOfLightNmThz / frequency_thz(ch);
}

}  // namespace eb::phot
