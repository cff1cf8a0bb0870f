/// \file
/// \brief The CI baseline reader shared by the gated load benches
/// (serve_load, gateway_load, frontend_load, balancer_load, drift_recal).
///
/// A baseline is a flat JSON object of numeric bounds under
/// bench/baselines/; the benches read it without a parser library.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace eb::bench {

/// Reads the baseline file at `path` into `text`. When no path was given
/// or the file cannot be read, prints a FAIL line and returns false; the
/// bench then exits 1.
inline bool read_baseline(const std::string& path, std::string& text) {
  if (path.empty()) {
    std::fprintf(stderr, "FAIL: mode=ci requires baseline=<path>\n");
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  text = buf.str();
  return true;
}

/// The number after `"key":` in a flat JSON object, or `fallback` when
/// the key is absent.
inline double json_number_field(const std::string& text,
                                const std::string& key, double fallback) {
  const std::string needle = "\"" + key + "\"";
  const auto k = text.find(needle);
  if (k == std::string::npos) {
    return fallback;
  }
  const auto colon = text.find(':', k + needle.size());
  if (colon == std::string::npos) {
    return fallback;
  }
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace eb::bench
