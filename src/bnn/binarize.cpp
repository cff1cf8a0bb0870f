#include "bnn/binarize.hpp"

#include <cmath>

#include "common/error.hpp"

namespace eb::bnn {

BitVec binarize(const Tensor& t) {
  return BitVec::pack(t.size(), [&t](std::size_t i) { return t[i] >= 0.0; });
}

Tensor to_signed_tensor(const BitVec& bits, std::vector<std::size_t> shape) {
  Tensor t(std::move(shape));
  EB_REQUIRE(t.size() == bits.size(),
             "shape must match bit vector length");
  for (std::size_t i = 0; i < bits.size(); ++i) {
    t[i] = bits.get(i) ? 1.0 : -1.0;
  }
  return t;
}

long long naive_signed_dot(const std::vector<double>& a,
                           const std::vector<double>& b) {
  EB_REQUIRE(a.size() == b.size(), "dot requires equal lengths");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EB_REQUIRE(std::fabs(std::fabs(a[i]) - 1.0) < 1e-12,
               "naive_signed_dot expects +/-1 inputs");
    EB_REQUIRE(std::fabs(std::fabs(b[i]) - 1.0) < 1e-12,
               "naive_signed_dot expects +/-1 inputs");
    acc += a[i] * b[i];
  }
  return static_cast<long long>(std::llround(acc));
}

}  // namespace eb::bnn
