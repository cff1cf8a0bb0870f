#include "mapping/task.hpp"

#include "bnn/packed.hpp"
#include "common/error.hpp"

namespace eb::map {

std::vector<std::vector<std::size_t>> XnorPopcountTask::reference() const {
  // One fused batched GEMM over all windows (bit-identical to the
  // per-input xnor_popcount_all loop, but word-parallel across the batch).
  BitMatrix x(inputs.size(), m());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EB_REQUIRE(inputs[i].size() == m(),
               "input length must match weight length");
    x.set_row(i, inputs[i]);
  }
  std::vector<std::uint32_t> acc(inputs.size() * n());
  bnn::xnor_popcount_gemm(x, weights, acc.data());
  std::vector<std::vector<std::size_t>> out(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out[i].assign(acc.begin() + static_cast<std::ptrdiff_t>(i * n()),
                  acc.begin() + static_cast<std::ptrdiff_t>((i + 1) * n()));
  }
  return out;
}

XnorPopcountTask XnorPopcountTask::random(std::size_t m, std::size_t n,
                                          std::size_t windows, Rng& rng,
                                          std::string name) {
  EB_REQUIRE(m >= 1 && n >= 1 && windows >= 1, "task dims must be positive");
  XnorPopcountTask t;
  t.name = std::move(name);
  t.weights = BitMatrix::random(n, m, rng);
  t.inputs.reserve(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    t.inputs.push_back(BitVec::random(m, rng));
  }
  return t;
}

}  // namespace eb::map
