#include "bnn/packed.hpp"

#include <algorithm>
#include <vector>

#include "bnn/autotune.hpp"
#include "bnn/kernels.hpp"
#include "common/error.hpp"

namespace eb::bnn {

// The XNOR+popcount kernels themselves live in bnn/kernels.cpp (a named
// registry of candidates); which candidate runs a given call is decided
// per shape class by the Autotuner (bnn/autotune.hpp). All candidates are
// bit-identical, so these entry points only pick and forward.

std::size_t xnor_popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words, std::size_t pad_bits) {
  const std::size_t raw =
      Autotuner::instance().pick_xnor(1, words, 1).pop(a, b, words);
  EB_ASSERT(raw >= pad_bits, "padding must be zeroed in both operands");
  return raw - pad_bits;
}

// ---------------------------------------------------------------- kernels --

namespace {

// Single shared driver: shards X rows over the pool; each x row runs one
// blocked sweep into a per-chunk scratch buffer of raw popcounts (padding
// matches included), then `emit(i, raw, wn)` translates/places the row
// while it is still cache-hot.
template <typename EmitRow>
void gemm_driver(const BitMatrix& x, const BitMatrix& w,
                 ThreadPool* pool, EmitRow emit) {
  EB_REQUIRE(x.cols() == w.cols(), "GEMM operand width mismatch");
  const std::size_t nw = x.words_per_row();
  const std::size_t wn = w.rows();
  if (x.rows() == 0 || wn == 0) {
    return;
  }
  const std::uint64_t* wbase = w.row_words(0);
  // One registry pick per GEMM call (not per row): every worker chunk of
  // this call runs the same candidate, and a first-use tuning run happens
  // before the pool fans out.
  const SweepXnorFn sweep =
      Autotuner::instance().pick_xnor(wn, nw, x.rows()).sweep;
  auto run_rows = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> scratch(wn);
    for (std::size_t i = begin; i < end; ++i) {
      sweep(x.row_words(i), wbase, wn, nw, scratch.data());
      emit(i, scratch.data(), wn);
    }
  };
  if (pool != nullptr && pool->size() > 1 && x.rows() > 1) {
    // Grain keeps per-chunk work around a quarter-million word-ops so
    // small batches still spread across the pool.
    const std::size_t grain =
        std::max<std::size_t>(1, 262144 / std::max<std::size_t>(1, wn * nw));
    pool->parallel_for(0, x.rows(), grain, run_rows);
  } else {
    run_rows(0, x.rows());
  }
}

}  // namespace

void xnor_popcount_gemm(const BitMatrix& x, const BitMatrix& w,
                        std::uint32_t* out, ThreadPool* pool) {
  const auto pad = static_cast<std::uint32_t>(x.pad_bits());
  gemm_driver(x, w, pool,
              [out, pad](std::size_t i, const std::uint32_t* raw,
                         std::size_t n) {
                std::uint32_t* row = out + i * n;
                for (std::size_t j = 0; j < n; ++j) {
                  row[j] = raw[j] - pad;
                }
              });
}

void xnor_signed_gemm_visit(
    const BitMatrix& x, const BitMatrix& w,
    const std::function<void(std::size_t, const std::int32_t*, std::size_t)>&
        visit,
    ThreadPool* pool) {
  const auto len = static_cast<std::int32_t>(x.cols());
  const auto pad = static_cast<std::int32_t>(x.pad_bits());
  gemm_driver(x, w, pool,
              [&visit, len, pad](std::size_t i, std::uint32_t* raw,
                                 std::size_t n) {
                auto* srow = reinterpret_cast<std::int32_t*>(raw);
                for (std::size_t j = 0; j < n; ++j) {
                  srow[j] =
                      2 * (static_cast<std::int32_t>(raw[j]) - pad) - len;
                }
                visit(i, srow, n);
              });
}

void xnor_signed_gemm(const BitMatrix& x, const BitMatrix& w,
                      std::int32_t* out, ThreadPool* pool) {
  xnor_signed_gemm_visit(
      x, w,
      [out](std::size_t i, const std::int32_t* vals, std::size_t n) {
        std::copy(vals, vals + n, out + i * n);
      },
      pool);
}

}  // namespace eb::bnn
