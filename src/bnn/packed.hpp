// The fused XNOR+Popcount GEMM entry points over packed bit matrices.
//
// X and W are eb::BitMatrix slabs (common/bitvec.hpp): every row padded to
// whole 64-bit words, padding zero. A binary layer's weights, its batch
// of binarized activations and its im2col windows all live in that one
// container, so the kernels stream x-row against w-row with zero
// indirection:
//
//   out[i][j] = popcount(X.row(i) XNOR W.row(j))        (paper Eq. 1)
//
// The kernels are exact integer popcounts -- the packed engine produces
// bit-identical results to the per-sample reference path; only the
// schedule (batched, word-parallel, multi-threaded) changes. The kernel
// implementations live in bnn/kernels.hpp as a registry of named
// candidates (AVX-512 VPOPCNTDQ, AVX-512BW / AVX2 byte-LUT row blocks,
// POPCNT, NEON, portable); which candidate runs is chosen per shape
// class by the empirical Autotuner in bnn/autotune.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/bitvec.hpp"
#include "common/thread_pool.hpp"

namespace eb::bnn {

// Batched XNOR+Popcount GEMM: out[i * W.rows() + j] =
// popcount(X.row(i) XNOR W.row(j)). X and W must agree on cols(). When a
// pool is given the X rows are sharded across it.
void xnor_popcount_gemm(const BitMatrix& x, const BitMatrix& w,
                        std::uint32_t* out, ThreadPool* pool = nullptr);

// Signed BNN variant (paper Eq. 1): out[i * W.rows() + j] =
// 2 * popcount(XNOR) - cols.
void xnor_signed_gemm(const BitMatrix& x, const BitMatrix& w,
                      std::int32_t* out, ThreadPool* pool = nullptr);

// Signed GEMM without a materialized output matrix: `visit(i, vals, n)` is
// called once per X row with that row's n = W.rows() signed products in a
// scratch buffer (valid only during the call; calls may come from pool
// threads, each row exactly once). Lets callers scatter/convert each row
// while it is still cache-hot instead of re-reading a large intermediate.
void xnor_signed_gemm_visit(
    const BitMatrix& x, const BitMatrix& w,
    const std::function<void(std::size_t, const std::int32_t*, std::size_t)>&
        visit,
    ThreadPool* pool = nullptr);

// popcount(a XNOR b) over `bits` valid bits of two word arrays whose
// padding (if any) is zeroed. Exposed for the property tests.
[[nodiscard]] std::size_t xnor_popcount_words(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t words,
                                              std::size_t pad_bits);

}  // namespace eb::bnn
