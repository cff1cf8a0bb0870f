#include "bnn/real_gemm.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define EB_REAL_GEMM_X86 1
#endif

// No contraction of x*w + acc into a fused multiply-add anywhere below
// (see real_gemm.hpp for why this lives in the source, not in a flag).
// After the includes, so it applies to this file's functions only.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace eb::bnn {

namespace {

constexpr std::size_t kWidth = PanelMatrix::kWidth;
// x rows per tile: one tile sweeps its panel's k*width weights once per
// row block, so taller tiles re-read the panel less; 64 keeps an MLP
// batch in one tile per panel and still cuts a conv's im2col windows
// into hundreds of tiles for the pool.
constexpr std::size_t kTileRows = 64;

// ------------------------------------------------------------ portable --
// Column strips of a panel, each a register block of R rows x C columns
// with fixed R and C. Columns go two to a V2 lane pair (a GNU vector:
// one SSE2 or NEON register; plain scalars on targets without one), so
// the compiler vectorizes across columns, never across k -- where the
// loop vectorizer would otherwise go, shuffling every product.
using V2 = double __attribute__((vector_size(2 * sizeof(double))));

V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// R rows x 2V columns of one panel (row stride `stride`).
template <std::size_t R, std::size_t V>
void strip_rows(const double* x, std::size_t k, const double* panel,
                std::size_t stride, const double* bias, double* out,
                std::size_t ldo) {
  V2 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < V; ++c) {
      acc[r][c] = bias != nullptr ? load2(bias + 2 * c) : V2{0.0, 0.0};
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    V2 w[V];
    for (std::size_t c = 0; c < V; ++c) {
      w[c] = load2(panel + kk * stride + 2 * c);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const double xs = x[r * k + kk];
      const V2 xv = {xs, xs};
      for (std::size_t c = 0; c < V; ++c) {
        acc[r][c] += xv * w[c];
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    std::memcpy(out + r * ldo, acc[r], sizeof acc[r]);
  }
}

// R rows x 1 column (the odd last column of a panel), two rows to a V2:
// lanes hold rows, not columns, so this strip vectorizes too.
template <std::size_t R>
void column_rows(const double* x, std::size_t k, const double* panel,
                 std::size_t stride, const double* bias, double* out,
                 std::size_t ldo) {
  constexpr std::size_t P = (R + 1) / 2;  // row pairs (R == 1: one lane idle)
  const double b = bias != nullptr ? bias[0] : 0.0;
  V2 acc[P];
  for (std::size_t q = 0; q < P; ++q) {
    acc[q] = V2{b, b};
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double ws = panel[kk * stride];
    const V2 w = {ws, ws};
    for (std::size_t q = 0; q < P; ++q) {
      const V2 xv = {x[2 * q * k + kk], 2 * q + 1 < R ? x[(2 * q + 1) * k + kk]
                                                      : 0.0};
      acc[q] += xv * w;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    out[r * ldo] = acc[r / 2][r % 2];
  }
}

// B rows x C columns: row pairs in lanes for the single column, column
// pairs in lanes otherwise.
template <std::size_t B, std::size_t C>
void strip_block(const double* x, std::size_t k, const double* panel,
                 std::size_t stride, const double* bias, double* out,
                 std::size_t ldo) {
  if constexpr (C == 1) {
    column_rows<B>(x, k, panel, stride, bias, out, ldo);
  } else {
    strip_rows<B, C / 2>(x, k, panel, stride, bias, out, ldo);
  }
}

// Every row of the tile against one C-column strip: R rows at a time (8
// accumulator registers), remainder rows one by one.
template <std::size_t C>
void strip(const double* x, std::size_t rows, std::size_t k,
           const double* panel, std::size_t stride, const double* bias,
           double* out, std::size_t ldo) {
  constexpr std::size_t R = C >= 8 ? 2 : C == 4 ? 4 : C == 2 ? 8 : 16;
  std::size_t i = 0;
  for (; i + R <= rows; i += R) {
    strip_block<R, C>(x + i * k, k, panel, stride, bias, out + i * ldo, ldo);
  }
  for (; i < rows; ++i) {
    strip_block<1, C>(x + i * k, k, panel, stride, bias, out + i * ldo, ldo);
  }
}

// The panel's columns as strips of 8, 4, 2 and 1 (binary decomposition
// of its width), each a separate pass over k.
void tile_portable(const double* x, std::size_t rows, std::size_t k,
                   const double* panel, std::size_t width, const double* bias,
                   double* out, std::size_t ldo) {
  std::size_t c = 0;
  const auto run = [&](std::size_t w, auto strip_fn) {
    for (; c + w <= width; c += w) {
      strip_fn(x, rows, k, panel + c, width,
               bias != nullptr ? bias + c : nullptr, out + c, ldo);
    }
  };
  run(8, strip<8>);
  run(4, strip<4>);
  run(2, strip<2>);
  run(1, strip<1>);
}

#ifdef EB_REAL_GEMM_X86
// ------------------------------------------------------------- avx512f --
// Panel shapes: a full 16-wide panel (two zmm, unmasked loads at the
// constant stride 16) and a ragged 1..15-wide one (both zmm masked; the
// second mask is empty when the panel is at most 8 wide).
enum class Shape { kFull, kMasked };

constexpr std::size_t kAvxRows = 4;  // x rows per register block

template <Shape S, std::size_t R>
__attribute__((target("avx512f"), always_inline)) inline void avx512_rows(
    const double* x, std::size_t k, const double* panel, std::size_t width,
    __m512d b0, __m512d b1, __mmask8 m0, __mmask8 m1, double* out,
    std::size_t ldo) {
  const std::size_t stride = S == Shape::kFull ? kWidth : width;
  __m512d acc0[R];
  __m512d acc1[R];
  for (std::size_t r = 0; r < R; ++r) {
    acc0[r] = b0;
    acc1[r] = b1;
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* wk = panel + kk * stride;
    __m512d w0;
    __m512d w1;
    if constexpr (S == Shape::kFull) {
      w0 = _mm512_loadu_pd(wk);
      w1 = _mm512_loadu_pd(wk + 8);
    } else {
      w0 = _mm512_maskz_loadu_pd(m0, wk);
      w1 = _mm512_maskz_loadu_pd(m1, wk + 8);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d xv = _mm512_set1_pd(x[r * k + kk]);
      acc0[r] = _mm512_add_pd(acc0[r], _mm512_mul_pd(xv, w0));
      acc1[r] = _mm512_add_pd(acc1[r], _mm512_mul_pd(xv, w1));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    double* o = out + r * ldo;
    if constexpr (S == Shape::kFull) {
      _mm512_storeu_pd(o, acc0[r]);
      _mm512_storeu_pd(o + 8, acc1[r]);
    } else {
      _mm512_mask_storeu_pd(o, m0, acc0[r]);
      _mm512_mask_storeu_pd(o + 8, m1, acc1[r]);
    }
  }
}

// The 0..Q leftover rows of a tile, as one fixed-size block.
template <Shape S, std::size_t Q>
__attribute__((target("avx512f"), always_inline)) inline void avx512_rest(
    std::size_t left, const double* x, std::size_t k, const double* panel,
    std::size_t width, __m512d b0, __m512d b1, __mmask8 m0, __mmask8 m1,
    double* out, std::size_t ldo) {
  if constexpr (Q > 0) {
    if (left == Q) {
      avx512_rows<S, Q>(x, k, panel, width, b0, b1, m0, m1, out, ldo);
    } else {
      avx512_rest<S, Q - 1>(left, x, k, panel, width, b0, b1, m0, m1, out,
                            ldo);
    }
  }
}

// All rows of one tile: blocks of kAvxRows rows, then one remainder block.
template <Shape S>
__attribute__((target("avx512f"))) void avx512_tile(
    const double* x, std::size_t rows, std::size_t k, const double* panel,
    std::size_t width, const double* bias, double* out, std::size_t ldo) {
  const __mmask8 m0 =
      static_cast<__mmask8>(width >= 8 ? 0xFFu : (1u << width) - 1u);
  const __mmask8 m1 =
      static_cast<__mmask8>(width > 8 ? (1u << (width - 8)) - 1u : 0u);
  __m512d b0 = _mm512_setzero_pd();
  __m512d b1 = _mm512_setzero_pd();
  if (bias != nullptr) {
    b0 = _mm512_maskz_loadu_pd(m0, bias);
    b1 = _mm512_maskz_loadu_pd(m1, bias + 8);
  }
  std::size_t i = 0;
  for (; i + kAvxRows <= rows; i += kAvxRows) {
    avx512_rows<S, kAvxRows>(x + i * k, k, panel, width, b0, b1, m0, m1,
                             out + i * ldo, ldo);
  }
  avx512_rest<S, kAvxRows - 1>(rows - i, x + i * k, k, panel, width, b0, b1,
                               m0, m1, out + i * ldo, ldo);
}

__attribute__((target("avx512f"))) void tile_avx512(
    const double* x, std::size_t rows, std::size_t k, const double* panel,
    std::size_t width, const double* bias, double* out, std::size_t ldo) {
  if (width == kWidth) {
    avx512_tile<Shape::kFull>(x, rows, k, panel, width, bias, out, ldo);
  } else {
    avx512_tile<Shape::kMasked>(x, rows, k, panel, width, bias, out, ldo);
  }
}
#endif  // EB_REAL_GEMM_X86

}  // namespace

PanelMatrix::PanelMatrix(std::size_t n, std::size_t k,
                         std::vector<double> row_major)
    : n_(n), k_(k), v_(std::move(row_major)) {
  EB_REQUIRE(v_.size() == n * k, "panel matrix needs n*k row-major values");
  std::vector<double> scratch(std::min(n, kWidth) * k);
  for (std::size_t j0 = 0; j0 < n; j0 += kWidth) {
    const std::size_t width = std::min(kWidth, n - j0);
    double* block = v_.data() + j0 * k;
    std::copy_n(block, width * k, scratch.data());
    // Writes in panel order (contiguous) and reads `width` strided rows,
    // the faster of the two loop orders.
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t c = 0; c < width; ++c) {
        block[kk * width + c] = scratch[c * k + kk];
      }
    }
  }
}

std::vector<double> PanelMatrix::unpack() const {
  std::vector<double> out(v_.size());
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t kk = 0; kk < k_; ++kk) {
      out[j * k_ + kk] = at(j, kk);
    }
  }
  return out;
}

const std::vector<RealGemmKernel>& real_gemm_kernels() {
  static const std::vector<RealGemmKernel> kernels = [] {
    std::vector<RealGemmKernel> r;
#ifdef EB_REAL_GEMM_X86
    r.push_back(
        {"avx512f", tile_avx512, __builtin_cpu_supports("avx512f") != 0});
#endif
    r.push_back({"portable", tile_portable, true});
    return r;
  }();
  return kernels;
}

void real_gemm_bias(const RealGemmKernel& kernel, std::size_t m,
                    const double* x, const PanelMatrix& w, const double* bias,
                    double* out, ThreadPool* pool) {
  const std::size_t n = w.rows();
  const std::size_t k = w.cols();
  if (m == 0 || n == 0) {
    return;  // empty batch / empty layer: nothing to write
  }
  EB_REQUIRE(kernel.supported, std::string("real GEMM kernel '") +
                                   kernel.name +
                                   "' is not supported on this CPU");
  EB_REQUIRE(out != nullptr, "real_gemm_bias needs out");
  EB_REQUIRE(k == 0 || x != nullptr, "real_gemm_bias needs x when k > 0");
  const std::size_t chunks = (m + kTileRows - 1) / kTileRows;
  const std::size_t tiles = chunks * ((n + kWidth - 1) / kWidth);
  // Panel-major tile order: the row chunks of one panel are handed out
  // back to back, so its weights come from memory once and from cache for
  // the chunks that follow.
  auto body = [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t j0 = (t / chunks) * kWidth;
      const std::size_t i0 = (t % chunks) * kTileRows;
      kernel.tile(x + i0 * k, std::min(kTileRows, m - i0), k,
                  w.data() + j0 * k, std::min(kWidth, n - j0),
                  bias != nullptr ? bias + j0 : nullptr, out + i0 * n + j0,
                  n);
    }
  };
  if (pool != nullptr && tiles > 1) {
    pool->parallel_for(0, tiles, 1, body);
  } else {
    body(0, tiles);
  }
}

void real_gemm_bias(std::size_t m, const double* x, const PanelMatrix& w,
                    const double* bias, double* out, ThreadPool* pool) {
  static const RealGemmKernel& best = *std::find_if(
      real_gemm_kernels().begin(), real_gemm_kernels().end(),
      [](const RealGemmKernel& c) { return c.supported; });
  real_gemm_bias(best, m, x, w, bias, out, pool);
}

}  // namespace eb::bnn
