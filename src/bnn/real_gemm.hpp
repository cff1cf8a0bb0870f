// Column-vectorized real-valued GEMM for the non-binary network ends.
//
// The paper keeps the first and last Dense/Conv layers in higher
// precision, so batched MLP/CNN inference spends real time in plain
// double GEMMs. This kernel computes
//
//   out[i][j] = bias[j] + sum_k x[i][k] * w[j][k]
//
// Panel layout. The weights are held once, in a PanelMatrix: the n x k
// row-major matrix cut into panels of 16 consecutive rows (= output
// columns j), each stored k-major. Element (j, kk) of panel p = j / 16
// sits at p*16*k + kk*width + (j - 16p), where width = min(16, n - 16p):
// the last panel is ragged (n mod 16 wide), so there is no padding. Rows
// 16p..16p+width of a row-major matrix are one contiguous width*k block,
// so packing transposes each block within itself through a width*k
// scratch buffer -- in place, in the buffer the layer was built from.
//
// Kernel. A tile is one panel against a chunk of x rows: the kernel
// broadcasts x[i][kk] across the panel's columns and keeps one
// accumulator lane per (i, j), updated by a *separate* multiply and add.
// Every (i, j) chain therefore runs bias-first, then k ascending, with
// two roundings per step -- exactly the per-sample reference loop -- so
// results are bit-identical to it for every candidate, thread count and
// batch shape. Candidates (real_gemm_kernels()): "avx512f" (4 rows x 2
// zmm; full panels use unmasked constant-stride loads, only the ragged
// panel uses masks) and "portable" (two-lane GNU vectors over 8-, 4-,
// 2- and 1-column strips of a panel). real_gemm_bias runs the first
// candidate the host supports; the pool fans out over (panel x
// row-chunk) tiles, so a batch-1 call over many panels and a one-panel
// conv over many windows both go parallel.
//
// No contraction. A fused multiply-add rounds once where the reference
// rounds twice, so it changes results. GCC contracts a*b + c into an FMA
// wherever the target has one (its default -ffp-contract=fast, also
// under -std=c++20): inside the avx512f kernel, and in the portable
// kernel on AArch64. real_gemm.cpp therefore switches contraction off
// itself, with a pragma, instead of relying on a build flag: the library
// is also compiled by builds that set no per-file flags
// (perfbench/CMakeLists.txt globs src/*.cpp). test_packed's
// RealGemm.NoFusedMultiplyAdd pins the result on every supported
// candidate, and CI rejects a real_gemm object containing vfmadd.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"

namespace eb::bnn {

/// An n x k real matrix (n output rows of k weights) held as k-major
/// panels of 16 rows, packed in place; see the header comment.
class PanelMatrix {
 public:
  static constexpr std::size_t kWidth = 16;  ///< Rows per full panel.

  PanelMatrix() = default;
  /// Takes `n` rows of `k` values, row-major, and packs them in place
  /// (a width*k scratch buffer, no second copy of the matrix).
  PanelMatrix(std::size_t n, std::size_t k, std::vector<double> row_major);

  [[nodiscard]] std::size_t rows() const { return n_; }
  [[nodiscard]] std::size_t cols() const { return k_; }

  /// Element (j, kk) of the row-major matrix the panels were packed from.
  [[nodiscard]] double at(std::size_t j, std::size_t kk) const {
    const std::size_t j0 = j - j % kWidth;
    return v_[j0 * k_ + kk * std::min(kWidth, n_ - j0) + (j - j0)];
  }
  /// The row-major matrix the panels were packed from.
  [[nodiscard]] std::vector<double> unpack() const;

  /// Panel storage: the panel holding row j0 (a multiple of kWidth)
  /// starts at data() + j0 * cols().
  [[nodiscard]] const double* data() const { return v_.data(); }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::vector<double> v_;
};

/// One tile: `rows` rows of x (row stride k) against one panel of
/// `width` (1..16) columns, k-major at `panel` with row stride `width`.
/// Writes out[r * ldo + jj]; `bias` points at the panel's first bias
/// value, or is nullptr for none.
using RealTileFn = void (*)(const double* x, std::size_t rows, std::size_t k,
                            const double* panel, std::size_t width,
                            const double* bias, double* out, std::size_t ldo);

/// One compiled real-GEMM candidate and whether the host can run it.
struct RealGemmKernel {
  const char* name;  ///< "avx512f" or "portable".
  RealTileFn tile;   ///< Panel-tile kernel.
  bool supported;    ///< Host CPU can execute it.
};

/// Every candidate compiled into this build, fastest first; "portable"
/// is last and supported everywhere.
[[nodiscard]] const std::vector<RealGemmKernel>& real_gemm_kernels();

/// x: m rows of w.cols() values; bias: w.rows() values (nullptr for none);
/// out: m x w.rows() row-major. `pool` may be nullptr (serial). Runs the
/// first supported candidate.
void real_gemm_bias(std::size_t m, const double* x, const PanelMatrix& w,
                    const double* bias, double* out,
                    ThreadPool* pool = nullptr);

/// As above, on a caller-chosen candidate (tests and benches; eb::Error
/// if the host cannot run it). Results are bit-identical across
/// candidates.
void real_gemm_bias(const RealGemmKernel& kernel, std::size_t m,
                    const double* x, const PanelMatrix& w, const double* bias,
                    double* out, ThreadPool* pool = nullptr);

}  // namespace eb::bnn
