#include "xbar/crossbar.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "xbar/periph.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define EB_WDM_X86 1
#endif

// No contraction of a product and a sum into a fused multiply-add
// anywhere below (see crossbar.hpp). After the includes, so it applies to
// this file's functions only.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace eb::xbar {

// One WDM pass over the leading cols columns of an optical cell table. A
// kernel adds into out[k * cols + c], which the caller zero-fills, channel
// k's terms (p * t) -- ((p * t) * f) when f is set -- over the rows
// drives[k] sets, in ascending row order.
struct WdmSweep {
  const double* t;     // cell table, row-major
  const double* f;     // imposed drift factors, same layout; nullptr if none
  std::size_t stride;  // the table's row stride, its column count
  std::size_t cols;    // leading columns summed, at most stride
  double p;                        // per-channel drive power, mW
  std::span<const BitVec> drives;  // channel k's driven rows
  std::size_t words;               // 64-row words of the longest drive
  double* out;                     // channels x cols, channel-major
};

namespace {

// Rows per chunk of a sweep, in 64-row drive words. A column block spans
// every row of the table at its row stride (4 KB at 512 columns), which
// maps the whole block onto a few cache sets; over 128 rows it stays
// cached while the next channel, or channel group, re-reads it. Column
// sums are stored at the end of a chunk and reloaded at the start of the
// next, so each stays in ascending row order.
constexpr std::size_t kChunkWords = 2;

// Word w of a drive; 0 past its end.
std::uint64_t drive_word(const BitVec& d, std::size_t w) {
  return w < d.words().size() ? d.words()[w] : 0;
}

// How many leading columns a read covers: `cols`, or all of them.
std::size_t read_width(const CrossbarDims& dims,
                       std::optional<std::size_t> cols) {
  const std::size_t n = cols.value_or(dims.cols);
  EB_REQUIRE(n <= dims.cols, "read wider than the crossbar");
  return n;
}

// Noises the `n` read columns at `x` in column order from `rng`, then
// skips the draws the crossbar's other dims.cols - n columns would take,
// so `rng` ends where a read of every column leaves it.
void noise_columns(double* x, std::size_t n, const CrossbarDims& dims,
                   double full_scale, const dev::NoiseModel& noise,
                   RngStream& rng) {
  for (std::size_t c = 0; c < n; ++c) {
    x[c] = noise.apply(x[c], full_scale, rng);
  }
  rng.discard(noise.draws() * (dims.cols - n));
}

// ------------------------------------------------------------ portable --
// Row chunks, then blocks of 16 columns, then channels: a channel holds
// its 16 column sums in eight V2 registers (a GNU vector: one SSE2 or
// NEON register; plain scalars on targets without one) while it walks
// the rows its drive sets in the chunk, forming each row's p * t itself.
// The last cols mod 16 columns are summed one at a time.
using V2 = double __attribute__((vector_size(2 * sizeof(double))));

V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr std::size_t kPortableLanes = 8;  // V2 registers per block
constexpr std::size_t kPortableBlock = 2 * kPortableLanes;

// Channel d's rows of the chunk of words [w0, w1) over the block at c0.
template <bool Drift>
void portable_block(const WdmSweep& s, const BitVec& d, std::size_t w0,
                    std::size_t w1, std::size_t c0, double* out) {
  const V2 p = {s.p, s.p};
  V2 acc[kPortableLanes];
  std::memcpy(acc, out + c0, sizeof acc);
  for (std::size_t w = w0; w < w1; ++w) {
    for (std::uint64_t bits = drive_word(d, w); bits != 0; bits &= bits - 1) {
      const std::size_t r =
          64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t at = r * s.stride + c0;
      for (std::size_t j = 0; j < kPortableLanes; ++j) {
        V2 pt = p * load2(s.t + at + 2 * j);
        if constexpr (Drift) {
          pt = pt * load2(s.f + at + 2 * j);
        }
        acc[j] += pt;
      }
    }
  }
  std::memcpy(out + c0, acc, sizeof acc);
}

template <bool Drift>
void portable_column(const WdmSweep& s, const BitVec& d, std::size_t w0,
                     std::size_t w1, std::size_t c, double* out) {
  double acc = out[c];
  for (std::size_t w = w0; w < w1; ++w) {
    for (std::uint64_t bits = drive_word(d, w); bits != 0; bits &= bits - 1) {
      const std::size_t r =
          64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t at = r * s.stride + c;
      double pt = s.p * s.t[at];
      if constexpr (Drift) {
        pt = pt * s.f[at];
      }
      acc += pt;
    }
  }
  out[c] = acc;
}

template <bool Drift>
void portable_sweep(const WdmSweep& s) {
  for (std::size_t w0 = 0; w0 < s.words; w0 += kChunkWords) {
    const std::size_t w1 = std::min(s.words, w0 + kChunkWords);
    std::size_t c0 = 0;
    for (; c0 + kPortableBlock <= s.cols; c0 += kPortableBlock) {
      for (std::size_t k = 0; k < s.drives.size(); ++k) {
        portable_block<Drift>(s, s.drives[k], w0, w1, c0,
                              s.out + k * s.cols);
      }
    }
    for (; c0 < s.cols; ++c0) {
      for (std::size_t k = 0; k < s.drives.size(); ++k) {
        portable_column<Drift>(s, s.drives[k], w0, w1, c0,
                               s.out + k * s.cols);
      }
    }
  }
}

void sweep_portable(const WdmSweep& s) {
  if (s.f != nullptr) {
    portable_sweep<true>(s);
  } else {
    portable_sweep<false>(s);
  }
}

#ifdef EB_WDM_X86
// ------------------------------------------------------------- avx512f --
// Row chunks, then blocks of 32 columns (four zmm per channel), then
// channel groups of min(kGroup, channels left), so a one-input pass does
// no masked-off work. A group of G channels holds 4G column sums in
// registers; each row the group drives has its p * t formed once and
// added into the sums of every channel of the group, where a channel that
// does not drive the row keeps its lanes through a masked add. The last,
// partial block loads and stores through column masks.
constexpr std::size_t kAvxBlock = 32;
constexpr std::size_t kGroup = 4;

// A row that some channel of a group drives: bit g of `channels` is set
// when the group's channel g drives it.
struct DrivenRow {
  std::size_t row;
  std::uint32_t channels;
};

template <std::size_t G, bool Drift, bool Masked>
__attribute__((target("avx512f"), always_inline)) inline void avx512_group(
    const WdmSweep& s, const DrivenRow* rows, const DrivenRow* rows_end,
    std::size_t c0, const __mmask8* m, double* out) {
  __m512d acc[G][4];
  for (std::size_t g = 0; g < G; ++g) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double* o = out + g * s.cols + c0 + 8 * j;
      acc[g][j] = Masked ? _mm512_maskz_loadu_pd(m[j], o) : _mm512_loadu_pd(o);
    }
  }
  const __m512d p = _mm512_set1_pd(s.p);
  for (const DrivenRow* d = rows; d != rows_end; ++d) {
    const std::size_t at = d->row * s.stride + c0;
    __m512d pt[4];
    for (std::size_t j = 0; j < 4; ++j) {
      const double* t = s.t + at + 8 * j;
      pt[j] = _mm512_mul_pd(p, Masked ? _mm512_maskz_loadu_pd(m[j], t)
                                      : _mm512_loadu_pd(t));
      if constexpr (Drift) {
        const double* f = s.f + at + 8 * j;
        pt[j] = _mm512_mul_pd(pt[j], Masked ? _mm512_maskz_loadu_pd(m[j], f)
                                            : _mm512_loadu_pd(f));
      }
    }
    if constexpr (G == 1) {
      for (std::size_t j = 0; j < 4; ++j) {
        acc[0][j] = _mm512_add_pd(acc[0][j], pt[j]);
      }
    } else {
      for (std::size_t g = 0; g < G; ++g) {
        const auto on = static_cast<__mmask8>(
            -static_cast<int>((d->channels >> g) & 1u));
        for (std::size_t j = 0; j < 4; ++j) {
          acc[g][j] = _mm512_mask_add_pd(acc[g][j], on, acc[g][j], pt[j]);
        }
      }
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    for (std::size_t j = 0; j < 4; ++j) {
      double* o = out + g * s.cols + c0 + 8 * j;
      if constexpr (Masked) {
        _mm512_mask_storeu_pd(o, m[j], acc[g][j]);
      } else {
        _mm512_storeu_pd(o, acc[g][j]);
      }
    }
  }
}

// Every channel group over the 32 columns from c0, group g on the rows
// [rows + bounds[g], rows + bounds[g + 1]).
template <bool Drift, bool Masked>
__attribute__((target("avx512f"))) void avx512_block(
    const WdmSweep& s, const DrivenRow* rows, const std::size_t* bounds,
    std::size_t c0, const __mmask8* m) {
  const std::size_t channels = s.drives.size();
  for (std::size_t g = 0, k0 = 0; k0 < channels; ++g, k0 += kGroup) {
    const DrivenRow* lo = rows + bounds[g];
    const DrivenRow* hi = rows + bounds[g + 1];
    double* out = s.out + k0 * s.cols;
    switch (std::min(kGroup, channels - k0)) {
      case 1:
        avx512_group<1, Drift, Masked>(s, lo, hi, c0, m, out);
        break;
      case 2:
        avx512_group<2, Drift, Masked>(s, lo, hi, c0, m, out);
        break;
      case 3:
        avx512_group<3, Drift, Masked>(s, lo, hi, c0, m, out);
        break;
      default:
        avx512_group<4, Drift, Masked>(s, lo, hi, c0, m, out);
        break;
    }
  }
}

template <bool Drift>
void avx512_sweep(const WdmSweep& s) {
  // Each chunk's driven rows, group after group, ascending within a
  // group: the union of the group's drive words with one channel bit per
  // row. Chunk i's group g holds rows[bounds[i * groups + g]] up to
  // rows[bounds[i * groups + g + 1]].
  const std::size_t channels = s.drives.size();
  const std::size_t groups = (channels + kGroup - 1) / kGroup;
  const std::size_t chunks = (s.words + kChunkWords - 1) / kChunkWords;
  std::vector<DrivenRow> rows;
  std::vector<std::size_t> bounds;
  for (std::size_t i = 0; i < chunks; ++i) {
    for (std::size_t k0 = 0; k0 < channels; k0 += kGroup) {
      bounds.push_back(rows.size());
      const std::size_t width = std::min(kGroup, channels - k0);
      for (std::size_t w = i * kChunkWords;
           w < std::min(s.words, (i + 1) * kChunkWords); ++w) {
        std::uint64_t bits[kGroup] = {};
        std::uint64_t any = 0;
        for (std::size_t g = 0; g < width; ++g) {
          bits[g] = drive_word(s.drives[k0 + g], w);
          any |= bits[g];
        }
        for (; any != 0; any &= any - 1) {
          const auto b = static_cast<unsigned>(std::countr_zero(any));
          std::uint32_t on = 0;
          for (std::size_t g = 0; g < width; ++g) {
            on |= static_cast<std::uint32_t>((bits[g] >> b) & 1u) << g;
          }
          rows.push_back({64 * w + b, on});
        }
      }
    }
  }
  bounds.push_back(rows.size());

  const __mmask8 full[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  __mmask8 tail[4];
  const std::size_t left = s.cols % kAvxBlock;
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t lanes = std::min<std::size_t>(
        8, left > 8 * j ? left - 8 * j : 0);
    tail[j] = static_cast<__mmask8>((1u << lanes) - 1u);
  }
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t* chunk = bounds.data() + i * groups;
    std::size_t c0 = 0;
    for (; c0 + kAvxBlock <= s.cols; c0 += kAvxBlock) {
      avx512_block<Drift, false>(s, rows.data(), chunk, c0, full);
    }
    if (c0 < s.cols) {
      avx512_block<Drift, true>(s, rows.data(), chunk, c0, tail);
    }
  }
}

void sweep_avx512(const WdmSweep& s) {
  if (s.f != nullptr) {
    avx512_sweep<true>(s);
  } else {
    avx512_sweep<false>(s);
  }
}
#endif  // EB_WDM_X86

}  // namespace

const std::vector<WdmKernel>& wdm_kernels() {
  static const std::vector<WdmKernel> kernels = [] {
    std::vector<WdmKernel> r;
#ifdef EB_WDM_X86
    r.push_back(
        {"avx512f", sweep_avx512, __builtin_cpu_supports("avx512f") != 0});
#endif
    r.push_back({"portable", sweep_portable, true});
    return r;
  }();
  return kernels;
}

std::size_t CrossbarDims::index(std::size_t r, std::size_t c) const {
  EB_REQUIRE(r < rows && c < cols, "cell index out of range");
  return r * cols + c;
}

// ----------------------------------------------------------- DriftTable --

void DriftTable::set(const dev::DriftModel& model, double t_s,
                     std::size_t cells, const RngStream& base) {
  auto factors = model.factors(t_s, cells, base);
  std::shared_ptr<const std::vector<double>> table;
  if (!factors.empty()) {
    table = std::make_shared<const std::vector<double>>(std::move(factors));
  }
  std::lock_guard<std::mutex> g(mu_);
  table_ = std::move(table);
}

void DriftTable::clear() {
  std::lock_guard<std::mutex> g(mu_);
  table_.reset();
}

std::shared_ptr<const std::vector<double>> DriftTable::get() const {
  std::lock_guard<std::mutex> g(mu_);
  return table_;
}

// ------------------------------------------------------- ElectricalXbar --

ElectricalCrossbar::ElectricalCrossbar(CrossbarDims dims,
                                       dev::EpcmParams dev_params,
                                       std::uint64_t seed)
    : dims_(dims),
      params_(dev_params),
      g_us_(dims.cells(), dev_params.g_off_us),
      rng_(seed) {
  dev::validate(params_);
  EB_REQUIRE(dims.rows > 0 && dims.cols > 0, "crossbar must be non-empty");
}

void ElectricalCrossbar::program(std::size_t row, std::size_t col,
                                 std::size_t level) {
  const std::size_t i = dims_.index(row, col);
  g_us_[i] = dev::program_conductance(params_, level, rng_);
}

void ElectricalCrossbar::program_column(std::size_t col, const BitVec& bits) {
  EB_REQUIRE(bits.size() <= dims_.rows,
             "bit vector longer than crossbar column");
  for (std::size_t r = 0; r < bits.size(); ++r) {
    program(r, col, bits.get(r) ? 1 : 0);
  }
  // Rows beyond the vector stay untouched (caller owns layout policy).
}

std::vector<double> ElectricalCrossbar::vmm_currents_bits(
    const BitVec& active, double v_read, const dev::NoiseModel& noise,
    RngStream& rng, double t_s, std::optional<std::size_t> cols) const {
  EB_REQUIRE(active.size() <= dims_.rows, "too many active rows");
  const std::size_t n = read_width(dims_, cols);
  const auto drift = drift_.get();
  // Device drift scales every cell alike: one power law per read.
  const double k = dev::drift_factor(params_, t_s);
  std::vector<double> out(n, 0.0);
  for (std::size_t r = 0; r < active.size(); ++r) {
    if (!active.get(r)) {
      continue;
    }
    const double* g = g_us_.data() + r * dims_.cols;
    if (drift) {
      const double* f = drift->data() + r * dims_.cols;
      for (std::size_t c = 0; c < n; ++c) {
        out[c] += v_read * (g[c] * k) * f[c];
      }
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        out[c] += v_read * (g[c] * k);
      }
    }
  }
  const double full_scale =
      static_cast<double>(dims_.rows) * on_current(1.0);
  noise_columns(out.data(), n, dims_, full_scale, noise, rng);
  return out;
}

double ElectricalCrossbar::on_current(double v_read) const {
  return v_read * params_.g_on_us;
}

double ElectricalCrossbar::off_current(double v_read) const {
  return v_read * params_.g_off_us;
}

void ElectricalCrossbar::set_drift(const dev::DriftModel& model, double t_s,
                                   const RngStream& base) {
  drift_.set(model, t_s, g_us_.size(), base);
}

void ElectricalCrossbar::clear_drift() { drift_.clear(); }

// --------------------------------------------------------- OpticalXbar --

OpticalCrossbar::OpticalCrossbar(CrossbarDims dims, dev::OpcmParams dev_params,
                                 std::uint64_t seed)
    : dims_(dims),
      params_(dev_params),
      loss_(dev::insertion_loss_factor(dev_params)),
      t_eff_(dims.cells(), dev_params.t_crystalline * loss_),
      rng_(seed) {
  dev::validate(params_);
  EB_REQUIRE(dims.rows > 0 && dims.cols > 0, "crossbar must be non-empty");
}

void OpticalCrossbar::program(std::size_t row, std::size_t col,
                              std::size_t level) {
  const std::size_t i = dims_.index(row, col);
  t_eff_[i] = dev::program_transmission(params_, level, rng_) * loss_;
}

void OpticalCrossbar::program_column(std::size_t col, const BitVec& bits) {
  EB_REQUIRE(bits.size() <= dims_.rows,
             "bit vector longer than crossbar column");
  for (std::size_t r = 0; r < bits.size(); ++r) {
    program(r, col, bits.get(r) ? (params_.levels - 1) : 0);
  }
}

std::vector<double> OpticalCrossbar::wdm_powers(
    std::span<const BitVec> drives, double p_in_mw,
    const dev::NoiseModel& noise, std::span<RngStream* const> rngs,
    std::optional<std::size_t> cols) const {
  static const WdmKernel& best = *std::find_if(
      wdm_kernels().begin(), wdm_kernels().end(),
      [](const WdmKernel& c) { return c.supported; });
  return wdm_powers(best, drives, p_in_mw, noise, rngs, cols);
}

std::vector<double> OpticalCrossbar::wdm_powers(
    const WdmKernel& kernel, std::span<const BitVec> drives, double p_in_mw,
    const dev::NoiseModel& noise, std::span<RngStream* const> rngs,
    std::optional<std::size_t> cols) const {
  EB_REQUIRE(kernel.supported, std::string("WDM sweep kernel '") +
                                   kernel.name +
                                   "' is not supported on this CPU");
  EB_REQUIRE(rngs.size() == drives.size(), "one noise stream per channel");
  std::size_t words = 0;
  for (const BitVec& d : drives) {
    EB_REQUIRE(d.size() <= dims_.rows, "too many active rows");
    words = std::max(words, d.words().size());
  }
  const std::size_t n = read_width(dims_, cols);
  const auto drift = drift_.get();
  const std::size_t channels = drives.size();
  std::vector<double> out(channels * n, 0.0);
  kernel.sweep({t_eff_.data(), drift ? drift->data() : nullptr, dims_.cols,
                n, p_in_mw, drives, words, out.data()});

  const double full_scale =
      static_cast<double>(dims_.rows) * on_power(p_in_mw);
  for (std::size_t k = 0; k < channels; ++k) {
    noise_columns(out.data() + k * n, n, dims_, full_scale, noise, *rngs[k]);
  }
  return out;
}

double OpticalCrossbar::on_power(double p_in_mw) const {
  return p_in_mw * params_.t_amorphous * loss_;
}

double OpticalCrossbar::off_power(double p_in_mw) const {
  return p_in_mw * params_.t_crystalline * loss_;
}

void OpticalCrossbar::set_drift(const dev::DriftModel& model, double t_s,
                                const RngStream& base) {
  drift_.set(model, t_s, t_eff_.size(), base);
}

void OpticalCrossbar::clear_drift() { drift_.clear(); }

// ----------------------------------------------------- DifferentialXbar --

DifferentialCrossbar::DifferentialCrossbar(std::size_t rows, std::size_t pairs,
                                           dev::EpcmParams dev_params,
                                           std::uint64_t seed)
    : rows_(rows),
      pairs_(pairs),
      params_(dev_params),
      g_us_(rows * pairs * 2, dev_params.g_off_us),
      rng_(seed) {
  dev::validate(params_);
  EB_REQUIRE(rows > 0 && pairs > 0, "crossbar must be non-empty");
}

void DifferentialCrossbar::program_pair(std::size_t row, std::size_t pair,
                                        bool w) {
  EB_REQUIRE(row < rows_ && pair < pairs_, "pair index out of range");
  const std::size_t base = (row * pairs_ + pair) * 2;
  g_us_[base] = dev::program_conductance(params_, w ? 1 : 0, rng_);
  g_us_[base + 1] = dev::program_conductance(params_, w ? 0 : 1, rng_);
}

BitVec DifferentialCrossbar::read_row_xnor(std::size_t row, const BitVec& x,
                                           double v_read,
                                           const dev::NoiseModel& noise,
                                           RngStream& rng) const {
  EB_REQUIRE(row < rows_, "row out of range");
  EB_REQUIRE(x.size() <= pairs_, "input wider than pair count");
  const double i_on = v_read * params_.g_on_us;
  const double i_off = v_read * params_.g_off_us;
  const double i_ref = 0.5 * (i_on + i_off);
  const PrechargeSenseAmp pcsa;

  const auto drift = drift_.get();
  BitVec out(x.size());
  for (std::size_t p = 0; p < x.size(); ++p) {
    const std::size_t base = (row * pairs_ + p) * 2;
    const double f_w = drift ? (*drift)[base] : 1.0;
    const double f_wb = drift ? (*drift)[base + 1] : 1.0;
    // Complementary bit-line drive: x selects the w branch, ~x the ~w
    // branch; the summed pair current is high iff XNOR(x, w) = 1.
    const double i = (x.get(p) ? v_read : 0.0) * g_us_[base] * f_w +
                     (x.get(p) ? 0.0 : v_read) * g_us_[base + 1] * f_wb;
    const double i_noisy = noise.apply(i, i_on, rng);
    out.set(p, pcsa.sense(i_noisy, i_ref, i_on, rng));
  }
  return out;
}

void DifferentialCrossbar::set_drift(const dev::DriftModel& model, double t_s,
                                     const RngStream& base) {
  drift_.set(model, t_s, g_us_.size(), base);
}

void DifferentialCrossbar::clear_drift() { drift_.clear(); }

}  // namespace eb::xbar
