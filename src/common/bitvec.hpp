// Packed binary vectors and matrices.
//
// BNNs in this library use the {0,1} encoding (paper Eq. 1 notation: the
// primed vectors In' and W'). A BitVec packs one vector into 64-bit words;
// a BitMatrix packs equal-length rows into one word-aligned slab: a binary
// layer's weights, a batch of binarized activations or im2col windows. The
// XNOR+Popcount GEMMs (bnn/packed.hpp) read BitMatrix rows in place, and
// the crossbar mappings program them. Both keep every padding bit past the
// last column zero; the popcount kernels rely on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace eb {

// Writes bit i = bit(i) for i < n into the ceil(n / 64) words at `dst`, 64
// bits at a time; the last word's padding is written zero. The one packing
// loop behind bnn::binarize, BitMatrix::set_row_signs and
// serve::tensor_to_bits, each of which passes its own rule.
template <typename BitFn>
void pack_words(std::uint64_t* dst, std::size_t n, BitFn bit) {
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t bits = std::min<std::size_t>(64, n - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      word |= static_cast<std::uint64_t>(bit(base + b)) << b;
    }
    *dst++ = word;
  }
}

class BitVec {
 public:
  BitVec() = default;

  // Vector of `n` bits, all cleared.
  explicit BitVec(std::size_t n);

  // Build from a 0/1 initializer, e.g. BitVec::from_bits({1,0,1,1}).
  [[nodiscard]] static BitVec from_bits(const std::vector<int>& bits);

  // Vector of `n` bits with bit i = bit(i), packed by pack_words.
  template <typename BitFn>
  [[nodiscard]] static BitVec pack(std::size_t n, BitFn bit) {
    BitVec v(n);
    pack_words(v.words_.data(), n, bit);
    return v;
  }

  // Uniformly random vector of `n` bits.
  [[nodiscard]] static BitVec random(std::size_t n, Rng& rng);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const;
  void set(std::size_t i, bool v);

  // Number of set bits.
  [[nodiscard]] std::size_t popcount() const;

  // Bitwise complement (respects the logical size; padding stays zero).
  [[nodiscard]] BitVec complemented() const;

  // Concatenation: *this followed by `tail`. TacitMap drives crossbar rows
  // with concat(x, ~x).
  [[nodiscard]] BitVec concat(const BitVec& tail) const;

  // Element-wise XNOR with an equal-length vector.
  [[nodiscard]] BitVec xnor(const BitVec& other) const;

  // Element-wise AND with an equal-length vector.
  [[nodiscard]] BitVec and_with(const BitVec& other) const;

  // popcount(this XNOR other) without materializing the intermediate.
  // This is the BNN inner-product kernel of paper Eq. 1.
  [[nodiscard]] std::size_t xnor_popcount(const BitVec& other) const;

  // Signed BNN dot product over the +/-1 interpretation (paper Eq. 1):
  //   dot = 2 * popcount(xnor) - length
  [[nodiscard]] long long signed_dot(const BitVec& other) const;

  // Sub-vector [begin, begin+len). Used by the crossbar partitioner to
  // split long vectors into row segments.
  [[nodiscard]] BitVec slice(std::size_t begin, std::size_t len) const;

  // "0101..." rendering (LSB-first, index order).
  [[nodiscard]] std::string to_string() const;

  // Expand to a vector of 0/1 ints (slow path for tests / debugging).
  [[nodiscard]] std::vector<int> to_bits() const;

  // Expand to +1/-1 doubles (binarized-value interpretation).
  [[nodiscard]] std::vector<double> to_signed() const;

  [[nodiscard]] bool operator==(const BitVec& other) const;
  [[nodiscard]] bool operator!=(const BitVec& other) const {
    return !(*this == other);
  }

  // Raw packed words (read-only; last word is zero-padded).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

 private:
  friend class BitMatrix;

  void mask_tail();
  [[nodiscard]] static std::size_t word_count(std::size_t bits) {
    return (bits + 63) / 64;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

// rows x cols bits in one slab: row r is the words_per_row() words at
// row_words(r), zero-padded past cols(). Writers through row_words() must
// keep that padding zero.
class BitMatrix {
 public:
  BitMatrix() = default;

  // rows x cols bits, all cleared.
  BitMatrix(std::size_t rows, std::size_t cols);

  // Uniformly random bits: one rng.bits64() per word in row-major order,
  // each row's padding masked off.
  [[nodiscard]] static BitMatrix random(std::size_t rows, std::size_t cols,
                                        Rng& rng);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t words_per_row() const { return words_per_row_; }

  // Padding bits per row: popcount of an XNOR over whole words counts them
  // as matches, and the kernels subtract them.
  [[nodiscard]] std::size_t pad_bits() const {
    return words_per_row_ * 64 - cols_;
  }

  // Copy of row r.
  [[nodiscard]] BitVec row(std::size_t r) const;
  void set_row(std::size_t r, const BitVec& bits);
  // Sign-binarized row: bit c = 1 iff values[c] >= 0 (bnn::binarize's
  // rule); `n` must equal cols().
  void set_row_signs(std::size_t r, const double* values, std::size_t n);

  [[nodiscard]] const std::uint64_t* row_words(std::size_t r) const;
  [[nodiscard]] std::uint64_t* row_words(std::size_t r);

  void set(std::size_t r, std::size_t c, bool v);
  [[nodiscard]] bool get(std::size_t r, std::size_t c) const;

  // XNOR+popcount of `x` against every row: out[r] = popcount(x XNOR row_r).
  [[nodiscard]] std::vector<std::size_t> xnor_popcount_all(
      const BitVec& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace eb
