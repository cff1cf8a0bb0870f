#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace eb {

namespace {

// Clears the padding bits of a ceil(bits / 64)-word row past bit `bits`.
void mask_padding(std::uint64_t* words, std::size_t bits) {
  const std::size_t rem = bits % 64;
  if (rem != 0) {
    words[bits / 64] &= (1ULL << rem) - 1ULL;
  }
}

// popcount(a XNOR b) over `bits` bits of two zero-padded word rows. The
// whole words are counted, so the padding's ~(0 ^ 0) = 1 bits are
// subtracted afterwards.
std::size_t xnor_popcount_row(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t bits) {
  const std::size_t words = (bits + 63) / 64;
  std::size_t n = 0;
  for (std::size_t i = 0; i < words; ++i) {
    n += static_cast<std::size_t>(std::popcount(~(a[i] ^ b[i])));
  }
  return n - (words * 64 - bits);
}

}  // namespace

BitVec::BitVec(std::size_t n) : size_(n), words_(word_count(n), 0) {}

BitVec BitVec::from_bits(const std::vector<int>& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EB_REQUIRE(bits[i] == 0 || bits[i] == 1, "bits must be 0 or 1");
    v.set(i, bits[i] == 1);
  }
  return v;
}

BitVec BitVec::random(std::size_t n, Rng& rng) {
  BitVec v(n);
  for (auto& w : v.words_) {
    w = rng.bits64();
  }
  v.mask_tail();
  return v;
}

bool BitVec::get(std::size_t i) const {
  EB_REQUIRE(i < size_, "bit index out of range");
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void BitVec::set(std::size_t i, bool v) {
  EB_REQUIRE(i < size_, "bit index out of range");
  const std::uint64_t mask = 1ULL << (i % 64);
  if (v) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

BitVec BitVec::complemented() const {
  BitVec out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = ~words_[i];
  }
  out.mask_tail();
  return out;
}

BitVec BitVec::concat(const BitVec& tail) const {
  BitVec out(size_ + tail.size_);
  std::copy(words_.begin(), words_.end(), out.words_.begin());
  // `tail` lands at bit size_: each of its words splits across two output
  // words. Both inputs' padding is zero, so the ORs never set a bit past
  // the new size, and a tail word's high part only spills into a word
  // that exists when it carries a set bit.
  const std::size_t base = size_ / 64;
  const std::size_t shift = size_ % 64;
  for (std::size_t i = 0; i < tail.words_.size(); ++i) {
    const std::uint64_t w = tail.words_[i];
    out.words_[base + i] |= w << shift;
    if (shift != 0 && base + i + 1 < out.words_.size()) {
      out.words_[base + i + 1] |= w >> (64 - shift);
    }
  }
  return out;
}

BitVec BitVec::xnor(const BitVec& other) const {
  EB_REQUIRE(size_ == other.size_, "xnor requires equal lengths");
  BitVec out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = ~(words_[i] ^ other.words_[i]);
  }
  out.mask_tail();
  return out;
}

BitVec BitVec::and_with(const BitVec& other) const {
  EB_REQUIRE(size_ == other.size_, "and requires equal lengths");
  BitVec out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & other.words_[i];
  }
  return out;
}

std::size_t BitVec::xnor_popcount(const BitVec& other) const {
  EB_REQUIRE(size_ == other.size_, "xnor_popcount requires equal lengths");
  return xnor_popcount_row(words_.data(), other.words_.data(), size_);
}

long long BitVec::signed_dot(const BitVec& other) const {
  const auto pc = xnor_popcount(other);
  return 2LL * static_cast<long long>(pc) - static_cast<long long>(size_);
}

BitVec BitVec::slice(std::size_t begin, std::size_t len) const {
  EB_REQUIRE(begin + len <= size_, "slice out of range");
  BitVec out(len);
  // Output word i is the 64 bits starting at begin + 64 i: the high part
  // of one source word joined with the low part of the next.
  const std::size_t shift = begin % 64;
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    const std::size_t q = begin / 64 + i;
    std::uint64_t w = words_[q] >> shift;
    if (shift != 0 && q + 1 < words_.size()) {
      w |= words_[q + 1] << (64 - shift);
    }
    out.words_[i] = w;
  }
  out.mask_tail();
  return out;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    s.push_back(get(i) ? '1' : '0');
  }
  return s;
}

std::vector<int> BitVec::to_bits() const {
  std::vector<int> out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out[i] = get(i) ? 1 : 0;
  }
  return out;
}

std::vector<double> BitVec::to_signed() const {
  std::vector<double> out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out[i] = get(i) ? 1.0 : -1.0;
  }
  return out;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

void BitVec::mask_tail() { mask_padding(words_.data(), size_); }

// ---------------------------------------------------------------------------

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_(BitVec::word_count(cols)),
      words_(rows * words_per_row_, 0) {}

BitMatrix BitMatrix::random(std::size_t rows, std::size_t cols, Rng& rng) {
  BitMatrix m(rows, cols);
  for (auto& w : m.words_) {
    w = rng.bits64();
  }
  for (std::size_t r = 0; r < rows; ++r) {
    mask_padding(m.row_words(r), cols);
  }
  return m;
}

BitVec BitMatrix::row(std::size_t r) const {
  BitVec out(cols_);
  std::copy_n(row_words(r), words_per_row_, out.words_.begin());
  return out;
}

void BitMatrix::set_row(std::size_t r, const BitVec& bits) {
  EB_REQUIRE(bits.size() == cols_, "row length mismatch");
  std::uint64_t* row = row_words(r);
  std::copy(bits.words().begin(), bits.words().end(), row);
  // BitVec keeps its padding zeroed, but the GEMM kernels' pad-bit
  // subtraction silently corrupts if that ever stops holding -- re-mask.
  mask_padding(row, cols_);
}

void BitMatrix::set_row_signs(std::size_t r, const double* values,
                              std::size_t n) {
  EB_REQUIRE(n == cols_, "row length mismatch");
  pack_words(row_words(r), n,
             [values](std::size_t i) { return values[i] >= 0.0; });
}

const std::uint64_t* BitMatrix::row_words(std::size_t r) const {
  EB_REQUIRE(r < rows_, "row index out of range");
  return words_.data() + r * words_per_row_;
}

std::uint64_t* BitMatrix::row_words(std::size_t r) {
  EB_REQUIRE(r < rows_, "row index out of range");
  return words_.data() + r * words_per_row_;
}

void BitMatrix::set(std::size_t r, std::size_t c, bool v) {
  EB_REQUIRE(c < cols_, "bit index out of range");
  const std::uint64_t mask = 1ULL << (c % 64);
  std::uint64_t& word = row_words(r)[c / 64];
  word = v ? (word | mask) : (word & ~mask);
}

bool BitMatrix::get(std::size_t r, std::size_t c) const {
  EB_REQUIRE(c < cols_, "bit index out of range");
  return (row_words(r)[c / 64] >> (c % 64)) & 1ULL;
}

std::vector<std::size_t> BitMatrix::xnor_popcount_all(const BitVec& x) const {
  EB_REQUIRE(x.size() == cols_, "xnor_popcount requires equal lengths");
  std::vector<std::size_t> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    out[r] = xnor_popcount_row(row_words(r), x.words().data(), cols_);
  }
  return out;
}

}  // namespace eb
