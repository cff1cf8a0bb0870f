#include "bnn/format.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "bnn/layers.hpp"
#include "common/error.hpp"

namespace eb::bnn {

namespace {

// ------------------------------------------------------------- encode --

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  EB_REQUIRE(s.size() <= kEbmMaxString, "ebm: string too long to encode");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_f64_span(std::vector<std::uint8_t>& out, const double* v,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    put_f64(out, v[i]);
  }
}

// A real layer's weights in row-major order, read straight from its
// panels (no unpacked copy).
void put_panels(std::vector<std::uint8_t>& out, const PanelMatrix& w) {
  for (std::size_t j = 0; j < w.rows(); ++j) {
    for (std::size_t kk = 0; kk < w.cols(); ++kk) {
      put_f64(out, w.at(j, kk));
    }
  }
}

// A binary layer's packed rows: ceil(cols/64) little-endian u64 words per
// row, copied straight from the slab (its padding is already zero).
void put_bit_rows(std::vector<std::uint8_t>& out, const BitMatrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const std::uint64_t* words = m.row_words(r);
    for (std::size_t w = 0; w < m.words_per_row(); ++w) {
      put_u64(out, words[w]);
    }
  }
}

// ------------------------------------------------------------- decode --

// Bounds-checked little-endian cursor, mirroring serve/wire.cpp's Reader
// but throwing (decode_network's contract) instead of latching a flag:
// every take is validated against `remaining` before it moves, so no
// truncated or tampered input can read out of bounds.
struct Reader {
  const std::uint8_t* p = nullptr;
  std::size_t remaining = 0;

  const std::uint8_t* take(std::size_t n, const char* what) {
    EB_REQUIRE(remaining >= n,
               std::string("ebm: truncated file in ") + what);
    const std::uint8_t* at = p;
    p += n;
    remaining -= n;
    return at;
  }

  std::uint8_t get_u8(const char* what) { return take(1, what)[0]; }

  std::uint16_t get_u16(const char* what) {
    const std::uint8_t* b = take(2, what);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t get_u32(const char* what) {
    const std::uint8_t* b = take(4, what);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }

  std::uint64_t get_u64(const char* what) {
    const std::uint8_t* b = take(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }

  double get_f64(const char* what) {
    return std::bit_cast<double>(get_u64(what));
  }

  std::string get_str(const char* what) {
    const std::size_t n = get_u16(what);
    EB_REQUIRE(n <= kEbmMaxString,
               std::string("ebm: string too long in ") + what);
    const std::uint8_t* b = take(n, what);
    return std::string(reinterpret_cast<const char*>(b), n);
  }

  // Validated dimension: bounded by the cap AND by the bytes actually
  // present for `elem_bytes`-sized elements, so a tampered length can
  // never trigger a large allocation.
  std::size_t get_dim(std::size_t elem_bytes, const char* what) {
    const std::size_t n = get_u32(what);
    EB_REQUIRE(n <= kEbmMaxDim,
               std::string("ebm: dimension too large in ") + what);
    EB_REQUIRE(elem_bytes == 0 || n <= remaining / elem_bytes,
               std::string("ebm: truncated file in ") + what);
    return n;
  }

  std::vector<double> get_f64_vec(std::size_t n, const char* what) {
    take_check(n * 8, what);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = get_f64(what);
    }
    return v;
  }

  void take_check(std::size_t n, const char* what) const {
    EB_REQUIRE(remaining >= n,
               std::string("ebm: truncated file in ") + what);
  }
};

// Reads `rows` packed rows of `cols` bits word for word into a new slab.
// The caller has checked that the whole payload is present.
BitMatrix get_bit_rows(Reader& r, std::size_t rows, std::size_t cols,
                       const char* what) {
  BitMatrix m(rows, cols);
  const std::size_t tail = cols % 64;
  for (std::size_t rr = 0; rr < rows; ++rr) {
    std::uint64_t* words = m.row_words(rr);
    for (std::size_t w = 0; w < m.words_per_row(); ++w) {
      words[w] = r.get_u64(what);
    }
    // Tampered padding bits past the last column would silently survive a
    // re-encode; reject them so encode(decode(x)) == x byte-for-byte.
    EB_REQUIRE(tail == 0 || (words[m.words_per_row() - 1] >> tail) == 0,
               std::string("ebm: nonzero padding bits in ") + what);
  }
  return m;
}

std::uint8_t precision_tag(Precision p) {
  return p == Precision::Binary ? 0 : 1;
}

Precision precision_from_tag(std::uint8_t tag) {
  EB_REQUIRE(tag <= 1, "ebm: bad precision tag");
  return tag == 0 ? Precision::Binary : Precision::Int8;
}

void put_geom(std::vector<std::uint8_t>& out, const Conv2dGeom& g) {
  put_u32(out, static_cast<std::uint32_t>(g.in_ch));
  put_u32(out, static_cast<std::uint32_t>(g.out_ch));
  put_u32(out, static_cast<std::uint32_t>(g.kernel));
  put_u32(out, static_cast<std::uint32_t>(g.stride));
  put_u32(out, static_cast<std::uint32_t>(g.pad));
  put_u32(out, static_cast<std::uint32_t>(g.in_h));
  put_u32(out, static_cast<std::uint32_t>(g.in_w));
}

Conv2dGeom get_geom(Reader& r) {
  Conv2dGeom g;
  g.in_ch = r.get_dim(0, "conv geom");
  g.out_ch = r.get_dim(0, "conv geom");
  g.kernel = r.get_dim(0, "conv geom");
  g.stride = r.get_dim(0, "conv geom");
  g.pad = r.get_dim(0, "conv geom");
  g.in_h = r.get_dim(0, "conv geom");
  g.in_w = r.get_dim(0, "conv geom");
  EB_REQUIRE(g.in_ch >= 1 && g.out_ch >= 1 && g.kernel >= 1 &&
                 g.stride >= 1 && g.in_h + 2 * g.pad >= g.kernel &&
                 g.in_w + 2 * g.pad >= g.kernel,
             "ebm: malformed conv geometry");
  // Patch size and weight count stay within the dimension cap, checked by
  // division so a huge claimed geometry cannot overflow the products the
  // decoders compute from it.
  EB_REQUIRE(g.kernel <= kEbmMaxDim / g.kernel &&
                 g.in_ch <= kEbmMaxDim / (g.kernel * g.kernel) &&
                 g.out_ch <= kEbmMaxDim / (g.in_ch * g.kernel * g.kernel),
             "ebm: dimension too large in conv geom");
  return g;
}

// One layer section: `u8 type | u32 body_len | body`.
void encode_layer(std::vector<std::uint8_t>& out, const Layer& layer) {
  std::vector<std::uint8_t> body;
  EbmLayerType type;
  if (const auto* d = dynamic_cast<const DenseLayer*>(&layer)) {
    type = EbmLayerType::kDense;
    put_str(body, d->name());
    put_u8(body, precision_tag(d->spec().precision));
    put_u32(body, static_cast<std::uint32_t>(d->panels().rows()));
    put_u32(body, static_cast<std::uint32_t>(d->panels().cols()));
    put_panels(body, d->panels());
    put_f64_span(body, d->bias().data(), d->bias().size());
  } else if (const auto* bd = dynamic_cast<const BinaryDenseLayer*>(&layer)) {
    type = EbmLayerType::kBinaryDense;
    put_str(body, bd->name());
    put_u32(body, static_cast<std::uint32_t>(bd->weights().rows()));
    put_u32(body, static_cast<std::uint32_t>(bd->weights().cols()));
    put_bit_rows(body, bd->weights());
  } else if (const auto* c = dynamic_cast<const Conv2dLayer*>(&layer)) {
    type = EbmLayerType::kConv2d;
    put_str(body, c->name());
    put_u8(body, precision_tag(c->spec().precision));
    put_geom(body, c->geom());
    put_panels(body, c->panels());
    put_f64_span(body, c->bias().data(), c->bias().size());
  } else if (const auto* bc = dynamic_cast<const BinaryConv2dLayer*>(&layer)) {
    type = EbmLayerType::kBinaryConv2d;
    put_str(body, bc->name());
    put_geom(body, bc->geom());
    put_bit_rows(body, bc->kernels());
  } else if (const auto* bn = dynamic_cast<const BatchNormLayer*>(&layer)) {
    type = EbmLayerType::kBatchNorm;
    put_str(body, bn->name());
    put_u32(body, static_cast<std::uint32_t>(bn->features()));
    put_f64(body, bn->eps());
    put_f64_span(body, bn->gamma().data(), bn->features());
    put_f64_span(body, bn->beta().data(), bn->features());
    put_f64_span(body, bn->mean().data(), bn->features());
    put_f64_span(body, bn->var().data(), bn->features());
  } else if (const auto* s = dynamic_cast<const SignLayer*>(&layer)) {
    type = EbmLayerType::kSign;
    put_str(body, s->name());
    put_u32(body, static_cast<std::uint32_t>(s->spec().features));
  } else if (const auto* p = dynamic_cast<const MaxPool2dLayer*>(&layer)) {
    type = EbmLayerType::kMaxPool2d;
    put_str(body, p->name());
    put_u32(body, static_cast<std::uint32_t>(p->spec().pool));
  } else if (const auto* f = dynamic_cast<const FlattenLayer*>(&layer)) {
    type = EbmLayerType::kFlatten;
    put_str(body, f->name());
  } else if (const auto* t = dynamic_cast<const ThresholdLayer*>(&layer)) {
    type = EbmLayerType::kThreshold;
    put_str(body, t->name());
    put_u32(body, static_cast<std::uint32_t>(t->features()));
    for (const long long thr : t->thresholds()) {
      put_u64(body, static_cast<std::uint64_t>(thr));
    }
    for (const std::uint8_t flip : t->flips()) {
      put_u8(body, flip);
    }
  } else {
    EB_REQUIRE(false, "ebm: unsupported layer type for " + layer.name());
    return;  // unreachable
  }
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
}

void decode_layer(Network& net, EbmLayerType type, Reader& r) {
  switch (type) {
    case EbmLayerType::kDense: {
      std::string name = r.get_str("dense name");
      const Precision prec = precision_from_tag(r.get_u8("dense precision"));
      const std::size_t out_n = r.get_dim(8, "dense rows");
      const std::size_t in_n = r.get_dim(8, "dense cols");
      std::vector<double> w = r.get_f64_vec(out_n * in_n, "dense weights");
      std::vector<double> b = r.get_f64_vec(out_n, "dense bias");
      net.add(DenseLayer(std::move(name), Tensor({out_n, in_n}, std::move(w)),
                         Tensor({out_n}, std::move(b)), prec));
      return;
    }
    case EbmLayerType::kBinaryDense: {
      std::string name = r.get_str("binary dense name");
      const std::size_t rows = r.get_dim(8, "binary dense rows");
      // A column is one bit, not eight bytes, so cols is bounded by the cap
      // alone; the payload check below bounds the allocation.
      const std::size_t cols = r.get_dim(0, "binary dense cols");
      // The whole packed payload must be present before the matrix is
      // allocated: rows and cols are individually bounded, but their
      // product is what the allocation costs.
      r.take_check(rows * ((cols + 63) / 64) * 8, "binary dense payload");
      net.add(BinaryDenseLayer(
          std::move(name), get_bit_rows(r, rows, cols, "binary dense row")));
      return;
    }
    case EbmLayerType::kConv2d: {
      std::string name = r.get_str("conv name");
      const Precision prec = precision_from_tag(r.get_u8("conv precision"));
      const Conv2dGeom g = get_geom(r);
      const std::size_t wn = g.out_ch * g.in_ch * g.kernel * g.kernel;
      EB_REQUIRE(wn <= kEbmMaxDim, "ebm: dimension too large in conv");
      std::vector<double> w = r.get_f64_vec(wn, "conv weights");
      std::vector<double> b = r.get_f64_vec(g.out_ch, "conv bias");
      net.add(Conv2dLayer(
          std::move(name), g,
          Tensor({g.out_ch, g.in_ch, g.kernel, g.kernel}, std::move(w)),
          Tensor({g.out_ch}, std::move(b)), prec));
      return;
    }
    case EbmLayerType::kBinaryConv2d: {
      std::string name = r.get_str("binary conv name");
      const Conv2dGeom g = get_geom(r);
      const std::size_t m = g.kernel * g.kernel * g.in_ch;
      EB_REQUIRE(m <= kEbmMaxDim, "ebm: dimension too large in binary conv");
      r.take_check(g.out_ch * ((m + 63) / 64) * 8, "binary conv payload");
      net.add(BinaryConv2dLayer(
          std::move(name), g,
          get_bit_rows(r, g.out_ch, m, "binary conv kernel")));
      return;
    }
    case EbmLayerType::kBatchNorm: {
      std::string name = r.get_str("batchnorm name");
      const std::size_t ch = r.get_dim(8 * 4, "batchnorm channels");
      const double eps = r.get_f64("batchnorm eps");
      std::vector<double> gamma = r.get_f64_vec(ch, "batchnorm gamma");
      std::vector<double> beta = r.get_f64_vec(ch, "batchnorm beta");
      std::vector<double> mean = r.get_f64_vec(ch, "batchnorm mean");
      std::vector<double> var = r.get_f64_vec(ch, "batchnorm var");
      net.add(BatchNormLayer(std::move(name), std::move(gamma),
                             std::move(beta), std::move(mean), std::move(var),
                             eps));
      return;
    }
    case EbmLayerType::kSign: {
      std::string name = r.get_str("sign name");
      const std::size_t ch = r.get_dim(0, "sign features");
      net.add(SignLayer(std::move(name), ch));
      return;
    }
    case EbmLayerType::kMaxPool2d: {
      std::string name = r.get_str("maxpool name");
      const std::size_t pool = r.get_dim(0, "maxpool size");
      EB_REQUIRE(pool >= 1, "ebm: malformed maxpool size");
      net.add(MaxPool2dLayer(std::move(name), pool));
      return;
    }
    case EbmLayerType::kFlatten: {
      net.add(FlattenLayer(r.get_str("flatten name")));
      return;
    }
    case EbmLayerType::kThreshold: {
      std::string name = r.get_str("threshold name");
      const std::size_t ch = r.get_dim(9, "threshold channels");
      std::vector<long long> thr(ch);
      for (std::size_t c = 0; c < ch; ++c) {
        thr[c] = static_cast<long long>(r.get_u64("threshold values"));
      }
      std::vector<std::uint8_t> flip(ch);
      for (std::size_t c = 0; c < ch; ++c) {
        flip[c] = r.get_u8("threshold flips");
        EB_REQUIRE(flip[c] <= 1, "ebm: bad threshold flip tag");
      }
      net.add(ThresholdLayer(std::move(name), std::move(thr),
                             std::move(flip)));
      return;
    }
  }
  EB_REQUIRE(false, "ebm: unknown layer section type " +
                        std::to_string(static_cast<unsigned>(type)));
}

// ------------------------------------------------------------ folding --

// Exact integer sign flip point of BN channel `c` over pre-activations in
// [-m, m]. The BN affine map is monotone in x even under IEEE rounding
// (every step -- subtract, scale, add -- is monotone), so a binary search
// against the exact serving-time expression finds the first/last integer
// whose BN output is >= 0.
void fold_channel(const BatchNormLayer& bn, std::size_t c, long long m,
                  std::size_t rank, long long& thr, std::uint8_t& flip) {
  const auto f = [&](long long x) {
    return bn.apply_channel(c, static_cast<double>(x), rank);
  };
  const long long lo = -m;
  const long long hi = m;
  const double gamma = bn.gamma()[c];
  flip = 0;
  if (gamma == 0.0) {
    // Constant channel: fires everywhere or nowhere in range.
    thr = f(0) >= 0.0 ? lo - 1 : hi + 1;
    return;
  }
  if (gamma > 0.0) {
    // BN nondecreasing: first x in [lo, hi] with BN(x) >= 0 (hi+1 = never).
    long long l = lo;
    long long r = hi + 1;
    while (l < r) {
      const long long mid = l + (r - l) / 2;
      if (f(mid) >= 0.0) {
        r = mid;
      } else {
        l = mid + 1;
      }
    }
    thr = l;
    return;
  }
  // BN nonincreasing: +1 iff x <= thr, last x with BN(x) >= 0 (lo-1 = never).
  flip = 1;
  long long l = lo - 1;
  long long r = hi;
  while (l < r) {
    const long long mid = l + (r - l + 1) / 2;
    if (f(mid) >= 0.0) {
      l = mid;
    } else {
      r = mid - 1;
    }
  }
  thr = l;
}

ThresholdLayer fold_bn_sign(const BatchNormLayer& bn, long long m,
                            std::size_t rank) {
  const std::size_t ch = bn.features();
  std::vector<long long> thr(ch);
  std::vector<std::uint8_t> flip(ch);
  for (std::size_t c = 0; c < ch; ++c) {
    fold_channel(bn, c, m, rank, thr[c], flip[c]);
  }
  return ThresholdLayer(bn.name(), std::move(thr), std::move(flip));
}

// Deep copy of one layer into `net` (layers are type-erased behind
// unique_ptr, so cloning walks the same dynamic_cast chain the encoder
// uses). Real layers are copied whole, panels and all.
void append_clone(Network& net, const Layer& layer) {
  if (const auto* d = dynamic_cast<const DenseLayer*>(&layer)) {
    net.add(*d);
  } else if (const auto* bd = dynamic_cast<const BinaryDenseLayer*>(&layer)) {
    net.add(BinaryDenseLayer(bd->name(), bd->weights()));
  } else if (const auto* c = dynamic_cast<const Conv2dLayer*>(&layer)) {
    net.add(*c);
  } else if (const auto* bc = dynamic_cast<const BinaryConv2dLayer*>(&layer)) {
    net.add(BinaryConv2dLayer(bc->name(), bc->geom(), bc->kernels()));
  } else if (const auto* bn = dynamic_cast<const BatchNormLayer*>(&layer)) {
    net.add(BatchNormLayer(bn->name(), bn->gamma(), bn->beta(), bn->mean(),
                           bn->var(), bn->eps()));
  } else if (const auto* s = dynamic_cast<const SignLayer*>(&layer)) {
    net.add(SignLayer(s->name(), s->spec().features));
  } else if (const auto* p = dynamic_cast<const MaxPool2dLayer*>(&layer)) {
    net.add(MaxPool2dLayer(p->name(), p->spec().pool));
  } else if (const auto* f = dynamic_cast<const FlattenLayer*>(&layer)) {
    net.add(FlattenLayer(f->name()));
  } else if (const auto* t = dynamic_cast<const ThresholdLayer*>(&layer)) {
    net.add(ThresholdLayer(t->name(), t->thresholds(), t->flips()));
  } else {
    EB_REQUIRE(false, "ebm: unsupported layer type for " + layer.name());
  }
}

// Width of the integer dot product feeding layer `i` (so pre-activations
// lie in [-m, m]), walking back through range-preserving MaxPool/Flatten
// to a BinaryDense/BinaryConv2d source. Returns 0 when the values feeding
// layer `i` are real-valued (Int8 dense/conv, BN, ...): not foldable.
long long integer_preactivation_bound(const Network& net, std::size_t i) {
  std::size_t j = i;
  while (j > 0) {
    const Layer& prev = net.layer(j - 1);
    if (dynamic_cast<const MaxPool2dLayer*>(&prev) != nullptr ||
        dynamic_cast<const FlattenLayer*>(&prev) != nullptr) {
      --j;
      continue;
    }
    if (const auto* bd = dynamic_cast<const BinaryDenseLayer*>(&prev)) {
      return static_cast<long long>(bd->weights().cols());
    }
    if (const auto* bc = dynamic_cast<const BinaryConv2dLayer*>(&prev)) {
      return static_cast<long long>(bc->geom().kernel * bc->geom().kernel *
                                    bc->geom().in_ch);
    }
    return 0;
  }
  return 0;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_network(const Network& net) {
  EB_REQUIRE(net.layer_count() >= 1, "ebm: refusing to encode empty network");
  EB_REQUIRE(net.layer_count() <= kEbmMaxLayers, "ebm: too many layers");
  std::vector<std::uint8_t> out;
  put_u32(out, kEbmMagic);
  put_u16(out, kEbmVersion);
  put_u16(out, 0);  // reserved
  put_str(out, net.name());
  put_str(out, net.dataset());
  put_u32(out, static_cast<std::uint32_t>(net.layer_count()));
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    encode_layer(out, net.layer(i));
  }
  put_u32(out, crc32(out.data(), out.size()));
  EB_REQUIRE(out.size() <= kEbmMaxBytes, "ebm: encoded model too large");
  return out;
}

Network decode_network(const std::uint8_t* data, std::size_t size) {
  EB_REQUIRE(size <= kEbmMaxBytes, "ebm: file too large");
  // Header (12B minimum) + CRC trailer must both be present, and the
  // trailer must match before anything is interpreted.
  EB_REQUIRE(size >= 16, "ebm: truncated file in header");
  Reader r{data, size - 4};
  const std::uint32_t want_crc = crc32(data, size - 4);
  const std::uint8_t* tail = data + size - 4;
  const std::uint32_t got_crc =
      static_cast<std::uint32_t>(tail[0]) |
      (static_cast<std::uint32_t>(tail[1]) << 8) |
      (static_cast<std::uint32_t>(tail[2]) << 16) |
      (static_cast<std::uint32_t>(tail[3]) << 24);
  EB_REQUIRE(got_crc == want_crc, "ebm: CRC mismatch (corrupt model file)");
  EB_REQUIRE(r.get_u32("magic") == kEbmMagic, "ebm: bad magic");
  EB_REQUIRE(r.get_u16("version") == kEbmVersion,
             "ebm: unsupported format version");
  EB_REQUIRE(r.get_u16("reserved") == 0, "ebm: nonzero reserved field");
  std::string name = r.get_str("network name");
  std::string dataset = r.get_str("network dataset");
  const std::size_t layer_count = r.get_u32("layer count");
  EB_REQUIRE(layer_count >= 1 && layer_count <= kEbmMaxLayers,
             "ebm: bad layer count");
  Network net(std::move(name), std::move(dataset));
  for (std::size_t i = 0; i < layer_count; ++i) {
    const auto type = static_cast<EbmLayerType>(r.get_u8("section type"));
    const std::size_t body_len = r.get_u32("section length");
    r.take_check(body_len, "section body");
    Reader body{r.p, body_len};
    r.p += body_len;
    r.remaining -= body_len;
    decode_layer(net, type, body);
    EB_REQUIRE(body.remaining == 0, "ebm: trailing bytes in layer section");
  }
  EB_REQUIRE(r.remaining == 0, "ebm: trailing bytes after last section");
  return net;
}

void save_network(const Network& net, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_network(net);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    EB_REQUIRE(out.good(), "ebm: cannot open " + tmp + " for writing");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    EB_REQUIRE(out.good(), "ebm: short write to " + tmp);
  }
  EB_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
             "ebm: cannot rename " + tmp + " to " + path);
}

Network load_network(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EB_REQUIRE(in.good(), "ebm: cannot open model file " + path);
  const std::streamsize size = in.tellg();
  EB_REQUIRE(size >= 0 && static_cast<std::size_t>(size) <= kEbmMaxBytes,
             "ebm: model file too large: " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  EB_REQUIRE(in.good(), "ebm: short read from " + path);
  return decode_network(bytes.data(), bytes.size());
}

Network fold_network(const Network& net) {
  Network out(net.name(), net.dataset());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto* bn = dynamic_cast<const BatchNormLayer*>(&net.layer(i));
    if (bn != nullptr && i + 1 < net.layer_count() &&
        dynamic_cast<const SignLayer*>(&net.layer(i + 1)) != nullptr) {
      const long long m = integer_preactivation_bound(net, i);
      if (m > 0) {
        // The BN sees rank-3 inputs (conv feature maps) unless its direct
        // predecessor flattened or is a dense layer; the rank picks the
        // float expression whose rounding the search must reproduce.
        const Layer& prev = net.layer(i - 1);
        const bool spatial =
            dynamic_cast<const BinaryConv2dLayer*>(&prev) != nullptr ||
            dynamic_cast<const MaxPool2dLayer*>(&prev) != nullptr;
        out.add(fold_bn_sign(*bn, m, spatial ? 3 : 1));
        ++i;  // consume the Sign layer too
        continue;
      }
    }
    append_clone(out, net.layer(i));
  }
  return out;
}

std::string summarize_network(const Network& net) {
  std::ostringstream os;
  os << net.name() << " (" << net.dataset() << "), " << net.layer_count()
     << " layers\n";
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const LayerSpec s = net.layer(i).spec();
    os << "  [" << i << "] " << to_string(s.kind) << " " << s.name;
    switch (s.kind) {
      case LayerKind::Dense:
        os << " " << s.in_features << "->" << s.out_features << " ("
           << to_string(s.precision) << ")";
        break;
      case LayerKind::Conv2d:
        os << " " << s.conv.in_ch << "x" << s.conv.in_h << "x" << s.conv.in_w
           << " -> " << s.conv.out_ch << "x" << s.conv.out_h() << "x"
           << s.conv.out_w() << " k" << s.conv.kernel << " ("
           << to_string(s.precision) << ")";
        break;
      case LayerKind::MaxPool2d:
        os << " pool " << s.pool;
        break;
      case LayerKind::BatchNorm:
      case LayerKind::Sign:
      case LayerKind::Threshold:
        os << " features " << s.features;
        break;
      case LayerKind::Flatten:
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace eb::bnn
