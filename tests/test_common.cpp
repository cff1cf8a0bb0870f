// Unit tests for eb::common -- bit vectors, stats, tables, config, units.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/bitvec.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace eb {
namespace {

// ----------------------------------------------------------------- units --

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(us_to_ns(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(ms_to_ns(2.0), 2e6);
  EXPECT_DOUBLE_EQ(ns_to_us(us_to_ns(3.25)), 3.25);
  EXPECT_DOUBLE_EQ(ns_to_s(s_to_ns(0.5)), 0.5);
}

TEST(Units, EnergyPowerIdentity) {
  // 1 mW over 1 ns is 1 pJ by construction of the unit system.
  EXPECT_DOUBLE_EQ(static_energy_pj(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(static_energy_pj(2.0, 45.0), 90.0);
  EXPECT_DOUBLE_EQ(fj_to_pj(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(nj_to_pj(1.0), 1000.0);
}

TEST(Units, DecibelHelpers) {
  EXPECT_NEAR(db_to_linear(3.0), 2.0, 0.01);
  EXPECT_NEAR(db_to_linear(-10.0), 0.1, 1e-12);
  EXPECT_NEAR(linear_to_db(db_to_linear(-4.7)), -4.7, 1e-9);
}

// ---------------------------------------------------------------- bitvec --

TEST(BitVec, ConstructionAndAccess) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(8);
  EXPECT_THROW(static_cast<void>(v.get(8)), Error);
  EXPECT_THROW(v.set(100, true), Error);
  EXPECT_THROW(v.slice(4, 5), Error);
}

TEST(BitVec, FromBitsMatchesToBits) {
  const std::vector<int> bits = {1, 0, 0, 1, 1, 0, 1};
  const BitVec v = BitVec::from_bits(bits);
  EXPECT_EQ(v.to_bits(), bits);
  EXPECT_EQ(v.to_string(), "1001101");
}

TEST(BitVec, ComplementRespectsPadding) {
  Rng rng(1);
  const BitVec v = BitVec::random(100, rng);
  const BitVec c = v.complemented();
  EXPECT_EQ(v.popcount() + c.popcount(), 100u);
  // Double complement is identity.
  EXPECT_EQ(c.complemented(), v);
}

TEST(BitVec, ConcatPreservesBothHalves) {
  const BitVec a = BitVec::from_bits({1, 1, 0});
  const BitVec b = BitVec::from_bits({0, 1});
  const BitVec ab = a.concat(b);
  EXPECT_EQ(ab.size(), 5u);
  EXPECT_EQ(ab.to_string(), "11001");
}

TEST(BitVec, XnorTruthTable) {
  const BitVec a = BitVec::from_bits({0, 0, 1, 1});
  const BitVec b = BitVec::from_bits({0, 1, 0, 1});
  EXPECT_EQ(a.xnor(b).to_string(), "1001");
}

TEST(BitVec, XnorPopcountMatchesExplicitXnor) {
  Rng rng(2);
  for (std::size_t len : {1u, 7u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    const BitVec a = BitVec::random(len, rng);
    const BitVec b = BitVec::random(len, rng);
    EXPECT_EQ(a.xnor_popcount(b), a.xnor(b).popcount()) << "len=" << len;
  }
}

TEST(BitVec, SignedDotMatchesEquationOne) {
  // Paper Eq. 1: In (*) W = 2*popcount(In' XNOR W') - length, where the
  // left side is the naive +/-1 dot product.
  Rng rng(3);
  for (std::size_t len : {1u, 5u, 64u, 100u, 777u}) {
    const BitVec a = BitVec::random(len, rng);
    const BitVec b = BitVec::random(len, rng);
    long long naive = 0;
    for (std::size_t i = 0; i < len; ++i) {
      naive += (a.get(i) ? 1 : -1) * (b.get(i) ? 1 : -1);
    }
    EXPECT_EQ(a.signed_dot(b), naive) << "len=" << len;
  }
}

TEST(BitVec, SliceExtractsCorrectWindow) {
  Rng rng(4);
  const BitVec v = BitVec::random(300, rng);
  const BitVec s = v.slice(130, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(s.get(i), v.get(130 + i));
  }
}

TEST(BitVec, ConcatAndSliceMatchPerBitReference) {
  // Word-level concat and slice against bit-by-bit copies, for every
  // length and offset up to 130 (zero, inside one word, at and across
  // word boundaries). operator== compares whole words, so it also checks
  // that the padding past size() stays zero.
  Rng rng(5);
  const auto per_bit_concat = [](const BitVec& a, const BitVec& b) {
    BitVec out(a.size() + b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.set(i, a.get(i));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      out.set(a.size() + i, b.get(i));
    }
    return out;
  };
  std::vector<BitVec> heads;
  std::vector<BitVec> tails;
  for (std::size_t n = 0; n <= 130; ++n) {
    heads.push_back(BitVec::random(n, rng));
    tails.push_back(n % 2 == 0 ? BitVec(n).complemented()
                               : BitVec::random(n, rng));
  }
  std::size_t concat_mismatches = 0;
  for (const BitVec& a : heads) {
    for (const BitVec& b : tails) {
      if (a.concat(b) != per_bit_concat(a, b)) {
        ADD_FAILURE() << "concat " << a.size() << " + " << b.size();
        if (++concat_mismatches == 5) {
          return;
        }
      }
    }
  }
  // 261 bits: five words, the last one partial.
  for (const BitVec& v :
       {BitVec::random(261, rng), BitVec(261).complemented()}) {
    std::size_t slice_mismatches = 0;
    for (std::size_t begin = 0; begin <= 130; ++begin) {
      for (std::size_t len = 0; len <= 130; ++len) {
        BitVec want(len);
        for (std::size_t i = 0; i < len; ++i) {
          want.set(i, v.get(begin + i));
        }
        if (v.slice(begin, len) != want) {
          ADD_FAILURE() << "slice begin=" << begin << " len=" << len;
          if (++slice_mismatches == 5) {
            return;
          }
        }
      }
    }
  }
  EXPECT_THROW(static_cast<void>(heads[10].slice(5, 6)), Error);
}

TEST(BitVec, TacitMapIdentityHolds) {
  // The algebraic fact TacitMap exploits (section III):
  //   popcount(x XNOR w) = x . w + ~x . ~w     (0/1 dot products)
  // i.e. driving [x ; ~x] into a column storing [w ; ~w] accumulates the
  // XNOR popcount in one analog step.
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t len = 1 + static_cast<std::size_t>(rng.uniform_int(0, 200));
    const BitVec x = BitVec::random(len, rng);
    const BitVec w = BitVec::random(len, rng);
    const std::size_t dot_xw = x.and_with(w).popcount();
    const std::size_t dot_xc_wc =
        x.complemented().and_with(w.complemented()).popcount();
    EXPECT_EQ(x.xnor_popcount(w), dot_xw + dot_xc_wc);
  }
}

TEST(BitMatrix, RowAccessAndXnorAll) {
  Rng rng(6);
  const BitMatrix m = BitMatrix::random(10, 50, rng);
  const BitVec x = BitVec::random(50, rng);
  const auto all = m.xnor_popcount_all(x);
  ASSERT_EQ(all.size(), 10u);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(all[r], m.row(r).xnor_popcount(x));
  }
}

// Parameterized sweep: xnor_popcount kernel vs naive loop across widths.
class BitKernelWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitKernelWidths, KernelMatchesNaive) {
  const std::size_t len = GetParam();
  Rng rng(7 + len);
  const BitVec a = BitVec::random(len, rng);
  const BitVec b = BitVec::random(len, rng);
  std::size_t naive = 0;
  for (std::size_t i = 0; i < len; ++i) {
    naive += (a.get(i) == b.get(i)) ? 1 : 0;
  }
  EXPECT_EQ(a.xnor_popcount(b), naive);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitKernelWidths,
                         ::testing::Values(1, 2, 31, 32, 33, 63, 64, 65, 127,
                                           128, 129, 255, 256, 511, 512, 1024,
                                           4096));

// ----------------------------------------------------------------- stats --

TEST(Stats, AccumulatorMoments) {
  StatAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyAccumulatorGuards) {
  StatAccumulator acc;
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_THROW(static_cast<void>(acc.min()), Error);
}

TEST(Stats, Means) {
  const std::vector<double> xs = {1.0, 10.0, 100.0};
  EXPECT_NEAR(arithmetic_mean(xs), 37.0, 1e-12);
  EXPECT_NEAR(geometric_mean(xs), 10.0, 1e-9);
  EXPECT_THROW(static_cast<void>(geometric_mean({1.0, -2.0})), Error);
}

TEST(Stats, HistogramBinning) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersAlignedRows) {
  Table t({"network", "speedup"});
  t.add_row({"MLP-S", Table::num(78.123, 1)});
  t.add_row({"VGG-D", "3113.0"});
  const std::string s = t.render();
  EXPECT_NE(s.find("MLP-S"), std::string::npos);
  EXPECT_NE(s.find("78.1"), std::string::npos);
  EXPECT_NE(s.find("3113.0"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

// ---------------------------------------------------------------- config --

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "k=16", "name=opcm", "ratio=2.5",
                        "flag=true", "--benchmark_filter=x"};
  const Config cfg = Config::from_args(6, argv);
  EXPECT_EQ(cfg.get_int("k", 0), 16);
  EXPECT_EQ(cfg.get_string("name", ""), "opcm");
  EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0.0), 2.5);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  // google-benchmark flags stay invisible (shared argv), not config keys.
  EXPECT_FALSE(cfg.has("benchmark_filter"));
}

TEST(Config, AcceptsGnuStyleDashedKeyValue) {
  const char* argv[] = {"prog", "--backend=optical", "--help"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_string("backend", ""), "optical");  // dashes stripped
  EXPECT_FALSE(cfg.has("help"));  // dashed flag without '=' is skipped
}

TEST(Config, RejectsMalformedValues) {
  Config cfg;
  cfg.set("k", "abc");
  EXPECT_THROW(static_cast<void>(cfg.get_int("k", 0)), Error);
  cfg.set("b", "maybe");
  EXPECT_THROW(static_cast<void>(cfg.get_bool("b", false)), Error);
  const char* argv[] = {"prog", "no-equals"};
  EXPECT_THROW(Config::from_args(2, argv), Error);
}

TEST(Config, StrictModeRejectsUnknownKeys) {
  const std::vector<std::string> allowed = {"mode", "duration_s"};
  const char* good[] = {"prog", "mode=ci", "--duration_s=2"};
  const Config cfg = Config::from_args(3, good, allowed);
  EXPECT_EQ(cfg.get_string("mode", ""), "ci");
  EXPECT_DOUBLE_EQ(cfg.get_double("duration_s", 0.0), 2.0);

  // A mistyped flag must fail loudly, naming the bad key and the
  // accepted ones, instead of silently running with defaults.
  const char* bad[] = {"prog", "--durations_s=2"};
  try {
    Config::from_args(2, bad, allowed);
    FAIL() << "unknown key accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("durations_s"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("duration_s"), std::string::npos);
  }
  // Skipped token families (--benchmark_*, dashed flags without '=')
  // stay invisible to strict mode too.
  const char* skipped[] = {"prog", "--benchmark_filter=x", "--help",
                           "mode=smoke"};
  EXPECT_EQ(Config::from_args(4, skipped, allowed).get_string("mode", ""),
            "smoke");
}

TEST(Config, EnvStringFallsBackOnUnsetAndEmpty) {
  ASSERT_EQ(unsetenv("EB_TEST_ENV_STRING"), 0);
  EXPECT_EQ(Config::env_string("EB_TEST_ENV_STRING", "dflt"), "dflt");
  ASSERT_EQ(setenv("EB_TEST_ENV_STRING", "", 1), 0);
  EXPECT_EQ(Config::env_string("EB_TEST_ENV_STRING", "dflt"), "dflt");
  ASSERT_EQ(setenv("EB_TEST_ENV_STRING", "value", 1), 0);
  EXPECT_EQ(Config::env_string("EB_TEST_ENV_STRING", "dflt"), "value");
  ASSERT_EQ(unsetenv("EB_TEST_ENV_STRING"), 0);
}

TEST(Config, EnvChoiceAcceptsListedValuesAndFallsBack) {
  const std::vector<std::string> allowed = {"alpha", "beta"};
  ASSERT_EQ(unsetenv("EB_TEST_ENV_CHOICE"), 0);
  EXPECT_EQ(Config::env_choice("EB_TEST_ENV_CHOICE", allowed, ""), "");
  ASSERT_EQ(setenv("EB_TEST_ENV_CHOICE", "beta", 1), 0);
  EXPECT_EQ(Config::env_choice("EB_TEST_ENV_CHOICE", allowed, ""), "beta");
  ASSERT_EQ(unsetenv("EB_TEST_ENV_CHOICE"), 0);
}

TEST(Config, EnvChoiceRejectsUnknownValueNamingTheAcceptedList) {
  // Mirrors from_args strict mode: a mistyped EB_* value must fail
  // loudly, naming the variable, the bad value and the accepted list.
  const std::vector<std::string> allowed = {"alpha", "beta"};
  ASSERT_EQ(setenv("EB_TEST_ENV_CHOICE", "gamma", 1), 0);
  try {
    static_cast<void>(Config::env_choice("EB_TEST_ENV_CHOICE", allowed, ""));
    FAIL() << "unknown env value accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("EB_TEST_ENV_CHOICE"), std::string::npos) << what;
    EXPECT_NE(what.find("gamma"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha, beta"), std::string::npos) << what;
  }
  ASSERT_EQ(unsetenv("EB_TEST_ENV_CHOICE"), 0);
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.bits64(), b.bits64());
  }
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(123);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(rng.gaussian(3.0, 2.0));
  }
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

}  // namespace
}  // namespace eb
