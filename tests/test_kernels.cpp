// Tests for the XNOR kernel registry (bnn/kernels.hpp) and the per-shape
// autotuner (bnn/autotune.hpp): every supported candidate must be
// bit-identical to the portable reference on adversarial shapes (vector
// tails, nonzero pad bits, 1-row/1-col degenerates, batch 1 vs 64), the
// EB_KERNEL / EB_TUNE_CACHE knobs must parse strictly, and the tuned
// table must round-trip through its JSON cache format.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bnn/autotune.hpp"
#include "bnn/kernels.hpp"
#include "bnn/packed.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace eb::bnn {
namespace {

// Restores EB_KERNEL / EB_TUNE_CACHE (and the Autotuner's parsed view of
// them) no matter how a test exits.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    if (v != nullptr) {
      had_ = true;
      saved_ = v;
    }
  }
  ~EnvGuard() {
    if (had_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
    try {
      Autotuner::instance().reinit_from_env();
    } catch (const Error&) {
      // Unreachable for the restored (previously accepted) values.
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

BitMatrix random_packed(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  RngStream rng(seed);
  BitMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.set(r, c, (rng() & 1ULL) != 0);
    }
  }
  return m;
}

// ------------------------------------------------------------- registry --

TEST(KernelRegistry, PortableIsAlwaysPresentAndSupported) {
  const Kernel& p = kernel_by_name("portable");
  EXPECT_STREQ(p.name, "portable");
  EXPECT_TRUE(p.supported);
  EXPECT_NE(p.sweep, nullptr);
  EXPECT_NE(p.pop, nullptr);
}

TEST(KernelRegistry, NamesAreUniqueAndMatchRegistryOrder) {
  const auto& reg = kernel_registry();
  const auto names = kernel_names();
  ASSERT_EQ(names.size(), reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(names[i], reg[i].name);
    for (std::size_t j = i + 1; j < reg.size(); ++j) {
      EXPECT_NE(std::string(reg[i].name), reg[j].name);
    }
  }
}

TEST(KernelRegistry, SupportedNamesAreASubsetEndingInPortable) {
  const auto supported = supported_kernel_names();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.back(), "portable");
  for (const auto& name : supported) {
    EXPECT_TRUE(kernel_by_name(name).supported);
  }
}

TEST(KernelRegistry, DefaultKernelIsFirstSupportedEntry) {
  const Kernel& d = default_kernel();
  EXPECT_TRUE(d.supported);
  for (const auto& k : kernel_registry()) {
    if (k.supported) {
      EXPECT_STREQ(k.name, d.name);
      break;
    }
  }
}

TEST(KernelRegistry, UnknownNameThrowsNamingTheAcceptedList) {
  try {
    static_cast<void>(kernel_by_name("avx1024"));
    FAIL() << "expected eb::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("avx1024"), std::string::npos) << what;
    EXPECT_NE(what.find("portable"), std::string::npos) << what;
  }
}

TEST(KernelRegistry, UnsupportedKnownNameThrows) {
  for (const auto& k : kernel_registry()) {
    if (!k.supported) {
      EXPECT_THROW(static_cast<void>(kernel_by_name(k.name)), Error) << k.name;
    }
  }
}

// --------------------------------------------------- cross-kernel identity --

struct Shape {
  std::size_t rows, cols, batch;
};

// Tail words, pad_bits != 0, single row/col degenerates, row counts that
// stress every remainder path of the 2/4/8-row blocks, batch 1 vs 64.
const Shape kAdversarialShapes[] = {
    {1, 1, 1},    {1, 63, 1},   {2, 64, 3},   {5, 65, 1},
    {8, 127, 4},  {17, 130, 64}, {3, 1000, 2}, {9, 256, 8},
    {4, 192, 1},  {32, 320, 64},
};

TEST(KernelIdentity, EverySupportedSweepMatchesPortableOnAdversarialShapes) {
  const Kernel& portable = kernel_by_name("portable");
  for (const Shape& s : kAdversarialShapes) {
    const BitMatrix w =
        random_packed(s.rows, s.cols, 0xABC0 + s.rows * 131 + s.cols);
    const BitMatrix x = random_packed(s.batch, s.cols, 0xDEF0 + s.cols);
    const std::size_t nw = w.words_per_row();
    std::vector<std::uint32_t> want(s.rows);
    std::vector<std::uint32_t> got(s.rows);
    for (std::size_t i = 0; i < s.batch; ++i) {
      portable.sweep(x.row_words(i), w.row_words(0), s.rows, nw, want.data());
      for (const auto& k : kernel_registry()) {
        if (!k.supported) {
          continue;
        }
        got.assign(s.rows, 0xFFFFFFFFu);
        k.sweep(x.row_words(i), w.row_words(0), s.rows, nw, got.data());
        EXPECT_EQ(got, want) << k.name << " rows=" << s.rows
                             << " cols=" << s.cols << " xrow=" << i;
      }
    }
  }
}

TEST(KernelIdentity, EverySupportedPopMatchesPortable) {
  const Kernel& portable = kernel_by_name("portable");
  for (const std::size_t words : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 31u}) {
    RngStream rng(0x9090 + words);
    std::vector<std::uint64_t> a(words);
    std::vector<std::uint64_t> b(words);
    for (std::size_t i = 0; i < words; ++i) {
      a[i] = rng();
      b[i] = rng();
    }
    const std::size_t want = portable.pop(a.data(), b.data(), words);
    for (const auto& k : kernel_registry()) {
      if (k.supported) {
        EXPECT_EQ(k.pop(a.data(), b.data(), words), want)
            << k.name << " words=" << words;
      }
    }
  }
}

// GEMM-level identity through the public entry points: force each kernel
// in turn via EB_KERNEL and compare against the unforced (tuned) result,
// at thread counts 1 and 4.
TEST(KernelIdentity, ForcedGemmMatchesTunedForEveryKernelAndThreadCount) {
  const EnvGuard guard("EB_KERNEL");
  const BitMatrix w = random_packed(37, 517, 0x711);
  const BitMatrix x = random_packed(64, 517, 0x712);
  ThreadPool pool4(4);

  unsetenv("EB_KERNEL");
  Autotuner::instance().reinit_from_env();
  std::vector<std::uint32_t> want(x.rows() * w.rows());
  xnor_popcount_gemm(x, w, want.data(), nullptr);

  for (const auto& name : supported_kernel_names()) {
    ASSERT_EQ(setenv("EB_KERNEL", name.c_str(), 1), 0);
    Autotuner::instance().reinit_from_env();
    ASSERT_NE(Autotuner::instance().forced(), nullptr);
    EXPECT_EQ(std::string(Autotuner::instance().forced()->name), name);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
      std::vector<std::uint32_t> got(x.rows() * w.rows(), 0xFFFFFFFFu);
      xnor_popcount_gemm(x, w, got.data(), pool);
      EXPECT_EQ(got, want) << name;
    }
  }
}

// --------------------------------------------------------------- autotuner --

TEST(Autotune, PickPinsOneDecisionPerShapeClass) {
  Autotuner& tuner = Autotuner::instance();
  const EnvGuard guard("EB_KERNEL");
  unsetenv("EB_KERNEL");
  tuner.reinit_from_env();
  tuner.clear();
  const Kernel& first = tuner.pick_xnor(100, 4, 16);
  EXPECT_TRUE(first.supported);
  const std::size_t after_first = tuner.table_size();
  EXPECT_GE(after_first, 1u);
  // Same shape class (bucketed 128/4/16): no new entry, same pick.
  const Kernel& again = tuner.pick_xnor(97, 3, 9);
  EXPECT_STREQ(again.name, first.name);
  EXPECT_EQ(tuner.table_size(), after_first);
  // Different class: new entry.
  static_cast<void>(tuner.pick_xnor(2000, 16, 1));
  EXPECT_EQ(tuner.table_size(), after_first + 1);
}

TEST(Autotune, WarmupPinsTheClass) {
  Autotuner& tuner = Autotuner::instance();
  const EnvGuard guard("EB_KERNEL");  // forced picks never pin entries
  unsetenv("EB_KERNEL");
  tuner.reinit_from_env();
  tuner.clear();
  tuner.warmup_xnor(256, 1024, 8);  // 1024 bits = 16 words
  EXPECT_EQ(tuner.table_size(), 1u);
  const auto entries = tuner.table();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].family, "xnor");
  EXPECT_EQ(entries[0].rows, 256u);
  EXPECT_EQ(entries[0].words, 16u);
  EXPECT_EQ(entries[0].batch, 8u);
}

TEST(Autotune, ForcedKernelBypassesTheTable) {
  Autotuner& tuner = Autotuner::instance();
  const EnvGuard guard("EB_KERNEL");
  ASSERT_EQ(setenv("EB_KERNEL", "portable", 1), 0);
  tuner.reinit_from_env();
  tuner.clear();
  const Kernel& k = tuner.pick_xnor(512, 16, 64);
  EXPECT_STREQ(k.name, "portable");
  EXPECT_EQ(tuner.table_size(), 0u);  // forced picks never tune
}

TEST(Autotune, UnknownEbKernelFailsLoudlyNamingTheAcceptedList) {
  const EnvGuard guard("EB_KERNEL");
  ASSERT_EQ(setenv("EB_KERNEL", "avx9000", 1), 0);
  try {
    Autotuner::instance().reinit_from_env();
    FAIL() << "expected eb::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("EB_KERNEL"), std::string::npos) << what;
    EXPECT_NE(what.find("avx9000"), std::string::npos) << what;
    EXPECT_NE(what.find("portable"), std::string::npos) << what;
  }
}

TEST(Autotune, JsonRoundTripRestoresEveryEntry) {
  Autotuner& tuner = Autotuner::instance();
  const EnvGuard guard("EB_KERNEL");
  unsetenv("EB_KERNEL");
  tuner.reinit_from_env();
  tuner.clear();
  tuner.warmup_xnor(128, 256, 4);
  tuner.warmup_xnor(64, 512, 8);
  const std::string json = tuner.to_json();
  const auto before = tuner.table();

  tuner.clear();
  EXPECT_EQ(tuner.table_size(), 0u);
  tuner.load_json(json);
  const auto after = tuner.table();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].family, before[i].family);
    EXPECT_EQ(after[i].rows, before[i].rows);
    EXPECT_EQ(after[i].words, before[i].words);
    EXPECT_EQ(after[i].batch, before[i].batch);
    EXPECT_EQ(after[i].kernel, before[i].kernel);
  }
}

TEST(Autotune, CacheFileRoundTripAndMissingFile) {
  Autotuner& tuner = Autotuner::instance();
  const EnvGuard guard("EB_KERNEL");
  unsetenv("EB_KERNEL");
  tuner.reinit_from_env();
  tuner.clear();
  tuner.warmup_xnor(64, 128, 1);
  const std::string path = testing::TempDir() + "eb_tune_cache_test.json";
  tuner.save_cache_file(path);

  tuner.clear();
  EXPECT_TRUE(tuner.load_cache_file(path));
  EXPECT_EQ(tuner.table_size(), 1u);
  std::remove(path.c_str());

  tuner.clear();
  EXPECT_FALSE(tuner.load_cache_file(path));  // gone: no-op, no throw
  EXPECT_EQ(tuner.table_size(), 0u);
}

TEST(Autotune, MalformedOrAlienCacheEntriesAreHandled) {
  Autotuner& tuner = Autotuner::instance();
  tuner.clear();
  // Unknown kernels and entries of the retired "real" family (row-block
  // picks written by older builds, e.g. "rb8") are skipped (cache
  // portability across hosts and builds), not errors.
  tuner.load_json(R"({"version": 1, "entries": [
    {"family": "xnor", "rows": 64, "words": 4, "batch": 1,
     "kernel": "sse42_imaginary"},
    {"family": "real", "rows": 64, "words": 1024, "batch": 64,
     "kernel": "rb8"},
    {"family": "real", "rows": 64, "words": 4, "batch": 1,
     "kernel": "rb64"}
  ]})");
  EXPECT_EQ(tuner.table_size(), 0u);
  // An unknown family is still an error.
  EXPECT_THROW(tuner.load_json(R"({"entries": [{"family": "fp16",
    "rows": 1, "words": 1, "batch": 1, "kernel": "portable"}]})"),
               Error);
  // Structurally broken JSON throws.
  EXPECT_THROW(tuner.load_json("not json at all"), Error);
  EXPECT_THROW(tuner.load_json(R"({"entries": [{"family": "xnor"}]})"), Error);
  EXPECT_THROW(
      tuner.load_json(R"({"entries": [{"family": "xnor", "rows": 1)"), Error);
}

TEST(Autotune, LoadedCacheEntriesWinWithoutRetuning) {
  Autotuner& tuner = Autotuner::instance();
  const EnvGuard guard("EB_KERNEL");
  unsetenv("EB_KERNEL");
  tuner.reinit_from_env();
  tuner.clear();
  tuner.load_json(R"({"version": 1, "entries": [
    {"family": "xnor", "rows": 64, "words": 8, "batch": 4,
     "kernel": "portable"}
  ]})");
  ASSERT_EQ(tuner.table_size(), 1u);
  // A pick inside that class honors the pinned (cached) kernel instead of
  // re-timing -- portable would never win an empirical race on SIMD hosts.
  const Kernel& k = tuner.pick_xnor(64, 8, 4);
  EXPECT_STREQ(k.name, "portable");
  EXPECT_EQ(tuner.table_size(), 1u);
}

}  // namespace
}  // namespace eb::bnn
