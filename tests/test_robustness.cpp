// Failure injection and edge-case coverage across modules: wrong-size
// operands, resource exhaustion, device non-idealities, and message-queue
// ordering -- the paths a user hits when misusing the library.
#include <gtest/gtest.h>

#include "arch/event_queue.hpp"
#include "arch/machine.hpp"
#include "bnn/model_zoo.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "compiler/compiler.hpp"
#include "device/noise.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/validator.hpp"
#include "xbar/crossbar.hpp"

namespace eb {
namespace {

const dev::NoNoise kNoNoise;

// ----------------------------------------------------- device in crossbar --

TEST(Robustness, DriftReducesCrossbarCurrentsOverTime) {
  dev::EpcmParams p = dev::EpcmParams::ideal();
  p.drift_nu = 0.05;
  xbar::ElectricalCrossbar xb({16, 1}, p);
  Rng rng(1);
  BitVec all(16);
  for (std::size_t r = 0; r < 16; ++r) {
    xb.program(r, 0, 1);
    all.set(r, true);
  }
  const double i_fresh =
      xb.vmm_currents_bits(all, 0.2, kNoNoise, rng, /*t_s=*/0.0)[0];
  const double i_hour =
      xb.vmm_currents_bits(all, 0.2, kNoNoise, rng, /*t_s=*/3600.0)[0];
  const double i_day =
      xb.vmm_currents_bits(all, 0.2, kNoNoise, rng, /*t_s=*/86400.0)[0];
  EXPECT_GT(i_fresh, i_hour);
  EXPECT_GT(i_hour, i_day);
}

TEST(Robustness, BaselineMappingDegradesUnderSenseNoise) {
  Rng rng(2);
  const auto task = map::XnorPopcountTask::random(200, 40, 3, rng);
  map::CustBinaryConfig cfg;
  // Noise amplitude comparable to the ON/OFF contrast corrupts PCSA
  // decisions; the mapping is *binary*-robust but not unconditionally so.
  // Runs through the sharded path (default-width pool, EB_THREADS aware):
  // the noisy verdict must not depend on the thread count.
  const dev::GaussianReadNoise heavy(0.5);
  const map::CustBinaryMap mapped(task.weights, cfg);
  ThreadPool pool(0);
  Rng vrng(3);
  const auto rep = map::validate_mapped(mapped, task, heavy, vrng, &pool);
  EXPECT_FALSE(rep.exact());
  EXPECT_NE(rep.summary().find("mismatched"), std::string::npos);

  // Bit-identical replay: same seed, serial path.
  Rng vrng2(3);
  const auto rep2 = map::validate_mapped(mapped, task, heavy, vrng2);
  EXPECT_EQ(rep2.mismatches, rep.mismatches);
  EXPECT_EQ(rep2.max_abs_error, rep.max_abs_error);
}

// --------------------------------------------------------- message queue --

TEST(Robustness, MessageQueueDeliversEarliestMatchingFirst) {
  arch::MessageQueue q;
  arch::Message late;
  late.arrival_ns = 50.0;
  late.from_core = 1;
  late.to_core = 2;
  late.payload = {2};
  arch::Message early = late;
  early.arrival_ns = 10.0;
  early.payload = {1};
  arch::Message other = late;
  other.from_core = 3;  // different sender, must not match
  other.arrival_ns = 1.0;
  q.push(late);
  q.push(other);
  q.push(early);

  arch::Message out;
  ASSERT_TRUE(q.pop_for(2, 1, out));
  EXPECT_EQ(out.payload, (std::vector<long long>{1}));
  ASSERT_TRUE(q.pop_for(2, 1, out));
  EXPECT_EQ(out.payload, (std::vector<long long>{2}));
  EXPECT_FALSE(q.pop_for(2, 1, out));
  EXPECT_EQ(q.size(), 1u);  // the unrelated message survives
}

// ---------------------------------------------------------- machine edges --

arch::MachineConfig tiny_machine() {
  arch::MachineConfig cfg;
  cfg.nodes = 1;
  cfg.tiles_per_node = 1;
  cfg.ecores_per_tile = 1;
  cfg.vcores_per_ecore = 2;
  cfg.tech.dims = {32, 32};
  cfg.optical = false;
  return cfg;
}

TEST(Robustness, MachineRejectsOversizedPrograms) {
  arch::Machine machine(tiny_machine());
  arch::Program prog;
  prog.streams.resize(5);  // machine has one ECore
  EXPECT_THROW(machine.load(prog), Error);
}

TEST(Robustness, MachineRejectsImageForMissingVcore) {
  arch::Machine machine(tiny_machine());
  Rng rng(4);
  arch::Program prog;
  prog.streams.resize(1);
  arch::VcoreImage img;
  img.ecore = 0;
  img.vcore = 7;  // only 2 VCores exist
  img.weights = BitMatrix::random(2, 4, rng);
  prog.images.push_back(img);
  EXPECT_THROW(machine.load(prog), Error);
}

TEST(Robustness, VcoreRejectsWeightsLargerThanCrossbar) {
  arch::Machine machine(tiny_machine());
  Rng rng(5);
  arch::Program prog;
  prog.streams.resize(1);
  arch::VcoreImage img;
  img.ecore = 0;
  img.vcore = 0;
  img.weights = BitMatrix::random(2, 64, rng);  // 2m = 128 rows > 32
  prog.images.push_back(img);
  EXPECT_THROW(machine.load(prog), Error);
}

TEST(Robustness, StoreLengthMismatchIsCaught) {
  arch::Machine machine(tiny_machine());
  Rng rng(6);
  arch::Program prog;
  prog.streams.resize(1);
  auto& s = prog.streams[0];
  s.push_back(arch::from_assembly("loadb b0, [0], 8"));
  {
    auto vmm = arch::from_assembly("vmm v0, b0, xb0");
    vmm.len = 8;
    s.push_back(vmm);
  }
  s.push_back(arch::from_assembly("storev [10], v0, 7"));  // v0 has 4 elems
  s.push_back(arch::from_assembly("halt"));
  arch::VcoreImage img;
  img.ecore = 0;
  img.vcore = 0;
  img.weights = BitMatrix::random(4, 8, rng);
  prog.images.push_back(img);
  machine.load(prog);
  EXPECT_THROW(static_cast<void>(machine.run()), Error);
}

TEST(Robustness, MemoryAccessOutOfRangeIsCaught) {
  arch::Machine machine(tiny_machine());
  EXPECT_THROW(machine.write_memory(0, machine.config().tile_memory_words,
                                    {1}),
               Error);
  EXPECT_THROW(static_cast<void>(machine.read_memory(9, 0, 1)), Error);
}

// ---------------------------------------------------------- compiler edges --

TEST(Robustness, CompilerRejectsBatchOverFour) {
  Rng rng(7);
  const bnn::Network net = bnn::build_mlp("tiny", {16, 8, 6, 4}, rng);
  const comp::MlpCompiler compiler(arch::MachineConfig{});
  EXPECT_THROW(static_cast<void>(compiler.compile(net, 5)), Error);
}

TEST(Robustness, RunRejectsWrongInputCount) {
  Rng rng(8);
  const bnn::Network net = bnn::build_mlp("tiny", {16, 8, 6, 4}, rng);
  arch::MachineConfig cfg;
  const comp::MlpCompiler compiler(cfg);
  const auto compiled = compiler.compile(net, 2);
  arch::Machine machine(cfg);
  bnn::Tensor x({16});
  EXPECT_THROW(
      static_cast<void>(comp::run_mlp_on_machine(machine, compiled, net,
                                                 {x})),  // batch is 2
      Error);
}

TEST(Robustness, RandomMlpCompilesAndRunsWithoutTraining) {
  // Untrained (identity-BN) networks exercise the same machinery.
  Rng rng(9);
  const bnn::Network net = bnn::build_mlp("random", {32, 24, 16, 10}, rng);
  arch::MachineConfig cfg;
  const comp::MlpCompiler compiler(cfg);
  const auto compiled = compiler.compile(net);
  arch::Machine machine(cfg);
  for (int i = 0; i < 5; ++i) {
    const bnn::Tensor x = bnn::Tensor::random_uniform({32}, 1.0, rng);
    const auto run = comp::run_mlp_on_machine(machine, compiled, net, {x});
    EXPECT_EQ(run.predictions[0], net.predict(x)) << "trial " << i;
  }
}

// ------------------------------------------------------------- validator --

TEST(Robustness, ValidatorReportsMeanAndMaxError) {
  map::ValidationReport rep;
  rep.total_outputs = 4;
  rep.mismatches = 2;
  rep.max_abs_error = 3;
  rep.mean_abs_error = 1.5;
  EXPECT_FALSE(rep.exact());
  EXPECT_DOUBLE_EQ(rep.mismatch_rate(), 0.5);
  const std::string s = rep.summary();
  EXPECT_NE(s.find("2/4"), std::string::npos);
  EXPECT_NE(s.find("max |err| 3"), std::string::npos);
}

}  // namespace
}  // namespace eb
