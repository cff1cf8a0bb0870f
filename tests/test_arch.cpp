// Tests for eb::arch -- ISA encode/decode/assembler, energy ledger, cost
// model properties, and hand-written programs on the machine simulator
// (including the bit-plane multi-bit lowering path).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "arch/cost_model.hpp"
#include "arch/energy.hpp"
#include "arch/isa.hpp"
#include "arch/machine.hpp"
#include "bnn/model_zoo.hpp"
#include "common/error.hpp"

namespace eb::arch {
namespace {

// ------------------------------------------------------------------- ISA --

TEST(Isa, EncodeDecodeRoundTripAllFields) {
  Instruction ins;
  ins.op = Opcode::Vmm;
  ins.alu = AluOp::ShiftAdd;
  ins.dst = 7;
  ins.src1 = 3;
  ins.src2 = 15;
  ins.imm = 65535;
  ins.addr = 32767;
  ins.len = 8191;
  EXPECT_EQ(decode(encode(ins)), ins);
}

class IsaOpcodes : public ::testing::TestWithParam<int> {};

TEST_P(IsaOpcodes, RoundTripPerOpcode) {
  Instruction ins;
  ins.op = static_cast<Opcode>(GetParam());
  ins.dst = 1;
  ins.src1 = 2;
  ins.src2 = 3;
  ins.imm = 100;
  ins.addr = 200;
  ins.len = 300;
  EXPECT_EQ(decode(encode(ins)), ins);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, IsaOpcodes,
                         ::testing::Range(0,
                                          static_cast<int>(Opcode::Halt) + 1));

TEST(Isa, EncodeRejectsOutOfRangeFields) {
  Instruction ins;
  ins.len = 9000;  // > 13 bits
  EXPECT_THROW(static_cast<void>(encode(ins)), Error);
}

TEST(Isa, AssemblerRoundTrip) {
  const std::vector<std::string> lines = {
      "nop",
      "halt",
      "barrier",
      "set r3, 42",
      "mov r1, r2",
      "loadv v2, [100], 64",
      "storev [200], v3, 32",
      "loadb b1, [300], 784",
      "storeb [400], b2, 16",
      "vmm v0, b0, xb1",
      "vmm v2, b1, xb3, acc",
      "mmm v8, b0, xb2, k=4",
      "aluv.add v1, v2, v3, 0",
      "aluv.shiftadd v1, v2, v3, 7",
      "aluv.scale_eq1 v1, v1, v0, 784",
      "signv b2, v1, thr3",
      "planeb b0, i0, plane5",
      "send v4, core9",
      "recv v5, tag2",
  };
  for (const auto& line : lines) {
    const Instruction ins = from_assembly(line);
    EXPECT_EQ(to_assembly(ins), line) << "round-trip failed for: " << line;
    // And through the binary encoding as well.
    EXPECT_EQ(decode(encode(ins)), ins);
  }
}

TEST(Isa, AssemblerRejectsMalformedInput) {
  EXPECT_THROW(static_cast<void>(from_assembly("")), Error);
  EXPECT_THROW(static_cast<void>(from_assembly("frobnicate v1")), Error);
  EXPECT_THROW(static_cast<void>(from_assembly("vmm v0, r1, xb0")), Error);
  EXPECT_THROW(static_cast<void>(from_assembly("aluv.bogus v0, v1, v2, 0")),
               Error);
  EXPECT_THROW(static_cast<void>(from_assembly("set r1")), Error);
}

TEST(Isa, DisassembleNumbersLines) {
  std::vector<Instruction> prog(3);
  prog[2].op = Opcode::Halt;
  const std::string text = disassemble(prog);
  EXPECT_NE(text.find("0:\tnop"), std::string::npos);
  EXPECT_NE(text.find("2:\thalt"), std::string::npos);
}

// ---------------------------------------------------------------- energy --

TEST(EnergyLedger, AccumulatesAndMerges) {
  EnergyLedger a;
  a.add("adc", 10.0);
  a.add("adc", 5.0);
  a.add("laser", 1.0);
  EXPECT_DOUBLE_EQ(a.component_pj("adc"), 15.0);
  EXPECT_DOUBLE_EQ(a.total_pj(), 16.0);
  EnergyLedger b;
  b.add("adc", 1.0);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.component_pj("adc"), 16.0);
  EXPECT_THROW(a.add("adc", -1.0), Error);
}

// ------------------------------------------------------------ cost model --

TEST(CostModel, BaselineStepsScaleWithOutputCount) {
  const CostModel model(TechParams::paper_defaults());
  bnn::XnorWorkload w;
  w.m = 256;
  w.windows = 1;
  w.n = 100;
  const double t100 = model.baseline_epcm(w).latency_ns;
  w.n = 200;
  const double t200 = model.baseline_epcm(w).latency_ns;
  // Twice the weight vectors -> about twice the row activations.
  EXPECT_NEAR(t200 / t100, 2.0, 0.1);
}

TEST(CostModel, TacitLatencyIndependentOfOutputCountWithinCrossbar) {
  const CostModel model(TechParams::paper_defaults());
  bnn::XnorWorkload w;
  w.m = 256;
  w.windows = 1;
  w.n = 64;
  const double t64 = model.tacit_epcm(w).latency_ns;
  w.n = 512;
  const double t512 = model.tacit_epcm(w).latency_ns;
  // Column parallelism: only the shared-ADC readout grows.
  EXPECT_LT(t512 / t64, 4.0);
  EXPECT_GE(t512, t64);
}

TEST(CostModel, HeadlineOrderingHoldsPerNetwork) {
  const CostModel model(TechParams::paper_defaults());
  for (const auto& net : bnn::mlbench_specs()) {
    const double base =
        model.evaluate(Design::BaselineEpcm, net).latency_ns;
    const double tacit = model.evaluate(Design::TacitEpcm, net).latency_ns;
    const double eb =
        model.evaluate(Design::EinsteinBarrier, net).latency_ns;
    EXPECT_GT(base, tacit) << net.name;
    EXPECT_GT(tacit, eb) << net.name;
  }
}

TEST(CostModel, WdmCapacityOneRemovesEinsteinWindowBatching) {
  TechParams p = TechParams::paper_defaults();
  p.wdm_capacity = 1;
  const CostModel k1(p);
  p.wdm_capacity = 16;
  const CostModel k16(p);
  bnn::XnorWorkload w;
  w.m = 1000;
  w.n = 512;
  w.windows = 4096;  // conv-like
  const double t1 = k1.einstein_barrier(w).latency_ns;
  const double t16 = k16.einstein_barrier(w).latency_ns;
  EXPECT_GT(t1 / t16, 2.0);  // K=16 buys real window batching
}

TEST(CostModel, EnergyCountsAllWindowsRegardlessOfParallelism) {
  const CostModel model(TechParams::paper_defaults());
  bnn::XnorWorkload w;
  w.m = 128;
  w.n = 64;
  w.windows = 100;
  const double e100 = model.tacit_epcm(w).energy_pj;
  w.windows = 200;
  const double e200 = model.tacit_epcm(w).energy_pj;
  EXPECT_NEAR(e200 / e100, 2.0, 1e-9);
}

// ------------------------------------------------------------- machine --

MachineConfig small_machine(bool optical) {
  MachineConfig cfg;
  cfg.nodes = 1;
  cfg.tiles_per_node = 2;
  cfg.ecores_per_tile = 2;
  cfg.vcores_per_ecore = 8;
  cfg.optical = optical;
  cfg.tech.dims = {64, 64};
  return cfg;
}

TEST(Machine, HandVmmProgramComputesPopcounts) {
  Rng rng(1);
  const BitMatrix weights = BitMatrix::random(8, 16, rng);  // n=8, m=16
  const BitVec x = BitVec::random(16, rng);

  Program prog;
  prog.streams.resize(1);
  auto& s = prog.streams[0];
  s.push_back(from_assembly("loadb b0, [0], 16"));
  {
    Instruction vmm = from_assembly("vmm v0, b0, xb0");
    vmm.addr = 0;
    vmm.len = 16;
    s.push_back(vmm);
  }
  s.push_back(from_assembly("barrier"));
  s.push_back(from_assembly("storev [100], v0, 8"));
  s.push_back(from_assembly("halt"));
  VcoreImage img;
  img.ecore = 0;
  img.vcore = 0;
  img.weights = weights;
  prog.images.push_back(img);
  prog.result_ecore = 0;
  prog.result_addr = 100;
  prog.result_len = 8;

  Machine machine(small_machine(false));
  machine.load(prog);
  std::vector<long long> bits01(16);
  for (std::size_t i = 0; i < 16; ++i) {
    bits01[i] = x.get(i) ? 1 : 0;
  }
  machine.write_memory(0, 0, bits01);
  const RunResult r = machine.run();

  ASSERT_EQ(r.output.size(), 8u);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(r.output[j],
              static_cast<long long>(weights.row(j).xnor_popcount(x)));
  }
  EXPECT_EQ(r.vmm_ops, 1u);
  EXPECT_GT(r.latency_ns, 0.0);
  EXPECT_GT(r.energy.total_pj(), 0.0);
}

TEST(Machine, MmmMatchesPerInputVmm) {
  Rng rng(2);
  const BitMatrix weights = BitMatrix::random(6, 20, rng);
  std::vector<BitVec> xs;
  for (int k = 0; k < 3; ++k) {
    xs.push_back(BitVec::random(20, rng));
  }

  Program prog;
  prog.streams.resize(1);
  auto& s = prog.streams[0];
  for (int k = 0; k < 3; ++k) {
    Instruction loadb = from_assembly("loadb b0, [0], 20");
    loadb.dst = static_cast<std::uint8_t>(k);
    loadb.addr = static_cast<std::uint16_t>(k * 32);
    s.push_back(loadb);
  }
  {
    Instruction mmm = from_assembly("mmm v0, b0, xb0, k=3");
    mmm.len = 20;
    s.push_back(mmm);
  }
  s.push_back(from_assembly("barrier"));
  for (int k = 0; k < 3; ++k) {
    Instruction st = from_assembly("storev [100], v0, 6");
    st.src1 = static_cast<std::uint8_t>(k);
    st.addr = static_cast<std::uint16_t>(100 + k * 8);
    s.push_back(st);
  }
  s.push_back(from_assembly("halt"));
  VcoreImage img;
  img.ecore = 0;
  img.vcore = 0;
  img.weights = weights;
  prog.images.push_back(img);

  Machine machine(small_machine(true));
  machine.load(prog);
  for (int k = 0; k < 3; ++k) {
    std::vector<long long> bits01(20);
    for (std::size_t i = 0; i < 20; ++i) {
      bits01[i] = xs[k].get(i) ? 1 : 0;
    }
    machine.write_memory(0, static_cast<std::size_t>(k) * 32, bits01);
  }
  const RunResult r = machine.run();
  EXPECT_EQ(r.mmm_ops, 1u);
  for (int k = 0; k < 3; ++k) {
    const auto out =
        machine.read_memory(0, 100 + static_cast<std::size_t>(k) * 8, 6);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(out[j],
                static_cast<long long>(weights.row(j).xnor_popcount(xs[k])))
          << "input " << k << " col " << j;
    }
  }
}

TEST(Machine, MmmRequiresOpticalMachine) {
  Rng rng(3);
  Program prog;
  prog.streams.resize(1);
  {
    Instruction mmm = from_assembly("mmm v0, b0, xb0, k=2");
    mmm.len = 8;
    prog.streams[0].push_back(mmm);
  }
  prog.streams[0].push_back(from_assembly("halt"));
  VcoreImage img;
  img.ecore = 0;
  img.vcore = 0;
  img.weights = BitMatrix::random(2, 8, rng);
  prog.images.push_back(img);

  Machine machine(small_machine(false));
  machine.load(prog);
  EXPECT_THROW(static_cast<void>(machine.run()), Error);
}

TEST(Machine, LoadRejectsWeightTileLargerThanOneCrossbar) {
  // A VCore holds one 64 x 64 crossbar: 2m rows of [w ; ~w], n columns.
  Rng rng(8);
  for (const bool optical : {false, true}) {
    for (const auto& [n, m, fits] :
         {std::tuple{64u, 32u, true}, std::tuple{64u, 33u, false},
          std::tuple{65u, 32u, false}}) {
      Program prog;
      VcoreImage img;
      img.weights = BitMatrix::random(n, m, rng);
      prog.images.push_back(img);
      Machine machine(small_machine(optical));
      if (fits) {
        EXPECT_NO_THROW(machine.load(prog)) << n << " x " << m;
      } else {
        EXPECT_THROW(machine.load(prog), Error) << n << " x " << m;
      }
    }
  }
}

TEST(Machine, MmmRejectsBatchOverWdmCapacity) {
  // A VCore's execute_batch tiles any batch into WDM passes, so the
  // machine's check is what holds one Mmm to one pass of at most
  // tech.wdm_capacity wavelengths.
  Rng rng(9);
  Program prog;
  prog.streams.resize(1);
  auto& s = prog.streams[0];
  for (int k = 0; k < 3; ++k) {
    Instruction loadb = from_assembly("loadb b0, [0], 8");
    loadb.dst = static_cast<std::uint8_t>(k);
    loadb.addr = static_cast<std::uint16_t>(k * 8);
    s.push_back(loadb);
  }
  {
    Instruction mmm = from_assembly("mmm v0, b0, xb0, k=3");
    mmm.len = 8;
    s.push_back(mmm);
  }
  s.push_back(from_assembly("halt"));
  VcoreImage img;
  img.ecore = 0;
  img.vcore = 0;
  img.weights = BitMatrix::random(2, 8, rng);
  prog.images.push_back(img);

  for (const std::size_t capacity : {2u, 3u}) {
    MachineConfig cfg = small_machine(true);
    cfg.tech.wdm_capacity = capacity;
    Machine machine(cfg);
    machine.load(prog);
    if (capacity >= 3) {
      EXPECT_EQ(machine.run().mmm_ops, 1u);
      continue;
    }
    try {
      static_cast<void>(machine.run());
      ADD_FAILURE() << "k = 3 ran on a " << capacity << "-wavelength machine";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("MMM exceeds WDM capacity"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Machine, SendRecvAcrossTilesAddsHopLatency) {
  Rng rng(4);
  Program prog;
  prog.streams.resize(3);  // core 0 (tile 0) -> core 2 (tile 1)
  // Producer: load a vector, send it to core 2.
  prog.streams[0].push_back(from_assembly("loadv v1, [0], 4"));
  prog.streams[0].push_back(from_assembly("send v1, core2"));
  prog.streams[0].push_back(from_assembly("halt"));
  // Bystander core 1 halts immediately.
  prog.streams[1].push_back(from_assembly("halt"));
  // Consumer: receive and store.
  prog.streams[2].push_back(from_assembly("recv v0, tag0"));
  prog.streams[2].push_back(from_assembly("storev [50], v0, 4"));
  prog.streams[2].push_back(from_assembly("halt"));

  Machine machine(small_machine(false));
  machine.load(prog);
  machine.write_memory(0, 0, {7, 8, 9, 10});
  const RunResult r = machine.run();
  const auto out = machine.read_memory(2, 50, 4);  // tile 1 memory
  EXPECT_EQ(out, (std::vector<long long>{7, 8, 9, 10}));
  // Crossing tiles costs 2 hops of 5 ns on top of issue latencies.
  EXPECT_GE(r.latency_ns, 10.0);
}

TEST(Machine, DeadlockIsDetected) {
  Program prog;
  prog.streams.resize(1);
  prog.streams[0].push_back(from_assembly("recv v0, tag1"));
  prog.streams[0].push_back(from_assembly("halt"));
  Machine machine(small_machine(false));
  machine.load(prog);
  EXPECT_THROW(static_cast<void>(machine.run()), Error);
}

TEST(Machine, SameVcoreSerializesDifferentVcoresOverlap) {
  Rng rng(5);
  const BitMatrix weights = BitMatrix::random(4, 8, rng);

  auto build = [&](bool same_vcore) {
    Program prog;
    prog.streams.resize(1);
    auto& s = prog.streams[0];
    s.push_back(from_assembly("loadb b0, [0], 8"));
    for (int i = 0; i < 2; ++i) {
      Instruction vmm = from_assembly("vmm v0, b0, xb0");
      vmm.dst = static_cast<std::uint8_t>(i);
      vmm.src2 = same_vcore ? 0 : static_cast<std::uint8_t>(i);
      vmm.len = 8;
      s.push_back(vmm);
    }
    s.push_back(from_assembly("barrier"));
    s.push_back(from_assembly("halt"));
    for (int i = 0; i < (same_vcore ? 1 : 2); ++i) {
      VcoreImage img;
      img.ecore = 0;
      img.vcore = static_cast<std::size_t>(i);
      img.weights = weights;
      prog.images.push_back(img);
    }
    return prog;
  };

  Machine machine(small_machine(false));
  const Program serial = build(true);
  machine.load(serial);
  machine.write_memory(0, 0, std::vector<long long>(8, 1));
  const double t_serial = machine.run().latency_ns;

  const Program parallel = build(false);
  machine.load(parallel);
  const double t_parallel = machine.run().latency_ns;

  EXPECT_GT(t_serial, t_parallel);
}

// The multi-bit (int8) lowering path: bit-plane VMMs + XnorToAnd fix-up +
// shift-add combine reproduce an integer matrix-vector product exactly
// (two's-complement weights, unsigned activations).
TEST(Machine, BitPlaneInt8DotProductIsExact) {
  Rng rng(6);
  const std::size_t m = 32;
  const std::size_t n = 4;
  // Random int8 weights and uint8 activations.
  std::vector<std::vector<int>> w(n, std::vector<int>(m));
  for (auto& row : w) {
    for (auto& v : row) {
      v = static_cast<int>(rng.uniform_int(-128, 127));
    }
  }
  std::vector<long long> x(m);
  for (auto& v : x) {
    v = rng.uniform_int(0, 255);
  }

  Program prog;
  prog.streams.resize(1);
  auto& s = prog.streams[0];

  // One VCore per weight bit-plane; plane q of two's-complement weights.
  for (std::size_t q = 0; q < 8; ++q) {
    BitMatrix plane(n, m);
    std::vector<long long> wpc(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < m; ++i) {
        const bool bit = ((static_cast<unsigned>(w[r][i]) & 0xFFu) >> q) & 1u;
        plane.set(r, i, bit);
        wpc[r] += bit ? 1 : 0;
      }
    }
    VcoreImage img;
    img.ecore = 0;
    img.vcore = q;
    img.weights = std::move(plane);
    prog.images.push_back(std::move(img));
    prog.tables.push_back(std::move(wpc));  // table q = plane popcounts
  }

  s.push_back(from_assembly("loadv v0, [0], 32"));
  // v3 accumulates; v4 is a zero vector built after the first fix-up.
  bool acc_init = false;
  for (std::size_t p = 0; p < 8; ++p) {
    Instruction planeb = from_assembly("planeb b0, i0, plane0");
    planeb.imm = static_cast<std::uint16_t>(p);
    s.push_back(planeb);
    for (std::size_t q = 0; q < 8; ++q) {
      Instruction vmm = from_assembly("vmm v1, b0, xb0");
      vmm.src2 = static_cast<std::uint8_t>(q);
      vmm.len = 32;
      s.push_back(vmm);
      s.push_back(from_assembly("barrier"));
      // v2 = AND-plane dot from the XNOR popcount.
      Instruction fix = from_assembly("aluv.xnor2and v2, v1, v0, 0");
      fix.imm = static_cast<std::uint16_t>((q << 4) | 0);  // b0, table q
      fix.len = 32;
      s.push_back(fix);
      if (!acc_init) {
        // v4 = 0 (v2 - v2), v3 = v2 << (p+q)  [p=q=0 -> shift 0]
        s.push_back(from_assembly("aluv.sub v4, v2, v2, 0"));
        s.push_back(from_assembly("aluv.addimm v3, v4, v4, 0"));
        acc_init = true;
      }
      const unsigned shift = static_cast<unsigned>(p + q);
      if (q == 7) {
        // MSB plane is negative in two's complement: acc -= dot << (p+7)
        Instruction sh = from_assembly("aluv.shiftadd v5, v4, v2, 0");
        sh.imm = static_cast<std::uint16_t>(shift);
        s.push_back(sh);
        s.push_back(from_assembly("aluv.sub v3, v3, v5, 0"));
      } else {
        Instruction sh = from_assembly("aluv.shiftadd v3, v3, v2, 0");
        sh.imm = static_cast<std::uint16_t>(shift);
        s.push_back(sh);
      }
    }
  }
  s.push_back(from_assembly("storev [200], v3, 4"));
  s.push_back(from_assembly("halt"));
  prog.result_ecore = 0;
  prog.result_addr = 200;
  prog.result_len = 4;

  Machine machine(small_machine(false));
  machine.load(prog);
  machine.write_memory(0, 0, x);
  const RunResult r = machine.run();

  ASSERT_EQ(r.output.size(), n);
  for (std::size_t row = 0; row < n; ++row) {
    long long want = 0;
    for (std::size_t i = 0; i < m; ++i) {
      want += static_cast<long long>(w[row][i]) * x[i];
    }
    EXPECT_EQ(r.output[row], want) << "row " << row;
  }
}

}  // namespace
}  // namespace eb::arch
