// The EinsteinBarrier machine: Nodes -> Tiles -> ECores -> VCores
// (paper Fig. 4), executing the ISA of arch/isa.hpp.
//
// The machine is a functional + timing simulator:
//  * functional -- each VCore holds one map::MappedExecutor, a TacitMap
//    executor on one real (ideal-device) crossbar: Vmm runs its
//    execute(), Mmm its execute_batch(), so compiled programs produce
//    bit-exact XNOR+Popcounts; the ECore ALU implements the digital
//    post-processing (Eq. 1 affine, partial-sum adds, bit-plane
//    shift-adds, BN-as-threshold sign).
//  * timing -- a scoreboard per VCore: VMM/MMM occupy their VCore for the
//    TechParams-derived duration, the ECore issues one instruction per ns,
//    Barrier waits for all local VCores, and Send/Recv cross the on-chip /
//    chip-to-chip network with per-hop latency. The run's critical path
//    falls out of the scoreboard; energy is accumulated per component in
//    an EnergyLedger with the same per-event costs as the analytic
//    CostModel (the two are cross-checked in tests).
//
// Scope note: the machine executes Dense networks (binary hidden layers
// plus bit-planed 8-bit first/last layers) end to end. Conv layers are
// validated functionally at the mapping level (tests/test_mapping) and
// costed analytically; emitting im2col gather programs is future work the
// ISA already supports via LoadB.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/energy.hpp"
#include "arch/event_queue.hpp"
#include "arch/isa.hpp"
#include "arch/tech_params.hpp"
#include "common/bitvec.hpp"
#include "mapping/executor.hpp"

namespace eb::arch {

struct MachineConfig {
  std::size_t nodes = 1;
  std::size_t tiles_per_node = 4;
  std::size_t ecores_per_tile = 8;
  std::size_t vcores_per_ecore = 8;
  bool optical = true;  // oPCM VCores (EinsteinBarrier) vs ePCM (TacitMap)
  TechParams tech;
  double hop_latency_ns = 5.0;    // per network hop (tile-local = 1 hop)
  double issue_latency_ns = 1.0;  // ECore decode/steer per instruction
  std::size_t tile_memory_words = 32768;

  [[nodiscard]] std::size_t total_ecores() const {
    return nodes * tiles_per_node * ecores_per_tile;
  }
  [[nodiscard]] std::size_t total_vcores() const {
    return total_ecores() * vcores_per_ecore;
  }
};

// Weight tile loaded into one VCore: `weights` must fit a single crossbar
// (2*cols(weights) <= rows, rows(weights) <= cols of the tech dims).
struct VcoreImage {
  std::size_t ecore = 0;  // global ECore index
  std::size_t vcore = 0;  // VCore index within that ECore
  BitMatrix weights;
};

struct Program {
  std::vector<std::vector<Instruction>> streams;  // one per global ECore
  std::vector<VcoreImage> images;
  // Constant tables: SignV thresholds (imm -> table) and AddTab addends.
  std::vector<std::vector<long long>> tables;
  // Where the result vector lands after the final StoreV.
  std::size_t result_ecore = 0;
  std::uint16_t result_addr = 0;
  std::uint16_t result_len = 0;

  [[nodiscard]] std::size_t instruction_count() const;
};

struct RunResult {
  double latency_ns = 0.0;
  std::size_t instructions = 0;
  std::size_t vmm_ops = 0;
  std::size_t mmm_ops = 0;
  EnergyLedger energy;
  std::vector<long long> output;
};

// One crossbar plus its transmit/receive peripherals.
class VCore {
 public:
  VCore(const MachineConfig& cfg, std::uint64_t seed);

  // Installs a weight tile; keeps per-column weight popcounts for the
  // XnorToAnd digital fix-up.
  void program(const BitMatrix& weights);

  [[nodiscard]] bool programmed() const { return cols_used_ > 0; }
  [[nodiscard]] std::size_t cols_used() const { return cols_used_; }
  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] const std::vector<long long>& weight_popcounts() const {
    return wpc_;
  }

  // Functional XNOR+Popcount of one / many input vectors (the Machine
  // holds an Mmm to one WDM pass: k <= tech.wdm_capacity).
  [[nodiscard]] std::vector<long long> vmm(const BitVec& x) const;
  [[nodiscard]] std::vector<std::vector<long long>> mmm(
      const std::vector<BitVec>& xs) const;

  // Scoreboard timing.
  [[nodiscard]] double vmm_latency_ns(const MachineConfig& cfg) const;
  [[nodiscard]] double mmm_latency_ns(const MachineConfig& cfg,
                                      std::size_t k_used) const;
  double busy_until_ns = 0.0;

 private:
  bool optical_ = false;
  xbar::CrossbarDims dims_{512, 512};
  std::size_t wdm_capacity_ = 16;
  std::size_t m_ = 0;
  std::size_t cols_used_ = 0;
  std::vector<long long> wpc_;
  std::unique_ptr<const map::MappedExecutor> core_;
  mutable Rng rng_;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg);

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }

  // Installs weight images and constant tables; clears prior state.
  void load(const Program& program);

  // Host-side injection into a tile's shared memory (word-addressed,
  // one value per word; bits are stored as 0/1 words).
  void write_memory(std::size_t ecore, std::size_t addr,
                    const std::vector<long long>& values);
  [[nodiscard]] std::vector<long long> read_memory(std::size_t ecore,
                                                   std::size_t addr,
                                                   std::size_t len) const;

  // Executes the loaded program to completion and reports latency,
  // energy, and the result vector.
  [[nodiscard]] RunResult run();

 private:
  struct ECoreState {
    std::size_t pc = 0;
    double time_ns = 0.0;
    bool halted = false;
    bool blocked = false;
    std::vector<BitVec> b;                       // bit slots
    std::vector<std::vector<long long>> v;       // accumulator slots
    std::vector<long long> r;                    // scalars
    std::vector<VCore> vcores;
  };

  [[nodiscard]] std::size_t tile_of(std::size_t ecore) const {
    return ecore / cfg_.ecores_per_tile;
  }
  [[nodiscard]] std::size_t hops_between(std::size_t a, std::size_t b) const;

  // Executes one instruction on core `c`. Returns false if the core is
  // blocked (Recv with no message yet).
  bool step(std::size_t c, RunResult& result);

  MachineConfig cfg_;
  const Program* program_ = nullptr;
  std::vector<ECoreState> cores_;
  std::vector<std::vector<long long>> tile_mem_;  // per tile
  MessageQueue network_;
};

}  // namespace eb::arch
