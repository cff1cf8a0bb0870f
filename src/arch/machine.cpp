#include "arch/machine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"

namespace eb::arch {

namespace {
const dev::NoNoise kNoNoise;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

std::size_t Program::instruction_count() const {
  std::size_t n = 0;
  for (const auto& s : streams) {
    n += s.size();
  }
  return n;
}

// --------------------------------------------------------------- VCore --

VCore::VCore(const MachineConfig& cfg, std::uint64_t seed)
    : optical_(cfg.optical),
      dims_(cfg.tech.dims),
      wdm_capacity_(cfg.tech.wdm_capacity),
      rng_(seed) {}

void VCore::program(const BitMatrix& weights) {
  // TacitMap's [w ; ~w] columns: 2m rows by n columns.
  EB_REQUIRE(2 * weights.cols() <= dims_.rows && weights.rows() <= dims_.cols,
             "VCore weight tile must fit one crossbar");
  m_ = weights.cols();
  cols_used_ = weights.rows();
  wpc_.resize(cols_used_);
  for (std::size_t j = 0; j < cols_used_; ++j) {
    wpc_[j] = static_cast<long long>(weights.row(j).popcount());
  }
  map::MappedExecutorOptions opt;
  opt.xbar_rows = dims_.rows;
  opt.xbar_cols = dims_.cols;
  opt.wdm_capacity = wdm_capacity_;
  opt.seed = rng_.bits64();
  core_ = map::make_mapped_executor(optical_ ? "optical" : "electrical",
                                    weights, opt);
}

std::vector<long long> VCore::vmm(const BitVec& x) const {
  EB_REQUIRE(programmed(), "VCore has no weights loaded");
  const auto pc = core_->execute(x, kNoNoise, rng_);
  return std::vector<long long>(pc.begin(), pc.end());
}

std::vector<std::vector<long long>> VCore::mmm(
    const std::vector<BitVec>& xs) const {
  EB_REQUIRE(programmed(), "VCore has no weights loaded");
  const auto pcs = core_->execute_batch(xs, kNoNoise, rng_);
  std::vector<std::vector<long long>> out(pcs.size());
  for (std::size_t k = 0; k < pcs.size(); ++k) {
    out[k].assign(pcs[k].begin(), pcs[k].end());
  }
  return out;
}

double VCore::vmm_latency_ns(const MachineConfig& cfg) const {
  const auto& t = cfg.tech;
  if (optical_) {
    return t.t_opt_setup_ns + t.t_opt_readout_ns;
  }
  return t.t_dac_settle_ns +
         static_cast<double>(ceil_div(std::max<std::size_t>(cols_used_, 1),
                                      t.adcs_per_xbar)) *
             t.t_adc_ns;
}

double VCore::mmm_latency_ns(const MachineConfig& cfg,
                             std::size_t k_used) const {
  const auto& t = cfg.tech;
  return t.t_opt_setup_ns +
         static_cast<double>(k_used) * t.t_opt_readout_ns;
}

// -------------------------------------------------------------- Machine --

Machine::Machine(MachineConfig cfg) : cfg_(cfg) {
  EB_REQUIRE(cfg_.nodes >= 1 && cfg_.tiles_per_node >= 1 &&
                 cfg_.ecores_per_tile >= 1 && cfg_.vcores_per_ecore >= 1,
             "machine geometry must be positive");
  cores_.resize(cfg_.total_ecores());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    auto& core = cores_[c];
    core.b.resize(16);
    core.v.resize(16);
    core.r.assign(16, 0);
    core.vcores.reserve(cfg_.vcores_per_ecore);
    for (std::size_t v = 0; v < cfg_.vcores_per_ecore; ++v) {
      core.vcores.emplace_back(cfg_, 1000 + c * 97 + v);
    }
  }
  tile_mem_.assign(cfg_.nodes * cfg_.tiles_per_node,
                   std::vector<long long>(cfg_.tile_memory_words, 0));
}

void Machine::load(const Program& program) {
  EB_REQUIRE(program.streams.size() <= cores_.size(),
             "program has more streams than ECores");
  for (const auto& img : program.images) {
    EB_REQUIRE(img.ecore < cores_.size(), "image targets missing ECore");
    EB_REQUIRE(img.vcore < cfg_.vcores_per_ecore,
               "image targets missing VCore");
    cores_[img.ecore].vcores[img.vcore].program(img.weights);
  }
  for (auto& core : cores_) {
    core.pc = 0;
    core.time_ns = 0.0;
    core.halted = false;
    core.blocked = false;
    for (auto& vc : core.vcores) {
      vc.busy_until_ns = 0.0;
    }
  }
  program_ = &program;
}

void Machine::write_memory(std::size_t ecore, std::size_t addr,
                           const std::vector<long long>& values) {
  EB_REQUIRE(ecore < cores_.size(), "no such ECore");
  auto& mem = tile_mem_[tile_of(ecore)];
  EB_REQUIRE(addr + values.size() <= mem.size(), "memory write out of range");
  std::copy(values.begin(), values.end(), mem.begin() + addr);
}

std::vector<long long> Machine::read_memory(std::size_t ecore,
                                            std::size_t addr,
                                            std::size_t len) const {
  EB_REQUIRE(ecore < cores_.size(), "no such ECore");
  const auto& mem = tile_mem_[tile_of(ecore)];
  EB_REQUIRE(addr + len <= mem.size(), "memory read out of range");
  return std::vector<long long>(mem.begin() + addr, mem.begin() + addr + len);
}

std::size_t Machine::hops_between(std::size_t a, std::size_t b) const {
  if (a == b) {
    return 0;
  }
  const std::size_t tile_a = tile_of(a);
  const std::size_t tile_b = tile_of(b);
  if (tile_a == tile_b) {
    return 1;  // shared-memory hop within the tile
  }
  const std::size_t node_a = tile_a / cfg_.tiles_per_node;
  const std::size_t node_b = tile_b / cfg_.tiles_per_node;
  return node_a == node_b ? 2 : 4;  // on-chip network vs chip-to-chip
}

bool Machine::step(std::size_t c, RunResult& result) {
  auto& core = cores_[c];
  const auto& stream = program_->streams[c];
  if (core.pc >= stream.size()) {
    core.halted = true;
    return true;
  }
  const Instruction& ins = stream[core.pc];
  const auto& tech = cfg_.tech;
  auto& mem = tile_mem_[tile_of(c)];
  auto& energy = result.energy;

  auto require_table = [&](std::size_t id) -> const std::vector<long long>& {
    EB_REQUIRE(id < program_->tables.size(), "missing constant table");
    return program_->tables[id];
  };

  core.time_ns += cfg_.issue_latency_ns;
  energy.add("ecore_issue", 0.01);

  switch (ins.op) {
    case Opcode::Nop:
      break;
    case Opcode::Halt:
      core.halted = true;
      break;
    case Opcode::Set:
      core.r[ins.dst] = ins.imm;
      break;
    case Opcode::Mov:
      core.r[ins.dst] = core.r[ins.src1];
      break;
    case Opcode::LoadV: {
      EB_REQUIRE(ins.addr + ins.len <= mem.size(), "LoadV out of range");
      core.v[ins.dst].assign(mem.begin() + ins.addr,
                             mem.begin() + ins.addr + ins.len);
      core.time_ns += static_cast<double>(ins.len) / 32.0;
      energy.add("tile_memory", 0.02 * static_cast<double>(ins.len));
      break;
    }
    case Opcode::StoreV: {
      const auto& v = core.v[ins.src1];
      EB_REQUIRE(v.size() == ins.len, "StoreV length mismatch");
      EB_REQUIRE(ins.addr + ins.len <= mem.size(), "StoreV out of range");
      std::copy(v.begin(), v.end(), mem.begin() + ins.addr);
      core.time_ns += static_cast<double>(ins.len) / 32.0;
      energy.add("tile_memory", 0.02 * static_cast<double>(ins.len));
      break;
    }
    case Opcode::LoadB: {
      EB_REQUIRE(ins.addr + ins.len <= mem.size(), "LoadB out of range");
      BitVec bits(ins.len);
      for (std::size_t i = 0; i < ins.len; ++i) {
        bits.set(i, mem[ins.addr + i] != 0);
      }
      core.b[ins.dst] = std::move(bits);
      core.time_ns += static_cast<double>(ins.len) / 32.0;
      energy.add("tile_memory", 0.02 * static_cast<double>(ins.len));
      break;
    }
    case Opcode::StoreB: {
      const auto& bits = core.b[ins.src1];
      EB_REQUIRE(bits.size() == ins.len, "StoreB length mismatch");
      EB_REQUIRE(ins.addr + ins.len <= mem.size(), "StoreB out of range");
      for (std::size_t i = 0; i < ins.len; ++i) {
        mem[ins.addr + i] = bits.get(i) ? 1 : 0;
      }
      core.time_ns += static_cast<double>(ins.len) / 32.0;
      energy.add("tile_memory", 0.02 * static_cast<double>(ins.len));
      break;
    }
    case Opcode::Vmm: {
      EB_REQUIRE(ins.src2 < core.vcores.size(), "no such VCore");
      auto& vc = core.vcores[ins.src2];
      const BitVec& plane = core.b[ins.src1];
      EB_REQUIRE(ins.addr + ins.len <= plane.size(),
                 "Vmm slice out of the bit slot's range");
      const BitVec x = plane.slice(ins.addr, ins.len);
      const auto pc = vc.vmm(x);
      if (ins.imm & 1) {
        auto& acc = core.v[ins.dst];
        EB_REQUIRE(acc.size() == pc.size(), "Vmm accumulate size mismatch");
        for (std::size_t j = 0; j < pc.size(); ++j) {
          acc[j] += pc[j];
        }
      } else {
        core.v[ins.dst] = pc;
      }
      const double start = std::max(core.time_ns, vc.busy_until_ns);
      vc.busy_until_ns = start + vc.vmm_latency_ns(cfg_);
      ++result.vmm_ops;
      // Per-event energy, same accounting as the analytic CostModel.
      const double cols = static_cast<double>(vc.cols_used());
      const double rows = 2.0 * static_cast<double>(ins.len);
      if (cfg_.optical) {
        energy.add("voa_modulators", fj_to_pj(rows * tech.e_mod_fj));
        energy.add("receiver_adc", cols * tech.e_adc_opt_pj);
      } else {
        energy.add("dac_drivers", fj_to_pj(rows * tech.e_dac_row_fj));
        energy.add("crossbar_cells",
                   fj_to_pj(static_cast<double>(ins.len) * cols *
                            tech.e_cell_read_fj));
        energy.add("adc", cols * tech.e_adc_pj);
      }
      break;
    }
    case Opcode::Mmm: {
      EB_REQUIRE(cfg_.optical, "MMM requires an oPCM machine");
      EB_REQUIRE(ins.src2 < core.vcores.size(), "no such VCore");
      EB_REQUIRE(ins.imm >= 1, "MMM needs k >= 1");
      EB_REQUIRE(ins.imm <= tech.wdm_capacity, "MMM exceeds WDM capacity");
      auto& vc = core.vcores[ins.src2];
      std::vector<BitVec> xs;
      xs.reserve(ins.imm);
      for (std::size_t k = 0; k < ins.imm; ++k) {
        const BitVec& plane = core.b[ins.src1 + k];
        EB_REQUIRE(ins.addr + ins.len <= plane.size(),
                   "Mmm slice out of range");
        xs.push_back(plane.slice(ins.addr, ins.len));
      }
      const auto pcs = vc.mmm(xs);
      for (std::size_t k = 0; k < pcs.size(); ++k) {
        core.v[ins.dst + k] = pcs[k];
      }
      const double start = std::max(core.time_ns, vc.busy_until_ns);
      vc.busy_until_ns = start + vc.mmm_latency_ns(cfg_, ins.imm);
      ++result.mmm_ops;
      const double cols = static_cast<double>(vc.cols_used());
      const double rows = 2.0 * static_cast<double>(ins.len);
      energy.add("voa_modulators",
                 fj_to_pj(rows * tech.e_mod_fj) * ins.imm);
      energy.add("receiver_adc", cols * tech.e_adc_opt_pj * ins.imm);
      break;
    }
    case Opcode::AluV: {
      const auto& a = core.v[ins.src1];
      auto& out = core.v[ins.dst];
      std::vector<long long> res(a.size());
      switch (ins.alu) {
        case AluOp::Add:
        case AluOp::Sub:
        case AluOp::Max: {
          const auto& b = core.v[ins.src2];
          EB_REQUIRE(a.size() == b.size(), "AluV operand size mismatch");
          for (std::size_t j = 0; j < a.size(); ++j) {
            res[j] = ins.alu == AluOp::Add   ? a[j] + b[j]
                     : ins.alu == AluOp::Sub ? a[j] - b[j]
                                             : std::max(a[j], b[j]);
          }
          break;
        }
        case AluOp::ShiftAdd: {
          const auto& b = core.v[ins.src2];
          EB_REQUIRE(a.size() == b.size(), "AluV operand size mismatch");
          for (std::size_t j = 0; j < a.size(); ++j) {
            res[j] = a[j] + (b[j] << ins.imm);
          }
          break;
        }
        case AluOp::ScaleEq1:
          for (std::size_t j = 0; j < a.size(); ++j) {
            res[j] = 2 * a[j] - static_cast<long long>(ins.imm);
          }
          break;
        case AluOp::XnorToAnd: {
          const auto px = static_cast<long long>(
              core.b[ins.imm & 15].popcount());
          const auto& tab = require_table(ins.imm >> 4);
          EB_REQUIRE(tab.size() == a.size(),
                     "XnorToAnd table size mismatch");
          const auto m = static_cast<long long>(ins.len);
          for (std::size_t j = 0; j < a.size(); ++j) {
            const long long num = a[j] + px + tab[j] - m;
            EB_ASSERT(num % 2 == 0, "XnorToAnd parity violated");
            res[j] = num / 2;
          }
          break;
        }
        case AluOp::AddImm:
          for (std::size_t j = 0; j < a.size(); ++j) {
            res[j] = a[j] + static_cast<long long>(ins.imm);
          }
          break;
        case AluOp::AddTab: {
          const auto& tab = require_table(ins.imm);
          EB_REQUIRE(tab.size() == a.size(), "AddTab table size mismatch");
          for (std::size_t j = 0; j < a.size(); ++j) {
            res[j] = a[j] + tab[j];
          }
          break;
        }
      }
      out = std::move(res);
      core.time_ns += static_cast<double>(a.size()) / 64.0;
      energy.add("digital_alu", 0.001 * static_cast<double>(a.size()));
      break;
    }
    case Opcode::SignV: {
      const auto& v = core.v[ins.src1];
      const auto& thr = require_table(ins.imm);
      EB_REQUIRE(thr.size() == v.size(), "SignV threshold size mismatch");
      BitVec bits(v.size());
      for (std::size_t j = 0; j < v.size(); ++j) {
        bits.set(j, v[j] >= thr[j]);
      }
      core.b[ins.dst] = std::move(bits);
      core.time_ns += static_cast<double>(v.size()) / 64.0;
      energy.add("digital_alu", 0.001 * static_cast<double>(v.size()));
      break;
    }
    case Opcode::PlaneB: {
      const auto& v = core.v[ins.src1];
      BitVec bits(v.size());
      for (std::size_t j = 0; j < v.size(); ++j) {
        EB_REQUIRE(v[j] >= 0, "PlaneB requires non-negative activations");
        bits.set(j, (v[j] >> ins.imm) & 1);
      }
      core.b[ins.dst] = std::move(bits);
      core.time_ns += static_cast<double>(v.size()) / 64.0;
      energy.add("digital_alu", 0.001 * static_cast<double>(v.size()));
      break;
    }
    case Opcode::Send: {
      EB_REQUIRE(ins.imm < cores_.size(), "Send to missing core");
      Message m;
      m.from_core = c;
      m.to_core = ins.imm;
      m.payload = core.v[ins.src1];
      m.arrival_ns = core.time_ns +
                     static_cast<double>(hops_between(c, ins.imm)) *
                         cfg_.hop_latency_ns;
      energy.add("network",
                 0.05 * static_cast<double>(m.payload.size()) *
                     static_cast<double>(std::max<std::size_t>(
                         1, hops_between(c, ins.imm))));
      network_.push(std::move(m));
      break;
    }
    case Opcode::Recv: {
      Message m;
      if (!network_.pop_for(c, ins.imm, m)) {
        core.blocked = true;
        core.time_ns -= cfg_.issue_latency_ns;  // retry later
        return false;
      }
      core.blocked = false;
      core.time_ns = std::max(core.time_ns, m.arrival_ns);
      core.v[ins.dst] = std::move(m.payload);
      break;
    }
    case Opcode::Barrier: {
      for (const auto& vc : core.vcores) {
        core.time_ns = std::max(core.time_ns, vc.busy_until_ns);
      }
      break;
    }
  }
  ++core.pc;
  ++result.instructions;
  return true;
}

RunResult Machine::run() {
  EB_REQUIRE(program_ != nullptr, "no program loaded");
  RunResult result;

  bool progress = true;
  while (progress) {
    progress = false;
    bool all_halted = true;
    for (std::size_t c = 0; c < program_->streams.size(); ++c) {
      auto& core = cores_[c];
      if (core.halted) {
        continue;
      }
      all_halted = false;
      // Run the core until it halts or blocks.
      while (!core.halted) {
        if (!step(c, result)) {
          break;  // blocked on Recv
        }
        progress = true;
      }
    }
    if (all_halted) {
      break;
    }
    if (!progress) {
      EB_REQUIRE(false, "machine deadlock: all cores blocked on Recv");
    }
  }

  for (std::size_t c = 0; c < program_->streams.size(); ++c) {
    for (const auto& vc : cores_[c].vcores) {
      cores_[c].time_ns = std::max(cores_[c].time_ns, vc.busy_until_ns);
    }
    result.latency_ns = std::max(result.latency_ns, cores_[c].time_ns);
  }
  if (cfg_.optical) {
    result.energy.add(
        "laser_static",
        static_energy_pj(cfg_.tech.laser_mw, result.latency_ns));
  }
  if (program_->result_len > 0) {
    result.output = read_memory(program_->result_ecore, program_->result_addr,
                                program_->result_len);
  }
  return result;
}

}  // namespace eb::arch
