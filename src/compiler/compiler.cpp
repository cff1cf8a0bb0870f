#include "compiler/compiler.hpp"

#include <cmath>

#include "bnn/binarize.hpp"
#include "bnn/layers.hpp"
#include "common/error.hpp"

namespace eb::comp {

namespace {

constexpr std::size_t kRegionWords = 2048;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// The Dense-network pattern the compiler accepts:
//   Dense(int8) BN Sign [BinaryDense BN Sign]+ Dense(int8)
struct ParsedMlp {
  const bnn::DenseLayer* first = nullptr;
  const bnn::BatchNormLayer* first_bn = nullptr;
  struct Hidden {
    const bnn::BinaryDenseLayer* fc = nullptr;
    const bnn::BatchNormLayer* bn = nullptr;
  };
  std::vector<Hidden> hidden;
  const bnn::DenseLayer* last = nullptr;
};

ParsedMlp parse(const bnn::Network& net) {
  ParsedMlp p;
  std::size_t i = 0;
  const std::size_t count = net.layer_count();
  auto as_dense = [&](std::size_t j) {
    return dynamic_cast<const bnn::DenseLayer*>(&net.layer(j));
  };
  auto as_binary = [&](std::size_t j) {
    return dynamic_cast<const bnn::BinaryDenseLayer*>(&net.layer(j));
  };
  auto as_bn = [&](std::size_t j) {
    return dynamic_cast<const bnn::BatchNormLayer*>(&net.layer(j));
  };
  auto as_sign = [&](std::size_t j) {
    return dynamic_cast<const bnn::SignLayer*>(&net.layer(j));
  };

  EB_REQUIRE(count >= 5, "network too small for the MLP pattern");
  p.first = as_dense(i);
  EB_REQUIRE(p.first != nullptr, "expected a Dense input layer");
  ++i;
  p.first_bn = as_bn(i);
  EB_REQUIRE(p.first_bn != nullptr, "expected BatchNorm after input layer");
  ++i;
  EB_REQUIRE(as_sign(i) != nullptr, "expected Sign after input BatchNorm");
  ++i;

  while (i + 1 < count) {
    const auto* fc = as_binary(i);
    if (fc == nullptr) {
      break;
    }
    ++i;
    const auto* bn = as_bn(i);
    EB_REQUIRE(bn != nullptr, "expected BatchNorm after BinaryDense");
    ++i;
    EB_REQUIRE(as_sign(i) != nullptr, "expected Sign after hidden BatchNorm");
    ++i;
    p.hidden.push_back({fc, bn});
  }
  EB_REQUIRE(!p.hidden.empty(), "network has no binarized hidden layers");
  EB_REQUIRE(i + 1 == count, "unexpected layers after the hidden chain");
  p.last = as_dense(i);
  EB_REQUIRE(p.last != nullptr, "expected a Dense output layer");
  return p;
}

}  // namespace

MlpCompiler::MlpCompiler(arch::MachineConfig cfg) : cfg_(cfg) {}

CompiledMlp MlpCompiler::compile(const bnn::Network& net,
                                 std::size_t batch) const {
  EB_REQUIRE(batch >= 1 && batch <= 4, "batch must be in [1, 4]");
  EB_REQUIRE(batch == 1 || cfg_.optical,
             "WDM batching requires an optical machine");
  const ParsedMlp parsed = parse(net);

  CompiledMlp out;
  out.batch = batch;

  const std::size_t chunk_bits = cfg_.tech.dims.rows / 2;
  const std::size_t max_cols = cfg_.tech.dims.cols;

  // Region layout: bits of layer boundary l, sample s live at
  // (l*batch + s) * kRegionWords in tile 0's shared memory.
  const std::size_t boundaries = parsed.hidden.size() + 1;
  EB_REQUIRE(boundaries * batch * kRegionWords <= cfg_.tile_memory_words,
             "tile memory too small for this network/batch");
  auto region = [&](std::size_t boundary, std::size_t s) {
    return (boundary * batch + s) * kRegionWords;
  };

  out.input_bits = parsed.hidden.front().fc->weights().cols();
  out.output_bits = parsed.hidden.back().fc->weights().rows();
  for (const auto& h : parsed.hidden) {
    EB_REQUIRE(h.fc->weights().cols() <= kRegionWords &&
                   h.fc->weights().rows() <= kRegionWords,
               "layer boundary wider than a tile-memory region");
  }
  out.input_region = region(0, 0);
  out.output_region = region(parsed.hidden.size(), 0);
  out.region_stride = kRegionWords;

  arch::Program& prog = out.program;
  prog.streams.resize(cfg_.total_ecores());

  std::size_t next_ecore = 0;
  std::vector<std::size_t> prev_layer_ecores;

  for (std::size_t l = 0; l < parsed.hidden.size(); ++l) {
    const auto& [fc, bn] = parsed.hidden[l];
    const BitMatrix& w = fc->weights();
    const std::size_t m = w.cols();
    const std::size_t n = w.rows();
    EB_REQUIRE(m <= out.input_bits || l > 0, "layer width bookkeeping");

    const std::size_t chunks = ceil_div(m, chunk_bits);
    const std::size_t col_tiles = ceil_div(n, max_cols);
    EB_REQUIRE(chunks <= cfg_.vcores_per_ecore,
               "layer " + std::to_string(l) +
                   " needs more m-chunks than VCores per ECore");
    EB_REQUIRE(next_ecore + col_tiles <= cfg_.ecores_per_tile,
               "network needs more ECores than one tile provides");

    const auto fold = bn->fold_to_thresholds();
    // The ECore Sign opcode only compares y >= t; a flipped (gamma < 0)
    // channel has no ISA encoding, so reject it here instead of emitting
    // a silently wrong program. Trained exports clamp gamma > 0.
    EB_REQUIRE(!fold.any_flip(),
               "compiler threshold tables require gamma > 0 in " +
                   bn->name());
    const auto& thresholds = fold.thr;

    CompiledLayerInfo info;
    info.m = m;
    info.n = n;
    info.col_tiles = col_tiles;
    info.chunks = chunks;
    info.in_region = region(l, 0);
    info.out_region = region(l + 1, 0);
    out.layers.push_back(info);

    std::vector<std::size_t> layer_ecores;
    for (std::size_t c = 0; c < col_tiles; ++c) {
      const std::size_t ecore = next_ecore++;
      layer_ecores.push_back(ecore);
      auto& stream = prog.streams[ecore];

      const std::size_t col_begin = c * max_cols;
      const std::size_t n_tile = std::min(max_cols, n - col_begin);

      // Weight images: one m-chunk per VCore.
      for (std::size_t k = 0; k < chunks; ++k) {
        const std::size_t bit_begin = k * chunk_bits;
        const std::size_t bits = std::min(chunk_bits, m - bit_begin);
        BitMatrix tile(n_tile, bits);
        for (std::size_t r = 0; r < n_tile; ++r) {
          tile.set_row(r, w.row(col_begin + r).slice(bit_begin, bits));
        }
        arch::VcoreImage img;
        img.ecore = ecore;
        img.vcore = k;
        img.weights = std::move(tile);
        prog.images.push_back(std::move(img));
      }

      // Threshold table for this column tile.
      std::vector<long long> table(n_tile);
      for (std::size_t r = 0; r < n_tile; ++r) {
        table[r] =
            static_cast<long long>(std::ceil(thresholds[col_begin + r]));
      }
      const std::size_t table_id = prog.tables.size();
      prog.tables.push_back(std::move(table));

      // Ordering tokens from every producer of the previous layer.
      for (const std::size_t producer : prev_layer_ecores) {
        arch::Instruction recv;
        recv.op = arch::Opcode::Recv;
        recv.dst = 15;
        recv.imm = static_cast<std::uint16_t>(producer);
        stream.push_back(recv);
      }

      // Load the input bits of each sample in the batch.
      for (std::size_t s = 0; s < batch; ++s) {
        arch::Instruction loadb;
        loadb.op = arch::Opcode::LoadB;
        loadb.dst = static_cast<std::uint8_t>(s);
        loadb.addr = static_cast<std::uint16_t>(region(l, s));
        loadb.len = static_cast<std::uint16_t>(m);
        stream.push_back(loadb);
      }

      // Crossbar passes over the m-chunks.
      for (std::size_t k = 0; k < chunks; ++k) {
        const std::size_t bit_begin = k * chunk_bits;
        const std::size_t bits = std::min(chunk_bits, m - bit_begin);
        if (batch == 1) {
          arch::Instruction vmm;
          vmm.op = arch::Opcode::Vmm;
          vmm.dst = 0;
          vmm.src1 = 0;
          vmm.src2 = static_cast<std::uint8_t>(k);
          vmm.imm = (k == 0) ? 0 : 1;  // accumulate partial popcounts
          vmm.addr = static_cast<std::uint16_t>(bit_begin);
          vmm.len = static_cast<std::uint16_t>(bits);
          stream.push_back(vmm);
        } else {
          arch::Instruction mmm;
          mmm.op = arch::Opcode::Mmm;
          mmm.dst = 8;  // temporaries v8..v8+batch-1
          mmm.src1 = 0;
          mmm.src2 = static_cast<std::uint8_t>(k);
          mmm.imm = static_cast<std::uint16_t>(batch);
          mmm.addr = static_cast<std::uint16_t>(bit_begin);
          mmm.len = static_cast<std::uint16_t>(bits);
          stream.push_back(mmm);
          for (std::size_t s = 0; s < batch; ++s) {
            arch::Instruction acc;
            acc.op = arch::Opcode::AluV;
            if (k == 0) {
              acc.alu = arch::AluOp::AddImm;  // copy: v[s] = v[8+s] + 0
              acc.dst = static_cast<std::uint8_t>(s);
              acc.src1 = static_cast<std::uint8_t>(8 + s);
              acc.imm = 0;
            } else {
              acc.alu = arch::AluOp::Add;
              acc.dst = static_cast<std::uint8_t>(s);
              acc.src1 = static_cast<std::uint8_t>(s);
              acc.src2 = static_cast<std::uint8_t>(8 + s);
            }
            stream.push_back(acc);
          }
        }
      }

      arch::Instruction barrier;
      barrier.op = arch::Opcode::Barrier;
      stream.push_back(barrier);

      // Eq. 1 affine + BN/Sign threshold + store, per sample.
      for (std::size_t s = 0; s < batch; ++s) {
        arch::Instruction scale;
        scale.op = arch::Opcode::AluV;
        scale.alu = arch::AluOp::ScaleEq1;
        scale.dst = static_cast<std::uint8_t>(s);
        scale.src1 = static_cast<std::uint8_t>(s);
        scale.imm = static_cast<std::uint16_t>(m);
        stream.push_back(scale);

        arch::Instruction sign;
        sign.op = arch::Opcode::SignV;
        sign.dst = 4;
        sign.src1 = static_cast<std::uint8_t>(s);
        sign.imm = static_cast<std::uint16_t>(table_id);
        stream.push_back(sign);

        arch::Instruction storeb;
        storeb.op = arch::Opcode::StoreB;
        storeb.src1 = 4;
        storeb.addr =
            static_cast<std::uint16_t>(region(l + 1, s) + col_begin);
        storeb.len = static_cast<std::uint16_t>(n_tile);
        stream.push_back(storeb);
      }
    }

    prev_layer_ecores = layer_ecores;

    // Producers signal the next layer (tokens are wired up on the next
    // iteration; the last layer sends nothing).
    if (l + 1 < parsed.hidden.size()) {
      // Peek the next layer's tile count to know the consumers.
      const std::size_t next_tiles =
          ceil_div(parsed.hidden[l + 1].fc->weights().rows(), max_cols);
      for (const std::size_t producer : layer_ecores) {
        for (std::size_t t = 0; t < next_tiles; ++t) {
          arch::Instruction send;
          send.op = arch::Opcode::Send;
          send.src1 = 14;  // empty token payload
          send.imm = static_cast<std::uint16_t>(next_ecore + t);
          prog.streams[producer].push_back(send);
        }
      }
    }
  }

  for (auto& stream : prog.streams) {
    if (!stream.empty()) {
      arch::Instruction halt;
      halt.op = arch::Opcode::Halt;
      stream.push_back(halt);
    }
  }
  prog.result_ecore = 0;
  prog.result_addr = static_cast<std::uint16_t>(out.output_region);
  prog.result_len = static_cast<std::uint16_t>(out.output_bits);
  return out;
}

MlpRun run_mlp_on_machine(arch::Machine& machine, const CompiledMlp& compiled,
                          const bnn::Network& net,
                          const std::vector<bnn::Tensor>& inputs) {
  EB_REQUIRE(inputs.size() == compiled.batch,
             "input count must equal the compiled batch size");
  const ParsedMlp parsed = parse(net);

  machine.load(compiled.program);

  // Host side: input layer + BN + Sign produce the binary core input.
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const bnn::Tensor pre = parsed.first->forward(inputs[s]);
    const bnn::Tensor bn = parsed.first_bn->forward(pre);
    const BitVec bits = bnn::binarize(bn);
    EB_REQUIRE(bits.size() == compiled.input_bits,
               "input layer output width mismatch");
    std::vector<long long> words(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      words[i] = bits.get(i) ? 1 : 0;
    }
    machine.write_memory(0,
                         compiled.input_region + s * compiled.region_stride,
                         words);
  }

  MlpRun run;
  run.stats = machine.run();

  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const auto words = machine.read_memory(
        0, compiled.output_region + s * compiled.region_stride,
        compiled.output_bits);
    BitVec bits(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      bits.set(i, words[i] != 0);
    }
    // Host side: final higher-precision layer on the +/-1 activations.
    const bnn::Tensor acts = bnn::to_signed_tensor(bits, {bits.size()});
    const bnn::Tensor logits = parsed.last->forward(acts);
    run.predictions.push_back(bnn::argmax(logits));
    run.core_output_bits.push_back(std::move(bits));
  }
  return run;
}

}  // namespace eb::comp
