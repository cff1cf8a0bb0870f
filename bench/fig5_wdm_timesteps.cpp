// Regenerates the paper's Fig. 5 scenario: processing multiple activation
// vectors against the same TacitMap-mapped kernels takes one time step per
// vector on an ePCM crossbar (T1, T2, T3...) but a single WDM step on an
// oPCM crossbar, up to the WDM capacity K.
//
// The table sweeps the number of activation vectors and reports the time
// steps each technology needs, executed functionally on the crossbar
// models (results checked against the gold XNOR+Popcounts; the bench
// exits 1 when any row is not exact).
#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "device/noise.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"

int main(int argc, char** argv) {
  using namespace eb;
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t k = static_cast<std::size_t>(cfg.get_int("k", 16));
  Rng rng(5);
  const dev::NoNoise no_noise;

  Table table({"activation vectors", "ePCM VMM steps", "oPCM MMM steps (K=" +
                   std::to_string(k) + ")",
               "WDM advantage", "exact vs gold"});
  bool all_exact = true;

  for (const std::size_t vectors : {1u, 2u, 3u, 8u, 16u, 32u, 64u}) {
    const auto task = map::XnorPopcountTask::random(64, 3, vectors, rng);
    const auto gold = task.reference();

    map::TacitElectricalConfig ecfg;
    ecfg.dims = {256, 256};
    const map::TacitMapElectrical epcm(task.weights, ecfg);

    map::TacitOpticalConfig ocfg;
    ocfg.dims = {256, 256};
    ocfg.wdm_capacity = k;
    const map::TacitMapOptical opcm(task.weights, ocfg);

    // ePCM: one VMM per activation vector (paper Fig. 5-(a): T1..Tn).
    bool exact = true;
    std::size_t epcm_steps = 0;
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      const auto got = epcm.execute(task.inputs[i], no_noise, rng);
      exact = exact && (got == gold[i]);
      ++epcm_steps;
    }

    // oPCM: WDM batches of up to K vectors per step (Fig. 5-(b): T1).
    std::size_t opcm_steps = 0;
    for (std::size_t i = 0; i < task.inputs.size();) {
      const std::size_t batch = std::min(k, task.inputs.size() - i);
      const std::vector<BitVec> inputs(task.inputs.begin() + i,
                                       task.inputs.begin() + i + batch);
      const auto got = opcm.execute_batch(inputs, no_noise, rng);
      for (std::size_t j = 0; j < batch; ++j) {
        exact = exact && (got[j] == gold[i + j]);
      }
      i += batch;
      ++opcm_steps;
    }

    table.add_row({std::to_string(vectors), std::to_string(epcm_steps),
                   std::to_string(opcm_steps),
                   Table::num(static_cast<double>(epcm_steps) /
                                  static_cast<double>(opcm_steps),
                              1),
                   exact ? "yes" : "NO"});
    all_exact = all_exact && exact;
  }

  std::puts("== Figure 5: WDM time steps, ePCM vs oPCM TacitMap core ==");
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nPaper: 3 activation vectors need T1..T3 on ePCM but only T1"
              " on oPCM; K = %zu gives a theoretical %zux ceiling.\n",
              k, k);
  return all_exact ? 0 : 1;
}
