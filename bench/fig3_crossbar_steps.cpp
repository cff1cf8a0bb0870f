// Regenerates the paper's Fig. 3 / section III claim at the crossbar
// level: CustBinaryMap needs n sequential row activations per input vector
// where TacitMap needs a single VMM -- "up to n x lower execution time
// using the same underlying device".
//
// Sweeps the number of weight vectors n for a fixed 512x512 crossbar and
// prints the step counts plus the resulting step-ratio. The functional
// executors are used (not just formulas), so the table is backed by
// actually-executed mappings that were checked against the gold model;
// the bench exits 1 when any row is not exact.
#include <cstdio>

#include "common/config.hpp"
#include "common/table.hpp"
#include "device/noise.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "mapping/validator.hpp"

int main(int argc, char** argv) {
  using namespace eb;
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t m = static_cast<std::size_t>(cfg.get_int("m", 256));
  Rng rng(7);
  const dev::NoNoise no_noise;

  Table table({"n (weight vectors)", "CustBinaryMap steps", "TacitMap steps",
               "step ratio", "both exact vs gold"});
  bool all_exact = true;

  for (const std::size_t n : {8u, 32u, 64u, 128u, 256u, 512u}) {
    const auto task = map::XnorPopcountTask::random(m, n, 2, rng);

    const map::CustBinaryMap cust(task.weights, map::CustBinaryConfig{});
    const map::TacitMapElectrical tacit(task.weights,
                                        map::TacitElectricalConfig{});

    Rng vrng(11);
    const bool cust_ok =
        map::validate_mapped(cust, task, no_noise, vrng).exact();
    const bool tacit_ok =
        map::validate_mapped(tacit, task, no_noise, vrng).exact();
    all_exact = all_exact && cust_ok && tacit_ok;

    const std::size_t cust_steps = cust.steps_per_input();
    const std::size_t tacit_steps = map::TacitMapElectrical::steps_per_input();
    table.add_row({std::to_string(n), std::to_string(cust_steps),
                   std::to_string(tacit_steps),
                   Table::num(static_cast<double>(cust_steps) /
                                  static_cast<double>(tacit_steps),
                              0),
                   (cust_ok && tacit_ok) ? "yes" : "NO"});
  }

  std::puts("== Figure 3 / Section III: per-crossbar step counts ==");
  std::printf("vector length m = %zu, crossbar 512x512\n", m);
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nPaper claim: TacitMap needs 1 VMM step; CustBinaryMap needs n"
            " sequential row activations (up to n x, here up to 512 x).");
  return all_exact ? 0 : 1;
}
