#include "mapping/validator.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace eb::map {

namespace {

void accumulate(ValidationReport& rep,
                const std::vector<std::size_t>& got,
                const std::vector<std::size_t>& want) {
  EB_ASSERT(got.size() == want.size(), "result width mismatch");
  for (std::size_t j = 0; j < got.size(); ++j) {
    ++rep.total_outputs;
    const long long err = static_cast<long long>(got[j]) -
                          static_cast<long long>(want[j]);
    if (err != 0) {
      ++rep.mismatches;
    }
    rep.max_abs_error = std::max(rep.max_abs_error, std::llabs(err));
    rep.mean_abs_error += static_cast<double>(std::llabs(err));
  }
}

void finalize(ValidationReport& rep) {
  if (rep.total_outputs > 0) {
    rep.mean_abs_error /= static_cast<double>(rep.total_outputs);
  }
}

}  // namespace

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << mismatches << "/" << total_outputs << " mismatched outputs"
     << " (rate " << mismatch_rate() << ", max |err| " << max_abs_error
     << ", mean |err| " << mean_abs_error << ")";
  return os.str();
}

ValidationReport validate_mapped(const MappedExecutor& mapped,
                                 const XnorPopcountTask& task,
                                 const dev::NoiseModel& noise, RngStream& rng,
                                 ThreadPool* pool) {
  // Gold results come from the packed batched engine (task.reference()
  // runs one fused XNOR+Popcount GEMM over all windows); the mapped side
  // runs one execute_batch call -- the serving-layer schedule, which every
  // executor guarantees is bit-identical to a serial execute() loop. The
  // optical executor tiles the batch into WDM passes internally.
  const auto gold = task.reference();
  const auto got = mapped.execute_batch(task.inputs, noise, rng, pool);
  ValidationReport rep;
  for (std::size_t i = 0; i < task.inputs.size(); ++i) {
    accumulate(rep, got[i], gold[i]);
  }
  finalize(rep);
  return rep;
}

}  // namespace eb::map
