#include "mapping/executor.hpp"

#include <utility>

#include "common/error.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/tacitmap.hpp"

namespace eb::map {

std::vector<std::size_t> MappedExecutor::execute(const BitVec& x,
                                                 const dev::NoiseModel& noise,
                                                 RngStream& rng,
                                                 ThreadPool* pool) const {
  return std::move(execute_batch({&x, 1}, noise, rng, pool).front());
}

void MappedExecutor::set_drift(const dev::DriftModel& /*model*/,
                               double /*t_s*/,
                               const RngStream& /*base*/) const {}

void MappedExecutor::clear_drift() const {}

const std::vector<std::string>& mapped_backend_names() {
  static const std::vector<std::string> names{"electrical", "optical",
                                             "cust"};
  return names;
}

std::unique_ptr<MappedExecutor> make_mapped_executor(
    const std::string& backend, const BitMatrix& weights,
    const MappedExecutorOptions& opt) {
  if (backend == "electrical") {
    TacitElectricalConfig cfg;
    cfg.dims = {opt.xbar_rows, opt.xbar_cols};
    if (opt.seed != 0) {
      cfg.seed = opt.seed;
    }
    return std::make_unique<TacitMapElectrical>(weights, cfg);
  }
  if (backend == "optical") {
    TacitOpticalConfig cfg;
    cfg.dims = {opt.xbar_rows, opt.xbar_cols};
    cfg.wdm_capacity = opt.wdm_capacity;
    if (opt.seed != 0) {
      cfg.seed = opt.seed;
    }
    return std::make_unique<TacitMapOptical>(weights, cfg);
  }
  if (backend == "cust") {
    CustBinaryConfig cfg;
    cfg.rows = opt.xbar_rows;
    cfg.pairs = opt.xbar_cols / 2;  // 2T2R: two devices per logical pair
    if (opt.seed != 0) {
      cfg.seed = opt.seed;
    }
    return std::make_unique<CustBinaryMap>(weights, cfg);
  }
  EB_REQUIRE(false, "unknown mapped backend '" + backend +
                        "' (expected electrical|optical|cust)");
  return nullptr;  // unreachable
}

}  // namespace eb::map
