// Dense numeric tensor (row-major, double precision).
//
// The functional BNN path only needs small models (MLPs, LeNet-class CNNs),
// so a straightforward shape + flat-vector tensor is the right tool; the
// performance models never allocate tensors at all (they work on
// bnn::LayerSpec shapes).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace eb::bnn {

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<std::size_t> shape);
  // Takes ownership of `data`, the row-major elements of `shape`.
  Tensor(std::vector<std::size_t> shape, std::vector<double> data);

  // Convenience constructors.
  [[nodiscard]] static Tensor zeros(std::vector<std::size_t> shape);
  [[nodiscard]] static Tensor full(std::vector<std::size_t> shape, double v);
  // Uniform in [-scale, scale] -- standard BNN latent-weight init.
  [[nodiscard]] static Tensor random_uniform(std::vector<std::size_t> shape,
                                             double scale, Rng& rng);

  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const;

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  [[nodiscard]] double& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] double operator[](std::size_t i) const { return data_[i]; }

  // Multi-dimensional accessors (bounds-checked).
  [[nodiscard]] double& at(std::initializer_list<std::size_t> idx);
  [[nodiscard]] double at(std::initializer_list<std::size_t> idx) const;

  // Reshape without copying; product of dims must match size().
  void reshape(std::vector<std::size_t> shape);

  // Moves the row-major elements out, leaving an empty rank-0 tensor
  // (how a layer adopts its weight buffer without copying it).
  [[nodiscard]] std::vector<double> release() &&;

  [[nodiscard]] std::string shape_string() const;

 private:
  [[nodiscard]] std::size_t flat_index(
      std::initializer_list<std::size_t> idx) const;

  std::vector<std::size_t> shape_;
  std::vector<double> data_;
};

// argmax over a flat tensor (classification readout).
[[nodiscard]] std::size_t argmax(const Tensor& t);

}  // namespace eb::bnn
