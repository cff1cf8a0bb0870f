#include "bnn/tensor.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace eb::bnn {

namespace {
std::size_t shape_product(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (auto d : shape) {
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_product(shape_), 0.0) {
  EB_REQUIRE(!shape_.empty(), "tensor rank must be >= 1");
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<double> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  EB_REQUIRE(!shape_.empty(), "tensor rank must be >= 1");
  EB_REQUIRE(shape_product(shape_) == data_.size(),
             "tensor data size must match its shape");
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<std::size_t> shape, double v) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) {
    x = v;
  }
  return t;
}

Tensor Tensor::random_uniform(std::vector<std::size_t> shape, double scale,
                              Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data_) {
    x = rng.uniform(-scale, scale);
  }
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  EB_REQUIRE(i < shape_.size(), "dimension index out of range");
  return shape_[i];
}

std::size_t Tensor::flat_index(std::initializer_list<std::size_t> idx) const {
  EB_REQUIRE(idx.size() == shape_.size(),
             "index rank must match tensor rank");
  std::size_t flat = 0;
  std::size_t d = 0;
  for (auto i : idx) {
    EB_REQUIRE(i < shape_[d], "index out of range");
    flat = flat * shape_[d] + i;
    ++d;
  }
  return flat;
}

double& Tensor::at(std::initializer_list<std::size_t> idx) {
  return data_[flat_index(idx)];
}

double Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flat_index(idx)];
}

void Tensor::reshape(std::vector<std::size_t> shape) {
  EB_REQUIRE(shape_product(shape) == data_.size(),
             "reshape must preserve element count");
  shape_ = std::move(shape);
}

std::vector<double> Tensor::release() && {
  shape_.clear();
  return std::exchange(data_, {});
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    os << (i ? "," : "") << shape_[i];
  }
  os << ']';
  return os.str();
}

std::size_t argmax(const Tensor& t) {
  EB_REQUIRE(t.size() > 0, "argmax of empty tensor");
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] > t[best]) {
      best = i;
    }
  }
  return best;
}

}  // namespace eb::bnn
