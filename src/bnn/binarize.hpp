// Binarization helpers -- paper Eq. 1.
//
// BNN values live in {-1,+1}; storage/compute uses the {0,1} encoding
// (bit = 1 iff value = +1). Equation 1 of the paper relates the two:
//
//     x (*) w  =  2 * popcount(x' XNOR w') - L
//
// where x', w' are the {0,1} encodings and L the vector length. The
// BitVec::signed_dot kernel implements the right-hand side; the helpers
// here convert tensors to packed bit vectors and back.
#pragma once

#include "bnn/tensor.hpp"
#include "common/bitvec.hpp"

namespace eb::bnn {

// sign(x) in {-1,+1}; sign(0) := +1 (the usual BNN convention, keeps the
// encoding total).
[[nodiscard]] inline double sign_pm1(double x) { return x >= 0.0 ? 1.0 : -1.0; }

// Binarize a tensor element-wise into the packed {0,1} encoding:
// bit i = 1 iff t[i] >= 0.
[[nodiscard]] BitVec binarize(const Tensor& t);

// Expand a packed bit vector back into a {-1,+1} tensor of the given shape.
[[nodiscard]] Tensor to_signed_tensor(const BitVec& bits,
                                      std::vector<std::size_t> shape);

// Reference check of Eq. 1: naive {-1,+1} dot product. Used by tests to
// pin the packed kernel against first principles.
[[nodiscard]] long long naive_signed_dot(const std::vector<double>& a,
                                         const std::vector<double>& b);

}  // namespace eb::bnn
