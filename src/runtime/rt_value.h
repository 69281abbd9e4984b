// Runtime values flowing through the interpreter.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "src/support/error.h"
#include "src/tensor/scalar.h"
#include "src/tensor/tensor.h"

namespace tssa::runtime {

/// A runtime value: a tensor, a Python-level scalar, or a list of tensors.
class RtValue {
 public:
  RtValue() : value_(Scalar(std::int64_t{0})) {}
  RtValue(Tensor t) : value_(std::move(t)) {}            // NOLINT
  RtValue(Scalar s) : value_(s) {}                       // NOLINT
  RtValue(std::vector<Tensor> l) : value_(std::move(l)) {}  // NOLINT
  RtValue(std::int64_t v) : value_(Scalar(v)) {}         // NOLINT
  RtValue(double v) : value_(Scalar(v)) {}               // NOLINT
  RtValue(bool v) : value_(Scalar(v)) {}                 // NOLINT

  bool isTensor() const { return std::holds_alternative<Tensor>(value_); }
  bool isScalar() const { return std::holds_alternative<Scalar>(value_); }
  bool isList() const {
    return std::holds_alternative<std::vector<Tensor>>(value_);
  }

  const Tensor& tensor() const {
    const Tensor* t = std::get_if<Tensor>(&value_);
    TSSA_CHECK(t != nullptr, "runtime value is not a tensor");
    return *t;
  }
  Tensor& tensor() {
    Tensor* t = std::get_if<Tensor>(&value_);
    TSSA_CHECK(t != nullptr, "runtime value is not a tensor");
    return *t;
  }
  Scalar scalar() const {
    const Scalar* s = std::get_if<Scalar>(&value_);
    TSSA_CHECK(s != nullptr, "runtime value is not a scalar");
    return *s;
  }
  const std::vector<Tensor>& list() const {
    const auto* l = std::get_if<std::vector<Tensor>>(&value_);
    TSSA_CHECK(l != nullptr, "runtime value is not a list");
    return *l;
  }
  std::vector<Tensor>& list() {
    auto* l = std::get_if<std::vector<Tensor>>(&value_);
    TSSA_CHECK(l != nullptr, "runtime value is not a list");
    return *l;
  }

  std::int64_t toInt() const { return scalar().toInt(); }
  bool toBool() const { return scalar().toBool(); }
  double toDouble() const { return scalar().toDouble(); }

 private:
  std::variant<Tensor, Scalar, std::vector<Tensor>> value_;
};

/// What a value tuple's metadata-only consumers (a run's price, a fused
/// body's tile plan) depend on, flattened for comparison: per value its
/// kind, then tensor dtype and sizes, the scalar's bits, or the list's item
/// metas.
inline std::vector<std::int64_t> signatureOf(std::span<const RtValue> inputs) {
  std::vector<std::int64_t> sig;
  auto addTensor = [&sig](const Tensor& t) {
    sig.push_back(static_cast<std::int64_t>(t.dtype()));
    sig.push_back(t.dim());
    sig.insert(sig.end(), t.sizes().begin(), t.sizes().end());
  };
  for (const RtValue& v : inputs) {
    if (v.isTensor()) {
      sig.push_back(0);
      addTensor(v.tensor());
    } else if (v.isScalar()) {
      const Scalar s = v.scalar();
      sig.push_back(s.isFloat() ? 1 : s.isInt() ? 2 : 3);
      sig.push_back(s.isFloat() ? std::bit_cast<std::int64_t>(s.toDouble())
                                : s.toInt());
    } else {
      sig.push_back(4);
      sig.push_back(static_cast<std::int64_t>(v.list().size()));
      for (const Tensor& t : v.list()) addTensor(t);
    }
  }
  return sig;
}

}  // namespace tssa::runtime
