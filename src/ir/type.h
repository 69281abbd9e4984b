// Static types of IR values.
//
// The reproduction keeps graph-level types deliberately light: a value is a
// Tensor (dtype optionally known, shapes resolved at runtime like
// TorchScript's unshaped `Tensor`), a scalar int/float/bool, or a list of
// tensors. Shape inference is not required by Algorithm 1; the interpreter and
// cost model observe concrete shapes during execution.
//
// Symbolic dimensions (ROADMAP item 3): a tensor type may additionally carry
// per-dimension extents, each either a static integer or a *named symbol*
// with an affine offset (`B`, `T`, `C+1`). Symbols are the capture/guard
// idiom of torch.fx applied here: a graph built against symbolic input types
// is compiled once and serves every concrete shape that binds the symbols
// consistently (the serving engine checks that guard at admission,
// src/serve/engine.cpp). Dims are advisory exactly like dtype — execution
// still observes concrete shapes at run time, and type equality stays
// kind-only, so passes that rebuild values never have to re-derive them.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/support/error.h"
#include "src/tensor/dtype.h"

namespace tssa::ir {

/// One tensor dimension: a static extent, or a named symbol plus an affine
/// offset (value = binding(sym) + offset; decode's mask dim is `C+1`).
struct Dim {
  std::int64_t extent = -1;  ///< static extent; ignored when symbolic
  std::string sym;           ///< symbol name; empty = static
  std::int64_t offset = 0;   ///< added to the symbol's binding

  Dim() = default;
  /*implicit*/ Dim(std::int64_t staticExtent) : extent(staticExtent) {}
  Dim(std::string name, std::int64_t off) : sym(std::move(name)), offset(off) {}

  bool symbolic() const { return !sym.empty(); }

  static Dim symbol(std::string name, std::int64_t offset = 0) {
    return Dim(std::move(name), offset);
  }

  std::string toString() const {
    if (!symbolic()) return std::to_string(extent);
    if (offset == 0) return sym;
    return offset > 0 ? sym + "+" + std::to_string(offset)
                      : sym + std::to_string(offset);
  }

  friend bool operator==(const Dim& a, const Dim& b) {
    if (a.symbolic() != b.symbolic()) return false;
    return a.symbolic() ? a.sym == b.sym && a.offset == b.offset
                        : a.extent == b.extent;
  }
};

enum class TypeKind : std::uint8_t {
  Tensor,
  Int,
  Float,
  Bool,
  TensorList,
  None,
};

/// A value type. Value-semantic and cheap to copy.
class Type {
 public:
  Type() : kind_(TypeKind::None) {}

  static Type tensor() { return Type(TypeKind::Tensor); }
  static Type tensor(DType dtype) {
    Type t(TypeKind::Tensor);
    t.dtype_ = dtype;
    return t;
  }
  /// Dtype-qualified tensor with (possibly symbolic) dims, e.g.
  /// `f32[B,T,32] Tensor`.
  static Type tensor(DType dtype, std::vector<Dim> dims) {
    Type t(TypeKind::Tensor);
    t.dtype_ = dtype;
    t.dims_ = std::move(dims);
    t.hasDims_ = true;
    return t;
  }
  static Type integer() { return Type(TypeKind::Int); }
  static Type floating() { return Type(TypeKind::Float); }
  static Type boolean() { return Type(TypeKind::Bool); }
  static Type tensorList() { return Type(TypeKind::TensorList); }
  static Type none() { return Type(TypeKind::None); }

  TypeKind kind() const { return kind_; }
  bool isTensor() const { return kind_ == TypeKind::Tensor; }
  bool isScalar() const {
    return kind_ == TypeKind::Int || kind_ == TypeKind::Float ||
           kind_ == TypeKind::Bool;
  }
  std::optional<DType> dtype() const { return dtype_; }

  /// Whether the type carries per-dimension extents (a rank-0 tensor with
  /// dims has an empty vector, so a separate flag is needed).
  bool hasDims() const { return hasDims_; }
  const std::vector<Dim>& dims() const { return dims_; }
  bool hasSymbolicDims() const {
    for (const Dim& d : dims_)
      if (d.symbolic()) return true;
    return false;
  }

  std::string toString() const {
    switch (kind_) {
      case TypeKind::Tensor: {
        if (!dtype_) return "Tensor";
        std::string s(dtypeName(*dtype_));
        if (hasDims_) {
          s += "[";
          for (std::size_t i = 0; i < dims_.size(); ++i) {
            if (i) s += ",";
            s += dims_[i].toString();
          }
          s += "]";
        }
        return s + " Tensor";
      }
      case TypeKind::Int:
        return "int";
      case TypeKind::Float:
        return "float";
      case TypeKind::Bool:
        return "bool";
      case TypeKind::TensorList:
        return "Tensor[]";
      case TypeKind::None:
        return "none";
    }
    return "?";
  }

  friend bool operator==(const Type& a, const Type& b) {
    return a.kind_ == b.kind_;  // dtype and dims are advisory
  }

 private:
  explicit Type(TypeKind kind) : kind_(kind) {}

  TypeKind kind_;
  std::optional<DType> dtype_;
  bool hasDims_ = false;
  std::vector<Dim> dims_;
};

inline std::ostream& operator<<(std::ostream& os, const Type& t) {
  return os << t.toString();
}

}  // namespace tssa::ir
