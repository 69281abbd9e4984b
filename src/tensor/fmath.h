// Float32 transcendentals of the tensor library: one implementation each of
// exp, log, tanh and sigmoid. ops::exp/log/tanh/sigmoid (and so softmax) and
// the per-element references of tests/ops_reference.h call these and nothing
// else does, so every pipeline, tile and thread count computes each element
// with the same IEEE operations and gets the same bits.
//
// Each function is a range reduction plus a fixed polynomial (Cody–Waite exp,
// fdlibm-style log, Cephes-style tanh), branch-free: special values are
// handled with selects, there is no table. Inlined into a row loop, the body
// vectorizes, and the vector body and the scalar tail are the same
// operations. Against the correctly rounded `(float)std::fn((double)x)`, on
// every float, exp, log and tanh are within 1 ulp and sigmoid within 2; NaN,
// ±inf, ±0, the denormal inputs of exp, tanh and sigmoid and the overflow
// and underflow edges of exp give exactly that value (tests/fmath_test.cpp).
//
// The bits depend on evaluating every expression as written: a translation
// unit that includes this header must not contract a*b+c into a fused
// multiply-add (-ffp-contract=off) or reassociate (no -ffast-math).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace tssa::fmath {
namespace detail {

inline std::uint32_t bitsOf(float x) { return std::bit_cast<std::uint32_t>(x); }
inline float fromBits(std::uint32_t b) { return std::bit_cast<float>(b); }
inline float absOf(float x) { return fromBits(bitsOf(x) & 0x7fffffffu); }

/// 2^n for a normal exponent n in [-126, 127].
inline float pow2(std::int32_t n) {
  return fromBits(static_cast<std::uint32_t>(n + 127) << 23);
}

/// e^c for c in [-104, 89] or NaN: the callers clamp only the side their
/// argument can reach. exp(-104) is below half the smallest denormal and
/// exp(89) above FLT_MAX, so a clamp to these bounds changes no result.
inline float expClamped(float c) {
  // c / ln2 + 1.5 * 2^23 rounds c / ln2 to the integer k, which the low
  // mantissa bits of `shifted` then hold: no float -> int conversion, which
  // would be undefined for NaN.
  const float shifted = c * 1.44269504088896341f + 12582912.0f;
  const float k = shifted - 12582912.0f;
  const std::int32_t n = std::bit_cast<std::int32_t>(shifted) - 0x4b400000;
  // r = c - k ln2 in two steps; k * 0.693359375 is exact.
  const float r = (c - k * 0.693359375f) - k * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  // p * 2^k as two exact power-of-two scalings, k in [-150, 128]: a
  // denormal result is rounded once, by the second. A NaN c makes p NaN,
  // whatever the scalings are.
  const std::int32_t half = n >> 1;
  return p * pow2(half) * pow2(n - half);
}

}  // namespace detail

/// e^x. NaN in, NaN out; results beyond the float range are +inf, 0 or a
/// denormal, rounded once.
inline float exp(float x) {
  // NaN fails both comparisons and passes through.
  const float c = x < -104.0f ? -104.0f : x;
  return detail::expClamped(c > 89.0f ? 89.0f : c);
}

/// Natural logarithm. log(±0) = -inf, log(x < 0) = NaN, log(+inf) = +inf.
inline float log(float x) {
  // Denormals are scaled into the normal range first.
  const bool denormal = x < std::numeric_limits<float>::min();
  const std::uint32_t bits =
      detail::bitsOf(x * (denormal ? 8388608.0f : 1.0f));  // 2^23
  // x = 2^k (1 + f) with 1 + f in [sqrt(1/2), sqrt(2)): a mantissa at or
  // above sqrt(2) carries into `up` and takes the exponent of 1/2.
  const std::uint32_t mantissa = bits & 0x007fffffu;
  const std::uint32_t up = (mantissa + 0x004afb20u) & 0x00800000u;
  const float f = detail::fromBits(mantissa | (up ^ 0x3f800000u)) - 1.0f;
  const auto k = static_cast<float>(
      static_cast<std::int32_t>((bits >> 23) + (up >> 23)) -
      (denormal ? 127 + 23 : 127));
  // log(1 + f) = 2 atanh(s), s = f / (2 + f): f - f^2/2 + s (f^2/2 + R(s^2)).
  const float s = f / (2.0f + f);
  const float z = s * s;
  const float w = z * z;
  const float r = z * (6.6666662693e-1f + w * 2.8498786688e-1f) +
                  w * (4.0000972152e-1f + w * 2.4279078841e-1f);
  const float halfSquare = 0.5f * f * f;
  // + k ln2, split so that k * 6.9313812256e-1 is exact.
  const float result =
      k * 6.9313812256e-1f -
      ((halfSquare - (s * (halfSquare + r) + k * 9.0580006145e-6f)) - f);
  // Outside (0, inf): x * inf + inf is inf for +inf and NaN for NaN and
  // for negative x; ±0 gives -inf.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float special = x == 0.0f ? -kInf : x * kInf + kInf;
  return x > 0.0f && x < kInf ? result : special;
}

/// Hyperbolic tangent, computed on |x| with x's sign put back.
inline float tanh(float x) {
  const float a = detail::absOf(x);
  // |x| >= 0.625: 1 - 2 / (e^2|x| + 1), which is 1 once e^2|x| overflows.
  const float twice = a + a;
  const float large =
      1.0f - 2.0f / (detail::expClamped(twice > 89.0f ? 89.0f : twice) + 1.0f);
  const float s = a * a;
  float p = -5.70498872745e-3f;
  p = p * s + 2.06390887954e-2f;
  p = p * s - 5.37397155531e-2f;
  p = p * s + 1.33314422036e-1f;
  p = p * s - 3.33332819422e-1f;
  const float small = p * s * a + a;
  // NaN fails the comparison and propagates through `small`.
  const float t = a >= 0.625f ? large : small;
  const std::uint32_t sign = detail::bitsOf(x) & 0x80000000u;
  return detail::fromBits(detail::bitsOf(t) | sign);
}

/// 1 / (1 + e^-x). For negative x it is e^x / (1 + e^x), which keeps the
/// denormal results below x = -87.3 instead of flushing them to 0.
inline float sigmoid(float x) {
  const float c = -detail::absOf(x);
  const float e = detail::expClamped(c < -104.0f ? -104.0f : c);
  return (x < 0.0f ? e : 1.0f) / (1.0f + e);
}

}  // namespace tssa::fmath
