#include "common/fixed_point.h"

#include <cmath>
#include <limits>

#include "common/contracts.h"

namespace us3d::fx {

namespace {

constexpr int kMaxWordBits = 62;  // headroom below int64_t to avoid UB

std::int64_t saturate_or_wrap(std::int64_t raw, const Format& fmt,
                              Overflow overflow) {
  const std::int64_t lo = fmt.min_raw();
  const std::int64_t hi = fmt.max_raw();
  if (raw >= lo && raw <= hi) return raw;
  switch (overflow) {
    case Overflow::kSaturate:
      return saturate_raw(raw, lo, hi);
    case Overflow::kWrap: {
      // Two's-complement wrap over total_bits, then sign-extend if signed.
      const int bits = fmt.total_bits();
      const std::uint64_t mask = (bits >= 64)
                                     ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1} << bits) - 1);
      std::uint64_t u = static_cast<std::uint64_t>(raw) & mask;
      if (fmt.is_signed && bits < 64 &&
          (u & (std::uint64_t{1} << (bits - 1))) != 0) {
        u |= ~mask;  // sign extension
      }
      return static_cast<std::int64_t>(u);
    }
    case Overflow::kThrow:
      throw ContractViolation("fixed-point overflow in format " +
                              fmt.to_string());
  }
  return raw;  // unreachable
}

/// Rounds raw * 2^-shift to an integer word, shift >= 0.
std::int64_t shift_right_rounded(std::int64_t raw, int shift,
                                 Rounding rounding) {
  if (shift == 0) return raw;
  US3D_EXPECTS(shift > 0 && shift < 63);
  const std::int64_t half = (std::int64_t{1} << shift) >> 1;
  switch (rounding) {
    case Rounding::kFloor:
      return raw >> shift;  // arithmetic shift: toward -inf
    case Rounding::kTruncate:
      return raw >= 0 ? (raw >> shift) : -((-raw) >> shift);
    case Rounding::kHalfUp:
      return shift_right_half_up(raw, shift);
    case Rounding::kHalfEven: {
      std::int64_t q = raw >> shift;            // floor
      const std::int64_t rem = raw - (q << shift);  // in [0, 2^shift)
      if (rem > half || (rem == half && (q & 1) != 0)) ++q;
      return q;
    }
  }
  return raw >> shift;  // unreachable
}

}  // namespace

double Format::scale() const { return std::ldexp(1.0, -fraction_bits); }

std::int64_t Format::min_raw() const {
  if (!is_signed) return 0;
  const int bits = integer_bits + fraction_bits;
  US3D_EXPECTS(bits <= kMaxWordBits);
  return -(std::int64_t{1} << bits);
}

std::int64_t Format::max_raw() const {
  const int bits = integer_bits + fraction_bits;
  US3D_EXPECTS(bits <= kMaxWordBits);
  return (std::int64_t{1} << bits) - 1;
}

double Format::min_real() const {
  return static_cast<double>(min_raw()) * scale();
}

double Format::max_real() const {
  return static_cast<double>(max_raw()) * scale();
}

double Format::lsb() const { return scale(); }

std::string Format::to_string() const {
  return std::string(is_signed ? "sQ" : "uQ") + std::to_string(integer_bits) +
         "." + std::to_string(fraction_bits) + " (" +
         std::to_string(total_bits()) + "b)";
}

Value Value::from_real(double real, const Format& fmt, Rounding rounding,
                       Overflow overflow) {
  US3D_EXPECTS(std::isfinite(real));
  US3D_EXPECTS(fmt.integer_bits >= 0 && fmt.fraction_bits >= 0);
  US3D_EXPECTS(fmt.integer_bits + fmt.fraction_bits <= kMaxWordBits);
  const double scaled = std::ldexp(real, fmt.fraction_bits);
  const std::int64_t raw = round_real_to_int(scaled, rounding);
  return Value(saturate_or_wrap(raw, fmt, overflow), fmt);
}

Value Value::from_raw(std::int64_t raw, const Format& fmt) {
  US3D_EXPECTS(raw >= fmt.min_raw() && raw <= fmt.max_raw());
  return Value(raw, fmt);
}

double Value::to_real() const {
  return static_cast<double>(raw_) * fmt_.scale();
}

Value Value::rescaled(const Format& target, Rounding rounding,
                      Overflow overflow) const {
  std::int64_t raw = raw_;
  const int dfrac = target.fraction_bits - fmt_.fraction_bits;
  if (dfrac >= 0) {
    US3D_EXPECTS(dfrac < 63);
    raw <<= dfrac;  // exact
  } else {
    raw = shift_right_rounded(raw, -dfrac, rounding);
  }
  return Value(saturate_or_wrap(raw, target, overflow), target);
}

std::int64_t Value::round_to_int(Rounding rounding) const {
  return shift_right_rounded(raw_, fmt_.fraction_bits, rounding);
}

namespace {

Value add_sub(const Value& a, const Value& b, bool subtract,
              const Format& result_fmt, Rounding rounding, Overflow overflow) {
  // Align both operands on the finer fractional grid (exact shifts).
  const int frac = std::max(a.format().fraction_bits, b.format().fraction_bits);
  const std::int64_t ra = a.raw() << (frac - a.format().fraction_bits);
  const std::int64_t rb = b.raw() << (frac - b.format().fraction_bits);
  const std::int64_t wide = subtract ? ra - rb : ra + rb;
  const int dfrac = frac - result_fmt.fraction_bits;
  const std::int64_t rounded =
      dfrac >= 0 ? shift_right_rounded(wide, dfrac, rounding)
                 : wide << (-dfrac);
  return Value::from_raw(saturate_or_wrap(rounded, result_fmt, overflow),
                         result_fmt);
}

}  // namespace

Value add(const Value& a, const Value& b, const Format& result_fmt,
          Rounding rounding, Overflow overflow) {
  return add_sub(a, b, /*subtract=*/false, result_fmt, rounding, overflow);
}

Value sub(const Value& a, const Value& b, const Format& result_fmt,
          Rounding rounding, Overflow overflow) {
  return add_sub(a, b, /*subtract=*/true, result_fmt, rounding, overflow);
}

Value mul(const Value& a, const Value& b, const Format& result_fmt,
          Rounding rounding, Overflow overflow) {
  // Full-precision product: fraction bits add up.
  const std::int64_t wide = a.raw() * b.raw();
  const int frac = a.format().fraction_bits + b.format().fraction_bits;
  const int dfrac = frac - result_fmt.fraction_bits;
  const std::int64_t rounded =
      dfrac >= 0 ? shift_right_rounded(wide, dfrac, rounding)
                 : wide << (-dfrac);
  return Value::from_raw(saturate_or_wrap(rounded, result_fmt, overflow),
                         result_fmt);
}

std::int64_t round_real_to_int(double value, Rounding rounding) {
  US3D_EXPECTS(std::isfinite(value));
  US3D_EXPECTS(std::abs(value) < 9.0e18);
  switch (rounding) {
    case Rounding::kFloor:
      return static_cast<std::int64_t>(std::floor(value));
    case Rounding::kTruncate:
      return static_cast<std::int64_t>(std::trunc(value));
    case Rounding::kHalfUp:
      return static_cast<std::int64_t>(
          value >= 0 ? std::floor(value + 0.5) : std::ceil(value - 0.5));
    case Rounding::kHalfEven: {
      const double r = std::nearbyint(value);  // assumes FE_TONEAREST
      return static_cast<std::int64_t>(r);
    }
  }
  return 0;  // unreachable
}

}  // namespace us3d::fx
