// Exact floating-point summation, for sums that must not depend on the
// order their terms arrive in.
//
// A sum of doubles accumulated left to right rounds after every term, so
// the same terms in another order can give a different last bit. ExactSum
// keeps the exact value instead and rounds it once, in value(), to nearest
// with ties to even. The rounded value is therefore a function of the
// multiset of terms alone: any order of the same adds — and any
// interleaving of adds with the matching subtractions — reads the same
// bits.
//
// Two exact representations, chosen per sum:
//  * fixed point: a 128-bit integer times 2^base. Terms whose binary
//    exponents lie within ~70 of each other — every token-bucket total the
//    analysis forms — add as one shifted integer add, and value() rounds
//    the integer directly;
//  * partials: a nonoverlapping expansion of doubles (Shewchuk, "Adaptive
//    Precision Floating-Point Arithmetic and Fast Robust Geometric
//    Predicates", 1997) kept by the algorithm of Python's math.fsum, for a
//    sum that meets a term outside the fixed-point window. The switch is
//    exact, so it never changes a value; a sum that cancels to zero
//    starts over in fixed point.
//
// Terms must be finite.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace pap {

class ExactSum {
 public:
  /// Adds `x` exactly; add(-x) takes a term away again.
  void add(double x) {
    if (x != 0.0 && !add_fast(x, acc_, base_, budget_)) add_slow(x);
  }

  /// The exact sum rounded to the nearest double (ties to even); +0 for a
  /// sum that is exactly zero.
  double value() const {
    return partials_.empty() ? round_fixed(acc_, base_) : round_partials();
  }

  /// value() of this sum plus `extra`, leaving this sum as it is. A sum in
  /// fixed point does this on a copy of its integer, not of the object.
  double value_with(std::initializer_list<double> extra) const {
    if (partials_.empty()) {
      Int acc = acc_;
      int base = base_;
      int budget = budget_;
      bool fast = true;
      for (const double x : extra) {
        if (x != 0.0 && !add_fast(x, acc, base, budget)) fast = false;
      }
      if (fast) return round_fixed(acc, base);
    }
    ExactSum sum = *this;
    for (const double x : extra) sum.add(x);
    return sum.value();
  }

 private:
  using Int = __int128;
  using UInt = unsigned __int128;

  // The fixed-point window. A term x = m * 2^q (m < 2^53) adds on the fast
  // path when 0 <= q - base <= 63, so it is below 2^116 after the shift.
  // The slow path hands the fast path a budget of kBudget adds after it saw
  // |acc| < 2^125, which keeps |acc| below 2^126. It rebases by up to
  // kMaxRebase bits and sets no base above kMaxExponent - 53, so a value
  // in fixed point stays below 2^(kMaxExponent + 73), well inside the
  // double range.
  static constexpr int kMaxShift = 63;
  static constexpr int kBudget = 256;
  static constexpr int kMaxRebase = 60;
  static constexpr int kMaxExponent = 800;
  static constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  static constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;

  /// acc += x for a nonzero x in the window while the budget lasts.
  /// Subnormals, infinities and NaNs never pass: their q lies below any
  /// base, or above any base plus kMaxShift.
  static bool add_fast(double x, Int& acc, int& base, int& budget) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int q = static_cast<int>(bits >> 52 & 0x7ff) - 1075;
    const auto shift = static_cast<unsigned>(q - base);
    if (shift > kMaxShift || budget <= 0) return false;
    --budget;
    const std::uint64_t m = (bits & kFraction) | kHidden;
    // A shift below 11 keeps the term in one 64-bit word.
    const UInt t = shift < 11 ? UInt(m << shift) : UInt(m) << shift;
    acc = static_cast<Int>(bits >> 63 ? static_cast<UInt>(acc) - t
                                       : static_cast<UInt>(acc) + t);
    return true;
  }

  // Out of line, so that add() inlines down to the fast path.
  [[gnu::noinline]] void add_slow(double x) {
    if (partials_.empty() && add_fixed(x)) return;
    if (partials_.empty()) widen();
    add_partial(x);
  }

  static UInt magnitude(Int v) {
    return v < 0 ? UInt(0) - static_cast<UInt>(v) : static_cast<UInt>(v);
  }
  static int bit_length(UInt v) {
    const auto hi = static_cast<std::uint64_t>(v >> 64);
    const auto lo = static_cast<std::uint64_t>(v);
    return hi != 0 ? 128 - std::countl_zero(hi) : 64 - std::countl_zero(lo);
  }
  /// 2^e for -1074 <= e <= 1023.
  static double pow2(int e) {
    return e >= -1022
               ? std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023)
                                       << 52)
               : std::bit_cast<double>(std::uint64_t{1} << (e + 1074));
  }

  /// The fixed-point add with every check, rebasing when x lies below the
  /// base; false (nothing changed) when x does not fit the window.
  bool add_fixed(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int biased = static_cast<int>(bits >> 52 & 0x7ff);
    const int q = biased - 1075;
    if (biased == 0 || biased == 0x7ff || q > kMaxExponent - 53) return false;
    const Int m = static_cast<Int>((bits & kFraction) | kHidden);
    const Int term = bits >> 63 ? -m : m;
    if (acc_ == 0) {
      acc_ = term;
      base_ = q;
      budget_ = kBudget;
      return true;
    }
    const UInt limit = UInt(1) << 125;
    if (magnitude(acc_) >= limit) return false;
    if (q < base_) {
      const int d = base_ - q;
      if (d > kMaxRebase || magnitude(acc_) >= (limit >> d)) return false;
      acc_ = static_cast<Int>(static_cast<UInt>(acc_) << d);
      base_ = q;
    }
    if (q - base_ > kMaxShift) return false;
    acc_ += static_cast<Int>(static_cast<UInt>(term) << (q - base_));
    budget_ = kBudget;
    return true;
  }

  /// acc * 2^base rounded to the nearest double, ties to even.
  static double round_fixed(Int acc, int base) {
    if (acc == 0) return 0.0;
    UInt m = magnitude(acc);
    int e = base;
    const int excess = bit_length(m) - 53;
    if (excess > 0) {
      // Keep the top 53 bits; round the rest half to even.
      const UInt rest = m & ((UInt(1) << excess) - 1);
      const UInt half = UInt(1) << (excess - 1);
      m >>= excess;
      e += excess;
      if (rest > half || (rest == half && (m & 1) != 0)) {
        ++m;
        if (m >> 53) {
          m >>= 1;
          ++e;
        }
      }
    }
    // |m| < 2^53 is exact as a double, and so is the power-of-two scaling:
    // e >= -1074, and a result below 2^-1022 has no bits below 2^-1074.
    const double r = static_cast<double>(static_cast<std::uint64_t>(m)) *
                     pow2(e);
    return acc < 0 ? -r : r;
  }

  /// Moves the fixed-point value into partials: 50-bit chunks of |acc|,
  /// smallest first, each exact as a double.
  void widen() {
    const UInt m = magnitude(acc_);
    for (int k = 0; k < 128; k += 50) {
      const auto chunk =
          static_cast<std::uint64_t>(m >> k) & ((std::uint64_t{1} << 50) - 1);
      if (chunk == 0) continue;
      const double c = static_cast<double>(chunk) * pow2(base_ + k);
      partials_.push_back(acc_ < 0 ? -c : c);
    }
    acc_ = 0;
    budget_ = 0;  // the fast path stays off while the sum is wide
  }

  void add_partial(double x) {
    std::size_t kept = 0;
    for (std::size_t j = 0; j < partials_.size(); ++j) {
      // Two-sum of x and the next partial, larger magnitude first: hi is
      // the rounded sum, lo its rounding error, exactly.
      double y = partials_[j];
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) partials_[kept++] = lo;
      x = hi;
    }
    partials_.resize(kept);
    if (x != 0.0) partials_.push_back(x);
    // A sum that cancels to zero starts over in fixed point.
  }

  double round_partials() const {
    // Sum the partials from the largest down while the additions stay
    // exact; the first inexact one fixes the rounding.
    std::size_t n = partials_.size();
    double hi = partials_[--n];
    double lo = 0.0;
    while (n > 0) {
      const double x = hi;
      const double y = partials_[--n];
      hi = x + y;
      lo = y - (hi - x);
      if (lo != 0.0) break;
    }
    // hi + lo rounded half-even to hi; if the partials below pull in lo's
    // direction, the exact value lies past the halfway point.
    if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                  (lo > 0.0 && partials_[n - 1] > 0.0))) {
      const double y = lo * 2.0;
      const double x = hi + y;
      if (y == x - hi) hi = x;
    }
    return hi;
  }

  Int acc_ = 0;  // fixed point: the sum is acc_ * 2^base_
  int base_ = 0;
  int budget_ = 0;  // fast-path adds left; 0 sends the next to add_slow
  std::vector<double> partials_;  // non-empty while the sum is wide
};

}  // namespace pap
