#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

/// \file stats.h
/// \brief Order statistics and ratio helpers shared by the benchmark
/// binary and its self-test.

namespace perfbench {

/// \brief Linearly interpolated percentile `q` in [0, 1] of `values`
/// (the "linear" method: rank q * (n - 1)). 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// \brief Median of `values` (0 for an empty sample).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// \brief Samples a tail percentile needs beyond it before it means
/// anything.
inline constexpr int kMinSamplesBeyond = 10;

/// \brief A tail percentile together with the quantile actually used.
struct TailValue {
  double value = 0.0;
  double q = 0.0;          ///< quantile reported (<= the one asked for)
  bool supported = false;  ///< the requested quantile itself was usable
};

/// \brief The `target` percentile when at least kMinSamplesBeyond
/// samples lie beyond it (n * (1 - target) >= 10); otherwise the highest
/// percentile that still has that many beyond it, q = 1 - 10 / n. Below
/// 20 samples no percentile above the median qualifies and the median is
/// returned.
inline TailValue TailPercentile(const std::vector<double>& values,
                                double target) {
  TailValue tail;
  const double n = static_cast<double>(values.size());
  if (n * (1.0 - target) >= kMinSamplesBeyond - 1e-9) {
    tail.q = target;
    tail.supported = true;
  } else {
    tail.q = n > 0 ? std::max(0.5, 1.0 - kMinSamplesBeyond / n) : 0.5;
  }
  tail.value = Percentile(values, tail.q);
  return tail;
}

/// \brief `numerator / base`, defined as 0 when the base is 0 (a hit
/// ratio with no lookups, a share of an empty span). Callers report the
/// base next to every ratio, so a 0 here is never ambiguous.
inline double Ratio(double numerator, double base) {
  return base == 0.0 ? 0.0 : numerator / base;
}

/// \brief 64-bit FNV-1a over a label vector: a compact fingerprint for
/// checking that two runs of the same code produced the same labels.
inline uint64_t HashLabels(const std::vector<int>& labels) {
  uint64_t h = 1469598103934665603ull;
  for (int label : labels) {
    const uint32_t v = static_cast<uint32_t>(label);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench
