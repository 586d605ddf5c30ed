/// \file reference.cc
/// \brief The benchmark's reference workload (see reference.h).

#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

constexpr int kDim = 64;
constexpr int kProducts = 60;
constexpr int kSweep = 16384;
constexpr int kStream = 1 << 20;  // 4 MB of floats per thread
constexpr int kStreamPasses = 8;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's share of a pass: dense products and exponentials in cache,
/// then streaming passes through a buffer larger than the per-core caches.
/// Returns a checksum so the work is kept.
float Work(unsigned salt) {
  std::vector<float> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim, 0.0f);
  for (int i = 0; i < kDim * kDim; ++i) {
    a[i] = static_cast<float>((i * 7 + salt) % 13) / 13.0f;
    b[i] = static_cast<float>((i * 5 + salt) % 11) / 11.0f - 0.5f;
  }
  for (int r = 0; r < kProducts; ++r) {
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float aik = a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) c[i * kDim + j] += aik * b[k * kDim + j];
      }
    }
    // Keep the product bounded and dependent on the previous one.
    a.swap(c);
    for (float& v : a) v = v * (1.0f / kDim);
    std::fill(c.begin(), c.end(), 0.0f);
  }
  std::vector<float> x(kSweep);
  for (int i = 0; i < kSweep; ++i) x[i] = a[i % (kDim * kDim)] - 0.25f;
  float sum = 0.0f;
  for (int r = 0; r < 8; ++r) {
    for (float& v : x) {
      v = std::exp(-v * v) - 0.5f;
      sum += v;
    }
  }
  std::vector<float> big(kStream, 0.5f);
  for (int r = 0; r < kStreamPasses; ++r) {
    const float w = x[static_cast<size_t>(r) % x.size()];
    for (float& v : big) v = v * 0.999f + w;
    sum += big[static_cast<size_t>(r) * 4099 % big.size()];
  }
  return sum;
}

}  // namespace

/// Like the program's ParallelFor, every thread gets an equal share and
/// the pass ends when the slowest one does.
double ReferencePassSeconds(int threads) {
  std::vector<float> out(static_cast<size_t>(std::max(1, threads)), 0.0f);
  std::vector<std::thread> pool;
  const double start = Now();
  for (size_t t = 0; t < out.size(); ++t) {
    pool.emplace_back([&out, t] { out[t] = Work(static_cast<unsigned>(t)); });
  }
  for (std::thread& th : pool) th.join();
  const double seconds = Now() - start;
  // An impossible checksum would mean the work was optimized away.
  for (float v : out) {
    if (!std::isfinite(v)) return 0.0;
  }
  return seconds;
}

void ReferenceLog::Measure() {
  for (int p = 0; p < 3; ++p) seconds_.push_back(ReferencePassSeconds(threads_));
}

double ReferenceLog::MedianSeconds() const { return Median(seconds_); }

}  // namespace perfbench
