#pragma once

/// \file reference.h
/// \brief A fixed CPU workload owned by the benchmark, timed next to the
/// program's work so that throughput can be stated in units of the
/// host's speed at that moment.
///
/// The host is shared: the same binary labels 30% more or fewer images
/// per second from one minute to the next, with no steal time recorded. A reference pass slows down with it, so
/// "images per reference pass" stays put while the host drifts, and
/// moves when the program changes. The pass uses none of the program's
/// code and none of its build flags: no change to the program can speed
/// it up or slow it down.

#include <vector>

namespace perfbench {

/// \brief Wall time, in seconds, of one reference pass: the same fixed
/// float work (small dense matrix products and exponentials in cache, then
/// streaming through memory, as in scoring and EM) on each of `threads`
/// threads. 35–45 ms on a 4-core AVX-512 host.
double ReferencePassSeconds(int threads);

/// \brief Reference passes taken through a run; the run's throughput is
/// stated in the median pass.
class ReferenceLog {
 public:
  explicit ReferenceLog(int threads) : threads_(threads) {}
  /// \brief Runs three passes and records them.
  void Measure();
  /// \brief The median recorded pass in seconds (0 before any).
  double MedianSeconds() const;

 private:
  int threads_;
  std::vector<double> seconds_;
};

}  // namespace perfbench
