/// \file selftest.cc
/// \brief Tests of the benchmark's own helpers: the percentile rules, the
/// open-loop scheduler's timing, ratios with a zero base, span self times
/// and the reference passes. Exits non-zero when any check failed.
///
///   .bench_build/perfbench_selftest

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  using perfbench::Percentile;
  using perfbench::TailPercentile;
  Check(Near(perfbench::Median({3, 1, 2}), 2), "median of odd sample");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "median interpolates");
  Check(Near(Percentile(Range(101), 0.99), 100), "p99 of 1..101");
  Check(Near(Percentile({}, 0.5), 0), "empty sample gives 0");

  // 1000 samples leave exactly 10 beyond p99: supported.
  auto tail = TailPercentile(Range(1000), 0.99);
  Check(tail.supported && Near(tail.q, 0.99), "p99 supported at n=1000");
  // 500 samples: p99 would have 5 beyond; fall back to q = 1 - 10/500.
  tail = TailPercentile(Range(500), 0.99);
  Check(!tail.supported && Near(tail.q, 0.98),
        "p99 falls back to p98 at n=500");
  Check(Near(tail.value, Percentile(Range(500), 0.98)), "fallback value");
  // Count what lies beyond the reported quantile: at least 10.
  int beyond = 0;
  for (double v : Range(500)) beyond += v > tail.value;
  Check(beyond >= 10, ">= 10 samples beyond the fallback quantile");
  // Below 20 samples no percentile above the median qualifies.
  tail = TailPercentile(Range(12), 0.99);
  Check(Near(tail.q, 0.5) && Near(tail.value, 6.5), "tiny sample uses median");
}

void TestRatios() {
  using perfbench::Ratio;
  Check(Near(Ratio(3, 4), 0.75), "plain ratio");
  Check(Near(Ratio(0, 0), 0), "hit ratio with no lookups is 0");
  Check(Near(Ratio(5, 0), 0), "share of an empty span is 0");
  Check(Near(1.0 - Ratio(0, 0), 1), "unaccounted share with zero base");
}

/// A fake server: each written request is answered right away, except
/// that the first write blocks for 50 ms (a stalled pipe).
void TestOpenLoopTimesFromDue() {
  using perfbench::NowMicros;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> answered;
  const auto send = [&](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(mu);
    answered.push_back(i);
    cv.notify_one();
    return true;
  };
  const auto receive = [&](size_t, int64_t deadline,
                           perfbench::RequestTiming* t) {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_until(lock,
                       std::chrono::steady_clock::time_point(
                           std::chrono::microseconds(deadline)),
                       [&] { return !answered.empty(); })) {
      return false;
    }
    answered.pop_front();
    t->ok = true;
    return true;
  };
  // Due at 0, 10 and 100 ms.
  const std::vector<int64_t> offsets = {0, 10'000, 100'000};
  const int64_t start = NowMicros() + 1000;
  const auto timings =
      perfbench::RunOpenLoop(offsets, start, send, receive, 1'000'000);
  Check(timings.size() == 3 && timings[1].answered, "all answered");
  // Request 1 was due at 10 ms but could not go out before the stalled
  // write ended at ~50 ms: timed from its due time it waited >= 40 ms,
  // timed from its send it would look instant.
  Check(timings[1].due_us == start + 10'000, "due time is the schedule");
  Check(timings[1].latency_ms() >= 39.0, "latency counts the stall");
  Check(timings[1].done_us - timings[1].sent_us < 20'000,
        "send-to-answer time is short");
  // The stall was the server's (a blocked write), not generator lag.
  Check(timings[1].generator_late_us < 10'000,
        "blocked write is not generator lateness");
  // Request 2, due after the stall cleared, is on time.
  Check(timings[2].latency_ms() < 20.0, "later request unaffected");
  Check(timings[2].sent_us >= timings[2].due_us, "never sent early");
}

void TestPoissonSchedule() {
  const auto a = perfbench::PoissonSchedule(1000, 5000, 7);
  const auto b = perfbench::PoissonSchedule(1000, 5000, 7);
  Check(a == b, "schedule is a function of the seed");
  Check(std::is_sorted(a.begin(), a.end()), "offsets are non-decreasing");
  const double span_s = static_cast<double>(a.back()) / 1e6;
  Check(span_s > 4.5 && span_s < 5.5, "5000 arrivals at 1000/s span ~5 s");
}

void TestSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, 0, -1, -1, 0};
  spans[1] = {"a", 10, 40, 1, 0, -1, 0};
  spans[2] = {"b", 30, 60, 2, 0, -1, 0};  // overlaps a
  spans[3] = {"c", 90, 150, 3, 0, -1, 0};  // runs past the parent
  const auto self = perfbench::SelfTimesMicros(spans);
  // Children cover [10, 60) and [90, 100): 60 of the root's 100 us.
  Check(self[0] == 40, "self time subtracts the union of children");
  Check(self[1] == 30 && self[3] == 60, "leaf self time is its duration");
}

void TestReference() {
  perfbench::ReferenceLog log(2);
  Check(log.MedianSeconds() == 0, "no passes yet gives 0");
  log.Measure();
  const double one = perfbench::ReferencePassSeconds(1);
  Check(log.MedianSeconds() > 0 && one > 0, "a reference pass takes time");
  // Each thread runs a full share, so a second thread adds no work to
  // the critical path.
  Check(log.MedianSeconds() < 3 * one, "threads run their shares at once");
}

}  // namespace

int main() {
  TestPercentiles();
  TestRatios();
  TestOpenLoopTimesFromDue();
  TestPoissonSchedule();
  TestSelfTime();
  TestReference();
  std::printf("%s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
