#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file trace.h
/// \brief In-memory span recorder for the benchmark's traced mode.
///
/// Spans are recorded only by the benchmark's own code, around calls into
/// each layer's public functions. Each span has a name, a start and an
/// end on the monotonic clock, the span that caused it, and the request
/// it belongs to. Spans stay in memory and are written out once, as
/// Chrome trace-event JSON (opens in Perfetto or chrome://tracing), when
/// the run ends. A disabled tracer records nothing.

namespace perfbench {

/// \brief Microseconds on the monotonic clock.
int64_t NowMicros();

/// \brief One recorded span.
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int id = 0;
  int parent = -1;          ///< id of the causing span, -1 for a root
  int64_t request_id = -1;  ///< request the span belongs to, -1 if none
  int thread = 0;           ///< small per-thread index (trace "tid")
};

/// \brief Thread-safe span store. Parents are tracked per thread: a span
/// begun while another span of the same thread is open becomes its
/// child.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// \brief Opens a span on the calling thread; returns its id (-1 when
  /// disabled).
  int Begin(const std::string& name, int64_t request_id = -1);
  /// \brief Closes span `id` (a no-op for -1).
  void End(int id);
  /// \brief Records a span measured elsewhere (e.g. a request timed by
  /// the open-loop generator) under an explicit parent.
  void Record(const std::string& name, int64_t start_us, int64_t end_us,
              int parent, int64_t request_id);

  /// \brief Copy of every recorded span.
  std::vector<Span> spans() const;

  /// \brief Durations in milliseconds per span name.
  std::map<std::string, std::vector<double>> DurationsMs() const;

  /// \brief Writes the spans as a Chrome trace-event JSON file; false on
  /// an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Self time of every span in `spans` (indexed like `spans`), in
/// microseconds: duration minus the union of its children's intervals
/// clipped to the span.
std::vector<int64_t> SelfTimesMicros(const std::vector<Span>& spans);

/// \brief RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             int64_t request_id = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
