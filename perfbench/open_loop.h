#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

/// \file open_loop.h
/// \brief Open-loop load generation against a child process speaking
/// newline-delimited JSON on stdin/stdout.
///
/// Requests are sent on a fixed schedule regardless of how fast answers
/// come back (independent users, not callers waiting for replies), so a
/// stalled server builds a queue. Each request is timed from the moment
/// it was *due*, which charges a stall to every request it delays. The
/// generator's own lateness — waking after the due time for reasons
/// other than a blocked write — is recorded separately so a run can be
/// flagged when the generator, not the server, set the pace.

namespace perfbench {

/// \brief Poisson arrival offsets (microseconds from phase start) for
/// `count` requests at `rate_per_s`, drawn from `seed` and conditioned on
/// the count: the arrivals span count / rate seconds.
std::vector<int64_t> PoissonSchedule(double rate_per_s, int count,
                                     uint64_t seed);

/// \brief Timing and outcome of one request of an open-loop phase.
struct RequestTiming {
  int64_t due_us = 0;   ///< scheduled send time
  int64_t sent_us = 0;  ///< the write completed
  int64_t done_us = 0;  ///< response read (0 when unanswered)
  int64_t generator_late_us = 0;  ///< wake-up lateness not caused by a
                                  ///< blocked previous write
  bool answered = false;
  bool ok = false;  ///< response carried "ok":true and parsed
  int label = -1;   ///< hard label of a label response
  double latency_ms() const {
    return static_cast<double>(done_us - due_us) / 1e3;
  }
};

/// \brief Writes request `index`; false on a transport error.
using SendFn = std::function<bool(size_t index)>;
/// \brief Reads the response to request `index` (responses arrive in
/// request order) before `deadline_us`; fills `ok`/`label` of `timing`.
/// False on EOF, error or timeout.
using ReceiveFn =
    std::function<bool(size_t index, int64_t deadline_us,
                       RequestTiming* timing)>;

/// \brief Runs one open-loop phase: the calling thread writes request i
/// at `start_us + offsets_us[i]`, a reader thread collects responses in
/// order. Responses still missing `drain_timeout_us` after the last due
/// time stay unanswered. Returns one timing per request.
std::vector<RequestTiming> RunOpenLoop(const std::vector<int64_t>& offsets_us,
                                       int64_t start_us, const SendFn& send,
                                       const ReceiveFn& receive,
                                       int64_t drain_timeout_us);

/// \brief A child process with its stdin and stdout on pipes and its
/// stderr in a file.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// \brief Starts `argv` (argv[0] is the program path); stderr goes to
  /// `stderr_path`.
  bool Start(const std::vector<std::string>& argv,
             const std::string& stderr_path, std::string* error);

  /// \brief Writes all of `data` to the child's stdin, waiting while the
  /// pipe is full; false on error or when `deadline_us` passes first.
  bool WriteAll(const std::string& data, int64_t deadline_us);
  /// \brief Reads one stdout line (without the newline) before
  /// `deadline_us` on the NowMicros() clock.
  bool ReadLine(int64_t deadline_us, std::string* line);

  /// \brief Closes stdin (EOF: the server drains and exits), waits up to
  /// `timeout_us`, then kills. Returns the exit code (-1 if killed or
  /// never started); `max_rss_kb` receives the child's peak RSS.
  int Finish(int64_t timeout_us, long* max_rss_kb);

  /// \brief CPU seconds (user + system, all threads) the child has used.
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
