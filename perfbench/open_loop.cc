#include "open_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <thread>

#include "trace.h"

namespace perfbench {

std::vector<int64_t> PoissonSchedule(double rate_per_s, int count,
                                     uint64_t seed) {
  // Given its count, a Poisson process's arrival times over [0, T] are
  // uniform order statistics: sample those with T = count / rate, so the
  // phase offers exactly its nominal rate with Poisson burstiness.
  std::mt19937_64 rng(seed);
  const double span_us = 1e6 * std::max(count, 0) / rate_per_s;
  std::uniform_real_distribution<double> uniform(0.0, span_us);
  std::vector<int64_t> offsets(static_cast<size_t>(std::max(count, 0)));
  for (int64_t& offset : offsets) {
    offset = static_cast<int64_t>(std::llround(uniform(rng)));
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

std::vector<RequestTiming> RunOpenLoop(const std::vector<int64_t>& offsets_us,
                                       int64_t start_us, const SendFn& send,
                                       const ReceiveFn& receive,
                                       int64_t drain_timeout_us) {
  std::vector<RequestTiming> timings(offsets_us.size());
  for (size_t i = 0; i < offsets_us.size(); ++i) {
    timings[i].due_us = start_us + offsets_us[i];
  }
  const int64_t deadline =
      (timings.empty() ? start_us : timings.back().due_us) + drain_timeout_us;

  std::thread reader([&] {
    for (size_t i = 0; i < timings.size(); ++i) {
      if (!receive(i, deadline, &timings[i])) return;
      timings[i].done_us = NowMicros();
      timings[i].answered = true;
    }
  });

  int64_t previous_write_end = start_us;
  for (size_t i = 0; i < timings.size(); ++i) {
    RequestTiming& t = timings[i];
    if (NowMicros() < t.due_us) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::microseconds(t.due_us)));
    }
    const int64_t wake = NowMicros();
    // Lateness the generator caused itself: a write that blocked past
    // this request's due time is backpressure from the server, not
    // generator lag, so it is measured from whichever came last.
    t.generator_late_us =
        std::max<int64_t>(0, wake - std::max(t.due_us, previous_write_end));
    if (!send(i)) break;
    previous_write_end = NowMicros();
    t.sent_us = previous_write_end;
  }
  reader.join();
  return timings;
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) Finish(0, nullptr);
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& stderr_path, std::string* error) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const int err_fd =
      open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err_fd < 0) {
    *error = "cannot open " + stderr_path;
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid_ == 0) {
    dup2(in_pipe[0], 0);
    dup2(out_pipe[1], 1);
    dup2(err_fd, 2);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(err_fd);
    execv(args[0], args.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  close(err_fd);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  fcntl(stdin_fd_, F_SETFD, FD_CLOEXEC);
  fcntl(stdin_fd_, F_SETFL, fcntl(stdin_fd_, F_GETFL) | O_NONBLOCK);
  fcntl(stdout_fd_, F_SETFD, FD_CLOEXEC);
  return true;
}

bool ChildProcess::WriteAll(const std::string& data, int64_t deadline_us) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(stdin_fd_, data.data() + done, data.size() - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EINTR) return false;
    const int64_t remaining_ms = (deadline_us - NowMicros()) / 1000;
    if (remaining_ms <= 0) return false;
    pollfd pfd{stdin_fd_, POLLOUT, 0};
    if (poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining_ms, 1000))) <
            0 &&
        errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool ChildProcess::ReadLine(int64_t deadline_us, std::string* line) {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    const int64_t remaining_ms = (deadline_us - NowMicros()) / 1000;
    if (remaining_ms <= 0) return false;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready =
        poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining_ms, 1000)));
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

double ChildProcess::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int ChildProcess::Finish(int64_t timeout_us, long* max_rss_kb) {
  if (stdin_fd_ >= 0) {
    close(stdin_fd_);
    stdin_fd_ = -1;
  }
  int code = -1;
  if (pid_ > 0) {
    const int64_t deadline = NowMicros() + timeout_us;
    int status = 0;
    rusage usage{};
    pid_t waited = 0;
    while ((waited = wait4(pid_, &status, WNOHANG, &usage)) == 0 &&
           NowMicros() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (waited == 0) {
      kill(pid_, SIGKILL);
      waited = wait4(pid_, &status, 0, &usage);
    }
    if (waited == pid_ && WIFEXITED(status)) code = WEXITSTATUS(status);
    if (max_rss_kb != nullptr) *max_rss_kb = usage.ru_maxrss;
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return code;
}

}  // namespace perfbench
