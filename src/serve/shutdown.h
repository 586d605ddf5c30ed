#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <streambuf>
#include <thread>

#include <pthread.h>
#include <signal.h>

/// \file shutdown.h
/// \brief Signal-driven graceful drain for the serve binary, and the
/// stdin reader whose EINTR rule makes the drain reachable.
///
/// `goggles_serve` reads requests through an FdReadBuf, which blocks in
/// read(2) and ends input on EOF or any error, EINTR included. A bare
/// SIGTERM would either kill the process mid-response (default
/// disposition) or never be seen (handler runs but the reader stays
/// parked in read(2) if the kernel restarts it). GracefulShutdown turns
/// SIGTERM / SIGINT into a clean drain instead:
///
///  1. The constructor BLOCKS both signals in the calling thread before
///     Service::Run spawns its workers — every later thread inherits the
///     mask, so no thread takes the default (terminating) disposition.
///  2. A watcher thread collects them with sigtimedwait in short slices.
///     On delivery it runs the caller's callback (typically
///     Service::RequestStop) and pokes the constructing thread with
///     SIGUSR1, whose no-op handler is installed WITHOUT SA_RESTART so
///     the FdReadBuf's parked read(2) fails with EINTR, input ends, and
///     the reader loop falls through to the drain.
///  3. The destructor stops the watcher and restores the original mask
///     and SIGUSR1 disposition.
///
/// Construct it on the thread that will call Service::Run, after the
/// Service exists and before Run is entered.

namespace goggles::serve {

/// \brief Buffered, read-only std::streambuf over a file descriptor.
///
/// Refills a fixed buffer with one read(2) per underflow, so
/// std::getline scans whole chunks instead of paying a locked
/// getc/ungetc per byte as synced std::cin does. Input ends at end of
/// file or on ANY read error, EINTR included — the rule synced stdio
/// follows too, and the one GracefulShutdown's SIGUSR1 relies on to
/// unblock a reader parked on an open pipe. It does not own `fd`.
class FdReadBuf : public std::streambuf {
 public:
  /// \brief Bytes requested per read(2).
  static constexpr std::size_t kBufferBytes = 256 * 1024;

  explicit FdReadBuf(int fd);

 protected:
  int_type underflow() override;

 private:
  int fd_;
  std::unique_ptr<char[]> buffer_;
};

/// \brief RAII SIGTERM/SIGINT watcher: runs a drain callback on the
/// first signal and interrupts the constructing thread's blocking read.
class GracefulShutdown {
 public:
  /// \brief Installs the mask/handler and starts the watcher.
  /// `on_signal` runs once, on the watcher thread, at the first SIGTERM
  /// or SIGINT; it must be async-thread-safe (not signal-handler-safe —
  /// it runs on a normal thread) and is typically
  /// `[&service] { service.RequestStop(); }`.
  explicit GracefulShutdown(std::function<void()> on_signal);

  /// \brief Stops the watcher and restores the previous signal state.
  ~GracefulShutdown();

  GracefulShutdown(const GracefulShutdown&) = delete;
  GracefulShutdown& operator=(const GracefulShutdown&) = delete;

  /// \brief True once a SIGTERM/SIGINT triggered the drain callback.
  bool signalled() const { return signal_number_.load() != 0; }

  /// \brief The signal that triggered the drain (0 if none yet).
  int signal_number() const { return signal_number_.load(); }

 private:
  void WatchLoop();

  std::function<void()> on_signal_;
  std::atomic<int> signal_number_{0};
  std::atomic<bool> stop_{false};
  pthread_t main_thread_{};
  sigset_t old_mask_{};
  struct sigaction old_usr1_ {};
  std::thread watcher_;
};

}  // namespace goggles::serve
