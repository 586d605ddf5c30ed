#include "serve/shutdown.h"

#include <utility>

#include <time.h>
#include <unistd.h>

namespace goggles::serve {

namespace {

// SIGUSR1 exists only to EINTR the read(2) an FdReadBuf is parked in;
// the handler body is irrelevant (and must stay async-signal-safe anyway).
extern "C" void WakeReaderHandler(int) {}

}  // namespace

// Not std::ios::sync_with_stdio(false): libstdc++'s unsynced filebuf
// retries read(2) on EINTR, so SIGUSR1 could no longer end the input.
FdReadBuf::FdReadBuf(int fd)
    : fd_(fd), buffer_(new char[kBufferBytes]) {
  setg(buffer_.get(), buffer_.get(), buffer_.get());
}

FdReadBuf::int_type FdReadBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  const ssize_t n = ::read(fd_, buffer_.get(), kBufferBytes);
  if (n <= 0) return traits_type::eof();  // EOF, or any error incl. EINTR
  setg(buffer_.get(), buffer_.get(), buffer_.get() + n);
  return traits_type::to_int_type(*gptr());
}

GracefulShutdown::GracefulShutdown(std::function<void()> on_signal)
    : on_signal_(std::move(on_signal)), main_thread_(pthread_self()) {
  // Block the drain signals in this thread BEFORE any worker threads
  // exist — they inherit the mask, so sigtimedwait in the watcher is the
  // only place the signals can land.
  sigset_t drain;
  sigemptyset(&drain);
  sigaddset(&drain, SIGTERM);
  sigaddset(&drain, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain, &old_mask_);

  // No-op SIGUSR1 without SA_RESTART: delivery makes a blocking read
  // fail with EINTR instead of transparently resuming, so the FdReadBuf
  // ends the input and the reader loop reaches the drain.
  struct sigaction wake {};
  wake.sa_handler = &WakeReaderHandler;
  sigemptyset(&wake.sa_mask);
  wake.sa_flags = 0;  // deliberately NOT SA_RESTART
  sigaction(SIGUSR1, &wake, &old_usr1_);

  watcher_ = std::thread([this] { WatchLoop(); });
}

GracefulShutdown::~GracefulShutdown() {
  stop_.store(true);
  if (watcher_.joinable()) watcher_.join();
  sigaction(SIGUSR1, &old_usr1_, nullptr);
  pthread_sigmask(SIG_SETMASK, &old_mask_, nullptr);
}

void GracefulShutdown::WatchLoop() {
  sigset_t drain;
  sigemptyset(&drain);
  sigaddset(&drain, SIGTERM);
  sigaddset(&drain, SIGINT);
  // 100ms slices so destruction (stop_) is observed promptly without
  // burning CPU; a delivered signal cuts the wait short immediately.
  struct timespec slice;
  slice.tv_sec = 0;
  slice.tv_nsec = 100 * 1000 * 1000;
  while (!stop_.load()) {
    const int sig = sigtimedwait(&drain, nullptr, &slice);
    if (sig <= 0) continue;  // timeout (EAGAIN) or EINTR — keep waiting
    int expected = 0;
    if (signal_number_.compare_exchange_strong(expected, sig)) {
      if (on_signal_) on_signal_();
      // EINTR the main thread's blocking read so its FdReadBuf ends the
      // input and the reader loop falls through to the drain path.
      pthread_kill(main_thread_, SIGUSR1);
    }
    // Keep watching: a second signal is harmless (drain already under
    // way), and swallowing it here prevents the default disposition
    // from ever killing the process mid-drain.
  }
}

}  // namespace goggles::serve
