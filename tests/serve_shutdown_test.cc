#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <istream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/shutdown.h"

namespace goggles {
namespace {

using serve::FdReadBuf;

/// A pipe whose ends close on scope exit (each end at most once).
class Pipe {
 public:
  Pipe() { EXPECT_EQ(::pipe(fds_), 0); }
  ~Pipe() {
    Close(&fds_[0]);
    CloseWrite();
  }
  int read_fd() const { return fds_[0]; }
  void CloseWrite() { Close(&fds_[1]); }

  /// Writes all of `bytes`, looping over short writes.
  void WriteAll(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::write(fds_[1], bytes.data() + done, bytes.size() - done);
      ASSERT_GT(n, 0);
      done += static_cast<size_t>(n);
    }
  }

 private:
  static void Close(int* fd) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  int fds_[2] = {-1, -1};
};

/// Counts the refills that delivered bytes, to observe read(2) batching.
class CountingReadBuf : public FdReadBuf {
 public:
  using FdReadBuf::FdReadBuf;
  int refills = 0;

 protected:
  int_type underflow() override {
    const bool empty = gptr() == egptr();
    const int_type next = FdReadBuf::underflow();
    if (empty && !traits_type::eq_int_type(next, traits_type::eof())) {
      ++refills;
    }
    return next;
  }
};

std::vector<std::string> ReadAllLines(std::istream& in) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(FdReadBufTest, LineThreeTimesTheBufferComesBackIntact) {
  std::string big(3 * FdReadBuf::kBufferBytes + 17, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  Pipe pipe;
  // The pipe holds far less than the line, so write from another thread.
  std::thread writer([&] {
    pipe.WriteAll(big + "\nnext\n");
    pipe.CloseWrite();
  });
  FdReadBuf buf(pipe.read_fd());
  std::istream in(&buf);
  const std::vector<std::string> lines = ReadAllLines(in);
  writer.join();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0] == big) << "long line corrupted, size "
                               << lines[0].size() << " vs " << big.size();
  EXPECT_EQ(lines[1], "next");
}

TEST(FdReadBufTest, ManyLinesArriveFromOneRead) {
  constexpr int kLines = 200;
  std::string payload;
  for (int i = 0; i < kLines; ++i) {
    payload += "line " + std::to_string(i) + "\n";
  }
  Pipe pipe;
  pipe.WriteAll(payload);  // fits in the pipe: all queued before reading
  pipe.CloseWrite();
  CountingReadBuf buf(pipe.read_fd());
  std::istream in(&buf);
  const std::vector<std::string> lines = ReadAllLines(in);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kLines));
  for (int i = 0; i < kLines; ++i) {
    EXPECT_EQ(lines[i], "line " + std::to_string(i));
  }
  EXPECT_EQ(buf.refills, 1) << "every queued line should come from one read";
}

TEST(FdReadBufTest, LastLineWithoutNewlineIsReturned) {
  Pipe pipe;
  pipe.WriteAll("first\nlast");
  pipe.CloseWrite();
  FdReadBuf buf(pipe.read_fd());
  std::istream in(&buf);
  EXPECT_EQ(ReadAllLines(in), (std::vector<std::string>{"first", "last"}));
  EXPECT_TRUE(in.eof());
}

TEST(FdReadBufTest, WriterCloseEndsInputOfParkedReader) {
  Pipe pipe;
  std::atomic<bool> done{false};
  std::vector<std::string> lines;
  std::thread reader([&] {
    FdReadBuf buf(pipe.read_fd());
    std::istream in(&buf);
    lines = ReadAllLines(in);
    done.store(true);
  });
  pipe.WriteAll("only\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "reader must block while the writer is open";
  pipe.CloseWrite();
  reader.join();
  EXPECT_EQ(lines, std::vector<std::string>{"only"});
}

// The drain contract: a reader parked in read(2) on a pipe that stays
// open ends its input when GracefulShutdown's SIGUSR1 (installed without
// SA_RESTART) interrupts the read.
TEST(FdReadBufTest, EintrFromShutdownWakeSignalEndsInput) {
  // Outlives the reader thread, so no poke can land after the SIGUSR1
  // disposition is restored.
  serve::GracefulShutdown shutdown([] {});
  Pipe pipe;
  pipe.WriteAll("before\n");
  std::atomic<bool> done{false};
  std::vector<std::string> lines;
  bool eof = false;
  std::thread reader([&] {
    FdReadBuf buf(pipe.read_fd());
    std::istream in(&buf);
    lines = ReadAllLines(in);
    eof = in.eof();
    done.store(true);
  });
  // A signal landing before the reader enters read(2) is lost, so keep
  // poking until the read returns.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done.load() && std::chrono::steady_clock::now() < give_up) {
    ::pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool woke = done.load();
  pipe.CloseWrite();  // unblocks the reader if the signal never did
  reader.join();
  EXPECT_TRUE(woke) << "SIGUSR1 did not interrupt the parked read";
  EXPECT_EQ(lines, std::vector<std::string>{"before"});
  EXPECT_TRUE(eof);
}

}  // namespace
}  // namespace goggles
