// Shared helpers for the serve test suites: fixture blobs on disk and a
// minimal blocking line-protocol client over a real loopback socket.
#ifndef SKYDIA_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define SKYDIA_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/core/diagram.h"
#include "tests/testing/util.h"

namespace skydia::testing {

/// Builds a diagram of `type` over a seeded random dataset and saves it to
/// `path` (overwriting). Returns the dataset for oracle comparisons.
inline Dataset SaveFixture(SkylineQueryType type, size_t n, int64_t domain,
                           uint64_t seed, const std::string& path) {
  Dataset dataset = RandomDataset(n, domain, seed);
  auto diagram = SkylineDiagram::Build(std::move(dataset), type);
  SKYDIA_CHECK(diagram.ok());
  SKYDIA_CHECK(diagram->Save(path).ok());
  auto copy = Dataset::Create(diagram->dataset().points(),
                              diagram->dataset().domain_size());
  return std::move(copy).value();
}

/// SaveFixture for a quadrant diagram.
inline Dataset SaveQuadrantFixture(size_t n, int64_t domain, uint64_t seed,
                                   const std::string& path) {
  return SaveFixture(SkylineQueryType::kQuadrant, n, domain, seed, path);
}

/// A blocking line-oriented test client with a receive timeout, so a server
/// bug fails the test instead of hanging it.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port, int recv_timeout_ms = 10'000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      Close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return true;
  }

  /// Sends raw bytes (append the '\n' yourself — lets tests pipeline).
  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  bool SendLine(const std::string& line) { return Send(line + "\n"); }

  /// Reads one reply line (without the newline); "" on timeout/close.
  std::string ReadLine() {
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return "";
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads until the peer closes (HTTP responses).
  std::string ReadAll() {
    std::string out = std::move(buffer_);
    buffer_.clear();
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return out;
      }
      out.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool connected() const { return fd_ >= 0; }

  /// The raw socket, for tests that need shutdown() or setsockopt().
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace skydia::testing

#endif  // SKYDIA_TESTS_SERVE_SERVE_TEST_UTIL_H_
