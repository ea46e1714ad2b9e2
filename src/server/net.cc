#include "server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "server/wire.h"

namespace viewjoin::server {

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kTimeoutPrefix[] = "net timeout: ";
constexpr char kPeerClosedMsg[] = "connection closed by peer";

util::Status Timeout(const char* op) {
  return util::Status::IoError(std::string(kTimeoutPrefix) + op +
                               " deadline exceeded");
}

util::Status Errno(const char* op) {
  return util::Status::IoError(std::string(op) + " failed: " +
                               std::strerror(errno));
}

/// Absolute deadline `ms` from now; time_point::max() means none.
Clock::time_point DeadlinePoint(double ms) {
  if (ms <= 0) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
}

/// Arms SO_RCVTIMEO/SO_SNDTIMEO with the time remaining until `deadline`.
/// Returns false when the deadline has already passed.
bool ArmSocketTimeout(int fd, int option, Clock::time_point deadline) {
  struct timeval tv = {0, 0};
  if (deadline != Clock::time_point::max()) {
    auto remaining = deadline - Clock::now();
    if (remaining <= Clock::duration::zero()) return false;
    auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(remaining);
    tv.tv_sec = static_cast<time_t>(micros.count() / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(micros.count() % 1000000);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
  return true;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

bool IsTimeout(const util::Status& status) {
  return status.code() == util::StatusCode::kIoError &&
         status.message().rfind(kTimeoutPrefix, 0) == 0;
}

bool IsPeerClosed(const util::Status& status) {
  return status.code() == util::StatusCode::kNotFound &&
         status.message() == kPeerClosedMsg;
}

// ---- Conn ------------------------------------------------------------------

Conn::Conn(int fd, util::SocketEnd end) : fd_(fd), end_(end) {
  if (fd_ >= 0) SetNoDelay(fd_);
}

Conn::~Conn() { Close(); }

Conn::Conn(Conn&& other) noexcept
    : fd_(other.fd_),
      end_(other.end_),
      read_deadline_ms_(other.read_deadline_ms_),
      write_deadline_ms_(other.write_deadline_ms_) {
  other.fd_ = -1;
}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    end_ = other.end_;
    read_deadline_ms_ = other.read_deadline_ms_;
    write_deadline_ms_ = other.write_deadline_ms_;
    other.fd_ = -1;
  }
  return *this;
}

util::StatusOr<Conn> Conn::Connect(const std::string& host, uint16_t port,
                                   double timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }

  // Non-blocking connect with a bounded handshake, then back to blocking
  // (per-op deadlines use SO_RCVTIMEO/SO_SNDTIMEO on a blocking socket).
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    util::Status error = Errno("connect");
    ::close(fd);
    return error;
  }
  if (rc != 0) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    int timeout = timeout_ms <= 0 ? -1 : static_cast<int>(timeout_ms);
    int ready = ::poll(&pfd, 1, timeout);
    if (ready <= 0) {
      ::close(fd);
      return ready == 0 ? Timeout("connect") : Errno("poll");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      ::close(fd);
      return util::Status::IoError(std::string("connect failed: ") +
                                   std::strerror(so_error));
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return Conn(fd, util::SocketEnd::kClient);
}

void Conn::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::HardClose() {
  if (fd_ < 0) return;
  struct linger lg = {1, 0};  // close() discards and sends RST
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd_);
  fd_ = -1;
}

void Conn::FinishAndDrain(double drain_ms) {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_WR);
  // Swallow whatever the peer had in flight (it sent a request we never
  // read) until EOF or the drain budget runs out; then close without RST.
  Clock::time_point deadline = DeadlinePoint(drain_ms <= 0 ? 1 : drain_ms);
  uint8_t sink[512];
  while (ArmSocketTimeout(fd_, SO_RCVTIMEO, deadline)) {
    ssize_t n = ::recv(fd_, sink, sizeof(sink), 0);
    if (n == 0) break;                          // orderly EOF
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;                           // timeout or error: give up
  }
  Close();
}

util::Status Conn::SendAll(const uint8_t* data, size_t len) {
  Clock::time_point deadline = DeadlinePoint(write_deadline_ms_);
  size_t sent = 0;
  while (sent < len) {
    size_t chunk = len - sent;
    switch (util::SocketFaultInjector::Global().OnSendAttempt(end_)) {
      case util::SocketFault::kNone:
        break;
      case util::SocketFault::kShortWrite:
        chunk = 1;
        break;
      case util::SocketFault::kReset:
        HardClose();
        return util::Status::IoError("injected connection reset");
      case util::SocketFault::kStall:
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            util::SocketFaultInjector::Global().stall_ms()));
        break;
      case util::SocketFault::kShortRead:
        break;  // read fault armed on kAny; not applicable to sends
    }
    if (!ArmSocketTimeout(fd_, SO_SNDTIMEO, deadline)) return Timeout("send");
    ssize_t n = ::send(fd_, data + sent, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Timeout("send");
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

util::Status Conn::RecvAll(uint8_t* data, size_t len, size_t* got,
                           Clock::time_point deadline) {
  *got = 0;
  while (*got < len) {
    size_t chunk = len - *got;
    switch (util::SocketFaultInjector::Global().OnRecvAttempt(end_)) {
      case util::SocketFault::kNone:
        break;
      case util::SocketFault::kShortRead:
        chunk = 1;
        break;
      case util::SocketFault::kReset:
        HardClose();
        return util::Status::IoError("injected connection reset");
      case util::SocketFault::kStall:
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            util::SocketFaultInjector::Global().stall_ms()));
        break;
      case util::SocketFault::kShortWrite:
        break;  // write fault armed on kAny; not applicable to recvs
    }
    if (!ArmSocketTimeout(fd_, SO_RCVTIMEO, deadline)) return Timeout("recv");
    ssize_t n = ::recv(fd_, data + *got, chunk, 0);
    if (n == 0) return util::Status::NotFound(kPeerClosedMsg);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Timeout("recv");
      return Errno("recv");
    }
    *got += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

util::Status Conn::SendFrame(const std::string& payload,
                             uint32_t max_frame_bytes) {
  if (!valid()) return util::Status::IoError("send on closed connection");
  if (payload.size() > max_frame_bytes) {
    return util::Status::ResourceExhausted(
        "frame of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) + "-byte cap");
  }
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(static_cast<uint32_t>(payload.size()), header);
  util::Status sent = SendAll(header, sizeof(header));
  if (!sent.ok()) return sent;
  return SendAll(reinterpret_cast<const uint8_t*>(payload.data()),
                 payload.size());
}

util::Status Conn::AwaitReadable(Clock::time_point deadline,
                                 const std::function<bool()>& stop,
                                 double slice_ms) {
  while (true) {
    auto wait = std::chrono::duration<double, std::milli>(slice_ms);
    if (deadline != Clock::time_point::max()) {
      auto remaining = deadline - Clock::now();
      if (remaining <= Clock::duration::zero()) return Timeout("recv");
      wait = std::min<std::chrono::duration<double, std::milli>>(wait,
                                                                 remaining);
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min(wait.count(), 60000.0)) + 1);
    if (ready > 0) return util::Status::Ok();
    if (ready < 0 && errno != EINTR) return Errno("poll");
    if (stop()) return Timeout("recv");
  }
}

util::StatusOr<std::string> Conn::RecvFrame(
    uint32_t max_frame_bytes, const std::function<bool()>& stop_idle,
    double idle_slice_ms) {
  if (!valid()) return util::Status::IoError("recv on closed connection");
  const Clock::time_point header_deadline = DeadlinePoint(read_deadline_ms_);
  if (stop_idle && idle_slice_ms > 0) {
    util::Status ready =
        AwaitReadable(header_deadline, stop_idle, idle_slice_ms);
    if (!ready.ok()) return ready;
  }
  uint8_t header[kFrameHeaderBytes];
  size_t got = 0;
  util::Status read = RecvAll(header, sizeof(header), &got, header_deadline);
  if (!read.ok()) {
    // EOF cleanly between frames is the peer hanging up; EOF mid-header is a
    // torn frame.
    if (IsPeerClosed(read) && got > 0) {
      return util::Status::Corruption("connection closed mid-frame");
    }
    return read;
  }
  util::StatusOr<uint32_t> length = DecodeFrameHeader(header, max_frame_bytes);
  if (!length.ok()) return length.status();
  std::string payload(*length, '\0');
  if (*length > 0) {
    read = RecvAll(reinterpret_cast<uint8_t*>(payload.data()), payload.size(),
                   &got, DeadlinePoint(read_deadline_ms_));
    if (!read.ok()) {
      if (IsPeerClosed(read)) {
        return util::Status::Corruption("connection closed mid-frame");
      }
      return read;
    }
  }
  return payload;
}

// ---- Listener --------------------------------------------------------------

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

util::StatusOr<Listener> Listener::Bind(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    util::Status error = Errno("bind");
    ::close(fd);
    return error;
  }
  if (::listen(fd, backlog) != 0) {
    util::Status error = Errno("listen");
    ::close(fd);
    return error;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len);

  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

util::StatusOr<Conn> Listener::Accept() {
  if (fd_ < 0) return util::Status::IoError("listener closed");
  while (true) {
    int conn_fd = ::accept(fd_, nullptr, nullptr);
    if (conn_fd >= 0) return Conn(conn_fd, util::SocketEnd::kServer);
    if (errno == EINTR) continue;
    // EINVAL is Linux's verdict for accept on a shutdown() listener — the
    // drain path's way of unblocking this loop.
    return util::Status::IoError(std::string("listener closed: ") +
                                 std::strerror(errno));
  }
}

void Listener::Shutdown() {
  // shutdown() (not close()) unblocks a concurrent Accept without freeing
  // the descriptor number under it — close would race fd reuse.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace viewjoin::server
