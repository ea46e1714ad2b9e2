#ifndef VIEWJOIN_SERVER_NET_H_
#define VIEWJOIN_SERVER_NET_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "util/fault_injection.h"
#include "util/status.h"

namespace viewjoin::server {

/// True when `status` is the typed deadline-expiry error Conn's SendFrame /
/// RecvFrame return — the server counts these (slowloris reaping) separately
/// from hard transport failures.
bool IsTimeout(const util::Status& status);

/// True when `status` is the typed clean-EOF "connection closed by peer".
bool IsPeerClosed(const util::Status& status);

/// One TCP connection with per-operation deadlines, framed send/recv, and
/// deterministic fault injection (util::SocketFaultInjector is consulted on
/// every physical send/recv, so tests can force short I/O, resets and stalls
/// on either end of the wire).
///
/// Deadlines are the slowloris defense: a peer that dribbles a byte a minute
/// — or stops mid-frame — costs the owner at most one deadline interval, not
/// a pinned thread. They are per *operation attempt*, implemented with
/// SO_RCVTIMEO/SO_SNDTIMEO on a blocking socket; a frame read that makes no
/// progress within the deadline fails with the typed timeout error.
///
/// Move-only; the destructor closes the socket.
class Conn {
 public:
  Conn() = default;  // invalid connection
  Conn(int fd, util::SocketEnd end);
  ~Conn();

  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to `host`:`port` with a bounded handshake (no indefinite
  /// blocking on an unresponsive address).
  static util::StatusOr<Conn> Connect(const std::string& host, uint16_t port,
                                      double timeout_ms = 5000);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Per-operation deadlines in milliseconds (0 = block indefinitely).
  void set_read_deadline_ms(double ms) { read_deadline_ms_ = ms; }
  void set_write_deadline_ms(double ms) { write_deadline_ms_ = ms; }
  double read_deadline_ms() const { return read_deadline_ms_; }

  /// Sends one frame (header + payload). Refuses payloads above
  /// `max_frame_bytes` locally — the peer would reject them anyway.
  util::Status SendFrame(const std::string& payload, uint32_t max_frame_bytes);

  /// Receives one frame's payload. Typed errors:
  ///   kNotFound           clean EOF before any byte (peer closed);
  ///   kIoError            timeout (see IsTimeout) or transport failure;
  ///   kCorruption         bad magic or EOF mid-frame;
  ///   kResourceExhausted  declared length above `max_frame_bytes`.
  /// With `stop_idle`, the wait for the frame's first byte is cut into
  /// slices of at most `idle_slice_ms`, and the call gives up with the
  /// timeout error at the first slice end where `stop_idle()` is true — an
  /// idle peer then costs at most one slice, not the whole read deadline.
  /// The read deadline itself still runs from the call, as without it.
  util::StatusOr<std::string> RecvFrame(
      uint32_t max_frame_bytes,
      const std::function<bool()>& stop_idle = nullptr,
      double idle_slice_ms = 0);

  /// Graceful close.
  void Close();

  /// Abortive close: SO_LINGER 0, so the peer sees an RST instead of an
  /// orderly FIN. Used by the injected-reset fault to put a real reset on
  /// the wire.
  void HardClose();

  /// Half-close for early replies sent before the request was read (load
  /// shedding): flushes our response, signals no-more-writes, then drains
  /// the peer's unread bytes for up to `drain_ms` so closing cannot RST the
  /// response out of the peer's receive buffer.
  void FinishAndDrain(double drain_ms);

 private:
  util::Status SendAll(const uint8_t* data, size_t len);
  /// Reads exactly `len` bytes by `deadline` unless EOF/fault; *got reports
  /// progress.
  util::Status RecvAll(uint8_t* data, size_t len, size_t* got,
                       std::chrono::steady_clock::time_point deadline);
  /// Waits until the socket is readable (a byte, EOF or an error), polling
  /// in `slice_ms` slices; the timeout error once `deadline` passes or
  /// `stop()` is true at a slice end.
  util::Status AwaitReadable(std::chrono::steady_clock::time_point deadline,
                             const std::function<bool()>& stop,
                             double slice_ms);

  int fd_ = -1;
  util::SocketEnd end_ = util::SocketEnd::kAny;
  double read_deadline_ms_ = 0;
  double write_deadline_ms_ = 0;
};

/// Listening socket bound to 127.0.0.1 (the server fronts one host; a
/// production deployment would put a TLS terminator or mesh proxy in front).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens; port 0 picks an ephemeral port (see port()).
  static util::StatusOr<Listener> Bind(uint16_t port, int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  /// Blocking accept. Fails with kCancelled-like kIoError("listener closed")
  /// once Shutdown() has been called from another thread — the accept loop's
  /// exit signal.
  util::StatusOr<Conn> Accept();

  /// Unblocks Accept() and refuses further connections (drain step 1).
  /// Idempotent; safe from any thread.
  void Shutdown();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace viewjoin::server

#endif  // VIEWJOIN_SERVER_NET_H_
