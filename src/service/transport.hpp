// Low-level serving transport: RAII POSIX TCP sockets (listener + connection
// + client-side dial), newline framing with a hard line-length bound, and a
// lock-free log-bucketed latency histogram. This is the substrate the
// NetServer (service/net_server.hpp) builds its accept loop on; tests,
// benchmarks and CI smoke clients reuse the same pieces, so client and
// server agree on framing by construction.
//
// IPv4 only (numeric addresses plus "localhost"), blocking sockets with
// poll()-bounded accepts and a send timeout — the bounded-resource serving
// discipline, applied to the socket layer: no operation here can block
// forever on a dead peer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace qfto {
namespace net {

/// Move-only RAII wrapper over a connected socket fd. Reads and writes
/// retry EINTR; send_all additionally loops over partial writes and treats a
/// send timeout (SO_SNDTIMEO, set by the server on accepted sockets) as a
/// dead peer.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Writes all of `data`; false on any error (EPIPE, reset, send timeout).
  bool send_all(const void* data, std::size_t len);
  bool send_all(const std::string& s) { return send_all(s.data(), s.size()); }

  /// One recv: bytes read, 0 on orderly EOF, -1 on error.
  long recv_some(void* buf, std::size_t len);

  /// Half-close the read side: a blocked or future recv returns EOF. Used to
  /// stop a connection's reader from another thread (drain, dead client).
  void shutdown_read();

  /// SO_SNDTIMEO: a send blocked longer than this fails (and send_all treats
  /// it as a dead peer) instead of wedging a writer thread forever on a
  /// stalled client. 0 disables the timeout.
  void set_send_timeout_ms(int ms);

 private:
  int fd_ = -1;
};

struct HostPort {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT" (numeric IPv4 or "localhost"; port 0..65535). False
/// with a message in `error` on malformed input.
bool parse_host_port(const std::string& text, HostPort& out,
                     std::string& error);

/// Client-side TCP connect; invalid Socket (and `error`, when non-null) on
/// failure. Tests, benchmarks and smoke clients use this.
Socket dial(const std::string& host, std::uint16_t port,
            std::string* error = nullptr);

/// Listening IPv4 TCP socket. Binds and listens in the constructor — throws
/// std::runtime_error on failure (address in use, bad host). Port 0 binds an
/// ephemeral port; port() reports the actual one, which is how tests and CI
/// avoid collisions.
class Listener {
 public:
  Listener(const std::string& host, std::uint16_t port, int backlog = 64);

  std::uint16_t port() const { return port_; }
  const std::string& host() const { return host_; }
  bool valid() const { return sock_.valid(); }

  /// Waits up to `timeout_ms` for a connection (poll + accept). Invalid
  /// Socket on timeout or listener failure — callers poll in a loop against
  /// their own stop flag rather than blocking indefinitely. When `wake_fd`
  /// is >= 0 it is polled alongside the listener; readability there (the
  /// self-pipe a signal handler writes to) aborts the wait immediately so a
  /// SIGTERM drain does not sit out the remaining timeout. Accepted sockets
  /// have TCP_NODELAY set.
  Socket accept_connection(int timeout_ms, int wake_fd = -1);

  void close() { sock_.close(); }

 private:
  Socket sock_;
  std::string host_;
  std::uint16_t port_ = 0;
};

/// Buffered newline-framed reader over a Socket: the request framing the
/// server uses, and the response framing clients use. A line longer than
/// `max_line` is a protocol violation (status kOverflow) — the bound is what
/// keeps a hostile client from growing one buffer without limit. A trailing
/// '\r' is stripped so HTTP-style CRLF lines parse transparently.
class LineReader {
 public:
  enum class Status { kOk, kEof, kError, kOverflow };

  explicit LineReader(Socket& sock, std::size_t max_line = 1 << 20)
      : sock_(&sock), max_line_(max_line) {}

  /// Next complete line (terminator removed). False on EOF / error /
  /// overflow — classify with status(). Data after the last newline when EOF
  /// hits is an incomplete frame and is deliberately dropped.
  bool next(std::string& line);

  /// Exactly `n` more bytes (drains the line buffer first) — HTTP bodies.
  bool read_exact(std::size_t n, std::string& out);

  Status status() const { return status_; }

 private:
  bool fill();

  Socket* sock_;
  std::size_t max_line_;
  std::string buf_;
  std::size_t pos_ = 0;
  Status status_ = Status::kOk;
};

/// Client-side retry discipline: jittered exponential backoff. Deterministic
/// given the seed, so tests can assert the exact delay schedule.
struct RetryPolicy {
  int max_attempts = 4;        // total tries, including the first
  double base_seconds = 0.05;  // delay before the first retry
  double multiplier = 2.0;     // growth per retry
  double max_seconds = 1.0;    // backoff ceiling (pre-jitter)
  std::uint64_t jitter_seed = 1;
};

/// Delay before retry number `attempt` (1-based: the delay between try 1 and
/// try 2 is attempt=1). Exponential growth clamped to max_seconds, then
/// scaled by a deterministic jitter factor in [0.5, 1.0] — full-jitter halves
/// thundering herds without making test schedules unpredictable.
double backoff_delay(const RetryPolicy& policy, int attempt);

struct RetryResult {
  bool ok = false;     // a response line was received (it may still carry
                       // an in-band non-retryable failure)
  int attempts = 0;    // tries consumed
  std::string response;  // the response line (when ok)
  std::string error;     // last transport error (when !ok)
};

/// One-request client with the retry discipline the serve protocol's
/// `retryable` flag asks for: dial, send `request_line` (a '\n' is appended
/// when missing), read one response line. Retries — after backoff_delay —
/// on dial/send failure, connection loss before a full line, and on
/// responses flagged `"retryable":true` (matched textually; the transport
/// layer deliberately does not parse the serve JSON). Non-retryable
/// responses return immediately with ok = true.
RetryResult request_with_retry(const std::string& host, std::uint16_t port,
                               const std::string& request_line,
                               const RetryPolicy& policy = RetryPolicy{});

/// Wait-free log-bucketed latency histogram: ~1 µs to ~18 minutes at four
/// buckets per octave (~19% relative resolution). record() is one relaxed
/// fetch_add, so every connection thread stamps into one shared instance
/// without a lock; quantile() sweeps a relaxed snapshot — monitoring-grade,
/// not a barrier.
class LatencyHistogram {
 public:
  void record(double seconds);

  /// Approximate q-quantile (0 < q <= 1) in seconds: the geometric midpoint
  /// of the bucket holding the q-th sample. 0 when empty.
  double quantile(double q) const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kBuckets = 120;  // 30 octaves above 1 µs
  static constexpr double kFloorSeconds = 1e-6;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace net
}  // namespace qfto
