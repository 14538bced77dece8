#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/fault.hpp"

namespace qfto {
namespace net {

namespace {

bool resolve_ipv4(const std::string& host, in_addr& out) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  return ::inet_pton(AF_INET, numeric.c_str(), &out) == 1;
}

}  // namespace

// ------------------------------------------------------------------ Socket --

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    if (QFTO_FAULT_POINT("net.send.fail")) return false;  // injected reset
    std::size_t chunk = len;
    if (len > 1 && QFTO_FAULT_POINT("net.send.short")) {
      // Injected short write: push only half of what remains so the partial-
      // write continuation below is exercised, not just trusted.
      chunk = len / 2;
    }
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process
    // with SIGPIPE — the writer loop turns the error into cancellation.
    const ssize_t sent = ::send(fd_, p, chunk, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;  // incl. EAGAIN from SO_SNDTIMEO: treat a stuck peer as dead
    }
    if (sent == 0) return false;
    p += sent;
    len -= static_cast<std::size_t>(sent);
  }
  return true;
}

long Socket::recv_some(void* buf, std::size_t len) {
  if (QFTO_FAULT_POINT("net.recv.fail")) {
    errno = ECONNRESET;
    return -1;
  }
  if (QFTO_FAULT_POINT("net.recv.eof")) return 0;  // injected peer close
  for (;;) {
    const ssize_t got = ::recv(fd_, buf, len, 0);
    if (got < 0 && errno == EINTR) continue;
    return static_cast<long>(got);
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::set_send_timeout_ms(int ms) {
  if (fd_ < 0 || ms < 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// ---------------------------------------------------------------- HostPort --

bool parse_host_port(const std::string& text, HostPort& out,
                     std::string& error) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    error = "expected HOST:PORT, got \"" + text + "\"";
    return false;
  }
  const std::string host = text.substr(0, colon);
  in_addr probe;
  if (!resolve_ipv4(host, probe)) {
    error = "cannot resolve \"" + host + "\" (numeric IPv4 or localhost)";
    return false;
  }
  long port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9' || port > 65535) {
      error = "bad port in \"" + text + "\"";
      return false;
    }
    port = port * 10 + (c - '0');
  }
  if (port > 65535) {
    error = "bad port in \"" + text + "\"";
    return false;
  }
  out.host = host;
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

// -------------------------------------------------------------------- dial --

Socket dial(const std::string& host, std::uint16_t port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!resolve_ipv4(host, addr.sin_addr)) {
    if (error != nullptr) *error = "cannot resolve \"" + host + "\"";
    return Socket{};
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    if (error != nullptr) *error = std::strerror(errno);
    return Socket{};
  }
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return Socket{};
  }
  return sock;
}

// ---------------------------------------------------------------- Listener --

Listener::Listener(const std::string& host, std::uint16_t port, int backlog)
    : host_(host) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!resolve_ipv4(host, addr.sin_addr)) {
    throw std::runtime_error("listen: cannot resolve \"" + host + "\"");
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw std::runtime_error(std::string("listen: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("listen: bind " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(sock.fd(), backlog) != 0) {
    throw std::runtime_error(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    throw std::runtime_error(std::string("listen: getsockname: ") +
                             std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  sock_ = std::move(sock);
}

Socket Listener::accept_connection(int timeout_ms, int wake_fd) {
  if (!sock_.valid()) return Socket{};
  pollfd pfds[2];
  pfds[0] = pollfd{};
  pfds[0].fd = sock_.fd();
  pfds[0].events = POLLIN;
  nfds_t nfds = 1;
  if (wake_fd >= 0) {
    pfds[1] = pollfd{};
    pfds[1].fd = wake_fd;
    pfds[1].events = POLLIN;
    nfds = 2;
  }
  const int ready = ::poll(pfds, nfds, timeout_ms);
  if (ready <= 0) return Socket{};  // timeout or poll error
  // A self-pipe byte means "stop requested": return to the caller at once —
  // and deliberately without draining the pipe, so the wake-up latches for
  // any subsequent poll too. Checking it first makes shutdown win ties.
  if (nfds == 2 && (pfds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
    return Socket{};
  }
  if ((pfds[0].revents & POLLIN) == 0) return Socket{};
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) return Socket{};
  // Responses are one small write each; without TCP_NODELAY, Nagle's
  // algorithm holds a response back until the client's delayed ACK for the
  // previous one arrives, adding milliseconds to every pipelined request.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

// -------------------------------------------------------------- LineReader --

bool LineReader::fill() {
  char chunk[16384];
  const long got = sock_->recv_some(chunk, sizeof(chunk));
  if (got <= 0) {
    status_ = got == 0 ? Status::kEof : Status::kError;
    return false;
  }
  buf_.append(chunk, static_cast<std::size_t>(got));
  return true;
}

bool LineReader::next(std::string& line) {
  if (status_ != Status::kOk) return false;
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::size_t len = nl - pos_;
      if (len > 0 && buf_[pos_ + len - 1] == '\r') --len;
      line.assign(buf_, pos_, len);
      pos_ = nl + 1;
      if (pos_ >= buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    // Compact before growing so the bound applies to the unframed tail, not
    // to total connection traffic.
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    if (buf_.size() > max_line_) {
      status_ = Status::kOverflow;
      return false;
    }
    if (!fill()) return false;
  }
}

bool LineReader::read_exact(std::size_t n, std::string& out) {
  if (status_ != Status::kOk) return false;
  out.clear();
  const std::size_t buffered = std::min(n, buf_.size() - pos_);
  out.append(buf_, pos_, buffered);
  pos_ += buffered;
  if (pos_ >= buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  while (out.size() < n) {
    char chunk[16384];
    const long got =
        sock_->recv_some(chunk, std::min(sizeof(chunk), n - out.size()));
    if (got <= 0) {
      status_ = got == 0 ? Status::kEof : Status::kError;
      return false;
    }
    out.append(chunk, static_cast<std::size_t>(got));
  }
  return true;
}

// ------------------------------------------------------------------- retry --

namespace {

// splitmix64: deterministic jitter from (seed, attempt) with no shared state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double backoff_delay(const RetryPolicy& policy, int attempt) {
  if (attempt < 1) attempt = 1;
  double delay = policy.base_seconds;
  for (int i = 1; i < attempt && delay < policy.max_seconds; ++i) {
    delay *= policy.multiplier;
  }
  if (delay > policy.max_seconds) delay = policy.max_seconds;
  if (delay < 0.0) delay = 0.0;
  const std::uint64_t r =
      mix64(policy.jitter_seed + static_cast<std::uint64_t>(attempt));
  const double unit =
      static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  return delay * (0.5 + 0.5 * unit);
}

RetryResult request_with_retry(const std::string& host, std::uint16_t port,
                               const std::string& request_line,
                               const RetryPolicy& policy) {
  std::string line = request_line;
  if (line.empty() || line.back() != '\n') line += '\n';
  RetryResult result;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    if (attempt > 1) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff_delay(policy, attempt - 1)));
    }
    std::string dial_error;
    Socket sock = dial(host, port, &dial_error);
    if (!sock.valid()) {
      result.error = "dial: " + dial_error;
      continue;
    }
    if (!sock.send_all(line)) {
      result.error = "send failed";
      continue;
    }
    LineReader reader(sock);
    std::string response;
    if (!reader.next(response)) {
      result.error = reader.status() == LineReader::Status::kEof
                         ? "connection closed before response"
                         : "read failed";
      continue;
    }
    // The serve taxonomy's transient statuses (timeout, shed) are marked
    // retryable in-band; matched textually so this layer stays JSON-free.
    if (attempt < max_attempts &&
        response.find("\"retryable\":true") != std::string::npos) {
      result.error = "retryable response";
      continue;
    }
    result.ok = true;
    result.response = std::move(response);
    result.error.clear();
    return result;
  }
  return result;
}

// -------------------------------------------------------- LatencyHistogram --

void LatencyHistogram::record(double seconds) {
  int idx = 0;
  if (seconds > kFloorSeconds) {
    idx = static_cast<int>(std::log2(seconds / kFloorSeconds) *
                           kBucketsPerOctave);
    if (idx < 0) idx = 0;
    if (idx >= kBuckets) idx = kBuckets - 1;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double LatencyHistogram::quantile(double q) const {
  std::array<std::uint64_t, kBuckets> snap;
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based; q=1 is the max-holding bucket.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     q * static_cast<double>(total) + 0.5));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[i];
    if (seen >= rank) {
      return kFloorSeconds *
             std::exp2((i + 0.5) / static_cast<double>(kBucketsPerOctave));
    }
  }
  return kFloorSeconds * std::exp2(static_cast<double>(kBuckets) /
                                   kBucketsPerOctave);
}

}  // namespace net
}  // namespace qfto
