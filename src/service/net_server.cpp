#include "service/net_server.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <istream>
#include <ostream>

#include "common/fault.hpp"

namespace qfto {
namespace net {

namespace {

/// First line of a connection: HTTP request line or a JSON object? The JSON
/// protocol's lines start with '{', so a method prefix is unambiguous.
bool looks_http(const std::string& line) {
  return (line.rfind("GET ", 0) == 0 || line.rfind("POST ", 0) == 0 ||
          line.rfind("HEAD ", 0) == 0) &&
         line.find(" HTTP/1.") != std::string::npos;
}

std::string http_response(const char* status, const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  out += std::to_string(body.size() + 1);
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  out += '\n';
  return out;
}

bool iequals(const std::string& a, const char* b) {
  std::size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

/// One queued response slot: either a JobHandle the writer will wait on, or
/// a pre-formatted immediate body (parse errors, shed notices, metrics).
struct Pending {
  std::string id = "null";
  JobHandle handle;
  std::string immediate;
  bool http = false;
  const char* http_status = "200 OK";  // used when `http` is set
};

/// What tells one front-end's session from another's, fixed in code where
/// the front-end builds it.
struct Limits {
  bool sheds = false;            // admission control (and serve.admit.shed)
  std::size_t max_inflight = 0;  // global submitted-but-unanswered; 0 = none
  std::size_t max_pending = 0;   // jobs queued in this session; 0 = none
  std::size_t backlog = 0;       // queue entries at which push() blocks
};

/// The response pipeline of one request stream — a socket connection or the
/// stdio pair. The reader thread turns each payload into a queue entry
/// (make_entry), queues it under back-pressure (push) and finally calls
/// finish_reading(); one writer thread runs write_loop(), which answers the
/// entries in request order and, if the client dies, cancels the backlog.
class Session {
 public:
  Session(MappingService& service, ServeMetrics& metrics, Limits limits)
      : service_(service), metrics_(metrics), limits_(limits) {}

  /// Parse → admit → submit for one request payload.
  Pending make_entry(std::string_view payload) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    Pending entry;
    ServeRequest req = parse_serve_request(payload);
    metrics_.record_request(req);
    entry.id = req.id;
    if (!req.ok) {
      metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      JobResult rejected;
      rejected.status = JobStatus::kFailed;
      rejected.error = req.error;
      entry.immediate = serve_response_json(req.id, rejected);
      entry.http_status = "400 Bad Request";
      return entry;
    }
    if (req.metrics) {
      entry.immediate = metrics_json(service_, metrics_);
      return entry;
    }
    const std::string shed = admission_refusal();
    if (!shed.empty()) {
      metrics_.shed.fetch_add(1, std::memory_order_relaxed);
      entry.immediate = serve_inband_error(req.id, "shed", shed);
      entry.http_status = "503 Service Unavailable";
      return entry;
    }
    entry.handle = service_.submit(std::move(req.request), req.submit);
    metrics_.in_flight.fetch_add(1, std::memory_order_relaxed);
    return entry;
  }

  /// Queues `entry`, blocking while `backlog` entries wait — a client that
  /// writes without reading cannot grow the queue without bound. False once
  /// the client is dead: the entry is dropped and the reader should stop.
  bool push(Pending entry) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock,
               [&] { return dead_ || pending_.size() < limits_.backlog; });
      if (!dead_) {
        if (entry.handle.valid()) ++jobs_pending_;
        pending_.push_back(std::move(entry));
        lock.unlock();
        cv_.notify_all();
        return true;
      }
    }
    abandon(entry);  // the writer is gone; nobody will drain this entry
    return false;
  }

  void finish_reading() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reader_done_ = true;
    }
    cv_.notify_all();
  }

  /// Answers queued entries in request order through
  /// `send(const Pending&, const std::string& body) -> bool` until the
  /// reader has finished and the queue is empty (returns true) or a send
  /// fails (returns false, with every queued job cancelled — the pool must
  /// not grind through work nobody can receive).
  template <class Send>
  bool write_loop(const Send& send) {
    for (;;) {
      Pending entry;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return reader_done_ || !pending_.empty(); });
        if (pending_.empty()) return true;  // drained
        entry = std::move(pending_.front());
        pending_.pop_front();
        if (entry.handle.valid()) {
          --jobs_pending_;
          writing_ = entry.handle;  // cancel_all() may flip it while we wait
        }
      }
      cv_.notify_all();  // the reader may be waiting on the backlog bound

      std::string body = std::move(entry.immediate);
      if (entry.handle.valid()) {
        const JobResult result = entry.handle.wait();
        metrics_.record_result(result);
        metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
        body = serve_response_json(entry.id, result);
        std::lock_guard<std::mutex> lock(mutex_);
        writing_ = JobHandle();
      }
      if (!send(entry, body)) break;
      metrics_.responses.fetch_add(1, std::memory_order_relaxed);
    }
    std::deque<Pending> orphans;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      dead_ = true;
      orphans.swap(pending_);
      jobs_pending_ = 0;
    }
    cv_.notify_all();
    for (Pending& orphan : orphans) abandon(orphan);
    return false;
  }

  /// Drain past its budget: flips the cancel token of every queued job and
  /// of the one the writer waits on; their answers still go out in order.
  void cancel_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Pending& entry : pending_) {
      if (entry.handle.valid()) entry.handle.cancel();
    }
    if (writing_.valid()) writing_.cancel();
  }

 private:
  /// Why admission control rejects the next job, or "" to admit it. Both
  /// bounds are advisory point-in-time reads — two racing readers may both
  /// admit at the edge — which is fine: the bound exists to stop unbounded
  /// queue growth, not to be an exact semaphore.
  std::string admission_refusal() {
    if (!limits_.sheds) return "";
    if (QFTO_FAULT_POINT("serve.admit.shed")) {
      return "injected fault: admission rejected; retry later";
    }
    if (limits_.max_inflight > 0 &&
        metrics_.in_flight.load(std::memory_order_relaxed) >=
            static_cast<std::int64_t>(limits_.max_inflight)) {
      return "server at max in-flight jobs (" +
             std::to_string(limits_.max_inflight) + "); retry later";
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (limits_.max_pending > 0 && jobs_pending_ >= limits_.max_pending) {
      return "connection at max pending requests (" +
             std::to_string(limits_.max_pending) +
             "); read responses before sending more";
    }
    return "";
  }

  /// Cancels an entry no writer will answer.
  void abandon(Pending& entry) {
    if (entry.handle.valid()) {
      entry.handle.cancel();
      metrics_.in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  MappingService& service_;
  ServeMetrics& metrics_;
  const Limits limits_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;   // response queue, request order
  std::size_t jobs_pending_ = 0;  // entries in `pending_` that carry a job
  JobHandle writing_;             // job the writer is currently waiting on
  bool reader_done_ = false;
  bool dead_ = false;  // a send failed; the client is abandoned
};

}  // namespace

struct NetServer::Connection {
  Connection(Socket s, MappingService& service, ServeMetrics& metrics,
             const Limits& limits)
      : sock(std::move(s)), session(service, metrics, limits) {}

  Socket sock;
  Session session;

  /// Both threads have exited — the accept loop may join and reap.
  std::atomic<int> exited{0};
  std::atomic<bool> finished{false};

  std::thread reader;
  std::thread writer;

  void mark_exited() {
    if (exited.fetch_add(1, std::memory_order_acq_rel) + 1 == 2) {
      finished.store(true, std::memory_order_release);
    }
  }
};

// --------------------------------------------------------------- NetServer --

NetServer::NetServer(MappingService& service, Options options)
    : service_(&service),
      options_(std::move(options)),
      listener_(options_.host, options_.port) {
  // Self-pipe for signal-safe shutdown wake-ups. Non-blocking on both ends:
  // the handler's write must never block (a full pipe just means the wake-up
  // is already latched). On failure the fds stay -1 and the accept loop
  // falls back to its poll timeout — slower to stop, still correct.
  if (::pipe(wake_pipe_) == 0) {
    for (int fd : wake_pipe_) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
  } else {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

NetServer::~NetServer() {
  request_stop();
  stop_and_drain();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void NetServer::request_stop() {
  // Async-signal-safe: atomic store + write(). Nothing here may take a lock
  // or allocate — the CLI's SIGTERM handler calls this directly.
  stop_.store(true, std::memory_order_relaxed);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  }
}

void NetServer::run() {
  accept_loop();
}

void NetServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void NetServer::accept_loop() {
  // Socket clients are shed past either bound; the reader stalls further
  // above the per-connection one, so shed notices still queue.
  Limits limits;
  limits.sheds = true;
  limits.max_inflight = options_.max_inflight;
  limits.max_pending = options_.max_pending_per_conn;
  limits.backlog = options_.max_pending_per_conn + 64;
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket sock = listener_.accept_connection(50, wake_pipe_[0]);
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      reap_finished_locked();
    }
    if (!sock.valid()) continue;  // poll timeout — re-check the stop flag
    sock.set_send_timeout_ms(options_.send_timeout_ms);
    auto conn = std::make_unique<Connection>(std::move(sock), *service_,
                                             metrics_, limits);
    Connection* c = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    c->reader = std::thread([this, c] { serve_connection(*c); });
    c->writer = std::thread([c] {
      const auto send = [c](const Pending& entry, const std::string& body) {
        return entry.http
                   ? c->sock.send_all(http_response(entry.http_status, body))
                   : c->sock.send_all(body + "\n");
      };
      // A dead client: wake a reader blocked in recv so it stops too.
      if (!c->session.write_loop(send)) c->sock.shutdown_read();
      c->mark_exited();
    });
  }
}

void NetServer::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = **it;
    if (c.finished.load(std::memory_order_acquire)) {
      if (c.reader.joinable()) c.reader.join();
      if (c.writer.joinable()) c.writer.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::serve_connection(Connection& conn) {
  LineReader reader(conn.sock, options_.max_line);
  std::string line;
  bool first = true;
  while (reader.next(line)) {
    if (first && looks_http(line)) {
      serve_http(conn, reader, line);
      break;
    }
    first = false;
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (!conn.session.push(conn.session.make_entry(line))) break;
  }
  if (reader.status() == LineReader::Status::kOverflow) {
    // Protocol violation: report in-band, then stop reading — the rest of
    // the stream has no trustworthy framing.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    Pending entry;
    entry.immediate = serve_inband_error(
        "null", "error",
        "request line exceeds " + std::to_string(options_.max_line) +
            " bytes");
    conn.session.push(std::move(entry));
  }
  conn.session.finish_reading();
  conn.mark_exited();
}

void NetServer::serve_http(Connection& conn, LineReader& reader,
                           const std::string& request_line) {
  const auto simple = [&](const char* status, const std::string& word,
                          const std::string& error) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    Pending entry;
    entry.http = true;
    entry.http_status = status;
    entry.immediate = serve_inband_error("null", word, error);
    conn.session.push(std::move(entry));
  };

  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.find(' ', sp1 + 1);
  const std::string method = request_line.substr(0, sp1);
  const std::string path =
      sp2 == std::string::npos ? "" : request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  // Headers: only Content-Length matters to this adapter.
  long long content_length = -1;
  std::string line;
  while (reader.next(line)) {
    if (line.empty()) break;  // end of headers (CRLF already stripped)
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    if (iequals(key, "content-length")) {
      content_length = std::strtoll(line.c_str() + colon + 1, nullptr, 10);
    }
  }

  if (method == "GET" && path == "/metrics") {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    Pending entry;
    entry.http = true;
    entry.immediate = metrics_json(*service_, metrics_);
    conn.session.push(std::move(entry));
    return;
  }
  if (method == "POST" && path == "/map") {
    if (content_length < 0 ||
        content_length > static_cast<long long>(options_.max_line)) {
      simple("411 Length Required", "error",
             "POST /map requires a Content-Length within the line bound");
      return;
    }
    std::string body;
    if (!reader.read_exact(static_cast<std::size_t>(content_length), body)) {
      return;  // body never arrived; nothing to answer
    }
    Pending entry = conn.session.make_entry(body);
    entry.http = true;
    conn.session.push(std::move(entry));
    return;
  }
  simple("404 Not Found", "error",
         "unsupported endpoint (GET /metrics, POST /map)");
}

void NetServer::stop_and_drain() {
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (drained_) return;
  drained_ = true;
  listener_.close();

  // Half-close every connection: blocked readers wake with EOF, no further
  // requests are admitted, writers keep draining queued responses.
  std::vector<Connection*> live;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    live.reserve(conns_.size());
    for (auto& conn : conns_) live.push_back(conn.get());
  }
  for (Connection* conn : live) conn->sock.shutdown_read();

  // Drain budget: let in-flight jobs finish and responses flush.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(std::max(0.0, options_.drain_seconds));
  const auto all_finished = [&] {
    return std::all_of(live.begin(), live.end(), [](Connection* c) {
      return c->finished.load(std::memory_order_acquire);
    });
  };
  while (!all_finished() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Past the budget: flip cancel tokens on everything still pending or
  // being waited on. Writers then complete quickly (cancelled results) and
  // connections wind down.
  if (!all_finished()) {
    for (Connection* conn : live) conn->session.cancel_all();
  }

  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  conns_.clear();
}

}  // namespace net

// ---------------------------------------------------------- stdio loop --

int run_serve_loop(std::istream& in, std::ostream& out,
                   MappingService& service) {
  // stdio never sheds: the reader blocks once 256 responses are queued.
  net::Limits limits;
  limits.backlog = 256;
  ServeMetrics metrics;
  net::Session session(service, metrics, limits);
  bool delivered = true;
  std::thread writer([&] {
    delivered = session.write_loop([&](const net::Pending&,
                                       const std::string& body) {
      out << body << '\n' << std::flush;
      return static_cast<bool>(out);
    });
  });
  // A final line without '\n' is still a request (std::getline semantics).
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!session.push(session.make_entry(line))) break;
  }
  session.finish_reading();
  writer.join();
  return delivered ? 0 : 1;
}

}  // namespace qfto
