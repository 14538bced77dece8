// serve_mixed: the light request stream answered through run_serve_loop
// (the `qftmap --serve` pipe path), then open-loop TCP traffic into an
// in-process NetServer with a fixed worker count. The mix is mostly
// millisecond requests, so transport, parsing, the queue, the cache and
// serialization carry most of the time: repeated QFT keys (cache reads),
// distinct QFT keys over more keys than the cache holds (misses, inserts,
// evictions), small OpenQASM circuits via sabre, inline calibrated devices,
// and a small share of device-scale QFT so cached bytes grow. Latency is
// timed at the client from when each request was due; the server's own
// /metrics map_seconds quantiles are reported beside it.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "openloop.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "service/mapping_service.hpp"
#include "service/net_server.hpp"
#include "service/serve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qfto::MapperPipeline;
using qfto::MappingService;
using qfto::net::NetServer;
using qfto::net::Socket;

MappingService::Options service_options() {
  MappingService::Options o;
  o.num_threads = cfg::kWorkers;
  o.cache_capacity = cfg::kCacheCapacity;
  return o;
}

/// Declaration order is teardown order in reverse: client sockets close
/// first, then the server drains, then the service and the pipeline go.
struct ServeSetup {
  std::unique_ptr<MapperPipeline> pipeline;
  std::unique_ptr<MappingService> service;
  std::unique_ptr<NetServer> server;
  std::vector<Socket> conns;
};

ServeSetup make_frontend() {
  ServeSetup s;
  s.pipeline =
      std::make_unique<MapperPipeline>(MapperPipeline::with_paper_engines());
  s.service = std::make_unique<MappingService>(service_options(), *s.pipeline);
  s.server = std::make_unique<NetServer>(*s.service, NetServer::Options{});
  s.server->start();
  for (int c = 0; c < cfg::kConnections; ++c) {
    std::string err;
    Socket sock = qfto::net::dial(s.server->host(), s.server->port(), &err);
    if (!sock.valid()) throw std::runtime_error("dial: " + err);
    // The load generator must not add Nagle delays of its own.
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    s.conns.push_back(std::move(sock));
  }
  return s;
}

/// Open-loop link over the client connections: request i goes out on
/// connection i % k; responses come back in per-connection request order.
class TcpLink {
 public:
  TcpLink(std::vector<Socket>& conns, const std::vector<ServeReq>& reqs)
      : responses(reqs.size()), conns_(conns), reqs_(reqs),
        pending_(conns.size()), bufs_(conns.size()) {}

  /// Response line of each request, filled as it arrives.
  std::vector<std::string> responses;

  double now() const { return now_s(); }

  void send(std::size_t i) {
    const std::size_t c = i % conns_.size();
    pending_[c].push_back(i);
    const std::string line = reqs_[i].line + "\n";
    if (!conns_[c].send_all(line)) throw std::runtime_error("send failed");
  }

  void wait(double until, std::vector<std::size_t>& completed) {
    std::vector<pollfd> fds;
    for (const Socket& s : conns_) fds.push_back({s.fd(), POLLIN, 0});
    const double dt = std::max(0.0, until - now());
    timespec ts;
    ts.tv_sec = static_cast<time_t>(dt);
    ts.tv_nsec = static_cast<long>((dt - static_cast<double>(ts.tv_sec)) * 1e9);
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    char chunk[1 << 16];
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const long got = conns_[c].recv_some(chunk, sizeof chunk);
      if (got <= 0) throw std::runtime_error("connection closed by server");
      std::string& buf = bufs_[c];
      buf.append(chunk, static_cast<std::size_t>(got));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        if (pending_[c].empty()) throw std::runtime_error("unsolicited line");
        const std::size_t i = pending_[c].front();
        pending_[c].pop_front();
        responses[i] = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        completed.push_back(i);
      }
    }
  }

 private:
  std::vector<Socket>& conns_;
  const std::vector<ServeReq>& reqs_;
  std::vector<std::deque<std::size_t>> pending_;
  std::vector<std::string> bufs_;
};

struct PhaseResult {
  std::vector<Timing> timing;
  std::vector<Response> resp;
  std::vector<double> latency_ms;  // answered, passing requests only
  std::int64_t failed = 0;         // failed checks + unanswered
  double wall = 0.0;
};

/// Runs one open-loop phase and checks every response.
PhaseResult run_phase(const std::string& name, const ServePhase& phase,
                      ServeSetup& s, const ExpectedTable& table,
                      Tracer& tracer, Report& rep) {
  TcpLink link(s.conns, phase.reqs);
  const double t0 = now_s() + 0.01;
  std::vector<double> due;
  for (const double off : phase.offsets) due.push_back(t0 + off);
  Scope span(tracer, "phase." + name);
  PhaseResult out;
  out.timing = run_open_loop(due, link, cfg::kIdleTimeout);
  double last = t0;
  for (std::size_t i = 0; i < phase.reqs.size(); ++i) {
    const Timing& t = out.timing[i];
    out.resp.push_back(parse_response(link.responses[i]));
    if (!t.answered()) {
      rep.count_missing(name, 1);
      ++out.failed;
      continue;
    }
    tracer.record("net.request", t.due, t.done,
                  static_cast<std::int64_t>(i));
    last = std::max(last, t.done);
    const Verdict v = check_response(out.resp[i], phase.reqs[i], table);
    rep.count(name, v);
    if (v.ok()) {
      out.latency_ms.push_back(t.latency() * 1e3);
    } else {
      ++out.failed;
    }
  }
  out.wall = last - t0;
  return out;
}

/// Latency at the highest percentile with >= 10 samples beyond it.
double tail_ms(const std::vector<double>& ms, double& pct) {
  pct = tail_percentile(ms.size());
  return quantile(ms, pct / 100.0);
}

/// A rung meets the limit when nothing failed, its tail latency is within
/// the limit, and so is the median of its last tenth (no growing backlog).
bool rung_passes(const PhaseResult& r) {
  if (r.failed > 0) return false;
  double pct = 0.0;
  if (tail_ms(r.latency_ms, pct) > cfg::kLatencyLimitMs) return false;
  std::vector<double> tail_tenth;
  const std::size_t n = r.timing.size();
  for (std::size_t i = n - n / 10; i < n; ++i) {
    tail_tenth.push_back(r.timing[i].latency() * 1e3);
  }
  return median(tail_tenth) <= cfg::kLatencyLimitMs;
}

std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

struct StdioPass {
  int rc = -1;           // run_serve_loop's return code
  double wall_s = 0.0;   // time to answer the stream
  double peak_mb = 0.0;  // the answering process's peak resident set
  std::string out;       // its response lines
};

/// Answers `requests` through run_serve_loop with a fresh MappingService in
/// a forked child, which sends back its return code, time, peak resident
/// set and output through a pipe. The child inherits `pipeline` and the
/// inputs; this process must have no other thread at the fork.
StdioPass stdio_pass(const MapperPipeline& pipeline,
                     const std::string& requests) {
  // A joined thread can linger in /proc/self/task while the kernel
  // finishes its exit; wait that out before forking.
  for (int ms = 0; thread_count() != 1; ++ms) {
    if (ms == 2000) throw std::logic_error("stdio pass: threads running");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int fd[2];
  if (::pipe(fd) != 0) throw std::runtime_error("stdio pass: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("stdio pass: fork failed");
  if (pid == 0) {
    ::close(fd[0]);
    std::string msg = "-1 0 0\n";
    reset_peak_rss();  // the peak is this pass's, not the parent's
    try {
      MappingService service(service_options(), pipeline);
      std::istringstream sin(requests);
      std::ostringstream sout;
      const double t0 = now_s();
      const int rc = qfto::run_serve_loop(sin, sout, service);
      const double wall = now_s() - t0;
      char head[96];
      std::snprintf(head, sizeof head, "%d %.9f %.6f\n", rc, wall,
                    peak_rss_mb());
      msg = head + sout.str();
    } catch (...) {
    }
    for (std::size_t at = 0; at < msg.size();) {
      const ssize_t n = ::write(fd[1], msg.data() + at, msg.size() - at);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      at += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fd[1]);
  std::string got;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  StdioPass pass;
  const std::size_t nl = got.find('\n');
  if (nl == std::string::npos ||
      std::sscanf(got.c_str(), "%d %lf %lf", &pass.rc, &pass.wall_s,
                  &pass.peak_mb) != 3) {
    throw std::runtime_error("stdio pass: no result from the child");
  }
  pass.out = got.substr(nl + 1);
  return pass;
}

/// Client round trips and worker time (map + check seconds) of one request
/// class over the light and heavy phases.
struct ClassSums {
  std::vector<double> rtt_ms;
  double work_s = 0.0;
  int hits = 0;
};

const char* kind_name(ReqKind kind) {
  switch (kind) {
    case ReqKind::kHot: return "hot";
    case ReqKind::kDistinct: return "distinct";
    case ReqKind::kQasm: return "qasm";
    case ReqKind::kDevice: return "device";
    case ReqKind::kScale: return "scale";
  }
  return "?";
}

double metrics_quantile(const std::string& doc, const char* hist,
                        const char* q) {
  const std::size_t at = doc.find(std::string("\"") + hist + "\":{");
  if (at == std::string::npos) return 0.0;
  const std::string pat = std::string("\"") + q + "\":";
  const std::size_t p = doc.find(pat, at);
  return p == std::string::npos ? 0.0 : std::atof(doc.c_str() + p + pat.size());
}

std::string fetch_metrics(Socket& sock) {
  const std::string req = "{\"id\":\"metrics\",\"metrics\":true}\n";
  if (!sock.send_all(req)) return "";
  qfto::net::LineReader reader(sock);
  std::string line;
  return reader.next(line) ? line : "";
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Report& rep) {
  const ServeInputs in = gen_serve(args.seed);
  note_inputs(rep, serialize(in));

  const double start = now_s();
  const ExpectedTable& table = *args.expected;
  Tracer tracer(args.trace);
  SetupClock clock;

  // ------------------------------------------------------- stdio passes --
  // Each pass runs in a process of its own, forked while this one has no
  // threads, as a fresh `qftmap --serve` process answers a request file.
  const MapperPipeline stdio_pipeline = MapperPipeline::with_paper_engines();
  const std::vector<ServeReq>& stdio_reqs = in.light.reqs;
  std::string stdio_in;
  for (const ServeReq& r : stdio_reqs) stdio_in += r.line + "\n";
  std::vector<double> stdio_s, stdio_peak_mb;
  double depth = 0.0, swaps = 0.0, fid = 0.0;
  while (static_cast<int>(stdio_s.size()) < cfg::kMinPasses ||
         now_s() - start < args.seconds * cfg::kStdioShare) {
    clock.sample(make_frontend, cfg::kSetupsPerPass);
    const StdioPass pass = stdio_pass(stdio_pipeline, stdio_in);
    stdio_s.push_back(pass.wall_s);
    stdio_peak_mb.push_back(pass.peak_mb);
    std::istringstream lines(pass.out);
    std::string line;
    std::size_t i = 0;
    const bool first = stdio_s.size() == 1;
    while (std::getline(lines, line) && i < stdio_reqs.size()) {
      const Response resp = parse_response(line);
      rep.count("stdio",
                pass.rc == 0 ? check_response(resp, stdio_reqs[i], table)
                             : Verdict::refused("run_serve_loop returned " +
                                                std::to_string(pass.rc)));
      if (first && resp.verified) {
        depth += static_cast<double>(resp.depth);
        swaps += static_cast<double>(resp.swap);
        fid += resp.log10_fidelity;
      }
      ++i;
    }
    rep.count_missing("stdio",
                      static_cast<std::int64_t>(stdio_reqs.size() - i));
  }
  clock.sample(make_frontend, clock.remaining() - 1);
  ServeSetup s = clock.keep(make_frontend);

  // --------------------------------------------------- open-loop phases --
  const PhaseResult light = run_phase("light", in.light, s, table, tracer, rep);
  const PhaseResult heavy = run_phase("heavy", in.heavy, s, table, tracer, rep);
  double max_rate = 0.0;
  for (std::size_t k = 0; k < in.rungs.size(); ++k) {
    const std::string name = "rung" + std::to_string(k);
    const PhaseResult r = run_phase(name, in.rungs[k], s, table, tracer, rep);
    const bool pass = rung_passes(r);
    double pct = 0.0;
    const double tail = tail_ms(r.latency_ms, pct);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s p50=%.2fms p%g=%.2fms%s",
                  pass ? "pass" : "miss", quantile(r.latency_ms, 0.5), pct,
                  tail, r.failed > 0 ? " with failures" : "");
    rep.note("rung." + std::to_string(static_cast<int>(cfg::kLadder[k])), buf);
    if (!pass) break;
    max_rate = cfg::kLadder[k];
  }
  const double net_peak_mb = peak_rss_mb();
  const std::string metrics_doc = fetch_metrics(s.conns[0]);
  const auto cache = s.service->cache_stats();
  const auto shed = s.server->metrics().shed.load();

  rep.note("stdio_passes", std::to_string(stdio_s.size()));
  rep.note("workers", std::to_string(cfg::kWorkers));
  rep.note("cache_capacity", std::to_string(cfg::kCacheCapacity));
  rep.note("latency_limit_ms", std::to_string(cfg::kLatencyLimitMs));
  const SetupTimes setup = clock.times();
  rep.e2e("setup_s", setup.median, "s");
  rep.e2e("wall_s", median(stdio_s), "s");
  rep.e2e("peak_rss_mb", median(stdio_peak_mb), "MB");
  rep.e2e("out_depth", depth, "cycles");
  rep.e2e("out_swaps", swaps, "count");
  rep.e2e("out_neg_log10_fidelity", -fid, "log10");
  if (!args.trace) return;

  // ---------------------------------------------------- per-layer view --
  rep.layer("setup.first_s", setup.first);
  for (const auto* p : {&light, &heavy}) {
    const std::string tag = p == &light ? "light" : "heavy";
    double pct = 0.0;
    const double tail = tail_ms(p->latency_ms, pct);
    rep.layer("req_p50_ms." + tag, quantile(p->latency_ms, 0.5));
    rep.layer("req_p99_ms." + tag, tail);
    rep.layer("req_samples." + tag, static_cast<double>(p->latency_ms.size()));
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", pct);
    rep.note("req_tail_percentile." + tag, buf);
  }
  std::vector<double> queue_s, overhead_ms, lag_ms, hit_ms, miss_ms;
  double busy = 0.0, rtt_sum = 0.0;
  std::map<ReqKind, ClassSums> by_kind;
  for (const auto* p : {&light, &heavy}) {
    const std::vector<ServeReq>& reqs = p == &light ? in.light.reqs
                                                    : in.heavy.reqs;
    for (std::size_t i = 0; i < p->timing.size(); ++i) {
      const Timing& t = p->timing[i];
      const Response& r = p->resp[i];
      lag_ms.push_back(t.lateness() * 1e3);
      if (!t.answered() || !r.ok) continue;
      const double rtt = t.done - t.sent;
      queue_s.push_back(r.queue_s);
      overhead_ms.push_back((rtt - r.queue_s - r.map_s - r.check_s) * 1e3);
      (r.cache_hit ? hit_ms : miss_ms).push_back(rtt * 1e3);
      busy += r.map_s + r.check_s;
      rtt_sum += rtt;
      ClassSums& c = by_kind[reqs[i].kind];
      c.rtt_ms.push_back(rtt * 1e3);
      c.work_s += r.map_s + r.check_s;
      c.hits += r.cache_hit ? 1 : 0;
    }
  }
  // Where the round trips went, per request class: the basis for the mix.
  for (const auto& [kind, c] : by_kind) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "requests=%zu hits=%d rtt_ms_p50=%.3f work_ms_mean=%.3f",
                  c.rtt_ms.size(), c.hits, quantile(c.rtt_ms, 0.5),
                  c.work_s * 1e3 / static_cast<double>(c.rtt_ms.size()));
    rep.note(std::string("class.") + kind_name(kind), buf);
  }
  rep.layer("serve.work_share", rtt_sum > 0.0 ? busy / rtt_sum : 0.0);
  rep.layer("service.queue_s_p50", quantile(queue_s, 0.5));
  rep.layer("service.queue_s_p99", quantile(queue_s, 0.99));
  rep.layer("service.worker_busy_frac",
            busy / (cfg::kWorkers * (light.wall + heavy.wall)));
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  rep.layer("cache.hit_frac",
            lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  rep.layer("cache.hit_ms_p50", quantile(hit_ms, 0.5));
  rep.layer("cache.miss_ms_p50", quantile(miss_ms, 0.5));
  rep.layer("cache.evictions", static_cast<double>(cache.evictions));
  rep.layer("net.overhead_ms_p50", quantile(overhead_ms, 0.5));
  rep.layer("net.overhead_ms_p99", quantile(overhead_ms, 0.99));
  rep.layer("net.shed", static_cast<double>(shed));
  rep.layer("gen.lag_ms_p99", quantile(lag_ms, 0.99));
  rep.layer("server.map_ms_p50",
            metrics_quantile(metrics_doc, "map_seconds", "p50") * 1e3);
  rep.layer("server.map_ms_p99",
            metrics_quantile(metrics_doc, "map_seconds", "p99") * 1e3);
  rep.layer("max_rate_rps", max_rate);
  rep.layer("net.peak_rss_mb", net_peak_mb);
  rep.layer("stdio_wall_s", median(stdio_s));

  // Parse and format, timed call by call on the light stream.
  MappingService service(service_options(), *s.pipeline);
  std::vector<double> parse_us, format_us;
  for (std::size_t i = 0; i < in.light.reqs.size(); ++i) {
    const double t0 = now_s();
    qfto::ServeRequest req = [&] {
      Scope sp(tracer, "serve.parse", static_cast<std::int64_t>(i));
      return qfto::parse_serve_request(in.light.reqs[i].line);
    }();
    parse_us.push_back((now_s() - t0) * 1e6);
    if (!req.ok) {
      rep.count("serve_calls", Verdict::wrong("parse: " + req.error));
      continue;
    }
    const qfto::JobResult out =
        service.submit(std::move(req.request), req.submit).wait();
    const double t1 = now_s();
    std::string line = [&] {
      Scope sp(tracer, "serve.format", static_cast<std::int64_t>(i));
      return qfto::serve_response_json(req.id, out);
    }();
    format_us.push_back((now_s() - t1) * 1e6);
    rep.count("serve_calls",
              check_response(parse_response(line), in.light.reqs[i], table));
  }
  rep.layer("serve.parse_us_p50", median(parse_us));
  rep.layer("serve.format_us_p50", median(format_us));
  write_spans(args, tracer);
}

}  // namespace perfbench
