// Open-loop load generation. Requests are sent on a fixed schedule whatever
// the responses do, and each one is timed from when it was *due*, not from
// when it was sent: a stall (a slow response ahead of it on its connection,
// or a sender blocked in a write) is charged to every request due while it
// lasts, instead of silently thinning the load.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Timing {
  double due = 0.0;
  double sent = -1.0;  // < 0: never sent
  double done = -1.0;  // < 0: no response
  bool answered() const { return done >= 0.0; }
  double latency() const { return done - due; }
  double lateness() const { return sent - due; }
};

/// Drives `due` (ascending absolute times on `link.now()`'s clock) through
/// `link`, which provides:
///   double now();
///   void send(std::size_t i);      // send request i; may block
///   void wait(double until, std::vector<std::size_t>& completed);
///        // block until `until` or until at least one response arrived;
///        // append the indices answered
/// Every request whose due time has passed is sent at once, however far
/// behind the loop is. Returns once every request is answered, or when no
/// response has arrived for `idle_timeout` seconds after the last send
/// (unanswered requests keep done < 0).
template <class Link>
std::vector<Timing> run_open_loop(const std::vector<double>& due, Link& link,
                                  double idle_timeout) {
  const std::size_t n = due.size();
  std::vector<Timing> t(n);
  for (std::size_t i = 0; i < n; ++i) t[i].due = due[i];
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<std::size_t> completed;
  double last_progress = link.now();
  while (answered < n) {
    while (next < n && due[next] <= link.now()) {
      link.send(next);
      t[next].sent = link.now();
      ++next;
      last_progress = t[next - 1].sent;
    }
    const double until =
        next < n ? due[next] : last_progress + idle_timeout;
    completed.clear();
    link.wait(until, completed);
    const double stamp = link.now();
    for (const std::size_t i : completed) {
      if (t[i].done < 0.0) {
        t[i].done = stamp;
        ++answered;
      }
    }
    if (!completed.empty()) last_progress = stamp;
    if (next == n && stamp - last_progress >= idle_timeout) break;
  }
  return t;
}

}  // namespace perfbench
