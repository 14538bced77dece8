// The four workloads. Each runs in its own process, times its set-up
// several times over the run (setup_s is the median), measures for the
// requested number of seconds, checks every output, and fills a Report.
// With `trace` set the run records spans around its calls into each qfto
// layer and fills the per-layer metrics instead.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "config.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
  const ExpectedTable* expected = nullptr;
};

void run_qft_device_scale(const RunArgs& args, Report& report);
void run_route_device(const RunArgs& args, Report& report);
void run_sat_exact(const RunArgs& args, Report& report);
void run_serve_mixed(const RunArgs& args, Report& report);

/// Per-instance operation times across the passes of a batch workload.
/// wall() sums each instance's median: the time to map and verify the
/// instance set once, with a slow pass on one instance not moving the rest.
class PassTimes {
 public:
  explicit PassTimes(std::size_t instances) : t_(instances) {}
  void add(std::size_t instance, double seconds) {
    t_[instance].push_back(seconds);
  }
  double wall() const {
    double sum = 0.0;
    for (const auto& v : t_) sum += median(v);
    return sum;
  }

 private:
  std::vector<std::vector<double>> t_;
};

/// Runs one operation; an exception it throws is a refusal.
template <class F>
Verdict attempt(F&& op) {
  try {
    op();
    return Verdict{};
  } catch (const std::exception& e) {
    return Verdict::refused(e.what());
  }
}

/// The graph a dense-QFT route instance targets; null for instances routed
/// on their engine's own topology or on a device.
std::unique_ptr<qfto::CouplingGraph> route_target(const RouteInstance& inst);
/// The options a route instance maps with; `device` is the parsed device of
/// device instances, `target` the route_target graph of dense-QFT ones.
qfto::MapOptions route_options(
    const RouteInstance& inst,
    std::shared_ptr<const qfto::DeviceModel> device,
    const qfto::CouplingGraph* target);

qfto::CouplingGraph sat_target(const SatInstance& inst);
/// The SATMAP options every sat_exact run uses.
qfto::MapOptions sat_options(const qfto::CouplingGraph& target);

/// Set-up times of one run: the median of its set-ups (setup_s) and the
/// first, cold one (setup.first_s).
struct SetupTimes {
  double median = 0.0;
  double first = 0.0;
};

/// Times a workload's set-up cfg::kSetupRepeats times in all, spread over
/// the run: a burst of set-ups taken at one moment reads whatever the host
/// was doing then, while set-ups taken between the passes sample the host
/// the way the passes themselves do. `make` builds the set-up state and
/// returns it; only the building is timed.
class SetupClock {
 public:
  /// One timed set-up whose state the run then uses.
  template <class Make>
  auto keep(Make&& make) {
    const double t0 = now_s();
    auto state = make();
    t_.push_back(now_s() - t0);
    return state;
  }
  /// Up to `times` more set-ups (no more than the repeats left); their
  /// states are dropped after the timing.
  template <class Make>
  void sample(Make&& make, int times) {
    for (int i = 0; i < times && remaining() > 0; ++i) {
      const double t0 = now_s();
      const auto state = make();
      t_.push_back(now_s() - t0);
    }
  }
  int remaining() const {
    return cfg::kSetupRepeats - static_cast<int>(t_.size());
  }
  SetupTimes times() const {
    return SetupTimes{median(t_), t_.empty() ? 0.0 : t_.front()};
  }

 private:
  std::vector<double> t_;
};

/// One real MapperPipeline call (`call` returns its MapResult) inside a
/// `pipeline.run` span. The pipeline times its map and check stages itself
/// (MapResult::timings); they become the span's children, laid back to
/// back from its start because only their lengths are known: `map_span`
/// for the map stage, `verify.check` for a check after it. The rest of the
/// call (graph build, fidelity, packaging) stays the span's self time.
template <class F>
qfto::MapResult traced_run(Tracer& tracer, std::int64_t id,
                           const std::string& map_span, F&& call) {
  Scope run(tracer, "pipeline.run", id);
  qfto::MapResult r = call();
  const double start = tracer.start_of(run.id());
  const double map_end = start + r.timings.map_seconds;
  tracer.record(map_span, start, map_end, id);
  if (r.timings.check_seconds > 0.0) {
    tracer.record("verify.check", map_end,
                  map_end + r.timings.check_seconds, id);
  }
  return r;
}

/// The stages run() does not time itself, called again on their own after
/// the timed call so each gets a span: the engine's graph build
/// (`arch.build_graph`) and the fidelity estimate of `r`
/// (`verify.fidelity`). They count in no wall time.
void traced_stage_calls(const qfto::MapperEngine& engine,
                        const qfto::MapOptions& opts,
                        const qfto::MapResult& r, std::int64_t id,
                        Tracer& tracer);

/// Records the FNV-1a fingerprint of the serialized inputs as a note.
void note_inputs(Report& report, const std::string& serialized);

/// Writes the traced run's spans (JSON lines) to args.trace_out.
void write_spans(const RunArgs& args, const Tracer& tracer);

/// write_spans, then the pipeline accounting, per pass over `passes` traced
/// passes. The traced passes time the same calls as the untraced ones (QASM
/// parse and the pipeline call), with spans recorded; `traced_total` is
/// their summed time. unaccounted = traced_total - self time of every
/// layer span inside those calls; the tracing overhead = traced.wall() -
/// untraced.wall().
void finish_trace(const RunArgs& args, const Tracer& tracer,
                  double traced_total, int passes, const PassTimes& traced,
                  const PassTimes& untraced, Report& report);

/// Self time per span name, summed over the run and divided by `passes`.
std::map<std::string, double> per_pass_self(const Tracer& tracer, int passes);

/// The entry for `name`; 0 when absent.
double lookup(const std::map<std::string, double>& by_name,
              const std::string& name);

/// Sum of the entries whose name starts with `prefix`.
double sum_prefix(const std::map<std::string, double>& by_name,
                  const std::string& prefix);

}  // namespace perfbench
