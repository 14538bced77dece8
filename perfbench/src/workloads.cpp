#include "workloads.hpp"

#include <cstdio>
#include <fstream>

#include "arch/device_model.hpp"
#include "verify/fidelity.hpp"

namespace perfbench {

void note_inputs(Report& report, const std::string& serialized) {
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(fingerprint(serialized)));
  report.note("inputs_fnv1a", fp);
}

void write_spans(const RunArgs& args, const Tracer& tracer) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  tracer.write_jsonl(out);
}

namespace {

/// Spans of traced_stage_calls: outside the timed calls.
bool stage_call(const std::string& name) {
  return name == "arch.build_graph" || name == "verify.fidelity";
}

}  // namespace

void traced_stage_calls(const qfto::MapperEngine& engine,
                        const qfto::MapOptions& opts,
                        const qfto::MapResult& r, std::int64_t id,
                        Tracer& tracer) {
  {
    Scope s(tracer, "arch.build_graph", id);
    engine.build_graph(engine.native_size(r.n), opts);
  }
  Scope s(tracer, "verify.fidelity", id);
  volatile double sink =
      opts.device != nullptr
          ? qfto::log10_fidelity(r.mapped.circuit, *opts.device,
                                 opts.device->latency_model(r.graph))
          : qfto::log10_fidelity(r.check.counts, r.check.depth,
                                 qfto::NoiseModel{});
  (void)sink;
}

void finish_trace(const RunArgs& args, const Tracer& tracer,
                  double traced_total, int passes, const PassTimes& traced,
                  const PassTimes& untraced, Report& report) {
  write_spans(args, tracer);
  const auto self = self_time_by_name(tracer.spans());
  const auto total = total_time_by_name(tracer.spans());
  double layers = 0.0;
  for (const auto& [name, s] : self) {
    if (name != "pipeline.run" && !stage_call(name)) layers += s;
  }
  const double per = 1.0 / passes;
  const double wall = traced_total * per;
  layers *= per;
  const auto run = total.find("pipeline.run");
  report.layer("pipeline.run_s",
               run == total.end() ? 0.0 : run->second * per);
  report.layer("pipeline.unaccounted_s", wall - layers);
  report.layer("pipeline.unaccounted_frac",
               wall > 0.0 ? (wall - layers) / wall : 0.0);
  report.layer("trace.overhead_s", traced.wall() - untraced.wall());
}

std::map<std::string, double> per_pass_self(const Tracer& tracer,
                                           int passes) {
  auto self = self_time_by_name(tracer.spans());
  for (auto& [name, s] : self) s /= passes;
  return self;
}

double lookup(const std::map<std::string, double>& by_name,
              const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second;
}

double sum_prefix(const std::map<std::string, double>& by_name,
                  const std::string& prefix) {
  double sum = 0.0;
  for (const auto& [name, v] : by_name) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += v;
  }
  return sum;
}

}  // namespace perfbench
