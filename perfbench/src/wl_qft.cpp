// qft_device_scale: one caller maps QFT at device scale on every structured
// mapper (lattice up to n = 8192, sycamore, heavy_hex, heavy_hex_device,
// lnn) with fused verification, closed loop. Exercises the mappers, the
// emitter, the fused audit and the fidelity estimate; bypasses the distance
// oracle, SABRE, SAT, QASM, the cache and the transport.
#include <cstdio>
#include <map>
#include <memory>

#include "arch/coupling_graph.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qfto::MapperPipeline;
using qfto::MapResult;

struct LayerSums {
  std::map<std::string, double> gates;  // per engine
  double rss_delta_mb = 0.0;            // largest growth across one map call
};

/// One instance through the real pipeline call, traced (see traced_run).
MapResult traced_instance(const MapperPipeline& pipeline,
                          const QftInstance& inst, std::int64_t id,
                          Tracer& tracer, LayerSums& sums) {
  const double rss0 = rss_mb();
  MapResult r = traced_run(tracer, id, "mapper.map." + inst.engine,
                           [&] { return pipeline.run(inst.engine, inst.n); });
  sums.rss_delta_mb = std::max(sums.rss_delta_mb, rss_mb() - rss0);
  sums.gates[inst.engine] += static_cast<double>(r.mapped.circuit.size());
  return r;
}

}  // namespace

void run_qft_device_scale(const RunArgs& args, Report& rep) {
  const std::vector<QftInstance> instances = gen_qft_scale(args.seed);
  note_inputs(rep, serialize(instances));

  const auto make_setup = [&] {
    auto p =
        std::make_unique<MapperPipeline>(MapperPipeline::with_paper_engines());
    // Lazy set-up (first call into each engine) finishes before timing.
    for (const QftInstance& inst : instances) p->run(inst.engine, 16);
    return p;
  };
  SetupClock clock;
  const std::unique_ptr<MapperPipeline> pipeline = clock.keep(make_setup);

  const ExpectedTable& table = *args.expected;
  Tracer tracer(args.trace);
  LayerSums sums;
  PassTimes times(instances.size());
  PassTimes traced_times(instances.size());
  int passes = 0;
  double traced_total = 0.0;
  int traced_passes = 0;
  double depth = 0.0, swaps = 0.0, fid = 0.0;
  std::int64_t op = 0;
  const double start = now_s();
  while (passes < (args.trace ? 1 : cfg::kMinPasses) ||
         now_s() - start < args.seconds) {
    const bool first = passes++ == 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const QftInstance& inst = instances[i];
      MapResult r;
      const double t0 = now_s();
      Verdict v = attempt([&] { r = pipeline->run(inst.engine, inst.n); });
      times.add(i, now_s() - t0);
      if (v.ok()) v = check_qft(r, table, qft_key(inst.engine, inst.n));
      rep.count("map_qft", v);
      if (first && v.ok()) {
        depth += static_cast<double>(r.check.depth);
        swaps += static_cast<double>(r.check.counts.swap);
        fid += r.log10_fidelity;
      }
    }
    clock.sample(make_setup, cfg::kSetupsPerPass);
    if (!args.trace) continue;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const QftInstance& inst = instances[i];
      MapResult r;
      const std::int64_t id = op++;
      const double t0 = now_s();
      Verdict v = attempt(
          [&] { r = traced_instance(*pipeline, inst, id, tracer, sums); });
      traced_total += now_s() - t0;
      traced_times.add(i, now_s() - t0);
      if (v.ok()) {
        traced_stage_calls(pipeline->at(inst.engine), qfto::MapOptions{}, r,
                           id, tracer);
        v = check_qft(r, table, qft_key(inst.engine, inst.n));
      }
      rep.count("map_qft_traced", v);
    }
    ++traced_passes;
  }

  clock.sample(make_setup, clock.remaining());
  const SetupTimes setup = clock.times();
  rep.note("passes", std::to_string(passes));
  rep.e2e("setup_s", setup.median, "s");
  rep.e2e("wall_s", times.wall(), "s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("out_depth", depth, "cycles");
  rep.e2e("out_swaps", swaps, "count");
  rep.e2e("out_neg_log10_fidelity", -fid, "log10");
  if (!args.trace) return;

  const auto self = per_pass_self(tracer, traced_passes);
  const auto get = [&self](const std::string& k) { return lookup(self, k); };
  rep.layer("setup.first_s", setup.first);
  rep.layer("arch.build_graph_s", get("arch.build_graph"));
  rep.layer("verify.check_s", get("verify.check"));
  rep.layer("verify.fidelity_s", get("verify.fidelity"));
  for (const auto& [engine, gates] : sums.gates) {
    const double map_s = get("mapper.map." + engine);
    rep.layer("mapper.map_s." + engine, map_s);
    rep.layer("mapper.gates_per_s." + engine,
              map_s > 0.0 ? gates / traced_passes / map_s : 0.0);
  }
  rep.layer("mapper.rss_delta_mb", sums.rss_delta_mb);
  finish_trace(args, tracer, traced_total, traced_passes, traced_times,
               times, rep);
}

}  // namespace perfbench
