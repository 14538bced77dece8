// sat_exact: SATMAP's exact QFT mapping (QFT-5/6/7 on a line, QFT-5/6 on a
// 2x3 grid) with the single default `cdcl` backend, so src/sat is measured.
// Conflict counts repeat exactly run to run; portfolio racing is left out
// because which lane wins varies. Every result is checked against the DFT.
#include <cstdio>
#include <memory>

#include "arch/grid.hpp"
#include "arch/line.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qfto::MapperPipeline;
using qfto::MapResult;

struct SatSetup {
  std::unique_ptr<MapperPipeline> pipeline;
  std::vector<qfto::CouplingGraph> targets;
};

Verdict check_instance(const MapResult& r, const SatInstance& inst,
                       const ExpectedTable& table, std::uint64_t seed) {
  Verdict v = check_qft(r, table, satmap_key(inst));
  if (v.ok()) {
    const double e = sim_mismatch(r.mapped, nullptr, seed);
    if (!(e <= kSimTolerance)) {
      v = Verdict::wrong("statevector mismatch " + std::to_string(e));
    }
  }
  return v;
}

/// One instance through the real pipeline call, traced (see traced_run);
/// the solver's effort is read from the result's timings.
MapResult traced_instance(const MapperPipeline& pipeline,
                          const SatInstance& inst,
                          const qfto::MapOptions& opts, std::int64_t id,
                          Tracer& tracer, qfto::sat::SolverStats& stats) {
  MapResult r = traced_run(tracer, id, "satmap.solve", [&] {
    return pipeline.run("satmap", inst.n, opts);
  });
  stats += r.timings.sat;
  return r;
}

}  // namespace

qfto::CouplingGraph sat_target(const SatInstance& inst) {
  return inst.rows == 1 ? qfto::make_line(inst.cols)
                        : qfto::make_grid(inst.rows, inst.cols);
}

qfto::MapOptions sat_options(const qfto::CouplingGraph& target) {
  qfto::MapOptions opts;
  opts.target = &target;
  // Far above any instance's solve time: a timeout is a failure, never a
  // silently cheaper answer.
  opts.satmap.time_budget_seconds = 120.0;
  opts.satmap.solver = "cdcl";
  opts.satmap.portfolio = false;
  return opts;
}

void run_sat_exact(const RunArgs& args, Report& rep) {
  const std::vector<SatInstance> instances = gen_sat(args.seed);
  note_inputs(rep, serialize(instances));

  const auto make_setup = [&] {
    SatSetup x;
    x.pipeline =
        std::make_unique<MapperPipeline>(MapperPipeline::with_paper_engines());
    for (const SatInstance& inst : instances) {
      x.targets.push_back(sat_target(inst));
    }
    return x;
  };
  SetupClock clock;
  const SatSetup setup_state = clock.keep(make_setup);
  const MapperPipeline* pipeline = setup_state.pipeline.get();
  const std::vector<qfto::CouplingGraph>& targets = setup_state.targets;

  const ExpectedTable& table = *args.expected;
  Tracer tracer(args.trace);
  qfto::sat::SolverStats stats;
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
      MapResult r;
      const double t0 = now_s();
      Verdict v = attempt([&] {
        r = pipeline->run("satmap", instances[i].n, sat_options(targets[i]));
      });
      times.add(i, now_s() - t0);
      if (v.ok()) v = check_instance(r, instances[i], table, args.seed);
      rep.count("satmap", v);
      if (first && v.ok()) {
        depth += static_cast<double>(r.check.depth);
        swaps += static_cast<double>(r.check.counts.swap);
        fid += r.log10_fidelity;
      }
    }
    clock.sample(make_setup, cfg::kSetupsPerPass);
    if (!args.trace) continue;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const qfto::MapOptions opts = sat_options(targets[i]);
      MapResult r;
      const std::int64_t id = op++;
      const double t0 = now_s();
      Verdict v = attempt([&] {
        r = traced_instance(*pipeline, instances[i], opts, id, tracer, stats);
      });
      traced_total += now_s() - t0;
      traced_times.add(i, now_s() - t0);
      if (v.ok()) {
        traced_stage_calls(pipeline->at("satmap"), opts, r, id, tracer);
        v = check_instance(r, instances[i], table, args.seed);
      }
      rep.count("satmap_traced", v);
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
  const double per = 1.0 / traced_passes;
  const double solve = get("satmap.solve");
  rep.layer("setup.first_s", setup.first);
  rep.layer("arch.build_graph_s", get("arch.build_graph"));
  rep.layer("satmap.solve_s", solve);
  rep.layer("sat.conflicts", static_cast<double>(stats.conflicts) * per);
  rep.layer("sat.decisions", static_cast<double>(stats.decisions) * per);
  rep.layer("sat.propagations", static_cast<double>(stats.propagations) * per);
  rep.layer("sat.solve_calls", static_cast<double>(stats.solve_calls) * per);
  rep.layer("sat.conflicts_per_s",
            solve > 0.0 ? static_cast<double>(stats.conflicts) * per / solve
                        : 0.0);
  rep.layer("verify.check_s", get("verify.check"));
  rep.layer("verify.fidelity_s", get("verify.fidelity"));
  finish_trace(args, tracer, traced_total, traced_passes, traced_times,
               times, rep);
}

}  // namespace perfbench
