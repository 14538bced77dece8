// route_device: SABRE through the QASM front end and the general-circuit
// pipeline. Three parts: seeded 32-gate sparse circuits on grids of n = 1k,
// 4k and 8k (routing cost should follow the frontier, not n); dense QFT on
// the Sycamore and heavy-hex device graphs (the paper's Fig. 17/18
// baseline); a seeded, calibrated, irregular device routed for fidelity,
// whose distance rows come from the BFS row cache, plus a 6-qubit sample
// checked against the state-vector simulator. Exercises qasm, the distance
// oracle, SABRE, the circuit checker and device fidelity; bypasses the
// structured mappers.
#include <cstdio>
#include <memory>

#include "arch/device_model.hpp"
#include "arch/heavy_hex.hpp"
#include "arch/sycamore.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "qasm/qasm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qfto::MapperPipeline;
using qfto::MapResult;

struct Setup {
  std::unique_ptr<MapperPipeline> pipeline;
  std::vector<std::shared_ptr<const qfto::DeviceModel>> devices;
  std::vector<std::unique_ptr<qfto::CouplingGraph>> targets;  // per instance
};

qfto::MapOptions options_for(const RouteInstance& inst, const Setup& s,
                             std::size_t index) {
  return route_options(
      inst,
      inst.device >= 0 ? s.devices[static_cast<std::size_t>(inst.device)]
                       : nullptr,
      s.targets[index].get());
}

Verdict check_instance(const MapResult& r, const RouteInstance& inst,
                       const ExpectedTable& table, std::uint64_t seed) {
  if (inst.qft_n > 0) return check_qft(r, table, sabre_qft_key(inst));
  Verdict v = check_circuit(r, inst.circuit);
  if (v.ok() && inst.circuit.qubits <= 7) {
    const qfto::Circuit logical = to_circuit(inst.circuit);
    const double e = sim_mismatch(r.mapped, &logical, seed);
    if (!(e <= kSimTolerance)) {
      v = Verdict::wrong("statevector mismatch " + std::to_string(e));
    }
  }
  return v;
}

struct OracleSums {
  double bfs_rows = 0.0;
  double cached_rows = 0.0;
  double qasm_bytes = 0.0;
};

/// One instance through the real calls, traced: the QASM parse in its own
/// span, then the pipeline call (see traced_run).
MapResult traced_instance(const Setup& s, const RouteInstance& inst,
                          const qfto::MapOptions& opts, std::int64_t id,
                          Tracer& tracer, OracleSums& sums) {
  const std::string span = "sabre.route." + inst.label;
  if (inst.qft_n > 0) {
    return traced_run(tracer, id, span, [&] {
      return s.pipeline->run(inst.engine, inst.qft_n, opts);
    });
  }
  qfto::Circuit logical;
  {
    Scope sp(tracer, "qasm.parse", id);
    logical = qfto::from_qasm(inst.circuit.qasm);
  }
  sums.qasm_bytes += static_cast<double>(inst.circuit.qasm.size());
  return traced_run(tracer, id, span, [&] {
    return s.pipeline->run_circuit(inst.engine, logical, opts);
  });
}

/// Distance-oracle rows one routing of `inst` uses. A graph drops its
/// oracle when it is moved, as the pipeline's result graph is, so the rows
/// are counted on a second routing, outside every timed call, on a graph
/// this function holds. SABRE is seeded, so both routings ask for the same
/// rows.
void count_oracle_rows(const qfto::MapperEngine& engine,
                       const RouteInstance& inst,
                       const qfto::MapOptions& opts, std::int32_t n,
                       OracleSums& sums) {
  const qfto::CouplingGraph g = engine.build_graph(engine.native_size(n), opts);
  if (inst.qft_n > 0) {
    engine.map(n, g, opts);
  } else {
    engine.map_circuit(qfto::from_qasm(inst.circuit.qasm), g, opts);
  }
  sums.bfs_rows += static_cast<double>(g.distances().bfs_rows_computed());
  sums.cached_rows += static_cast<double>(g.distances().cached_rows());
}

}  // namespace

std::unique_ptr<qfto::CouplingGraph> route_target(const RouteInstance& inst) {
  if (inst.target == "sycamore") {
    return std::make_unique<qfto::CouplingGraph>(
        qfto::make_sycamore(inst.target_size));
  }
  if (inst.target == "heavy_hex_device") {
    // 13 columns: the row width of the heavy_hex_device engine.
    return std::make_unique<qfto::CouplingGraph>(
        qfto::make_heavy_hex_device(inst.target_size, 13).graph);
  }
  return nullptr;
}

qfto::MapOptions route_options(
    const RouteInstance& inst,
    std::shared_ptr<const qfto::DeviceModel> device,
    const qfto::CouplingGraph* target) {
  qfto::MapOptions opts;
  opts.sabre.trials = inst.trials;
  if (device != nullptr) {
    opts.device = std::move(device);
    opts.objective = qfto::Objective::kFidelity;
  }
  opts.target = target;
  return opts;
}

void run_route_device(const RunArgs& args, Report& rep) {
  const RouteInputs in = gen_route(args.seed);
  note_inputs(rep, serialize(in));

  std::vector<double> parse_s;
  const auto make_setup = [&] {
    Setup x;
    x.pipeline =
        std::make_unique<MapperPipeline>(MapperPipeline::with_paper_engines());
    const double t0 = now_s();
    for (const DeviceSpec& d : in.devices) {
      x.devices.push_back(std::make_shared<const qfto::DeviceModel>(
          qfto::DeviceModel::from_json(d.json)));
    }
    parse_s.push_back(now_s() - t0);
    for (const RouteInstance& inst : in.instances) {
      x.targets.push_back(route_target(inst));
    }
    return x;
  };
  SetupClock clock;
  const Setup s = clock.keep(make_setup);

  const ExpectedTable& table = *args.expected;
  Tracer tracer(args.trace);
  OracleSums sums;
  PassTimes times(in.instances.size());
  PassTimes traced_times(in.instances.size());
  int passes = 0;
  double traced_total = 0.0, swaps_traced = 0.0;
  int traced_passes = 0;
  double depth = 0.0, swaps = 0.0, fid = 0.0;
  std::int64_t op = 0;
  const double start = now_s();
  while (passes < (args.trace ? 1 : cfg::kMinPasses) ||
         now_s() - start < args.seconds) {
    const bool first = passes++ == 0;
    for (std::size_t i = 0; i < in.instances.size(); ++i) {
      const RouteInstance& inst = in.instances[i];
      const qfto::MapOptions opts = options_for(inst, s, i);
      MapResult r;
      const double t0 = now_s();
      Verdict v = attempt([&] {
        r = inst.qft_n > 0
                ? s.pipeline->run(inst.engine, inst.qft_n, opts)
                : s.pipeline->run_circuit(
                      inst.engine, qfto::from_qasm(inst.circuit.qasm), opts);
      });
      times.add(i, now_s() - t0);
      if (v.ok()) v = check_instance(r, inst, table, args.seed);
      rep.count("route", v);
      if (first && v.ok()) {
        depth += static_cast<double>(r.check.depth);
        swaps += static_cast<double>(r.check.counts.swap);
        fid += r.log10_fidelity;
      }
    }
    clock.sample(make_setup, cfg::kSetupsPerPass);
    if (!args.trace) continue;
    for (std::size_t i = 0; i < in.instances.size(); ++i) {
      const RouteInstance& inst = in.instances[i];
      const qfto::MapOptions opts = options_for(inst, s, i);
      MapResult r;
      const std::int64_t id = op++;
      const double t0 = now_s();
      Verdict v = attempt(
          [&] { r = traced_instance(s, inst, opts, id, tracer, sums); });
      traced_total += now_s() - t0;
      traced_times.add(i, now_s() - t0);
      if (v.ok()) {
        const qfto::MapperEngine& engine = s.pipeline->at(inst.engine);
        traced_stage_calls(engine, opts, r, id, tracer);
        count_oracle_rows(engine, inst, opts, r.n, sums);
        v = check_instance(r, inst, table, args.seed);
      }
      rep.count("route_traced", v);
      swaps_traced += static_cast<double>(r.check.counts.swap);
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
  rep.layer("setup.first_s", setup.first);
  rep.layer("arch.build_graph_s", get("arch.build_graph"));
  rep.layer("arch.device_parse_s", median(parse_s));
  rep.layer("arch.oracle_bfs_rows", sums.bfs_rows * per);
  rep.layer("arch.oracle_cached_rows", sums.cached_rows * per);
  const double parse = get("qasm.parse");
  rep.layer("qasm.parse_s", parse);
  rep.layer("qasm.parse_mb_per_s",
            parse > 0.0 ? sums.qasm_bytes * per / parse / 1e6 : 0.0);
  for (const char* n : {"n1024", "n4096", "n8192"}) {
    rep.layer(std::string("sabre.route_s.sparse.") + n,
              get(std::string("sabre.route.sparse.") + n));
  }
  rep.layer("sabre.route_s.qft", sum_prefix(self, "sabre.route.qft."));
  rep.layer("sabre.route_s.device", sum_prefix(self, "sabre.route.device."));
  rep.layer("sabre.swaps", swaps_traced * per);
  rep.layer("verify.check_s", get("verify.check"));
  rep.layer("verify.fidelity_s", get("verify.fidelity"));
  finish_trace(args, tracer, traced_total, traced_passes, traced_times,
               times, rep);
}

}  // namespace perfbench
