// qfto_perfbench: runs one workload of the end-to-end benchmark and prints a
// diagnostics line (phases, failures, provenance) followed by the result
// line {"correct","attempted","failed","metrics"}.
//
//   qfto_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--expected perfbench/expected.tsv] [--trace-out FILE]
//   qfto_perfbench --record-expected FILE
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

void record(const std::string& key, const qfto::MapResult& r,
            ExpectedTable& table) {
  if (!r.check.ok) {
    throw std::runtime_error(key + ": checker rejected: " + r.check.error);
  }
  table.set(key, Expected{r.check.depth, r.check.counts.swap});
}

/// Maps every deterministic instance any workload can generate and writes
/// their depth / SWAP counts.
int record_expected(const std::string& path) {
  const auto& pipeline = qfto::MapperPipeline::global();
  ExpectedTable table;
  std::vector<QftInstance> qft = gen_qft_scale(1);
  const std::vector<QftInstance> serve = serve_qft_keys();
  qft.insert(qft.end(), serve.begin(), serve.end());
  for (const QftInstance& q : qft) {
    record(qft_key(q.engine, q.n), pipeline.run(q.engine, q.n), table);
  }
  for (const RouteInstance& r : gen_route(1).instances) {
    if (r.qft_n == 0) continue;
    const auto g = route_target(r);
    record(sabre_qft_key(r),
           pipeline.run(r.engine, r.qft_n, route_options(r, nullptr, g.get())),
           table);
  }
  for (const SatInstance& s : gen_sat(1)) {
    const qfto::CouplingGraph g = sat_target(s);
    record(satmap_key(s), pipeline.run("satmap", s.n, sat_options(g)), table);
  }
  std::ofstream out(path);
  out << table.text();
  return out ? 0 : 1;
}

int usage() {
  std::cerr << "usage: qfto_perfbench --workload "
               "{qft_device_scale|route_device|sat_exact|serve_mixed} "
               "--seed N --seconds S --trace 0|1 [--expected FILE] "
               "[--trace-out FILE]\n"
               "       qfto_perfbench --record-expected FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opt = {
      {"--expected", "perfbench/expected.tsv"}, {"--seed", "1"},
      {"--seconds", "10"}, {"--trace", "0"}};
  for (int i = 1; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage();
  try {
    if (opt.count("--record-expected")) {
      return record_expected(opt["--record-expected"]);
    }
    if (!opt.count("--workload")) return usage();
    const ExpectedTable table = ExpectedTable::load(opt["--expected"]);
    RunArgs args;
    args.seed = std::stoull(opt["--seed"]);
    args.seconds = std::stod(opt["--seconds"]);
    args.trace = opt["--trace"] == "1";
    args.trace_out = opt.count("--trace-out") ? opt["--trace-out"] : "";
    args.expected = &table;

    const std::string& w = opt["--workload"];
    Report report;
    if (w == "qft_device_scale") {
      run_qft_device_scale(args, report);
    } else if (w == "route_device") {
      run_route_device(args, report);
    } else if (w == "sat_exact") {
      run_sat_exact(args, report);
    } else if (w == "serve_mixed") {
      run_serve_mixed(args, report);
    } else {
      return usage();
    }
    std::cout << report.detail_json(w) << "\n"
              << report.result_json(args.trace) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "qfto_perfbench: " << e.what() << "\n";
    return 1;
  }
}
