// Fixed parameters of the benchmark's workloads. perfbench/README.md states
// the same values with the reasons for them; change both together.
#pragma once

#include <cstdint>

namespace perfbench {
namespace cfg {

// ------------------------------------------------------------ serve_mixed --
/// MappingService worker threads. Two leave two of the four cores for the
/// client loop and the server's connection threads.
inline constexpr std::int32_t kWorkers = 2;
/// ResultCache entries. Smaller than the distinct-QFT key space (55 keys),
/// so the distinct share evicts.
inline constexpr std::size_t kCacheCapacity = 32;
/// Client connections (all load comes from one client thread).
inline constexpr int kConnections = 4;
/// Request shares of the mix, in percent (they sum to 100). Each class is
/// there for one layer; README.md gives the measured cost of each.
inline constexpr int kShareHot = 40;       // repeated QFT keys: cache reads
inline constexpr int kShareDistinct = 35;  // QFT over 55 keys: misses, evictions
inline constexpr int kShareQasm = 20;      // small OpenQASM circuits via sabre
inline constexpr int kShareDevice = 4;     // inline calibrated device + fidelity
inline constexpr int kShareScale = 1;      // device-scale QFT (n ~ 1000)
/// Capacity of this mix, measured on a 4-core x86 VM: the mean request
/// holds a worker for 1.33 ms of map + check time, so 2 workers saturate at
/// 1500 req/s (the ladder met the latency limit up to 849-1697 req/s). The
/// rates below are fractions of this figure; measure it again when the mix
/// or the worker count changes.
inline constexpr double kCapacityRps = 1500.0;
/// Open-loop phases: requests and Poisson arrival rate (requests/s).
/// Light: a sixth of capacity, where latency is the unloaded one. Heavy:
/// half of capacity, where queueing shows.
inline constexpr int kLightRequests = 1000;
inline constexpr double kLightRate = kCapacityRps / 6.0;
inline constexpr int kHeavyRequests = 1000;
inline constexpr double kHeavyRate = kCapacityRps / 2.0;
/// Rate ladder for max_rate_rps: requests per rung and rung rates, a
/// factor sqrt(2) apart from a fifth of capacity to well past it, so the
/// top rung always misses and does not cap the metric.
inline constexpr int kRungRequests = 250;
inline constexpr double kLadder[] = {300.0,  424.0,  600.0,  849.0,
                                     1200.0, 1697.0, 2400.0, 3394.0};
/// A rung passes when no request failed or was shed, its tail latency (the
/// highest percentile with >= 10 samples beyond it) is within this limit,
/// and the median latency of its last tenth is too (no growing backlog).
/// The slowest class (device-scale QFT, about 45 ms of worker time) fits
/// twice in it: one slow request alone does not miss the limit, requests
/// queueing behind each other do.
inline constexpr double kLatencyLimitMs = 100.0;
/// Share of the run's seconds given to the stdio passes, which run first,
/// in a heap no socket phase has used yet; the socket phases take the rest
/// (about 9 s).
inline constexpr double kStdioShare = 0.5;
/// Stop waiting for responses after this long without one.
inline constexpr double kIdleTimeout = 20.0;

// --------------------------------------------------------------- set-up ----
/// Set-ups timed per run; setup_s is their median. The first is the one
/// the run uses; after it, up to kSetupsPerPass more follow each pass, and
/// the run ends with the ones still missing.
inline constexpr int kSetupRepeats = 51;
inline constexpr int kSetupsPerPass = 10;
/// Minimum number of timed passes over a batch instance set per run.
inline constexpr int kMinPasses = 3;

}  // namespace cfg
}  // namespace perfbench
