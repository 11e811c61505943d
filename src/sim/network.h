// Wide-area network timing model.
//
// Sec. VII-E's setting: one manager on a 10 Gbps link, workers on 100 Mbps
// links. Protocol messages are real byte buffers whose sizes the pool
// counts itself; this module only converts a size into a deterministic
// transfer time, which prices Table II's epoch wall time.
//
// Timing model for one transfer of B bytes between a worker and the manager:
//     t = latency + B / min(worker_bw, manager_share)
// where manager_share = manager_bw / concurrent_streams models the manager
// link being divided across workers that talk simultaneously.

#pragma once

#include <cstddef>
#include <cstdint>

namespace rpol::sim {

struct NetworkSpec {
  double manager_bandwidth_bps = 10e9;   // 10 Gbps
  double worker_bandwidth_bps = 100e6;   // 100 Mbps
  double latency_seconds = 0.02;         // WAN round-trip contribution
};

// Simulated seconds for one transfer of `bytes` in either direction, while
// `concurrent` workers (>= 1; 0 throws std::invalid_argument) transfer at
// the same time.
double transfer_seconds(const NetworkSpec& spec, std::uint64_t bytes,
                        std::size_t concurrent);

}  // namespace rpol::sim
