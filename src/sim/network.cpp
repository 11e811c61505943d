#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

namespace rpol::sim {

double transfer_seconds(const NetworkSpec& spec, std::uint64_t bytes,
                        std::size_t concurrent) {
  if (concurrent == 0) throw std::invalid_argument("concurrent must be >= 1");
  const double manager_share =
      spec.manager_bandwidth_bps / static_cast<double>(concurrent);
  const double effective_bps = std::min(spec.worker_bandwidth_bps, manager_share);
  return spec.latency_seconds +
         static_cast<double>(bytes) * 8.0 / effective_bps;
}

}  // namespace rpol::sim
