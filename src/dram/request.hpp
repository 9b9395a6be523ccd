// Memory request type shared by the DRAM controller simulator, the traffic
// generators and the SoC platform model.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"

namespace pap::dram {

enum class Op : std::uint8_t { kRead, kWrite };

struct Request {
  std::uint64_t id = 0;       ///< issuer's tag, echoed on completion
  Op op = Op::kRead;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t master = 0;  ///< issuing agent, for per-master statistics
  Time arrival;              ///< time the request reached the controller
};

/// Invoked when a request's data transfer completes.
using CompletionFn = std::function<void(const Request&, Time completion)>;

}  // namespace pap::dram
