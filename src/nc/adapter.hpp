// Internal to src/nc: the scratch arena behind the Curve-API adapters.
//
// min/max/add/combine_pointwise (curve.cpp), the ops.hpp kernels and
// convex_minorant (service.cpp) copy their Curve inputs into this arena,
// run the view kernel of batch.hpp and copy the result out with to_curve.
// Each adapter resets the arena on entry and nothing else touches it —
// never thread_arena(), which E2eAnalysis holds views in across a decision.
#pragma once

#include "nc/arena.hpp"

namespace pap::nc::detail {

/// The calling thread's adapter arena, already reset.
inline Arena& adapter_arena() {
  // One adapter call holds at most a few small curves.
  thread_local Arena arena(1 << 12);
  arena.reset();
  return arena;
}

}  // namespace pap::nc::detail
