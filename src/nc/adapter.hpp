// Internal to src/nc: the scratch arena behind the Curve-API adapters.
//
// The Curve named constructors and min/combine_pointwise (curve.cpp) and
// the ops.hpp entry points run a view kernel of batch.hpp on their
// arguments' own storage (Curve::view); the kernel writes its result into
// this arena and the adapter copies it out with to_curve.
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
