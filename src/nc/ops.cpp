#include "nc/ops.hpp"

#include "nc/adapter.hpp"
#include "nc/batch.hpp"

namespace pap::nc {

// Each entry point copies its inputs into the adapter arena, runs the view
// kernel of batch.cpp and copies the result out.

Curve convolve(const Curve& f, const Curve& g) {
  Arena& arena = detail::adapter_arena();
  return to_curve(convolve_view(arena, to_view(arena, f), to_view(arena, g)));
}

std::optional<Curve> deconvolve(const Curve& f, const Curve& g) {
  Arena& arena = detail::adapter_arena();
  CurveView out;
  if (!deconvolve_view(arena, to_view(arena, f), to_view(arena, g), &out)) {
    return std::nullopt;
  }
  return to_curve(out);
}

std::optional<double> h_deviation(const Curve& alpha, const Curve& beta) {
  Arena& arena = detail::adapter_arena();
  return h_deviation_view(to_view(arena, alpha), to_view(arena, beta));
}

std::optional<double> v_deviation(const Curve& alpha, const Curve& beta) {
  Arena& arena = detail::adapter_arena();
  return v_deviation_view(to_view(arena, alpha), to_view(arena, beta));
}

Curve residual_blind(const Curve& beta, const Curve& alpha_cross) {
  Arena& arena = detail::adapter_arena();
  return to_curve(residual_blind_view(arena, to_view(arena, beta),
                                      to_view(arena, alpha_cross)));
}

}  // namespace pap::nc
