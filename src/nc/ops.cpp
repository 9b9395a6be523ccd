#include "nc/ops.hpp"

#include "nc/adapter.hpp"
#include "nc/batch.hpp"

namespace pap::nc {

// Each entry point runs the view kernel of batch.cpp on its arguments' own
// storage and copies the result out of the adapter arena.

Curve convolve(const Curve& f, const Curve& g) {
  return to_curve(convolve_view(detail::adapter_arena(), f.view(), g.view()));
}

std::optional<Curve> deconvolve(const Curve& f, const Curve& g) {
  CurveView out;
  if (!deconvolve_view(detail::adapter_arena(), f.view(), g.view(), &out)) {
    return std::nullopt;
  }
  return to_curve(out);
}

std::optional<double> h_deviation(const Curve& alpha, const Curve& beta) {
  return h_deviation_view(alpha.view(), beta.view());
}

std::optional<double> v_deviation(const Curve& alpha, const Curve& beta) {
  return v_deviation_view(alpha.view(), beta.view());
}

Curve residual_blind(const Curve& beta, const Curve& alpha_cross) {
  return to_curve(residual_blind_view(detail::adapter_arena(), beta.view(),
                                      alpha_cross.view()));
}

}  // namespace pap::nc
