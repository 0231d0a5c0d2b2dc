// darl/ode/types.hpp
//
// Shared types for the ODE-integration substrate. The airdrop simulator
// integrates the canopy dynamics with one of three methods of orders 3, 5
// and 8 — the environment-specific parameter the paper studies — and the
// cluster cost model charges compute time per right-hand-side evaluation,
// so integrators keep exact evaluation statistics.

#pragma once

#include <cstddef>
#include <functional>

#include "darl/linalg/vec.hpp"

namespace darl::ode {

/// Right-hand side of an ODE system y' = f(t, y). The callee writes the
/// derivative into `dydt`, which is pre-sized to y.size().
using Rhs = std::function<void(double t, const Vec& y, Vec& dydt)>;

/// Counters describing integration runs (cumulative across calls).
/// n_rhs_evals is the basis of the simulated compute-cost model.
struct IntegrationStats {
  std::size_t n_steps = 0;      ///< accepted steps
  std::size_t n_rejected = 0;   ///< rejected (error too large) steps
  std::size_t n_rhs_evals = 0;  ///< total right-hand-side evaluations
};

/// Error-control and step-size options for adaptive integrators.
struct AdaptiveOptions {
  double rtol = 1e-6;       ///< relative tolerance
  double atol = 1e-8;       ///< absolute tolerance
  double h_initial = 1e-2;  ///< first trial step (clamped to the interval)
  double h_min = 1e-10;     ///< below this the step is accepted regardless
  double h_max = 0.0;       ///< 0 means "the whole remaining interval"
  double safety = 0.9;      ///< step controller safety factor
  double min_factor = 0.2;  ///< max shrink per step
  double max_factor = 10.0; ///< max growth per step
  std::size_t max_steps = 100000;  ///< hard cap; exceeded => darl::Error
};

/// The three integration orders exposed to the methodology, matching the
/// orders SciPy's solve_ivp offers (RK23, RK45, DOP853). Order 8 is realised
/// by Gragg-Bulirsch-Stoer extrapolation (same order, computed coefficients);
/// see DESIGN.md for the substitution note.
enum class RkOrder { Order3 = 3, Order5 = 5, Order8 = 8 };

/// Human-readable name for an RkOrder value.
const char* rk_order_name(RkOrder order);

}  // namespace darl::ode
