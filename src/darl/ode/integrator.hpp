// darl/ode/integrator.hpp
//
// Abstract integrator interface and the factory keyed by RkOrder that the
// airdrop environment uses to honour its "Runge-Kutta order" parameter.

#pragma once

#include <memory>
#include <string>

#include "darl/ode/types.hpp"

namespace darl::ode {

/// An initial-value-problem integrator with cumulative statistics.
///
/// Integrators are stateful only in their statistics; integrate() itself is
/// re-entrant with respect to the problem. Not thread-safe: use one
/// integrator instance per worker thread.
class Integrator {
 public:
  virtual ~Integrator() = default;

  /// Advance `y` (in place) from t0 to t1 under the configured error
  /// control. Requires t1 >= t0 and a non-empty state. Throws darl::Error
  /// if the step limit is exhausted or the state becomes non-finite.
  /// Non-virtual: dispatches to do_integrate() and feeds the step/RHS-eval
  /// deltas to the darl::obs metrics registry when observability is on.
  void integrate(const Rhs& rhs, double t0, double t1, Vec& y);

  /// Nominal convergence order of the method.
  virtual int order() const = 0;

  /// Human-readable method name.
  virtual const std::string& name() const = 0;

  /// Cumulative statistics since construction.
  const IntegrationStats& stats() const { return stats_; }

 protected:
  virtual void do_integrate(const Rhs& rhs, double t0, double t1, Vec& y) = 0;

  IntegrationStats stats_;
};

/// Create the integrator for a methodology-level Runge-Kutta order choice:
/// Order3 -> Bogacki-Shampine 3(2), Order5 -> Dormand-Prince 5(4),
/// Order8 -> Gragg-Bulirsch-Stoer extrapolation of order 8.
std::unique_ptr<Integrator> make_integrator(RkOrder order,
                                            const AdaptiveOptions& options = {});

}  // namespace darl::ode
