"""Hypergradients and the constants that govern their accuracy.

The implicit objective phi(x) = f(x, y*(x)) has gradient

    grad phi(x) = grad_x f(x, y*) - (d^2 g / dx dy)(x, y*) v*,
    v* = (d^2 g / dy dy)^{-1}(x, y*) grad_y f(x, y*).

``reference_solution(problem, x).grad_phi`` computes that gradient exactly
from a problem's reference solvers.  This module derives the scalar
constants (c0..c3, l_phi) that bound tracking error, estimator bias, and
smoothness of phi.  The step-size schedule picks the largest upper step
allowed by every one of the derived stability conditions plus the
1/sqrt(horizon) decay that yields the target stationarity rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .problems import ProblemConstants

__all__ = [
    "DerivedConstants",
    "StepSizes",
    "compute_derived_constants",
    "default_step_sizes",
    "check_lower_rates",
]


def _mul(a: float, b: float) -> float:
    """Product that treats 0 * inf as 0 (a vanishing coefficient kills the term)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class DerivedConstants:
    """Scalars derived from (mu, L, rho, M, tau) and the adjoint init norm.

    c0 bounds the adjoint sensitivity to lower-level error, c1 the coupled
    contraction rate, c2 the bias transfer from tracking error, c3 the raw
    estimator magnitude, and l_phi the smoothness of the implicit objective.
    Any of them may be inf when the upper gradient is unbounded.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    l_phi: float
    v0_norm: float = 0.0

    def __post_init__(self):
        vals = (self.c0, self.c1, self.c2, self.c3, self.l_phi, self.v0_norm)
        if any(math.isnan(v) for v in vals):
            raise InvalidParameterError("derived constants must not be NaN")
        if any(v < 0 for v in vals):
            raise InvalidParameterError("derived constants must be nonnegative")

    def is_finite(self) -> bool:
        return all(math.isfinite(v)
                   for v in (self.c0, self.c1, self.c2, self.c3, self.l_phi))

    def c_beta(self, constants: ProblemConstants, alpha: float, beta: float) -> float:
        """Per-step drift scale: 2 beta c1 c3 + alpha (c2 sigma + c0 L M)."""
        return (2.0 * _mul(beta, _mul(self.c1, self.c3))
                + _mul(alpha, _mul(self.c2, constants.sigma)
                       + _mul(self.c0, _mul(constants.lipschitz_L,
                                            constants.lipschitz_M))))


def compute_derived_constants(constants: ProblemConstants,
                              v0_norm: float = 0.0) -> DerivedConstants:
    mu, lip = constants.mu, constants.lipschitz_L
    rho, m, tau = constants.rho, constants.lipschitz_M, constants.tau
    c0 = _mul(rho, m) / mu ** 2 + lip / mu
    c1 = lip * (lip * mu + _mul(rho, m)) / mu ** 2 + ((lip + mu) / mu) * c0 * lip
    c2 = lip + _mul(rho, m) / mu + lip * c0
    c3 = m + lip * v0_norm + _mul(m, lip) / mu
    l_phi = (lip
             + (2.0 * lip ** 2 + _mul(tau, m * m)) / mu
             + (_mul(rho, lip * m) + lip ** 3 + _mul(tau, m * lip)) / mu ** 2
             + _mul(rho, _mul(lip ** 2, m)) / mu ** 3)
    return DerivedConstants(c0=c0, c1=c1, c2=c2, c3=c3, l_phi=l_phi,
                            v0_norm=v0_norm)


@dataclass(frozen=True)
class StepSizes:
    alpha: float
    eta: float
    beta: float
    horizon_k: int

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.alpha, self.eta, self.beta)):
            raise InvalidParameterError("step sizes must be finite")
        if self.alpha <= 0 or self.eta <= 0:
            raise InvalidParameterError("alpha and eta must be positive")
        if self.alpha > self.eta:
            raise InvalidParameterError("alpha must not exceed eta")
        if self.beta < 0:
            raise InvalidParameterError("beta must be >= 0")
        if self.horizon_k < 1:
            raise InvalidParameterError("horizon_k must be >= 1")
        # 0-d array copies for the iteration kernel: numpy scales a small
        # vector by them faster than by Python floats, with the same bits
        object.__setattr__(self, "_arrays", tuple(
            np.array(v) for v in (self.alpha, self.eta, self.beta)))


def beta_stability_cap(derived: DerivedConstants, constants: ProblemConstants,
                       alpha: float, eta: float) -> float:
    """Largest upper step the contraction arguments tolerate (horizon-free)."""
    mu, lip = constants.mu, constants.lipschitz_L
    caps = [mu * alpha / (4.0 * derived.c1),
            3.0 * mu * eta / (4.0 * derived.c1),
            1.0 / (8.0 * derived.l_phi),
            mu / (2.0 ** 5 * derived.c1 * lip)]
    return min(caps)


def default_step_sizes(derived: DerivedConstants, constants: ProblemConstants,
                       horizon_k: int) -> StepSizes:
    """alpha = eta = 1/L and the largest beta every stability bound allows.

    beta additionally decays like 1/sqrt(horizon) so a run of length k lands
    on the advertised averaged-stationarity rate.
    """
    if horizon_k < 1:
        raise InvalidParameterError("horizon_k must be >= 1")
    if not derived.is_finite() or derived.c3 == 0.0:
        raise InvalidParameterError(
            "automatic step sizes need finite nonzero derived constants; "
            "got " + repr(derived))
    alpha = eta = 1.0 / constants.lipschitz_L
    rate_term = 1.0 / (math.sqrt(horizon_k) * math.sqrt(derived.l_phi) * derived.c3)
    beta = min(rate_term, beta_stability_cap(derived, constants, alpha, eta))
    return StepSizes(alpha=alpha, eta=eta, beta=beta, horizon_k=horizon_k)


def check_lower_rates(steps: StepSizes, constants: ProblemConstants) -> None:
    """Raise unless alpha, eta <= 1/L (up to a 1e-12 relative allowance),
    the condition under which the lower and adjoint steps contract."""
    cap = 1.0 / constants.lipschitz_L
    for name, rate in (("alpha", steps.alpha), ("eta", steps.eta)):
        if rate > cap * (1.0 + 1e-12):
            raise InvalidParameterError(
                f"{name}={rate} exceeds 1/L={cap} for this problem")
