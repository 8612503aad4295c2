"""Multi-loop baseline: rebuild the lower solution and the adjoint vector
with inner loops before every upper-level step.

Each outer iteration runs ``inner_iters`` stochastic gradient steps on the
lower problem, then ``solver_iters`` damped Richardson steps on the adjoint
system with a single fixed right-hand side, and finally one upper step.  With
``inner_iters == solver_iters == 1`` and warm starts the update sequence and
stream addressing collapse to the single-loop method exactly, so the two
produce bit-identical traces; that degeneracy doubles as an integration test.

Oracle accounting per outer iteration: ``inner_iters`` lower gradients plus
the shared upper-gradient sample plus one more gradient for the adjoint
right-hand side (inner_iters + 2 total), and ``solver_iters`` Hessian
products plus one cross (mixed second derivative) product.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .ssaid import (IterationTrace, RunConfig, _finite, _record_trace,
                    initial_vectors, iterate, resolve_step_sizes)
from .streams import StreamFactory

__all__ = [
    "MultiLoopConfig",
    "MultiLoopState",
    "multiloop_step",
    "resolve_multiloop_config",
    "run_multiloop",
]


@dataclass(frozen=True)
class MultiLoopConfig:
    """Loop counts and (optionally pinned) step sizes for the baseline.

    Any of ``alpha``/``eta``/``beta`` left as None is filled in from the run's
    step-size schedule by :func:`resolve_multiloop_config`.  An explicit
    ``alpha`` without an explicit ``eta`` drags the adjoint damping along with
    it, since the two play the same role on their respective subproblems.
    """

    inner_iters: int
    solver_iters: int
    alpha: float | None = None
    eta: float | None = None
    beta: float | None = None
    warm_start: bool = True

    def __post_init__(self):
        for name in ("inner_iters", "solver_iters"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer")
            if val < 1:
                raise InvalidParameterError(f"{name} must be at least 1")
        for name in ("alpha", "eta"):
            val = getattr(self, name)
            if val is not None and (not math.isfinite(val) or val <= 0):
                raise InvalidParameterError(f"{name} must be positive and finite")
        if self.beta is not None and (not math.isfinite(self.beta)
                                      or self.beta < 0):
            raise InvalidParameterError("beta must be nonnegative and finite")

    def to_dict(self) -> dict:
        return {
            "inner_iters": int(self.inner_iters),
            "solver_iters": int(self.solver_iters),
            "alpha": self.alpha,
            "eta": self.eta,
            "beta": self.beta,
            "warm_start": bool(self.warm_start),
        }


@dataclass
class MultiLoopState:
    """Outer-iteration state.  ``y_init``/``v_init`` are the fixed restart
    points used when warm starts are disabled."""

    x: np.ndarray
    y_hat: np.ndarray
    v_hat: np.ndarray
    k: int
    y_init: np.ndarray
    v_init: np.ndarray


def resolve_multiloop_config(problem, config: MultiLoopConfig,
                             run: RunConfig,
                             v0: np.ndarray | None = None) -> MultiLoopConfig:
    """Fill in missing step sizes from the run's schedule and validate them.

    Only the lower/adjoint rates are bounded (by 1/L); the upper rate is the
    caller's business, matching the single-loop runner's stance that a bad
    beta should fail loudly at run time rather than be silently clipped.
    """
    if (config.alpha is not None and config.eta is not None
            and config.beta is not None):
        alpha, eta, beta = config.alpha, config.eta, config.beta
    else:
        if v0 is None:
            v0 = initial_vectors(problem, run)[2]
        base = resolve_step_sizes(problem, run, v0)
        alpha = base.alpha if config.alpha is None else config.alpha
        if config.eta is not None:
            eta = config.eta
        elif config.alpha is not None:
            eta = config.alpha
        else:
            eta = base.eta
        beta = base.beta if config.beta is None else config.beta
    cap = 1.0 / problem.constants.lipschitz_L
    tol = cap * (1 + 1e-12)
    if alpha > tol:
        raise InvalidParameterError(
            f"alpha={alpha} exceeds 1/L={cap} for this problem")
    if eta > tol:
        raise InvalidParameterError(
            f"eta={eta} exceeds 1/L={cap} for this problem")
    return dataclasses.replace(config, alpha=float(alpha), eta=float(eta),
                               beta=float(beta))


def multiloop_step(state: MultiLoopState, problem, config: MultiLoopConfig,
                   factory: StreamFactory) -> MultiLoopState:
    """One outer iteration.  ``config`` must already be resolved.

    Inner lower steps draw at (k, lower-grad, slot j); Richardson steps draw
    fresh Hessian operators at (k, hess-op, slot j) but keep one right-hand
    side from the single shared upper sample at slot 0.  The slot-0 draws
    coincide with the single-loop method's addresses by construction.
    """
    if config.alpha is None or config.eta is None or config.beta is None:
        raise InvalidParameterError(
            "config has unresolved step sizes; call resolve_multiloop_config")
    k = state.k
    x = state.x
    y, v, _, est = iterate(
        problem, factory, k, x,
        state.y_hat if config.warm_start else state.y_init,
        state.v_hat if config.warm_start else state.v_init,
        config.alpha, config.eta, range(config.inner_iters),
        range(config.solver_iters), 0, None)
    x_new = x - config.beta * est
    if not _finite(x_new, y, v):
        raise DivergenceError(
            f"nonfinite iterate at outer iteration {k}", iteration=k,
            state=state)
    return MultiLoopState(x=x_new, y_hat=y, v_hat=v, k=k + 1,
                          y_init=state.y_init, v_init=state.v_init)


def _multiloop_start(problem, config: MultiLoopConfig, run: RunConfig):
    """(step, initial state, per-step oracle bill) of a baseline run."""
    x0, y0, v0 = initial_vectors(problem, run)
    config = resolve_multiloop_config(problem, config, run, v0)
    factory = StreamFactory(run.seed)
    state = MultiLoopState(x=x0, y_hat=y0, v_hat=v0, k=0,
                           y_init=y0, v_init=v0)
    return ((lambda st: multiloop_step(st, problem, config, factory)), state,
            (config.inner_iters + 2, config.solver_iters + 1))


def run_multiloop(problem, config: MultiLoopConfig,
                  run: RunConfig) -> IterationTrace:
    """Run the baseline for ``run.horizon`` outer iterations.

    Trace rows have the same schema as the single-loop runner; the oracle
    counters advance by inner_iters + 2 gradients and solver_iters + 1
    matrix-vector products per outer iteration.
    """
    return _record_trace(problem, run, *_multiloop_start(problem, config, run))
