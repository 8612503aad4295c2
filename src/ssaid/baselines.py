"""Multi-loop baseline: rebuild the lower solution and the adjoint vector
with inner loops before every upper-level step.

Each outer iteration runs ``inner_iters`` stochastic gradient steps on the
lower problem, then ``solver_iters`` damped Richardson steps on the adjoint
system with a single fixed right-hand side, and finally one upper step.
Both inner loops warm-start from the previous outer iteration's iterates,
and the step sizes are the run's schedule (``RunConfig.steps``).  With
``inner_iters == solver_iters == 1`` the update sequence and stream
addressing collapse to the single-loop method exactly, so the two produce
bit-identical traces; that degeneracy doubles as an integration test.

Oracle accounting per outer iteration: ``inner_iters`` lower gradients plus
the shared upper-gradient sample plus one more gradient for the adjoint
right-hand side (inner_iters + 2 total), and ``solver_iters`` Hessian
products plus one cross (mixed second derivative) product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .hypergradient import check_lower_rates
from .ssaid import (IterationTrace, RunConfig, SSAIDState, _advance,
                    _record_trace, _setup)
from .streams import StreamFactory

__all__ = [
    "MultiLoopConfig",
    "multiloop_step",
    "run_multiloop",
]


@dataclass(frozen=True)
class MultiLoopConfig:
    """Inner lower-level steps and adjoint solver steps per outer iteration."""

    inner_iters: int
    solver_iters: int

    def __post_init__(self):
        for name in ("inner_iters", "solver_iters"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer")
            if val < 1:
                raise InvalidParameterError(f"{name} must be at least 1")


def multiloop_step(state: SSAIDState, problem, config: MultiLoopConfig,
                   factory: StreamFactory) -> SSAIDState:
    """One outer iteration.

    Inner lower steps draw at (k, lower-grad, slot j); Richardson steps draw
    fresh Hessian operators at (k, hess-op, slot j) but keep one right-hand
    side from the single shared upper sample at slot 0.  The slot-0 draws
    coincide with the single-loop method's addresses by construction.
    """
    return _advance(state, problem, factory, range(config.inner_iters),
                    range(config.solver_iters))[0]


def _multiloop_start(problem, config: MultiLoopConfig, run: RunConfig):
    """(step, initial state, per-step oracle bill) of a baseline run; the
    lower and adjoint rates must be at most 1/L."""
    state, factory = _setup(problem, run)
    check_lower_rates(state.steps, problem.constants)
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
