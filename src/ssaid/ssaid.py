"""Single-loop stochastic bilevel descent with warm-started inner iterates.

Each iteration advances three coupled sequences with one sampled oracle call
apiece: a lower-level SGD step on y_hat, one Richardson sweep on the adjoint
v_hat against a freshly sampled Hessian, and an upper step along the
stochastic hypergradient assembled from the same upper-gradient draw.  The
per-iteration oracle bill is therefore constant: 3 gradient samples and 2
matrix-vector samples.

Traces record post-iteration snapshots: row k holds the exact gradient of
the implicit objective at the iterate the step started from, the tracking
errors of the freshly produced y_hat/v_hat against ground truth at that
same iterate, the upper-step length, and cumulative oracle counters.  The
reference solves behind the rows run in stacked blocks of 256 rows; each
row has the bytes of its one-row solve.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .hypergradient import (DerivedConstants, StepSizes,
                            compute_derived_constants, default_step_sizes)
from .problems import _SOLVE_BLOCK, _row_dot, _row_norm, reference_solution
from .streams import (
    TAG_CROSS_OP,
    TAG_HESS_OP,
    TAG_LOWER_GRAD,
    TAG_UPPER_GRAD,
    StreamFactory,
)

__all__ = [
    "SSAIDState",
    "RunConfig",
    "IterationTrace",
    "TRACE_COLUMNS",
    "ssaid_step",
    "run_ssaid",
    "iterate",
    "resolve_step_sizes",
    "initial_vectors",
]

TRACE_COLUMNS = ("k", "grad_phi_sq", "y_err", "v_err", "v_norm",
                 "x_step_norm", "phi", "gc_count", "mv_count")
# each column's type; the CSV holds the header, then the values' reprs
_TRACE_TYPES = (int,) + (float,) * 6 + (int, int)


@dataclass
class SSAIDState:
    x: np.ndarray
    y_hat: np.ndarray
    v_hat: np.ndarray
    k: int
    steps: StepSizes


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the problem itself.

    ``steps`` is either an explicit StepSizes or the string "auto", which
    derives the schedule from the problem constants and the horizon.
    ``stride`` thins the trace: rows (and the reference solves backing them)
    are produced at every stride-th iteration plus the final one.
    """

    seed: int
    horizon: int
    steps: object = "auto"
    stride: int = 1
    x0: object = None
    y0: object = None
    v0: object = None

    def __post_init__(self):
        if self.horizon < 0:
            raise InvalidParameterError("horizon must be >= 0")
        if self.stride < 1:
            raise InvalidParameterError("stride must be >= 1")
        if not isinstance(self.steps, StepSizes) and self.steps != "auto":
            raise InvalidParameterError("steps must be a StepSizes or 'auto'")


# ---------------------------------------------------------------------------
# the iteration kernel, shared by the single-loop step, the multi-loop
# baseline and the verifier's history replays and branches

_ONCE = range(1)  # prebuilt: a range per iteration shows in the sweep


def _oracle_bill(inner: int, solver: int) -> tuple:
    """(gradient, matrix-vector) oracle calls of one ``iterate`` call with
    ``inner`` lower steps and ``solver`` adjoint steps: the lower gradients
    plus the upper-gradient sample plus one more gradient for the adjoint
    right-hand side, and the Hessian products plus one cross product.  The
    single loop is the (1, 1) case: (3, 2)."""
    return inner + 2, solver + 1


def iterate(problem, factory: StreamFactory, k, x, y, v, alpha, eta, inner,
            solver, slot, reps):
    """One iteration body at the upper iterate ``x``: a lower SGD step per
    offset j in the range ``inner``, one upper-gradient sample, a damped
    Richardson step per j in ``solver`` (fresh Hessian draw, one fixed
    right-hand side) and the cross draw.  Per-step draws sit at
    (k, tag, slot + j), the upper and cross draws at (k, tag, slot);
    ``reps`` batches every draw along a leading axis (None: one draw).
    Returns (y, v, gy, estimate): the new iterates, the realized upper
    gradient in y and the hypergradient estimate."""
    tags = problem.stochastic_tags
    for j in inner:
        gen = factory.at(k, TAG_LOWER_GRAD, slot + j) if TAG_LOWER_GRAD in tags else None
        y = y - alpha * problem.sample_lower_grad(x, y, gen, reps=reps)
    gen = factory.at(k, TAG_UPPER_GRAD, slot) if TAG_UPPER_GRAD in tags else None
    gx, gy = problem.sample_upper_grads(x, y, gen, reps=reps)
    for j in solver:
        gen = factory.at(k, TAG_HESS_OP, slot + j) if TAG_HESS_OP in tags else None
        hvp = problem.sample_hess_operator(x, gen, reps=reps)
        v = v - eta * hvp(y, v) + eta * gy
    gen = factory.at(k, TAG_CROSS_OP, slot) if TAG_CROSS_OP in tags else None
    jvp = problem.sample_cross_operator(x, gen, reps=reps)
    return y, v, gy, gx - jvp(y, v)


def _finite(x, y, v) -> bool:
    """Whether the entries of the three iterates sum to a finite number,
    which fails on any nan or inf and on overflow.  A magnitude sum below
    1e300, on Python floats, settles it cheaply: then every entry is finite
    and no partial sum can overflow."""
    if (sum(map(abs, x.tolist())) + sum(map(abs, y.tolist()))
            + sum(map(abs, v.tolist()))) < 1e300:
        return True
    add = np.add.reduce
    return math.isfinite(float(add(x)) + float(add(y)) + float(add(v)))


def _finite_rows(x, y, v) -> list:
    """``_finite`` of each row of stacked iterates; the magnitude sum over
    all rows settles the common case at once."""
    if (sum(map(abs, x.ravel().tolist())) + sum(map(abs, y.ravel().tolist()))
            + sum(map(abs, v.ravel().tolist()))) < 1e300:
        return [True] * len(x)
    return [_finite(*row) for row in zip(x, y, v)]


def _advance(state: SSAIDState, problem, factory: StreamFactory, inner,
             solver):
    """One iteration from ``state`` with the lower steps ``inner`` and the
    adjoint steps ``solver`` (see ``iterate``), draws at slot 0, then the
    upper step.  Returns (new state, realized upper gradient in y); a
    nonfinite iterate raises DivergenceError carrying ``state``."""
    k = state.k
    x = state.x
    alpha, eta, beta = state.steps._arrays
    y, v, gy, est = iterate(problem, factory, k, x, state.y_hat, state.v_hat,
                            alpha, eta, inner, solver, 0, None)
    x_new = x - beta * est
    if not _finite(x_new, y, v):
        raise DivergenceError(
            f"nonfinite iterate at iteration {k}", iteration=k, state=state)
    return SSAIDState(x=x_new, y_hat=y, v_hat=v, k=k + 1,
                      steps=state.steps), gy


def ssaid_step(state: SSAIDState, problem, factory: StreamFactory) -> SSAIDState:
    """One full iteration; draws live at (seed, k, tag, 0)."""
    return _advance(state, problem, factory, _ONCE, _ONCE)[0]


# ---------------------------------------------------------------------------
# traces


@dataclass
class IterationTrace:
    k: np.ndarray
    grad_phi_sq: np.ndarray
    y_err: np.ndarray
    v_err: np.ndarray
    v_norm: np.ndarray
    x_step_norm: np.ndarray
    phi: np.ndarray
    gc_count: np.ndarray
    mv_count: np.ndarray
    final_state: SSAIDState | None = field(default=None, compare=False)
    steps: StepSizes | None = field(default=None, compare=False)
    derived: DerivedConstants | None = field(default=None, compare=False)

    @classmethod
    def from_rows(cls, rows, final_state=None, steps=None,
                  derived=None) -> "IterationTrace":
        cols = list(zip(*rows)) if rows else [[] for _ in TRACE_COLUMNS]
        return cls(**{name: np.asarray(col).astype(kind) for name, kind, col
                      in zip(TRACE_COLUMNS, _TRACE_TYPES, cols)},
                   final_state=final_state, steps=steps, derived=derived)

    @property
    def n_rows(self) -> int:
        return int(self.k.size)

    def running_average(self) -> np.ndarray:
        """Mean of grad_phi_sq over recorded rows up to and including each row."""
        n = self.n_rows
        if n == 0:
            return np.empty(0)
        return np.cumsum(self.grad_phi_sq) / np.arange(1, n + 1)

    def csv_text(self) -> str:
        cols = [getattr(self, name).tolist() for name in TRACE_COLUMNS]
        lines = [",".join(TRACE_COLUMNS)]
        lines.extend(",".join(map(repr, row)) for row in zip(*cols))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "IterationTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != ",".join(TRACE_COLUMNS):
            raise InvalidParameterError("trace CSV header mismatch")
        rows = []
        for ln in lines[1:]:
            try:
                rows.append([kind(p) for kind, p in
                             zip(_TRACE_TYPES, ln.split(","), strict=True)])
            except ValueError as exc:
                raise InvalidParameterError(f"malformed trace row: {ln!r}") from exc
        return cls.from_rows(rows)


# ---------------------------------------------------------------------------
# run loop


def initial_vectors(problem, config: RunConfig):
    def prep(val, dim, name):
        vec = np.zeros(dim) if val is None else np.array(val, dtype=float)
        if vec.shape != (dim,):
            raise InvalidParameterError(f"{name} must have shape ({dim},)")
        if not np.all(np.isfinite(vec)):
            raise InvalidParameterError(f"{name} must be finite")
        return vec

    return (prep(config.x0, problem.dim_x, "x0"),
            prep(config.y0, problem.dim_y, "y0"),
            prep(config.v0, problem.dim_y, "v0"))


def resolve_step_sizes(problem, config: RunConfig, v0: np.ndarray) -> StepSizes:
    """The step sizes of a run of ``config`` started from the adjoint
    iterate ``v0``: the explicit ones, or the automatic schedule."""
    return _setup(problem, dataclasses.replace(config, v0=v0))[0].steps


def _reference_rows(problem, buffered, counts):
    """Trace rows of the buffered (k, x_before, state) triples, from one
    stacked reference solve; every norm is one ddot per row, so each row
    has the bits of its one-row computation.  ``counts`` is the
    per-iteration (gradient, matrix-vector) oracle bill."""
    ks = [k for k, _, _ in buffered]
    x = np.stack([x_before for _, x_before, _ in buffered])
    x_new, y_hat, v_hat = (np.stack([getattr(st, name) for _, _, st in buffered])
                           for name in ("x", "y_hat", "v_hat"))
    ref = reference_solution(problem, x)
    cols = (_row_dot(ref.grad_phi, ref.grad_phi),
            _row_norm(y_hat - ref.y_star), _row_norm(v_hat - ref.v_star),
            _row_norm(v_hat), _row_norm(x_new - x),
            problem.upper.value(x, ref.y_star))
    gc, mv = counts
    return [(k, *vals, gc * (k + 1), mv * (k + 1))
            for k, *vals in zip(ks, *(c.tolist() for c in cols))]


def _record_trace(problem, config: RunConfig, step, state: SSAIDState,
                  counts, derived: DerivedConstants) -> IterationTrace:
    """Advance ``state`` by ``config.horizon`` calls of ``step``, with a
    reference row after every stride-th and the final step; ``counts`` is
    the per-iteration oracle bill (``_oracle_bill``) and ``derived`` the
    run's constants, which the trace carries.  Horizon 0 records the
    initial point.  Rows are buffered and solved in blocks of
    ``_SOLVE_BLOCK``; a DivergenceError leaves carrying every row recorded
    before it."""
    steps, horizon, stride = state.steps, config.horizon, config.stride
    rows, pending = [], []

    def flush(bill=counts):
        if pending:
            rows.extend(_reference_rows(problem, pending, bill))
            pending.clear()

    try:
        for k in range(horizon):
            x_before = state.x
            state = step(state)
            if k % stride == 0 or k == horizon - 1:
                pending.append((k, x_before, state))
                if len(pending) == _SOLVE_BLOCK:
                    flush()
    except DivergenceError as err:
        flush()
        err.trace = IterationTrace.from_rows(rows, final_state=err.state,
                                             steps=steps, derived=derived)
        raise
    flush()
    if not rows:
        # the initial point, with no step taken and no oracle called
        pending.append((0, state.x, state))
        flush((0, 0))
    return IterationTrace.from_rows(rows, final_state=state, steps=steps,
                                    derived=derived)


def _setup(problem, config: RunConfig):
    """(initial state, stream factory, derived constants) of a run of
    ``config``: the start vectors, the explicit or automatic step sizes,
    and the constants derived from ||v0||.  Every runner starts here."""
    x0, y0, v0 = initial_vectors(problem, config)
    derived = compute_derived_constants(problem.constants,
                                        v0_norm=float(np.linalg.norm(v0)))
    steps = config.steps
    if not isinstance(steps, StepSizes):
        steps = default_step_sizes(derived, problem.constants,
                                   horizon_k=max(config.horizon, 1))
    return (SSAIDState(x=x0, y_hat=y0, v_hat=v0, k=0, steps=steps),
            StreamFactory(config.seed), derived)


def run_ssaid(problem, config: RunConfig) -> IterationTrace:
    """Run the single-loop method for ``config.horizon`` iterations.

    Identical (problem, config) pairs produce byte-identical traces.  A
    nonfinite iterate aborts with a DivergenceError carrying the rows
    recorded so far.
    """
    state, factory, derived = _setup(problem, config)
    return _record_trace(problem, config,
                         lambda st: ssaid_step(st, problem, factory), state,
                         _oracle_bill(1, 1), derived)
