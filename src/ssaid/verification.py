"""Monte-Carlo verification of the method's one-step and cumulative error
bounds on problems with closed-form references.

Protocol: all replications share one realized history (the run's own stream
addresses), then branch on the draws of a single checkpoint iteration.  The
branch draws live in a reserved slot far away from every history slot, so
histories and branches never collide.  Conditional expectations are sample
means over the branch; estimated quantities carry delete-one jackknife error
bars.  A row is violated when its margin (rhs - lhs) falls below minus three
standard errors (plus a small float-precision allowance); a report passes
when at most 1% of its rows are violated.  With every noise scale at zero the
replications coincide, the error bars vanish, and each inequality has to hold
outright.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .hypergradient import DerivedConstants, StepSizes, check_lower_rates
from .problems import ProblemConstants, ReferenceSolution, reference_solution
from .ssaid import (_ONCE, IterationTrace, RunConfig, _advance, _setup,
                    iterate, run_ssaid)
from .streams import BRANCH_SLOT, StreamFactory

__all__ = [
    "LEMMA_IDS",
    "MCConfig",
    "CheckRow",
    "LemmaReport",
    "check_geometric_sum",
    "check_lower_tracking",
    "check_v_bound",
    "check_bias_recursions",
    "check_coupled_recursion",
    "check_cumulative_bounds",
    "run_lemma_suite",
    "summary_csv",
    "jackknife_se",
    "loo_mean",
]

SUMMARY_HEADER = "lemma_id,checkpoint_k,lhs,lhs_se,rhs,margin,violated"

# absolute slack for exact-equality degenerations evaluated in floats
_FP_TOL = 1e-12


@dataclass(frozen=True)
class MCConfig:
    """Replication count, checkpoint iterations, and the branch-stream seed."""

    replications: int
    checkpoints: tuple
    base_seed: int = 0

    def __post_init__(self):
        if isinstance(self.replications, bool) or not isinstance(
                self.replications, (int, np.integer)):
            raise InvalidParameterError("replications must be an integer")
        if self.replications < 2:
            raise InvalidParameterError(
                "at least 2 replications are needed for error bars")
        pts = tuple(int(k) for k in self.checkpoints)
        if not pts:
            raise InvalidParameterError("checkpoints must be nonempty")
        if any(k < 0 for k in pts):
            raise InvalidParameterError("checkpoints must be nonnegative")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InvalidParameterError(
                "checkpoints must be strictly increasing")
        object.__setattr__(self, "checkpoints", pts)


@dataclass(frozen=True)
class CheckRow:
    k: int
    lhs: float
    lhs_se: float
    rhs: float
    margin: float
    violated: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class LemmaReport:
    """One lemma's rows; ``violation_fraction`` and ``passed`` derive from
    the rows at construction, and are written with the other fields."""

    lemma_id: str
    rows: list
    replications: int
    notes: list = field(default_factory=list)
    violation_fraction: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.violation_fraction = (
            sum(1 for r in self.rows if r.violated) / len(self.rows)
            if self.rows else 0.0)
        self.passed = self.violation_fraction <= 0.01


def summary_csv(reports) -> str:
    lines = [SUMMARY_HEADER]
    for rep in reports:
        for r in rep.rows:
            lines.append(f"{rep.lemma_id},{int(r.k)},{float(r.lhs)!r},"
                         f"{float(r.lhs_se)!r},{float(r.rhs)!r},"
                         f"{float(r.margin)!r},{int(r.violated)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# jackknife helpers


def loo_mean(values: np.ndarray) -> np.ndarray:
    """Leave-one-out means along axis 0: row i is the mean without sample i."""
    arr = np.asarray(values, dtype=float)
    r = arr.shape[0]
    if r < 2:
        raise InvalidParameterError("need at least 2 samples")
    return (arr.sum(axis=0) - arr) / (r - 1)


def jackknife_se(loo_stats: np.ndarray) -> float:
    """Standard error from a statistic evaluated on each delete-one sample."""
    arr = np.asarray(loo_stats, dtype=float)
    r = arr.size
    center = arr.mean()
    return float(np.sqrt((r - 1) / r * np.sum((arr - center) ** 2)))


def _mc_row(k, lhs, se, rhs) -> CheckRow:
    margin = rhs - lhs
    slack = 3.0 * se + _FP_TOL * max(1.0, abs(lhs), abs(rhs))
    return CheckRow(k=int(k), lhs=float(lhs), lhs_se=float(se),
                    rhs=float(rhs), margin=float(margin),
                    violated=bool(margin < -slack))


# ---------------------------------------------------------------------------
# deterministic checks


def check_geometric_sum(sigma_seq, rho: float, horizon: int):
    """Brute-force the discounted double sum and its closed-form cap.

    Returns (lhs, rhs) with lhs = sum_t sum_{l<=t} (1-rho)^(t-l) sigma_l over
    t = 0..horizon and rhs = sum_t sigma_t / rho, asserting lhs <= rhs.
    """
    if not (0.0 < rho <= 1.0):
        raise InvalidParameterError("rho must lie in (0, 1]")
    if horizon < 1:
        raise InvalidParameterError("horizon must be at least 1")
    sig = np.asarray(sigma_seq, dtype=float)
    if sig.ndim != 1 or sig.size < horizon + 1:
        raise InvalidParameterError(
            "sigma_seq must provide at least horizon + 1 entries")
    sig = sig[:horizon + 1]
    if np.any(sig < 0) or not np.all(np.isfinite(sig)):
        raise InvalidParameterError("sigma_seq must be nonnegative and finite")
    lhs = 0.0
    for t in range(horizon + 1):
        for el in range(t + 1):
            lhs += (1.0 - rho) ** (t - el) * sig[el]
    rhs = float(sig.sum() / rho)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12
    return float(lhs), rhs


def check_v_bound(trace: IterationTrace, constants: ProblemConstants,
                  derived: DerivedConstants) -> LemmaReport:
    """Scan a trace for adjoint-iterate norms above the stability radius.

    Deterministic: every recorded row must satisfy
    ||v_k|| <= ||v_0|| + M/mu (plus a 1e-9 absolute allowance).
    """
    cap = derived.v0_norm + constants.lipschitz_M / constants.mu + 1e-9
    rows = []
    for i in range(trace.n_rows):
        lhs = float(trace.v_norm[i])
        rows.append(CheckRow(k=int(trace.k[i]), lhs=lhs, lhs_se=0.0,
                             rhs=float(cap), margin=float(cap - lhs),
                             violated=bool(lhs > cap)))
    return LemmaReport("VBound", rows, replications=1,
                       notes=["deterministic full-trace scan; "
                              "cap = ||v0|| + M/mu + 1e-9"])


# ---------------------------------------------------------------------------
# shared history / branch machinery


@dataclass
class _History:
    xs: list          # x entering iteration t, t = 0..T (length T+1)
    ys: list          # lower iterate entering iteration t (length T+1)
    vs: list          # adjoint iterate entering iteration t (length T+1)
    gys: list         # realized upper-gradient-in-y sample at iteration t


def _simulate_history(problem, config: RunConfig, horizon: int) -> _History:
    """Replay the run's steps, capturing the per-iteration upper-gradient
    sample alongside the iterates.  Stream addresses match the runner
    exactly."""
    state, factory, _ = _setup(problem, config)
    hist = _History(xs=[state.x], ys=[state.y_hat], vs=[state.v_hat], gys=[])
    for _ in range(horizon):
        state, gy = _advance(state, problem, factory, _ONCE, _ONCE)
        hist.xs.append(state.x)
        hist.ys.append(state.y_hat)
        hist.vs.append(state.v_hat)
        hist.gys.append(gy)
    return hist


@dataclass
class _Branch:
    y: np.ndarray        # (R, dim_y) lower iterates after the branch step
    v: np.ndarray        # (R, dim_y) adjoint iterates after the branch step
    est: np.ndarray      # (R, dim_x) hypergradient estimates
    target: np.ndarray   # (R, dim_y) per-draw adjoint solves at the iterates


def _branch_iteration(problem, steps: StepSizes, hist: _History, k: int,
                      mc: MCConfig) -> _Branch:
    """Rerun iteration k from the shared history with R independent draw
    sets, all addressed at the reserved branch slot of mc.base_seed."""
    x_k = hist.xs[k]
    ys, vs, gy, est = iterate(
        problem, StreamFactory(mc.base_seed), k, x_k, hist.ys[k], hist.vs[k],
        steps.alpha, steps.eta, _ONCE, _ONCE, BRANCH_SLOT, mc.replications)
    target = problem.solve_lower_hess(x_k, ys, gy)
    return _Branch(y=ys, v=vs, est=est, target=target)


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidParameterError(msg)


def _resolve_inputs(problem, config: RunConfig, mc: MCConfig,
                    need_beta_cap: bool = False):
    state, _, derived = _setup(problem, config)
    steps = state.steps
    c = problem.constants
    check_lower_rates(steps, c)
    _require(mc.checkpoints[-1] <= config.horizon,
             "checkpoints must not exceed the run horizon")
    if need_beta_cap:
        cap = c.mu * steps.alpha / (4.0 * derived.c1)
        _require(steps.beta <= cap * (1.0 + 1e-12),
                 "this check needs beta <= mu*alpha/(4*C1)")
    return steps, derived


def _ref_cache(problem, hist: _History, ts):
    """``ref(t)``, the reference solution at history point t, for every t in
    ``ts``; one stacked solve, each row with the bits of its 1-D solve."""
    ts = sorted(set(ts))
    sol = reference_solution(problem, np.stack([hist.xs[t] for t in ts]))
    return {t: ReferenceSolution(
                sol.y_star[i], sol.v_star[i], sol.grad_phi[i],
                {name: res[i] for name, res in sol.residuals.items()})
            for i, t in enumerate(ts)}.__getitem__


def _norms(arr: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(arr * arr, axis=-1))


# ---------------------------------------------------------------------------
# Monte-Carlo checks


def check_lower_tracking(problem, config: RunConfig,
                         mc: MCConfig) -> LemmaReport:
    """Root-mean-square tracking error of the lower iterate against the
    contraction + drift + noise bound."""
    steps, _ = _resolve_inputs(problem, config, mc)
    c = problem.constants
    hist = _simulate_history(problem, config, max(mc.checkpoints))
    ref = _ref_cache(problem, hist, [t for k in mc.checkpoints
                                     for t in (k, max(k - 1, 0))])
    rows = []
    for k in mc.checkpoints:
        branch = _branch_iteration(problem, steps, hist, k, mc)
        q = np.sum((branch.y - ref(k).y_star) ** 2, axis=1)
        lhs = math.sqrt(float(q.mean()))
        se = jackknife_se(np.sqrt(loo_mean(q)))
        prev = max(k - 1, 0)  # at k = 0: the start, and no x step
        prev_err = float(np.linalg.norm(hist.ys[k] - ref(prev).y_star))
        x_step = float(np.linalg.norm(hist.xs[k] - hist.xs[prev]))
        rhs = ((1.0 - c.mu * steps.alpha / 2.0) * prev_err
               + (c.lipschitz_L / c.mu) * x_step + steps.alpha * c.sigma)
        rows.append(_mc_row(k, lhs, se, rhs))
    return LemmaReport(
        "LowerTracking", rows, replications=mc.replications,
        notes=["rhs uses the unsquared previous tracking error "
               "(the squared variant is dimensionally inconsistent)"])


def check_bias_recursions(problem, config: RunConfig, mc: MCConfig) -> list:
    """Four reports on the adjoint iterate: bias decoupling, the bias
    recursion, the per-iteration drift of the sampled target, and the
    mean-square contraction with its additive noise floor."""
    steps, derived = _resolve_inputs(problem, config, mc)
    c = problem.constants
    mu, big_l, big_m = c.mu, c.lipschitz_L, c.lipschitz_M
    alpha, eta = steps.alpha, steps.eta
    c0 = derived.c0
    hist = _simulate_history(problem, config, max(mc.checkpoints))
    ref = _ref_cache(problem, hist, mc.checkpoints)

    decoupling, bias_rec, drift, contraction = [], [], [], []
    skipped_zero = False
    for k in mc.checkpoints:
        branch = _branch_iteration(problem, steps, hist, k, mc)
        v_loo = loo_mean(branch.v)
        t_loo = loo_mean(branch.target)
        v_bar = branch.v.mean(axis=0)
        t_bar = branch.target.mean(axis=0)
        y_gap = _norms(branch.y - ref(k).y_star)
        gap_bar = float(y_gap.mean())
        gap_loo = loo_mean(y_gap)

        # bias decoupling: distance to the exact adjoint splits into the
        # estimator bias plus a lower-error term
        lhs = float(np.linalg.norm(v_bar - ref(k).v_star))
        rhs = float(np.linalg.norm(v_bar - t_bar)) + c0 * gap_bar
        margin_loo = (_norms(v_loo - t_loo) + c0 * gap_loo
                      - _norms(v_loo - ref(k).v_star))
        se = jackknife_se(margin_loo)
        decoupling.append(_mc_row(k, lhs, se, rhs))

        if k == 0:
            skipped_zero = True
            continue

        x_step = float(np.linalg.norm(hist.xs[k] - hist.xs[k - 1]))
        y_prev = hist.ys[k]
        v_prev = hist.vs[k]
        # conditioning on everything through iteration k-1 makes both
        # previous-iterate expectations collapse to realized values, so the
        # anchor is the realized sampled adjoint solve
        t_prev = problem.solve_lower_hess(hist.xs[k - 1], y_prev,
                                          hist.gys[k - 1])

        lhs = float(np.linalg.norm(v_bar - t_bar))
        se = jackknife_se(_norms(v_loo - t_loo))
        rhs = ((1.0 - mu * eta) * float(np.linalg.norm(v_prev - t_prev))
               + c0 * alpha * big_m + c0 * x_step)
        bias_rec.append(_mc_row(k, lhs, se, rhs))

        # drift of the sampled target across one iteration
        d = _norms(branch.target - t_prev)
        lhs = float(d.mean())
        se = jackknife_se(loo_mean(d))
        rhs = c0 * x_step + (alpha * big_m * c0 + 2.0 * big_m / mu)
        drift.append(_mc_row(k, lhs, se, rhs))

        # mean-square contraction with drift, noise, and variance floors
        sq = np.sum((branch.v - branch.target) ** 2, axis=1)
        lhs = float(sq.mean())
        se = jackknife_se(loo_mean(sq))
        prev_sq = float(np.sum((v_prev - t_prev) ** 2))
        rhs = ((1.0 - mu * eta / 2.0) * prev_sq
               + (6.0 * c0 * c0 / (mu * eta)) * x_step * x_step
               + (3.0 / (mu * eta)) * (alpha * big_m * c0 + 4.0 * big_m / mu) ** 2
               + 16.0 * eta * eta * big_l * big_l
               * (derived.v0_norm ** 2 + big_m * big_m / (mu * mu)))
        contraction.append(_mc_row(k, lhs, se, rhs))

    skip_note = "checkpoint 0 skipped (no previous iteration)"
    reports = [
        LemmaReport("BiasDecoupling", decoupling, mc.replications,
                    notes=["lower-error term uses the branch mean"]),
        LemmaReport("EstimatorBiasRecursion", bias_rec, mc.replications,
                    notes=["previous-iterate terms use realized history "
                           "values (conditioning through the prior "
                           "iteration)"]),
        LemmaReport("AdjointDrift", drift, mc.replications,
                    notes=["previous target uses the realized history "
                           "sample"]),
        LemmaReport("MeanSquareContraction", contraction, mc.replications,
                    notes=["additive floor uses the initial adjoint norm; "
                           "the uniform norm bound would give a looser "
                           "floor"]),
    ]
    if skipped_zero:
        for rep in reports[1:]:
            rep.notes.append(skip_note)
    return reports


def _composite(problem, derived, branch, ref_k) -> tuple:
    """Composite tracking quantity and its leave-one-out values."""
    big_l = problem.constants.lipschitz_L
    y_gap = _norms(branch.y - ref_k.y_star)
    full = (derived.c2 * float(y_gap.mean())
            + big_l * float(np.linalg.norm(branch.v.mean(axis=0)
                                           - branch.target.mean(axis=0))))
    loo = (derived.c2 * loo_mean(y_gap)
           + big_l * _norms(loo_mean(branch.v) - loo_mean(branch.target)))
    return full, loo


def _initial_composite(problem, derived, hist: _History, ref) -> float:
    """Composite tracking quantity of the first realized iteration."""
    t0 = problem.solve_lower_hess(hist.xs[0], hist.ys[1], hist.gys[0])
    return (derived.c2 * float(np.linalg.norm(hist.ys[1] - ref(0).y_star))
            + problem.constants.lipschitz_L
            * float(np.linalg.norm(hist.vs[1] - t0)))


def check_coupled_recursion(problem, config: RunConfig, mc: MCConfig) -> list:
    """The squared composite tracking bound plus the two pointwise
    hypergradient error bounds it feeds."""
    steps, derived = _resolve_inputs(problem, config, mc, need_beta_cap=True)
    c = problem.constants
    mu, big_l, big_m = c.mu, c.lipschitz_L, c.lipschitz_M
    alpha, beta = steps.alpha, steps.beta
    c1, c2 = derived.c1, derived.c2
    c_beta = derived.c_beta(c, alpha, beta)
    horizon = max(mc.checkpoints)
    hist = _simulate_history(problem, config, max(horizon, 1))
    # the initial composite, every checkpoint and the iterations before it
    ref = _ref_cache(problem, hist, range(horizon + 1))
    psi0 = _initial_composite(problem, derived, hist, ref)
    rate = 1.0 - mu * alpha / 8.0

    coupled, bias_rows, mse_rows = [], [], []
    base_case = False
    for k in mc.checkpoints:
        branch = _branch_iteration(problem, steps, hist, k, mc)
        comp, comp_loo = _composite(problem, derived, branch, ref(k))
        if k == 0:
            # zero recursion steps: both sides are the realized initial
            # composite squared
            base_case = True
            coupled.append(CheckRow(k=0, lhs=psi0 ** 2, lhs_se=0.0,
                                    rhs=psi0 ** 2, margin=0.0,
                                    violated=False))
        else:
            lhs = comp ** 2
            se = jackknife_se(comp_loo ** 2)
            geo_grad = sum(rate ** (k - 1 - t)
                           * float(ref(t).grad_phi @ ref(t).grad_phi)
                           for t in range(k))
            geo_one = sum(rate ** (k - 1 - t) for t in range(k))
            rhs = (rate ** k * psi0 ** 2
                   + (64.0 * beta * beta * c1 * c1 / (mu * alpha)) * geo_grad
                   + (64.0 / (mu * alpha)) * c_beta ** 2 * geo_one)
            coupled.append(_mc_row(k, lhs, se, rhs))

        grad_phi = ref(k).grad_phi
        est_loo = loo_mean(branch.est)

        lhs = float(np.linalg.norm(branch.est.mean(axis=0) - grad_phi))
        se = jackknife_se(comp_loo - _norms(est_loo - grad_phi))
        bias_rows.append(_mc_row(k, lhs, se, comp))

        err = _norms(branch.est - grad_phi)
        vn_loo = loo_mean(_norms(branch.v))
        lhs = float(err.mean())
        rhs = comp + 2.0 * big_m + 2.0 * big_l * float(_norms(branch.v).mean())
        rhs_loo = comp_loo + 2.0 * big_m + 2.0 * big_l * vn_loo
        se = jackknife_se(rhs_loo - loo_mean(err))
        mse_rows.append(_mc_row(k, lhs, se, rhs))

    notes = ["initial composite evaluated on the realized first iteration"]
    if base_case:
        notes.append("checkpoint 0 is the empty-recursion identity")
    return [
        LemmaReport("CoupledRecursion", coupled, mc.replications, notes=notes),
        LemmaReport("HypergradBias", bias_rows, mc.replications,
                    notes=["rhs is the composite tracking quantity"]),
        LemmaReport("HypergradMSE", mse_rows, mc.replications,
                    notes=["first-moment bound with the sampling floor "
                           "2M + 2L*E||v||"]),
    ]


def check_cumulative_bounds(problem, config: RunConfig,
                            mc: MCConfig) -> LemmaReport:
    """Cumulative squared bias and mean-square error of the hypergradient
    estimates along one realized trajectory, branched at every iteration.

    Two rows per checkpoint k: first the squared-bias sum over iterations
    0..k-1, then the mean-square sum.  Error bars add in quadrature across
    iterations since each branch uses independent draws.
    """
    steps, derived = _resolve_inputs(problem, config, mc)
    c = problem.constants
    mu, big_m = c.mu, c.lipschitz_M
    alpha, beta = steps.alpha, steps.beta
    c1, c3 = derived.c1, derived.c3
    c_beta = derived.c_beta(c, alpha, beta)
    ks = [k for k in mc.checkpoints if k >= 1]
    notes = ["rows alternate per checkpoint: squared-bias sum then "
             "mean-square sum",
             "error bars summed in quadrature across iterations"]
    if len(ks) < len(mc.checkpoints):
        notes.append("checkpoint 0 skipped (empty sums)")
    if not ks:
        return LemmaReport("CumulativeBias", [], mc.replications, notes=notes)
    k_max = max(ks)
    hist = _simulate_history(problem, config, k_max)
    ref = _ref_cache(problem, hist, range(k_max))
    psi0_sq = _initial_composite(problem, derived, hist, ref) ** 2

    bias_terms, mse_terms, bias_var, mse_var, grad_sq = [], [], [], [], []
    for el in range(k_max):
        branch = _branch_iteration(problem, steps, hist, el, mc)
        gphi = ref(el).grad_phi
        est_loo = loo_mean(branch.est)
        bias_terms.append(float(np.sum((branch.est.mean(axis=0) - gphi) ** 2)))
        bias_var.append(jackknife_se(np.sum((est_loo - gphi) ** 2,
                                            axis=1)) ** 2)
        err_sq = np.sum((branch.est - gphi) ** 2, axis=1)
        mse_terms.append(float(err_sq.mean()))
        mse_var.append(jackknife_se(loo_mean(err_sq)) ** 2)
        grad_sq.append(float(gphi @ gphi))

    rows = []
    for k in ks:
        gsum = sum(grad_sq[:k])
        lhs = sum(bias_terms[:k])
        se = math.sqrt(sum(bias_var[:k]))
        rhs = ((8.0 / (mu * alpha)) * psi0_sq
               + (2 ** 8 * beta * beta * c1 * c1 / (mu * mu * alpha * alpha)) * gsum
               + (2 ** 8 / (mu * mu * alpha * alpha)) * c_beta ** 2)
        rows.append(_mc_row(k, lhs, se, rhs))

        lhs = sum(mse_terms[:k])
        se = math.sqrt(sum(mse_var[:k]))
        rhs = ((16.0 / (mu * alpha)) * psi0_sq
               + 8.0 * k * c3 * c3
               + (2 ** 9 * beta * beta * c1 * c1 / (mu * mu * alpha * alpha)) * gsum
               + (2 ** 9 / (mu * mu * alpha * alpha)) * c_beta ** 2)
        rows.append(_mc_row(k, lhs, se, rhs))
    return LemmaReport("CumulativeBias", rows, mc.replications, notes=notes)


# ---------------------------------------------------------------------------
# full suite


def _geom_sum_report(mc: MCConfig) -> LemmaReport:
    cases = [
        ((1.0, 0.0, 0.0), 0.5, 2),
        ((1.0, 1.0, 1.0, 1.0), 1.0, 3),
        ((0.3, 2.0, 0.0, 1.7, 0.9), 0.25, 4),
    ]
    rng = np.random.default_rng(mc.base_seed)
    for _ in range(5):
        horizon = int(rng.integers(5, 60))
        rho = float(rng.uniform(0.05, 1.0))
        cases.append((rng.uniform(0.0, 2.0, horizon + 1), rho, horizon))
    rows = []
    for i, (sig, rho, horizon) in enumerate(cases):
        lhs, rhs = check_geometric_sum(sig, rho, horizon)
        rows.append(CheckRow(k=i, lhs=lhs, lhs_se=0.0, rhs=rhs,
                             margin=rhs - lhs,
                             violated=bool(lhs > rhs * (1 + 1e-12) + 1e-12)))
    return LemmaReport("GeomSum", rows, replications=1,
                       notes=["row index enumerates hand-picked and seeded "
                              "random sequences, not iterations"])


def _v_bound_report(problem, config: RunConfig) -> LemmaReport:
    trace = run_ssaid(problem, dataclasses.replace(config, stride=1))
    return check_v_bound(trace, problem.constants, trace.derived)


# the suite in report order: (check, the ids of the reports it returns).
# Each lambda looks its check up by name at call time, so a check swapped
# on the module is the one that runs.
_REGISTRY = (
    (lambda p, c, mc: [_geom_sum_report(mc)], ("GeomSum",)),
    (lambda p, c, mc: [check_lower_tracking(p, c, mc)], ("LowerTracking",)),
    (lambda p, c, mc: [_v_bound_report(p, c)], ("VBound",)),
    (lambda p, c, mc: check_bias_recursions(p, c, mc),
     ("BiasDecoupling", "EstimatorBiasRecursion", "AdjointDrift",
      "MeanSquareContraction")),
    (lambda p, c, mc: check_coupled_recursion(p, c, mc),
     ("CoupledRecursion", "HypergradBias", "HypergradMSE")),
    (lambda p, c, mc: [check_cumulative_bounds(p, c, mc)],
     ("CumulativeBias",)),
)
LEMMA_IDS = tuple(lid for _, ids in _REGISTRY for lid in ids)

# accepted spellings of each id, matched case-insensitively: the id itself
# and its snake_case form (HypergradMSE -> hypergrad_mse)
_SPELLINGS = {spelling.lower(): lid for lid in LEMMA_IDS for spelling in (
    lid, re.sub(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "_", lid))}


def run_lemma_suite(problem, config: RunConfig, mc: MCConfig,
                    lemma=None) -> list:
    """All checks in a fixed order, one report per lemma id; with ``lemma``
    (an id, in any case or in snake_case) only that lemma's report."""
    want = None if lemma is None else _SPELLINGS.get(str(lemma).lower())
    if lemma is not None and want is None:
        raise InvalidParameterError(
            f"unknown lemma {lemma!r}; known: {', '.join(LEMMA_IDS)}")
    reports = []
    for check, ids in _REGISTRY:
        if want is None or want in ids:
            reports.extend(r for r in check(problem, config, mc)
                           if want in (None, r.lemma_id))
    return reports
