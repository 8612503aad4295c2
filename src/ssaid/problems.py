"""Synthetic stochastic bilevel problems with analytic ground truth.

A problem bundles a strongly convex lower objective g(x, y), a smooth upper
objective f(x, y), sampled oracles for both, and the constants
(mu, L, rho, M, sigma, tau) that every derived bound is built from.

Two families are provided:

* ``QuadraticBilevelProblem`` -- g is quadratic in y with a constant
  Hessian, so y*(x), the adjoint solve, and the exact hypergradient are all
  one cached Cholesky solve.  Second-derivative Lipschitz constant rho = 0.
* ``LogisticBilevelProblem`` -- ridge-regularized logistic loss, rho > 0,
  reference solutions via damped Newton.  Sampling is minibatching over
  rows.

Sampled-oracle convention: every ``sample_*`` method takes a Generator
positioned by the caller (see ``streams``) and an optional ``reps`` count.
With ``reps=None`` it returns single-draw arrays; with ``reps=R`` it draws
R independent samples at once and returns arrays with a leading R axis.
Evaluation points y may carry the same leading axis.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    InvalidProblemError,
)
from .streams import TAG_CROSS_OP, TAG_HESS_OP, TAG_LOWER_GRAD, TAG_UPPER_GRAD

__all__ = [
    "ProblemConstants",
    "NoiseModel",
    "PseudoHuberCosineUpper",
    "PlainQuadraticUpper",
    "ReferenceSolution",
    "QuadraticBilevelProblem",
    "LogisticBilevelProblem",
    "make_quadratic_problem",
    "make_logistic_problem",
    "lower_solution",
    "reference_solution",
    "problem_to_json",
    "problem_from_json",
    "problem_hash",
    "REFERENCE_TOL",
]

REFERENCE_TOL = 1e-12


def _finite(*vals) -> bool:
    return all(np.isfinite(v) for v in vals)


def _linalg():
    """``scipy.linalg``, for the Cholesky factor and solves of a quadratic
    problem's Hessian.  Imported at the first quadratic problem, not with
    the package: it takes longer than the rest of the package's imports,
    and the logistic family never calls it."""
    import scipy.linalg
    return scipy.linalg


def _check_keys(d: dict, names: set, where: str):
    """Refuse a JSON object whose keys are not exactly ``names``, the keys
    that the writer emits."""
    if d.keys() != names:
        raise InvalidProblemError(
            f"{where}: unexpected keys {sorted(d.keys() - names)}, "
            f"missing keys {sorted(names - d.keys())}")


def _from_fields(cls, d: dict, part: str):
    """``cls`` from ``d``, the JSON form of the problem's ``part``: ``d``
    holds every field of ``cls`` and no other key, and each derived field
    (``init=False``) equals the built object's."""
    _check_keys(d, {f.name for f in fields(cls)}, f"problem JSON {part}")
    obj = cls(**{f.name: d[f.name] for f in fields(cls) if f.init})
    for f in fields(cls):
        if not f.init and d[f.name] != getattr(obj, f.name):
            raise InvalidProblemError(
                f"problem JSON {part}.{f.name}={d[f.name]!r} disagrees with "
                f"its derived value {getattr(obj, f.name)!r}")
    return obj


def _float_fields(part):
    """Store every init field of the frozen ``part`` that is not an array as
    a float, so a value's type is decided once, at construction."""
    for f in fields(part):
        if f.init and not isinstance(getattr(part, f.name), np.ndarray):
            object.__setattr__(part, f.name, float(getattr(part, f.name)))


@dataclass(frozen=True)
class ProblemConstants:
    """(mu, L, rho, M, sigma, tau) driving every derived bound.

    lipschitz_M may be +inf for an upper objective flagged as violating the
    bounded-gradient assumption; everything else must be finite.
    """

    mu: float
    lipschitz_L: float
    rho: float
    lipschitz_M: float
    sigma: float
    tau: float
    kappa: float = field(init=False)   # lipschitz_L / mu

    def __post_init__(self):
        _float_fields(self)
        if not _finite(self.mu, self.lipschitz_L, self.rho, self.sigma, self.tau):
            raise InvalidParameterError("constants must be finite")
        if math.isnan(self.lipschitz_M):
            raise InvalidParameterError("lipschitz_M must not be NaN")
        if self.mu <= 0:
            raise InvalidParameterError(f"mu must be positive, got {self.mu}")
        if self.lipschitz_L < self.mu:
            raise InvalidParameterError(
                f"lipschitz_L ({self.lipschitz_L}) must be >= mu ({self.mu})")
        if min(self.rho, self.lipschitz_M, self.sigma, self.tau) < 0:
            raise InvalidParameterError("rho, lipschitz_M, sigma, tau must be >= 0")
        object.__setattr__(self, "kappa", self.lipschitz_L / self.mu)


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise attached to the sampled oracles.

    sigma   -- lower-gradient noise std; Gaussian with variance sigma^2/dim_y
               per coordinate so the total variance is exactly sigma^2.
    radius  -- upper-gradient perturbation: one draw xi uniform on the sphere
               of radius ``radius`` in R^(dim_x+dim_y), added to
               (grad_x f, grad_y f).  Keeps every per-sample objective
               exactly Lipschitz.
    hess_scale -- optional second-order noise: the sampled lower Hessian is
               H + u*P with u ~ U[0, hess_scale] and P a fixed PSD direction
               (lambda_max(P) = 1), preserving strong convexity for every
               draw.  Note E[u] > 0: this oracle is deliberately biased.
    """

    sigma: float = 0.0
    radius: float = 0.0
    hess_scale: float = 0.0

    def __post_init__(self):
        _float_fields(self)
        if not _finite(self.sigma, self.radius, self.hess_scale):
            raise InvalidParameterError("noise parameters must be finite")
        if min(self.sigma, self.radius, self.hess_scale) < 0:
            raise InvalidParameterError("noise parameters must be >= 0")


# ---------------------------------------------------------------------------
# upper objectives


def _pseudo_huber(u: np.ndarray, delta: float) -> np.ndarray:
    return delta * delta * (np.sqrt(1.0 + (u / delta) ** 2) - 1.0)


@dataclass(frozen=True)
class PseudoHuberCosineUpper:
    """f(x, y) = sum_i pseudo_huber(y_i - t_i; delta) + a * sum_j cos(w x_j).

    Gradient norm is globally bounded (each pseudo-Huber slope is < delta,
    each cosine slope is < a*w), which is what keeps the value-Lipschitz
    constant M finite and closed-form.
    """

    target: np.ndarray
    cos_amp: float = 0.0
    cos_freq: float = 1.0
    huber_delta: float = 1.0
    kind: str = field(default="pseudo_huber_cosine", init=False)

    assumption_violating = False

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        _float_fields(self)
        if self.target.ndim != 1:
            raise InvalidParameterError("target must be a vector")
        if self.huber_delta <= 0:
            raise InvalidParameterError("huber_delta must be positive")
        if self.cos_amp < 0 or self.cos_freq < 0:
            raise InvalidParameterError("cos_amp and cos_freq must be >= 0")
        # 0-d array copies, for speed (see StepSizes)
        for name, val in (("_slope", -self.cos_amp * self.cos_freq),
                          ("_freq", self.cos_freq), ("_delta", self.huber_delta),
                          ("_delta_sq", self.huber_delta * self.huber_delta)):
            object.__setattr__(self, name, np.array(val))

    def value(self, x: np.ndarray, y: np.ndarray):
        """f(x, y); a leading row axis on x and y gives one value per row."""
        return (np.sum(_pseudo_huber(y - self.target, self.huber_delta), axis=-1)
                + self.cos_amp * np.sum(np.cos(self.cos_freq * x), axis=-1))

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._slope * np.sin(self._freq * x)

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = y - self.target
        return u * self._delta / np.sqrt(self._delta_sq + u * u)

    def grad_bound(self, dim_x: int, dim_y: int) -> float:
        return dim_y * self.huber_delta + self.cos_amp * self.cos_freq * dim_x

    def grad_lipschitz(self) -> float:
        # pseudo-Huber curvature peaks at 1 regardless of delta
        return max(1.0, self.cos_amp * self.cos_freq ** 2)


@dataclass(frozen=True)
class PlainQuadraticUpper:
    """f(x, y) = 0.5 ||y - t||^2 + 0.5 x_weight ||x||^2.

    The gradient is unbounded, so the bounded-value-Lipschitz assumption
    fails globally; kept around for experiments that knowingly leave the
    assumption set, and flagged as such.  Constants computed from it carry
    lipschitz_M = inf, which makes automatic step-size selection refuse to
    run.
    """

    target: np.ndarray
    x_weight: float = 0.0
    kind: str = field(default="plain_quadratic", init=False)

    assumption_violating = True

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        _float_fields(self)
        if self.target.ndim != 1:
            raise InvalidParameterError("target must be a vector")
        if self.x_weight < 0:
            raise InvalidParameterError("x_weight must be >= 0")

    def value(self, x, y):
        """f(x, y); a leading row axis on x and y gives one value per row."""
        return (0.5 * np.sum((y - self.target) ** 2, axis=-1)
                + 0.5 * self.x_weight * np.sum(x ** 2, axis=-1))

    def grad_x(self, x, y):
        return self.x_weight * x

    def grad_y(self, x, y):
        return y - self.target

    def grad_bound(self, dim_x: int, dim_y: int) -> float:
        return math.inf

    def grad_lipschitz(self) -> float:
        return max(1.0, self.x_weight)


_UPPERS = {cls.kind: cls
           for cls in (PseudoHuberCosineUpper, PlainQuadraticUpper)}


def _upper_from_dict(d: dict):
    """The upper objective of its JSON form, of the class its kind names."""
    kind = d.get("kind")
    cls = _UPPERS.get(kind)
    if cls is None:
        raise InvalidProblemError(f"unknown upper objective kind: {kind!r}")
    return _from_fields(cls, d, "upper")


# ---------------------------------------------------------------------------
# sample plumbing shared by both families


def _row_gemv(v, mat):
    """``v @ mat`` as one (1, d) gemv per row of a stacked ``v``, which has
    the bits of the 1-D call; a plain (rows, d) gemm rounds differently."""
    return (v[..., None, :] @ mat)[..., 0, :]


def _row_dot(a, b):
    """``a @ b`` of each row of stacked vectors, one ddot per row, which has
    the bits of the 1-D call (and ``np.linalg.norm`` is the root of it)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norm(a):
    return np.sqrt(_row_dot(a, a))


def _sphere_noise(gen: np.random.Generator, dim: int, radius: float, reps):
    shape = (dim,) if reps is None else (reps, dim)
    z = gen.standard_normal(shape)
    norm = np.linalg.norm(z, axis=-1, keepdims=True)
    return radius * z / norm


class _BilevelProblemBase:
    """Shared behavior; concrete families fill in the mean oracles."""

    def _finish(self, tags):
        """The end of construction: check the stored constants against
        recomputed ones, or fill them in, and set ``stochastic_tags``, the
        oracle tags that consume randomness here: ``tags``, plus the
        upper-gradient tag under upper noise.  Hot loops skip stream
        positioning for the other tags; the sample_* methods never touch
        their generator when the matching noise scale is zero, so skipping
        keeps draws byte-identical."""
        recomputed = self._compute_constants()
        if self.constants is None:
            self.constants = recomputed
        for f in fields(recomputed):
            if not f.init:
                continue   # kappa, derived from the others
            a, b = getattr(self.constants, f.name), getattr(recomputed, f.name)
            close = math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-9
            if a != b and not close:
                raise InvalidProblemError(
                    f"stored constant {f.name}={a} disagrees with recomputed {b}")
        if self.noise.radius > 0.0:
            tags = tags | {TAG_UPPER_GRAD}
        self.stochastic_tags = frozenset(tags)

    # --- sampled oracles ------------------------------------------------

    def sample_upper_grads(self, x, y, gen, reps=None):
        gx = self.upper.grad_x(x, y)
        gy = self.upper.grad_y(x, y)
        if reps is not None:
            if gx.ndim == 1:
                gx = np.broadcast_to(gx, (reps, gx.shape[-1])).copy()
            if gy.ndim == 1:
                gy = np.broadcast_to(gy, (reps, gy.shape[-1])).copy()
        if self.noise.radius > 0.0:
            m, n = self.dim_x, self.dim_y
            xi = _sphere_noise(gen, m + n, self.noise.radius, reps)
            gx = gx + xi[..., :m]
            gy = gy + xi[..., m:]
        return gx, gy

    # --- reference solutions ---------------------------------------------

    def adjoint_solution(self, x, y):
        return self.solve_lower_hess(x, y, self.upper.grad_y(x, y))


# ---------------------------------------------------------------------------
# quadratic family


@dataclass
class QuadraticBilevelProblem(_BilevelProblemBase):
    """g(x, y) = 0.5 y'Hy - y'(Bx + c) with H constant SPD.

    y*(x) = H^{-1}(Bx + c), the lower Hessian is H everywhere, and the
    cross derivative is the constant -B', so every reference quantity is a
    cached Cholesky solve.
    """

    hess: np.ndarray       # (n, n) SPD
    coupling: np.ndarray   # (n, m), operator norm <= L
    offset: np.ndarray     # (n,)
    upper: object
    noise: NoiseModel = field(default_factory=NoiseModel)
    constants: ProblemConstants | None = None
    seed: int | None = None
    hess_noise_dir: np.ndarray | None = None  # P with lambda_max = 1

    family = "quadratic"

    def __post_init__(self):
        self.hess = np.asarray(self.hess, dtype=float)
        self.coupling = np.asarray(self.coupling, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        n = self.hess.shape[0]
        if self.hess.shape != (n, n):
            raise InvalidProblemError("hess must be square")
        if not np.allclose(self.hess, self.hess.T, atol=1e-12):
            raise InvalidProblemError("hess must be symmetric")
        if self.coupling.ndim != 2 or self.coupling.shape[0] != n:
            raise InvalidProblemError("coupling must be (dim_y, dim_x)")
        if self.offset.shape != (n,):
            raise InvalidProblemError("offset must be a dim_y vector")
        if self.hess_noise_dir is not None:
            self.hess_noise_dir = np.asarray(self.hess_noise_dir, dtype=float)
        if self.noise.hess_scale > 0.0:
            if self.hess_noise_dir is None:
                raise InvalidProblemError(
                    "hess_scale > 0 requires a hess_noise_dir matrix")
            if self.hess_noise_dir.shape != (n, n):
                raise InvalidProblemError("hess_noise_dir must match hess shape")
        linalg = _linalg()
        try:
            self._chol = linalg.cho_factor(self.hess, lower=True)[0]
        except np.linalg.LinAlgError as exc:   # scipy raises numpy's error
            raise InvalidProblemError("hess is not positive definite") from exc
        self._potrs = linalg.lapack.dpotrs
        if np.linalg.eigvalsh(self.hess)[0] <= 0:
            raise InvalidProblemError("hess is not positive definite")
        tags = {TAG_LOWER_GRAD} if self.noise.sigma > 0.0 else set()
        if self.noise.hess_scale > 0.0:
            tags.add(TAG_HESS_OP)
        self._finish(tags)
        self._noise_scale = np.array(self.noise.sigma / math.sqrt(n))  # 0-d

    # dims
    @property
    def dim_x(self) -> int:
        return self.coupling.shape[1]

    @property
    def dim_y(self) -> int:
        return self.hess.shape[0]

    def _compute_constants(self) -> ProblemConstants:
        eigs = np.linalg.eigvalsh(self.hess)
        mu = float(eigs[0])
        l_hess = float(eigs[-1])
        if self.noise.hess_scale > 0.0:
            l_hess += self.noise.hess_scale * float(
                np.linalg.eigvalsh(self.hess_noise_dir)[-1])
        b_norm = float(np.linalg.norm(self.coupling, 2))
        lip = max(l_hess, b_norm, self.upper.grad_lipschitz())
        m_bound = self.upper.grad_bound(self.dim_x, self.dim_y)
        if math.isfinite(m_bound):
            m_bound += self.noise.radius
        return ProblemConstants(mu=mu, lipschitz_L=lip, rho=0.0,
                                lipschitz_M=m_bound, sigma=self.noise.sigma,
                                tau=0.0)

    # --- mean oracles ---------------------------------------------------

    def lower_value(self, x, y) -> float:
        return float(0.5 * y @ self.hess @ y - y @ self._lin(x))

    # below, x, y and v may carry a leading row axis (the sweep's lock-step
    # seeds, the verifier's replications); every product is one gemv per
    # row, so each row has the bits of its 1-D call

    def _lin(self, x):
        return (self.coupling @ x[..., None])[..., 0] + self.offset

    def lower_grad_y(self, x, y):
        return _row_gemv(y, self.hess) - self._lin(x)

    def lower_hess_vec(self, x, y, v):
        return _row_gemv(v, self.hess)

    def lower_cross_vec(self, x, y, v):
        """Mean cross-derivative product: (d^2 g / dx dy) v = -B'v."""
        return -_row_gemv(v, self.coupling)

    def _cho_solve(self, b):
        # LAPACK's potrs, as scipy's cho_solve calls it, with its check
        # that b is finite but without its per-call overhead; the rows of a
        # stacked b are its right-hand sides, each with its 1-D bits
        return self._potrs(self._chol, np.asarray_chkfinite(b).T, lower=1)[0].T

    def solve_lower_hess(self, x, y, rhs):
        """Solve H v = rhs; a leading row axis on y or rhs (or both) gives
        one system per row, each with the same bits as its 1-D solve."""
        if y.ndim > rhs.ndim:
            rhs = np.broadcast_to(rhs, y.shape)
        return self._cho_solve(rhs)

    def lower_solution(self, x):
        """y*(x); a leading row axis on x gives one solve per row."""
        return self._cho_solve(self._lin(x))

    # --- sampled oracles ------------------------------------------------

    def sample_lower_grad(self, x, y, gen, reps=None):
        mean = self.lower_grad_y(x, y)
        n = self.dim_y
        if reps is not None and mean.ndim == 1:
            mean = np.broadcast_to(mean, (reps, n))
        if self.noise.sigma == 0.0:
            return mean.copy() if reps is not None else mean
        shape = (n,) if reps is None else (reps, n)
        return mean + gen.standard_normal(shape) * self._noise_scale

    def sample_hess_operator(self, x, gen, reps=None):
        if self.noise.hess_scale == 0.0:
            return lambda y, v: _row_gemv(v, self.hess)
        u = gen.uniform(0.0, self.noise.hess_scale,
                        size=() if reps is None else (reps,))[..., None]
        dir_mat = self.hess_noise_dir
        return lambda y, v: _row_gemv(v, self.hess) + u * _row_gemv(v, dir_mat)

    def sample_cross_operator(self, x, gen, reps=None):
        # the cross derivative of the quadratic family is deterministic
        return lambda y, v: -_row_gemv(v, self.coupling)


# ---------------------------------------------------------------------------
# logistic family


def _sigmoid(t):
    # exp(-|t|) never overflows; minimum(t, -t) rather than -abs(t) keeps
    # the sign of a NaN input, so every bit equals the two-sided masked form
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(t):
    return np.logaddexp(0.0, t)


# rows per stacked solve in LogisticBilevelProblem.solve_lower_hess, and per
# block of a run's trace rows; bounds the (rows, n, p) temporaries, so peak
# memory does not grow with the rows
_SOLVE_BLOCK = 256

# max |s''| of the sigmoid, attained at s = 1/2 +- 1/(2 sqrt 3)
_SIGMOID_D2_MAX = 1.0 / (6.0 * math.sqrt(3.0))


@dataclass
class LogisticBilevelProblem(_BilevelProblemBase):
    """g(x, y) = (mu/2)||y||^2 + sum_i softplus(a_i'y - d_i'x).

    The lower Hessian depends on y, so rho > 0 and reference solutions come
    from damped Newton.  Sampling draws ``batch_size`` rows with replacement
    and rescales by n_rows/batch_size, which is unbiased for the full sum
    and keeps every sampled objective mu-strongly convex.
    """

    features: np.ndarray    # A, (p, n)
    cross_rows: np.ndarray  # D, (p, m)
    reg: float
    batch_size: int
    upper: object
    noise: NoiseModel = field(default_factory=NoiseModel)
    constants: ProblemConstants | None = None
    seed: int | None = None
    # only "direct" remains; the field keeps problem JSON and hashes unchanged
    adjoint_method: str = "direct"

    family = "logistic"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.cross_rows = np.asarray(self.cross_rows, dtype=float)
        if self.features.ndim != 2 or self.cross_rows.ndim != 2:
            raise InvalidProblemError("features and cross_rows must be matrices")
        if self.features.shape[0] != self.cross_rows.shape[0]:
            raise InvalidProblemError("features and cross_rows need equal row counts")
        if self.reg <= 0:
            raise InvalidParameterError("reg must be positive")
        if not 1 <= self.batch_size <= self.features.shape[0]:
            raise InvalidParameterError("batch_size must be in [1, n_rows]")
        if self.adjoint_method != "direct":
            raise InvalidParameterError(
                f"adjoint_method must be 'direct', got {self.adjoint_method!r}")
        if self.noise.sigma != 0.0 or self.noise.hess_scale != 0.0:
            raise InvalidParameterError(
                "logistic lower-level noise comes from minibatching; "
                "sigma and hess_scale must stay 0")
        self._finish({TAG_LOWER_GRAD, TAG_HESS_OP, TAG_CROSS_OP})

    @property
    def dim_x(self) -> int:
        return self.cross_rows.shape[1]

    @property
    def dim_y(self) -> int:
        return self.features.shape[1]

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    def _compute_constants(self) -> ProblemConstants:
        a_sq = np.sum(self.features ** 2, axis=1)
        d_sq = np.sum(self.cross_rows ** 2, axis=1)
        row_sq = a_sq + d_sq
        p = self.n_rows
        # per-sample bounds: the worst minibatch is b copies of the worst row,
        # scaled by p/b, so the batch size cancels
        lip = self.reg + 0.25 * p * float(np.max(row_sq))
        lip = max(lip, self.upper.grad_lipschitz())
        rho = _SIGMOID_D2_MAX * p * float(
            np.max(np.maximum(a_sq, np.sqrt(a_sq * d_sq)) * np.sqrt(row_sq)))
        # E||grad G - grad g||^2 <= (p/b) sum_i ||row_i||^2 (|sigmoid| <= 1)
        sigma = math.sqrt(p / self.batch_size * float(np.sum(row_sq)))
        m_bound = self.upper.grad_bound(self.dim_x, self.dim_y)
        if math.isfinite(m_bound):
            m_bound += self.noise.radius
        return ProblemConstants(mu=self.reg, lipschitz_L=lip, rho=rho,
                                lipschitz_M=m_bound, sigma=sigma, tau=rho)

    # --- mean oracles ---------------------------------------------------

    # below, x, y and v may carry a leading row axis (stacked reference
    # solves, the verifier's replications); every product is one gemv per
    # row, as for 1-D arguments, where a plain (rows, n) @ (n, p) gemm
    # would round differently

    def _margins(self, x, y):
        return (_row_gemv(y, self.features.T)
                - (self.cross_rows @ x[..., None])[..., 0])

    def lower_value(self, x, y) -> float:
        return float(0.5 * self.reg * y @ y + np.sum(_softplus(self._margins(x, y))))

    def lower_grad_y(self, x, y):
        return self.reg * y + _row_gemv(_sigmoid(self._margins(x, y)),
                                        self.features)

    def lower_hess_dense(self, x, y):
        """H(x, y); a leading row axis on y (and x) gives one Hessian (one
        gemm) per row."""
        s = _sigmoid(self._margins(x, y))
        w = s * (1.0 - s)
        return (self.reg * np.eye(self.dim_y)
                + (self.features.T * w[..., None, :]) @ self.features)

    def _curvature_times(self, x, y, v):
        # w * (A v) with w = s(1 - s) the softplus curvature at each margin
        s = _sigmoid(self._margins(x, y))
        return s * (1.0 - s) * _row_gemv(v, self.features.T)

    def lower_hess_vec(self, x, y, v):
        return self.reg * v + _row_gemv(self._curvature_times(x, y, v),
                                        self.features)

    def lower_cross_vec(self, x, y, v):
        return -_row_gemv(self._curvature_times(x, y, v), self.cross_rows)

    def solve_lower_hess(self, x, y, rhs):
        """Solve H(x, y) v = rhs; a leading row axis on y or rhs (or both)
        gives one system per row, each with the same bits as its 1-D solve.
        A stacked x, if any, has y's rows."""
        if rhs.ndim == 1 and y.ndim == 1:
            return np.linalg.solve(self.lower_hess_dense(x, y), rhs)
        y2, rhs2 = np.broadcast_arrays(y, rhs)
        out = np.empty(y2.shape)
        for lo in range(0, y2.shape[0], _SOLVE_BLOCK):
            blk = slice(lo, lo + _SOLVE_BLOCK)
            xb = x if x.ndim == 1 else x[blk]
            # one gesv per row, as in the 1-D path
            out[blk] = np.linalg.solve(self.lower_hess_dense(xb, y2[blk]),
                                       rhs2[blk, :, None])[..., 0]
        return out

    def lower_solution(self, x):
        """y*(x) by damped Newton from y = 0.  A leading row axis on x gives
        one solve per row: each row keeps its own stopping test, step
        halvings and iteration limits, leaves once it converges, and has the
        bits of its 1-D solve.  A row that fails raises
        ConvergenceFailureError, the first such row in row order."""
        xs = x.reshape(-1, self.dim_x)
        y = np.zeros((len(xs), self.dim_y))
        grad = self.lower_grad_y(xs, y)
        res = _row_norm(grad)
        # rows still iterating; `not <=` keeps a NaN residual in, as in 1-D
        live = np.flatnonzero(~(res <= REFERENCE_TOL))
        for _ in range(200):
            if not live.size:
                break
            x_l, y_l, res_l = xs[live], y[live], res[live]
            step = self.solve_lower_hess(x_l, y_l, grad[live])
            # softplus curvature only shrinks along the Newton path, but damp
            # anyway in case a huge margin saturates the model
            t = 1.0
            todo = np.arange(live.size)   # rows of `live` still halving
            for _ in range(60):
                cand = y_l[todo] - t * step[todo]
                cand_grad = self.lower_grad_y(x_l[todo], cand)
                cand_res = _row_norm(cand_grad)
                ok = cand_res < res_l[todo]
                done = live[todo[ok]]
                y[done], grad[done], res[done] = cand[ok], cand_grad[ok], cand_res[ok]
                todo = todo[~ok]
                if not todo.size:
                    break
                t *= 0.5
            # a row whose 60 halvings all failed has stalled, and stops
            moved = np.ones(live.size, dtype=bool)
            moved[todo] = False
            live = live[moved & ~(res[live] <= REFERENCE_TOL)]
        failed = np.flatnonzero(~(res <= REFERENCE_TOL))
        if failed.size:
            first = float(res[failed[0]])
            raise ConvergenceFailureError(
                f"Newton stalled at residual {first:.3e}", residual=first)
        return y.reshape(x.shape[:-1] + (self.dim_y,))

    # --- sampled oracles ------------------------------------------------

    def _minibatch(self, gen, reps):
        """Rows A_B, D_B of one minibatch draw (``reps`` draws stacked, if
        given) and the n_rows/batch_size scale that keeps it unbiased."""
        shape = (self.batch_size,) if reps is None else (reps, self.batch_size)
        idx = gen.integers(0, self.n_rows, size=shape)
        return self.features[idx], self.cross_rows[idx], self.n_rows / self.batch_size

    @staticmethod
    def _batch_curvature_times(a, d, x, y, v):
        # w * (A_B v) with w = s(1 - s) the curvature at each batch margin
        s = _sigmoid(np.einsum("...bn,...n->...b", a, y) - d @ x)
        w = s * (1.0 - s)
        return w * np.einsum("...bn,...n->...b", a, v)

    def sample_lower_grad(self, x, y, gen, reps=None):
        a, d, scale = self._minibatch(gen, reps)
        if reps is not None and y.ndim == 1:
            y = np.broadcast_to(y, (reps, self.dim_y))
        t = np.einsum("...bn,...n->...b", a, y) - d @ x
        return self.reg * y + scale * np.einsum("...b,...bn->...n", _sigmoid(t), a)

    def sample_hess_operator(self, x, gen, reps=None):
        a, d, scale = self._minibatch(gen, reps)

        def hvp(y, v):
            return self.reg * v + scale * np.einsum(
                "...b,...bn->...n", self._batch_curvature_times(a, d, x, y, v),
                a)

        return hvp

    def sample_cross_operator(self, x, gen, reps=None):
        a, d, scale = self._minibatch(gen, reps)

        def jvp(y, v):
            return -scale * np.einsum(
                "...b,...bm->...m", self._batch_curvature_times(a, d, x, y, v),
                d)

        return jvp


# ---------------------------------------------------------------------------
# constructors


def make_quadratic_problem(dim_x: int, dim_y: int, kappa: float,
                           noise: NoiseModel = NoiseModel(),
                           seed: int = 0) -> QuadraticBilevelProblem:
    """Random quadratic instance with exact condition number ``kappa``.

    H = Q diag(lambda) Q' with log-spaced eigenvalues in [1, kappa] (so
    mu = 1 and L = kappa exactly), B = L times an orthogonal factor, and c
    Gaussian.

    The pseudo-Huber target is placed at y*(0) minus a bump of size
    ``0.5 / kappa`` along the top eigenvector of
    H^{-1} B B' H^{-1}.  That direction carries the strongest curvature of
    the implicit objective (it scales like kappa^2), so a run started at
    x = 0 descends a well-conditioned one-dimensional valley whose initial
    gradient norm is roughly kappa-independent -- which is what makes
    fixed-epsilon condition-number sweeps resolvable at every kappa inside
    a sane iteration budget.
    """
    if dim_x < 1 or dim_y < 1:
        raise InvalidParameterError("dimensions must be >= 1")
    if kappa < 1:
        raise InvalidParameterError(f"kappa must be >= 1, got {kappa}")
    if dim_y == 1 and kappa > 1:
        raise InvalidParameterError(
            "a 1-D lower level cannot attain both mu=1 and L=kappa>1")

    rng = np.random.default_rng(seed)
    if dim_y == 1:
        eigs = np.array([1.0])
        q = np.array([[1.0]])
    else:
        eigs = kappa ** (np.arange(dim_y) / (dim_y - 1.0))
        q, _ = np.linalg.qr(rng.standard_normal((dim_y, dim_y)))
    hess = (q * eigs) @ q.T
    hess = 0.5 * (hess + hess.T)

    qb, _ = np.linalg.qr(rng.standard_normal((max(dim_y, dim_x), min(dim_y, dim_x))))
    qb = qb if dim_y >= dim_x else qb.T
    coupling = kappa * qb[:dim_y, :dim_x]

    offset = rng.standard_normal(dim_y)

    hess_noise_dir = None
    if noise.hess_scale > 0.0:
        w, _ = np.linalg.qr(rng.standard_normal((dim_y, dim_y)))
        raw = rng.uniform(0.1, 1.0, size=dim_y)
        hess_noise_dir = (w * (raw / raw.max())) @ w.T
        hess_noise_dir = 0.5 * (hess_noise_dir + hess_noise_dir.T)

    # top curvature direction of the implicit part, for target placement
    linalg = _linalg()
    chol = linalg.cho_factor(hess, lower=True)
    hinv_b = linalg.cho_solve(chol, coupling)
    w_mat = hinv_b @ hinv_b.T
    evals, evecs = np.linalg.eigh(w_mat)
    ridge_dir = evecs[:, -1]

    y_at_origin = linalg.cho_solve(chol, offset)
    target = y_at_origin - (0.5 / kappa) * ridge_dir
    upper = PseudoHuberCosineUpper(target=target, cos_amp=0.01,
                                   huber_delta=0.5)
    return QuadraticBilevelProblem(hess=hess, coupling=coupling, offset=offset,
                                   upper=upper, noise=noise, seed=int(seed),
                                   hess_noise_dir=hess_noise_dir)


def make_logistic_problem(dim_x: int, dim_y: int, n_rows: int, seed: int = 0, *,
                          reg: float = 1.0, batch_size: int = 4,
                          noise: NoiseModel = NoiseModel()
                          ) -> LogisticBilevelProblem:
    """Random ridge-logistic instance; rho > 0 by construction."""
    if min(dim_x, dim_y, n_rows) < 1:
        raise InvalidParameterError("dimensions and n_rows must be >= 1")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_rows, dim_y)) / math.sqrt(dim_y)
    cross_rows = rng.standard_normal((n_rows, dim_x)) / math.sqrt(dim_x)
    target = rng.standard_normal(dim_y) * 0.5
    upper = PseudoHuberCosineUpper(target=target, cos_amp=0.01,
                                   huber_delta=0.5)
    return LogisticBilevelProblem(features=features, cross_rows=cross_rows,
                                  reg=reg, batch_size=batch_size, upper=upper,
                                  noise=noise, seed=int(seed))


# ---------------------------------------------------------------------------
# spec-level operations (thin functional forms over the methods)


def lower_solution(problem, x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x must be finite")
    return problem.lower_solution(np.asarray(x, dtype=float))


@dataclass
class ReferenceSolution:
    """y*(x), v*(x) and grad phi(x), with the norms of the lower-gradient
    and adjoint-equation residuals; a stacked x gives each a row axis."""

    y_star: np.ndarray
    v_star: np.ndarray
    grad_phi: np.ndarray
    residuals: dict


def reference_solution(problem, x: np.ndarray) -> ReferenceSolution:
    """The exact reference at ``x``.  A leading row axis on x gives one
    solution per row, each with the bits of its 1-D call."""
    x = np.asarray(x, dtype=float)
    y_star = lower_solution(problem, x)
    v_star = problem.adjoint_solution(x, y_star)
    grad_phi = problem.upper.grad_x(x, y_star) - problem.lower_cross_vec(x, y_star, v_star)
    residuals = {
        "lower": _row_norm(problem.lower_grad_y(x, y_star)),
        "adjoint": _row_norm(problem.lower_hess_vec(x, y_star, v_star)
                             - problem.upper.grad_y(x, y_star)),
    }
    return ReferenceSolution(y_star=y_star, v_star=v_star, grad_phi=grad_phi,
                             residuals=residuals)


# ---------------------------------------------------------------------------
# serialization


_FAMILIES = {cls.family: cls
             for cls in (QuadraticBilevelProblem, LogisticBilevelProblem)}

# the fields written as their dataclass fields, and the reader of each
_PART_READERS = {
    "upper": _upper_from_dict,
    "noise": lambda d: _from_fields(NoiseModel, d, "noise"),
    "constants": lambda d: _from_fields(ProblemConstants, d, "constants")}


def _json_default(o):
    if is_dataclass(o):
        return asdict(o)
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """The text of every JSON artifact: ``doc`` with sorted keys, each
    dataclass in it as its fields (``dataclasses.asdict``), each array or
    numpy scalar as its ``tolist()``."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default)


def problem_to_json(problem) -> str:
    """The problem's family, its dimensions and every field of its class.
    The fields go to ``_json_text`` one by one, so the problem's own arrays
    are not deep-copied."""
    doc = {"family": problem.family, "dim_x": problem.dim_x,
           "dim_y": problem.dim_y}
    doc.update((f.name, getattr(problem, f.name)) for f in fields(problem))
    return _json_text(doc)


def problem_from_json(text: str):
    """The problem that ``problem_to_json`` wrote: the document holds
    exactly the keys that it writes, its family's and every field of the
    family's class, and its dim_x and dim_y match the arrays.  Any other
    document raises InvalidProblemError; the constructors' own errors pass
    through."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidProblemError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidProblemError(
            f"a problem file holds a JSON object, not {type(doc).__name__}")
    family = doc.get("family")
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise InvalidProblemError(f"unknown problem family: {family!r}")
    _check_keys(doc, {"family", "dim_x", "dim_y"}
                | {f.name for f in fields(cls)}, "problem JSON")
    kwargs = {f.name: doc[f.name] for f in fields(cls)}
    try:
        for name, read in _PART_READERS.items():
            kwargs[name] = read(kwargs[name])
        problem = cls(**kwargs)
    except (InvalidParameterError, InvalidProblemError):
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidProblemError(
            f"malformed problem JSON: {type(exc).__name__}: {exc}") from exc
    dims = (problem.dim_x, problem.dim_y)
    if (doc["dim_x"], doc["dim_y"]) != dims:
        raise InvalidProblemError(
            f"dim_x, dim_y ({doc['dim_x']}, {doc['dim_y']}) disagree "
            f"with the arrays' {dims}")
    return problem


def problem_hash(problem) -> str:
    return hashlib.sha256(problem_to_json(problem).encode()).hexdigest()
