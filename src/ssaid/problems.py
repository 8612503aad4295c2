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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    InvalidProblemError,
)

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
    "adjoint_solution",
    "reference_solution",
    "problem_to_json",
    "problem_from_json",
    "problem_hash",
    "REFERENCE_TOL",
]

REFERENCE_TOL = 1e-12


def _finite(*vals) -> bool:
    return all(np.isfinite(v) for v in vals)


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

    def __post_init__(self):
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

    @property
    def kappa(self) -> float:
        return self.lipschitz_L / self.mu

    def to_dict(self) -> dict:
        return {
            "mu": float(self.mu),
            "lipschitz_L": float(self.lipschitz_L),
            "rho": float(self.rho),
            "lipschitz_M": float(self.lipschitz_M),
            "sigma": float(self.sigma),
            "tau": float(self.tau),
            "kappa": float(self.kappa),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConstants":
        return cls(mu=d["mu"], lipschitz_L=d["lipschitz_L"], rho=d["rho"],
                   lipschitz_M=d["lipschitz_M"], sigma=d["sigma"], tau=d["tau"])


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
        if not _finite(self.sigma, self.radius, self.hess_scale):
            raise InvalidParameterError("noise parameters must be finite")
        if min(self.sigma, self.radius, self.hess_scale) < 0:
            raise InvalidParameterError("noise parameters must be >= 0")

    def to_dict(self) -> dict:
        return {"sigma": float(self.sigma), "radius": float(self.radius),
                "hess_scale": float(self.hess_scale)}


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

    kind = "pseudo_huber_cosine"
    assumption_violating = False

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
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

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum(_pseudo_huber(y - self.target, self.huber_delta))
                     + self.cos_amp * np.sum(np.cos(self.cos_freq * x)))

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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target.tolist(),
                "cos_amp": float(self.cos_amp), "cos_freq": float(self.cos_freq),
                "huber_delta": float(self.huber_delta)}


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

    kind = "plain_quadratic"
    assumption_violating = True

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        if self.target.ndim != 1:
            raise InvalidParameterError("target must be a vector")
        if self.x_weight < 0:
            raise InvalidParameterError("x_weight must be >= 0")

    def value(self, x, y) -> float:
        return float(0.5 * np.sum((y - self.target) ** 2)
                     + 0.5 * self.x_weight * np.sum(x ** 2))

    def grad_x(self, x, y):
        return self.x_weight * x

    def grad_y(self, x, y):
        return y - self.target

    def grad_bound(self, dim_x: int, dim_y: int) -> float:
        return math.inf

    def grad_lipschitz(self) -> float:
        return max(1.0, self.x_weight)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target.tolist(),
                "x_weight": float(self.x_weight)}


def _upper_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "pseudo_huber_cosine":
        return PseudoHuberCosineUpper(target=np.asarray(d["target"], dtype=float),
                                      cos_amp=d["cos_amp"], cos_freq=d["cos_freq"],
                                      huber_delta=d["huber_delta"])
    if kind == "plain_quadratic":
        return PlainQuadraticUpper(target=np.asarray(d["target"], dtype=float),
                                   x_weight=d["x_weight"])
    raise InvalidProblemError(f"unknown upper objective kind: {kind!r}")


# ---------------------------------------------------------------------------
# sample plumbing shared by both families


def _sphere_noise(gen: np.random.Generator, dim: int, radius: float, reps):
    shape = (dim,) if reps is None else (reps, dim)
    z = gen.standard_normal(shape)
    norm = np.linalg.norm(z, axis=-1, keepdims=True)
    return radius * z / norm


class _BilevelProblemBase:
    """Shared behavior; concrete families fill in the mean oracles."""

    @property
    def stochastic_tags(self) -> frozenset:
        """Oracle tags that actually consume randomness for this instance.

        Hot loops skip stream positioning for the other tags; the sample_*
        methods never touch their generator when the matching noise scale is
        zero, so skipping keeps draws byte-identical.
        """
        return self._stochastic_tags

    # --- sampled oracles ------------------------------------------------

    def sample_upper_grads(self, x, y, gen, reps=None):
        gx = self.upper.grad_x(x, y)
        gy = self.upper.grad_y(x, y)
        if reps is not None:
            gx = np.broadcast_to(gx, (reps,) + gx.shape[-1:]).copy()
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
        if self.noise.hess_scale > 0.0:
            if self.hess_noise_dir is None:
                raise InvalidProblemError(
                    "hess_scale > 0 requires a hess_noise_dir matrix")
            self.hess_noise_dir = np.asarray(self.hess_noise_dir, dtype=float)
            if self.hess_noise_dir.shape != (n, n):
                raise InvalidProblemError("hess_noise_dir must match hess shape")
        try:
            self._chol = cho_factor(self.hess, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own
            raise InvalidProblemError("hess is not positive definite") from exc
        if np.linalg.eigvalsh(self.hess)[0] <= 0:
            raise InvalidProblemError("hess is not positive definite")
        recomputed = self._compute_constants()
        if self.constants is None:
            self.constants = recomputed
        else:
            _check_constants_match(self.constants, recomputed)
        from .streams import TAG_HESS_OP, TAG_LOWER_GRAD, TAG_UPPER_GRAD
        tags = set()
        if self.noise.sigma > 0.0:
            tags.add(TAG_LOWER_GRAD)
        if self.noise.radius > 0.0:
            tags.add(TAG_UPPER_GRAD)
        if self.noise.hess_scale > 0.0:
            tags.add(TAG_HESS_OP)
        self._stochastic_tags = frozenset(tags)
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
        lin = self.coupling @ x + self.offset
        return float(0.5 * y @ self.hess @ y - y @ lin)

    def lower_grad_y(self, x, y):
        return y @ self.hess - (self.coupling @ x + self.offset)

    def lower_hess_vec(self, x, y, v):
        return v @ self.hess

    def lower_cross_vec(self, x, y, v):
        """Mean cross-derivative product: (d^2 g / dx dy) v = -B'v."""
        return -(v @ self.coupling)

    def solve_lower_hess(self, x, y, rhs):
        if rhs.ndim == 1:
            return cho_solve(self._chol, rhs)
        return cho_solve(self._chol, rhs.T).T

    def lower_solution(self, x):
        return cho_solve(self._chol, self.coupling @ x + self.offset)

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
            return lambda y, v: v @ self.hess
        u = gen.uniform(0.0, self.noise.hess_scale, size=() if reps is None else (reps,))
        dir_mat = self.hess_noise_dir

        def hvp(y, v):
            base = v @ self.hess
            bump = v @ dir_mat
            if np.ndim(u) == 1:
                return base + u[:, None] * bump
            return base + u * bump

        return hvp

    def sample_cross_operator(self, x, gen, reps=None):
        # the cross derivative of the quadratic family is deterministic
        return lambda y, v: -(v @ self.coupling)


def _check_constants_match(stored: ProblemConstants, recomputed: ProblemConstants):
    for name in ("mu", "lipschitz_L", "rho", "lipschitz_M", "sigma", "tau"):
        a, b = getattr(stored, name), getattr(recomputed, name)
        if a == b:
            continue
        if not math.isfinite(a) or not math.isfinite(b) or abs(a - b) > 1e-9:
            raise InvalidProblemError(
                f"stored constant {name}={a} disagrees with recomputed {b}")


# ---------------------------------------------------------------------------
# logistic family


def _sigmoid(t):
    # exp(-|t|) never overflows; minimum(t, -t) rather than -abs(t) keeps
    # the sign of a NaN input, so every bit equals the two-sided masked form
    e = np.exp(np.minimum(t, -t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(t):
    return np.logaddexp(0.0, t)


# rows per stacked solve in LogisticBilevelProblem.solve_lower_hess; bounds
# the (rows, n, p) temporaries, so peak memory does not grow with the rows
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
        recomputed = self._compute_constants()
        if self.constants is None:
            self.constants = recomputed
        else:
            _check_constants_match(self.constants, recomputed)
        from .streams import (TAG_CROSS_OP, TAG_HESS_OP, TAG_LOWER_GRAD,
                              TAG_UPPER_GRAD)
        tags = {TAG_LOWER_GRAD, TAG_HESS_OP, TAG_CROSS_OP}
        if self.noise.radius > 0.0:
            tags.add(TAG_UPPER_GRAD)
        self._stochastic_tags = frozenset(tags)

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

    def _margins(self, x, y):
        # y[..., None, :] makes each row of a stacked y one gemv, as for 1-D y;
        # a plain (rows, n) @ (n, p) gemm would round differently
        return (y[..., None, :] @ self.features.T)[..., 0, :] - self.cross_rows @ x

    def lower_value(self, x, y) -> float:
        return float(0.5 * self.reg * y @ y + np.sum(_softplus(self._margins(x, y))))

    def lower_grad_y(self, x, y):
        return self.reg * y + _sigmoid(self._margins(x, y)) @ self.features

    def lower_hess_dense(self, x, y):
        """H(x, y); a leading row axis on y gives one Hessian (one gemm) per row."""
        s = _sigmoid(self._margins(x, y))
        w = s * (1.0 - s)
        return (self.reg * np.eye(self.dim_y)
                + (self.features.T * w[..., None, :]) @ self.features)

    def lower_hess_vec(self, x, y, v):
        s = _sigmoid(self._margins(x, y))
        w = s * (1.0 - s)
        return self.reg * v + (w * (v @ self.features.T)) @ self.features

    def lower_cross_vec(self, x, y, v):
        s = _sigmoid(self._margins(x, y))
        w = s * (1.0 - s)
        return -((w * (v @ self.features.T)) @ self.cross_rows)

    def solve_lower_hess(self, x, y, rhs):
        """Solve H(x, y) v = rhs; a leading row axis on y or rhs (or both)
        gives one system per row, each with the same bits as its 1-D solve."""
        if rhs.ndim == 1 and y.ndim == 1:
            return np.linalg.solve(self.lower_hess_dense(x, y), rhs)
        y2, rhs2 = np.broadcast_arrays(y, rhs)
        out = np.empty(y2.shape)
        for lo in range(0, y2.shape[0], _SOLVE_BLOCK):
            blk = slice(lo, lo + _SOLVE_BLOCK)
            # one gesv per row, as in the 1-D path
            out[blk] = np.linalg.solve(self.lower_hess_dense(x, y2[blk]),
                                       rhs2[blk, :, None])[..., 0]
        return out

    def lower_solution(self, x):
        y = np.zeros(self.dim_y)
        grad = self.lower_grad_y(x, y)
        for _ in range(200):
            if np.linalg.norm(grad) <= REFERENCE_TOL:
                return y
            step = np.linalg.solve(self.lower_hess_dense(x, y), grad)
            t = 1.0
            # softplus curvature only shrinks along the Newton path, but damp
            # anyway in case a huge margin saturates the model
            for _ in range(60):
                cand = y - t * step
                cand_grad = self.lower_grad_y(x, cand)
                if np.linalg.norm(cand_grad) < np.linalg.norm(grad):
                    y, grad = cand, cand_grad
                    break
                t *= 0.5
            else:
                break
        res = float(np.linalg.norm(self.lower_grad_y(x, y)))
        if res <= REFERENCE_TOL:
            return y
        raise ConvergenceFailureError(
            f"Newton stalled at residual {res:.3e}", residual=res)

    # --- sampled oracles ------------------------------------------------

    def _batch_grad(self, x, y, idx):
        a = self.features[idx]
        d = self.cross_rows[idx]
        scale = self.n_rows / self.batch_size
        t = np.einsum("...bn,...n->...b", a, y) - d @ x
        return self.reg * y + scale * np.einsum("...b,...bn->...n", _sigmoid(t), a)

    def sample_lower_grad(self, x, y, gen, reps=None):
        shape = (self.batch_size,) if reps is None else (reps, self.batch_size)
        idx = gen.integers(0, self.n_rows, size=shape)
        if reps is not None and y.ndim == 1:
            y = np.broadcast_to(y, (reps, self.dim_y))
        return self._batch_grad(x, y, idx)

    def sample_hess_operator(self, x, gen, reps=None):
        shape = (self.batch_size,) if reps is None else (reps, self.batch_size)
        idx = gen.integers(0, self.n_rows, size=shape)
        a = self.features[idx]
        d = self.cross_rows[idx]
        scale = self.n_rows / self.batch_size

        def hvp(y, v):
            t = np.einsum("...bn,...n->...b", a, y) - d @ x
            s = _sigmoid(t)
            w = s * (1.0 - s)
            return self.reg * v + scale * np.einsum(
                "...b,...bn->...n", w * np.einsum("...bn,...n->...b", a, v), a)

        return hvp

    def sample_cross_operator(self, x, gen, reps=None):
        shape = (self.batch_size,) if reps is None else (reps, self.batch_size)
        idx = gen.integers(0, self.n_rows, size=shape)
        a = self.features[idx]
        d = self.cross_rows[idx]
        scale = self.n_rows / self.batch_size

        def jvp(y, v):
            t = np.einsum("...bn,...n->...b", a, y) - d @ x
            s = _sigmoid(t)
            w = s * (1.0 - s)
            return -scale * np.einsum(
                "...b,...bm->...m", w * np.einsum("...bn,...n->...b", a, v), d)

        return jvp


# ---------------------------------------------------------------------------
# constructors


def make_quadratic_problem(dim_x: int, dim_y: int, kappa: float,
                           noise: NoiseModel | None = None, seed: int = 0, *,
                           coupling_norm_frac: float = 1.0,
                           offset_scale: float = 1.0,
                           huber_delta: float = 0.5,
                           target_offset: float = 0.5,
                           cos_amp: float = 0.01,
                           cos_freq: float = 1.0) -> QuadraticBilevelProblem:
    """Random quadratic instance with exact condition number ``kappa``.

    H = Q diag(lambda) Q' with log-spaced eigenvalues in [1, kappa] (so
    mu = 1 and L = kappa exactly), B = (coupling_norm_frac * L) times an
    orthogonal factor, and c Gaussian.

    The pseudo-Huber target is placed at y*(0) minus a bump of size
    ``target_offset / kappa`` along the top eigenvector of
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
    noise = noise or NoiseModel()

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
    coupling = coupling_norm_frac * kappa * qb[:dim_y, :dim_x]

    offset = offset_scale * rng.standard_normal(dim_y)

    hess_noise_dir = None
    if noise.hess_scale > 0.0:
        w, _ = np.linalg.qr(rng.standard_normal((dim_y, dim_y)))
        raw = rng.uniform(0.1, 1.0, size=dim_y)
        hess_noise_dir = (w * (raw / raw.max())) @ w.T
        hess_noise_dir = 0.5 * (hess_noise_dir + hess_noise_dir.T)

    # top curvature direction of the implicit part, for target placement
    chol = cho_factor(hess, lower=True)
    hinv_b = cho_solve(chol, coupling)
    w_mat = hinv_b @ hinv_b.T
    evals, evecs = np.linalg.eigh(w_mat)
    ridge_dir = evecs[:, -1]

    y_at_origin = cho_solve(chol, offset)
    target = y_at_origin - (target_offset / kappa) * ridge_dir
    upper = PseudoHuberCosineUpper(target=target, cos_amp=cos_amp,
                                   cos_freq=cos_freq, huber_delta=huber_delta)
    return QuadraticBilevelProblem(hess=hess, coupling=coupling, offset=offset,
                                   upper=upper, noise=noise, seed=int(seed),
                                   hess_noise_dir=hess_noise_dir)


def make_logistic_problem(dim_x: int, dim_y: int, n_rows: int, seed: int = 0, *,
                          reg: float = 1.0, batch_size: int = 4,
                          row_scale: float = 1.0,
                          noise: NoiseModel | None = None,
                          huber_delta: float = 0.5,
                          cos_amp: float = 0.01,
                          cos_freq: float = 1.0) -> LogisticBilevelProblem:
    """Random ridge-logistic instance; rho > 0 by construction."""
    if min(dim_x, dim_y, n_rows) < 1:
        raise InvalidParameterError("dimensions and n_rows must be >= 1")
    noise = noise or NoiseModel()
    rng = np.random.default_rng(seed)
    features = row_scale * rng.standard_normal((n_rows, dim_y)) / math.sqrt(dim_y)
    cross_rows = row_scale * rng.standard_normal((n_rows, dim_x)) / math.sqrt(dim_x)
    target = rng.standard_normal(dim_y) * 0.5
    upper = PseudoHuberCosineUpper(target=target, cos_amp=cos_amp,
                                   cos_freq=cos_freq, huber_delta=huber_delta)
    return LogisticBilevelProblem(features=features, cross_rows=cross_rows,
                                  reg=reg, batch_size=batch_size, upper=upper,
                                  noise=noise, seed=int(seed))


# ---------------------------------------------------------------------------
# spec-level operations (thin functional forms over the methods)


def lower_solution(problem, x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x must be finite")
    return problem.lower_solution(np.asarray(x, dtype=float))


def adjoint_solution(problem, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return problem.adjoint_solution(np.asarray(x, dtype=float),
                                    np.asarray(y, dtype=float))


@dataclass
class ReferenceSolution:
    y_star: np.ndarray
    v_star: np.ndarray
    grad_phi: np.ndarray
    residuals: dict


def reference_solution(problem, x: np.ndarray) -> ReferenceSolution:
    y_star = lower_solution(problem, x)
    v_star = problem.adjoint_solution(x, y_star)
    grad_phi = problem.upper.grad_x(x, y_star) - problem.lower_cross_vec(x, y_star, v_star)
    residuals = {
        "lower": float(np.linalg.norm(problem.lower_grad_y(x, y_star))),
        "adjoint": float(np.linalg.norm(
            problem.lower_hess_vec(x, y_star, v_star)
            - problem.upper.grad_y(x, y_star))),
    }
    return ReferenceSolution(y_star=y_star, v_star=v_star, grad_phi=grad_phi,
                             residuals=residuals)


# ---------------------------------------------------------------------------
# serialization


def problem_to_json(problem) -> str:
    if problem.family == "quadratic":
        doc = {
            "family": "quadratic",
            "dim_x": problem.dim_x,
            "dim_y": problem.dim_y,
            "hess": problem.hess.tolist(),
            "coupling": problem.coupling.tolist(),
            "offset": problem.offset.tolist(),
            "upper": problem.upper.to_dict(),
            "noise": problem.noise.to_dict(),
            "hess_noise_dir": (None if problem.hess_noise_dir is None
                               else problem.hess_noise_dir.tolist()),
            "constants": problem.constants.to_dict(),
            "seed": problem.seed,
        }
    elif problem.family == "logistic":
        doc = {
            "family": "logistic",
            "dim_x": problem.dim_x,
            "dim_y": problem.dim_y,
            "features": problem.features.tolist(),
            "cross_rows": problem.cross_rows.tolist(),
            "reg": problem.reg,
            "batch_size": problem.batch_size,
            "adjoint_method": problem.adjoint_method,
            "upper": problem.upper.to_dict(),
            "noise": problem.noise.to_dict(),
            "constants": problem.constants.to_dict(),
            "seed": problem.seed,
        }
    else:
        raise InvalidProblemError(f"cannot serialize family {problem.family!r}")
    return json.dumps(doc, sort_keys=True, indent=2)


def problem_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidProblemError(f"not valid JSON: {exc}") from exc
    family = doc.get("family")
    stored = ProblemConstants.from_dict(doc["constants"])
    noise = NoiseModel(**doc["noise"])
    upper = _upper_from_dict(doc["upper"])
    if family == "quadratic":
        hess_dir = doc.get("hess_noise_dir")
        return QuadraticBilevelProblem(
            hess=np.asarray(doc["hess"], dtype=float),
            coupling=np.asarray(doc["coupling"], dtype=float),
            offset=np.asarray(doc["offset"], dtype=float),
            upper=upper, noise=noise, constants=stored,
            seed=doc.get("seed"),
            hess_noise_dir=None if hess_dir is None else np.asarray(hess_dir, dtype=float))
    if family == "logistic":
        return LogisticBilevelProblem(
            features=np.asarray(doc["features"], dtype=float),
            cross_rows=np.asarray(doc["cross_rows"], dtype=float),
            reg=doc["reg"], batch_size=doc["batch_size"],
            adjoint_method=doc.get("adjoint_method", "direct"),
            upper=upper, noise=noise, constants=stored, seed=doc.get("seed"))
    raise InvalidProblemError(f"unknown problem family: {family!r}")


def problem_hash(problem) -> str:
    return hashlib.sha256(problem_to_json(problem).encode()).hexdigest()
