"""Independent numpy-only model of the quadratic single-loop iteration.

This file does not import ``ssaid``.  It reads a quadratic problem from the
JSON the ``ssaid gen`` command writes and replays the method from its
definition:

    y+ = y - alpha * (H y - (B x + c) + n_lower)
    v+ = v - eta * H v + eta * grad_y f(x, y+; xi)
    x+ = x - beta * (grad_x f(x, y+; xi) + B' v+)

with the draws taken from the documented stream addresses: a Philox 4x64
generator with ``counter=[0, slot, k, tag]`` and
``key=[seed, 0x9E3779B97F4A7C15]``, tag 1 for the lower gradient and tag 2
for the upper-gradient sphere perturbation.  Ground truth uses dense
``numpy.linalg.solve`` calls for y*(x), v*(x) and grad phi(x).  Step sizes
are an input: the caller takes them from the program's schedule.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

KEY_SALT = 0x9E3779B97F4A7C15
TAG_LOWER_GRAD = 1
TAG_UPPER_GRAD = 2
BRANCH_SLOT = 1 << 32


def philox(seed, k, tag, slot=0):
    """Generator at one draw address, built from the documented layout."""
    bits = np.random.Philox(counter=[0, slot, k, tag],
                            key=[int(seed) & ((1 << 64) - 1), KEY_SALT])
    return np.random.Generator(bits)


class QuadraticModel:
    """The quadratic family's oracles and ground truth from its JSON form."""

    def __init__(self, doc):
        if doc["family"] != "quadratic":
            raise ValueError("the model covers the quadratic family only")
        upper = doc["upper"]
        if upper["kind"] != "pseudo_huber_cosine":
            raise ValueError("the model covers the pseudo-Huber upper only")
        if doc["noise"]["hess_scale"] != 0.0:
            raise ValueError("the model has no Hessian noise")
        self.hess = np.asarray(doc["hess"], dtype=float)
        self.coupling = np.asarray(doc["coupling"], dtype=float)
        self.offset = np.asarray(doc["offset"], dtype=float)
        self.target = np.asarray(upper["target"], dtype=float)
        self.cos_amp = float(upper["cos_amp"])
        self.cos_freq = float(upper["cos_freq"])
        self.delta = float(upper["huber_delta"])
        self.sigma = float(doc["noise"]["sigma"])
        self.radius = float(doc["noise"]["radius"])
        self.dim_y, self.dim_x = self.coupling.shape
        eigs = np.linalg.eigvalsh(self.hess)
        self.mu = float(eigs[0])
        self.lip = max(float(eigs[-1]), float(np.linalg.norm(self.coupling, 2)),
                       1.0, self.cos_amp * self.cos_freq ** 2)
        # sup of ||grad f|| plus the perturbation radius (the VBound M)
        self.grad_bound = (self.dim_y * self.delta
                           + self.cos_amp * self.cos_freq * self.dim_x
                           + self.radius)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    # mean upper gradients of f = sum huber(y - t) + a sum cos(w x)
    def upper_grad_x(self, x):
        return -self.cos_amp * self.cos_freq * np.sin(self.cos_freq * x)

    def upper_grad_y(self, y):
        u = y - self.target
        return u * self.delta / np.sqrt(self.delta ** 2 + u * u)

    def upper_value(self, x, y):
        u = (y - self.target) / self.delta
        return float(self.delta ** 2 * np.sum(np.sqrt(1.0 + u * u) - 1.0)
                     + self.cos_amp * np.sum(np.cos(self.cos_freq * x)))

    def lower_noise(self, gen, reps=None):
        shape = (self.dim_y,) if reps is None else (reps, self.dim_y)
        return gen.standard_normal(shape) * (self.sigma / math.sqrt(self.dim_y))

    def y_star(self, x):
        return np.linalg.solve(self.hess, self.coupling @ x + self.offset)

    def truth(self, x):
        """(y*, v*, grad phi) at x by dense solves."""
        y = self.y_star(x)
        v = np.linalg.solve(self.hess, self.upper_grad_y(y))
        return y, v, self.upper_grad_x(x) + self.coupling.T @ v

    def step(self, seed, k, x, y, v, alpha, eta, beta):
        """Iteration k of the single-loop method from (x, y, v)."""
        g_low = self.hess @ y - (self.coupling @ x + self.offset)
        if self.sigma > 0.0:
            g_low = g_low + self.lower_noise(philox(seed, k, TAG_LOWER_GRAD))
        y = y - alpha * g_low
        gx = self.upper_grad_x(x)
        gy = self.upper_grad_y(y)
        if self.radius > 0.0:
            z = philox(seed, k, TAG_UPPER_GRAD).standard_normal(
                self.dim_x + self.dim_y)
            xi = self.radius * z / np.linalg.norm(z)
            gx = gx + xi[:self.dim_x]
            gy = gy + xi[self.dim_x:]
        v = v - eta * (self.hess @ v) + eta * gy
        x = x - beta * (gx + self.coupling.T @ v)
        return x, y, v


def iterates(model, seed, alpha, eta, beta):
    """(k, x_k, x_{k+1}, y_{k+1}, v_{k+1}) for k = 0, 1, ... of a run from
    zero initial vectors."""
    x = np.zeros(model.dim_x)
    y = np.zeros(model.dim_y)
    v = np.zeros(model.dim_y)
    for k in itertools.count():
        x_new, y, v = model.step(seed, k, x, y, v, alpha, eta, beta)
        yield k, x, x_new, y, v
        x = x_new


def trace_rows(model, seed, horizon, alpha, eta, beta):
    """Rows (k, grad_phi_sq, y_err, v_err, v_norm, x_step, phi, gc, mv) of a
    stride-1 run: the truth is taken at the x an iteration starts from, the
    errors of the iterates it produces."""
    rows = []
    for k, x, x_new, y, v in itertools.islice(
            iterates(model, seed, alpha, eta, beta), horizon):
        ys, vs, grad = model.truth(x)
        rows.append((k, float(grad @ grad), float(np.linalg.norm(y - ys)),
                     float(np.linalg.norm(v - vs)), float(np.linalg.norm(v)),
                     float(np.linalg.norm(x_new - x)), model.upper_value(x, ys),
                     3 * (k + 1), 2 * (k + 1)))
    return rows


def cell_complexity(model, seed, epsilon, max_iters, alpha, eta, beta,
                    checks=2048):
    """Oracle calls (3 per iteration) at the first check row where the
    running average of ||grad phi||^2 over check rows reaches epsilon;
    checks fall every max_iters // checks iterations and on the last one.
    None when the cap is reached first."""
    every = max(1, max_iters // checks)
    total, n = 0.0, 0
    for k, x, _, _, _ in itertools.islice(
            iterates(model, seed, alpha, eta, beta), max_iters):
        if k % every == 0 or k == max_iters - 1:
            grad = model.truth(x)[2]
            total += float(grad @ grad)
            n += 1
            if total / n <= epsilon:
                return 3 * (k + 1)
    return None


def history(model, seed, horizon, alpha, eta, beta):
    """x_t for t = 0..horizon and y_t after iteration t for t < horizon."""
    xs, ys = [np.zeros(model.dim_x)], []
    for _, _, x_new, y, _ in itertools.islice(
            iterates(model, seed, alpha, eta, beta), horizon):
        xs.append(x_new)
        ys.append(y)
    return xs, ys


def lower_tracking_rows(model, seed, mc_seed, replications, checkpoints,
                        alpha, eta, beta):
    """(k, lhs, lhs_se, rhs) of the lower-tracking check: the root mean
    square of ||y_k - y*(x_k)|| over ``replications`` re-draws of iteration
    k at the branch slot, its delete-one jackknife error, and the bound
    (1 - mu alpha / 2) ||y_{k-1} - y*(x_{k-1})|| + kappa ||x_k - x_{k-1}||
    + alpha sigma."""
    xs, ys = history(model, seed, max(checkpoints), alpha, eta, beta)
    y0 = np.zeros(model.dim_y)
    out = []
    for k in checkpoints:
        x_k = xs[k]
        y_prev = ys[k - 1] if k > 0 else y0
        g_low = model.hess @ y_prev - (model.coupling @ x_k + model.offset)
        lg = np.broadcast_to(g_low, (replications, model.dim_y))
        if model.sigma > 0.0:
            lg = lg + model.lower_noise(
                philox(mc_seed, k, TAG_LOWER_GRAD, BRANCH_SLOT), replications)
        q = np.sum((y_prev - alpha * lg - model.y_star(x_k)) ** 2, axis=1)
        loo = np.sqrt((q.sum() - q) / (replications - 1))
        se = math.sqrt((replications - 1) / replications
                       * float(np.sum((loo - loo.mean()) ** 2)))
        if k > 0:
            prev = float(np.linalg.norm(ys[k - 1] - model.y_star(xs[k - 1])))
            x_step = float(np.linalg.norm(x_k - xs[k - 1]))
        else:
            prev = float(np.linalg.norm(y0 - model.y_star(xs[0])))
            x_step = 0.0
        rhs = ((1.0 - model.mu * alpha / 2.0) * prev
               + (model.lip / model.mu) * x_step + alpha * model.sigma)
        out.append((k, math.sqrt(float(q.mean())), se, rhs))
    return out


def geom_sum_rows(mc_seed):
    """(lhs, rhs) of the geometric-sum identity on the verifier's cases:
    three fixed sequences and five drawn from default_rng(mc_seed), with
    lhs = sum_t sum_{l<=t} (1-rho)^(t-l) s_l and rhs = sum_t s_t / rho."""
    cases = [((1.0, 0.0, 0.0), 0.5, 2),
             ((1.0, 1.0, 1.0, 1.0), 1.0, 3),
             ((0.3, 2.0, 0.0, 1.7, 0.9), 0.25, 4)]
    rng = np.random.default_rng(mc_seed)
    for _ in range(5):
        horizon = int(rng.integers(5, 60))
        rho = float(rng.uniform(0.05, 1.0))
        cases.append((rng.uniform(0.0, 2.0, horizon + 1), rho, horizon))
    out = []
    for seq, rho, horizon in cases:
        s = np.asarray(seq, dtype=float)[:horizon + 1]
        # sum over t >= l of (1-rho)^(t-l) is a finite geometric series
        weights = np.array([sum((1.0 - rho) ** j for j in range(horizon + 1 - el))
                            for el in range(horizon + 1)])
        out.append((float(weights @ s), float(s.sum() / rho)))
    return out


def v_bound_cap(doc):
    """||v_0|| + M / mu for zero v_0, from a problem JSON of either family:
    M bounds ||grad f|| plus the perturbation radius, mu is the lower
    level's strong convexity (smallest Hessian eigenvalue for the quadratic
    family, the ridge weight for the logistic one)."""
    upper = doc["upper"]
    if upper["kind"] != "pseudo_huber_cosine":
        raise ValueError("the cap needs a bounded upper gradient")
    grad_bound = (doc["dim_y"] * upper["huber_delta"]
                  + upper["cos_amp"] * upper["cos_freq"] * doc["dim_x"]
                  + doc["noise"]["radius"])
    if doc["family"] == "quadratic":
        mu = float(np.linalg.eigvalsh(np.asarray(doc["hess"], dtype=float))[0])
    else:
        mu = float(doc["reg"])
    return grad_bound / mu
