"""Constants, step sizes, the exact hypergradient and the kernel's
stochastic estimate of it, against oracles."""

import math

import numpy as np
import pytest

from ssaid.errors import InvalidParameterError
from ssaid.hypergradient import (
    DerivedConstants,
    StepSizes,
    beta_stability_cap,
    check_lower_rates,
    compute_derived_constants,
    default_step_sizes,
)
from ssaid.problems import (
    NoiseModel,
    ProblemConstants,
    QuadraticBilevelProblem,
    make_logistic_problem,
    make_quadratic_problem,
    reference_solution,
)
from ssaid.ssaid import iterate
from ssaid.streams import StreamFactory


def consts(mu, lip, rho=0.0, m=0.0, sigma=0.0, tau=0.0):
    return ProblemConstants(mu=mu, lipschitz_L=lip, rho=rho, lipschitz_M=m,
                            sigma=sigma, tau=tau)


# ---------------------------------------------------------------------------
# scalar formulas


def l_phi(constants):
    return compute_derived_constants(constants).l_phi


def test_l_phi_worked_examples():
    assert l_phi(consts(1, 1)) == pytest.approx(4.0)
    assert l_phi(consts(2, 2)) == pytest.approx(8.0)
    assert l_phi(consts(1, 2, rho=1, m=1, tau=1)) == pytest.approx(27.0)


def test_l_phi_monotonicity():
    base = dict(mu=1.0, lip=2.0, rho=0.5, m=1.5, tau=0.7)

    def at(**over):
        d = {**base, **over}
        return l_phi(consts(d["mu"], d["lip"], d["rho"], d["m"], 0.0, d["tau"]))

    ref = at()
    for name in ("lip", "rho", "m", "tau"):
        assert at(**{name: base[name] * 1.5}) >= ref
        assert at(**{name: base[name] * 0.5}) <= ref
    assert at(mu=2.0) <= ref
    assert at(mu=0.5) >= ref


def test_derived_constants_worked_examples():
    d = compute_derived_constants(consts(1, 1, m=1), v0_norm=0.0)
    assert (d.c0, d.c1, d.c2, d.c3) == pytest.approx((1.0, 3.0, 2.0, 2.0))
    assert d.l_phi == pytest.approx(4.0)

    d = compute_derived_constants(consts(1, 1, rho=1, m=1), v0_norm=0.0)
    assert (d.c0, d.c1, d.c2, d.c3) == pytest.approx((2.0, 6.0, 4.0, 2.0))

    d = compute_derived_constants(consts(2, 2), v0_norm=1.0)
    assert d.c0 == pytest.approx(1.0)
    assert d.c2 == pytest.approx(4.0)
    assert d.c3 == pytest.approx(2.0)


def test_derived_constants_idempotent_and_validated():
    c = consts(1.5, 3.0, rho=0.2, m=2.0)
    assert compute_derived_constants(c, 0.5) == compute_derived_constants(c, 0.5)
    with pytest.raises(InvalidParameterError):
        compute_derived_constants(c, v0_norm=-1.0)
    with pytest.raises(InvalidParameterError):
        DerivedConstants(c0=-1, c1=0, c2=0, c3=0, l_phi=0)


def test_infinite_gradient_bound_propagates_but_never_nans():
    c = consts(1, 2, m=math.inf)
    d = compute_derived_constants(c)
    assert d.c3 == math.inf
    assert d.c0 == 2.0  # rho = 0 kills the M term entirely
    assert math.isfinite(d.l_phi)
    c2 = consts(1, 2, rho=1.0, m=math.inf)
    assert compute_derived_constants(c2).c0 == math.inf
    assert l_phi(c2) == math.inf


# ---------------------------------------------------------------------------
# step sizes


def unit_setup():
    c = consts(1, 1, m=1)
    return c, compute_derived_constants(c, 0.0)


def assert_feasible(steps, c, d):
    """alpha, eta <= 1/L and beta within every stability cap."""
    check_lower_rates(steps, c)
    assert steps.beta <= (beta_stability_cap(d, c, steps.alpha, steps.eta)
                          * (1.0 + 1e-12))


def test_default_steps_pick_tightest_stability_cap():
    c, d = unit_setup()
    steps = default_step_sizes(d, c, horizon_k=1)
    assert steps.alpha == steps.eta == 1.0
    # caps: 1/12, 1/4, 1/32, 1/96 and the horizon term 1/4; the last wins
    assert steps.beta == pytest.approx(1.0 / 96.0)
    assert_feasible(steps, c, d)


def test_default_steps_follow_horizon_decay():
    c, d = unit_setup()
    steps = default_step_sizes(d, c, horizon_k=10 ** 6)
    assert steps.beta == pytest.approx(2.5e-4)
    doubled = default_step_sizes(d, c, horizon_k=2 * 10 ** 6)
    assert doubled.beta == pytest.approx(steps.beta / math.sqrt(2.0))


def test_default_steps_reject_unbounded_constants():
    c = consts(1, 2, m=math.inf)
    with pytest.raises(InvalidParameterError):
        default_step_sizes(compute_derived_constants(c), c, horizon_k=10)
    c0 = consts(1, 2, m=0.0)
    with pytest.raises(InvalidParameterError):
        default_step_sizes(compute_derived_constants(c0), c0, horizon_k=10)


def test_step_size_invariants_enforced():
    with pytest.raises(InvalidParameterError):
        StepSizes(alpha=0.0, eta=1.0, beta=0.1, horizon_k=1)
    with pytest.raises(InvalidParameterError):
        StepSizes(alpha=1.0, eta=0.5, beta=0.1, horizon_k=1)
    with pytest.raises(InvalidParameterError):
        StepSizes(alpha=0.5, eta=1.0, beta=-0.1, horizon_k=1)
    with pytest.raises(InvalidParameterError):
        StepSizes(alpha=0.5, eta=1.0, beta=0.1, horizon_k=0)
    # beta = 0 is a legal frozen-x configuration
    StepSizes(alpha=0.5, eta=1.0, beta=0.0, horizon_k=1)
    c, d = unit_setup()
    assert beta_stability_cap(d, c, 1.0, 1.0) < 0.5
    with pytest.raises(InvalidParameterError):
        check_lower_rates(StepSizes(alpha=1.0, eta=1.0, beta=1e-3, horizon_k=1),
                          consts(1, 4, m=1))
    with pytest.raises(InvalidParameterError):
        check_lower_rates(StepSizes(alpha=0.1, eta=1.0, beta=1e-3, horizon_k=1),
                          consts(1, 4, m=1))


def test_default_steps_always_feasible():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        mu = rng.uniform(0.05, 2.0)
        c = consts(mu, mu * rng.uniform(1.0, 50.0), rho=rng.uniform(0, 2),
                   m=rng.uniform(0.1, 5.0), sigma=rng.uniform(0, 3),
                   tau=rng.uniform(0, 2))
        d = compute_derived_constants(c, v0_norm=rng.uniform(0, 2))
        steps = default_step_sizes(d, c, horizon_k=int(rng.integers(1, 10 ** 6)))
        assert_feasible(steps, c, d)


def test_c_beta_formula():
    c = consts(1, 2, rho=0.5, m=1.5, sigma=0.8)
    d = compute_derived_constants(c, v0_norm=0.25)
    alpha, beta = 0.3, 0.01
    expect = (2 * beta * d.c1 * d.c3
              + alpha * (d.c2 * 0.8 + d.c0 * 2.0 * 1.5))
    assert d.c_beta(c, alpha, beta) == pytest.approx(expect, rel=1e-12)
    assert d.c_beta(c, 0.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# exact hypergradient


class HalfSquarePlusSine:
    """f(x, y) = 0.5 y'y + sin(x_0); test-only, unbounded gradient."""

    kind = "test_only"

    def value(self, x, y):
        return 0.5 * float(y @ y) + math.sin(x[0])

    def grad_x(self, x, y):
        g = np.zeros_like(x)
        g[0] = math.cos(x[0])
        return g

    def grad_y(self, x, y):
        return np.array(y, dtype=float)

    def grad_bound(self, dim_x, dim_y):
        return math.inf

    def grad_lipschitz(self):
        return 1.0


def one_dim_problem():
    return QuadraticBilevelProblem(hess=np.array([[1.0]]),
                                   coupling=np.array([[1.0]]),
                                   offset=np.array([0.0]),
                                   upper=HalfSquarePlusSine())


def test_exact_hypergradient_one_dim_closed_form():
    prob = one_dim_problem()
    # y*(x) = x, v* = x, so grad phi = cos(x) + x
    np.testing.assert_allclose(reference_solution(prob, np.array([0.0])).grad_phi, [1.0],
                               atol=1e-14)
    np.testing.assert_allclose(reference_solution(prob, np.array([math.pi / 2])).grad_phi,
                               [math.pi / 2], atol=1e-12)
    for x0 in [-2.0, 0.3, 5.0]:
        np.testing.assert_allclose(reference_solution(prob, np.array([x0])).grad_phi,
                                   [math.cos(x0) + x0], atol=1e-12)


def test_exact_hypergradient_matches_finite_differences():
    prob = make_quadratic_problem(dim_x=5, dim_y=5, kappa=10.0, seed=11)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(5)

    def phi(xx):
        return prob.upper.value(xx, reference_solution(prob, xx).y_star)

    g = reference_solution(prob, x).grad_phi
    h = 1e-6
    fd = np.empty_like(x)
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd[i] = (phi(x + e) - phi(x - e)) / (2 * h)
    assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)


def test_implicit_gradient_is_l_phi_smooth():
    prob = make_quadratic_problem(dim_x=4, dim_y=5, kappa=10.0, seed=2)
    smooth = l_phi(prob.constants)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x1 = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
        x2 = x1 + rng.standard_normal(4) * rng.uniform(1e-3, 1.0)
        g1 = reference_solution(prob, x1).grad_phi
        g2 = reference_solution(prob, x2).grad_phi
        assert np.linalg.norm(g1 - g2) <= smooth * np.linalg.norm(x1 - x2) + 1e-12


# ---------------------------------------------------------------------------
# stochastic hypergradient: the kernel's estimate with no lower or solver
# step, grad_x F(x, y; xi) - (d^2 G / dx dy; zeta) v at the inputs


def estimate(prob, x, y, v, factory, reps=None):
    return iterate(prob, factory, 0, x, y, v, 0.0, 0.0, (), (), 0, reps)[3]


def test_stochastic_estimator_exact_under_zero_noise():
    prob = make_quadratic_problem(dim_x=3, dim_y=4, kappa=5.0, seed=4)
    x = np.random.default_rng(5).standard_normal(3)
    ref = reference_solution(prob, x)
    got = estimate(prob, x, ref.y_star, ref.v_star, StreamFactory(0))
    np.testing.assert_array_equal(got, ref.grad_phi)
    # zero adjoint drops the correction term entirely
    got0 = estimate(prob, x, ref.y_star, np.zeros(4), StreamFactory(0))
    np.testing.assert_array_equal(got0, prob.upper.grad_x(x, ref.y_star))


def test_stochastic_estimator_unbiased_quadratic():
    prob = make_quadratic_problem(dim_x=3, dim_y=4, kappa=5.0, seed=6,
                                  noise=NoiseModel(sigma=1.0, radius=0.4))
    rng = np.random.default_rng(7)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    draws = estimate(prob, x, y, v, StreamFactory(8), reps=100_000)
    expect = prob.upper.grad_x(x, y) - prob.lower_cross_vec(x, y, v)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - expect) <= 3 * se + 1e-12)


def test_stochastic_estimator_unbiased_logistic():
    prob = make_logistic_problem(dim_x=3, dim_y=4, n_rows=10, seed=9, batch_size=2,
                                 noise=NoiseModel(radius=0.2))
    rng = np.random.default_rng(10)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    draws = estimate(prob, x, y, v, StreamFactory(11), reps=100_000)
    expect = prob.upper.grad_x(x, y) - prob.lower_cross_vec(x, y, v)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - expect) <= 3 * se + 1e-12)
