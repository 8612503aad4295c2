"""Problem families checked against finite differences and brute force."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ssaid.errors import InvalidParameterError, InvalidProblemError
from ssaid.problems import (
    LogisticBilevelProblem,
    NoiseModel,
    PlainQuadraticUpper,
    ProblemConstants,
    PseudoHuberCosineUpper,
    QuadraticBilevelProblem,
    _SOLVE_BLOCK,
    _sigmoid,
    adjoint_solution,
    lower_solution,
    make_logistic_problem,
    make_quadratic_problem,
    problem_from_json,
    problem_hash,
    problem_to_json,
    reference_solution,
)
from ssaid.streams import (TAG_HESS_OP, TAG_LOWER_GRAD, TAG_UPPER_GRAD,
                           StreamFactory, stream)


def fd_grad(fun, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        out[i] = (fun(z + e) - fun(z - e)) / (2 * h)
    return out


def tiny_quadratic(sigma=0.0, radius=0.0, hess_scale=0.0):
    return make_quadratic_problem(dim_x=3, dim_y=4, kappa=10.0, seed=5,
                                  noise=NoiseModel(sigma=sigma, radius=radius,
                                                   hess_scale=hess_scale))


def tiny_logistic(**kw):
    kw.setdefault("seed", 3)
    return make_logistic_problem(dim_x=3, dim_y=4, n_rows=12, **kw)


# ---------------------------------------------------------------------------
# constants


def test_constants_validation():
    with pytest.raises(InvalidParameterError):
        ProblemConstants(mu=0.0, lipschitz_L=1, rho=0, lipschitz_M=1, sigma=0, tau=0)
    with pytest.raises(InvalidParameterError):
        ProblemConstants(mu=2.0, lipschitz_L=1.0, rho=0, lipschitz_M=1, sigma=0, tau=0)
    with pytest.raises(InvalidParameterError):
        ProblemConstants(mu=1, lipschitz_L=math.inf, rho=0, lipschitz_M=1, sigma=0, tau=0)
    c = ProblemConstants(mu=1, lipschitz_L=4, rho=0, lipschitz_M=math.inf, sigma=0, tau=0)
    assert c.kappa == 4.0


def test_quadratic_factory_spectrum_is_log_spaced():
    prob = make_quadratic_problem(dim_x=3, dim_y=3, kappa=10.0, seed=0)
    eigs = np.linalg.eigvalsh(prob.hess)
    np.testing.assert_allclose(eigs, [1.0, math.sqrt(10.0), 10.0], rtol=1e-12)
    assert prob.constants.mu == pytest.approx(1.0, abs=1e-12)
    assert prob.constants.lipschitz_L == pytest.approx(10.0, rel=1e-12)
    assert prob.constants.rho == 0.0


def test_quadratic_value_lipschitz_closed_form():
    prob = tiny_quadratic(radius=0.25)
    u = prob.upper
    expect = (prob.dim_y * u.huber_delta
              + u.cos_amp * u.cos_freq * prob.dim_x + 0.25)
    assert prob.constants.lipschitz_M == pytest.approx(expect, rel=1e-12)


def test_quadratic_factory_rejects_bad_dims():
    with pytest.raises(InvalidParameterError):
        make_quadratic_problem(dim_x=2, dim_y=1, kappa=5.0)
    with pytest.raises(InvalidParameterError):
        make_quadratic_problem(dim_x=2, dim_y=3, kappa=0.5)


def test_factory_rebuild_is_bit_identical():
    a = make_quadratic_problem(dim_x=4, dim_y=5, kappa=7.0, seed=42)
    b = make_quadratic_problem(dim_x=4, dim_y=5, kappa=7.0, seed=42)
    np.testing.assert_array_equal(a.hess, b.hess)
    np.testing.assert_array_equal(a.coupling, b.coupling)
    np.testing.assert_array_equal(a.offset, b.offset)
    np.testing.assert_array_equal(a.upper.target, b.upper.target)
    assert problem_hash(a) == problem_hash(b)


# ---------------------------------------------------------------------------
# mean oracles vs finite differences


def test_quadratic_lower_grad_matches_fd():
    prob = tiny_quadratic()
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    np.testing.assert_allclose(prob.lower_grad_y(x, y),
                               fd_grad(lambda yy: prob.lower_value(x, yy), y),
                               rtol=1e-6, atol=1e-6)


def test_quadratic_operators_match_fd():
    prob = tiny_quadratic()
    rng = np.random.default_rng(1)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    hv = fd_grad(lambda yy: float(prob.lower_grad_y(x, yy) @ v), y)
    np.testing.assert_allclose(prob.lower_hess_vec(x, y, v), hv, rtol=1e-5, atol=1e-6)
    cv = fd_grad(lambda xx: float(prob.lower_grad_y(xx, y) @ v), x)
    np.testing.assert_allclose(prob.lower_cross_vec(x, y, v), cv, rtol=1e-5, atol=1e-6)


def test_logistic_grad_and_operators_match_fd():
    prob = tiny_logistic()
    rng = np.random.default_rng(2)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_allclose(prob.lower_grad_y(x, y),
                               fd_grad(lambda yy: prob.lower_value(x, yy), y),
                               rtol=1e-5, atol=1e-6)
    hv = fd_grad(lambda yy: float(prob.lower_grad_y(x, yy) @ v), y)
    np.testing.assert_allclose(prob.lower_hess_vec(x, y, v), hv, rtol=1e-4, atol=1e-6)
    cv = fd_grad(lambda xx: float(prob.lower_grad_y(xx, y) @ v), x)
    np.testing.assert_allclose(prob.lower_cross_vec(x, y, v), cv, rtol=1e-4, atol=1e-6)
    dense = prob.lower_hess_dense(x, y)
    np.testing.assert_allclose(dense @ v, prob.lower_hess_vec(x, y, v), rtol=1e-12)


def _masked_sigmoid(t):
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_equals_masked_form_bit_for_bit():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                        745.2, -745.2, 709.8, -709.8, 36.7, -36.7, 5e-324, -5e-324])
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40, 81, 1023, 10_240, 80_000):
        t = np.concatenate([special, rng.uniform(-800.0, 800.0, n),
                            rng.standard_normal(n)])
        rng.shuffle(t)
        # offset and strided views move the vector loops off their alignment
        for view in (t[:n], t[1:n + 1], t[3:], t[::3]):
            got, want = _sigmoid(view), _masked_sigmoid(view)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_upper_gradients_match_fd():
    rng = np.random.default_rng(3)
    ups = [PseudoHuberCosineUpper(target=rng.standard_normal(4), cos_amp=0.3,
                                  cos_freq=2.0, huber_delta=0.7),
           PlainQuadraticUpper(target=rng.standard_normal(4), x_weight=0.2)]
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    for up in ups:
        np.testing.assert_allclose(up.grad_x(x, y),
                                   fd_grad(lambda xx: up.value(xx, y), x),
                                   rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(up.grad_y(x, y),
                                   fd_grad(lambda yy: up.value(x, yy), y),
                                   rtol=1e-5, atol=1e-7)


def test_pseudo_huber_slope_stays_below_delta():
    up = PseudoHuberCosineUpper(target=np.zeros(1), huber_delta=0.4)
    u = np.linspace(-50, 50, 3001)
    slopes = up.grad_y(np.zeros(1), u[:, None]).ravel()
    assert np.max(np.abs(slopes)) < 0.4


# ---------------------------------------------------------------------------
# reference solutions


def test_quadratic_lower_solution_closed_form():
    prob = QuadraticBilevelProblem(hess=np.array([[2.0]]),
                                   coupling=np.array([[1.0]]),
                                   offset=np.array([0.0]),
                                   upper=PlainQuadraticUpper(target=np.zeros(1)))
    np.testing.assert_allclose(lower_solution(prob, np.array([3.0])), [1.5])


def test_lower_solution_matches_gradient_descent():
    for prob in [tiny_quadratic(), tiny_logistic()]:
        x = np.random.default_rng(4).standard_normal(3)
        y_star = lower_solution(prob, x)
        y = np.zeros(prob.dim_y)
        lr = 1.0 / prob.constants.lipschitz_L
        for _ in range(20000):
            y = y - lr * prob.lower_grad_y(x, y)
        np.testing.assert_allclose(y_star, y, atol=1e-10)
        assert np.linalg.norm(prob.lower_grad_y(x, y_star)) <= 1e-10


def test_adjoint_solution_solves_linear_system():
    for prob in [tiny_quadratic(), tiny_logistic()]:
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        v = adjoint_solution(prob, x, y)
        np.testing.assert_allclose(prob.lower_hess_vec(x, y, v),
                                   prob.upper.grad_y(x, y), atol=1e-9)


def test_logistic_cg_adjoint_is_rejected():
    prob = tiny_logistic()
    assert prob.adjoint_method == "direct"
    with pytest.raises(InvalidParameterError):
        replace(prob, adjoint_method="cg")
    doc = json.loads(problem_to_json(prob))
    assert doc["adjoint_method"] == "direct"
    doc["adjoint_method"] = "cg"
    with pytest.raises(InvalidParameterError):
        problem_from_json(json.dumps(doc))


def test_reference_solution_gradient_matches_fd_of_implicit_objective():
    for prob in [tiny_quadratic(), tiny_logistic()]:
        x = np.random.default_rng(7).standard_normal(3) * 0.5

        def phi(xx):
            return prob.upper.value(xx, lower_solution(prob, xx))

        ref = reference_solution(prob, x)
        np.testing.assert_allclose(ref.grad_phi, fd_grad(phi, x, h=1e-6),
                                   rtol=1e-4, atol=1e-6)
        assert ref.residuals["lower"] <= 1e-10
        assert ref.residuals["adjoint"] <= 1e-9


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_batched_hess_solve_matches_loop(family):
    prob = tiny_quadratic() if family == "quadratic" else tiny_logistic()
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    for rows in (1, _SOLVE_BLOCK - 1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1):
        ys = 3.0 * rng.standard_normal((rows, 4))
        rhs = rng.standard_normal((rows, 4))
        # one row per system, a shared y, and a shared right-hand side
        for y, b in ((ys, rhs), (ys[0], rhs), (ys, rhs[0])):
            batched = np.broadcast_to(prob.solve_lower_hess(x, y, b), (rows, 4))
            y2 = np.broadcast_to(y, (rows, 4))
            b2 = np.broadcast_to(b, (rows, 4))
            for i in range(rows):
                assert np.array_equal(batched[i],
                                      prob.solve_lower_hess(x, y2[i], b2[i]))


# ---------------------------------------------------------------------------
# sampled oracles: determinism, bias, variance


def test_zero_noise_sampling_is_exact_and_draws_nothing():
    prob = tiny_quadratic(sigma=0.0, radius=0.0)
    rng = np.random.default_rng(9)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    gen = stream(0, 0, TAG_LOWER_GRAD)
    got = prob.sample_lower_grad(x, y, gen)
    np.testing.assert_array_equal(got, prob.lower_grad_y(x, y))
    # generator untouched: next draw equals a fresh stream's first draw
    np.testing.assert_array_equal(gen.standard_normal(3),
                                  stream(0, 0, TAG_LOWER_GRAD).standard_normal(3))
    hvp = prob.sample_hess_operator(x, stream(0, 0, TAG_HESS_OP))
    np.testing.assert_array_equal(hvp(y, v), prob.lower_hess_vec(x, y, v))
    np.testing.assert_array_equal(
        prob.sample_cross_operator(x, stream(0, 1, TAG_HESS_OP))(y, v),
        prob.lower_cross_vec(x, y, v))


def test_lower_grad_noise_mean_and_variance():
    sigma = 1.5
    prob = tiny_quadratic(sigma=sigma)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    draws = prob.sample_lower_grad(x, y, stream(1, 0, TAG_LOWER_GRAD), reps=100_000)
    mean = prob.lower_grad_y(x, y)
    err = draws - mean
    # E nu = 0 and E||nu||^2 = sigma^2 by construction
    assert np.linalg.norm(err.mean(axis=0)) < 0.02
    assert np.mean(np.sum(err ** 2, axis=1)) == pytest.approx(sigma ** 2, rel=0.02)


def test_upper_grad_noise_is_on_a_sphere():
    radius = 0.3
    prob = tiny_quadratic(radius=radius)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    gx, gy = prob.sample_upper_grads(x, y, stream(2, 0, TAG_LOWER_GRAD), reps=50_000)
    dx = gx - prob.upper.grad_x(x, y)
    dy = gy - prob.upper.grad_y(x, y)
    norms = np.sqrt(np.sum(dx ** 2, axis=1) + np.sum(dy ** 2, axis=1))
    np.testing.assert_allclose(norms, radius, rtol=1e-12)
    assert np.linalg.norm(dx.mean(axis=0)) < 0.005
    assert np.linalg.norm(dy.mean(axis=0)) < 0.005


def test_upper_grad_error_second_moment_within_bound():
    # sampled-vs-mean gradient gap stays within the stated second moment
    prob = tiny_quadratic(radius=0.3)
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    gx, gy = prob.sample_upper_grads(x, y, stream(3, 0, TAG_LOWER_GRAD), reps=20_000)
    gap_sq = (np.sum((gx - prob.upper.grad_x(x, y)) ** 2, axis=1)
              + np.sum((gy - prob.upper.grad_y(x, y)) ** 2, axis=1))
    m = prob.constants.lipschitz_M
    assert np.max(gap_sq) <= m ** 2 + 1e-12


def test_hess_noise_direction_and_bias():
    scale = 0.2
    prob = tiny_quadratic(hess_scale=scale)
    assert prob.constants.lipschitz_L > 10.0  # inflated by the noise direction
    rng = np.random.default_rng(13)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    hvp = prob.sample_hess_operator(x, stream(4, 0, TAG_HESS_OP), reps=200_000)
    draws = hvp(y, np.broadcast_to(v, (200_000, 4)))
    expect = v @ prob.hess + 0.5 * scale * (v @ prob.hess_noise_dir)
    np.testing.assert_allclose(draws.mean(axis=0), expect, atol=2e-3)
    evals = np.linalg.eigvalsh(prob.hess_noise_dir)
    assert evals[-1] == pytest.approx(1.0, rel=1e-9)
    assert evals[0] >= 0.0


def test_logistic_minibatch_grad_is_unbiased():
    prob = tiny_logistic(batch_size=3)
    rng = np.random.default_rng(14)
    x, y = rng.standard_normal(3), rng.standard_normal(4)
    draws = prob.sample_lower_grad(x, y, stream(5, 0, TAG_LOWER_GRAD), reps=200_000)
    mean = prob.lower_grad_y(x, y)
    se = draws.std(axis=0).max() / math.sqrt(200_000)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=6 * se + 1e-4)
    gap_sq = np.sum((draws - mean) ** 2, axis=1)
    assert gap_sq.mean() <= prob.constants.sigma ** 2


def test_logistic_minibatch_operators_are_unbiased():
    prob = tiny_logistic(batch_size=2)
    rng = np.random.default_rng(15)
    x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    reps = 200_000
    hvp = prob.sample_hess_operator(x, stream(6, 0, TAG_HESS_OP), reps=reps)
    hv = hvp(np.broadcast_to(y, (reps, 4)), np.broadcast_to(v, (reps, 4)))
    np.testing.assert_allclose(hv.mean(axis=0), prob.lower_hess_vec(x, y, v), atol=0.05)
    jvp = prob.sample_cross_operator(x, stream(7, 0, TAG_HESS_OP), reps=reps)
    jv = jvp(np.broadcast_to(y, (reps, 4)), np.broadcast_to(v, (reps, 4)))
    np.testing.assert_allclose(jv.mean(axis=0), prob.lower_cross_vec(x, y, v), atol=0.05)


@pytest.mark.parametrize("make", [tiny_quadratic, tiny_logistic])
def test_per_sample_strong_convexity_and_smoothness(make):
    # replay the same draw at two points: the realized gradient map must be
    # mu-strongly monotone and L-Lipschitz for every sample
    prob = make() if make is tiny_quadratic else make(batch_size=2)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(3)
    mu, lip = prob.constants.mu, prob.constants.lipschitz_L
    for trial in range(50):
        y1 = rng.standard_normal(4)
        y2 = rng.standard_normal(4)
        g1 = prob.sample_lower_grad(x, y1, stream(8, trial, TAG_LOWER_GRAD))
        g2 = prob.sample_lower_grad(x, y2, stream(8, trial, TAG_LOWER_GRAD))
        d = y1 - y2
        inner = float((g1 - g2) @ d)
        assert inner >= mu * d @ d - 1e-9
        assert np.linalg.norm(g1 - g2) <= lip * np.linalg.norm(d) + 1e-9


def test_sampled_hess_operator_stays_within_spectrum():
    prob = tiny_quadratic(hess_scale=0.5)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(3)
    mu, lip = prob.constants.mu, prob.constants.lipschitz_L
    for trial in range(50):
        hvp = prob.sample_hess_operator(x, stream(9, trial, TAG_HESS_OP))
        v = rng.standard_normal(4)
        hv = hvp(np.zeros(4), v)
        quad = float(v @ hv)
        assert quad >= mu * v @ v - 1e-9
        assert np.linalg.norm(hv) <= lip * np.linalg.norm(v) + 1e-9


def test_stream_addresses_wire_samples_apart():
    prob = tiny_quadratic(sigma=1.0, radius=0.5)
    rng = np.random.default_rng(18)
    x, y = rng.standard_normal(3), rng.standard_normal(4)

    def draws(factory, iteration):
        lower = prob.sample_lower_grad(
            x, y, factory.at(iteration, TAG_LOWER_GRAD))
        gx, _ = prob.sample_upper_grads(
            x, y, factory.at(iteration, TAG_UPPER_GRAD))
        return lower, gx

    fac = StreamFactory(21)
    b1 = draws(fac, 0)
    draws(fac, 5)  # other addresses in between do not shift the draws
    b2 = draws(StreamFactory(21), 0)
    np.testing.assert_array_equal(b1[0], b2[0])
    np.testing.assert_array_equal(b1[1], b2[1])
    np.testing.assert_array_equal(draws(fac, 0)[0], b1[0])
    b3 = draws(StreamFactory(21), 1)
    assert not np.array_equal(b1[0], b3[0])
    assert not np.array_equal(b1[1], b3[1])


def test_plain_quadratic_upper_is_flagged():
    up = PlainQuadraticUpper(target=np.zeros(2))
    assert up.assumption_violating
    assert up.grad_bound(2, 2) == math.inf
    prob = QuadraticBilevelProblem(hess=np.eye(2), coupling=np.eye(2),
                                   offset=np.zeros(2), upper=up)
    assert prob.constants.lipschitz_M == math.inf


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_quadratic():
    prob = tiny_quadratic(sigma=0.7, radius=0.2)
    text = problem_to_json(prob)
    back = problem_from_json(text)
    np.testing.assert_array_equal(back.hess, prob.hess)
    np.testing.assert_array_equal(back.coupling, prob.coupling)
    np.testing.assert_array_equal(back.upper.target, prob.upper.target)
    assert back.constants == prob.constants
    assert problem_hash(back) == problem_hash(prob)


def test_json_round_trip_logistic():
    prob = tiny_logistic(batch_size=5)
    back = problem_from_json(problem_to_json(prob))
    np.testing.assert_array_equal(back.features, prob.features)
    assert back.batch_size == 5
    assert back.constants == prob.constants
    assert problem_hash(back) == problem_hash(prob)


def test_json_rejects_tampered_constants():
    doc = json.loads(problem_to_json(tiny_quadratic()))
    doc["constants"]["lipschitz_L"] += 1e-6
    with pytest.raises(InvalidProblemError):
        problem_from_json(json.dumps(doc))


def test_json_rejects_garbage():
    with pytest.raises(InvalidProblemError):
        problem_from_json("{not json")
    with pytest.raises(InvalidProblemError):
        problem_from_json(json.dumps({"family": "mystery", "constants": {
            "mu": 1, "lipschitz_L": 1, "rho": 0, "lipschitz_M": 1,
            "sigma": 0, "tau": 0}, "noise": {}, "upper": {"kind": "?"}}))


def test_invalid_problem_construction():
    with pytest.raises(InvalidProblemError):
        QuadraticBilevelProblem(hess=np.array([[1.0, 2.0], [0.0, 1.0]]),
                                coupling=np.eye(2), offset=np.zeros(2),
                                upper=PlainQuadraticUpper(target=np.zeros(2)))
    with pytest.raises(InvalidProblemError):
        QuadraticBilevelProblem(hess=-np.eye(2), coupling=np.eye(2),
                                offset=np.zeros(2),
                                upper=PlainQuadraticUpper(target=np.zeros(2)))
    with pytest.raises(InvalidParameterError):
        make_logistic_problem(dim_x=2, dim_y=2, n_rows=4, batch_size=9)
