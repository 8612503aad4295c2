"""Main loop semantics: hand-executed oracles, determinism, divergence."""

import dataclasses
import math

import numpy as np
import pytest

import ssaid.ssaid as core
from ssaid.baselines import MultiLoopConfig, run_multiloop
from ssaid.errors import DivergenceError, InvalidParameterError
from ssaid.harness import main
from ssaid.hypergradient import StepSizes
from ssaid.problems import (
    NoiseModel,
    PlainQuadraticUpper,
    QuadraticBilevelProblem,
    make_quadratic_problem,
    problem_from_json,
    problem_to_json,
    reference_solution,
)
from ssaid.ssaid import (
    IterationTrace,
    RunConfig,
    SSAIDState,
    _finite,
    _finite_rows,
    _setup,
    _small,
    run_ssaid,
    ssaid_step,
)
from ssaid.streams import StreamFactory


def one_dim_problem():
    return QuadraticBilevelProblem(hess=np.array([[1.0]]),
                                   coupling=np.array([[1.0]]),
                                   offset=np.array([0.0]),
                                   upper=PlainQuadraticUpper(target=np.zeros(1)))


def noisy_problem(kappa=10.0, sigma=1.0, radius=0.3, seed=1):
    return make_quadratic_problem(dim_x=3, dim_y=4, kappa=kappa, seed=seed,
                                  noise=NoiseModel(sigma=sigma, radius=radius))


# ---------------------------------------------------------------------------
# hand-executed two-step oracle


def test_two_steps_match_hand_execution_bit_exactly():
    prob = one_dim_problem()
    steps = StepSizes(alpha=1.0, eta=1.0, beta=0.1, horizon_k=2)
    cfg = RunConfig(seed=0, horizon=2, steps=steps,
                    x0=[1.0], y0=[0.0], v0=[0.0])
    trace = run_ssaid(prob, cfg)

    # mirror the update equations with plain floats
    x0, y0, v0 = 1.0, 0.0, 0.0
    y1 = y0 - 1.0 * (y0 * 1.0 - (1.0 * x0 + 0.0))
    v1 = v0 - 1.0 * (v0 * 1.0) + 1.0 * (y1 - 0.0)
    g1 = 0.0 - (-(v1 * 1.0))
    x1 = x0 - 0.1 * g1
    y2 = y1 - 1.0 * (y1 * 1.0 - (1.0 * x1 + 0.0))
    v2 = v1 - 1.0 * (v1 * 1.0) + 1.0 * (y2 - 0.0)
    g2 = 0.0 - (-(v2 * 1.0))
    x2 = x1 - 0.1 * g2

    # exact references on this instance: y*(x) = v*(x) = x, phi = x^2/2
    expect = [
        (0, x0 * x0, abs(y1 - x0), abs(v1 - x0), abs(v1), abs(x1 - x0),
         0.5 * x0 * x0, 3, 2),
        (1, x1 * x1, abs(y2 - x1), abs(v2 - x1), abs(v2), abs(x2 - x1),
         0.5 * x1 * x1, 6, 4),
    ]
    got = list(zip(trace.k, trace.grad_phi_sq, trace.y_err, trace.v_err,
                   trace.v_norm, trace.x_step_norm, trace.phi,
                   trace.gc_count, trace.mv_count))
    for row_got, row_want in zip(got, expect):
        assert tuple(float(v) for v in row_got) == tuple(float(v) for v in row_want)
    np.testing.assert_array_equal(trace.final_state.x, [x2])
    np.testing.assert_array_equal(trace.final_state.y_hat, [y2])
    np.testing.assert_array_equal(trace.final_state.v_hat, [v2])


def test_single_step_at_reference_point_only_moves_x():
    prob = make_quadratic_problem(dim_x=3, dim_y=4, kappa=5.0, seed=2)
    x = np.random.default_rng(3).standard_normal(3)
    ref = reference_solution(prob, x)
    steps = StepSizes(alpha=1.0 / 5.0, eta=1.0 / 5.0, beta=0.01, horizon_k=1)
    state = SSAIDState(x=x.copy(), y_hat=ref.y_star.copy(),
                       v_hat=ref.v_star.copy(), k=0, steps=steps)
    new = ssaid_step(state, prob, StreamFactory(0))
    assert np.linalg.norm(new.y_hat - ref.y_star) <= 1e-12
    assert np.linalg.norm(new.v_hat - ref.v_star) <= 1e-12
    np.testing.assert_allclose(new.x, x - 0.01 * ref.grad_phi, atol=1e-12)


def test_frozen_x_lower_iterate_contracts():
    prob = make_quadratic_problem(dim_x=3, dim_y=4, kappa=8.0, seed=4)
    alpha = 1.0 / prob.constants.lipschitz_L
    steps = StepSizes(alpha=alpha, eta=alpha, beta=0.0, horizon_k=240)
    trace = run_ssaid(prob, RunConfig(seed=5, horizon=240, steps=steps))
    assert float(trace.x_step_norm.max()) == 0.0
    sq = trace.y_err ** 2
    factor = 1.0 - prob.constants.mu * alpha
    for i in range(1, len(sq)):
        assert sq[i] <= factor * sq[i - 1] + 1e-15
    assert sq[-1] < 1e-12 * sq[0]


def test_noise_free_run_equals_mean_oracle_recursion():
    prob = make_quadratic_problem(dim_x=3, dim_y=4, kappa=5.0, seed=6)
    steps = StepSizes(alpha=0.2, eta=0.2, beta=1e-3, horizon_k=50)
    cfg = RunConfig(seed=7, horizon=50, steps=steps)
    trace = run_ssaid(prob, cfg)
    x, y, v = np.zeros(3), np.zeros(4), np.zeros(4)
    for _ in range(50):
        y = y - steps.alpha * prob.lower_grad_y(x, y)
        gy = prob.upper.grad_y(x, y)
        gx = prob.upper.grad_x(x, y)
        v = v - steps.eta * prob.lower_hess_vec(x, y, v) + steps.eta * gy
        x = x - steps.beta * (gx - prob.lower_cross_vec(x, y, v))
    np.testing.assert_array_equal(trace.final_state.x, x)
    np.testing.assert_array_equal(trace.final_state.y_hat, y)
    np.testing.assert_array_equal(trace.final_state.v_hat, v)


def test_noise_free_descent_drives_gradient_to_zero():
    prob = one_dim_problem()
    # l_phi of this instance is 4, so 1/(8 l_phi) = 1/32 is admissible
    steps = StepSizes(alpha=1.0, eta=1.0, beta=1.0 / 32.0, horizon_k=3000)
    trace = run_ssaid(prob, RunConfig(seed=0, horizon=3000, steps=steps,
                                      x0=[1.0], stride=10))
    sq = trace.grad_phi_sq
    assert np.all(np.diff(sq[1:]) < 0)
    assert sq[-1] < 1e-50


# ---------------------------------------------------------------------------
# determinism and trace mechanics


def test_same_config_gives_identical_csv_bytes():
    prob = noisy_problem()
    cfg = RunConfig(seed=11, horizon=40, stride=3)
    a = run_ssaid(prob, cfg).csv_text()
    b = run_ssaid(prob, cfg).csv_text()
    assert a == b
    c = run_ssaid(prob, RunConfig(seed=12, horizon=40, stride=3)).csv_text()
    assert a != c


def test_zero_horizon_records_single_initial_row():
    prob = noisy_problem()
    trace = run_ssaid(prob, RunConfig(seed=0, horizon=0))
    assert trace.n_rows == 1
    assert trace.k[0] == 0
    assert trace.gc_count[0] == 0 and trace.mv_count[0] == 0
    assert trace.x_step_norm[0] == 0.0
    ref = reference_solution(prob, np.zeros(3))
    assert trace.grad_phi_sq[0] == pytest.approx(float(ref.grad_phi @ ref.grad_phi))


def test_counter_arithmetic_is_exact():
    prob = noisy_problem()
    trace = run_ssaid(prob, RunConfig(seed=1, horizon=25))
    np.testing.assert_array_equal(trace.gc_count, 3 * (np.arange(25) + 1))
    np.testing.assert_array_equal(trace.mv_count, 2 * (np.arange(25) + 1))


def test_stride_records_every_sth_row_plus_final():
    prob = noisy_problem()
    trace = run_ssaid(prob, RunConfig(seed=2, horizon=10, stride=4))
    np.testing.assert_array_equal(trace.k, [0, 4, 8, 9])


def test_csv_round_trip_preserves_every_bit():
    prob = noisy_problem()
    trace = run_ssaid(prob, RunConfig(seed=3, horizon=17, stride=2))
    text = trace.csv_text()
    assert text.splitlines()[0] == ("k,grad_phi_sq,y_err,v_err,v_norm,"
                                    "x_step_norm,phi,gc_count,mv_count")
    back = IterationTrace.from_csv_text(text)
    for name in ("k", "grad_phi_sq", "y_err", "v_err", "v_norm",
                 "x_step_norm", "phi", "gc_count", "mv_count"):
        np.testing.assert_array_equal(getattr(back, name), getattr(trace, name))
    assert back.csv_text() == text


def test_csv_rejects_bad_header_and_rows():
    with pytest.raises(InvalidParameterError):
        IterationTrace.from_csv_text("a,b,c\n1,2,3\n")
    good = run_ssaid(noisy_problem(), RunConfig(seed=4, horizon=2)).csv_text()
    for row in ("1,2", "2,0.5,1,1,1,1,1,9,6,7", "2,0.5,1,x,1,1,1,9,6",
                "2.5,0.5,1,1,1,1,1,9,6"):
        with pytest.raises(InvalidParameterError):
            IterationTrace.from_csv_text(good + row + "\n")


def test_auto_steps_shrink_with_horizon():
    prob = noisy_problem()
    short = run_ssaid(prob, RunConfig(seed=5, horizon=4))
    long = run_ssaid(prob, RunConfig(seed=5, horizon=400, stride=100))
    assert short.steps.beta >= long.steps.beta
    assert short.steps.alpha == 1.0 / prob.constants.lipschitz_L


def test_run_config_validation():
    with pytest.raises(InvalidParameterError):
        RunConfig(seed=0, horizon=-1)
    with pytest.raises(InvalidParameterError):
        RunConfig(seed=0, horizon=1, stride=0)
    with pytest.raises(InvalidParameterError):
        RunConfig(seed=0, horizon=1, steps="fast")
    with pytest.raises(InvalidParameterError):
        run_ssaid(noisy_problem(), RunConfig(seed=0, horizon=1, x0=[1.0]))
    with pytest.raises(InvalidParameterError):
        run_ssaid(noisy_problem(), RunConfig(seed=0, horizon=1,
                                             y0=[np.nan, 0, 0, 0]))


# ---------------------------------------------------------------------------
# boundedness and divergence


def test_adjoint_norm_stays_within_derived_bound():
    prob = noisy_problem(kappa=10.0, sigma=1.0, radius=0.3)
    trace = run_ssaid(prob, RunConfig(seed=6, horizon=2000))
    cap = prob.constants.lipschitz_M / prob.constants.mu  # v0 = 0
    assert float(trace.v_norm.max()) <= cap + 1e-9


def test_oversized_upper_step_raises_divergence_with_partial_trace():
    prob = QuadraticBilevelProblem(hess=np.eye(2), coupling=np.eye(2),
                                   offset=np.zeros(2),
                                   upper=PlainQuadraticUpper(target=np.zeros(2)))
    # one run diverges inside the first block of reference rows, the other
    # after a full block was solved and with a partial one pending
    for beta, iteration in ((50.0, 182), (5.0, 511)):
        steps = StepSizes(alpha=1.0, eta=1.0, beta=beta, horizon_k=10_000)
        cfg = RunConfig(seed=7, horizon=10_000, steps=steps, x0=[1.0, -1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                run_ssaid(prob, cfg)
            err = info.value
            # every row before the failing step, as a run that stops short
            short = run_ssaid(prob, dataclasses.replace(cfg,
                                                        horizon=err.iteration))
        assert err.iteration == iteration
        assert np.all(np.isfinite(err.state.x))
        assert err.trace.n_rows == err.iteration
        assert err.trace.csv_text() == short.csv_text()
        assert np.array_equal(err.state.x, short.final_state.x)


def test_overflowing_reference_raises_divergence_with_partial_trace(
        tmp_path, monkeypatch, capsys):
    # kappa = 1e4 and beta = 50: the reference of row 154 overflows (its
    # adjoint right-hand side is infinite, which the quadratic solve
    # refuses with ValueError) one step before the iterates do, at 155
    text = problem_to_json(dataclasses.replace(
        make_quadratic_problem(4, 4, 1e4, seed=0),
        upper=PlainQuadraticUpper(np.zeros(4), x_weight=1.0), constants=None))
    prob = problem_from_json(text)
    path = tmp_path / "problem.json"
    path.write_text(text)
    rate = 1.0 / prob.constants.lipschitz_L
    cfg = RunConfig(seed=0, horizon=5000, stride=1,
                    steps=StepSizes(rate, rate, 50.0, horizon_k=5000))
    with np.errstate(over="ignore", invalid="ignore"):
        state, factory, _ = _setup(prob, cfg)
        xs = []
        for _ in range(154):
            xs.append(state.x)
            state = ssaid_step(state, prob, factory)
        ref = reference_solution(prob, np.stack(xs))
        with pytest.raises(ValueError):
            reference_solution(prob, state.x)
        short = run_ssaid(prob, dataclasses.replace(cfg, horizon=154))

        with pytest.raises(DivergenceError) as info:
            run_ssaid(prob, cfg)
        with pytest.raises(DivergenceError) as multi:
            run_multiloop(prob, MultiLoopConfig(1, 1), cfg)
        # no step diverges: the final flush, and a full block, meet it
        with pytest.raises(DivergenceError) as last:
            run_ssaid(prob, dataclasses.replace(cfg, horizon=155))
        monkeypatch.setattr(core, "_SOLVE_BLOCK", 5)
        with pytest.raises(DivergenceError) as block:
            run_ssaid(prob, cfg)
        monkeypatch.undo()
        code = main(["run", "--problem", str(path),
                     "--K", "5000", "--stride", "1", "--alpha", repr(rate),
                     "--eta", repr(rate), "--beta", "50",
                     "--out-dir", str(tmp_path)])

    # every kept row's reference is finite; the row values that square or
    # subtract huge numbers overflow on their own, as in a run that stops
    # before the overflowing row
    for arr in (ref.y_star, ref.v_star, ref.grad_phi):
        assert np.all(np.isfinite(arr))
    for err in (info.value, multi.value):
        assert str(err) == "nonfinite iterate at iteration 155"
        assert err.iteration == err.state.k == 155
        assert np.all(np.isfinite(err.state.x))
    for err in (last.value, block.value):
        assert str(err) == "nonfinite reference at iteration 154"
        assert err.iteration == err.state.k == 154
        assert np.array_equal(err.state.x, state.x)
    for err in (info.value, multi.value, last.value, block.value):
        assert err.trace.n_rows == 154
        assert err.trace.csv_text() == short.csv_text()
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: nonfinite iterate at iteration 155")


def _one_row(prob, k, before, after, counts):
    """A trace row from a one-row reference solve and 1-D norms: the row
    that the runner's stacked blocks must reproduce byte for byte."""
    ref = reference_solution(prob, before.x)
    return (k, float(ref.grad_phi @ ref.grad_phi),
            float(np.linalg.norm(after.y_hat - ref.y_star)),
            float(np.linalg.norm(after.v_hat - ref.v_star)),
            float(np.linalg.norm(after.v_hat)),
            float(np.linalg.norm(after.x - before.x)),
            prob.upper.value(before.x, ref.y_star),
            counts[0] * (k + 1), counts[1] * (k + 1))


def test_strided_trace_keeps_stride_final_and_initial_rows():
    prob = noisy_problem()
    trace = run_ssaid(prob, RunConfig(seed=8, horizon=50, stride=7))
    assert trace.k.tolist() == [0, 7, 14, 21, 28, 35, 42, 49]

    def state_at(k):   # the state entering iteration k
        run = RunConfig(seed=8, horizon=k, steps=trace.steps, stride=k + 1)
        return run_ssaid(prob, run).final_state

    rows = [_one_row(prob, k, state_at(k), state_at(k + 1), (3, 2))
            for k in trace.k.tolist()]
    assert trace.csv_text() == IterationTrace.from_columns(
        list(zip(*rows))).csv_text()

    start = run_ssaid(prob, RunConfig(seed=8, horizon=0))
    initial = state_at(0)
    assert start.csv_text() == IterationTrace.from_columns(
        list(zip(_one_row(prob, 0, initial, initial, (0, 0))))).csv_text()


def test_finite_check_equals_summed_reductions():
    # the vdot pre-check and its fallback must agree with the plain check:
    # nan and inf entries, entries near 1e160 whose squares overflow while
    # their sums do not, finite entries whose sums overflow, and sums that
    # cancel back
    big, near = 1e308, 1e160
    vecs = [np.zeros(3), np.full(3, 1e299), np.full(3, big), np.full(3, -big),
            np.array([big, -big, 1.0]), np.array([big, big, -big]),
            np.array([np.nan, 0.0, 0.0]), np.array([-np.inf, 1.0, 0.0]),
            np.array([np.inf, 0.0, 0.0]), np.full(3, near),
            np.array([-near, 2.0 * near, 0.5])]

    def rule(x, y, v):
        # the check as the iterates' summed reductions
        return math.isfinite(float(x.sum()) + float(y.sum()) + float(v.sum()))

    zero = np.zeros(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in vecs:
            for y in vecs:
                for v in (zero, np.full(3, big), np.full(3, near)):
                    assert _finite(x, y, v) == rule(x, y, v), (x, y, v)
                # stacked rows: each row's own verdict
                xs, ys, vs = (np.stack([x, y, zero]), np.stack([y, zero, x]),
                              np.stack([zero, x, y]))
                assert _finite_rows(xs, ys, vs) == [
                    rule(*row) for row in zip(xs, ys, vs)], (x, y)
        # squares that overflow leave the verdict to the fallback
        assert not _small(np.full(3, near), zero, zero)
        assert _finite(np.full(3, near), zero, zero)
        assert _finite_rows(np.full((2, 3), near), np.zeros((2, 3)),
                            np.zeros((2, 3))) == [True, True]
