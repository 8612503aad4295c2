import numpy as np
import pytest

from ssaid.baselines import MultiLoopConfig, run_multiloop
from ssaid.errors import DivergenceError, InvalidParameterError
from ssaid.hypergradient import StepSizes, compute_derived_constants
from ssaid.problems import (NoiseModel, PlainQuadraticUpper,
                            QuadraticBilevelProblem, make_logistic_problem,
                            make_quadratic_problem, reference_solution)
from ssaid.ssaid import (RunConfig, _oracle_bill, _setup, resolve_step_sizes,
                         run_ssaid)


def noisy_quadratic(seed=5):
    # all three noise channels on, so every stream tag gets exercised
    return make_quadratic_problem(dim_x=4, dim_y=3, kappa=10.0, seed=seed,
                                  noise=NoiseModel(sigma=0.7, radius=0.3,
                                                   hess_scale=0.2))


# ---------------------------------------------------------------------------
# degenerate equivalence with the single-loop method


def test_single_inner_step_warm_matches_ssaid_bitwise():
    prob = noisy_quadratic()
    run = RunConfig(seed=123, horizon=50, steps="auto", stride=7)
    ml = run_multiloop(prob, MultiLoopConfig(inner_iters=1, solver_iters=1),
                       run)
    sl = run_ssaid(prob, run)
    assert ml.csv_text() == sl.csv_text()
    assert np.array_equal(ml.final_state.x, sl.final_state.x)
    assert np.array_equal(ml.final_state.y_hat, sl.final_state.y_hat)
    assert np.array_equal(ml.final_state.v_hat, sl.final_state.v_hat)


def test_single_inner_step_matches_ssaid_on_logistic():
    prob = make_logistic_problem(dim_x=3, dim_y=4, n_rows=12, seed=2,
                                 batch_size=3)
    run = RunConfig(seed=9, horizon=30, steps="auto", stride=4)
    ml = run_multiloop(prob, MultiLoopConfig(inner_iters=1, solver_iters=1),
                       run)
    sl = run_ssaid(prob, run)
    assert ml.csv_text() == sl.csv_text()


def test_single_inner_step_noise_free_matches_ssaid():
    prob = make_quadratic_problem(dim_x=3, dim_y=3, kappa=5.0, seed=1)
    run = RunConfig(seed=0, horizon=40, steps="auto", stride=1)
    ml = run_multiloop(prob, MultiLoopConfig(inner_iters=1, solver_iters=1),
                       run)
    sl = run_ssaid(prob, run)
    assert ml.csv_text() == sl.csv_text()


# ---------------------------------------------------------------------------
# oracle accounting


def test_oracle_counters_scale_with_loop_counts():
    prob = noisy_quadratic()
    run = RunConfig(seed=3, horizon=10, steps="auto", stride=1)
    tr = run_multiloop(prob, MultiLoopConfig(inner_iters=5, solver_iters=5),
                       run)
    assert tr.n_rows == 10
    assert np.array_equal(tr.gc_count, 7 * (np.arange(10) + 1))
    assert np.array_equal(tr.mv_count, 6 * (np.arange(10) + 1))


def test_asymmetric_loop_counts():
    prob = noisy_quadratic()
    run = RunConfig(seed=3, horizon=4, steps="auto", stride=1)
    tr = run_multiloop(prob, MultiLoopConfig(inner_iters=3, solver_iters=8),
                       run)
    assert int(tr.gc_count[-1]) == (3 + 2) * 4
    assert int(tr.mv_count[-1]) == (8 + 1) * 4


def run_loops(loops, prob, run):
    """The single loop for ``loops`` None, else the (N, Q) baseline."""
    if loops is None:
        return run_ssaid(prob, run)
    return run_multiloop(prob, MultiLoopConfig(*loops), run)


@pytest.mark.parametrize("loops", [None, (1, 1), (2, 3), (4, 1)],
                         ids=["ssaid", "multiloop:1:1", "multiloop:2:3",
                              "multiloop:4:1"])
def test_trace_carries_the_set_up_and_the_bill(loops):
    assert _oracle_bill(1, 1) == (3, 2)
    gc, mv = _oracle_bill(*loops or (1, 1))
    prob, v0 = noisy_quadratic(), np.array([0.3, -0.4, 1.2])
    want = compute_derived_constants(prob.constants,
                                     v0_norm=float(np.linalg.norm(v0)))
    tr = run_loops(loops, prob, RunConfig(seed=3, horizon=6, v0=v0))
    assert tr.derived == want and want.v0_norm > 0
    assert np.array_equal(tr.gc_count, gc * (np.arange(6) + 1))
    assert np.array_equal(tr.mv_count, mv * (np.arange(6) + 1))

    # a diverging run's trace carries them too, with explicit step sizes
    prob = QuadraticBilevelProblem(hess=np.eye(2), coupling=np.eye(2),
                                   offset=np.zeros(2),
                                   upper=PlainQuadraticUpper(target=np.zeros(2)))
    v0 = np.array([0.5, -2.0])
    run = RunConfig(seed=7, horizon=10_000, x0=[1.0, -1.0], v0=v0,
                    steps=StepSizes(alpha=1.0, eta=1.0, beta=50.0,
                                    horizon_k=10_000))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            run_loops(loops, prob, run)
    tr = info.value.trace
    assert tr.derived == compute_derived_constants(
        prob.constants, v0_norm=float(np.linalg.norm(v0)))
    assert tr.n_rows == info.value.iteration > 0
    assert np.array_equal(tr.gc_count, gc * (tr.k + 1))
    assert np.array_equal(tr.mv_count, mv * (tr.k + 1))


def test_zero_horizon_trace():
    prob = noisy_quadratic()
    tr = run_multiloop(prob, MultiLoopConfig(inner_iters=2, solver_iters=2),
                       RunConfig(seed=0, horizon=0))
    assert tr.n_rows == 1
    assert int(tr.gc_count[0]) == 0 and int(tr.mv_count[0]) == 0


# ---------------------------------------------------------------------------
# deep inner loops approximate exact hypergradient descent


def test_deep_loops_track_exact_gradient_descent():
    prob = make_quadratic_problem(dim_x=3, dim_y=3, kappa=2.0, seed=7)
    beta = 0.02
    run = RunConfig(seed=0, horizon=5, stride=1,
                    steps=StepSizes(alpha=0.5, eta=0.5, beta=beta,
                                    horizon_k=5))
    tr = run_multiloop(prob, MultiLoopConfig(inner_iters=100,
                                             solver_iters=100), run)
    # inner contraction (1 - mu/L)^100 = 2^-100 makes tracking essentially exact
    assert np.all(tr.y_err < 1e-10)
    assert np.all(tr.v_err < 1e-10)
    x = np.zeros(3)
    for _ in range(5):
        x = x - beta * reference_solution(prob, x).grad_phi
    assert np.linalg.norm(tr.final_state.x - x) < 1e-6


def test_inner_accuracy_improves_with_more_steps():
    prob = make_quadratic_problem(dim_x=3, dim_y=3, kappa=10.0, seed=4)
    run = RunConfig(seed=0, horizon=1,
                    steps=StepSizes(alpha=0.1, eta=0.1, beta=0.0,
                                    horizon_k=1))
    errs = []
    for n in (1, 5, 25):
        cfg = MultiLoopConfig(inner_iters=n, solver_iters=n)
        tr = run_multiloop(prob, cfg, run)
        errs.append((float(tr.y_err[-1]), float(tr.v_err[-1])))
    y_errs = [e[0] for e in errs]
    v_errs = [e[1] for e in errs]
    assert y_errs[0] > y_errs[1] > y_errs[2]
    assert v_errs[0] > v_errs[1] > v_errs[2]


# ---------------------------------------------------------------------------
# step sizes and configuration validation


def test_resolution_fills_from_run_schedule():
    prob = noisy_quadratic()
    run = RunConfig(seed=0, horizon=100, steps="auto")
    base = resolve_step_sizes(prob, run, _setup(prob, run)[0].v_hat)
    tr = run_multiloop(prob, MultiLoopConfig(inner_iters=2, solver_iters=2),
                       run)
    assert tr.steps == base
    assert tr.final_state.steps == base


def test_lower_rate_cap_enforced():
    prob = noisy_quadratic()  # L > 10, so 1/L is well under 0.5
    cfg = MultiLoopConfig(inner_iters=1, solver_iters=1)
    for alpha, eta in ((0.5, 0.5), (0.01, 0.5)):
        run = RunConfig(seed=0, horizon=10,
                        steps=StepSizes(alpha=alpha, eta=eta, beta=0.01,
                                        horizon_k=10))
        with pytest.raises(InvalidParameterError):
            run_multiloop(prob, cfg, run)


@pytest.mark.parametrize("kwargs", [
    dict(inner_iters=0, solver_iters=1),
    dict(inner_iters=1, solver_iters=0),
    dict(inner_iters=1.5, solver_iters=1),
    dict(inner_iters=True, solver_iters=1),
    dict(inner_iters=-2, solver_iters=1),
    dict(inner_iters=1, solver_iters=np.int64(0)),
    dict(inner_iters="2", solver_iters=1),
    dict(inner_iters=1, solver_iters=None),
])
def test_config_validation_rejects(kwargs):
    with pytest.raises(InvalidParameterError):
        MultiLoopConfig(**kwargs)


def test_divergence_carries_partial_trace():
    from ssaid.problems import PlainQuadraticUpper, QuadraticBilevelProblem
    prob = QuadraticBilevelProblem(hess=np.eye(2), coupling=np.eye(2),
                                   offset=np.zeros(2),
                                   upper=PlainQuadraticUpper(target=np.zeros(2)))
    cfg = MultiLoopConfig(inner_iters=2, solver_iters=2)
    run = RunConfig(seed=0, horizon=500, stride=1, x0=[1.0, -1.0],
                    steps=StepSizes(alpha=1.0, eta=1.0, beta=50.0,
                                    horizon_k=500))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            run_multiloop(prob, cfg, run)
    err = info.value
    assert err.iteration > 0
    assert err.trace is not None and err.trace.n_rows >= 1


# ---------------------------------------------------------------------------
# tracking quality: deeper loops shrink the hypergradient error


def test_hypergradient_error_shrinks_with_loop_depth():
    prob = make_quadratic_problem(dim_x=3, dim_y=3, kappa=10.0, seed=3)
    x0 = np.full(3, 0.7)
    ref = reference_solution(prob, x0).grad_phi
    run_base = dict(seed=0, horizon=1, stride=1)
    errs = []
    for n in (1, 10, 200):
        cfg = MultiLoopConfig(inner_iters=n, solver_iters=n)
        run = RunConfig(steps=StepSizes(alpha=0.1, eta=0.1, beta=1.0,
                                        horizon_k=1),
                        x0=x0, **run_base)
        tr = run_multiloop(prob, cfg, run)
        # beta = 1 makes the recorded x step equal the hypergradient estimate
        est = x0 - tr.final_state.x
        errs.append(float(np.linalg.norm(est - ref)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6
