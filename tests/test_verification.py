"""Bound-check tests: deterministic degenerations where the inequalities
must hold exactly with zero error bars, seeded noise bands, validation
rejections, and small full-suite passes."""

import json
import math

import numpy as np
import pytest

from ssaid.errors import DivergenceError, InvalidParameterError
from ssaid.hypergradient import StepSizes, compute_derived_constants
from ssaid.problems import (NoiseModel, PlainQuadraticUpper,
                            QuadraticBilevelProblem, _json_text,
                            make_logistic_problem, make_quadratic_problem,
                            reference_solution)
from ssaid.ssaid import RunConfig, _setup, run_ssaid
from ssaid.verification import (LEMMA_IDS, MCConfig, _simulate_history,
                                check_bias_recursions,
                                check_coupled_recursion,
                                check_cumulative_bounds, check_geometric_sum,
                                check_lower_tracking, check_v_bound,
                                jackknife_se, loo_mean, run_lemma_suite,
                                summary_csv)


def noiseless_problem(dim_x=3, dim_y=3, kappa=5.0, seed=7):
    return make_quadratic_problem(dim_x, dim_y, kappa, seed=seed)


def roundoff_se(row):
    # replicated arrays are bitwise equal, but summing R copies and
    # subtracting one back can still differ in the last ulp
    return row.lhs_se <= 1e-12 * max(1.0, abs(row.lhs), abs(row.rhs))


def noisy_problem(dim_x=3, dim_y=3, kappa=5.0, seed=7,
                  sigma=1.0, radius=0.5):
    return make_quadratic_problem(
        dim_x, dim_y, kappa, seed=seed,
        noise=NoiseModel(sigma=sigma, radius=radius, hess_scale=0.0))


# ---------------------------------------------------------------------------
# discounted double sum


def test_geom_sum_hand_case():
    lhs, rhs = check_geometric_sum((1.0, 0.0, 0.0), 0.5, 2)
    assert lhs == 1.75
    assert rhs == 2.0


def test_geom_sum_equality_at_full_discount():
    sig = np.random.default_rng(3).uniform(0.0, 2.0, 8)
    lhs, rhs = check_geometric_sum(sig, 1.0, 7)
    assert np.isclose(lhs, sig.sum(), rtol=1e-12)
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_geom_sum_against_swapped_summation_order():
    # independent evaluation: pull each sigma_l out and sum its discount tail
    rng = np.random.default_rng(11)
    sig = rng.uniform(0.0, 3.0, 51)
    rho = 0.1
    expected = sum(sig[el] * sum((1.0 - rho) ** j for j in range(51 - el))
                   for el in range(51))
    lhs, rhs = check_geometric_sum(sig, rho, 50)
    assert np.isclose(lhs, expected, rtol=1e-12)
    assert lhs <= rhs


@pytest.mark.parametrize("sig,rho,horizon", [
    ((1.0, 1.0), 0.0, 1),
    ((1.0, 1.0), 1.5, 1),
    ((1.0, 1.0), -0.2, 1),
    ((1.0, 1.0), 0.5, 0),
    ((1.0, -1.0), 0.5, 1),
    ((1.0,), 0.5, 3),
    ((1.0, float("inf")), 0.5, 1),
])
def test_geom_sum_rejects(sig, rho, horizon):
    with pytest.raises(InvalidParameterError):
        check_geometric_sum(sig, rho, horizon)


# ---------------------------------------------------------------------------
# config and jackknife plumbing


@pytest.mark.parametrize("kwargs", [
    {"replications": 1, "checkpoints": (1,)},
    {"replications": True, "checkpoints": (1,)},
    {"replications": 2.0, "checkpoints": (1,)},
    {"replications": 10, "checkpoints": ()},
    {"replications": 10, "checkpoints": (2, 1)},
    {"replications": 10, "checkpoints": (1, 1)},
    {"replications": 10, "checkpoints": (-1, 2)},
])
def test_mc_config_rejects(kwargs):
    with pytest.raises(InvalidParameterError):
        MCConfig(**kwargs)


def test_loo_mean_values():
    out = loo_mean(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [2.5, 2.0, 1.5])


def test_jackknife_matches_classic_se_of_mean():
    # for the plain mean the jackknife collapses to s / sqrt(n)
    rng = np.random.default_rng(0)
    arr = rng.normal(size=40)
    se = jackknife_se(loo_mean(arr))
    assert np.isclose(se, arr.std(ddof=1) / math.sqrt(arr.size), rtol=1e-12)


def test_loo_mean_needs_two_samples():
    with pytest.raises(InvalidParameterError):
        loo_mean(np.array([1.0]))


# ---------------------------------------------------------------------------
# shared history


def test_history_matches_runner_bitwise():
    problem = make_quadratic_problem(
        4, 3, 10.0, seed=5,
        noise=NoiseModel(sigma=0.7, radius=0.3, hess_scale=0.2))
    config = RunConfig(seed=123, horizon=25)
    hist = _simulate_history(problem, config, 25)
    trace = run_ssaid(problem, config)
    assert len(hist.xs) == 26
    assert np.array_equal(hist.xs[-1], trace.final_state.x)
    assert np.array_equal(hist.ys[-1], trace.final_state.y_hat)
    assert np.array_equal(hist.vs[-1], trace.final_state.v_hat)


def test_history_divergence_carries_last_finite_state():
    prob = QuadraticBilevelProblem(hess=np.eye(2), coupling=np.eye(2),
                                   offset=np.zeros(2),
                                   upper=PlainQuadraticUpper(target=np.zeros(2)))
    steps = StepSizes(alpha=1.0, eta=1.0, beta=50.0, horizon_k=10_000)
    cfg = RunConfig(seed=7, horizon=10_000, steps=steps, x0=[1.0, -1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            _simulate_history(prob, cfg, 10_000)
        with pytest.raises(DivergenceError) as run_info:
            run_ssaid(prob, cfg)
    err = info.value
    assert err.iteration > 0
    assert err.state.k == err.iteration == run_info.value.iteration
    for attr in ("x", "y_hat", "v_hat"):
        got = getattr(err.state, attr)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, getattr(run_info.value.state, attr))


# ---------------------------------------------------------------------------
# exactness degenerations (zero noise: error bars vanish, bounds must hold
# outright)


def test_lower_tracking_frozen_x_contraction():
    problem = noiseless_problem()
    lip = problem.constants.lipschitz_L
    steps = StepSizes(alpha=1.0 / lip, eta=1.0 / lip, beta=0.0, horizon_k=8)
    config = RunConfig(seed=0, horizon=8, steps=steps)
    report = check_lower_tracking(problem, config,
                                  MCConfig(replications=4,
                                           checkpoints=(1, 3, 7)))
    assert report.passed
    for row in report.rows:
        assert roundoff_se(row)
        assert row.margin > 0.0


def test_lower_tracking_noise_band_at_stationary_start():
    problem = noisy_problem(sigma=1.0, radius=0.0)
    ref = reference_solution(problem, np.zeros(problem.dim_x))
    lip = problem.constants.lipschitz_L
    alpha = 1.0 / lip
    steps = StepSizes(alpha=alpha, eta=alpha, beta=0.0, horizon_k=1)
    config = RunConfig(seed=2, horizon=1, steps=steps, y0=ref.y_star)
    report = check_lower_tracking(problem, config,
                                  MCConfig(replications=400,
                                           checkpoints=(0,)))
    row = report.rows[0]
    # starting on the lower solution, one step moves by alpha times the
    # gradient noise, whose root mean square is alpha * sigma
    assert np.isclose(row.lhs, alpha * problem.constants.sigma, rtol=0.2)
    assert not row.violated


# ---------------------------------------------------------------------------
# false-alarm rates against exact moments


def exact_lower_moment(problem, config, k):
    """E||y' - y*(x_k)||^2 of the lower step that the checks branch on at
    iteration k, for a quadratic problem whose one noise is the lower
    gradient's: y' - y*(x_k) = (I - alpha H)(y_k - y*(x_k)) - alpha xi,
    with xi Gaussian, zero-mean and E||xi||^2 = sigma^2."""
    hist = _simulate_history(problem, config, k)
    alpha = _setup(problem, config)[0].steps.alpha
    err = hist.ys[k] - reference_solution(problem, hist.xs[k]).y_star
    mean = err - alpha * (problem.hess @ err)
    return float(mean @ mean) + (alpha * problem.noise.sigma) ** 2


def test_lower_tracking_false_alarm_rate_against_exact_moment():
    # LowerTracking's lhs is the branch's root-mean-square lower error, so
    # z = (lhs - exact) / lhs_se over 400 branch seeds counts how often a
    # 3-SE rule fires at the true value.  At the nominal two-sided rate
    # of 0.27 % more than 5 of 400 has probability about 0.005.  At R = 8
    # the count is 8 of 400 (2 %): small R is miscalibrated.
    problem = make_quadratic_problem(5, 5, 10.0, seed=3,
                                     noise=NoiseModel(sigma=1.0))
    config = RunConfig(seed=17, horizon=5)
    exact = math.sqrt(exact_lower_moment(problem, config, 5))
    for replications in (64, 2000):
        rows = [check_lower_tracking(
                    problem, config, MCConfig(replications, (5,), seed)).rows[0]
                for seed in range(400)]
        z = np.array([(row.lhs - exact) / row.lhs_se for row in rows])
        assert np.sum(np.abs(z) > 3.0) <= 5, replications


def test_bias_recursion_exact_contraction_margin():
    # identity lower Hessian, frozen x, lower iterate already solved: the
    # recursion contracts exactly and the margin is the constant drift term
    problem = make_quadratic_problem(2, 3, 1.0, seed=3)
    c = problem.constants
    ref = reference_solution(problem, np.zeros(2))
    alpha = 0.5 / c.lipschitz_L
    steps = StepSizes(alpha=alpha, eta=alpha, beta=0.0, horizon_k=8)
    config = RunConfig(seed=0, horizon=8, steps=steps, y0=ref.y_star)
    mc = MCConfig(replications=3, checkpoints=(1, 3, 7))
    reports = check_bias_recursions(problem, config, mc)
    by_id = {r.lemma_id: r for r in reports}
    derived = compute_derived_constants(c, v0_norm=0.0)
    expected = derived.c0 * alpha * c.lipschitz_M
    for row in by_id["EstimatorBiasRecursion"].rows:
        assert roundoff_se(row)
        assert np.isclose(row.margin, expected, rtol=1e-9)
    for rep in reports:
        assert rep.passed
        assert all(roundoff_se(r) for r in rep.rows)


def test_bias_decoupling_tight_at_solved_lower():
    problem = noiseless_problem()
    ref = reference_solution(problem, np.zeros(problem.dim_x))
    lip = problem.constants.lipschitz_L
    steps = StepSizes(alpha=1.0 / lip, eta=1.0 / lip, beta=0.0, horizon_k=4)
    config = RunConfig(seed=0, horizon=4, steps=steps, y0=ref.y_star)
    reports = check_bias_recursions(problem, config,
                                    MCConfig(replications=3,
                                             checkpoints=(1, 3)))
    rep = next(r for r in reports if r.lemma_id == "BiasDecoupling")
    for row in rep.rows:
        # both sides collapse to the same norm up to roundoff
        assert abs(row.margin) <= 1e-10 * max(1.0, row.lhs)
        assert not row.violated
        assert roundoff_se(row)


# ---------------------------------------------------------------------------
# adjoint norm scan


def test_v_bound_on_noisy_trace():
    problem = noisy_problem()
    config = RunConfig(seed=9, horizon=2000)
    trace = run_ssaid(problem, config)
    derived = compute_derived_constants(problem.constants, v0_norm=0.0)
    report = check_v_bound(trace.k, trace.v_norm, problem.constants, derived)
    assert report.passed
    assert report.violation_fraction == 0.0
    assert len(report.rows) == trace.n_rows


def test_v_bound_flags_crafted_excursion():
    problem = noiseless_problem()
    derived = compute_derived_constants(problem.constants, v0_norm=0.0)
    cap = derived.v0_norm + problem.constants.lipschitz_M / problem.constants.mu
    report = check_v_bound([0], [cap + 1.0], problem.constants, derived)
    assert report.rows[0].violated
    assert not report.passed


def small_problem(family):
    return (noisy_problem() if family == "quadratic"
            else make_logistic_problem(3, 4, 12, seed=2, batch_size=3))


@pytest.mark.parametrize("horizon", [0, 1, 30])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_v_bound_rows_are_the_run_trace_rows(family, horizon):
    # the suite's replay gives the run's k and v_norm columns bit for bit,
    # whatever the stride; horizon 0 scans the start, as the run records it
    problem = small_problem(family)
    config = RunConfig(seed=5, horizon=horizon, stride=7)
    trace = run_ssaid(problem, RunConfig(seed=5, horizon=horizon, stride=1))
    want = check_v_bound(trace.k, trace.v_norm, problem.constants,
                         trace.derived)
    [got] = run_lemma_suite(problem, config,
                            MCConfig(replications=2, checkpoints=(0,)),
                            lemma="VBound")
    assert len(got.rows) == max(horizon, 1)
    assert [r.lhs.hex() for r in got.rows] == [r.lhs.hex() for r in want.rows]
    assert got == want


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_v_bound_solves_no_reference(family, monkeypatch):
    from ssaid import problems, verification
    from ssaid import ssaid as core
    problem = small_problem(family)
    solve = problems.reference_solution
    calls = []

    def counting(problem, x):
        calls.append(x)
        return solve(problem, x)

    for module in (problems, core, verification):
        monkeypatch.setattr(module, "reference_solution", counting)
    [report] = run_lemma_suite(problem, RunConfig(seed=3, horizon=20),
                               MCConfig(replications=2, checkpoints=(20,)),
                               lemma="VBound")
    assert len(report.rows) == 20
    assert calls == []


# ---------------------------------------------------------------------------
# coupled recursion and hypergradient bounds


def test_coupled_base_case_is_identity():
    problem = noisy_problem()
    config = RunConfig(seed=4, horizon=3)
    reports = check_coupled_recursion(problem, config,
                                      MCConfig(replications=50,
                                               checkpoints=(0, 2)))
    coupled = next(r for r in reports if r.lemma_id == "CoupledRecursion")
    base = coupled.rows[0]
    assert base.k == 0
    assert base.lhs == base.rhs
    assert base.margin == 0.0
    assert base.lhs_se == 0.0
    assert not base.violated
    assert len(coupled.rows) == 2


def test_coupled_requires_small_beta():
    problem = noisy_problem()
    lip = problem.constants.lipschitz_L
    steps = StepSizes(alpha=1.0 / lip, eta=1.0 / lip, beta=10.0, horizon_k=4)
    config = RunConfig(seed=0, horizon=4, steps=steps)
    with pytest.raises(InvalidParameterError):
        check_coupled_recursion(problem, config,
                                MCConfig(replications=3, checkpoints=(1,)))


def test_checks_require_small_lower_rates():
    problem = noisy_problem()
    lip = problem.constants.lipschitz_L
    steps = StepSizes(alpha=2.0 / lip, eta=2.0 / lip, beta=0.0, horizon_k=4)
    config = RunConfig(seed=0, horizon=4, steps=steps)
    with pytest.raises(InvalidParameterError):
        check_lower_tracking(problem, config,
                             MCConfig(replications=3, checkpoints=(1,)))


def test_checkpoints_beyond_horizon_rejected():
    problem = noisy_problem()
    config = RunConfig(seed=0, horizon=5)
    with pytest.raises(InvalidParameterError):
        check_lower_tracking(problem, config,
                             MCConfig(replications=3, checkpoints=(1, 10)))


def test_cumulative_rows_come_in_pairs():
    problem = noisy_problem()
    config = RunConfig(seed=4, horizon=6)
    report = check_cumulative_bounds(problem, config,
                                     MCConfig(replications=40,
                                              checkpoints=(0, 2, 5)))
    # checkpoint 0 has empty sums and is skipped; the rest alternate
    # squared-bias row then mean-square row
    assert [r.k for r in report.rows] == [2, 2, 5, 5]
    assert any("checkpoint 0" in n for n in report.notes)
    assert report.passed


# ---------------------------------------------------------------------------
# full suite


def test_zero_noise_suite_all_exact():
    problem = noiseless_problem()
    config = RunConfig(seed=1, horizon=20)
    reports = run_lemma_suite(problem, config,
                              MCConfig(replications=4,
                                       checkpoints=(1, 5, 19)))
    assert [r.lemma_id for r in reports] == list(LEMMA_IDS)
    for rep in reports:
        assert rep.passed, rep.lemma_id
        assert all(roundoff_se(r) for r in rep.rows), rep.lemma_id


def test_noisy_suite_passes_small():
    problem = noisy_problem()
    config = RunConfig(seed=6, horizon=20)
    mc = MCConfig(replications=300, checkpoints=(1, 5, 19), base_seed=77)
    reports = run_lemma_suite(problem, config, mc)
    for rep in reports:
        assert rep.passed, (rep.lemma_id, rep.violation_fraction)


def test_suite_summary_is_deterministic():
    problem = noisy_problem(dim_x=2, dim_y=2)
    config = RunConfig(seed=6, horizon=8)
    mc = MCConfig(replications=60, checkpoints=(1, 7), base_seed=5)
    first = summary_csv(run_lemma_suite(problem, config, mc))
    second = summary_csv(run_lemma_suite(problem, config, mc))
    assert first == second


def test_summary_csv_layout():
    problem = noisy_problem(dim_x=2, dim_y=2)
    config = RunConfig(seed=6, horizon=8)
    mc = MCConfig(replications=30, checkpoints=(1, 7), base_seed=5)
    reports = run_lemma_suite(problem, config, mc)
    text = summary_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "lemma_id,checkpoint_k,lhs,lhs_se,rhs,margin,violated"
    assert len(lines) == 1 + sum(len(r.rows) for r in reports)
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        assert parts[0] in LEMMA_IDS
        assert parts[6] in ("0", "1")


def test_report_json_round_trip_fields():
    problem = noisy_problem(dim_x=2, dim_y=2)
    config = RunConfig(seed=6, horizon=4)
    mc = MCConfig(replications=20, checkpoints=(1, 3))
    report = check_lower_tracking(problem, config, mc)
    blob = json.loads(_json_text(report))
    assert blob["lemma_id"] == "LowerTracking"
    assert blob["replications"] == 20
    assert isinstance(blob["passed"], bool)
    assert len(blob["rows"]) == 2
    assert set(blob["rows"][0]) == {"k", "lhs", "lhs_se", "rhs", "margin",
                                    "violated"}


def test_logistic_bias_recursions_smoke():
    problem = make_logistic_problem(3, 4, 12, seed=2, batch_size=3)
    config = RunConfig(seed=8, horizon=4)
    reports = check_bias_recursions(problem, config,
                                    MCConfig(replications=60,
                                             checkpoints=(1, 3)))
    assert len(reports) == 4
    for rep in reports:
        assert rep.passed, (rep.lemma_id, rep.violation_fraction)


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_only_the_adjoint_checks_solve_per_draw_targets(family, monkeypatch):
    # a per-draw solve has a 1-D x and a stacked y; reference solves and
    # Newton steps stack x, and history solves are 1-D throughout
    problem = (noisy_problem() if family == "quadratic"
               else make_logistic_problem(3, 4, 12, seed=2, batch_size=3))
    solve = problem.solve_lower_hess
    counts = []

    def counting(x, y, rhs):
        counts[-1] += np.ndim(x) == 1 and np.ndim(y) == 2
        return solve(x, y, rhs)

    monkeypatch.setattr(problem, "solve_lower_hess", counting)
    config = RunConfig(seed=3, horizon=100)
    mc = MCConfig(replications=8, checkpoints=(1, 5, 20, 100))
    for check in (check_lower_tracking, check_bias_recursions,
                  check_coupled_recursion, check_cumulative_bounds):
        counts.append(0)
        check(problem, config, mc)
    # one solve per branch in the two checks that read the targets
    assert counts == [0, 4, 4, 0]


def test_each_check_sets_up_its_run_once(monkeypatch):
    # every check takes its steps and constants from the one replay it
    # starts from, so it sets the run up once
    from ssaid import verification
    setup = verification._setup
    counts = []

    def counting(problem, config):
        counts[-1] += 1
        return setup(problem, config)

    monkeypatch.setattr(verification, "_setup", counting)
    problem = noisy_problem()
    config = RunConfig(seed=3, horizon=20)
    mc = MCConfig(replications=8, checkpoints=(1, 5, 20))
    for check in (check_lower_tracking, check_bias_recursions,
                  check_coupled_recursion, check_cumulative_bounds,
                  lambda p, c, m: run_lemma_suite(p, c, m, lemma="VBound")):
        counts.append(0)
        check(problem, config, mc)
    assert counts == [1, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# verifier power: the lemmas that fail on a deliberately broken kernel


def mutant_kernel(cross=-1.0, rhs_scale=1.0, lower_scale=1.0, lower_shift=0,
                  stale_y=False):
    """``iterate`` with one fault: the cross term added with sign ``cross``
    (-1 is the method), the adjoint right-hand side scaled by
    ``rhs_scale``, the lower step scaled by ``lower_scale``, the lower
    draws moved by ``lower_shift`` slots, or (``stale_y``) the upper
    gradient sampled at the lower iterate the step started from."""
    from ssaid.streams import (TAG_CROSS_OP, TAG_HESS_OP, TAG_LOWER_GRAD,
                               TAG_UPPER_GRAD)

    def at(factory, k, tag, slot, tags):
        return factory.at(k, tag, slot) if tag in tags else None

    def kernel(problem, factory, k, x, y, v, alpha, eta, inner, solver, slot,
               reps):
        tags, y_start = problem.stochastic_tags, y
        for j in inner:
            gen = at(factory, k, TAG_LOWER_GRAD, slot + j + lower_shift, tags)
            y = y - lower_scale * alpha * problem.sample_lower_grad(
                x, y, gen, reps=reps)
        gx, gy = problem.sample_upper_grads(
            x, y_start if stale_y else y,
            at(factory, k, TAG_UPPER_GRAD, slot, tags), reps=reps)
        rhs = rhs_scale * eta * gy
        for j in solver:
            gen = at(factory, k, TAG_HESS_OP, slot + j, tags)
            v = v - eta * problem.sample_hess_operator(x, gen, reps=reps)(
                y, v) + rhs
        jvp = problem.sample_cross_operator(
            x, at(factory, k, TAG_CROSS_OP, slot, tags), reps=reps)
        return y, v, gy, gx + cross * jvp(y, v)

    return kernel


_MUTANTS = {
    "cross sign flipped": {"cross": 1.0},
    "adjoint rhs halved": {"rhs_scale": 0.5},
    "lower step tripled": {"lower_scale": 3.0},
    "lower draws one slot on": {"lower_shift": 1},
    "upper gradient at the stale y": {"stale_y": True},
}


def test_mutant_table(monkeypatch):
    # the exact set of failing lemmas per (problem, kernel): a change in the
    # verifier's power in either direction shows as a diff of this table.
    # Most mutants pass every check (see ROADMAP item 1); on the logistic
    # problem beta is about 3.5e-9 and x barely moves, so none fails.
    from ssaid import ssaid as core
    from ssaid import verification
    problems = {
        "quadratic": make_quadratic_problem(
            5, 5, 10.0, seed=3, noise=NoiseModel(1.0, 0.5, 0.5)),
        "logistic": make_logistic_problem(
            5, 5, 20, seed=3, noise=NoiseModel(radius=0.5)),
    }
    kernels = {"real kernel": core.iterate}
    kernels.update((name, mutant_kernel(**fault))
                   for name, fault in _MUTANTS.items())
    config = RunConfig(seed=17, horizon=100)
    mc = MCConfig(400, (1, 5, 20, 100))
    failing = {}
    for family, problem in problems.items():
        for name, kernel in kernels.items():
            for module in (core, verification):
                monkeypatch.setattr(module, "iterate", kernel)
            failing[family, name] = {r.lemma_id for r in
                                     run_lemma_suite(problem, config, mc)
                                     if not r.passed}
    want = {key: set() for key in failing}
    want["quadratic", "lower step tripled"] = {"LowerTracking",
                                               "CoupledRecursion"}
    assert failing == want
