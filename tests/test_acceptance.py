"""End-to-end acceptance battery.

One test per shipped guarantee, in order: hypergradient correctness against
finite differences, noiseless fixed-point exactness, the adjoint norm cap
over a long stochastic run, the full Monte-Carlo lemma suite, the decay rate
of the running-average stationarity, complexity growth with conditioning,
the single-loop vs multi-loop budget comparison, CLI byte determinism, and
the degenerate-baseline equivalence.  Stated runtime budgets are asserted
where a guarantee carries one.  Run with ``pytest -v`` for one line per
guarantee.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ssaid
from ssaid.baselines import MultiLoopConfig, run_multiloop
from ssaid.harness import SweepSpec, kappa_sweep, rate_fit
from ssaid.hypergradient import StepSizes, compute_derived_constants
from ssaid.problems import (NoiseModel, make_quadratic_problem,
                            reference_solution)
from ssaid.ssaid import RunConfig, SSAIDState, iterate, run_ssaid, ssaid_step
from ssaid.streams import StreamFactory
from ssaid.verification import MCConfig, check_v_bound, run_lemma_suite


def _report(name, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"{name}: PASS{suffix}")


def _phi(problem, x):
    return problem.upper.value(x, reference_solution(problem, x).y_star)


def test_exact_hypergradient_matches_finite_differences():
    start = time.monotonic()
    h = 1e-6
    cases = [(seed, kappa) for seed in range(10)
             for kappa in ((2.0, 10.0, 50.0)[seed % 3],)]
    for seed, kappa in cases:
        problem = make_quadratic_problem(5, 5, kappa, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal(5)
        grad = reference_solution(problem, x).grad_phi
        fd = np.empty_like(grad)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (_phi(problem, x + e) - _phi(problem, x - e)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
        assert rel <= 1e-5, f"seed={seed} kappa={kappa} rel={rel:.2e}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("hypergradient matches finite differences", elapsed)


def test_noiseless_fixed_point_is_exact():
    problem = make_quadratic_problem(6, 5, 10.0, seed=4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(6)
    ref = reference_solution(problem, x)
    # no lower or solver step: the kernel's estimate at the reference pair
    est = iterate(problem, StreamFactory(0), 0, x, ref.y_star, ref.v_star,
                  0.0, 0.0, (), (), 0, None)[3]
    assert np.linalg.norm(est - ref.grad_phi) <= 1e-12

    # frozen x: the solved lower pair must be a fixed point of the updates
    lip = problem.constants.lipschitz_L
    steps = StepSizes(alpha=1.0 / lip, eta=1.0 / lip, beta=0.0, horizon_k=100)
    state = SSAIDState(x=x, y_hat=ref.y_star.copy(), v_hat=ref.v_star.copy(),
                       k=0, steps=steps)
    factory = StreamFactory(0)
    for _ in range(100):
        state = ssaid_step(state, problem, factory)
    assert state.x is x or np.array_equal(state.x, x)
    assert np.linalg.norm(state.y_hat - ref.y_star) <= 1e-12
    assert np.linalg.norm(state.v_hat - ref.v_star) <= 1e-12
    _report("noiseless fixed point is exact")


def test_adjoint_norm_bounded_over_long_run():
    start = time.monotonic()
    problem = make_quadratic_problem(5, 5, 50.0, seed=1,
                                     noise=NoiseModel(sigma=1.0))
    config = RunConfig(seed=2, horizon=100_000, steps="auto", stride=1)
    trace = run_ssaid(problem, config)
    assert trace.n_rows == 100_000
    # default adjoint start is the zero vector
    derived = compute_derived_constants(problem.constants, v0_norm=0.0)
    report = check_v_bound(trace.k, trace.v_norm, problem.constants, derived)
    n_violations = sum(r.violated for r in report.rows)
    assert n_violations == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("adjoint norm bounded over 1e5 iterations", elapsed)


def test_full_lemma_suite_passes_on_quadratic_grid():
    start = time.monotonic()
    mc = MCConfig(replications=2000, checkpoints=(1, 5, 20, 100),
                  base_seed=11)
    noise = NoiseModel(sigma=1.0, radius=0.5, hess_scale=0.0)
    for dim in (3, 4, 5):
        for kappa in (5.0, 10.0):
            problem = make_quadratic_problem(dim, dim, kappa, seed=dim,
                                             noise=noise)
            config = RunConfig(seed=17, horizon=100, steps="auto")
            reports = run_lemma_suite(problem, config, mc)
            assert len(reports) == 11
            for rep in reports:
                assert rep.passed, (
                    f"dim={dim} kappa={kappa} {rep.lemma_id}: "
                    f"violation_fraction={rep.violation_fraction:.4f}")
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report("lemma suite passes on dim 3-5, kappa 5 and 10", elapsed)


def test_running_average_decay_slope_in_band():
    start = time.monotonic()
    problem = make_quadratic_problem(10, 10, 10.0, seed=0,
                                     noise=NoiseModel(sigma=1.0))
    horizon = 100_000
    slopes = []
    for seed in range(10):
        config = RunConfig(seed=seed, horizon=horizon, steps="auto",
                           stride=max(1, horizon // 2048))
        trace = run_ssaid(problem, config)
        slopes.append(rate_fit(trace, (100, horizon)).slope)
    mean_slope = float(np.mean(slopes))
    assert -0.70 <= mean_slope <= -0.30, f"slopes={slopes}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(f"running-average slope {mean_slope:.3f} in [-0.70, -0.30]",
            elapsed)


def test_median_complexity_monotone_in_condition_number():
    start = time.monotonic()
    spec = SweepSpec(kappa_grid=(2.0, 10.0, 50.0, 250.0),
                     seeds=(0, 1, 2, 3, 4), epsilon=0.1,
                     max_iters=4_000_000, dim_x=10, dim_y=10, sigma=1.0)
    result = kappa_sweep(spec)
    medians = [m["median"] for m in result.medians]
    assert all(m is not None for m in medians), result.medians
    assert all(a <= b for a, b in zip(medians, medians[1:])), medians
    exponent = result.exponents["ssaid"]
    assert exponent is not None and exponent > 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    _report(f"median complexity nondecreasing, exponent {exponent:.2f}",
            elapsed)


def test_single_loop_cheaper_than_multiloop_at_matched_target():
    start = time.monotonic()
    spec = SweepSpec(kappa_grid=(10.0,), seeds=(0, 1, 2, 3, 4), epsilon=0.1,
                     max_iters=4_000_000, algorithms=("ssaid", "multiloop"),
                     dim_x=10, dim_y=10, sigma=1.0)
    result = kappa_sweep(spec)
    med = {m["algorithm"]: m["median"] for m in result.medians}
    assert med["ssaid"] is not None and med["multiloop"] is not None
    assert med["ssaid"] <= med["multiloop"], med
    elapsed = time.monotonic() - start
    _report(f"single loop {med['ssaid']:.0f} <= multiloop "
            f"{med['multiloop']:.0f} oracle calls", elapsed)


def _cli(args, cwd):
    # an absolute path to the imported package, so the child finds it from
    # any working directory (a relative PYTHONPATH=src would not resolve)
    env = dict(os.environ,
               PYTHONPATH=str(Path(ssaid.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ssaid", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_cli_outputs_byte_identical_across_repeats_and_threads(tmp_path):
    sweep_args = ["sweep", "--kappa-grid", "2,5", "--seeds", "0,1",
                  "--epsilon", "0.2", "--max-iters", "30000", "--dim", "6"]
    outs = []
    for name, threads in (("t1", "1"), ("t1b", "1"), ("t8", "8")):
        out = tmp_path / name
        _cli(sweep_args + ["--threads", threads, "--out-dir", str(out)],
             cwd=tmp_path)
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1] == outs[2]

    # gen -> run -> verify, repeated, must agree file for file
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        _cli(["gen", "--dim", "4", "--kappa", "5", "--sigma", "1.0",
              "--seed", "3", "--out-dir", str(out)], cwd=tmp_path)
        ppath = next(out.glob("problem_*.json"))
        _cli(["run", "--problem", str(ppath), "--K", "500", "--seed", "1",
              "--out-dir", str(out)], cwd=tmp_path)
        _cli(["verify", "--problem", str(ppath), "--all",
              "--replications", "100", "--checkpoints", "1,5", "--K", "10",
              "--out-dir", str(out)], cwd=tmp_path)
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1]
    assert any(n.startswith("trace_") for n in trees[0])
    assert any(n.startswith("lemma_all_") for n in trees[0])
    _report("CLI outputs byte-identical across repeats and thread counts")


def test_degenerate_multiloop_reproduces_single_loop_exactly():
    problem = make_quadratic_problem(6, 6, 10.0, seed=5,
                                     noise=NoiseModel(sigma=1.0, radius=0.5))
    config = RunConfig(seed=3, horizon=500, steps="auto", stride=1)
    single = run_ssaid(problem, config)
    multi = run_multiloop(problem, MultiLoopConfig(inner_iters=1,
                                                   solver_iters=1), config)
    assert single.csv_text() == multi.csv_text()
    assert np.array_equal(single.final_state.x, multi.final_state.x)
    assert np.array_equal(single.final_state.y_hat, multi.final_state.y_hat)
    assert np.array_equal(single.final_state.v_hat, multi.final_state.v_hat)
    _report("one-step multiloop with warm start reproduces the single loop")
