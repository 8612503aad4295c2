"""Tests of the benchmark itself: the reference model against the program,
and every artifact check against a deliberately corrupted artifact.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import io
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402
import reference as ref  # noqa: E402
import run as bench_run  # noqa: E402
from ssaid import harness, verification  # noqa: E402
from ssaid.problems import (NoiseModel, make_logistic_problem,  # noqa: E402
                            make_quadratic_problem, problem_from_json,
                            problem_to_json)
from ssaid.ssaid import RunConfig, resolve_step_sizes, run_ssaid  # noqa: E402


def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = harness.main(list(argv))
    paths = [ln for ln in buf.getvalue().splitlines() if ln.strip()]
    return code, paths


def pick(paths, prefix, suffix):
    return next(p for p in paths if Path(p).name.startswith(prefix)
                and p.endswith(suffix))


def fails(fn, *args, **kwargs):
    with pytest.raises(ck.CheckFailed):
        fn(*args, **kwargs)


@pytest.fixture(scope="module")
def quadratic():
    return make_quadratic_problem(10, 10, 10.0, seed=3,
                                  noise=NoiseModel(sigma=1.0, radius=0.5))


@pytest.fixture(scope="module")
def model(quadratic):
    return ref.QuadraticModel(json.loads(problem_to_json(quadratic)))


# ---------------------------------------------------------------------------
# the reference model agrees with the program


def test_model_matches_run_ssaid(quadratic, model):
    trace = run_ssaid(quadratic, RunConfig(seed=5, horizon=300, stride=1))
    rows = ck.read_trace(trace.csv_text())
    s = trace.steps
    ck.check_trace_matches_model(
        rows, ref.trace_rows(model, 5, 300, s.alpha, s.eta, s.beta))


def test_model_cell_matches_sweep_cell():
    problem = make_quadratic_problem(10, 10, 2.0, seed=0,
                                     noise=NoiseModel(sigma=1.0))
    cap = 20_000
    got, censored = harness._run_to_epsilon(problem, "ssaid", None, 4, 0.1,
                                            cap)
    assert not censored
    m = ref.QuadraticModel(json.loads(problem_to_json(problem)))
    steps = resolve_step_sizes(problem, RunConfig(seed=4, horizon=cap),
                                       np.zeros(10))
    want = ref.cell_complexity(m, 4, 0.1, cap, steps.alpha, steps.eta,
                               steps.beta)
    ck.check_cell_matches_model(got, want, cap // 2048)


def test_model_matches_lemma_rows(quadratic, model):
    config = RunConfig(seed=2, horizon=20)
    mc = verification.MCConfig(replications=300, checkpoints=(0, 1, 5, 20),
                               base_seed=7)
    report = verification.check_lower_tracking(quadratic, config, mc)
    steps = resolve_step_sizes(quadratic, config, np.zeros(10))
    want = ref.lower_tracking_rows(model, 2, 7, 300, (0, 1, 5, 20),
                                   steps.alpha, steps.eta, steps.beta)
    doc = {"reports": [{"lemma_id": "LowerTracking",
                        "rows": [r.to_json() for r in report.rows]}]}
    ck.check_lower_tracking(doc, want)

    geom = verification._geom_sum_report(mc)
    doc = {"reports": [{"lemma_id": "GeomSum",
                        "rows": [r.to_json() for r in geom.rows]}]}
    ck.check_geom_sum(doc, ref.geom_sum_rows(7))


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_v_bound_cap_matches_constants(family, quadratic):
    problem = (quadratic if family == "quadratic"
               else make_logistic_problem(10, 10, 40, seed=1))
    c = problem.constants
    cap = ref.v_bound_cap(json.loads(problem_to_json(problem)))
    assert cap == pytest.approx(c.lipschitz_M / c.mu, rel=1e-12)


# ---------------------------------------------------------------------------
# artifacts for the corruption tests


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


@pytest.fixture(scope="module")
def sweep(out):
    code, paths = cli("sweep", "--kappa-grid", "2,10", "--seeds", "0,1",
                      "--epsilon", "0.1", "--max-iters", "20000",
                      "--dim", "10", "--sigma", "1", "--threads", "2",
                      "--out-dir", str(out / "sweep"))
    assert code == 0
    rows = ck.read_sweep(Path(pick(paths, "sweep", ".csv")).read_text())
    return rows, ck.load_json(pick(paths, "sweep_summary", ".json"))


@pytest.fixture(scope="module")
def compare(out):
    code, paths = cli("compare", "--kappa-grid", "2,10", "--seeds", "0",
                      "--epsilon", "0.1", "--max-iters", "20000",
                      "--algorithms", "ssaid,multiloop", "--dim", "10",
                      "--sigma", "1", "--out-dir", str(out / "compare"))
    assert code == 0
    rows = ck.read_sweep(Path(pick(paths, "compare", ".csv")).read_text())
    return rows, ck.load_json(pick(paths, "compare_summary", ".json"))


@pytest.fixture(scope="module")
def problem_file(out):
    code, paths = cli("gen", "--family", "quadratic", "--dim", "10",
                      "--kappa", "10", "--sigma", "1", "--radius", "0.5",
                      "--seed", "4", "--out-dir", str(out / "problems"))
    assert code == 0
    return paths[0]


@pytest.fixture(scope="module")
def trace(out, problem_file):
    code, paths = cli("run", "--problem", problem_file, "--K", "3000",
                      "--stride", "1", "--seed", "6",
                      "--out-dir", str(out / "runs"))
    assert code == 0
    rows = ck.read_trace(Path(pick(paths, "trace_", ".csv")).read_text())
    return rows, ck.load_json(pick(paths, "run_", ".json"))


@pytest.fixture(scope="module")
def lemmas(out, problem_file):
    code, paths = cli("verify", "--problem", problem_file, "--all",
                      "--replications", "2000", "--checkpoints", "1,5,20,100",
                      "--seed", "6", "--mc-seed", "6",
                      "--out-dir", str(out / "lemmas"))
    assert code == 0
    return ck.load_json(pick(paths, "lemma_all_", ".json"))


# ---------------------------------------------------------------------------
# each check passes on the real artifact and fails on a corrupted one


def test_cells_check(sweep):
    rows, _ = sweep
    args = ((2.0, 10.0), (0, 1), ("ssaid",), 20_000)
    ck.check_cells(rows, *args)
    for corrupt in (
            lambda r: r[0].update(complexity=r[0]["complexity"] + 1),
            lambda r: r[0].update(complexity=None, censored=1),
            lambda r: r[0].update(complexity=3 * 20_001),
            lambda r: r.pop()):
        bad = copy.deepcopy(rows)
        corrupt(bad)
        fails(ck.check_cells, bad, *args)


def test_summary_check(sweep):
    rows, summary = sweep
    ck.check_summary(summary, rows, ordered=("ssaid",))
    bad = copy.deepcopy(summary)
    bad["medians"][0]["median"] += 3
    fails(ck.check_summary, bad, rows, ordered=("ssaid",))
    bad = copy.deepcopy(rows)
    for r in bad:
        if r["kappa"] == 2.0:
            r["complexity"] = 3 * 19_000
    bad_summary = copy.deepcopy(summary)
    bad_summary["medians"][0]["median"] = 3 * 19_000
    fails(ck.check_summary, bad_summary, bad, ordered=("ssaid",))
    bad = copy.deepcopy(summary)
    bad["exponents"]["ssaid"] = -0.1
    fails(ck.check_summary, bad, rows, ordered=("ssaid",))


def test_single_below_multi_check(compare):
    rows, summary = compare
    ck.check_cells(rows, (2.0, 10.0), (0,), ("ssaid", "multiloop"), 20_000)
    ck.check_summary(summary, rows, ordered=("multiloop",))
    ck.check_single_below_multi(summary)
    bad = copy.deepcopy(summary)
    for m in bad["medians"]:
        if m["algorithm"] == "ssaid" and m["kappa"] == 10.0:
            m["median"] = 10 ** 9
    fails(ck.check_single_below_multi, bad)


def test_cell_model_check():
    ck.check_cell_matches_model(30_000, 30_000 + 3 * 146, 146)
    fails(ck.check_cell_matches_model, 30_000, 30_000 + 3 * 147, 146)
    fails(ck.check_cell_matches_model, 30_000, None, 146)


def test_trace_checks(trace, problem_file, model):
    rows, meta = trace
    cap = ref.v_bound_cap(ck.load_json(problem_file))
    ck.check_trace_rows(rows, 3000)
    ck.check_v_cap(rows, cap)
    ck.check_descent(rows)
    m = ref.QuadraticModel.from_file(problem_file)
    s = meta["steps"]
    want = ref.trace_rows(m, 6, 50, s["alpha"], s["eta"], s["beta"])
    ck.check_trace_matches_model(rows[:50], want)

    for corrupt in (lambda r: r[5].update(gc_count=r[5]["gc_count"] + 1),
                    lambda r: r[5].update(mv_count=0),
                    lambda r: r.pop(3)):
        bad = copy.deepcopy(rows)
        corrupt(bad)
        fails(ck.check_trace_rows, bad, 3000)
    bad = copy.deepcopy(rows)
    bad[7]["v_norm"] = cap * 1.001
    fails(ck.check_v_cap, bad, cap)
    bad = copy.deepcopy(rows)
    bad[-1]["grad_phi_sq"] = 1e6
    fails(ck.check_descent, bad)
    bad = copy.deepcopy(rows[:50])
    bad[10]["y_err"] *= 1 + 1e-6
    fails(ck.check_trace_matches_model, bad, want)


def test_report_checks(lemmas, problem_file):
    ck.check_reports(lemmas)
    for corrupt in (lambda d: d["reports"].pop(4),
                    lambda d: d["reports"][1]["rows"].pop(),
                    lambda d: d["reports"][6].update(passed=False),
                    lambda d: d.update(verdict="fail")):
        bad = copy.deepcopy(lemmas)
        corrupt(bad)
        fails(ck.check_reports, bad)

    geom = ref.geom_sum_rows(6)
    ck.check_geom_sum(lemmas, geom)
    bad = copy.deepcopy(lemmas)
    ck.report_rows(bad, "GeomSum")[3]["lhs"] *= 1 + 1e-6
    fails(ck.check_geom_sum, bad, geom)

    cap = ref.v_bound_cap(ck.load_json(problem_file)) + 1e-9
    ck.check_v_bound_report(lemmas, cap)
    bad = copy.deepcopy(lemmas)
    ck.report_rows(bad, "VBound")[0]["rhs"] *= 2
    fails(ck.check_v_bound_report, bad, cap)
    bad = copy.deepcopy(lemmas)
    ck.report_rows(bad, "VBound")[9]["lhs"] = cap * 1.01
    fails(ck.check_v_bound_report, bad, cap)

    m = ref.QuadraticModel.from_file(problem_file)
    problem = problem_from_json(Path(problem_file).read_text())
    s = resolve_step_sizes(problem, RunConfig(seed=6, horizon=100),
                                   np.zeros(10))
    want = ref.lower_tracking_rows(m, 6, 6, 2000, (1, 5, 20, 100),
                                   s.alpha, s.eta, s.beta)
    ck.check_lower_tracking(lemmas, want)
    bad = copy.deepcopy(lemmas)
    ck.report_rows(bad, "LowerTracking")[2]["lhs_se"] *= 1 + 1e-6
    fails(ck.check_lower_tracking, bad, want)


# ---------------------------------------------------------------------------
# the runner


def test_subprocess_runner_works_from_any_directory(tmp_path):
    code, printed, seconds, rss = bench_run.run_subprocess(
        ["gen", "--dim", "3", "--kappa", "2", "--seed", "1",
         "--out-dir", str(tmp_path / "p")], tmp_path)
    assert code == 0 and seconds > 0 and rss > 0
    assert Path(printed[0]).is_file()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "trace", "--seed", "0", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_counts_a_verify_run_and_restores_the_program(problem_file,
                                                              tmp_path):
    from ssaid import problems, streams
    from tracer import Patches, Tracer, install

    originals = (streams.StreamFactory.at, harness.run_ssaid,
                 verification._branch_iteration, problems.reference_solution)
    tracer = Tracer()
    with Patches() as patches:
        assert install(tracer, patches) == []
        tracer.in_verify = True
        code, _, _ = bench_run.run_inprocess(
            ["verify", "--problem", problem_file, "--all",
             "--replications", "100", "--checkpoints", "1,5,20,100",
             "--out-dir", str(tmp_path)], tracer)
    assert code == 0
    assert originals == (streams.StreamFactory.at, harness.run_ssaid,
                         verification._branch_iteration,
                         problems.reference_solution)
    assert tracer.per_child_s > 0
    # 4 checkpoints in three checks plus 100 iterations in the cumulative one
    assert tracer.counters["verification.branches"] == 112
    assert tracer.n_distinct("verification.branches") == 101
    # four history replays and one run_ssaid, over the same 100 iterations
    assert tracer.counters["verification.history_steps"] == 500
    assert tracer.n_distinct("verification.history_steps") == 100
    assert tracer.calls("problems.sample_batched") > 0
    assert (0 < tracer.n_distinct("problems.reference_solution")
            <= tracer.calls("problems.reference_solution"))
    assert tracer.self_s("verification.check_cumulative_bounds") > 0
    assert [k[0] for k in tracer.kept[:1]] == ["cli.verify"]
