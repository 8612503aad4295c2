"""Rate-fit oracles on exact power laws, sweep mechanics with censoring,
algorithm presets, and the CLI contract (exit codes, determinism, config
files)."""

import hashlib
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from ssaid.baselines import MultiLoopConfig, run_multiloop
from ssaid.errors import InsufficientDataError, InvalidParameterError
from ssaid.harness import (RateFit, SweepSpec, _build_parser, _run_to_epsilon,
                           kappa_sweep, main, parse_algorithm, rate_fit,
                           sweep_csv, sweep_summary_json)
from ssaid.problems import (NoiseModel, PlainQuadraticUpper,
                            QuadraticBilevelProblem, make_quadratic_problem,
                            problem_to_json)
from ssaid.ssaid import TRACE_COLUMNS, IterationTrace, RunConfig, run_ssaid
from ssaid.verification import LEMMA_IDS


def trace_with_running_average(values):
    """Rows whose running average is exactly the given sequence."""
    values = np.asarray(values, dtype=float)
    counts = np.arange(1, values.size + 1)
    cums = values * counts
    g2 = np.diff(cums, prepend=0.0)
    rows = [(k, float(g2[k]), 0.1, 0.1, 1.0, 0.0, 0.0, 3 * (k + 1),
             2 * (k + 1)) for k in range(values.size)]
    return IterationTrace.from_rows(rows)


# ---------------------------------------------------------------------------
# rate fits


def test_rate_fit_recovers_inverse_sqrt():
    ks = np.arange(1, 401)
    trace = trace_with_running_average(2.0 / np.sqrt(ks))
    fit = rate_fit(trace, (1, 400))
    assert abs(fit.slope + 0.5) <= 1e-12
    assert abs(fit.intercept - math.log(2.0)) <= 1e-12
    assert fit.r_squared >= 1.0 - 1e-12


def test_rate_fit_constant_is_flat():
    trace = trace_with_running_average(np.full(200, 0.7))
    fit = rate_fit(trace, (1, 200))
    assert abs(fit.slope) <= 1e-12
    assert fit.r_squared == 1.0


def test_rate_fit_recovers_inverse_k():
    ks = np.arange(1, 301)
    trace = trace_with_running_average(5.0 / ks)
    fit = rate_fit(trace, (2, 300))
    assert abs(fit.slope + 1.0) <= 1e-12


def test_rate_fit_window_validation():
    trace = trace_with_running_average(1.0 / np.arange(1, 51))
    with pytest.raises(InvalidParameterError):
        rate_fit(trace, (10, 10))
    with pytest.raises(InvalidParameterError):
        rate_fit(trace, (0, 10))
    # trace only reaches k = 50
    with pytest.raises(InvalidParameterError):
        rate_fit(trace, (10, 500))


def test_rate_fit_needs_three_points():
    trace = trace_with_running_average(1.0 / np.arange(1, 51))
    with pytest.raises(InsufficientDataError):
        rate_fit(trace, (1, 2))


def test_rate_fit_rejects_nonpositive_average():
    trace = trace_with_running_average(np.zeros(50))
    with pytest.raises(InvalidParameterError):
        rate_fit(trace, (1, 50))


def test_rate_fit_freezes_window():
    with pytest.raises(InvalidParameterError):
        RateFit(slope=0.0, intercept=0.0, r_squared=1.0, k_window=(5, 5))


# ---------------------------------------------------------------------------
# presets and spec validation


def test_parse_algorithm_presets():
    assert parse_algorithm("ssaid", 10.0) == ("ssaid", None)
    assert parse_algorithm("multiloop", 10.0) == ("multiloop", (10, 10))
    assert parse_algorithm("multiloop", 2.5) == ("multiloop", (3, 3))
    assert parse_algorithm("multiloop:3:7", 50.0) == ("multiloop", (3, 7))


@pytest.mark.parametrize("name", [
    "sgd", "multiloop:3", "multiloop:3:7:9", "multiloop:a:b",
    "multiloop:0:4", "multiloop:3,7",
])
def test_parse_algorithm_rejects(name):
    with pytest.raises(InvalidParameterError):
        parse_algorithm(name, 10.0)


@pytest.mark.parametrize("kwargs", [
    {"kappa_grid": ()},
    {"kappa_grid": (0.5, 2.0)},
    {"kappa_grid": (10.0, 2.0)},
    {"kappa_grid": (2.0, 2.0)},
    {"seeds": ()},
    {"epsilon": 0.0},
    {"epsilon": -1.0},
    {"max_iters": 0},
    {"algorithms": ()},
    {"algorithms": ("sgd",)},
    {"dim_x": 0},
    {"sigma": -1.0},
    {"algorithms": ("ssaid", "multiloop", "ssaid")},
    {"seeds": (0, 1, 0)},
])
def test_sweep_spec_rejects(kwargs):
    base = {"kappa_grid": (2.0, 10.0), "seeds": (0, 1), "epsilon": 0.1,
            "max_iters": 100}
    base.update(kwargs)
    with pytest.raises(InvalidParameterError):
        SweepSpec(**base)


# ---------------------------------------------------------------------------
# sweeps


def small_spec(**kwargs):
    base = {"kappa_grid": (2.0, 5.0), "seeds": (0, 1, 2), "epsilon": 0.2,
            "max_iters": 30_000, "dim_x": 6, "dim_y": 6, "sigma": 1.0}
    base.update(kwargs)
    return SweepSpec(**base)


def test_huge_epsilon_resolves_at_start():
    spec = small_spec(kappa_grid=(1.0,), epsilon=1e6, max_iters=50)
    result = kappa_sweep(spec)
    # the running average at the first check row is already below target,
    # so every seed reports the counters of one completed iteration
    assert [r.complexity for r in result.rows] == [3, 3, 3]
    assert all(not r.censored for r in result.rows)
    assert result.medians[0]["median"] == 3.0
    assert result.medians[0]["resolved"]


def test_sweep_medians_monotone_in_condition_number():
    result = kappa_sweep(small_spec())
    med = {m["kappa"]: m["median"] for m in result.medians}
    assert med[2.0] is not None and med[5.0] is not None
    assert med[5.0] >= med[2.0]
    assert result.exponents["ssaid"] > 0.0


def test_sweep_rows_sorted_and_deterministic():
    spec = small_spec(seeds=(2, 0, 1))
    a = kappa_sweep(spec)
    b = kappa_sweep(spec, threads=4)
    assert sweep_csv(a) == sweep_csv(b)
    keys = [(r.kappa, r.seed, r.algorithm) for r in a.rows]
    assert keys == sorted(keys)
    assert sweep_csv(a).splitlines()[0] == \
        "kappa,seed,algorithm,complexity,censored"


def test_unreachable_epsilon_censors_and_unresolves():
    spec = small_spec(kappa_grid=(2.0,), epsilon=1e-15, max_iters=60)
    result = kappa_sweep(spec)
    assert all(r.complexity is None and r.censored for r in result.rows)
    cell = result.medians[0]
    assert cell["median"] is None
    assert not cell["resolved"]
    assert cell["completed"] == 0
    for line in sweep_csv(result).splitlines()[1:]:
        assert line.split(",")[3] == ""
        assert line.endswith(",1")
    assert result.exponents["ssaid"] is None


def test_cell_complexity_matches_brute_force_on_trace():
    # under 2048 iterations every iteration is a check row, so a cell
    # crosses at the first trace row whose running average of grad_phi_sq
    # reaches epsilon, and costs the larger oracle counter there
    problem = make_quadratic_problem(6, 6, 5.0, seed=3,
                                     noise=NoiseModel(sigma=1.0))
    horizon = 400
    run = RunConfig(seed=4, horizon=horizon, stride=1)
    for kind, preset, trace in (
            ("ssaid", None, run_ssaid(problem, run)),
            ("multiloop", (2, 3),
             run_multiloop(problem, MultiLoopConfig(2, 3), run))):
        eps = float(np.min(trace.running_average()[100:300]))
        total, first = 0.0, None
        for k, g in enumerate(trace.grad_phi_sq):
            total += float(g)
            if total / (k + 1) <= eps:
                first = k
                break
        assert first is not None and first > 0
        want = max(int(trace.gc_count[first]), int(trace.mv_count[first]))
        assert _run_to_epsilon(problem, kind, preset, 4, eps, horizon) == \
            (want, False)


def test_compare_requires_two_algorithms(tmp_path, capsys):
    assert main(["compare", "--algorithms", "ssaid", "--kappa-grid", "2",
                 "--seeds", "0", "--max-iters", "10",
                 "--out-dir", str(tmp_path)]) == 1
    assert "comparison needs at least 2 algorithms" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_degenerate_multiloop_matches_ssaid():
    # one inner and one solver step with warm start is the same iteration,
    # and its oracle cost max(N+2, Q+1) = 3 matches too
    spec = small_spec(kappa_grid=(2.0,), seeds=(0, 1),
                      algorithms=("ssaid", "multiloop:1:1"))
    result = kappa_sweep(spec)
    by_alg = {}
    for r in result.rows:
        by_alg.setdefault(r.algorithm, []).append(r.complexity)
    assert by_alg["ssaid"] == by_alg["multiloop:1:1"]


def test_sweep_summary_json_shape():
    spec = small_spec(kappa_grid=(1.0,), epsilon=1e6, max_iters=10)
    result = kappa_sweep(spec)
    doc = json.loads(sweep_summary_json(result, spec))
    assert doc["schema"] == "ssaid-sweep-v1"
    assert doc["spec"]["kappa_grid"] == [1.0]
    assert doc["medians"][0]["completed"] == 3
    assert set(doc["exponents"]) == {"ssaid"}


def test_threads_argument_validated():
    with pytest.raises(InvalidParameterError):
        kappa_sweep(small_spec(), threads=0)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def gen_problem(tmp_path, *extra):
    code = run_cli("gen", "--dim", "3", "--kappa", "5", "--seed", "7",
                   "--sigma", "1.0", "--out-dir", str(tmp_path), *extra)
    assert code == 0
    paths = sorted(tmp_path.glob("problem_*.json"))
    assert paths
    return paths[0]


def test_cli_gen_run_round_trip(tmp_path):
    ppath = gen_problem(tmp_path)
    code = run_cli("run", "--problem", str(ppath), "--K", "300",
                   "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 0
    traces = sorted(tmp_path.glob("trace_*.csv"))
    metas = sorted(tmp_path.glob("run_*.json"))
    assert len(traces) == 1 and len(metas) == 1
    meta = json.loads(metas[0].read_text())
    assert meta["schema"] == "ssaid-run-v1"
    assert meta["config"]["horizon"] == 300
    assert meta["final"]["gc_count"] == 900
    trace = IterationTrace.from_csv_text(traces[0].read_text())
    assert trace.k[-1] == 299


def test_cli_run_is_byte_deterministic(tmp_path):
    ppath = gen_problem(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("run", "--problem", str(ppath), "--K", "200",
                       "--seed", "3", "--out-dir", str(out)) == 0
    for name in [p.name for p in out1.iterdir()]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_gen_deterministic_content(tmp_path):
    p1 = gen_problem(tmp_path / "a")
    p2 = gen_problem(tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_invalid_usage_exits_one(tmp_path):
    assert run_cli("run", "--no-such-flag") == 1
    assert run_cli("nosuchcommand") == 1
    assert run_cli("verify", "--problem", "missing.json") == 1
    assert run_cli("fit", "--k-min", "1", "--k-max", "10") == 1


def test_cli_unreadable_trace_exits_one(tmp_path, capsys):
    assert run_cli("fit", "--trace", str(tmp_path / "missing.csv"),
                   "--k-min", "1", "--k-max", "10") == 1
    assert "error: cannot read trace file" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("gen", "--threads"), ("run", "--threads"), ("verify", "--threads"),
    ("fit", "--threads"), ("sweep", "--seed"), ("compare", "--seed"),
    ("fit", "--seed"),
])
def test_cli_flag_the_command_ignores_exits_one(command, flag, capsys):
    # gen, run and verify take --seed; sweep and compare take --threads
    assert run_cli(command, flag, "2") == 1
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


_TINY_SWEEP = "--kappa-grid 2 --max-iters 10 --dim 2"


@pytest.mark.parametrize("argv,text", [
    ("run --problem {file}", lambda doc: '{"family": "quadratic"}'),
    ("run --problem {file}", lambda doc: "[1, 2]"),
    ("run --problem {file}", lambda doc: json.dumps(
        {**doc, "noise": {**doc["noise"], "sigmma": 1.0}})),
    ("gen --seed -3", None),
    ("run --problem {file} --K 5 --seed -1", None),
    ("verify --problem {file} --replications 4 --checkpoints 1 --mc-seed -1",
     None),
    ("sweep --seeds -1 " + _TINY_SWEEP, None),
    ("sweep --seeds 0 --problem-seed -1 " + _TINY_SWEEP, None),
    ("compare --seeds 0 --algorithms ssaid,ssaid " + _TINY_SWEEP, None),
    ("fit --trace {file} --k-min 1 --k-max 10",
     lambda doc: ",".join(TRACE_COLUMNS) + "\n0,x,1,1,1,1,1,3,2\n"),
    ("sweep --seeds 0,0 " + _TINY_SWEEP, None),
], ids=["family-only", "not-an-object", "noise-typo", "gen-seed", "run-seed",
        "mc-seed", "sweep-seeds", "problem-seed", "repeated-algorithm",
        "trace-value", "repeated-seed"])
def test_cli_bad_input_exits_one_with_an_error_line(argv, text, tmp_path,
                                                    capsys):
    # ``{file}`` is a valid problem file, or what ``text`` makes of one; an
    # exception escaping main fails the test as a traceback would
    valid = gen_problem(tmp_path / "gen").read_text()
    path = tmp_path / "input"
    path.write_text(valid if text is None else text(json.loads(valid)))
    capsys.readouterr()
    argv = shlex.split(argv.format(file=path))
    assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_cli_partial_step_overrides_rejected(tmp_path):
    ppath = gen_problem(tmp_path)
    assert run_cli("run", "--problem", str(ppath), "--K", "10",
                   "--alpha", "0.1", "--out-dir", str(tmp_path)) == 1


def test_cli_unknown_lemma_exits_one(tmp_path):
    ppath = gen_problem(tmp_path)
    assert run_cli("verify", "--problem", str(ppath), "--lemma", "bogus",
                   "--out-dir", str(tmp_path)) == 1


@pytest.mark.parametrize("config, flags", [
    (None, ("--all", "--lemma", "v_bound")),
    ({"all": True}, ("--lemma", "v_bound")),
], ids=["flags", "config-all"])
def test_cli_verify_all_and_lemma_exit_one(config, flags, tmp_path, capsys):
    ppath = gen_problem(tmp_path)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ("--config", str(cfg), *flags)
    capsys.readouterr()
    assert run_cli("verify", "--problem", str(ppath), *flags, *TINY_VERIFY,
                   "--out-dir", str(tmp_path / "out")) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_verify_single_lemma(tmp_path):
    ppath = gen_problem(tmp_path)
    code = run_cli("verify", "--problem", str(ppath), "--lemma", "v_bound",
                   "--K", "500", "--out-dir", str(tmp_path))
    assert code == 0
    report_path = next(tmp_path.glob("lemma_VBound_*.json"))
    doc = json.loads(report_path.read_text())
    assert doc["verdict"] == "pass"
    assert doc["reports"][0]["lemma_id"] == "VBound"
    assert len(doc["reports"][0]["rows"]) == 500


# every spelling of every lemma id that ``verify --lemma`` accepts: the id,
# its lower-case form and its snake_case form
LEMMA_SPELLINGS = {
    "GeomSum": "geom_sum",
    "LowerTracking": "lower_tracking",
    "VBound": "v_bound",
    "BiasDecoupling": "bias_decoupling",
    "EstimatorBiasRecursion": "estimator_bias_recursion",
    "AdjointDrift": "adjoint_drift",
    "MeanSquareContraction": "mean_square_contraction",
    "CoupledRecursion": "coupled_recursion",
    "HypergradBias": "hypergrad_bias",
    "HypergradMSE": "hypergrad_mse",
    "CumulativeBias": "cumulative_bias",
}
TINY_VERIFY = ("--replications", "20", "--checkpoints", "1,3", "--K", "4")


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify_all")
    ppath = gen_problem(out)
    assert run_cli("verify", "--problem", str(ppath), "--all", *TINY_VERIFY,
                   "--out-dir", str(out)) == 0
    doc = json.loads(next(out.glob("lemma_all_*.json")).read_text())
    return ppath, {r["lemma_id"]: r for r in doc["reports"]}


def test_lemma_spellings_cover_the_registry():
    assert tuple(LEMMA_SPELLINGS) == LEMMA_IDS


@pytest.mark.parametrize("lemma_id", LEMMA_IDS)
def test_cli_verify_each_lemma_matches_all(lemma_id, verify_all, tmp_path):
    ppath, all_reports = verify_all
    spellings = (lemma_id, lemma_id.lower(), LEMMA_SPELLINGS[lemma_id])
    for i, spelling in enumerate(spellings):
        out = tmp_path / str(i)
        code = run_cli("verify", "--problem", str(ppath), "--lemma", spelling,
                       *TINY_VERIFY, "--out-dir", str(out))
        assert code == (0 if all_reports[lemma_id]["passed"] else 2), spelling
        doc = json.loads(next(out.glob(f"lemma_{lemma_id}_*.json")).read_text())
        assert [r["lemma_id"] for r in doc["reports"]] == [lemma_id]
        assert doc["reports"][0] == all_reports[lemma_id], spelling


def test_cli_verify_all_passes_and_is_deterministic(tmp_path):
    ppath = gen_problem(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = run_cli("verify", "--problem", str(ppath), "--all",
                       "--replications", "50", "--checkpoints", "1,5",
                       "--K", "6", "--out-dir", str(out))
        assert code == 0
    for name in [p.name for p in out1.iterdir()]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_divergent_run_exits_two(tmp_path):
    problem = QuadraticBilevelProblem(
        hess=np.eye(2), coupling=np.eye(2), offset=np.zeros(2),
        upper=PlainQuadraticUpper(target=np.ones(2)))
    ppath = tmp_path / "unstable.json"
    ppath.write_text(problem_to_json(problem))
    with np.errstate(all="ignore"):
        code = run_cli("run", "--problem", str(ppath), "--K", "400",
                       "--alpha", "1.0", "--eta", "1.0", "--beta", "50.0",
                       "--out-dir", str(tmp_path))
    assert code == 2


def test_cli_fit_pipeline(tmp_path):
    ppath = gen_problem(tmp_path)
    assert run_cli("run", "--problem", str(ppath), "--K", "2000",
                   "--seed", "5", "--out-dir", str(tmp_path)) == 0
    trace_path = next(tmp_path.glob("trace_*.csv"))
    code = run_cli("fit", "--trace", str(trace_path), "--k-min", "10",
                   "--k-max", "2000", "--out-dir", str(tmp_path))
    assert code == 0
    fit_doc = json.loads(next(tmp_path.glob("fit_*.json")).read_text())
    assert set(fit_doc) == {"slope", "intercept", "r_squared", "k_window"}
    assert fit_doc["k_window"] == [10, 2000]


def test_cli_sweep_writes_csv_and_summary(tmp_path):
    code = run_cli("sweep", "--kappa-grid", "1", "--seeds", "0,1",
                   "--epsilon", "1e6", "--max-iters", "10",
                   "--dim", "3", "--out-dir", str(tmp_path))
    assert code == 0
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == "kappa,seed,algorithm,complexity,censored"
    doc = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert doc["medians"][0]["median"] == 3.0


def test_cli_compare_includes_both_algorithms(tmp_path):
    code = run_cli("compare", "--kappa-grid", "2", "--seeds", "0",
                   "--epsilon", "0.2", "--max-iters", "30000",
                   "--dim", "6", "--algorithms", "ssaid,multiloop:1:1",
                   "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    algs = {line.split(",")[2] for line in lines[1:]}
    assert algs == {"ssaid", "multiloop:1:1"}


def test_cli_artifact_names_carry_the_problem_hash(tmp_path):
    # gen names its file by the sha256 of the text it writes; run and
    # verify name theirs by the hash of the problem they read back
    ppath = gen_problem(tmp_path)
    digest = hashlib.sha256(ppath.read_bytes()).hexdigest()
    assert ppath.name == f"problem_{digest[:12]}.json"
    assert run_cli("run", "--problem", str(ppath), "--K", "20", "--seed", "1",
                   "--out-dir", str(tmp_path)) == 0
    run = json.loads((tmp_path / f"run_{digest[:10]}_seed1_K20.json")
                     .read_text())
    assert run["problem_sha256"] == digest
    assert (tmp_path / f"trace_{digest[:10]}_seed1_K20.csv").exists()
    assert run_cli("verify", "--problem", str(ppath), "--lemma", "v_bound",
                   "--K", "20", "--out-dir", str(tmp_path)) == 0
    lemma = json.loads(next(tmp_path.glob(f"lemma_*_{digest[:10]}.json"))
                       .read_text())
    assert lemma["problem_sha256"] == digest


def test_cli_json_key_set_of_each_artifact(tmp_path):
    # every JSON artifact is its records' dataclass fields; a new field is
    # a format change, so it must show here
    def read(pattern):
        return json.loads(next(tmp_path.glob(pattern)).read_text())

    ppath = gen_problem(tmp_path)
    assert run_cli("run", "--problem", str(ppath), "--K", "20",
                   "--out-dir", str(tmp_path)) == 0
    run = read("run_*.json")
    assert set(run) == {"schema", "problem_sha256", "problem_family",
                        "config", "steps", "constants", "derived", "c_beta",
                        "rows", "final"}
    assert set(run["config"]) == {"seed", "horizon", "steps", "stride", "x0",
                                  "y0", "v0"}
    assert set(run["steps"]) == {"alpha", "eta", "beta", "horizon_k"}
    assert set(run["constants"]) == {"mu", "lipschitz_L", "rho",
                                     "lipschitz_M", "sigma", "tau", "kappa"}
    assert set(run["derived"]) == {"c0", "c1", "c2", "c3", "l_phi",
                                   "v0_norm"}
    assert set(run["final"]) == {"k", "grad_phi_sq", "y_err", "v_err",
                                 "gc_count", "mv_count"}
    trace_path = next(tmp_path.glob("trace_*.csv"))
    assert run_cli("fit", "--trace", str(trace_path), "--k-min", "2",
                   "--k-max", "20", "--out-dir", str(tmp_path)) == 0
    assert set(read("fit_*.json")) == {"slope", "intercept", "r_squared",
                                       "k_window"}
    assert run_cli("verify", "--problem", str(ppath), "--lemma", "VBound",
                   *TINY_VERIFY, "--out-dir", str(tmp_path)) == 0
    lemma = read("lemma_*.json")
    assert set(lemma) == {"schema", "problem_sha256", "mc", "horizon",
                          "verdict", "reports"}
    assert set(lemma["mc"]) == {"replications", "checkpoints", "base_seed"}
    report = lemma["reports"][0]
    assert set(report) == {"lemma_id", "rows", "replications", "notes",
                           "passed", "violation_fraction"}
    assert set(report["rows"][0]) == {"k", "lhs", "lhs_se", "rhs", "margin",
                                      "violated"}
    assert run_cli("sweep", "--kappa-grid", "1", "--seeds", "0",
                   "--epsilon", "1e6", "--max-iters", "10", "--dim", "3",
                   "--out-dir", str(tmp_path)) == 0
    summary = read("sweep_summary.json")
    assert set(summary) == {"schema", "spec", "medians", "exponents"}
    assert set(summary["spec"]) == {"kappa_grid", "seeds", "epsilon",
                                    "max_iters", "algorithms", "dim_x",
                                    "dim_y", "sigma", "problem_seed"}
    assert set(summary["medians"][0]) == {"kappa", "algorithm", "median",
                                          "resolved", "completed"}


def test_cli_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa": 7.0, "dim": 3, "sigma": 1.0}))
    out1 = tmp_path / "a"
    assert run_cli("gen", "--config", str(cfg), "--seed", "2",
                   "--out-dir", str(out1)) == 0
    doc = json.loads(next(out1.glob("problem_*.json")).read_text())
    assert doc["constants"]["lipschitz_L"] / doc["constants"]["mu"] == \
        pytest.approx(7.0)
    # explicit flag beats the config value
    out2 = tmp_path / "b"
    assert run_cli("gen", "--config", str(cfg), "--kappa", "4",
                   "--seed", "2", "--out-dir", str(out2)) == 0
    doc2 = json.loads(next(out2.glob("problem_*.json")).read_text())
    assert doc2["constants"]["lipschitz_L"] / doc2["constants"]["mu"] == \
        pytest.approx(4.0)


def test_cli_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SSAID_OUT_DIR", str(tmp_path / "envdir"))
    assert run_cli("gen", "--dim", "2", "--kappa", "2", "--seed", "1") == 0
    assert list((tmp_path / "envdir").glob("problem_*.json"))


def test_cli_bad_config_file_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run_cli("gen", "--config", str(cfg)) == 1
    cfg.write_text("{not json")
    assert run_cli("gen", "--config", str(cfg)) == 1


def test_cli_config_key_the_command_lacks_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = ["--out-dir", str(tmp_path / "out")]
    cfg.write_text(json.dumps({"dimm": 4}))
    assert run_cli("gen", "--config", str(cfg), *out) == 1
    assert "dimm" in capsys.readouterr().err
    # a flag of another command is no key of this one
    cfg.write_text(json.dumps({"dim": 4, "threads": 8}))
    assert run_cli("gen", "--config", str(cfg), *out) == 1
    cfg.write_text(json.dumps({"dim": 4}))
    assert run_cli("gen", "--config", str(cfg), *out) == 0
    doc = json.loads(next((tmp_path / "out").glob("problem_*.json")).read_text())
    assert doc["dim_x"] == doc["dim_y"] == 4


@pytest.mark.parametrize("config", [
    {"family": "cubic"}, {"seed": "x"}, {"dim": 2.5}, {"config": "c.json"},
], ids=["choice", "int", "float-for-int", "config-key"])
def test_cli_config_values_meet_the_flag_types(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("gen", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "out")) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/problem_*.json"))


def test_cli_run_config_key_is_the_flag_name(tmp_path):
    ppath = gen_problem(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 10, "problem": str(ppath)}))
    assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
    meta = json.loads(next(tmp_path.glob("run_*.json")).read_text())
    assert meta["config"]["horizon"] == 10


SWEEP_FLAGS = ("--kappa-grid", "1,2", "--seeds", "0,1", "--epsilon", "1e6",
               "--max-iters", "10", "--dim", "3")


def test_cli_config_lists_equal_comma_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kappa_grid": [1, 2.0], "seeds": [0, 1],
                               "epsilon": 1e6, "max_iters": 10, "dim": 4}))
    # --dim comes after the file's value, so it wins
    assert run_cli("sweep", "--config", str(cfg), "--dim", "3",
                   "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli("sweep", *SWEEP_FLAGS, "--out-dir", str(tmp_path / "b")) == 0
    for name in ("sweep.csv", "sweep_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert run_cli("sweep", "--config", str(cfg), "--seeds", "5",
                   "--out-dir", str(tmp_path / "c")) == 0
    doc = json.loads((tmp_path / "c" / "sweep_summary.json").read_text())
    assert doc["spec"]["seeds"] == [5]


def test_cli_config_true_is_a_switch(tmp_path):
    ppath = gen_problem(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"all": True, "lemma": None, "replications": 20,
                               "checkpoints": [1, 3], "K": 4}))
    assert run_cli("verify", "--problem", str(ppath), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "a")) == 0
    assert run_cli("verify", "--problem", str(ppath), "--all", *TINY_VERIFY,
                   "--out-dir", str(tmp_path / "b")) == 0
    [a] = (tmp_path / "a").glob("lemma_all_*.json")
    assert a.read_bytes() == (tmp_path / "b" / a.name).read_bytes()
    # false adds nothing: without --all or --lemma every check runs too
    cfg.write_text(json.dumps({"all": False, "replications": 20,
                               "checkpoints": "1,3", "K": 4}))
    assert run_cli("verify", "--problem", str(ppath), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "c")) == 0
    assert (tmp_path / "c" / a.name).read_bytes() == a.read_bytes()


def test_cli_help_prints_the_defaults(capsys):
    assert run_cli("sweep", "--help") == 0
    out = capsys.readouterr().out
    assert "(default: 2,10,50,250)" in out
    assert "(default: 0,1,2,3,4)" in out


def readme_commands():
    """Each `ssaid ...` line of README's command-line block as an argument
    list, with continuation lines joined and <hash> filled in."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").replace("<hash>", "0123456789ab")
    return [shlex.split(line)[1:] for line in lines.splitlines()
            if line.startswith("ssaid ")]


def test_readme_commands_cover_every_command():
    assert {argv[0] for argv in readme_commands()} == \
        {"gen", "run", "verify", "sweep", "compare", "fit"}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: a[0])
def test_readme_command_parses(argv, capsys):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {capsys.readouterr().err}")
    assert args.command == argv[0]
