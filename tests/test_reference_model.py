"""Differential oracle: the program against the independent numpy model of
the quadratic single-loop iteration in ``bench/reference.py``.

The model does not import ``ssaid``; it replays the method from its
definition with its own Philox draws and dense solves.  Its comparisons come
from ``bench/checks.py``: trace rows and lemma rows must agree to a relative
1e-9 (``TRACE_RTOL``, ``VERIFY_RTOL``), and a sweep cell's complexity must
land within three check intervals of the model's.  Both files are loaded by
path and used as they are.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ssaid.harness import _run_to_epsilon
from ssaid.problems import (NoiseModel, _json_text, make_quadratic_problem,
                            problem_to_json)
from ssaid.ssaid import RunConfig, resolve_step_sizes, run_ssaid
from ssaid.verification import MCConfig, run_lemma_suite

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load("reference")
ck = _load("checks")


def _model(problem):
    return ref.QuadraticModel(json.loads(problem_to_json(problem)))


@pytest.fixture(scope="module")
def problem():
    return make_quadratic_problem(8, 6, 20.0, seed=11,
                                  noise=NoiseModel(sigma=0.8, radius=0.4))


def test_run_ssaid_matches_model(problem):
    config = RunConfig(seed=9, horizon=400, stride=1)
    trace = run_ssaid(problem, config)
    s = trace.steps
    want = ref.trace_rows(_model(problem), 9, 400, s.alpha, s.eta, s.beta)
    ck.check_trace_matches_model(ck.read_trace(trace.csv_text()), want)


def test_sweep_cell_matches_model():
    problem = make_quadratic_problem(6, 6, 10.0, seed=2,
                                     noise=NoiseModel(sigma=1.0))
    cap = 20_000
    got, censored = _run_to_epsilon(problem, "ssaid", None, 7, 0.1, cap)
    assert not censored
    s = resolve_step_sizes(problem, RunConfig(seed=7, horizon=cap),
                           np.zeros(6))
    want = ref.cell_complexity(_model(problem), 7, 0.1, cap, s.alpha, s.eta,
                               s.beta)
    ck.check_cell_matches_model(got, want, cap // 2048)


def test_lemma_rows_match_model(problem):
    config = RunConfig(seed=4, horizon=30)
    checkpoints = (0, 1, 7, 30)
    mc = MCConfig(replications=400, checkpoints=checkpoints, base_seed=3)
    reports = (run_lemma_suite(problem, config, mc, "lower_tracking")
               + run_lemma_suite(problem, config, mc, "GeomSum"))
    doc = json.loads(_json_text({"reports": reports}))
    s = resolve_step_sizes(problem, config, np.zeros(6))
    want = ref.lower_tracking_rows(_model(problem), 4, 3, 400, checkpoints,
                                   s.alpha, s.eta, s.beta)
    ck.check_lower_tracking(doc, want)
    ck.check_geom_sum(doc, ref.geom_sum_rows(3))
