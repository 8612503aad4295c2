"""Peak-memory guards on long traces, long lemma reports and large branches.

Each bound sits between the traced peak (``tracemalloc``, Python 3.11,
numpy 2.4) of the code that held whole documents, row lists or a branch's
Hessian draw alive and that of the code that does not; the figures are in
each test's comment.
"""

import tracemalloc

from ssaid import harness, verification
from ssaid.problems import (NoiseModel, _json_text, make_logistic_problem,
                            make_quadratic_problem)
from ssaid.ssaid import RunConfig, _setup, run_ssaid


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _quadratic():
    return make_quadratic_problem(10, 10, 10.0, seed=1,
                                  noise=NoiseModel(sigma=1.0, radius=0.5))


def test_lemma_json_of_long_v_bound_stays_small():
    # 25.6 MB when every dataclass was deep-copied (asdict) and the text
    # joined from a list of chunks; 8.1 MB encoded one level at a time into
    # one buffer
    report = verification._v_bound_report(_quadratic(),
                                          RunConfig(seed=0, horizon=20_000))
    doc = {"schema": "ssaid-lemma-v1", "reports": [report]}
    assert _traced_peak_mb(lambda: _json_text(doc)) < 16.0


def test_logistic_branch_frees_hessian_draw_before_cross_draw():
    # 3.59 MB when the sampled Hessian operator, and its (R, b, n) minibatch
    # gathers, stayed bound through the cross draw; 2.36 MB applied at once
    problem = make_logistic_problem(10, 10, 40, seed=1)
    config = RunConfig(seed=0, horizon=5)
    hist = verification._simulate_history(problem, config, 5)
    steps = _setup(problem, config)[0].steps
    mc = verification.MCConfig(replications=2000, checkpoints=(1,))

    def branch():
        verification._branch_iteration(problem, steps, hist, 3, mc)

    branch()   # first-call allocations do not count
    assert _traced_peak_mb(branch) < 3.0


def test_long_trace_csv_stays_small():
    # 16.6 MB with one Python row tuple per trace row and every column
    # converted at once; 6.8 MB with column arrays per block of rows
    problem = _quadratic()
    config = RunConfig(seed=0, horizon=20_000, stride=1)
    assert _traced_peak_mb(lambda: run_ssaid(problem, config).csv_text()) < 12.0


def test_emit_writes_a_long_artifact_in_slices(tmp_path, capsys):
    # Path.write_text encoded the whole text at once: 17.0 MB traced for a
    # 17 MB text, 2.0 MB a 1 MiB slice at a time.  The 14.3 MB CSV of
    # `run --K 100000 --stride 1` on a d=10 quadratic took the command's
    # peak RSS (os.wait4 in a small parent) from 86.8 MB to 73.8 MB
    text = "0123456789abcdef\n" * (1 << 20)
    path = tmp_path / "long.csv"
    assert _traced_peak_mb(lambda: harness._emit(path, text)) < 4.0
    assert path.read_text() == text
    assert capsys.readouterr().out == f"{path}\n"
