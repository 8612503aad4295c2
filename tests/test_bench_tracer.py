"""The benchmark's span tracer still finds every layer boundary it wraps.

``bench/tracer.py`` swaps module functions and class methods of ``ssaid``
for timing wrappers by name.  A boundary it cannot find reads 0 in every
per-layer metric, which only the benchmark's own suite would notice.  The
file is loaded by path and used as it is.
"""

import importlib.util
from pathlib import Path

from ssaid import baselines, harness, problems, streams, verification
from ssaid import ssaid as core
from ssaid.baselines import MultiLoopConfig, run_multiloop
from ssaid.problems import NoiseModel, make_quadratic_problem
from ssaid.ssaid import RunConfig, run_ssaid

BENCH = Path(__file__).resolve().parents[1] / "bench"

_spec = importlib.util.spec_from_file_location("bench_tracer",
                                               BENCH / "tracer.py")
tracer_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_mod)

# every namespace the tracer patches
OWNERS = (baselines, harness, problems, streams, verification, core,
          streams.StreamFactory, core.IterationTrace,
          problems._BilevelProblemBase, problems.QuadraticBilevelProblem,
          problems.LogisticBilevelProblem)


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_finds_every_boundary_and_restores_them():
    before = _snapshot()
    problem = make_quadratic_problem(3, 3, 5.0, seed=1,
                                     noise=NoiseModel(sigma=0.5))
    run = RunConfig(seed=2, horizon=4, stride=2)
    tracer = tracer_mod.Tracer()
    with tracer_mod.Patches() as patches:
        assert tracer_mod.install(tracer, patches) == []
        during = _snapshot()
        run_ssaid(problem, run)
        run_multiloop(problem, MultiLoopConfig(2, 2), run)
    # the runners look their steps up at call time, so the spans see them
    assert tracer.calls("ssaid.ssaid_step") == 4
    assert tracer.calls("baselines.multiloop_step") == 4
    assert during != before
    after = _snapshot()
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        for name, value in old.items():
            assert new[name] is value, f"{owner.__name__}.{name}"
