"""Property tests: invariants checked over drawn inputs (see conftest.py)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ssaid.baselines import MultiLoopConfig, run_multiloop  # noqa: E402
from ssaid.problems import (_SOLVE_BLOCK, NoiseModel,  # noqa: E402
                            make_logistic_problem, make_quadratic_problem)
from ssaid.ssaid import RunConfig, resolve_step_sizes, run_ssaid  # noqa: E402
from ssaid.streams import (BRANCH_SLOT, TAG_CROSS_OP,  # noqa: E402
                           TAG_HESS_OP, TAG_LOWER_GRAD, TAG_UPPER_GRAD,
                           StreamFactory, stream)
from ssaid.verification import _simulate_history  # noqa: E402

_VALUES = st.floats(-50.0, 50.0, allow_nan=False)
# few rows, and row counts on each side of one and two solve blocks
_ROWS = st.one_of(st.integers(1, 6),
                  st.sampled_from([_SOLVE_BLOCK - 1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1,
                                   2 * _SOLVE_BLOCK + 3]))


@given(data=st.data(), problem_seed=st.integers(0, 2**32 - 1),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 12)),
       rows=_ROWS, form=st.sampled_from(["rows", "shared_y", "shared_rhs"]))
def test_stacked_logistic_solve_equals_per_row_solves(data, problem_seed, dims,
                                                      rows, form):
    dim_x, dim_y, extra_rows = dims
    prob = make_logistic_problem(dim_x, dim_y, 4 + extra_rows, seed=problem_seed)
    x = data.draw(arrays(np.float64, dim_x, elements=_VALUES), label="x")
    # the drawn head rows come first; a seeded generator fills the rest, so
    # large row counts stay cheap to draw and to shrink
    head = min(rows, 3)
    y_head = data.draw(arrays(np.float64, (head, dim_y), elements=_VALUES), label="y")
    rhs_head = data.draw(arrays(np.float64, (head, dim_y), elements=_VALUES),
                         label="rhs")
    fill = np.random.default_rng(problem_seed)
    ys = np.concatenate([y_head, 5.0 * fill.standard_normal((rows - head, dim_y))])
    rhs = np.concatenate([rhs_head, fill.standard_normal((rows - head, dim_y))])
    y = ys[0] if form == "shared_y" else ys
    b = rhs[0] if form == "shared_rhs" else rhs

    stacked = prob.solve_lower_hess(x, y, b)

    assert stacked.shape == (rows, dim_y)
    y2 = np.broadcast_to(y, (rows, dim_y))
    b2 = np.broadcast_to(b, (rows, dim_y))
    for i in range(rows):
        assert np.array_equal(stacked[i], prob.solve_lower_hess(x, y2[i], b2[i]))


_SCALES = st.sampled_from([0.0, 0.3, 1.0])


@st.composite
def _problems(draw):
    """A small instance of either family with drawn noise channels."""
    dim_x, dim_y = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.sampled_from(["quadratic", "logistic"])) == "quadratic":
        noise = NoiseModel(sigma=draw(_SCALES), radius=draw(_SCALES),
                           hess_scale=draw(_SCALES))
        # a 1-D lower level has mu = L = 1
        kappa = 1.0 if dim_y == 1 else draw(st.floats(1.0, 100.0))
        return make_quadratic_problem(dim_x, dim_y, kappa, noise=noise,
                                      seed=seed)
    n_rows = draw(st.integers(1, 8))
    return make_logistic_problem(dim_x, dim_y, n_rows, seed=seed,
                                 batch_size=draw(st.integers(1, n_rows)),
                                 noise=NoiseModel(radius=draw(_SCALES)))


_RUNS = st.builds(RunConfig, seed=st.integers(0, 2**32 - 1),
                  horizon=st.integers(0, 12), stride=st.integers(1, 4))


@given(problem=_problems(), run=_RUNS)
def test_multiloop_at_one_inner_step_equals_ssaid(problem, run):
    multi = run_multiloop(problem, MultiLoopConfig(1, 1), run)
    single = run_ssaid(problem, run)
    assert multi.csv_text() == single.csv_text()
    for attr in ("x", "y_hat", "v_hat"):
        assert np.array_equal(getattr(multi.final_state, attr),
                              getattr(single.final_state, attr))


@given(problem=_problems(), run=_RUNS, inner=st.integers(1, 4),
       solver=st.integers(1, 4))
def test_multiloop_oracle_counters(problem, run, inner, solver):
    trace = run_multiloop(problem, MultiLoopConfig(inner, solver), run)
    if run.horizon == 0:
        assert (trace.gc_count.tolist(), trace.mv_count.tolist()) == ([0], [0])
        return
    steps = trace.k + 1
    assert np.array_equal(trace.gc_count, (inner + 2) * steps)
    assert np.array_equal(trace.mv_count, (solver + 1) * steps)


@given(data=st.data(), problem=_problems(), seed=st.integers(0, 2**32 - 1),
       horizon=st.integers(0, 12))
def test_history_replay_equals_runner_iterates(data, problem, seed, horizon):
    # entry t of the replay is the iterate entering iteration t, which is
    # the final state of a run of horizon t under the same step sizes
    start = {name: data.draw(arrays(np.float64, dim,
                                    elements=st.floats(-2.0, 2.0)), label=name)
             for name, dim in (("x0", problem.dim_x), ("y0", problem.dim_y),
                               ("v0", problem.dim_y))}
    config = RunConfig(seed=seed, horizon=horizon, **start)
    hist = _simulate_history(problem, config, horizon)
    steps = resolve_step_sizes(problem, config, start["v0"])
    assert [len(hist.xs), len(hist.ys), len(hist.vs), len(hist.gys)] == \
        [horizon + 1] * 3 + [horizon]
    for t in range(horizon + 1):
        final = run_ssaid(problem, RunConfig(seed=seed, horizon=t, steps=steps,
                                             stride=t + 1, **start)).final_state
        assert np.array_equal(hist.xs[t], final.x)
        assert np.array_equal(hist.ys[t], final.y_hat)
        assert np.array_equal(hist.vs[t], final.v_hat)


_TAGS = st.sampled_from([TAG_LOWER_GRAD, TAG_UPPER_GRAD, TAG_CROSS_OP,
                         TAG_HESS_OP])
# (seed, iteration, tag, slot); few seeds and small indices, so that drawn
# addresses often share all but one word
_ADDRESSES = st.lists(
    st.tuples(st.one_of(st.integers(0, 2), st.integers(0, 2**64 - 1)),
              st.one_of(st.integers(0, 3), st.integers(0, 2**40)), _TAGS,
              st.one_of(st.integers(0, 3), st.just(BRANCH_SLOT))),
    min_size=1, max_size=10, unique=True)


@given(data=st.data(), addresses=_ADDRESSES)
def test_stream_factory_draws_depend_only_on_the_address(data, addresses):
    def draws(order):
        factories = {}
        out = {}
        for seed, k, tag, slot in order:
            factory = factories.setdefault(seed, StreamFactory(seed))
            out[seed, k, tag, slot] = factory.at(k, tag, slot).random(4).tobytes()
        return out

    first = draws(addresses)
    # another order, with some addresses revisited after others
    order = data.draw(st.permutations(addresses), label="order")
    assert draws(order + order[::2]) == first
    assert first == {a: stream(*a).random(4).tobytes() for a in addresses}
    assert len(set(first.values())) == len(addresses)
