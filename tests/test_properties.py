"""Property tests: invariants checked over drawn inputs (see conftest.py)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ssaid import harness  # noqa: E402
from ssaid import problems as problems_mod  # noqa: E402
from ssaid import ssaid as core  # noqa: E402
from ssaid import streams as streams_mod  # noqa: E402
from ssaid.baselines import MultiLoopConfig, run_multiloop  # noqa: E402
from ssaid.errors import ConvergenceFailureError, DivergenceError  # noqa: E402
from ssaid.hypergradient import StepSizes  # noqa: E402
from ssaid.problems import (_SOLVE_BLOCK, REFERENCE_TOL,  # noqa: E402
                            NoiseModel, make_logistic_problem,
                            make_quadratic_problem, problem_from_json,
                            problem_to_json, reference_solution)
from ssaid.ssaid import (TRACE_COLUMNS, IterationTrace,  # noqa: E402
                         RunConfig, resolve_step_sizes, run_ssaid)
from ssaid.streams import (BRANCH_SLOT, TAG_CROSS_OP,  # noqa: E402
                           TAG_HESS_OP, TAG_LOWER_GRAD, TAG_UPPER_GRAD,
                           RowStreams, StreamFactory, stream)
from ssaid.verification import _simulate_history  # noqa: E402

_VALUES = st.floats(-50.0, 50.0, allow_nan=False)
# few rows, and row counts on each side of one and two solve blocks
_ROWS = st.one_of(st.integers(1, 6),
                  st.sampled_from([_SOLVE_BLOCK - 1, _SOLVE_BLOCK, _SOLVE_BLOCK + 1,
                                   2 * _SOLVE_BLOCK + 3]))


@given(data=st.data(), problem_seed=st.integers(0, 2**32 - 1),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 12)),
       rows=_ROWS, form=st.sampled_from(["rows", "shared_y", "shared_rhs"]),
       family=st.sampled_from(["quadratic", "logistic"]),
       kappa=st.floats(1.0, 100.0))
def test_stacked_solve_equals_per_row_solves(data, problem_seed, dims, rows,
                                             form, family, kappa):
    # a multi-column solve would give each row bits that depend on the
    # other rows
    dim_x, dim_y, extra_rows = dims
    if family == "logistic":
        prob = make_logistic_problem(dim_x, dim_y, 4 + extra_rows,
                                     seed=problem_seed)
    else:
        # a 1-D lower level has mu = L = 1
        prob = make_quadratic_problem(dim_x, dim_y, 1.0 if dim_y == 1 else kappa,
                                      seed=problem_seed)
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
def _problems(draw, families=("quadratic", "logistic")):
    """A small instance of a drawn family with drawn noise channels."""
    dim_x, dim_y = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.sampled_from(families)) == "quadratic":
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


@given(data=st.data(), problem=_problems(), seed=st.integers(0, 2**32 - 1),
       horizon=st.integers(1, 40))
def test_v_bound_holds_on_every_step(data, problem, seed, horizon):
    # with eta <= 1/L each sampled adjoint step contracts v by 1 - eta mu
    # and adds at most eta M, so ||v_k|| <= ||v0|| + M/mu on every step
    c = problem.constants
    v0 = data.draw(arrays(np.float64, problem.dim_y,
                          elements=st.floats(-5.0, 5.0)), label="v0")
    eta = data.draw(st.floats(0.05, 1.0), label="eta * L") / c.lipschitz_L
    alpha = data.draw(st.floats(0.05, 1.0), label="alpha / eta") * eta
    auto = resolve_step_sizes(problem, RunConfig(seed=seed, horizon=horizon),
                              v0)
    steps = StepSizes(alpha=alpha, eta=eta, beta=auto.beta,
                      horizon_k=horizon)
    trace = run_ssaid(problem, RunConfig(seed=seed, horizon=horizon,
                                         steps=steps, stride=1, v0=v0))
    assert trace.n_rows == horizon
    cap = float(np.linalg.norm(v0)) + c.lipschitz_M / c.mu
    assert float(trace.v_norm.max()) <= cap + 1e-9


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


# ---------------------------------------------------------------------------
# the sweep's lock-step groups


@st.composite
def _quadratic_batches(draw, max_dim=4):
    """1-3 small quadratic instances, as one sweep batch holds them: one
    set of dimensions, drawn noise channels and problem seed, and distinct
    kappa."""
    dim_x, dim_y = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    noise = NoiseModel(sigma=draw(_SCALES), radius=draw(_SCALES),
                       hess_scale=draw(_SCALES))
    # a 1-D lower level has mu = L = 1
    kappas = [1.0] if dim_y == 1 else draw(
        st.lists(st.floats(1.0, 30.0), min_size=1, max_size=3, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    return [make_quadratic_problem(dim_x, dim_y, kappa, noise=noise, seed=seed)
            for kappa in kappas]


_SEED_SETS = st.lists(st.integers(0, 50), min_size=1, max_size=5)


@given(data=st.data(), problems=_quadratic_batches(max_dim=5),
       seeds=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       shared_x=st.booleans())
def test_stacked_quadratic_products_equal_one_row_calls(data, problems, seeds,
                                                       shared_x):
    # row i of the row-stacked view is problem owner[i]; seeds repeat often
    rows = len(seeds)
    owner = data.draw(st.lists(st.integers(0, len(problems) - 1),
                               min_size=rows, max_size=rows), label="owner")
    view = problems_mod._stack_quadratics([problems[o] for o in owner])
    assert (view.dim_x, view.dim_y) == (problems[0].dim_x, problems[0].dim_y)
    xs = data.draw(arrays(np.float64, (rows, view.dim_x), elements=_VALUES),
                   label="x")
    y, v = (data.draw(arrays(np.float64, (rows, view.dim_y),
                             elements=_VALUES), label=name)
            for name in ("y", "v"))
    x = xs[0] if shared_x else xs
    k = data.draw(st.integers(0, 2**20), label="k")

    def one(i, tag):
        return StreamFactory(seeds[i]).at(k, tag)

    stacked = {
        "lower_grad_y": view.lower_grad_y(x, y),
        "lower_hess_vec": view.lower_hess_vec(x, y, v),
        "lower_cross_vec": view.lower_cross_vec(x, y, v),
        "sample_lower_grad": view.sample_lower_grad(
            x, y, RowStreams(seeds).at(k, TAG_LOWER_GRAD), reps=rows),
        "sample_upper_grads": np.concatenate(view.sample_upper_grads(
            x, y, RowStreams(seeds).at(k, TAG_UPPER_GRAD), reps=rows), axis=1),
        "hvp": view.sample_hess_operator(
            x, RowStreams(seeds).at(k, TAG_HESS_OP), reps=rows)(y, v),
        "jvp": view.sample_cross_operator(
            x, RowStreams(seeds).at(k, TAG_CROSS_OP), reps=rows)(y, v),
    }
    for i in range(rows):
        problem = problems[owner[i]]
        xi, yi, vi = xs[0 if shared_x else i].copy(), y[i].copy(), v[i].copy()
        single = {
            "lower_grad_y": problem.lower_grad_y(xi, yi),
            "lower_hess_vec": problem.lower_hess_vec(xi, yi, vi),
            "lower_cross_vec": problem.lower_cross_vec(xi, yi, vi),
            "sample_lower_grad": problem.sample_lower_grad(
                xi, yi, one(i, TAG_LOWER_GRAD)),
            "sample_upper_grads": np.concatenate(problem.sample_upper_grads(
                xi, yi, one(i, TAG_UPPER_GRAD))),
            "hvp": problem.sample_hess_operator(
                xi, one(i, TAG_HESS_OP))(yi, vi),
            "jvp": problem.sample_cross_operator(
                xi, one(i, TAG_CROSS_OP))(yi, vi),
        }
        for name, want in single.items():
            assert np.array_equal(stacked[name][i], want), name

    # rows of one seed draw that seed's bytes at the address, also after
    # select drops some of them and keeps others
    keep = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)
                     .filter(any), label="keep")
    streams = RowStreams(seeds)
    streams.select(keep)
    live = [seed for seed, kept in zip(seeds, keep) if kept]
    slot = data.draw(st.integers(0, 3), label="slot")
    # and a second draw after one ``at`` continues each seed's stream
    streams.at(k, TAG_LOWER_GRAD, slot)
    normal = streams.standard_normal((len(live), 3))
    again = streams.standard_normal((len(live), 3))
    uniform = streams.at(k, TAG_HESS_OP, slot).uniform(0.0, 2.0, (len(live),))
    for i, seed in enumerate(live):
        gen = stream(seed, k, TAG_LOWER_GRAD, slot)
        assert normal[i].tobytes() == gen.standard_normal(3).tobytes()
        assert again[i].tobytes() == gen.standard_normal(3).tobytes()
        assert uniform[i] == stream(seed, k, TAG_HESS_OP, slot).uniform(0.0, 2.0)


class _InfiniteDraws:
    """Stands in for a generator: every draw is +inf."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.full(size, np.inf)
        out[...] = np.inf
        return out

    def uniform(self, low, high, size=None):
        return np.full(size, np.inf)


_POISONED_SEED = 2**63 + 5   # outside the drawn seeds


def _poisoned_factory(start):
    """A StreamFactory class whose draws under ``_POISONED_SEED`` turn
    infinite from iteration ``start`` on, so that seed's run diverges there
    if the problem draws at all."""

    class Poisoned(StreamFactory):
        def at(self, iteration, tag, slot=0):
            gen = super().at(iteration, tag, slot)
            if self.seed == _POISONED_SEED and iteration >= start:
                return _InfiniteDraws()
            return gen

    return Poisoned


def _trace(problem, algorithm, seed, max_iters):
    """The runner's trace of one sweep cell's run: its rows sit at the
    sweep's check iterations and hold the same stationarity measure.  A
    diverged run keeps the rows recorded before."""
    run = RunConfig(seed=seed, horizon=max_iters,
                    stride=max(1, max_iters // harness._SWEEP_CHECKS))
    try:
        if algorithm == "ssaid":
            return run_ssaid(problem, run)
        return run_multiloop(problem, harness.parse_algorithm(algorithm, 1.0),
                             run)
    except DivergenceError as err:
        return err.trace


def _cell_from_trace(trace, epsilon):
    """A sweep cell by brute force: it crosses at the first trace row whose
    running average reaches epsilon."""
    total = 0.0
    for n, (g, gc, mv) in enumerate(zip(trace.grad_phi_sq, trace.gc_count,
                                        trace.mv_count), start=1):
        total += float(g)
        if total / n <= epsilon:
            return int(max(gc, mv)), False
    return None, True


@given(problems=_quadratic_batches(), seeds=_SEED_SETS,
       algorithms=st.one_of(
           st.sampled_from([["ssaid"], ["ssaid", "multiloop:1:1"]]),
           st.builds(lambda n, q: [f"multiloop:{n}:{q}"],
                     st.integers(1, 3), st.integers(1, 3))),
       max_iters=st.one_of(st.integers(1, 60), st.integers(300, 1000)),
       checks=st.integers(8, 64),
       pivot=st.floats(0.0, 1.0), scale=st.sampled_from([1.0, 1.0, 0.5, 2.0]),
       poison=st.one_of(st.none(), st.tuples(st.integers(0, 4),
                                             st.integers(0, 3))))
# nine crossings and one divergence
@example(problems=[make_quadratic_problem(4, 4, kappa,
                                          noise=NoiseModel(sigma=1.0))
                   for kappa in (5.0, 2.0)],
         seeds=[0, 1, 2, 3], algorithms=["ssaid"], max_iters=1000, checks=64,
         pivot=0.6, scale=1.0, poison=(2, 300))
# the single loop and the (1, 1) baseline share one batch
@example(problems=[make_quadratic_problem(4, 4, kappa,
                                          noise=NoiseModel(sigma=1.0))
                   for kappa in (5.0, 2.0)],
         seeds=[0, 3], algorithms=["ssaid", "multiloop:1:1"], max_iters=1000,
         checks=64, pivot=0.6, scale=1.0, poison=(1, 300))
def test_lock_step_group_equals_one_seed_cells(problems, seeds, algorithms,
                                               max_iters, checks, pivot,
                                               scale, poison):
    preset = harness.parse_algorithm(algorithms[0], 1.0)
    assert {harness.parse_algorithm(a, 1.0) for a in algorithms} == {preset}
    with pytest.MonkeyPatch.context() as mp:
        # fewer checks per run, so that small caps have strides above 1
        mp.setattr(harness, "_SWEEP_CHECKS", checks)
        # epsilon is the first row's running average at a drawn check row,
        # so the rows cross near that row, at different rows, or never
        # (scale 0.5), or at the first row (scale 2)
        first = _trace(problems[0], algorithms[0], seeds[0], max_iters)
        ra = first.running_average()
        epsilon = scale * float(ra[round(pivot * (ra.size - 1))])
        if poison is not None:
            # one more seed, whose draws turn infinite at iteration `start`
            position, start = poison
            seeds = seeds[:position] + [_POISONED_SEED] + seeds[position:]
            for module in (streams_mod, core):
                mp.setattr(module, "StreamFactory", _poisoned_factory(start))
        # every problem's rows follow the same seeds, as in a sweep batch
        cells = [(algorithm, problem, seed) for algorithm in algorithms
                 for problem in problems for seed in seeds]
        group = harness._run_group([(problem, seed) for _, problem, seed
                                    in cells], preset, epsilon, max_iters)
        one_row = [harness._run_to_epsilon(problem, None, preset, seed,
                                           epsilon, max_iters)
                   for _, problem, seed in cells]
        brute = [_cell_from_trace(_trace(problem, algorithm, seed, max_iters),
                                  epsilon)
                 for algorithm, problem, seed in cells]
    assert group == one_row == brute
    if poison is not None and poison[1] == 0 and problems[0].stochastic_tags:
        # it diverges in its first step, before any check row
        assert all(out == (None, True) for out, (_, _, seed) in zip(group, cells)
                   if seed == _POISONED_SEED)


@given(problem=_problems(), data=st.data())
def test_reference_residuals_stay_under_tolerance(problem, data):
    x = data.draw(arrays(np.float64, problem.dim_x, elements=_VALUES), label="x")
    ref = reference_solution(problem, x)
    lip = problem.constants.lipschitz_L   # bounds the lower Hessian's norm
    # the residual of an exact solve is the rounding of the products that
    # form it, so the bound scales with their size
    rhs = problem.upper.grad_y(x, ref.y_star)
    assert ref.residuals["adjoint"] <= REFERENCE_TOL * max(
        1.0, lip * np.linalg.norm(ref.v_star) + np.linalg.norm(rhs))
    if problem.family == "logistic":
        # Newton returns only once the gradient norm is this small
        assert ref.residuals["lower"] <= REFERENCE_TOL
    else:
        lin = -problem.lower_grad_y(x, np.zeros(problem.dim_y))
        assert ref.residuals["lower"] <= REFERENCE_TOL * max(
            1.0, lip * np.linalg.norm(ref.y_star) + np.linalg.norm(lin))


# ---------------------------------------------------------------------------
# stacked reference solves


def _stacked_points(data, problem, rows):
    """``rows`` points x in [-50, 50]: drawn head rows, then a seeded fill,
    so that large row counts stay cheap to draw and to shrink."""
    head = min(rows, 3)
    x_head = data.draw(arrays(np.float64, (head, problem.dim_x),
                              elements=_VALUES), label="x")
    fill = np.random.default_rng(problem.seed)
    return np.concatenate([x_head, fill.uniform(-50.0, 50.0,
                                                (rows - head, problem.dim_x))])


# one row, a few, and one past a solve block
_REF_ROWS = st.sampled_from([1, 2, 3, _SOLVE_BLOCK + 1])


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@given(data=st.data(), rows=_REF_ROWS)
def test_stacked_reference_rows_equal_one_row_calls(family, data, rows):
    problem = data.draw(_problems(families=(family,)), label="problem")
    x = _stacked_points(data, problem, rows)
    stacked = reference_solution(problem, x)
    for i in range(rows):
        one = reference_solution(problem, x[i].copy())
        for name in ("y_star", "v_star", "grad_phi"):
            assert np.array_equal(getattr(stacked, name)[i],
                                  getattr(one, name)), name
        for name, res in one.residuals.items():
            assert stacked.residuals[name][i] == res, name


@given(data=st.data(), problem=_problems(families=("logistic",)),
       rows=_REF_ROWS, tol=st.sampled_from([-1.0, 0.0, 1e-16, 1e-15]))
def test_stacked_newton_failure_is_the_first_failing_row(data, problem, rows,
                                                        tol):
    # a stopping tolerance no row can meet, or one at the rounding floor,
    # which some rows meet and others do not
    x = _stacked_points(data, problem, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems_mod, "REFERENCE_TOL", tol)
        first = None
        for i in range(rows):
            try:
                reference_solution(problem, x[i].copy())
            except ConvergenceFailureError as err:
                first = err
                break
        if first is None:
            reference_solution(problem, x)
            return
        with pytest.raises(ConvergenceFailureError) as info:
            reference_solution(problem, x)
    assert info.value.residual == first.residual
    assert str(info.value) == str(first)


# ---------------------------------------------------------------------------
# round trips

_CELLS = st.one_of(st.floats(), st.floats(-1e3, 1e3))
_TRACE_ROWS = st.lists(
    st.tuples(st.integers(0, 2**62), *[_CELLS] * 6, st.integers(0, 2**62),
              st.integers(0, 2**62)), max_size=6)


@given(rows=_TRACE_ROWS)
def test_trace_csv_round_trips_byte_for_byte(rows):
    cols = list(zip(*rows)) or [()] * len(TRACE_COLUMNS)
    text = IterationTrace.from_columns(cols).csv_text()
    assert text.splitlines()[0] == ",".join(TRACE_COLUMNS)
    assert IterationTrace.from_csv_text(text).csv_text() == text


@given(problem=_problems(), run=_RUNS)
def test_run_trace_csv_round_trips_byte_for_byte(problem, run):
    text = run_ssaid(problem, run).csv_text()
    assert IterationTrace.from_csv_text(text).csv_text() == text


@given(problem=_problems())
def test_problem_json_round_trips_byte_for_byte(problem):
    text = problem_to_json(problem)
    assert problem_to_json(problem_from_json(text)) == text
