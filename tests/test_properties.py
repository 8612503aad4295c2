"""Property tests: invariants checked over drawn inputs (see conftest.py)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from ssaid.problems import _SOLVE_BLOCK, make_logistic_problem  # noqa: E402

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
