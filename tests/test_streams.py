"""Stream addressing: determinism, independence, and factory reuse."""

import numpy as np
import pytest

from ssaid.errors import InvalidParameterError
from ssaid.streams import (
    BRANCH_SLOT,
    TAG_CROSS_OP,
    TAG_HESS_OP,
    TAG_LOWER_GRAD,
    TAG_UPPER_GRAD,
    StreamFactory,
    stream,
)

ALL_TAGS = [TAG_LOWER_GRAD, TAG_UPPER_GRAD, TAG_CROSS_OP, TAG_HESS_OP]


def test_same_address_same_draws():
    a = stream(123, 7, TAG_LOWER_GRAD).standard_normal(16)
    b = stream(123, 7, TAG_LOWER_GRAD).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_addresses_differ():
    base = stream(123, 7, TAG_LOWER_GRAD).standard_normal(8)
    for other in [stream(123, 8, TAG_LOWER_GRAD),
                  stream(123, 7, TAG_UPPER_GRAD),
                  stream(124, 7, TAG_LOWER_GRAD),
                  stream(123, 7, TAG_LOWER_GRAD, slot=1)]:
        assert not np.array_equal(base, other.standard_normal(8))


def test_factory_matches_fresh_streams():
    # the factory reuses bit generators via state reset; draws must be
    # byte-identical to constructing the stream from scratch
    fac = StreamFactory(99)
    for k in [0, 1, 2, 5, 17, 100000]:
        for tag in ALL_TAGS:
            for slot in [0, 3, BRANCH_SLOT]:
                got = fac.at(k, tag, slot).standard_normal(5)
                want = stream(99, k, tag, slot).standard_normal(5)
                np.testing.assert_array_equal(got, want)


def test_factory_reset_clears_buffered_state():
    fac = StreamFactory(5)
    g = fac.at(3, TAG_HESS_OP)
    g.integers(0, 10, size=7)   # leaves a partially consumed buffer
    g.standard_normal(3)        # and a cached gaussian
    again = fac.at(3, TAG_HESS_OP).standard_normal(4)
    np.testing.assert_array_equal(again, stream(5, 3, TAG_HESS_OP).standard_normal(4))


def test_factory_interleaved_tags_stay_independent():
    fac = StreamFactory(7)
    a1 = fac.at(0, TAG_LOWER_GRAD).standard_normal(4)
    b1 = fac.at(0, TAG_UPPER_GRAD).standard_normal(4)
    a2 = fac.at(1, TAG_LOWER_GRAD).standard_normal(4)
    np.testing.assert_array_equal(a1, stream(7, 0, TAG_LOWER_GRAD).standard_normal(4))
    np.testing.assert_array_equal(b1, stream(7, 0, TAG_UPPER_GRAD).standard_normal(4))
    np.testing.assert_array_equal(a2, stream(7, 1, TAG_LOWER_GRAD).standard_normal(4))


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_extreme_seeds_accepted(seed):
    stream(seed, 0, TAG_LOWER_GRAD).standard_normal(2)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_64_bits_rejected(seed):
    # a masked key would give these the streams of smaller seeds
    with pytest.raises(InvalidParameterError):
        stream(seed, 0, TAG_LOWER_GRAD)
    with pytest.raises(InvalidParameterError):
        StreamFactory(seed)


def test_negative_iteration_rejected():
    with pytest.raises(ValueError):
        stream(0, -1, TAG_LOWER_GRAD)


def test_branch_slot_disjoint_from_inner_slots():
    # multi-loop inner iterations use small slot indices; the branch slot
    # must never collide with them
    assert BRANCH_SLOT > 10**6
    a = stream(3, 2, TAG_LOWER_GRAD, slot=0).standard_normal(4)
    b = stream(3, 2, TAG_LOWER_GRAD, slot=BRANCH_SLOT).standard_normal(4)
    assert not np.array_equal(a, b)


def test_draws_look_standard_normal():
    x = stream(11, 0, TAG_UPPER_GRAD).standard_normal(200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
