"""Deterministic counter-based random streams.

Every stochastic draw in the package is addressed by (seed, iteration,
oracle tag, slot) instead of by position in one shared sequence.  Two runs
that request the same address get the same bytes no matter how many other
draws happened in between.  That is what makes a warm-started multi-loop
baseline reproduce the single-loop trajectory bit-exactly, and what lets
the Monte-Carlo verifier branch thousands of replications off a single
frozen history.

Address layout (Philox 4x64 counter words):
    counter = [draw_position, slot, iteration, tag]
    key     = [seed, fixed salt]

``draw_position`` is advanced by the generator itself; the other three
words plus the seed pin the stream.  Slots 0..N-1 are used for inner-loop
draws (slot j = j-th inner step of a multi-loop iteration; the single-loop
algorithm always uses slot 0, which is why N=Q=1 consumes byte-identical
randomness).  Monte-Carlo branch draws live at BRANCH_SLOT, far above any
realistic inner-loop count.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "TAG_LOWER_GRAD",
    "TAG_UPPER_GRAD",
    "TAG_CROSS_OP",
    "TAG_HESS_OP",
    "BRANCH_SLOT",
    "stream",
    "StreamFactory",
    "RowStreams",
]

# one tag per draw site of a single iteration
TAG_LOWER_GRAD = 1   # lower-level stochastic gradient
TAG_UPPER_GRAD = 2   # upper-level stochastic gradient pair
TAG_CROSS_OP = 3     # sampled cross-derivative (Jacobian-vector) operator
TAG_HESS_OP = 4      # sampled lower Hessian (Hessian-vector) operator

BRANCH_SLOT = 1 << 32

_KEY_SALT = 0x9E3779B97F4A7C15  # arbitrary fixed odd constant


def _key(seed) -> int:
    """``seed`` as a Philox key word; one outside [0, 2^64) is refused."""
    if not 0 <= int(seed) < 1 << 64:
        raise InvalidParameterError(f"a seed must lie in [0, 2^64), got {seed}")
    return int(seed)


def stream(seed: int, iteration: int, tag: int, slot: int = 0) -> np.random.Generator:
    """Fresh generator for one draw address."""
    if iteration < 0 or slot < 0:
        raise ValueError("iteration and slot must be nonnegative")
    bg = np.random.Philox(counter=[0, slot, iteration, tag],
                          key=[_key(seed), _KEY_SALT])
    return np.random.Generator(bg)


class StreamFactory:
    """Cheap repeated access to draw addresses under one seed.

    Keeps one bit generator per tag and rewrites its counter block in place
    instead of allocating a fresh object per call; several times faster in
    the hot loop and byte-identical to :func:`stream`.  Streams for
    different tags are independent objects, so the draws of one iteration
    (which touch each tag at most once per slot) never clobber each other.
    """

    def __init__(self, seed: int):
        self.seed = _key(seed)
        self._cache: dict[int, tuple] = {}

    def at(self, iteration: int, tag: int, slot: int = 0) -> np.random.Generator:
        entry = self._cache.get(tag)
        if entry is None:
            bg = np.random.Philox(counter=[0, 0, 0, tag],
                                  key=[self.seed, _KEY_SALT])
            # plain ints (the key as the constructor derived it) set several
            # times faster than uint64 arrays; buffer_pos = 4 forces each
            # draw to regenerate from the counter
            counter = [0, 0, 0, tag]
            state = {"bit_generator": "Philox",
                     "state": {"counter": counter,
                               "key": [int(w) for w in bg.state["state"]["key"]]},
                     "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                     "has_uint32": 0, "uinteger": 0}
            entry = self._cache[tag] = (bg, np.random.Generator(bg), state,
                                        counter)
        bg, gen, state, counter = entry
        counter[1] = slot
        counter[2] = iteration
        bg.state = state
        return gen


class RowStreams:
    """Draw source for stacked rows that each follow their own seed.

    Rows may share a seed.  ``at(k, tag, slot)`` positions each distinct
    seed's StreamFactory at that address.  A draw of shape ``(rows, *shape)``
    then draws ``shape`` once per seed and gathers the rows, so with
    ``reps=rows`` row i gets exactly the bytes a one-seed run under its seed
    draws there; a further draw continues each seed's stream.  ``select``
    drops the rows that left the batch, and with them the seeds no row
    follows any more.
    """

    def __init__(self, seeds):
        seeds = [_key(s) for s in seeds]
        distinct = list(dict.fromkeys(seeds))
        self.factories = [StreamFactory(s) for s in distinct]
        self._rows = np.array([distinct.index(s) for s in seeds])
        self._gens = []

    def select(self, keep):
        live, self._rows = np.unique(self._rows[np.asarray(keep, dtype=bool)],
                                     return_inverse=True)
        self.factories = [self.factories[i] for i in live.tolist()]

    def at(self, iteration: int, tag: int, slot: int = 0) -> "RowStreams":
        self._gens = [f.at(iteration, tag, slot) for f in self.factories]
        return self

    def standard_normal(self, size):
        out = np.empty((len(self._gens), *size[1:]))
        for gen, row in zip(self._gens, out):
            gen.standard_normal(out=row)
        return out.take(self._rows, axis=0)

    def uniform(self, low, high, size):
        return np.array([gen.uniform(low, high, size[1:])
                         for gen in self._gens]).take(self._rows, axis=0)
