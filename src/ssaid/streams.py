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

Because no draw reads an iterate, a second process can make a run's draws
ahead of time with the same bytes: ``row_streams`` lets a forked child draw
a lock-step batch's lower-gradient noise and pipe it to the stepping
process.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import InvalidParameterError
from .fork import forked

__all__ = [
    "TAG_LOWER_GRAD",
    "TAG_UPPER_GRAD",
    "TAG_CROSS_OP",
    "TAG_HESS_OP",
    "BRANCH_SLOT",
    "stream",
    "StreamFactory",
    "RowStreams",
    "row_streams",
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


# bytes of draws that a producer writes to its pipe at a time, about a
# quarter of a default 64 KiB pipe: 68 iterations of three 10-dim seeds
_CHUNK_BYTES = 1 << 14


def _draw_ahead(fd: int, seeds, iters: int, slots: int, dim: int,
                chunk: int):
    """Write to ``fd`` the lower-gradient draws of ``seeds``, distinct, for
    iterations 0..iters-1 and slots 0..slots-1, ``chunk`` iterations at a
    time: per (k, j) the (seeds, dim) float64 draw that
    ``RowStreams(seeds).at(k, TAG_LOWER_GRAD, j)`` makes, in that order."""
    streams = RowStreams(seeds)
    shape = (len(seeds), dim)
    for base in range(0, iters, chunk):
        draws = np.empty((min(chunk, iters - base), slots, *shape))
        for k, slot_draws in enumerate(draws, base):
            for j, out in enumerate(slot_draws):
                out[...] = streams.at(k, TAG_LOWER_GRAD, j).standard_normal(
                    shape)
        view = memoryview(draws).cast("B")
        while view:
            view = view[os.write(fd, view):]


class PipedStreams:
    """``RowStreams``'s lower-gradient draws, read from the pipe that
    ``_draw_ahead`` writes.  ``at(k, TAG_LOWER_GRAD, j)`` selects the draw
    of (k, j), reading the next chunk once k passes the current one, so k
    must not decrease; one ``standard_normal`` per address returns its rows.
    The producer draws every seed throughout, and ``select`` only drops
    rows.  ``join`` reaps a producer that closed the pipe early, raising
    its failure."""

    def __init__(self, fd: int, join, seeds, iters: int, slots: int,
                 dim: int, chunk: int):
        distinct = list(dict.fromkeys(seeds))
        self._rows = np.array([distinct.index(s) for s in seeds])
        self._fd, self._join, self._iters = fd, join, iters
        self._draws = np.empty((chunk, slots, len(distinct), dim))
        self._base, self._count = 0, 0   # the chunk's first k and its length

    def select(self, keep):
        self._rows = self._rows[np.asarray(keep, dtype=bool)]

    def _read_chunk(self):
        self._base += self._count
        self._count = min(len(self._draws), self._iters - self._base)
        view = memoryview(self._draws[:self._count]).cast("B")
        while view:
            got = os.readv(self._fd, [view])
            if not got:
                self._join()
                raise RuntimeError("the draw producer closed its pipe early")
            view = view[got:]

    def at(self, iteration: int, tag: int, slot: int = 0) -> "PipedStreams":
        while iteration >= self._base + self._count:
            self._read_chunk()
        self._draw = self._draws[iteration - self._base, slot]
        return self

    def standard_normal(self, size):
        return self._draw.take(self._rows, axis=0)


@contextlib.contextmanager
def row_streams(seeds, ahead=None):
    """Context of the draw source of stacked rows under ``seeds``: a
    ``RowStreams``, or with ``ahead`` = (iters, slots, dim) a
    ``PipedStreams`` fed by one forked child (``forked``) that runs
    ``_draw_ahead`` over the distinct seeds.  The caller may then draw only
    the lower gradient, at iterations below iters and slots below slots.
    The rows get the same bytes either way.

    A pipe wakes its reader onto its writer's CPU and back, which would
    keep both processes on one CPU, so while the context lasts the child
    runs on the last usable CPU and this process on the others.  Leaving
    the context stops and reaps the child and restores this process's
    CPUs; where fork fails this is the ``RowStreams``."""
    if ahead is None:
        yield RowStreams(seeds)
        return
    seeds = [_key(s) for s in seeds]
    distinct = list(dict.fromkeys(seeds))
    _, slots, dim = ahead
    ahead = (*ahead, max(1, _CHUNK_BYTES // (8 * slots * len(distinct) * dim)))
    cpus = os.sched_getaffinity(0)
    last = {max(cpus)}
    read, write = os.pipe()
    try:
        def produce(fd=write):
            os.close(read)
            os.sched_setaffinity(0, last)
            _draw_ahead(fd, distinct, *ahead)

        with forked(produce) as join:
            os.close(write)
            write = None
            if join is None:
                yield RowStreams(seeds)
                return
            os.sched_setaffinity(0, cpus - last or cpus)
            yield PipedStreams(read, join, seeds, *ahead)
            join(stop=True)
    finally:
        os.sched_setaffinity(0, cpus)
        os.close(read)
        if write is not None:
            os.close(write)
