"""In-process span tracer for the per-layer run.

The tracer wraps the public functions of each ``ssaid`` module from the
outside (module attributes and class methods are swapped for timing
wrappers and put back afterwards), so the program itself is not edited.
Every wrapped call opens a span with a name, start, end, parent and thread.

Every span is folded into per-thread totals when it closes: call count,
self time, and the distinct inputs where a metric needs them.  Spans other
than the hot ones (the per-iteration oracles, steps and solves, which occur
millions of times in a sweep) are also kept whole in memory and written
out as JSON lines when the run ends.  A span's self time is its busy time
minus the busy time of its child spans; children of one span run on its
thread one after the other, so their times add.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

HOT = frozenset({
    "streams.at",
    "problems.sample_lower_grad", "problems.sample_upper_grads",
    "problems.sample_hess_operator", "problems.sample_cross_operator",
    "problems.sample_batched", "problems.operator_apply",
    "problems.reference_solution", "problems.lower_solution",
    "problems.solve_lower_hess",
    "ssaid.ssaid_step", "baselines.multiloop_step", "calibrate",
})


class _Thread(threading.local):
    """One thread's open spans and totals; the totals register themselves
    with the tracer the first time a thread records a span."""

    def __init__(self, registry, lock):
        self.stack = []        # [children's busy time, child count] per span
        self.kept_stack = []   # indices of the open kept spans
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.keys = defaultdict(set)
        with lock:
            registry.append((self.calls, self.busy, self.keys))


_clock = time.thread_time


class Tracer:
    """Span recorder shared by the wrappers of one traced run.

    Busy time is the thread's CPU time (``time.thread_time``): the sweep
    runs cells on two threads that take turns holding the interpreter lock,
    and wall-clock spans would count the turns of the other thread.  A
    child span costs its parent some time outside the child's own clock
    readings; ``calibrate`` measures that cost so that it is left out of the
    parent's self time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = []
        self._local = _Thread(self._threads, self._lock)
        self.kept = []              # [name, start, end, parent, thread]
        self.command = 0            # index of the CLI command being run
        self.in_verify = False      # whether that command is ``verify``
        self.counters = defaultdict(float)
        self.cells = []             # (wall_s, cpu_s) per sweep cell
        self.per_child_s = 0.0

    def cell_start(self, wall, cpu):
        self._local.cell = (wall, cpu)

    def cell_end(self, result):
        wall, cpu = self._local.cell
        with self._lock:
            self.cells.append((time.perf_counter() - wall,
                               time.thread_time() - cpu))
        return result

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def distinct(self, name, key):
        self._local.keys[name].add((self.command, key))

    def span(self, name, fn, post=None):
        """Wrap ``fn`` so each call is one span called ``name``; ``post``
        maps the result inside the span."""
        timed = self._timed

        def wrapper(*args, **kwargs):
            return timed(name, fn, args, kwargs, post)

        return wrapper

    def _timed(self, name, fn, args, kwargs, post=None):
        local = self._local
        stack = local.stack
        rec = None
        if name not in HOT:
            kept = local.kept_stack
            with self._lock:
                rec = [name, time.perf_counter(), None,
                       kept[-1] if kept else None, threading.get_ident()]
                kept.append(len(self.kept))
                self.kept.append(rec)
        frame = [0.0, 0]
        stack.append(frame)
        start = _clock()
        try:
            out = fn(*args, **kwargs)
            return out if post is None else post(out)
        finally:
            busy = _clock() - start
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[0] += busy
                parent[1] += 1
            local.calls[name] += 1
            local.busy[name] += busy - frame[0] - frame[1] * self.per_child_s
            if rec is not None:
                local.kept_stack.pop()
                rec[2] = time.perf_counter()

    def calibrate(self, n=20_000, repeats=5):
        """Median over ``repeats`` of the busy time per child span that a
        parent sees beyond the child's recorded busy time and the bare
        call, from ``n`` spans around a no-op."""
        def noop():
            return None

        child = self.span("calibrate", noop)
        samples = []
        for _ in range(repeats):
            recorded = self.self_s("calibrate")
            t0 = _clock()
            for _ in range(n):
                child()
            t1 = _clock()
            for _ in range(n):
                noop()
            t2 = _clock()
            recorded = self.self_s("calibrate") - recorded
            samples.append(((t1 - t0) - recorded - (t2 - t1)) / n)
        for calls, busy, _ in self._threads:
            calls.pop("calibrate", None)
            busy.pop("calibrate", None)
        self.per_child_s = sorted(samples)[repeats // 2]

    def calls(self, name):
        return sum(t[0].get(name, 0) for t in self._threads)

    def self_s(self, name):
        return sum(t[1].get(name, 0.0) for t in self._threads)

    def n_distinct(self, name):
        keys = set()
        for t in self._threads:
            keys |= t[2].get(name, set())
        return len(keys)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, thread in self.kept:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}))
                fh.write("\n")


class Patches:
    """Attribute swaps that are undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer, patches):
    """Wrap the layer boundaries of the ``ssaid`` package; return the
    boundaries that were not found, whose metrics then read 0.

    Functions imported by name into another module are swapped in every
    module that holds them, since each holds its own reference.
    """
    from ssaid import baselines, harness, problems, streams, verification
    from ssaid import ssaid as core

    tracer.calibrate()
    missing = []

    def swap(name, owner, attr, users=(), before=None, after=None):
        """Span ``name`` around ``owner.attr``, or no span when ``name`` is
        None.  ``before`` sees the call's arguments and ``after`` its
        result, both inside the span."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        inner = fn
        if before is not None:
            def inner(*args, **kwargs):
                before(*args, **kwargs)
                return fn(*args, **kwargs)
        wrapped = inner if name is None else tracer.span(name, inner, after)
        for target in (owner, *users):
            if target.__dict__.get(attr) is fn:
                patches.set(target, attr, wrapped)

    def count(name, key):
        tracer.count(name)
        tracer.distinct(name, key)

    # streams
    swap("streams.at", streams.StreamFactory, "at")

    # problems: single draws, batched draws, the returned operators, solves
    for cls in (problems._BilevelProblemBase, problems.QuadraticBilevelProblem,
                problems.LogisticBilevelProblem):
        for meth in ("sample_lower_grad", "sample_upper_grads",
                     "sample_hess_operator", "sample_cross_operator"):
            if meth in cls.__dict__:
                patches.set(cls, meth, _sampler(tracer, meth, cls.__dict__[meth]))
    for cls in (problems.QuadraticBilevelProblem,
                problems.LogisticBilevelProblem):
        for meth in ("lower_solution", "solve_lower_hess"):
            swap(f"problems.{meth}", cls, meth)
    swap("problems.reference_solution", problems, "reference_solution",
         (core, harness, verification),
         before=lambda problem, x: tracer.distinct(
             "problems.reference_solution", x.tobytes()))
    for attr in ("problem_from_json", "make_quadratic_problem",
                 "make_logistic_problem"):
        swap("problems.construct", problems, attr, (harness,))

    # ssaid and baselines
    def history_step(state, *args, **kwargs):
        if tracer.in_verify:
            count("verification.history_steps", state.k)

    swap("ssaid.ssaid_step", core, "ssaid_step", (harness,),
         before=history_step)
    def rows(trace):
        tracer.count("ssaid.trace_rows", trace.n_rows)
        return trace

    swap("ssaid.run_ssaid", core, "run_ssaid", (harness, verification),
         after=rows)
    swap("ssaid.csv_text", core.IterationTrace, "csv_text")
    swap("baselines.multiloop_step", baselines, "multiloop_step", (harness,))

    # verification: the five checks, branches and history replays
    for attr in ("check_lower_tracking", "check_bias_recursions",
                 "check_coupled_recursion", "check_cumulative_bounds",
                 "check_v_bound"):
        swap(f"verification.{attr}", verification, attr, (harness,))
    swap(None, verification, "_branch_iteration",
         before=lambda problem, steps, hist, k, mc: count(
             "verification.branches", k))

    def replay(problem, config, horizon):
        tracer.count("verification.history_steps", horizon)
        for k in range(horizon):
            tracer.distinct("verification.history_steps", k)

    swap(None, verification, "_simulate_history",
         before=replay)

    # harness: sweep cells and artifact writes
    def cell_clock(*args, **kwargs):
        tracer.cell_start(time.perf_counter(), time.thread_time())

    swap("harness.cell", harness, "_run_to_epsilon", before=cell_clock,
         after=tracer.cell_end)
    swap("harness.emit", harness, "_emit",
         before=lambda path, text: tracer.count("harness.emit.bytes",
                                                len(text.encode())))
    return missing


def _sampler(tracer, meth, fn):
    """Sample-method wrapper: single draws and ``reps`` batches are
    separate spans, and the returned operator closures are wrapped too."""
    single = f"problems.{meth}"

    def operator(out):
        if callable(out):
            return tracer.span("problems.operator_apply", out)
        return out

    def wrapper(self, *args, reps=None, **kwargs):
        kwargs["reps"] = reps
        return tracer._timed(single if reps is None else "problems.sample_batched",
                             fn, (self, *args), kwargs, operator)

    return wrapper
