"""``sweep`` and ``compare`` on two CPUs: from the command line, one forked
child per lock-step group draws the group's noise ahead and pipes it to the
stepping process, and the artifacts keep the bytes of the serial library
call.  Every fork happens in a subprocess, never in the test runner's own
process.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ssaid.harness import SweepSpec, kappa_sweep, main

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

CASES = {
    # several groups, each with several draw slots per iteration
    "presets": ["compare", "--kappa-grid", "2,5", "--seeds", "0,1",
                "--algorithms", "ssaid,multiloop,multiloop:3:2",
                "--max-iters", "3000", "--dim", "4"],
    # every row resolves after about 20k of 4M iterations, so the command
    # stops the child long before it has drawn them all
    "early": ["sweep", "--kappa-grid", "2", "--seeds", "0,1,2",
              "--max-iters", "4000000", "--dim", "4"],
    # the rows cross epsilon at different checks and leave one by one
    "staggered": ["sweep", "--kappa-grid", "2,10", "--seeds", "0,1,2,3",
                  "--max-iters", "20000", "--dim", "4"],
    # no noise, nothing to draw: the command steps without a child
    "noiseless": ["sweep", "--kappa-grid", "2,10", "--seeds", "0,1",
                  "--max-iters", "2000", "--dim", "4", "--sigma", "0"],
}


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("cpus", ["usable", "one"])
def test_command_writes_the_bytes_of_the_library_call(case, cpus, tmp_path):
    argv = CASES[case]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out-dir", str(tmp_path / "main")])
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "ssaid", *argv,
         "--out-dir", str(tmp_path / "cli")],
        env=ENV, capture_output=True, text=True, timeout=120,
        preexec_fn=_one_cpu if cpus == "one" else None)
    assert proc.returncode == code, proc.stderr
    want = sorted((tmp_path / "main").iterdir())
    got = sorted((tmp_path / "cli").iterdir())
    assert [p.name for p in got] == [p.name for p in want]
    for have, expect in zip(got, want):
        assert have.read_bytes() == expect.read_bytes(), have.name


def _fork_raising(error):
    def fork():
        raise error
    return fork


def test_library_sweep_never_forks(tmp_path, monkeypatch):
    # only ``cli`` forks; ``kappa_sweep`` and ``main`` stay serial in their
    # caller's process
    monkeypatch.setattr(os, "fork",
                        _fork_raising(AssertionError("a library call forked")))
    spec = SweepSpec(kappa_grid=(2.0,), seeds=(0, 1), epsilon=0.1,
                     max_iters=500, dim_x=3, dim_y=3)
    assert len(kappa_sweep(spec).rows) == 2
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*CASES["presets"], "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "compare.csv").read_text()


def test_a_failed_fork_steps_serially(tmp_path, monkeypatch):
    argv = CASES["staggered"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out-dir", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(os, "fork", _fork_raising(
            BlockingIOError("no process to spare")))
        assert main([*argv, "--out-dir", str(tmp_path / "fork")],
                    fork=True) == 0
    for name in ("sweep.csv", "sweep_summary.json"):
        assert (tmp_path / "fork" / name).read_bytes() == (
            tmp_path / "serial" / name).read_bytes()


def test_staggered_rows_leave_at_different_checks(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*CASES["staggered"], "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    complexities = [row.split(",")[3] for row in rows]
    assert "" not in complexities
    assert len(set(complexities)) >= len(rows) - 1


# the command under ``main(fork=True)``, as ``cli`` runs it on two CPUs,
# with one process failing mid-group; the first print is block-buffered,
# so a child that flushed its copy of stdout would print it twice
_FAILING_GROUP = """
import os
import sys

from ssaid import harness, streams
from ssaid.harness import main

parent = os.getpid()
where = sys.argv[1]
draw = streams.RowStreams.standard_normal
step = harness.iterate


def child_fails(self, size):
    if os.getpid() != parent:
        raise ValueError("the producer's draw failed")
    return draw(self, size)


def parent_interrupted(problem, factory, k, *args):
    if k == 500:
        raise KeyboardInterrupt
    return step(problem, factory, k, *args)


if where == "child":
    streams.RowStreams.standard_normal = child_fails
else:
    harness.iterate = parent_interrupted
print("before the command")
try:
    main(sys.argv[2:], fork=True)
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", file=sys.stderr)
"""


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_group_fails_the_command_and_reaps_the_child(where,
                                                               tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_GROUP, where,
         *CASES["staggered"], "--out-dir", str(tmp_path)],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == "before the command\n"
    assert proc.stderr.count("no child left") == 1
    if where == "child":
        # the child's own traceback, then this process's error
        assert proc.stderr.count("ValueError: the producer's draw failed") == 1
        assert "RuntimeError: the forked worker exited with code 1" in (
            proc.stderr)
    else:
        assert proc.stderr.splitlines().count("KeyboardInterrupt") == 1
        assert "ValueError" not in proc.stderr
    assert not list(tmp_path.iterdir())


# ``row_streams`` in a fresh interpreter: the piped rows against the serial
# ones over two slots, a repeated seed and rows that leave the batch
_PIPED = """
import numpy as np

from ssaid.streams import TAG_LOWER_GRAD, PipedStreams, RowStreams, row_streams

seeds, iters, slots, dim = [7, 3, 7, 11], 200, 2, 3
serial = RowStreams(seeds)
with row_streams(seeds, (iters, slots, dim)) as piped:
    print(type(piped) is PipedStreams)
    same = True
    for k in range(iters):
        for j in range(slots):
            rows = len(serial._rows)
            want = serial.at(k, TAG_LOWER_GRAD, j).standard_normal((rows, dim))
            got = piped.at(k, TAG_LOWER_GRAD, j).standard_normal((rows, dim))
            same &= want.tobytes() == got.tobytes()
        if k in (50, 120):
            keep = [True] * rows
            keep[0] = False
            serial.select(keep)
            piped.select(keep)
print(same)
"""


def test_piped_rows_have_the_bytes_of_the_serial_rows():
    proc = subprocess.run([sys.executable, "-c", _PIPED], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
