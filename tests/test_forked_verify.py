"""``verify`` on two CPUs: the command line shares CumulativeBias's branches
with one forked child, and its artifacts keep the bytes of the serial
library call.  Every fork happens in a subprocess, never in the test
runner's own process.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ssaid.harness import main

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

FAMILIES = {
    "quadratic": ["--dim", "5", "--kappa", "10", "--sigma", "1",
                  "--radius", "0.5", "--hess-scale", "0.5", "--seed", "3"],
    "logistic": ["--dim", "4", "--seed", "1"],
}
# 100 CumulativeBias branches, enough for both processes to take some
VERIFY = ["--replications", "32", "--checkpoints", "1,5,20,100",
          "--seed", "2", "--mc-seed", "5"]


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def problem(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    assert _quiet_main(["gen", "--family", request.param,
                        *FAMILIES[request.param], "--out-dir", str(out)]) == 0
    return next(out.glob("problem_*.json"))


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("which", [["--all"], ["--lemma", "CumulativeBias"]],
                         ids=["all", "cumulative"])
@pytest.mark.parametrize("cpus", ["usable", "one"])
def test_command_writes_the_bytes_of_the_library_call(problem, which, cpus,
                                                      tmp_path):
    argv = ["verify", "--problem", str(problem), *which, *VERIFY]
    code = _quiet_main([*argv, "--out-dir", str(tmp_path / "main")])
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


# the command under ``main(fork=True)``, as ``cli`` runs it on two CPUs,
# with one process's share failing; the first print is block-buffered,
# so a child that flushed its copy of stdout would print it twice
_FAILING_SHARE = """
import os
import sys

from ssaid import verification
from ssaid.harness import main

parent = os.getpid()
where = sys.argv[1]
branch = verification._branch_iteration


def child_fails(*args):
    if os.getpid() != parent:
        raise ValueError("the child's share failed")
    return branch(*args)


def parent_interrupted(*args):
    raise KeyboardInterrupt


if where == "child":
    verification._branch_iteration = child_fails
else:
    verification.check_lower_tracking = parent_interrupted
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
def test_a_failing_share_fails_the_command_and_reaps_the_child(problem, where,
                                                               tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_SHARE, where, "verify", "--problem",
         str(problem), "--all", *VERIFY, "--out-dir", str(tmp_path)],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == "before the command\n"
    assert proc.stderr.count("no child left") == 1
    if where == "child":
        # the child's own traceback, then this process's error
        assert proc.stderr.count("ValueError: the child's share failed") == 1
        assert "RuntimeError: the forked worker exited with code 1" in (
            proc.stderr)
    else:
        assert proc.stderr.splitlines().count("KeyboardInterrupt") == 1
        assert "ValueError" not in proc.stderr
    assert not list(tmp_path.iterdir())


# ``_forked_map`` in a fresh interpreter: each term records whether this
# process or the child computed it
_SPLIT = """
import os
import time

from ssaid.verification import _forked_map

parent = os.getpid()


def term(i):
    time.sleep(0.005)
    return (float(i), float(os.getpid() == parent))


with _forked_map(term, 40, 2, fork=True) as finish:
    terms = finish()
print([int(i) for i, _ in terms] == list(range(40)))
print("".join("p" if own else "c" for _, own in terms))
"""


def test_forked_map_keeps_order_and_splits_from_both_ends():
    proc = subprocess.run([sys.executable, "-c", _SPLIT], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    in_order, owners = proc.stdout.split()
    assert in_order == "True"
    # the child's terms are a prefix and this process's the rest
    assert owners.startswith("c") and owners.endswith("p")
    assert owners == "c" * owners.count("c") + "p" * owners.count("p")
