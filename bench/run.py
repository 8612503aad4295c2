"""Benchmark of the ``ssaid`` CLI: one workload, one seed, one JSON line.

    python3 bench/run.py --workload sweep|trace|verify --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is found next to this directory in
``src``.  With ``--trace 0`` every command runs as its own
``python -m ssaid`` process, as users run it, and the last line of output
holds the end-to-end metrics:

* ``setup_s``: median over three set-up passes of the time the workload's
  ``ssaid gen`` commands take (process start, ``import ssaid``, problem
  construction, writing the JSON);
* ``wall_s``: median over rounds of the time the main commands take;
* ``peak_rss_mb``: median over rounds of the largest peak resident set of
  a main command's process.

With ``--trace 1`` the same commands run inside this process through
``ssaid.harness.main``, once plain and once with the span tracer of
``tracer.py`` installed, and the last line holds the per-layer metrics and
the tracing overhead.  Both modes repeat whole rounds until ``--seconds``
have passed and check every round's artifacts (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# one BLAS thread per process: OpenBLAS would otherwise start a thread per
# core in the CLI processes, on top of the sweep's --threads 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_PASSES = 3
COMMAND_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


class Op:
    """Tally of operations (commands and checks) attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def command(self, ok):
        self.attempted += 1
        self.failed += not ok

    def check(self, label, fn):
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # any error, not only CheckFailed, is wrong
            self.wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"check {label} FAILED: {exc}")


def _fill(argv, out, printed):
    fields = {"out": str(out)}
    for label, paths in printed.items():
        if paths:
            fields[label.replace(".", "_")] = paths[0]
    return [a.format(**fields) for a in argv]


def run_subprocess(argv, cwd):
    """(exit code, printed paths, seconds, peak RSS in MB) of one CLI
    process.  stdout and stderr go to files so that the child can be
    reaped with ``wait4``, which reports its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "cli.out", "w+") as out, open(cwd / "cli.err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ssaid", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        printed = [ln.strip() for ln in out if ln.strip()]
        errors = err.read()
    if proc.returncode != 0:
        print(f"command {' '.join(argv)} exited {proc.returncode}: "
              f"{errors.strip()}")
    return proc.returncode, printed, seconds, usage.ru_maxrss / 1024.0


def run_inprocess(argv, tracer=None):
    """(exit code, printed paths, seconds) of ``ssaid.harness.main``."""
    from ssaid import harness

    cli = tracer.span(f"cli.{argv[0]}", harness.main) if tracer else harness.main
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli(argv)
    seconds = time.perf_counter() - start
    return code, [ln.strip() for ln in buf.getvalue().splitlines()
                  if ln.strip()], seconds


def run_round(workload, out, op, runner, printed):
    """Main commands of one round; returns (seconds, peak RSS in MB, or
    None in process)."""
    total, peak = 0.0, None
    for label, argv in workload.main():
        res = runner(label, _fill(argv, out, printed))
        op.command(res[0] == 0)
        printed[label] = res[1]
        total += res[2]
        if len(res) > 3:
            peak = max(peak or 0.0, res[3])
    return total, peak


def run_checks(workload, op, printed):
    for label, fn in workload.checks(printed):
        op.check(label, fn)


def run_setup(workload, out, op, runner, printed):
    total = 0.0
    for label, argv in workload.setup():
        res = runner(label, _fill(argv, out, printed))
        op.command(res[0] == 0)
        printed[label] = res[1]
        total += res[2]
    return total


def measure(workload, out, seconds):
    """End-to-end metrics over CLI processes."""
    op = Op()
    printed = {}

    def runner(label, argv):
        return run_subprocess(argv, out)

    setups = [run_setup(workload, out, op, runner, printed)
              for _ in range(SETUP_PASSES)]
    walls, peaks = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, peak = run_round(workload, out, op, runner, printed)
        run_checks(workload, op, printed)
        walls.append(wall)
        peaks.append(peak)
    print(f"setup_s per pass: {[round(s, 4) for s in setups]}")
    print(f"wall_s per round: {[round(w, 4) for w in walls]}")
    print(f"peak_rss_mb per round: {[round(p, 1) for p in peaks]}")
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (statistics.median(peaks), "MB")}
    return op, printed, metrics


def measure_traced(workload, out, seconds):
    """Per-layer metrics from in-process rounds with the tracer installed,
    each paired with a plain in-process round for the overhead."""
    from tracer import Patches, Tracer, install

    def plain(label, argv):
        return run_inprocess(argv)

    op = Op()
    printed = {}
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        run_setup(workload, out, op, plain, printed)
        untraced, _ = run_round(workload, out, op, plain, printed)
        run_checks(workload, op, printed)

        tracer = Tracer()

        def traced(label, argv):
            tracer.command += 1
            tracer.in_verify = argv[0] == "verify"
            return run_inprocess(argv, tracer)

        with Patches() as patches:
            for boundary in install(tracer, patches):
                print(f"tracer: {boundary} not found; its metrics read 0")
            run_setup(workload, out, op, traced, printed)
            wall, _ = run_round(workload, out, op, traced, printed)
        run_checks(workload, op, printed)
        rounds.append(layer_metrics(tracer, wall, untraced))
        tracer.write(out / "spans.jsonl")
    print(f"traced rounds: {len(rounds)}")
    metrics = {}
    for name, (_, unit) in rounds[0].items():
        metrics[name] = (statistics.median(r[name][0] for r in rounds), unit)
    return op, printed, metrics


def layer_metrics(tracer, traced_wall, untraced_wall):
    m = {}
    for name in ("streams.at", "problems.sample_lower_grad",
                 "problems.sample_upper_grads", "problems.sample_hess_operator",
                 "problems.sample_cross_operator", "problems.operator_apply",
                 "problems.sample_batched", "problems.reference_solution",
                 "problems.lower_solution", "problems.solve_lower_hess",
                 "problems.construct", "ssaid.ssaid_step",
                 "baselines.multiloop_step"):
        m[f"{name}.calls"] = (tracer.calls(name), "count")
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    m["problems.reference_solution.distinct"] = (
        tracer.n_distinct("problems.reference_solution"), "count")
    for name in ("ssaid.run_ssaid", "ssaid.csv_text",
                 "verification.check_lower_tracking",
                 "verification.check_bias_recursions",
                 "verification.check_coupled_recursion",
                 "verification.check_cumulative_bounds",
                 "verification.check_v_bound", "harness.emit"):
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    m["ssaid.trace_rows"] = (tracer.counters["ssaid.trace_rows"], "count")
    for name in ("verification.branches", "verification.history_steps"):
        m[name] = (tracer.counters[name], "count")
        m[f"{name}_distinct"] = (tracer.n_distinct(name), "count")
    cells = tracer.cells
    m["harness.cells"] = (len(cells), "count")
    m["harness.cell.wall_s"] = (sum(w for w, _ in cells), "s")
    m["harness.cell.cpu_s"] = (sum(c for _, c in cells), "s")
    m["harness.cell.wait_s"] = (sum(w - c for w, c in cells), "s")
    m["harness.cell.max_s"] = (max((w for w, _ in cells), default=0.0), "s")
    m["harness.emit.bytes"] = (tracer.counters["harness.emit.bytes"], "B")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    return m


def artifact_hashes(printed):
    for label in sorted(printed):
        for path in printed[label]:
            p = Path(path)
            if p.is_file():
                digest = hashlib.sha256(p.read_bytes()).hexdigest()
                print(f"sha256 {digest}  {p.name}")


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seed = args.seed % (1 << 32)
    workload = WORKLOADS[args.workload](seed)
    out = OUT_ROOT / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        op, printed, metrics = measure_traced(workload, out, args.seconds)
    else:
        op, printed, metrics = measure(workload, out, args.seconds)
    artifact_hashes(printed)
    print(json.dumps({
        "correct": not op.wrong,
        "attempted": op.attempted,
        "failed": op.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "ssaid" / "__init__.py").is_file():
        print(f"error: no ssaid package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
