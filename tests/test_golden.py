"""Artifact bytes in Tier-1: twelve artifacts of ``gen``, ``run``,
``verify`` and ``sweep``, made in one subprocess, against committed
goldens.

The subprocess runs with one BLAS thread, OpenBLAS's Haswell kernels where
``/proc/cpuinfo`` lists avx2 and fma, and numpy's runtime dispatch cut to
x86-64-v3 where the CPU has it.  It reports the kernel it actually got:
the numpy version, its baseline and enabled dispatch targets, and the
OpenBLAS core and build.  A pin is only trusted through that report, since
numpy accepts an unknown name in its feature variables without an error.
Where the report equals the goldens' kernel, every sha256 line must equal
``golden_sha256.txt``.  Everywhere, each artifact's count of numbers and
two sums of their magnitudes must equal ``golden_values.json`` to a
relative 1e-9, so the test still runs where the pins cannot apply.

After a deliberate byte change, rewrite both files from the tree with

    PYTHONPATH=src python tests/test_golden.py --write

and explain the diff.
"""

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SHA = ROOT / "tests" / "golden_sha256.txt"
GOLDEN_VALUES = ROOT / "tests" / "golden_values.json"
DISPATCH_PIN = "X86_V3"

# the gen flags of each problem family; run and verify read its problem
FAMILIES = {
    "quadratic": ["--dim", "5", "--kappa", "10", "--sigma", "1",
                  "--radius", "0.5", "--hess-scale", "0.5", "--seed", "3"],
    "logistic": ["--dim", "4", "--seed", "1"],
}
SWEEP = ["sweep", "--kappa-grid", "2,10", "--seeds", "0,1", "--dim", "5",
         "--max-iters", "20000"]


def _openblas():
    """[core name, build configuration] of the OpenBLAS this process has
    loaded, or None where neither can be read."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            try:
                calls = [getattr(lib, f"{prefix}_get_{what}{suffix}")
                         for what in ("corename", "config")]
            except AttributeError:
                continue
            for call in calls:
                call.restype = ctypes.c_char_p
            return [call().decode() for call in calls]
    return None


def _umath():
    """numpy's compiled core, which reports its SIMD dispatch."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def kernel() -> dict:
    """What decides the bits of this process's float kernels."""
    import numpy as np

    umath = _umath()
    return {"numpy": np.__version__, "baseline": umath.__cpu_baseline__,
            "dispatch": [name for name in umath.__cpu_dispatch__
                         if umath.__cpu_features__.get(name)],
            "openblas": _openblas(), "machine": platform.machine(),
            "libc": list(platform.libc_ver())}


def make_artifacts(out: str):
    """Write the golden artifact set under ``out`` and print this process's
    kernel and the commands' exit codes as one JSON line."""
    import contextlib
    import io

    from ssaid.harness import main

    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for family, flags in FAMILIES.items():
            where = f"{out}/{family}"
            codes.append(main(["gen", "--family", family, *flags,
                               "--out-dir", where]))
            problem = str(next(Path(where).glob("problem_*.json")))
            codes.append(main(["run", "--problem", problem, "--K", "2000",
                               "--stride", "1", "--out-dir", where]))
            codes.append(main(["verify", "--problem", problem, "--all",
                               "--replications", "64", "--checkpoints",
                               "1,5,20", "--out-dir", where]))
        codes.append(main([*SWEEP, "--out-dir", f"{out}/sweep"]))
    print(json.dumps({"kernel": kernel(), "codes": codes}))


def run_pinned(out: Path):
    """(kernel, {relative path: path}) of the artifact set made under
    ``out`` by one pinned subprocess."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    try:
        flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        flags = set()
    if {"avx2", "fma"} <= flags:
        env["OPENBLAS_CORETYPE"] = "Haswell"
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if _umath().__cpu_features__.get(DISPATCH_PIN):
        env["NPY_ENABLE_CPU_FEATURES"] = DISPATCH_PIN
    proc = subprocess.run([sys.executable, __file__, "--child", str(out)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 7, report["codes"]
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return report["kernel"], {p.relative_to(out).as_posix(): p for p in files}


def sha_lines(artifacts) -> str:
    return "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n"
                   for name, path in artifacts.items())


def _numbers(path: Path) -> list:
    """The finite numbers of an artifact in document order: each JSON
    number or boolean, or each CSV cell below the header that parses as a
    float."""
    vals = []
    if path.suffix == ".json":
        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, (bool, int, float)):
                vals.append(float(node))

        walk(json.loads(path.read_text()))
    else:
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    vals.append(float(cell))
                except ValueError:
                    pass
    return [v for v in vals if math.isfinite(v)]


def values(artifacts) -> dict:
    """Per artifact, with the problem hash in its name replaced by ``*``:
    its count of finite numbers, the sum of their magnitudes and the sum
    weighted by position, each sum exactly rounded."""
    out = {}
    for name, path in artifacts.items():
        vals = _numbers(path)
        out[re.sub(r"_[0-9a-f]{10,12}(?=[_.])", "_*", name)] = [
            len(vals), math.fsum(abs(v) for v in vals),
            math.fsum((i + 1) * abs(v) for i, v in enumerate(vals))]
    return out


def test_artifacts_match_goldens(tmp_path):
    got_kernel, artifacts = run_pinned(tmp_path)
    golden = json.loads(GOLDEN_VALUES.read_text())
    got = values(artifacts)
    assert got.keys() == golden["values"].keys()
    for role, (count, *sums) in got.items():
        want_count, *want_sums = golden["values"][role]
        assert count == want_count, role
        for have, want in zip(sums, want_sums):
            assert math.isclose(have, want, rel_tol=1e-9), (role, have, want)
    if got_kernel == golden["kernel"]:
        assert sha_lines(artifacts) == GOLDEN_SHA.read_text()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        make_artifacts(sys.argv[2])
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            got_kernel, artifacts = run_pinned(Path(tmp))
            GOLDEN_SHA.write_text(sha_lines(artifacts))
            GOLDEN_VALUES.write_text(json.dumps(
                {"kernel": got_kernel, "values": values(artifacts)},
                indent=1, sort_keys=True) + "\n")
    else:
        sys.exit("usage: test_golden.py --write | --child OUT_DIR")
