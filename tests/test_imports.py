"""No module of the package, the tests or the benchmark imports a name it
never uses, no private module-level name of the package is left
unreferenced, no module of the package holds an ``assert``, no command
loads scipy, ``fit`` loads no OpenSSL, no library call forks and no
command loads a process pool, and the package imports exactly the
third-party modules that ``pyproject.toml`` declares.

The toolchain has no linter, so this walks each module's syntax tree: a
name bound by an import must appear as a name somewhere in the module or
be listed in its ``__all__``.  ``__init__.py`` re-exports by design and is
left out; so are ``from __future__`` imports.  A ``_private`` function,
class or assignment at the top of a package module must be referenced
outside its own definition, in the package, the tests or the benchmark.
"""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:   # Python 3.10
    import tomli as tomllib

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ssaid").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "bench").glob("*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_accepts_exported():
    src = ("from __future__ import annotations\n"
           "import json\nimport os.path\nfrom math import pi, tau as t\n"
           "__all__ = ['pi']\nos.path.join('a')\n")
    assert unused_imports(src) == [(2, "json"), (4, "t")]


def _private_definitions(tree):
    """(name, node) of each ``_private`` def, class or assignment at the
    top of a module; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _references(tree, skip=None) -> set:
    """Every name, attribute, imported name and string constant of
    ``tree``, outside the subtree ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def dead_names(own: str, elsewhere=frozenset()) -> list:
    """The private top-level names of the module source ``own`` that
    neither it, outside their definitions, nor ``elsewhere`` refers to."""
    tree = ast.parse(own)
    return sorted(name for name, node in _private_definitions(tree)
                  if name not in elsewhere
                  and name not in _references(tree, skip=node))


@functools.cache
def _file_references(path) -> set:
    return _references(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_dead_private_names(path):
    files = (PACKAGE + sorted((ROOT / "tests").glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py")))
    elsewhere = set().union(*(_file_references(p) for p in files
                              if p != path))
    assert dead_names(path.read_text(), elsewhere) == []


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_assert_in_the_package(path):
    # ``python -O`` strips assert statements, so a check must raise instead
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == []


def test_dead_name_checker_flags_an_orphan():
    src = ("def _orphan():\n    return _orphan()\n"
           "def _used():\n    return 1\n"
           "_TABLE = {'a': _used}\n__all__ = []\n")
    assert dead_names(src) == ["_TABLE", "_orphan"]
    assert dead_names(src, {"_TABLE"}) == ["_orphan"]


# run in a fresh interpreter, where no other test has imported scipy; it
# prints whether scipy is loaded after each step
_SCIPY_PROBE = """
import sys
from pathlib import Path

import ssaid
from ssaid.harness import main

out = Path(sys.argv[1])
print("scipy after import", "scipy" in sys.modules)
for family, flags in (("quadratic", ["--kappa", "5"]),
                      ("logistic", ["--rows", "12"])):
    where = out / family
    assert main(["gen", "--family", family, "--dim", "3", *flags,
                 "--out-dir", str(where)]) == 0
    problem = str(next(where.glob("problem_*.json")))
    assert main(["run", "--problem", problem, "--K", "5",
                 "--out-dir", str(where)]) == 0
    assert main(["verify", "--problem", problem, "--all", "--replications",
                 "8", "--checkpoints", "1,5", "--out-dir", str(where)]) in (0, 2)
    print("scipy after", family, "scipy" in sys.modules)
assert main(["sweep", "--kappa-grid", "2", "--seeds", "0", "--dim", "2",
             "--max-iters", "10", "--out-dir", str(out / "sweep")]) == 0
print("scipy after sweep", "scipy" in sys.modules)
"""


def test_no_command_loads_scipy(tmp_path):
    # the package solves with numpy.linalg alone; importing scipy.linalg
    # would double a command's start-up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = [line for line in proc.stdout.splitlines()
            if line.startswith("scipy after")]
    assert seen == ["scipy after import False", "scipy after quadratic False",
                    "scipy after logistic False", "scipy after sweep False"]


# run in a fresh interpreter: ``fit``, the one command that draws nothing
# (numpy.random loads OpenSSL's hash module), then whether that is loaded
_FIT_PROBE = """
import sys
from ssaid.harness import main

assert main(["fit", "--trace", sys.argv[1], "--k-min", "10", "--k-max",
             "290", "--out-dir", sys.argv[2]]) == 0
print("_hashlib loaded", "_hashlib" in sys.modules)
"""


def test_fit_loads_no_openssl(tmp_path):
    from ssaid.problems import NoiseModel, make_quadratic_problem
    from ssaid.ssaid import RunConfig, run_ssaid

    problem = make_quadratic_problem(3, 3, 5.0, seed=1,
                                     noise=NoiseModel(sigma=1.0))
    trace = tmp_path / "trace.csv"
    trace.write_text(run_ssaid(problem, RunConfig(seed=0, horizon=300))
                     .csv_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _FIT_PROBE, str(trace),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "_hashlib loaded False"


def test_library_verify_never_forks(tmp_path, monkeypatch, capsys):
    # only ``cli`` forks; ``run_lemma_suite`` and ``main`` stay serial in
    # their caller's process
    from ssaid.harness import main
    from ssaid.problems import NoiseModel, make_quadratic_problem
    from ssaid.ssaid import RunConfig
    from ssaid.verification import LEMMA_IDS, MCConfig, run_lemma_suite

    def no_fork():
        raise AssertionError("a library call forked")

    monkeypatch.setattr(os, "fork", no_fork)
    problem = make_quadratic_problem(3, 3, 5.0, seed=1,
                                     noise=NoiseModel(sigma=1.0))
    reports = run_lemma_suite(problem, RunConfig(seed=0, horizon=20),
                              MCConfig(16, (1, 5, 20)))
    assert [r.lemma_id for r in reports] == list(LEMMA_IDS)
    assert main(["gen", "--dim", "3", "--sigma", "1", "--out-dir",
                 str(tmp_path)]) == 0
    problem_path = str(next(tmp_path.glob("problem_*.json")))
    assert main(["verify", "--problem", problem_path, "--all",
                 "--replications", "16", "--checkpoints", "1,5,20",
                 "--out-dir", str(tmp_path)]) in (0, 2)
    assert next(tmp_path.glob("lemma_all_*.csv")).read_text()


# run in a fresh interpreter: every command, with ``verify`` forking as
# under ``cli``, then whether a process pool module is loaded; the forked
# child leaves through os._exit, which exits 3 where one is loaded there
_POOL_PROBE = """
import os
import sys
from pathlib import Path

from ssaid.harness import main

POOLS = ("multiprocessing", "concurrent.futures")
exit_ = os._exit
os._exit = lambda code: exit_(3 if POOLS & sys.modules.keys() else code)
out = Path(sys.argv[1])
assert main(["gen", "--dim", "3", "--sigma", "1", "--out-dir", str(out)],
            fork=True) == 0
problem = str(next(out.glob("problem_*.json")))
assert main(["run", "--problem", problem, "--K", "300", "--stride", "1",
             "--out-dir", str(out)], fork=True) == 0
assert main(["verify", "--problem", problem, "--all", "--replications", "8",
             "--checkpoints", "1,5,20", "--out-dir", str(out)],
            fork=True) in (0, 2)
for name in ("sweep", "compare"):
    assert main([name, "--kappa-grid", "2", "--seeds", "0", "--dim", "2",
                 "--max-iters", "10", "--out-dir", str(out)],
                fork=True) == 0
assert main(["fit", "--trace", str(next(out.glob("trace_*.csv"))),
             "--k-min", "10", "--k-max", "290", "--out-dir", str(out)],
            fork=True) == 0
print("pools loaded", sorted(POOLS & sys.modules.keys()))
"""


def test_no_command_loads_a_process_pool(tmp_path):
    # verify's one child is a bare os.fork: multiprocessing.pool alone
    # takes 15.5 ms to import, concurrent.futures.process 23.7 ms
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _POOL_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "pools loaded []"


def _third_party_imports(paths) -> set:
    """Top-level names of the modules that ``paths`` import from outside
    the standard library and the package."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"ssaid"}


def test_declared_dependencies_match_the_imports():
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
             for req in declared}
    assert _third_party_imports(PACKAGE) == names == {"numpy"}
