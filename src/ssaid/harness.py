"""Experiment orchestration and the command-line entry point.

Three layers:

* fitting: least-squares slope of the log running-average stationarity
  measure against log iteration count, on a log-uniform subgrid so late
  iterations do not drown the early ones;
* sweeps: condition-number grids and single- vs multi-loop comparisons,
  each cell running to a target stationarity or a step cap and reporting
  the oracle complexity max(gradient queries, matrix-vector queries);
* CLI: gen / run / verify / sweep / compare / fit subcommands writing
  deterministic artifacts.  Identical invocations produce byte-identical
  files, independent of the allocator policy that the ``ssaid`` command
  (``cli``) sets before it runs ``main``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import MultiLoopConfig
from .errors import (ConvergenceFailureError, DivergenceError,
                     InsufficientDataError, InvalidParameterError,
                     InvalidProblemError)
from .hypergradient import StepSizes
from .problems import (NoiseModel, _json_text, _row_dot, _stack_quadratics,
                       make_logistic_problem, make_quadratic_problem,
                       problem_from_json, problem_hash, problem_to_json,
                       reference_solution)
from .ssaid import (IterationTrace, RunConfig, _finite_rows, _oracle_bill,
                    _setup, iterate, run_ssaid)
from .streams import TAG_LOWER_GRAD, row_streams
from .verification import MCConfig, run_lemma_suite, summary_csv

__all__ = [
    "RateFit",
    "rate_fit",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "kappa_sweep",
    "parse_algorithm",
    "sweep_csv",
    "sweep_summary_json",
    "main",
]

SWEEP_HEADER = "kappa,seed,algorithm,complexity,censored"

# number of log-spaced sample points for rate fits and of progress checks
# per sweep run
_FIT_POINTS = 64
_SWEEP_CHECKS = 2048


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    k_window: tuple

    def __post_init__(self):
        lo, hi = self.k_window
        if not lo < hi:
            raise InvalidParameterError("k_window must satisfy k_min < k_max")


def rate_fit(trace: IterationTrace, k_window) -> RateFit:
    """Slope of log(running average of the stationarity measure) vs log k.

    k counts completed iterations (recorded row at iteration index i has
    k = i + 1).  Rows are subsampled on a log-uniform grid inside the
    window before the least-squares fit; recorded traces are denser at
    large k, which would otherwise dominate the fit.
    """
    k_min, k_max = int(k_window[0]), int(k_window[1])
    if not 1 <= k_min < k_max:
        raise InvalidParameterError("need 1 <= k_min < k_max")
    counts = np.asarray(trace.k, dtype=float) + 1.0
    if not counts.size:
        raise InsufficientDataError("the trace has no rows")
    if counts[0] > k_min or counts[-1] < k_max:
        raise InvalidParameterError(
            f"trace rows cover k in [{int(counts[0])}, {int(counts[-1])}], "
            f"not the requested window [{k_min}, {k_max}]")
    ra = trace.running_average()
    mask = (counts >= k_min) & (counts <= k_max)
    idx = np.nonzero(mask)[0]
    # a NaN fails both comparisons
    if idx.size >= 3 and not np.all((ra[idx] > 0.0) & (ra[idx] < math.inf)):
        raise InvalidParameterError(
            "running average must be finite and positive on the window")
    targets = np.geomspace(k_min, k_max, _FIT_POINTS)
    pick = idx[np.searchsorted(counts[idx], targets).clip(0, idx.size - 1)]
    pick = np.unique(pick)
    if pick.size < 3:
        raise InsufficientDataError(
            f"only {pick.size} usable rows in the window, need 3")
    lx = np.log(counts[pick])
    ly = np.log(ra[pick])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=float(r2), k_window=(k_min, k_max))


# ---------------------------------------------------------------------------
# sweeps


def parse_algorithm(name: str, kappa: float) -> MultiLoopConfig:
    """Algorithm name -> its preset, the MultiLoopConfig of its loop counts.

    "ssaid" is the single-loop method, which is the multi-loop step at
    (1, 1); "multiloop" uses ceil(kappa) inner and solver steps;
    "multiloop:N:Q" pins explicit counts.  Colons keep the names comma-free
    so algorithm lists and CSV rows split cleanly.
    """
    if name == "ssaid":
        return MultiLoopConfig(1, 1)
    if name == "multiloop":
        n = max(1, math.ceil(kappa))
        return MultiLoopConfig(n, n)
    if name.startswith("multiloop:"):
        body = name[len("multiloop:"):]
        parts = body.split(":")
        if len(parts) != 2:
            raise InvalidParameterError(
                f"multiloop preset must be 'multiloop:N:Q', got {name!r}")
        try:
            n, q = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidParameterError(
                f"non-integer loop counts in {name!r}") from exc
        return MultiLoopConfig(n, q)
    raise InvalidParameterError(f"unknown algorithm {name!r}")


@dataclass(frozen=True)
class SweepSpec:
    kappa_grid: tuple
    seeds: tuple
    epsilon: float
    max_iters: int
    algorithms: tuple = ("ssaid",)
    dim_x: int = 10
    dim_y: int = 10
    sigma: float = 1.0
    problem_seed: int = 0

    def __post_init__(self):
        grid = tuple(float(k) for k in self.kappa_grid)
        if not grid:
            raise InvalidParameterError("kappa_grid must be nonempty")
        if any(k < 1.0 or not math.isfinite(k) for k in grid):
            raise InvalidParameterError("kappa values must be finite and >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidParameterError("kappa_grid must be strictly increasing")
        object.__setattr__(self, "kappa_grid", grid)
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise InvalidParameterError("seeds must be nonempty")
        if len(set(seeds)) < len(seeds):
            raise InvalidParameterError(f"seeds must be distinct, got {seeds}")
        object.__setattr__(self, "seeds", seeds)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidParameterError("epsilon must be positive")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")
        algs = tuple(str(a) for a in self.algorithms)
        if not algs:
            raise InvalidParameterError("algorithms must be nonempty")
        if len(set(algs)) < len(algs):
            raise InvalidParameterError(
                f"algorithms must be distinct, got {algs}")
        for a in algs:
            parse_algorithm(a, 1.0)
        object.__setattr__(self, "algorithms", algs)
        if self.dim_x < 1 or self.dim_y < 1:
            raise InvalidParameterError("dimensions must be >= 1")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise InvalidParameterError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    seed: int
    algorithm: str
    complexity: object   # int, or None when the run never resolved
    censored: bool


@dataclass
class SweepResult:
    rows: list
    medians: list        # dicts: kappa, algorithm, median, resolved, completed
    exponents: dict      # algorithm -> log-log slope of median vs kappa


def _run_group(rows, preset: MultiLoopConfig, epsilon, max_iters,
               fork: bool = False):
    """The sweep cells of ``rows``, (quadratic problem, seed) pairs of one
    preset, run in lock-step.  Each row's run starts at zero with the
    automatic step sizes for max_iters iterations, and iterates until the
    running average of the exact stationarity measure (over check rows)
    drops to epsilon.  The problems must share their dimensions and noise.

    The running rows are the rows of stacked (rows, d) iterates, and one
    ``iterate`` call advances them all on the row-stacked view of their
    problems, each row at its own problem's step sizes.  Row i draws from
    its seed's streams (``RowStreams``, one draw per distinct seed) and
    every quadratic product is one gemv per row, so each row has the bits
    of its one-seed run.  A row leaves the batch when it crosses epsilon at
    a check row, or when its own iterate turns nonfinite, which ends the
    one-seed run with a DivergenceError.  With ``fork``, where the group
    draws only lower gradients, one forked child draws them ahead and pipes
    them here (``row_streams``), with the same bytes.

    Returns (complexity, censored) per row: the oracle count at the
    crossing, or (None, True) if the run diverged or never resolved within
    max_iters.  A check row makes one reference solve on the view of its
    running rows, each row with its one-problem bits.
    """
    starts = [_setup(problem, RunConfig(seed=0, horizon=max_iters))[0]
              for problem, _ in rows]
    n, q = preset.inner_iters, preset.solver_iters
    inner, solver = range(n), range(q)
    cost = max(_oracle_bill(n, q))
    stride = max(1, max_iters // _SWEEP_CHECKS)
    live = list(range(len(rows)))      # the row of each batch row
    x, y, v = (np.stack([getattr(start, name) for start in starts])
               for name in ("x", "y_hat", "v_hat"))
    view = _stack_quadratics([problem for problem, _ in rows])
    # each row's step sizes, across the whole row: numpy scales by such an
    # array as fast as by a 0-d one, and twice as slowly by a (rows, 1) column
    alpha, eta, beta = (np.array([[getattr(start.steps, name)] * dim
                                  for start in starts])
                        for name, dim in (("alpha", view.dim_y),
                                          ("eta", view.dim_y),
                                          ("beta", view.dim_x)))
    totals = [0.0] * len(rows)
    outcomes = [(None, True)] * len(rows)
    n_checks = 0
    ahead = fork and view.stochastic_tags == {TAG_LOWER_GRAD}
    with row_streams([seed for _, seed in rows],
                     (max_iters, n, view.dim_y) if ahead else None) as streams:
        for k in range(max_iters):
            x_before = x
            y, v, _, est = iterate(view, streams, k, x, y, v, alpha, eta,
                                   inner, solver, 0, len(live))
            x = x - beta * est
            keep = _finite_rows(x, y, v)   # a diverged run never crossed
            if k % stride == 0 or k == max_iters - 1:
                n_checks += 1
                batch = [i for i, kept in enumerate(keep) if kept]
                if batch:
                    part = view if len(batch) == len(live) else (
                        _stack_quadratics([rows[live[i]][0] for i in batch]))
                    grad_phi = reference_solution(part,
                                                  x_before[batch]).grad_phi
                    for i, sq in zip(batch,
                                     _row_dot(grad_phi, grad_phi).tolist()):
                        row = live[i]
                        totals[row] += sq
                        if totals[row] / n_checks <= epsilon:
                            outcomes[row] = (cost * (k + 1), False)
                            keep[i] = False
            if not all(keep):
                live = [row for row, kept in zip(live, keep) if kept]
                if not live:
                    break
                x, y, v, alpha, eta, beta = (a[keep] for a in
                                             (x, y, v, alpha, eta, beta))
                view = _stack_quadratics([rows[row][0] for row in live])
                streams.select(keep)
    return outcomes


def _run_to_epsilon(problem, kind, preset, seed, epsilon, max_iters):
    """One sweep cell: the one-row case of ``_run_group``.  ``kind`` is
    unused and a ``preset`` of None means (1, 1); the benchmark's tracer and
    tests call this signature."""
    return _run_group([(problem, seed)], preset or MultiLoopConfig(1, 1),
                      epsilon, max_iters)[0]


def _summarize(rows, spec: SweepSpec):
    medians = []
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row.kappa, row.algorithm), []).append(row)
    for kappa in spec.kappa_grid:
        for alg in spec.algorithms:
            cell = by_cell.get((kappa, alg), [])
            done = sorted(r.complexity for r in cell if r.complexity is not None)
            resolved = 2 * len(done) >= len(spec.seeds) and done
            medians.append({
                "kappa": kappa,
                "algorithm": alg,
                "median": float(np.median(done)) if resolved else None,
                "resolved": bool(resolved),
                "completed": len(done),
            })
    exponents = {}
    for alg in spec.algorithms:
        pts = [(m["kappa"], m["median"]) for m in medians
               if m["algorithm"] == alg and m["resolved"]]
        if len(pts) >= 2 and len({p[0] for p in pts}) >= 2:
            lx = np.log([p[0] for p in pts])
            ly = np.log([p[1] for p in pts])
            exponents[alg] = float(np.polyfit(lx, ly, 1)[0])
        else:
            exponents[alg] = None
    return medians, exponents


def kappa_sweep(spec: SweepSpec, fork: bool = False) -> SweepResult:
    """Run every (kappa, seed, algorithm) cell and summarize.

    The cells of one preset (``parse_algorithm``) run as one lock-step
    batch (``_run_group``) whose rows are every (kappa, seed) pair that
    uses it; "ssaid" is the (1, 1) preset.  A sweep takes the
    automatic steps, alpha = eta = 1/L, so it runs no multiloop rate check.
    With ``fork``, each batch's noise is drawn ahead by one forked child;
    the result is the same either way.  Library callers keep the default
    and never fork.
    """
    problems = {kappa: make_quadratic_problem(spec.dim_x, spec.dim_y, kappa,
                                              seed=spec.problem_seed,
                                              noise=NoiseModel(spec.sigma))
                for kappa in spec.kappa_grid}
    batches = {}
    for kappa in spec.kappa_grid:
        for alg in spec.algorithms:
            batches.setdefault(parse_algorithm(alg, kappa), []).append(
                (kappa, alg))
    rows = []
    for preset, groups in batches.items():
        cells = [(kappa, seed, alg) for kappa, alg in groups
                 for seed in spec.seeds]
        outcomes = _run_group([(problems[kappa], seed) for kappa, seed, _
                               in cells], preset, spec.epsilon, spec.max_iters,
                              fork)
        rows.extend(SweepRow(*cell, *out) for cell, out in zip(cells, outcomes))
    rows.sort(key=lambda r: (r.kappa, r.seed, r.algorithm))
    medians, exponents = _summarize(rows, spec)
    return SweepResult(rows=rows, medians=medians, exponents=exponents)


def sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_HEADER]
    for r in result.rows:
        comp = "" if r.complexity is None else str(int(r.complexity))
        lines.append(f"{float(r.kappa)!r},{int(r.seed)},{r.algorithm},"
                     f"{comp},{int(r.censored)}")
    return "\n".join(lines) + "\n"


def sweep_summary_json(result: SweepResult, spec: SweepSpec) -> str:
    return _json_text({"schema": "ssaid-sweep-v1", "spec": spec,
                       "medians": result.medians,
                       "exponents": result.exponents})


# ---------------------------------------------------------------------------
# CLI


def _command(subs, name, summary, extra):
    """Parser of one command with --out-dir, --config and the flags in
    ``extra``, a {flag: (type, default, help)} map: --seed for the single-run
    commands, the inert --threads for the sweeps.  No prefix matching:
    `sweep --seed` must not pass as --seeds."""
    sub = subs.add_parser(
        name, help=summary, allow_abbrev=False,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for flag, (convert, default, text) in extra.items():
        sub.add_argument(flag, type=convert, default=default, help=text)
    sub.add_argument("--out-dir", default=os.environ.get("SSAID_OUT_DIR", "."),
                     help="output directory, SSAID_OUT_DIR if set")
    sub.add_argument("--config",
                     help="flat JSON file of flag values; explicit flags win")
    return sub


def _list_type(convert):
    """argparse type of a comma-separated list of ``convert`` values."""
    def parse(text):
        return tuple(convert(p) for p in text.split(",") if p.strip())
    parse.__name__ = f"{convert.__name__} list"   # argparse's error names it
    return parse


def _seed(text) -> int:
    """argparse type of every seed flag: an integer >= 0, as numpy takes."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {text}")
    return int(text)


_seed.__name__ = "seed"   # argparse's error names it
_int_list = _list_type(int)
_seed_list = _list_type(_seed)
_float_list = _list_type(float)
_name_list = _list_type(str.strip)


def _build_parser() -> argparse.ArgumentParser:
    """Every flag's type, choices and default.  A flag whose default derives
    from another flag's value defaults to None here."""
    parser = argparse.ArgumentParser(
        prog="ssaid",
        description="single-loop stochastic bilevel optimization toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    seed = {"--seed": (_seed, 0, "random seed")}

    gen = _command(subs, "gen", "emit a problem JSON", seed)
    gen.add_argument("--family", choices=("quadratic", "logistic"),
                     default="quadratic", help="problem family")
    gen.add_argument("--dim", type=int, default=5, help="dim of x and y")
    gen.add_argument("--dim-x", type=int, help="dimension of x; None: --dim")
    gen.add_argument("--dim-y", type=int, help="dimension of y; None: --dim")
    gen.add_argument("--kappa", type=float, default=10.0,
                     help="quadratic: condition number")
    gen.add_argument("--sigma", type=float, default=0.0, help="lower noise")
    gen.add_argument("--radius", type=float, default=0.0, help="upper noise")
    gen.add_argument("--hess-scale", type=float, default=0.0,
                     help="Hessian noise")
    gen.add_argument("--rows", type=int,
                     help="logistic: rows; None: 4 * dim_y")
    gen.add_argument("--reg", type=float, default=1.0, help="logistic: mu")
    gen.add_argument("--batch-size", type=int, default=4,
                     help="logistic: minibatch rows")

    run = _command(subs, "run", "run the single-loop method", seed)
    run.add_argument("--problem", help="problem JSON (required)")
    run.add_argument("--K", type=int, default=1000, dest="horizon",
                     help="iterations")
    run.add_argument("--stride", type=int, help="None: max(1, K // 2048)")
    for step in ("--alpha", "--eta", "--beta"):
        run.add_argument(step, type=float,
                         help="all three or none; None: automatic")

    ver = _command(subs, "verify", "Monte-Carlo bound checks", seed)
    ver.add_argument("--problem", help="problem JSON (required)")
    which = ver.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="every check")
    which.add_argument("--lemma", help="one lemma id; None: every check")
    ver.add_argument("--K", type=int, dest="horizon",
                     help="iterations; None: the last checkpoint")
    ver.add_argument("--replications", type=int, default=500, help="branches")
    ver.add_argument("--checkpoints", type=_int_list, default="1,5,20,100",
                     help="iteration indices")
    ver.add_argument("--mc-seed", type=_seed, default=0, help="branch seed")

    for name, algs in (("sweep", "ssaid"), ("compare", "ssaid,multiloop")):
        sw = _command(subs, name, f"{name} over a condition-number grid",
                      {"--threads": (int, 1, "no effect; must be >= 1")})
        sw.add_argument("--kappa-grid", type=_float_list,
                        default="2,10,50,250", help="condition numbers")
        sw.add_argument("--seeds", type=_seed_list, default="0,1,2,3,4",
                        help="run seeds")
        sw.add_argument("--epsilon", type=float, default=0.1,
                        help="target running-average stationarity")
        sw.add_argument("--max-iters", type=int, default=4_000_000,
                        help="iteration cap")
        sw.add_argument("--algorithms", type=_name_list, default=algs,
                        help="ssaid, multiloop or multiloop:N:Q")
        sw.add_argument("--dim", type=int, default=10, help="dim of x and y")
        sw.add_argument("--sigma", type=float, default=1.0, help="lower noise")
        sw.add_argument("--problem-seed", type=_seed, default=0,
                        help="seed of the problems")

    fit = _command(subs, "fit", "rate fit on a recorded trace CSV", {})
    fit.add_argument("--trace", help="trace CSV of `ssaid run` (required)")
    fit.add_argument("--k-min", type=int, help="window start (required)")
    fit.add_argument("--k-max", type=int, help="window end (required)")
    return parser


def _config_args(path) -> list:
    """The flags of a --config file, as command-line tokens.  Each key of
    its flat JSON object names a flag with underscores (``max_iters`` for
    --max-iters); a list value is comma-joined, true is a bare switch, and
    false or null adds nothing."""
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(
            f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidParameterError("config file must hold a flat JSON object")
    if "config" in loaded:
        raise InvalidParameterError("a config file cannot name --config")
    tokens = []
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(str, value))}")
        elif value is not False and value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def _required(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise InvalidParameterError(
            f"missing required flag --{name.replace('_', '-')}")
    return value


def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# characters of an artifact encoded and written at a time
_EMIT_SLICE = 1 << 20


def _emit(path: Path, text: str):
    """Write ``text`` to ``path`` a slice at a time, so that a long
    artifact is never held a second time as one encoded copy, and print
    the path."""
    with open(path, "w") as f:
        for start in range(0, len(text), _EMIT_SLICE):
            f.write(text[start:start + _EMIT_SLICE])
    print(path)


def _read(args, name: str) -> str:
    """Text of the file that the flag ``name`` names."""
    try:
        return Path(_required(args, name)).read_text()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {name} file: {exc}") from exc


def _cmd_gen(args) -> int:
    dim_x = args.dim if args.dim_x is None else args.dim_x
    dim_y = args.dim if args.dim_y is None else args.dim_y
    noise = NoiseModel(sigma=args.sigma, radius=args.radius,
                       hess_scale=args.hess_scale)
    if args.family == "quadratic":
        problem = make_quadratic_problem(dim_x, dim_y, args.kappa,
                                         noise=noise, seed=args.seed)
    else:
        problem = make_logistic_problem(
            dim_x, dim_y, 4 * dim_y if args.rows is None else args.rows,
            seed=args.seed, reg=args.reg, batch_size=args.batch_size,
            noise=noise)
    _emit(_out_dir(args) / f"problem_{problem_hash(problem)[:12]}.json",
          problem_to_json(problem))
    return 0


def _cmd_run(args) -> int:
    problem = problem_from_json(_read(args, "problem"))
    horizon, seed = args.horizon, args.seed
    stride = (max(1, horizon // _SWEEP_CHECKS) if args.stride is None
              else args.stride)
    explicit = [args.alpha, args.eta, args.beta]
    steps = "auto"
    if explicit != [None] * 3:
        if None in explicit:
            raise InvalidParameterError(
                "--alpha, --eta, --beta must be given together")
        steps = StepSizes(*explicit, horizon_k=max(horizon, 1))
    config = RunConfig(seed=seed, horizon=horizon, steps=steps, stride=stride)
    started = time.perf_counter()
    trace = run_ssaid(problem, config)
    elapsed = time.perf_counter() - started
    out = _out_dir(args)
    digest = problem_hash(problem)
    tag = f"{digest[:10]}_seed{seed}_K{horizon}"
    _emit(out / f"trace_{tag}.csv", trace.csv_text())
    constants, derived = problem.constants, trace.derived
    meta = {
        "schema": "ssaid-run-v1",
        "problem_sha256": digest,
        "problem_family": problem.family,
        "config": config,
        "steps": trace.steps,
        "constants": constants,
        "derived": derived,
        "c_beta": derived.c_beta(constants, trace.steps.alpha,
                                 trace.steps.beta),
        "rows": int(trace.n_rows),
        # the last trace row's values, each of its column's type
        "final": {name: getattr(trace, name)[-1] for name in
                  ("k", "grad_phi_sq", "y_err", "v_err", "gc_count",
                   "mv_count")},
    }
    _emit(out / f"run_{tag}.json", _json_text(meta))
    print(f"wall_seconds={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    problem = problem_from_json(_read(args, "problem"))
    mc = MCConfig(replications=args.replications,
                  checkpoints=args.checkpoints, base_seed=args.mc_seed)
    horizon = max(args.checkpoints) if args.horizon is None else args.horizon
    config = RunConfig(seed=args.seed, horizon=horizon)
    reports = run_lemma_suite(problem, config, mc, args.lemma, args.fork)
    name = "all" if args.lemma is None else reports[0].lemma_id
    digest = problem_hash(problem)
    stem = f"lemma_{name}_{digest[:10]}"
    out = _out_dir(args)
    doc = {"schema": "ssaid-lemma-v1",
           "problem_sha256": digest,
           "mc": mc,
           "horizon": horizon,
           "verdict": "pass" if all(r.passed for r in reports) else "fail",
           "reports": reports}
    _emit(out / f"{stem}.json", _json_text(doc))
    _emit(out / f"{stem}.csv", summary_csv(reports))
    for rep in reports:
        print(f"{rep.lemma_id}: "
              f"{'pass' if rep.passed else 'FAIL'} "
              f"({len(rep.rows)} rows, "
              f"violation_fraction={rep.violation_fraction:.4f})")
    return 0 if all(r.passed for r in reports) else 2


def _cmd_sweep(args) -> int:
    spec = SweepSpec(kappa_grid=args.kappa_grid, seeds=args.seeds,
                     epsilon=args.epsilon, max_iters=args.max_iters,
                     algorithms=args.algorithms, dim_x=args.dim,
                     dim_y=args.dim, sigma=args.sigma,
                     problem_seed=args.problem_seed)
    name = args.command
    if name == "compare" and len(spec.algorithms) < 2:
        raise InvalidParameterError("comparison needs at least 2 algorithms")
    if args.threads < 1:
        raise InvalidParameterError("threads must be >= 1")
    result = kappa_sweep(spec, args.fork)
    out = _out_dir(args)
    _emit(out / f"{name}.csv", sweep_csv(result))
    _emit(out / f"{name}_summary.json", sweep_summary_json(result, spec))
    return 0


def _cmd_fit(args) -> int:
    trace = IterationTrace.from_csv_text(_read(args, "trace"))
    fit = rate_fit(trace, (_required(args, "k_min"), _required(args, "k_max")))
    out = _out_dir(args)
    stem = Path(args.trace).stem
    _emit(out / f"fit_{stem}.json", _json_text(fit))
    print(f"slope={fit.slope!r} r_squared={fit.r_squared!r}")
    return 0


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "verify": _cmd_verify,
             "sweep": _cmd_sweep, "compare": _cmd_sweep, "fit": _cmd_fit}


def main(argv=None, fork: bool = False) -> int:
    """Run one command.  With ``fork``, which only :func:`cli` passes,
    ``verify`` shares CumulativeBias's branches with one forked child
    (``run_lemma_suite``), and ``sweep`` and ``compare`` draw each batch's
    noise in one (``kappa_sweep``); the artifacts have the same bytes
    either way."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = parser.parse_args(argv)
            if args.config is not None:
                # the file's flags go first, so explicit flags win: argparse
                # keeps the last value of a flag
                args = parser.parse_args(argv[:1] + _config_args(args.config)
                                         + argv[1:])
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help
            return 0 if exc.code == 0 else 1
        args.fork = fork
        return _COMMANDS[args.command](args)
    except (InvalidParameterError, InvalidProblemError,
            InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ConvergenceFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# glibc's mallopt parameters.  Setting either one fixes glibc's otherwise
# dynamic mmap threshold, so both are set: a block below the threshold
# comes from the heap, and a trim keeps the top pad free at the heap top.
# With the pad alone the threshold stays wherever the imports left it; at
# 128 KiB the quadratic verify --all made 103k faults, more than unset.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_TOP_PAD_BYTES = 64 << 20
_MMAP_THRESHOLD_BYTES = 4 << 20


def _keep_freed_heap() -> None:
    """Ask glibc to serve blocks below 4 MiB from the heap and to keep
    64 MiB of freed memory at its top instead of returning it after every
    large free.  The verifier's batched draws free and re-allocate
    temporaries of up to 640 KB per branch at 2000 replications; trimmed
    or mapped afresh, each branch faults the same pages back in.  Bytes
    computed do not change.  Without glibc's ``mallopt`` this does
    nothing."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        # TypeError: Windows' CDLL takes no None for the running process
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def cli(argv=None) -> int:
    """The ``ssaid`` command: :func:`main` under the command-line process's
    policies.  It keeps freed heap (``_keep_freed_heap``), and where two or
    more CPUs are usable it lets ``verify``, ``sweep`` and ``compare`` fork
    (``main``).  ``import ssaid`` leaves both alone, and so does
    :func:`main` by default."""
    _keep_freed_heap()
    return main(argv, fork=hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2)


if __name__ == "__main__":
    sys.exit(cli())
