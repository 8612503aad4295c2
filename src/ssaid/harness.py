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
  files, independent of --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import MultiLoopConfig, _multiloop_start
from .errors import (ConvergenceFailureError, DivergenceError,
                     InsufficientDataError, InvalidParameterError,
                     InvalidProblemError)
from .hypergradient import StepSizes, compute_derived_constants
from .problems import (NoiseModel, _row_dot, make_logistic_problem,
                       make_quadratic_problem, problem_from_json,
                       problem_hash, problem_to_json, reference_solution)
from .ssaid import (IterationTrace, RunConfig, _finite_rows, _ssaid_start,
                    initial_vectors, iterate, run_ssaid)
from .streams import RowStreams
from .verification import MCConfig, run_lemma_suite, summary_csv

__all__ = [
    "RateFit",
    "rate_fit",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "kappa_sweep",
    "compare_algorithms",
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

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared,
                "k_window": [int(self.k_window[0]), int(self.k_window[1])]}


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
    if counts[0] > k_min or counts[-1] < k_max:
        raise InvalidParameterError(
            f"trace rows cover k in [{int(counts[0])}, {int(counts[-1])}], "
            f"not the requested window [{k_min}, {k_max}]")
    ra = trace.running_average()
    mask = (counts >= k_min) & (counts <= k_max)
    idx = np.nonzero(mask)[0]
    if idx.size >= 3 and np.any(ra[idx] <= 0.0):
        raise InvalidParameterError(
            "running average must be positive on the window")
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


def parse_algorithm(name: str, kappa: float):
    """Algorithm preset -> (kind, (inner_iters, solver_iters) or None).

    "ssaid" is the single-loop method; "multiloop" uses ceil(kappa) inner
    and solver steps; "multiloop:N:Q" pins explicit counts.  Colons keep
    the names comma-free so algorithm lists and CSV rows split cleanly.
    """
    if name == "ssaid":
        return "ssaid", None
    if name == "multiloop":
        n = max(1, math.ceil(kappa))
        return "multiloop", (n, n)
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
        if n < 1 or q < 1:
            raise InvalidParameterError("loop counts must be >= 1")
        return "multiloop", (n, q)
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
        object.__setattr__(self, "seeds", seeds)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidParameterError("epsilon must be positive")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")
        algs = tuple(str(a) for a in self.algorithms)
        if not algs:
            raise InvalidParameterError("algorithms must be nonempty")
        for a in algs:
            parse_algorithm(a, 1.0)
        object.__setattr__(self, "algorithms", algs)
        if self.dim_x < 1 or self.dim_y < 1:
            raise InvalidParameterError("dimensions must be >= 1")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise InvalidParameterError("sigma must be finite and >= 0")

    def to_dict(self) -> dict:
        return {"kappa_grid": list(self.kappa_grid),
                "seeds": list(self.seeds),
                "epsilon": self.epsilon,
                "max_iters": int(self.max_iters),
                "algorithms": list(self.algorithms),
                "dim_x": int(self.dim_x), "dim_y": int(self.dim_y),
                "sigma": self.sigma,
                "problem_seed": int(self.problem_seed)}


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


def _sweep_problem(spec: SweepSpec, kappa: float):
    noise = NoiseModel(sigma=spec.sigma) if spec.sigma > 0 else None
    return make_quadratic_problem(spec.dim_x, spec.dim_y, kappa,
                                  seed=spec.problem_seed, noise=noise)


def _run_group(problem, kind, preset, seeds, epsilon, max_iters):
    """The sweep cells of ``seeds`` on one quadratic problem and algorithm,
    run in lock-step.  Each seed's run iterates until the running average
    of the exact stationarity measure (over check rows) drops to epsilon.

    The running seeds are the rows of stacked (S, d) iterates, and one
    ``iterate`` call advances them all.  Row i draws from seed i's streams
    (``RowStreams``) and every quadratic product is one gemv per row, so
    each row has the bits of its one-seed run.  A row leaves the batch when
    it crosses epsilon at a check row, or when its own iterate turns
    nonfinite, which ends the one-seed run with a DivergenceError.

    Returns (complexity, censored) per seed: the oracle count at the
    crossing, or (None, True) if the run diverged or never resolved within
    max_iters.  A check row makes one stacked reference solve over the
    running seeds, each row with its one-seed bits.
    """
    config = RunConfig(seed=seeds[0], horizon=max_iters)
    if kind == "ssaid":
        _, state, counts = _ssaid_start(problem, config)
    else:
        _, state, counts = _multiloop_start(
            problem, MultiLoopConfig(inner_iters=preset[0],
                                     solver_iters=preset[1]), config)
    # the single loop's step is the baseline's at N = Q = 1
    inner, solver = (range(n) for n in preset or (1, 1))
    alpha, eta, beta = state.steps._arrays
    stride = max(1, max_iters // _SWEEP_CHECKS)
    streams = RowStreams(seeds)
    live = list(range(len(seeds)))     # seed index of each row
    x, y, v = (np.stack([a] * len(seeds))
               for a in (state.x, state.y_hat, state.v_hat))
    totals = [0.0] * len(seeds)
    outcomes = [(None, True)] * len(seeds)
    n_checks = 0
    for k in range(max_iters):
        x_before = x
        y, v, _, est = iterate(problem, streams, k, x, y, v, alpha, eta,
                               inner, solver, 0, len(live))
        x = x - beta * est
        keep = _finite_rows(x, y, v)   # a diverged run never crossed
        if k % stride == 0 or k == max_iters - 1:
            n_checks += 1
            rows = [i for i, kept in enumerate(keep) if kept]
            if rows:
                grad_phi = reference_solution(problem, x_before[rows]).grad_phi
                for i, sq in zip(rows, _row_dot(grad_phi, grad_phi).tolist()):
                    seed_ix = live[i]
                    totals[seed_ix] += sq
                    if totals[seed_ix] / n_checks <= epsilon:
                        outcomes[seed_ix] = (int(max(counts) * (k + 1)), False)
                        keep[i] = False
        if not all(keep):
            live = [s for s, kept in zip(live, keep) if kept]
            if not live:
                break
            x, y, v = x[keep], y[keep], v[keep]
            streams.select(keep)
    return outcomes


def _run_to_epsilon(problem, kind, preset, seed, epsilon, max_iters):
    """One sweep cell: the one-seed case of ``_run_group``."""
    return _run_group(problem, kind, preset, (seed,), epsilon, max_iters)[0]


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


def kappa_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Run every (kappa, seed, algorithm) cell and summarize.

    The seeds of each (kappa, algorithm) group run in lock-step
    (``_run_group``).  Groups are independent; with threads > 1 they are
    dispatched to a pool and collected in submission order, so the output
    is identical for any thread count.
    """
    if threads < 1:
        raise InvalidParameterError("threads must be >= 1")
    problems = {kappa: _sweep_problem(spec, kappa) for kappa in spec.kappa_grid}
    groups = [(kappa, alg) for kappa in spec.kappa_grid
              for alg in spec.algorithms]

    def work(group):
        kappa, alg = group
        kind, preset = parse_algorithm(alg, kappa)
        return _run_group(problems[kappa], kind, preset, spec.seeds,
                          spec.epsilon, spec.max_iters)

    if threads == 1:
        outcomes = [work(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, groups))
    rows = [SweepRow(kappa=kappa, seed=seed, algorithm=alg,
                     complexity=out[0], censored=out[1])
            for (kappa, alg), outs in zip(groups, outcomes)
            for seed, out in zip(spec.seeds, outs)]
    rows.sort(key=lambda r: (r.kappa, r.seed, r.algorithm))
    medians, exponents = _summarize(rows, spec)
    return SweepResult(rows=rows, medians=medians, exponents=exponents)


def compare_algorithms(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Matched-target oracle-count comparison; needs >= 2 algorithms."""
    if len(spec.algorithms) < 2:
        raise InvalidParameterError("comparison needs at least 2 algorithms")
    return kappa_sweep(spec, threads=threads)


def sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_HEADER]
    for r in result.rows:
        comp = "" if r.complexity is None else str(int(r.complexity))
        lines.append(f"{float(r.kappa)!r},{int(r.seed)},{r.algorithm},"
                     f"{comp},{int(r.censored)}")
    return "\n".join(lines) + "\n"


def sweep_summary_json(result: SweepResult, spec: SweepSpec) -> str:
    doc = {"schema": "ssaid-sweep-v1",
           "spec": spec.to_dict(),
           "medians": result.medians,
           "exponents": result.exponents}
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# CLI


def _command(subs, name, summary, extra):
    """Parser of one command with --out-dir, --config and the integer flags
    in ``extra`` (--seed for the single-run commands, --threads for the
    sweeps).  No prefix matching: `sweep --seed` must not pass as --seeds."""
    sub = subs.add_parser(name, help=summary, allow_abbrev=False)
    for flag in extra:
        sub.add_argument(flag, type=int, default=None)
    sub.add_argument("--out-dir", default=None)
    sub.add_argument("--config", default=None,
                     help="flat JSON file of flag values; explicit flags win")
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssaid",
        description="single-loop stochastic bilevel optimization toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = _command(subs, "gen", "emit a problem JSON", ("--seed",))
    gen.add_argument("--family", choices=("quadratic", "logistic"),
                     default=None)
    gen.add_argument("--dim", type=int, default=None,
                     help="sets both dimensions unless overridden")
    gen.add_argument("--dim-x", type=int, default=None)
    gen.add_argument("--dim-y", type=int, default=None)
    gen.add_argument("--kappa", type=float, default=None)
    gen.add_argument("--sigma", type=float, default=None)
    gen.add_argument("--radius", type=float, default=None)
    gen.add_argument("--hess-scale", type=float, default=None)
    gen.add_argument("--rows", type=int, default=None,
                     help="logistic family: dataset rows")
    gen.add_argument("--reg", type=float, default=None)
    gen.add_argument("--batch-size", type=int, default=None)

    run = _command(subs, "run", "run the single-loop method", ("--seed",))
    run.add_argument("--problem", default=None, required=False)
    run.add_argument("--K", type=int, default=None, dest="horizon")
    run.add_argument("--stride", type=int, default=None)
    run.add_argument("--alpha", type=float, default=None)
    run.add_argument("--eta", type=float, default=None)
    run.add_argument("--beta", type=float, default=None)

    ver = _command(subs, "verify", "Monte-Carlo bound checks", ("--seed",))
    ver.add_argument("--problem", default=None)
    ver.add_argument("--all", action="store_true", default=None)
    ver.add_argument("--lemma", default=None)
    ver.add_argument("--K", type=int, default=None, dest="horizon")
    ver.add_argument("--replications", type=int, default=None)
    ver.add_argument("--checkpoints", default=None,
                     help="comma-separated iteration indices")
    ver.add_argument("--mc-seed", type=int, default=None)

    for name in ("sweep", "compare"):
        sw = _command(subs, name, f"{name} over a condition-number grid",
                      ("--threads",))
        sw.add_argument("--kappa-grid", default=None)
        sw.add_argument("--seeds", default=None)
        sw.add_argument("--epsilon", type=float, default=None)
        sw.add_argument("--max-iters", type=int, default=None)
        sw.add_argument("--algorithms", default=None)
        sw.add_argument("--dim", type=int, default=None)
        sw.add_argument("--sigma", type=float, default=None)
        sw.add_argument("--problem-seed", type=int, default=None)

    fit = _command(subs, "fit", "rate fit on a recorded trace CSV", ())
    fit.add_argument("--trace", default=None)
    fit.add_argument("--k-min", type=int, default=None)
    fit.add_argument("--k-max", type=int, default=None)
    return parser


class _Options:
    """Flag resolution: explicit CLI value, then config-file value, then the
    built-in default.  Config keys are the command's flag names with
    underscores (``max_iters``); any other key is an error."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.cfg = {}
        path = self.args.get("config")
        if path is not None:
            try:
                loaded = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise InvalidParameterError(
                    f"cannot read config file {path}: {exc}") from exc
            if not isinstance(loaded, dict):
                raise InvalidParameterError("config file must hold a flat "
                                            "JSON object")
            unknown = sorted(set(loaded) - set(self.args) - {"command", "config"})
            if unknown:
                raise InvalidParameterError(
                    f"config file keys {unknown} are not flags of "
                    f"{self.args['command']!r}")
            self.cfg = loaded

    def get(self, key: str, default=None):
        val = self.args.get(key)
        if val is not None:
            return val
        if key in self.cfg:
            return self.cfg[key]
        return default

    def require(self, key: str, flag: str):
        val = self.get(key)
        if val is None:
            raise InvalidParameterError(f"missing required flag {flag}")
        return val


def _out_dir(opt: _Options) -> Path:
    base = opt.get("out_dir")
    if base is None:
        base = os.environ.get("SSAID_OUT_DIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(path: Path, text: str):
    path.write_text(text)
    print(path)


def _load_problem(opt: _Options):
    path = opt.require("problem", "--problem")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidParameterError(f"cannot read problem file: {exc}") from exc
    return problem_from_json(text)


def _parse_int_list(text, flag: str):
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    try:
        return tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise InvalidParameterError(f"{flag} must be comma-separated "
                                    f"integers, got {text!r}") from exc


def _parse_float_list(text, flag: str):
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        return tuple(float(p) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise InvalidParameterError(f"{flag} must be comma-separated "
                                    f"numbers, got {text!r}") from exc


def _cmd_gen(opt: _Options) -> int:
    family = opt.get("family", "quadratic")
    dim = opt.get("dim", 5)
    dim_x = opt.get("dim_x", dim)
    dim_y = opt.get("dim_y", dim)
    seed = opt.get("seed", 0)
    sigma = opt.get("sigma", 0.0)
    radius = opt.get("radius", 0.0)
    hess_scale = opt.get("hess_scale", 0.0)
    noise = None
    if sigma or radius or hess_scale:
        noise = NoiseModel(sigma=sigma, radius=radius, hess_scale=hess_scale)
    if family == "quadratic":
        problem = make_quadratic_problem(dim_x, dim_y,
                                         opt.get("kappa", 10.0),
                                         noise=noise, seed=seed)
    else:
        problem = make_logistic_problem(dim_x, dim_y,
                                        opt.get("rows", 4 * dim_y),
                                        seed=seed,
                                        reg=opt.get("reg", 1.0),
                                        batch_size=opt.get("batch_size", 4),
                                        noise=noise)
    text = problem_to_json(problem)
    _emit(_out_dir(opt) / f"problem_{problem_hash(problem)[:12]}.json", text)
    return 0


def _cmd_run(opt: _Options) -> int:
    problem = _load_problem(opt)
    horizon = int(opt.get("horizon", 1000))
    seed = int(opt.get("seed", 0))
    stride = int(opt.get("stride", max(1, horizon // _SWEEP_CHECKS)))
    explicit = [opt.get("alpha"), opt.get("eta"), opt.get("beta")]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise InvalidParameterError(
                "--alpha, --eta, --beta must be given together")
        steps = StepSizes(alpha=float(explicit[0]), eta=float(explicit[1]),
                          beta=float(explicit[2]),
                          horizon_k=max(horizon, 1))
    else:
        steps = "auto"
    config = RunConfig(seed=seed, horizon=horizon, steps=steps, stride=stride)
    started = time.perf_counter()
    trace = run_ssaid(problem, config)
    elapsed = time.perf_counter() - started
    out = _out_dir(opt)
    tag = f"{problem_hash(problem)[:10]}_seed{seed}_K{horizon}"
    _emit(out / f"trace_{tag}.csv", trace.csv_text())
    constants = problem.constants
    v0 = initial_vectors(problem, config)[2]
    derived = compute_derived_constants(constants,
                                        v0_norm=float(np.linalg.norm(v0)))
    meta = {
        "schema": "ssaid-run-v1",
        "problem_sha256": problem_hash(problem),
        "problem_family": problem.family,
        "config": config.to_dict(),
        "steps": trace.steps.to_dict(),
        "constants": constants.to_dict(),
        "derived": derived.to_dict(),
        "c_beta": derived.c_beta(constants, trace.steps.alpha,
                                 trace.steps.beta),
        "rows": int(trace.n_rows),
        "final": {
            "k": int(trace.k[-1]),
            "grad_phi_sq": float(trace.grad_phi_sq[-1]),
            "y_err": float(trace.y_err[-1]),
            "v_err": float(trace.v_err[-1]),
            "gc_count": int(trace.gc_count[-1]),
            "mv_count": int(trace.mv_count[-1]),
        },
    }
    _emit(out / f"run_{tag}.json", json.dumps(meta, sort_keys=True, indent=2))
    print(f"wall_seconds={elapsed:.3f}", file=sys.stderr)
    return 0


def _cmd_verify(opt: _Options) -> int:
    problem = _load_problem(opt)
    checkpoints = _parse_int_list(opt.get("checkpoints", "1,5,20,100"),
                                  "--checkpoints")
    mc = MCConfig(replications=int(opt.get("replications", 500)),
                  checkpoints=checkpoints,
                  base_seed=int(opt.get("mc_seed", 0)))
    horizon = int(opt.get("horizon", max(checkpoints)))
    config = RunConfig(seed=int(opt.get("seed", 0)), horizon=horizon)
    lemma = None if opt.get("all") else opt.get("lemma")
    reports = run_lemma_suite(problem, config, mc, lemma)
    name = "all" if lemma is None else reports[0].lemma_id
    stem = f"lemma_{name}_{problem_hash(problem)[:10]}"
    out = _out_dir(opt)
    doc = {"schema": "ssaid-lemma-v1",
           "problem_sha256": problem_hash(problem),
           "mc": mc.to_dict(),
           "horizon": horizon,
           "verdict": "pass" if all(r.passed for r in reports) else "fail",
           "reports": [r.to_json() for r in reports]}
    _emit(out / f"{stem}.json", json.dumps(doc, sort_keys=True, indent=2))
    _emit(out / f"{stem}.csv", summary_csv(reports))
    for rep in reports:
        print(f"{rep.lemma_id}: "
              f"{'pass' if rep.passed else 'FAIL'} "
              f"({len(rep.rows)} rows, "
              f"violation_fraction={rep.violation_fraction:.4f})")
    return 0 if all(r.passed for r in reports) else 2


def _sweep_spec(opt: _Options, default_algs) -> SweepSpec:
    dim = int(opt.get("dim", 10))
    algs = opt.get("algorithms", default_algs)
    if isinstance(algs, str):
        algs = tuple(a.strip() for a in algs.split(",") if a.strip())
    return SweepSpec(
        kappa_grid=_parse_float_list(opt.get("kappa_grid", "2,10,50,250"),
                                     "--kappa-grid"),
        seeds=_parse_int_list(opt.get("seeds", "0,1,2,3,4"), "--seeds"),
        epsilon=float(opt.get("epsilon", 0.1)),
        max_iters=int(opt.get("max_iters", 4_000_000)),
        algorithms=tuple(algs),
        dim_x=dim, dim_y=dim,
        sigma=float(opt.get("sigma", 1.0)),
        problem_seed=int(opt.get("problem_seed", 0)))


def _cmd_sweep(opt: _Options, compare: bool) -> int:
    spec = _sweep_spec(opt, default_algs=("ssaid", "multiloop")
                       if compare else ("ssaid",))
    threads = int(opt.get("threads", 1))
    if compare:
        result = compare_algorithms(spec, threads=threads)
    else:
        result = kappa_sweep(spec, threads=threads)
    out = _out_dir(opt)
    name = "compare" if compare else "sweep"
    _emit(out / f"{name}.csv", sweep_csv(result))
    _emit(out / f"{name}_summary.json", sweep_summary_json(result, spec))
    return 0


def _cmd_fit(opt: _Options) -> int:
    path = opt.require("trace", "--trace")
    trace = IterationTrace.from_csv(path)
    window = (int(opt.require("k_min", "--k-min")),
              int(opt.require("k_max", "--k-max")))
    fit = rate_fit(trace, window)
    out = _out_dir(opt)
    stem = Path(path).stem
    _emit(out / f"fit_{stem}.json",
          json.dumps(fit.to_dict(), sort_keys=True, indent=2))
    print(f"slope={fit.slope!r} r_squared={fit.r_squared!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code == 0 else 1
    try:
        opt = _Options(args)
        if args.command == "gen":
            return _cmd_gen(opt)
        if args.command == "run":
            return _cmd_run(opt)
        if args.command == "verify":
            return _cmd_verify(opt)
        if args.command == "sweep":
            return _cmd_sweep(opt, compare=False)
        if args.command == "compare":
            return _cmd_sweep(opt, compare=True)
        return _cmd_fit(opt)
    except (InvalidParameterError, InvalidProblemError,
            InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ConvergenceFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
