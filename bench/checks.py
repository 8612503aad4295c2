"""Correctness checks on the artifacts the ``ssaid`` CLI writes.

Each check takes parsed artifacts plus independently computed expectations
and raises ``CheckFailed`` with the reason when the artifacts are wrong.
None of them compares against a stored copy of an earlier output: the
expectations come from ``reference.py`` or from properties the method must
have whatever the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics

LEMMA_ROWS = {  # rows per lemma for checkpoints 1,5,20,100 and K = 100
    "GeomSum": 8, "LowerTracking": 4, "VBound": 100, "BiasDecoupling": 4,
    "EstimatorBiasRecursion": 4, "AdjointDrift": 4,
    "MeanSquareContraction": 4, "CoupledRecursion": 4, "HypergradBias": 4,
    "HypergradMSE": 4, "CumulativeBias": 8,
}
TRACE_RTOL = 1e-9       # trace rows against the reference model
VERIFY_RTOL = 1e-9      # recomputed lemma rows


class CheckFailed(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# parsing


def read_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    require(rows, "empty CSV")
    return rows


def read_trace(text):
    rows = read_csv(text)
    return [{k: (int(v) if k in ("k", "gc_count", "mv_count") else float(v))
             for k, v in r.items()} for r in rows]


def read_sweep(text):
    out = []
    for r in read_csv(text):
        out.append({"kappa": float(r["kappa"]), "seed": int(r["seed"]),
                    "algorithm": r["algorithm"],
                    "complexity": int(r["complexity"]) if r["complexity"] else None,
                    "censored": int(r["censored"])})
    return out


# ---------------------------------------------------------------------------
# sweep and compare


def per_iteration_cost(algorithm, kappa):
    """Oracle calls per iteration: max(gradient, matrix-vector) samples."""
    if algorithm == "ssaid":
        return 3
    require(algorithm == "multiloop", f"unexpected algorithm {algorithm}")
    n = max(1, math.ceil(kappa))
    return max(n + 2, n + 1)


def check_cells(rows, kappas, seeds, algorithms, max_iters):
    """Every cell is present, resolves, and reports a positive multiple of
    its per-iteration cost no larger than the cost of the whole cap."""
    want = {(k, s, a) for k in kappas for s in seeds for a in algorithms}
    got = {(r["kappa"], r["seed"], r["algorithm"]) for r in rows}
    require(got == want and len(rows) == len(want),
            f"cells {sorted(got)} differ from the grid {sorted(want)}")
    for r in rows:
        cell = (r["kappa"], r["seed"], r["algorithm"])
        require(r["censored"] == 0 and r["complexity"] is not None,
                f"cell {cell} did not resolve")
        cost = per_iteration_cost(r["algorithm"], r["kappa"])
        c = r["complexity"]
        require(c > 0 and c % cost == 0,
                f"cell {cell}: complexity {c} is not a multiple of {cost}")
        require(c <= cost * max_iters,
                f"cell {cell}: complexity {c} exceeds the cap {cost * max_iters}")


def check_summary(summary, rows, ordered):
    """Every median is resolved and agrees with the rows; for each algorithm
    in ``ordered`` no median exceeds the one at the largest kappa and the
    fitted exponent is above 0.

    At kappa 2 and 10 the single-loop medians of a few seeds are not ordered
    on every seed (see the benchmark README), so medians are compared with
    the one at the largest kappa, and single-loop cells of ``compare`` (kappa
    2 and 10 only) are held to the multi-loop bound instead.
    """
    by = {}
    for r in rows:
        by.setdefault((r["algorithm"], r["kappa"]), []).append(r["complexity"])
    medians = {}
    for m in summary["medians"]:
        key = (m["algorithm"], float(m["kappa"]))
        require(m["resolved"], f"median {key} not resolved")
        want = statistics.median(by[key])
        require(close(m["median"], want, 1e-12),
                f"median {key} = {m['median']}, rows give {want}")
        medians[key] = m["median"]
    for alg in ordered:
        ks = sorted(k for a, k in medians if a == alg)
        top = medians[(alg, ks[-1])]
        for k in ks[:-1]:
            require(medians[(alg, k)] <= top,
                    f"{alg}: median at kappa={k} exceeds the one at "
                    f"kappa={ks[-1]}")
        slope = summary["exponents"][alg]
        require(slope is not None and slope > 0,
                f"{alg}: fitted exponent {slope} is not above 0")


def check_single_below_multi(summary):
    """At each compared kappa the single-loop median is at most the
    multi-loop median."""
    med = {(m["algorithm"], float(m["kappa"])): m["median"]
           for m in summary["medians"]}
    kappas = sorted({k for _, k in med})
    for k in kappas:
        require(med[("ssaid", k)] <= med[("multiloop", k)],
                f"kappa={k}: ssaid median {med[('ssaid', k)]} above "
                f"multiloop median {med[('multiloop', k)]}")


def check_cell_matches_model(reported, modelled, every):
    """The reference model lands within one check interval of the cell."""
    require(modelled is not None, "the reference model never resolved")
    require(abs(reported - modelled) <= 3 * every,
            f"cell complexity {reported} vs reference model {modelled}")


# ---------------------------------------------------------------------------
# run traces


def check_trace_rows(rows, horizon):
    """Stride-1 rows carry k = 0..K-1 and the fixed per-iteration bill."""
    require(len(rows) == horizon, f"{len(rows)} rows, expected {horizon}")
    for i, r in enumerate(rows):
        require(r["k"] == i, f"row {i} has k={r['k']}")
        require(r["gc_count"] == 3 * (i + 1) and r["mv_count"] == 2 * (i + 1),
                f"row {i}: counters {r['gc_count']},{r['mv_count']}")


def check_v_cap(rows, cap):
    """VBound: ||v_k|| <= ||v_0|| + M / mu on every row."""
    worst = max(r["v_norm"] for r in rows)
    require(worst <= cap, f"max v_norm {worst} above the cap {cap}")


def check_descent(rows):
    """The running average of ||grad phi||^2 at K is below the first row."""
    avg = sum(r["grad_phi_sq"] for r in rows) / len(rows)
    require(avg < rows[0]["grad_phi_sq"],
            f"running average {avg} not below the first row "
            f"{rows[0]['grad_phi_sq']}")


def check_trace_matches_model(rows, model_rows):
    names = ("k", "grad_phi_sq", "y_err", "v_err", "v_norm", "x_step_norm",
             "phi", "gc_count", "mv_count")
    require(len(rows) == len(model_rows),
            f"{len(rows)} rows to compare, model has {len(model_rows)}")
    for r, m in zip(rows, model_rows):
        for name, want in zip(names, m):
            require(close(r[name], want, TRACE_RTOL),
                    f"row {r['k']} {name}: {r[name]!r} vs model {want!r}")


# ---------------------------------------------------------------------------
# lemma reports


def check_reports(doc):
    """All lemma ids, the expected row counts, and every report passing."""
    reports = {r["lemma_id"]: r for r in doc["reports"]}
    require(set(reports) == set(LEMMA_ROWS) and len(doc["reports"]) == 11,
            f"lemma ids {sorted(reports)}")
    for lid, n in LEMMA_ROWS.items():
        require(len(reports[lid]["rows"]) == n,
                f"{lid}: {len(reports[lid]['rows'])} rows, expected {n}")
        require(reports[lid]["passed"], f"{lid} failed")
    require(doc["verdict"] == "pass", f"verdict {doc['verdict']}")


def report_rows(doc, lemma_id):
    return next(r["rows"] for r in doc["reports"] if r["lemma_id"] == lemma_id)


def check_geom_sum(doc, expected):
    rows = report_rows(doc, "GeomSum")
    require(len(rows) == len(expected), "GeomSum row count")
    for row, (lhs, rhs) in zip(rows, expected):
        require(close(row["lhs"], lhs, VERIFY_RTOL)
                and close(row["rhs"], rhs, VERIFY_RTOL),
                f"GeomSum row {row['k']}: ({row['lhs']}, {row['rhs']}) vs "
                f"({lhs}, {rhs})")
        require(row["lhs"] <= row["rhs"] * (1 + 1e-12) + 1e-12,
                f"GeomSum row {row['k']} violated")


def check_v_bound_report(doc, cap):
    for row in report_rows(doc, "VBound"):
        require(close(row["rhs"], cap, 1e-12),
                f"VBound row {row['k']}: cap {row['rhs']} vs {cap}")
        require(row["lhs"] <= cap, f"VBound row {row['k']} above the cap")


def check_lower_tracking(doc, expected):
    rows = report_rows(doc, "LowerTracking")
    require(len(rows) == len(expected), "LowerTracking row count")
    for row, (k, lhs, se, rhs) in zip(rows, expected):
        require(row["k"] == k, f"LowerTracking checkpoint {row['k']} vs {k}")
        for name, want in (("lhs", lhs), ("lhs_se", se), ("rhs", rhs)):
            require(close(row[name], want, VERIFY_RTOL),
                    f"LowerTracking k={k} {name}: {row[name]!r} vs {want!r}")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
