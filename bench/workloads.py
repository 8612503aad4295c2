"""The three workloads: their inputs, CLI commands and output checks.

A workload turns the benchmark seed into

* set-up commands (``ssaid gen``), timed as ``setup_s``;
* main commands, timed as ``wall_s``;
* checks on what the main commands wrote.

Commands are argument lists for ``python -m ssaid``; ``{out}`` is the
run's output directory and ``{gen_<family>}`` the path of the problem that
set-up command printed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks as ck
import reference as ref

EPSILON = 0.1
SWEEP_KAPPAS = (2.0, 10.0, 50.0)
SWEEP_CAP = 300_000
COMPARE_KAPPAS = (2.0, 10.0)
COMPARE_CAP = 20_000
SWEEP_PROBLEM_SEED = 0
SEEDS_PER_CELL = 3
TRACE_K = {"quadratic": 10_000, "logistic": 3_000}
MODEL_ROWS = 200        # trace rows compared with the reference model
CHECKPOINTS = (1, 5, 20, 100)
REPLICATIONS = 2000
VERIFY_ARGS = ["--all", "--replications", str(REPLICATIONS),
               "--checkpoints", ",".join(map(str, CHECKPOINTS))]


def _kappa_list(kappas):
    return ",".join(str(int(k)) for k in kappas)


def _family_gens(seed):
    """The two problems ``trace`` and ``verify`` run on."""
    return [
        ("gen.quadratic",
         ["gen", "--family", "quadratic", "--dim", "10", "--kappa", "10",
          "--sigma", "1", "--radius", "0.5", "--seed", str(seed),
          "--out-dir", "{out}/problems"]),
        ("gen.logistic",
         ["gen", "--family", "logistic", "--dim", "10", "--rows", "40",
          "--seed", str(seed), "--out-dir", "{out}/problems"]),
    ]


def _program_steps(problem_path, seed, horizon):
    """Step sizes from the program's own schedule, for the reference model."""
    from ssaid.problems import problem_from_json
    from ssaid.ssaid import RunConfig, resolve_step_sizes

    problem = problem_from_json(Path(problem_path).read_text())
    steps = resolve_step_sizes(problem, RunConfig(seed=seed, horizon=horizon),
                               np.zeros(problem.dim_y))
    return steps.alpha, steps.eta, steps.beta


def _one(paths, prefix, suffix):
    found = [p for p in paths if Path(p).name.startswith(prefix)
             and p.endswith(suffix)]
    ck.require(len(found) == 1, f"expected one {prefix}*{suffix}, got {found}")
    return found[0]


class Workload:
    """Base: subclasses set the commands and the checks."""

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.cache = {}   # expectations computed once per run

    def expect(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def setup(self):
        raise NotImplementedError

    def main(self):
        raise NotImplementedError

    def checks(self, printed):
        """(label, callable) pairs; ``printed`` maps each command label to
        the artifact paths it printed."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed):
        super().__init__(seed)
        # distinct benchmark seeds get disjoint run seeds
        self.run_seeds = [SEEDS_PER_CELL * seed + i
                          for i in range(SEEDS_PER_CELL)]

    def setup(self):
        return [(f"gen.kappa{int(k)}",
                 ["gen", "--family", "quadratic", "--dim", "10",
                  "--kappa", str(int(k)), "--sigma", "1",
                  "--seed", str(SWEEP_PROBLEM_SEED),
                  "--out-dir", f"{{out}}/problems/kappa{int(k)}"])
                for k in SWEEP_KAPPAS]

    def _grid_args(self, kappas, cap):
        return ["--kappa-grid", _kappa_list(kappas),
                "--seeds", ",".join(map(str, self.run_seeds)),
                "--epsilon", str(EPSILON), "--max-iters", str(cap),
                "--dim", "10", "--sigma", "1",
                "--problem-seed", str(SWEEP_PROBLEM_SEED), "--threads", "2"]

    def main(self):
        return [("sweep", ["sweep",
                           *self._grid_args(SWEEP_KAPPAS, SWEEP_CAP),
                           "--out-dir", "{out}/sweep"]),
                ("compare", ["compare",
                             *self._grid_args(COMPARE_KAPPAS, COMPARE_CAP),
                             "--algorithms", "ssaid,multiloop",
                             "--out-dir", "{out}/compare"])]

    def checks(self, printed):
        def load(label, stem):
            rows = ck.read_sweep(Path(_one(printed[label], stem, ".csv"))
                                 .read_text())
            summary = ck.load_json(_one(printed[label], f"{stem}_summary",
                                        ".json"))
            return rows, summary

        def cells(label, kappas, algs, cap):
            def run():
                rows, _ = load(label, label)
                ck.check_cells(rows, kappas, self.run_seeds, algs, cap)
            return run

        def sweep_summary():
            rows, summary = load("sweep", "sweep")
            ck.check_summary(summary, rows, ordered=("ssaid",))

        def compare_summary():
            rows, summary = load("compare", "compare")
            ck.check_summary(summary, rows, ordered=("multiloop",))
            ck.check_single_below_multi(summary)

        def model_cell():
            rows, _ = load("sweep", "sweep")
            seed = self.run_seeds[0]
            reported = next(r["complexity"] for r in rows
                            if r["kappa"] == 2.0 and r["seed"] == seed
                            and r["algorithm"] == "ssaid")
            problem = _one(printed["gen.kappa2"], "problem_", ".json")

            def compute():
                model = ref.QuadraticModel.from_file(problem)
                steps = _program_steps(problem, seed, SWEEP_CAP)
                return ref.cell_complexity(model, seed, EPSILON, SWEEP_CAP,
                                           *steps)

            ck.check_cell_matches_model(reported, self.expect("cell", compute),
                                        max(1, SWEEP_CAP // 2048))

        return [("sweep.cells", cells("sweep", SWEEP_KAPPAS, ("ssaid",),
                                      SWEEP_CAP)),
                ("compare.cells", cells("compare", COMPARE_KAPPAS,
                                        ("ssaid", "multiloop"), COMPARE_CAP)),
                ("sweep.summary", sweep_summary),
                ("compare.summary", compare_summary),
                ("sweep.model_cell", model_cell)]


class Trace(Workload):
    name = "trace"

    def setup(self):
        return _family_gens(self.seed)

    def main(self):
        return [(f"run.{fam}",
                 ["run", "--problem", f"{{gen_{fam}}}", "--K", str(k),
                  "--stride", "1", "--seed", str(self.seed),
                  "--out-dir", "{out}/runs"])
                for fam, k in TRACE_K.items()]

    def checks(self, printed):
        out = []
        for fam, horizon in TRACE_K.items():
            label = f"run.{fam}"

            def rows(label=label):
                return ck.read_trace(Path(_one(printed[label], "trace_",
                                               ".csv")).read_text())

            def counters(rows=rows, horizon=horizon):
                ck.check_trace_rows(rows(), horizon)

            def v_cap(rows=rows, fam=fam):
                problem = _one(printed[f"gen.{fam}"], "problem_", ".json")
                ck.check_v_cap(rows(), ref.v_bound_cap(ck.load_json(problem)))

            def descent(rows=rows):
                ck.check_descent(rows())

            out += [(f"trace.{fam}.counters", counters),
                    (f"trace.{fam}.v_bound", v_cap),
                    (f"trace.{fam}.descent", descent)]

        def model_rows():
            problem = _one(printed["gen.quadratic"], "problem_", ".json")
            meta = ck.load_json(_one(printed["run.quadratic"], "run_", ".json"))
            steps = meta["steps"]

            def compute():
                model = ref.QuadraticModel.from_file(problem)
                return ref.trace_rows(model, self.seed, MODEL_ROWS,
                                      steps["alpha"], steps["eta"],
                                      steps["beta"])

            trace = ck.read_trace(Path(_one(printed["run.quadratic"], "trace_",
                                            ".csv")).read_text())
            ck.check_trace_matches_model(trace[:MODEL_ROWS],
                                         self.expect("rows", compute))

        return out + [("trace.quadratic.model", model_rows)]


class Verify(Workload):
    name = "verify"

    def setup(self):
        return _family_gens(self.seed)

    def main(self):
        return [(f"verify.{fam}",
                 ["verify", "--problem", f"{{gen_{fam}}}", *VERIFY_ARGS,
                  "--seed", str(self.seed), "--mc-seed", str(self.seed),
                  "--out-dir", f"{{out}}/lemmas/{fam}"])
                for fam in ("quadratic", "logistic")]

    def checks(self, printed):
        out = []
        for fam in ("quadratic", "logistic"):
            label = f"verify.{fam}"

            def doc(label=label):
                return ck.load_json(_one(printed[label], "lemma_all_", ".json"))

            def reports(doc=doc):
                ck.check_reports(doc())

            def geom(doc=doc):
                ck.check_geom_sum(doc(), self.expect(
                    "geom", lambda: ref.geom_sum_rows(self.seed)))

            def v_cap(doc=doc, fam=fam):
                problem = _one(printed[f"gen.{fam}"], "problem_", ".json")
                ck.check_v_bound_report(
                    doc(), ref.v_bound_cap(ck.load_json(problem)) + 1e-9)

            out += [(f"verify.{fam}.reports", reports),
                    (f"verify.{fam}.geom_sum", geom),
                    (f"verify.{fam}.v_bound", v_cap)]

        def lower_tracking():
            problem = _one(printed["gen.quadratic"], "problem_", ".json")

            def compute():
                model = ref.QuadraticModel.from_file(problem)
                steps = _program_steps(problem, self.seed, max(CHECKPOINTS))
                return ref.lower_tracking_rows(model, self.seed, self.seed,
                                               REPLICATIONS, CHECKPOINTS,
                                               *steps)

            doc = ck.load_json(_one(printed["verify.quadratic"], "lemma_all_",
                                    ".json"))
            ck.check_lower_tracking(doc, self.expect("tracking", compute))

        return out + [("verify.quadratic.lower_tracking", lower_tracking)]


WORKLOADS = {w.name: w for w in (Sweep, Trace, Verify)}
