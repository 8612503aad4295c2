"""Single-loop stochastic bilevel optimization with warm-started implicit
differentiation, synthetic ground-truth problems, a multi-loop baseline, and
a Monte-Carlo verifier for the method's convergence bounds."""

from .baselines import MultiLoopConfig, multiloop_step, run_multiloop
from .errors import (ConvergenceFailureError, DivergenceError,
                     InsufficientDataError, InvalidParameterError,
                     InvalidProblemError)
from .harness import (RateFit, SweepResult, SweepRow, SweepSpec, kappa_sweep,
                      main, parse_algorithm, rate_fit, sweep_csv,
                      sweep_summary_json)
from .hypergradient import (DerivedConstants, StepSizes, beta_stability_cap,
                            compute_derived_constants, compute_l_phi,
                            default_step_sizes)
from .problems import (LogisticBilevelProblem, NoiseModel, ProblemConstants,
                       PseudoHuberCosineUpper, QuadraticBilevelProblem,
                       ReferenceSolution, lower_solution,
                       make_logistic_problem, make_quadratic_problem,
                       problem_from_json, problem_hash, problem_to_json,
                       reference_solution)
from .ssaid import (IterationTrace, RunConfig, SSAIDState, initial_vectors,
                    resolve_step_sizes, run_ssaid, ssaid_step)
from .streams import StreamFactory, stream
from .verification import (LEMMA_IDS, CheckRow, LemmaReport, MCConfig,
                           check_bias_recursions, check_coupled_recursion,
                           check_cumulative_bounds, check_geometric_sum,
                           check_lower_tracking, check_v_bound, jackknife_se,
                           loo_mean, run_lemma_suite, summary_csv)

__version__ = "0.1.0"
