"""Least-cost threshold-reduction planning for linear threshold cascades.

Pipeline: extract per-type network statistics, solve a small LP that lifts
the mean-field activation curve above the diagonal at minimum cost, then
realize and validate the planned intervention on concrete or sampled
networks.
"""

__version__ = "0.1.0"

from .graph import (MultiGraph, GraphError, ltm_step, ltm_trajectory,
                    apply_intervention, active_fraction, check_target,
                    parse_edge_list)
from .typestats import (AgentType, Statistics, StatIntervention, StatsError,
                        extract_statistics, null_intervention, post_statistics,
                        intervention_cost, check_well_posed, cost_rule,
                        threshold_rule)
from .meanfield import (binom_tail, psi, phi, coeff_a, phi_decomposed,
                        recursion, derivative_bound, psi_inverse)
from .lp import LpModel, LpSolution, solve, check_solution
from .planner import (PlannerConfig, PlanResult, alpha_eps, delta_n, build_lp,
                      plan, audit_original, audit_relaxed, PlannerError)
from .sampler import (sample_configuration_model, realize_intervention,
                      monte_carlo_validate, McReport, SamplerError)
