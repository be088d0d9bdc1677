"""Finite-horizon linear-quadratic analysis via Riccati extremals of
differential matrix inequalities, with covariance-side optimality
certificates.

The package splits along the duality: `riccati` and `dlmi` build and certify
the dual (matrix inequality) side, `covariance` rebuilds the primal side
from the induced feedback, and `analyzers` composes both into end-to-end
verdicts for regulator, worst-case, gain-bound, and passivity questions.
"""

from .analyzers import (BracketFailure, Certificate, DriCloudReport,
                        EscapeUnexpected, NormResult, VerificationReport,
                        bounded_real_test, dri_cloud, hinf_norm_bisection,
                        iqc_infimum, passivity_test, scalar_preset, solve_lqr,
                        solve_stoch_lqr, verify_solution)
from .covariance import (Gain, alignment_residual, closed_loop_simulate,
                         deterministic_covariance, descriptor_residual,
                         gain_from_dual, monte_carlo_cost, primal_objective,
                         stochastic_covariance)
from .dlmi import (DlmiCertificate, ResidualTooLarge, assemble_M,
                   dual_objective, extremal_factorization, feasibility,
                   lure_residuals)
from .model import (BoundedReal, CostData, GeneralIQC, LQR, PositiveReal,
                    ProblemSpec, QuadForm, StateSpace, StochLQR, TimeGrid,
                    ValidationError, apply_A_adj, apply_Aop, apply_E,
                    apply_E_adj, assemble_quadform, effective_cost, validate)
from .riccati import (DreSolution, DriSample, MatTrajectory, solve_dre_final,
                      solve_lyapunov_final)
from .symmat import (M22NotPDError, NotPSDError, SymFactor, SymMat, eps_rank,
                     nuclear_norm, sigma_max_norm, sym_factor,
                     trace_duality_maximizer, trace_inner)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SymMat", "SymFactor", "NotPSDError", "M22NotPDError",
    "trace_inner", "nuclear_norm", "sigma_max_norm",
    "trace_duality_maximizer", "sym_factor", "eps_rank",
    "TimeGrid", "StateSpace", "CostData", "ProblemSpec", "QuadForm",
    "LQR", "StochLQR", "BoundedReal", "PositiveReal", "GeneralIQC",
    "ValidationError", "validate", "effective_cost", "assemble_quadform",
    "apply_E", "apply_Aop", "apply_E_adj", "apply_A_adj",
    "MatTrajectory", "DreSolution", "DriSample",
    "solve_lyapunov_final", "solve_dre_final",
    "DlmiCertificate", "ResidualTooLarge", "assemble_M", "feasibility",
    "extremal_factorization", "lure_residuals", "dual_objective",
    "Gain", "gain_from_dual",
    "closed_loop_simulate", "deterministic_covariance",
    "stochastic_covariance", "primal_objective", "descriptor_residual",
    "alignment_residual", "monte_carlo_cost",
    "Certificate", "NormResult", "DriCloudReport", "VerificationReport",
    "EscapeUnexpected", "BracketFailure",
    "solve_lqr", "solve_stoch_lqr", "iqc_infimum", "bounded_real_test",
    "hinf_norm_bisection", "passivity_test", "dri_cloud", "verify_solution",
    "scalar_preset",
]
