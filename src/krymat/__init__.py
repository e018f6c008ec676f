"""Krylov projection solvers for differential Sylvester and Lyapunov equations."""

from .blockmat import BlockRow, diamond, frob_inner, global_qr, kron_apply
from .dlebdf import (BDFScheme, bdf_coefficients, bdf_integrate, egadl_solve, residual_bound_bdf,
                     residual_bound_exp)
from .dleexp import apriori_error_bound, expo_dle_solve, gram_trajectory
from .dsylv import galerkin_solve, integrate_projected, project_rhs, residual_norm
from .egarnoldi import ExtendedGlobalArnoldi
from .garnoldi import GlobalArnoldi
from .oracle import dense_dle_exact, dense_dme_solve
from .probio import (DLEProblem, GenSylvesterProblem, LinearSolver, gen_laplacian2d,
                     gsylv_apply, load_problem, read_matrix_market, save_problem,
                     write_matrix_market)
from .smallmat import (expm, joint_sym_factor, lognorm2, lyap_solve, phi1, trunc_sym_factor,
                       vanloan_gram_nodes)
from .solution import (CoordinateTrajectory, LowRankSolution, SolveReport, SylvesterSolution,
                       TimeGrid)

__version__ = "0.1.0"
