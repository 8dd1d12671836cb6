"""Degenerate p-Laplacians on H-type groups: deformed horizontal vector
fields, gauge norms, fundamental solutions, sharp Hardy inequalities, and
the numerical verification suites that confront every closed form with an
independent differentiation or quadrature oracle."""

from .algebra import (
    HTypeAlgebra,
    OperatorParams,
    bracket,
    from_j_matrices,
    make_heisenberg,
    make_quaternionic,
    norm_d,
    norm_d_eps,
    resolve_group,
)
from .fields import (
    RadialProfile,
    ScalarField,
)
from .closedform import (
    FundamentalSolutionSpec,
    ball_moment,
    fundamental_solution,
    grad_d_eps_sq,
    lap_d4k,
    lap_d_eps,
    psi,
    radial_L,
    sigma_p,
    sigma_p_beta,
    sphere_moment,
)
from .quadrature import grid_integral_1d
from .verify import SuiteConfig, hardy_ratio, run_suite

__version__ = "0.1.0"
