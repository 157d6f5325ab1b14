"""Three-body bound states with regularized zero-range interactions.

The pipeline: a ParticleSystem defines masses and pairwise low-energy
parameters (scattering length, effective range, shape parameter); the
angular solver traces the lowest hyperangular eigenvalue branch u(rho);
the branch becomes an effective hyper-radial potential; a Numerov shooting
solver extracts the bound states.  See the bundled helium-trimer configs
under zrtrimer/data/ and the `zrtrimer` command-line tool.
"""

__version__ = "0.1.0"

from .angular import (
    AngularProblem,
    BranchFoldError,
    NuBranch,
    PoleProximityError,
    RootSearchError,
    boson_residual,
    build_matrix,
    efimov_constant,
    nu2_asymptotic,
    nu_cot_half_pi,
    sin_ratio,
    trace_branch,
)
from .config import ConfigError, RunConfig, parse_config
from .potential import EffectivePotential, effective_potential
from .radial import (
    RadialSolution,
    ThomasSpectrum,
    count_nodes,
    solve_bound_states,
    thomas_spectrum,
)
from .system import (
    KinematicConstants,
    PairParams,
    ParticleSystem,
    SolverError,
    critical_p_shape,
    dimer_binding_energy,
    dimer_pole_kappa,
    hartree_to_mk,
    reduced_masses,
)

__all__ = [
    "__version__",
    "AngularProblem", "BranchFoldError", "NuBranch", "PoleProximityError",
    "RootSearchError",
    "boson_residual", "build_matrix", "efimov_constant", "nu2_asymptotic",
    "nu_cot_half_pi", "sin_ratio", "trace_branch",
    "ConfigError", "RunConfig", "parse_config",
    "EffectivePotential", "effective_potential",
    "RadialSolution", "ThomasSpectrum", "count_nodes", "solve_bound_states",
    "thomas_spectrum",
    "KinematicConstants", "PairParams", "ParticleSystem", "SolverError",
    "critical_p_shape", "dimer_binding_energy", "dimer_pole_kappa",
    "hartree_to_mk", "reduced_masses",
]
