"""Pseudo-spectral Galerkin solver for the Landau--Lifshitz--Baryakhtar
flow on rectangular boxes with natural boundary conditions, plus the
verification suite for its energy laws, estimates and inequalities.
"""

from .fields import (
    GridSpec,
    SpectralField,
    VectorField,
    forward,
    inverse,
    random_field,
    read_snapshot,
    write_snapshot,
)
from .galerkin import LLBarParams, ModeBand, derive_beta1, project, rhs
from .stepping import (
    BlowupError,
    IntegratorPolicy,
    SolverState,
    Trajectory,
    integrate,
    step,
)
from .diagnostics import (
    EnergyLedger,
    NormSuite,
    bihari_general,
    bihari_tstar,
    continuous_dependence,
    energy_balance_residual,
    h1_balance_residual,
    holder_quotient,
    norms,
    three_d_energy_identity,
    weak_residual,
)
from .inequalities import SampleSpec, gn_theta
from .config import ConfigError, InitialSpec, RunConfig, build_initial, parse_config

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "VectorField",
    "SpectralField",
    "forward",
    "inverse",
    "random_field",
    "read_snapshot",
    "write_snapshot",
    "LLBarParams",
    "ModeBand",
    "derive_beta1",
    "project",
    "rhs",
    "IntegratorPolicy",
    "SolverState",
    "Trajectory",
    "BlowupError",
    "integrate",
    "step",
    "NormSuite",
    "EnergyLedger",
    "norms",
    "energy_balance_residual",
    "h1_balance_residual",
    "weak_residual",
    "bihari_tstar",
    "bihari_general",
    "holder_quotient",
    "continuous_dependence",
    "three_d_energy_identity",
    "SampleSpec",
    "gn_theta",
    "ConfigError",
    "InitialSpec",
    "RunConfig",
    "parse_config",
    "build_initial",
    "__version__",
]
