"""Cauchy problems for symmetric hyperbolic systems with nonlocal-in-time
potentials: iterative series construction, bound/threshold arithmetic, and
verification scenarios on periodic desk-scale grids.
"""

__version__ = "0.1.0"

from .grids import (Grid, InnerWeight, StateField, Trajectory, make_grid,
                    sample_trajectory)
from .systems import (SystemSpec, make_system, ode_system, transport_system,
                      system_from_json, validate_system)
from .kernels import (BoundEstimate, ConvTerm, TimeKernel, adjoint,
                      estimate_bound, make_convolution, make_modulated,
                      make_separable, threshold_margin, weighted)
from .solver import (SolveAborted, SolveOptions, evolution_op, green_retarded,
                     solve_local)
from .dyson import (DysonResult, bound_retarded, bound_short, dyson_retarded,
                    dyson_short_range, residual)
from .diagnostics import (DiagReport, cone_violation, energy_identity,
                          exponential_bound, measure_D, order_estimate,
                          support_mask)
from .scenarios import (CounterexampleConfig, DiracConfig, MaxwellConfig,
                        counterexample_report, dirac_run,
                        extended_system_check, maxwell_run,
                        surface_layer_product, surface_layer_series)


def __getattr__(name):
    # the CLI's names are served on first use, not imported with the
    # package, so that `python -m hypnl.cli` executes the module once
    # (importing it here makes runpy warn that it is already imported)
    if name in ("cli_run", "load_config"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Grid", "InnerWeight", "StateField", "Trajectory", "make_grid",
    "sample_trajectory",
    "SystemSpec", "make_system", "ode_system", "transport_system",
    "system_from_json", "validate_system",
    "BoundEstimate", "ConvTerm", "TimeKernel", "adjoint", "estimate_bound",
    "make_convolution", "make_modulated", "make_separable",
    "threshold_margin", "weighted",
    "SolveAborted", "SolveOptions", "evolution_op", "green_retarded",
    "solve_local",
    "DysonResult", "bound_retarded", "bound_short", "dyson_retarded",
    "dyson_short_range", "residual",
    "DiagReport", "cone_violation", "energy_identity", "exponential_bound",
    "measure_D", "order_estimate", "support_mask",
    "CounterexampleConfig", "DiracConfig", "MaxwellConfig",
    "counterexample_report", "dirac_run", "extended_system_check",
    "maxwell_run", "surface_layer_product", "surface_layer_series",
    "cli_run", "load_config",
    "__version__",
]
