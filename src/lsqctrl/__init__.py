"""lsqctrl: least-squares variational solvers for unsteady Stokes null
control and the steady Navier-Stokes direct problem on structured grids.

The library is organized around a single idea: encode the boundary,
initial and target conditions into the ansatz, then measure how far a
candidate is from solving the system by the energy of an elliptic
corrector, and minimize that quadratic (or quartic, for the steady
nonlinear case) energy by metric-preconditioned descent.

Modules
-------
abstract_descent
    Dense engine for quadratic error functionals over subspaces, with
    exact kernel projectors and pseudoinverse minimizers as oracles, the
    descent loop that every solver runs on, and the PDE solvers' exact
    line-step rule.
discretization
    Structured-grid calculus, quadrature and exact sine/eigenbasis
    solvers for the Poisson, space-time elliptic and metric problems.
stokes_control
    The unsteady solver: corrector, energy, metric gradient, descent
    and diagnostics.
steady_nse
    The steady Navier-Stokes direct problem by the same approach.
oracles
    Manufactured solutions, independent dense assembly, FD ladders and
    an independent Newton solve for verification.
cli
    Batch front end (``lsqctrl`` console script).  Import it as
    ``lsqctrl.cli``; ``import lsqctrl`` does not load it, so that
    ``python -m lsqctrl.cli`` runs the module once.

Threads
-------
``LSQCTRL_THREADS=N`` sets the BLAS/OpenMP thread pools (unless their own
variables are already set).  It is read on import and acts only when
``lsqctrl`` is imported before numpy; unset, the pools are left alone.
A value that is not a positive integer is ignored with a warning.
"""

import os
import warnings

_threads = os.environ.get("LSQCTRL_THREADS")
if _threads:
    if _threads.isdigit() and int(_threads) > 0:
        for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(_var, _threads)
    else:
        warnings.warn(f"LSQCTRL_THREADS={_threads!r} ignored: not a positive integer",
                      RuntimeWarning, stacklevel=2)

from . import abstract_descent, discretization, oracles, steady_nse, stokes_control
from .abstract_descent import (
    DescentConfig,
    DescentReport,
    InnerProductSpace,
    LsqProblem,
)
from .discretization import SpaceTimeGrid, SpatialGrid, SupportMask, Triplet
from .steady_nse import SteadyConfig, SteadyProblem, SteadyState
from .stokes_control import ControlProblem, CorrectorField, SolveConfig

__version__ = "0.1.0"

__all__ = [
    "ControlProblem",
    "CorrectorField",
    "DescentConfig",
    "DescentReport",
    "InnerProductSpace",
    "LsqProblem",
    "SolveConfig",
    "SpaceTimeGrid",
    "SpatialGrid",
    "SteadyConfig",
    "SteadyProblem",
    "SteadyState",
    "SupportMask",
    "Triplet",
    "abstract_descent",
    "discretization",
    "oracles",
    "steady_nse",
    "stokes_control",
]
