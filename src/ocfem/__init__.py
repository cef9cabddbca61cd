"""Finite-element transcription of constrained optimal control problems.

Each solution component lives on its own mesh in a degree-d piecewise
polynomial space; equality constraints are folded into a quadratic penalty,
positivity into a log barrier, and the resulting unconstrained program is
minimized by a damped Newton method with a continuation in the penalty and
barrier weights.  A refinement harness measures empirical convergence orders.
The remaining public names live in the submodules.
"""

from .assembly import AssembledNlp
from .fespace import build_space
from .harness import build_setup, get_benchmark
from .mesh import uniform_mesh
from .ocp_model import OcpProblem, batched, check_derivatives, default_params
from .solver import SolveReport, SolverOptions, solve

__version__ = "0.1.0"

__all__ = [
    "AssembledNlp",
    "OcpProblem",
    "SolveReport",
    "SolverOptions",
    "batched",
    "build_setup",
    "build_space",
    "check_derivatives",
    "default_params",
    "get_benchmark",
    "solve",
    "uniform_mesh",
]
