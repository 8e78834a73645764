"""Lagrange-type discretizations of the Caputo fractional derivative.

The package builds the L1, L2, L1-2 and Lk schemes on uniform grids,
measures their convergence orders on a family of Holder-continuous test
functions, and cross-checks every scheme against an independent adaptive
quadrature oracle.
"""

from .holder import HolderTestFunction, RegularityClass, UniformGrid
from .interp import SchemeKind, build_interpolant
from .schemes import discrete_caputo
from .oracle import QuadratureConvergenceError, quad_caputo_integrated, quad_caputo_piecewise
from .harness import order_first_node, order_interior, reproduce_table

__version__ = "0.1.0"

__all__ = [
    "HolderTestFunction",
    "RegularityClass",
    "UniformGrid",
    "SchemeKind",
    "build_interpolant",
    "discrete_caputo",
    "QuadratureConvergenceError",
    "quad_caputo_integrated",
    "quad_caputo_piecewise",
    "order_first_node",
    "order_interior",
    "reproduce_table",
    "__version__",
]
