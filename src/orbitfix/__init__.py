"""Iterative solvers for algebraic systems with continuous symmetry groups.

The solvers treat systems whose solution sets are group orbits: the
Jacobian is singular along the symmetry generators, iterates converge to
some orbit element rather than a prescribed one, and the diagnostics here
(orbit alignment, kernel checks, iteration-matrix spectra) make that
behaviour observable. Two worked problem families ship with the package:
planar relative equilibria of a gravitating ring (`nbody`) and solitary
waves of a symmetric two-component long-wave system (`boussinesq`).
"""

from .numlin import (DENSE_DIM_LIMIT, KrylovStats, LinearOperator, SpectrumReport,
                     dense_eigenvalues, materialize, minres)
from .periodic import fourier_symbols
from .solvers import (CONVERGED_REFERENCE, CONVERGED_RESIDUAL, DIVERGED,
                      MAX_ITERATIONS, STATUSES, HomogeneousSplit, ProblemSpec,
                      SolveOutcome, SolverConfig, TraceRow, fixed_point_solve,
                      iteration_matrix_spectrum, newton_solve, petviashvili_solve)
from .symmetry import GroupAction, OrbitReport, align_to_orbit, kernel_check, predict_limit

__version__ = "0.1.0"
