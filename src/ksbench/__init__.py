"""Numerical workbench for stationary chemotaxis states on planar Neumann
domains: finite-element spectra, the mean-field energy functional, barycenter
measures, the concentration test family, existence criteria and a
critical-point solver.

KS_THREADS caps BLAS/OpenMP threads.  BLAS reads its thread count once, when
numpy loads it, so the variables are set here, before the first import that
pulls in numpy; they have no effect if numpy was imported before ksbench.
"""

import os

if os.environ.get("KS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["KS_THREADS"])

from .energy import EnergyFunctional, Field, Parameters, project_pi
from .mesh import Mesh, build_builtin, load_mesh
from .spectrum import SpectralBasis, assemble, bracket_index, eigenpairs

__all__ = [
    "EnergyFunctional", "Field", "Parameters", "project_pi",
    "Mesh", "build_builtin", "load_mesh",
    "SpectralBasis", "assemble", "bracket_index", "eigenpairs",
]

__version__ = "0.1.0"
