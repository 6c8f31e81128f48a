"""Spectral classification of the time-harmonic Maxwell pencil at a planar interface.

The package classifies the omega-spectrum of the curl-curl pencil
T_k - W(x1, omega) for two homogeneous (possibly dispersive, possibly lossy)
media joined at x1 = 0, solves for surface-plasmon eigenmodes, builds
resolvent solutions and Weyl sequences from closed-form representations, and
cross-checks everything against an independent finite-difference oracle.
"""

import os
from importlib import import_module

# set before the imports below load numpy, whose OpenBLAS reads it: README, "BLAS threads"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .complex_numerics import (
    Tolerances,
    in_open_positive_ray,
    in_ray,
    poly_roots,
    principal_sqrt,
)
from .dielectric import (
    DielectricModel,
    InterfaceProblem,
    Omega0Point,
    omega0_set,
    singular_points,
    singular_set,
    w,
    wtilde,
)
from .classify1d import SpectrumClass, classify, classify2, in_M, in_M2, in_N, in_N2
# modes, resolvent and fd_oracle load on first use: a command loads what it runs
_LAZY = {
    **dict.fromkeys(("PlasmonMode", "WeylSample", "dispersion_k2", "eigen_omegas",
                     "eigenfunction_eval", "mode_residual", "weyl_residual_2d_interface",
                     "weyl_sequence_1d"), "modes"),
    **dict.fromkeys(("Grid", "ResolventSolution", "RhsField", "solve", "verify"), "resolvent"),
    **dict.fromkeys(("DiscretizedPencil", "direct_solve", "lambda_isolation_probe",
                     "shoot_determinant"), "fd_oracle"),
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Tolerances", "principal_sqrt", "poly_roots", "in_ray", "in_open_positive_ray",
    "DielectricModel", "InterfaceProblem", "Omega0Point",
    "singular_set", "singular_points", "omega0_set", "wtilde", "w",
    "SpectrumClass", "classify", "in_M", "in_N",
    "classify2", "in_M2", "in_N2",
    *_LAZY,
]

__version__ = "0.1.0"
