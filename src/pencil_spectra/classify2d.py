"""Pointwise spectral classification of the 2D pencil.

Off the exceptional set the whole spectrum is essential: the union (not
disjoint) of the open-ray sets M_pm and the interface-guided set N, whose
membership reduces to a closed-form witness a = W_+ W_-/(W_+ + W_-) that must
be a nonnegative real with both W_pm outside [a, inf). On the exceptional set
everything is essential of every kind; only the infinite-multiplicity point
spectrum needs a sub-test. Point spectrum off Omega_0 is empty in 2D.

The decisions are classify1d's, shared with the 1D pencil (k=None there):
classify2 is classify1d._classify_point, in_M2 is in_M at k = 0 (the open
ray), and in_N2 returns _n2_witness, the test behind the N bit of the 2D
branch code, with its witness. Both predicates raise PreconditionError on S
and Omega_0.
"""

from __future__ import annotations

from .complex_numerics import DEFAULT_TOL, Tolerances
from .classify1d import SpectrumClass, _classify_point, _n2_witness, _reduced_point_values, in_M
from .dielectric import InterfaceProblem


def in_M2(side: str, omega: complex, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of omega in the 2D bulk set M_side: W_side(omega) in (0, inf).

    This is the 1D set at k = 0, in_M(side, omega, 0.0): the M_side bit of
    the reduced branch code. Raises PreconditionError on S or Omega_0.
    """
    return in_M(side, omega, 0.0, problem, tol)


def in_N2(omega: complex, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL):
    """(membership, witness a) for the 2D interface set N.

    The witness solves a(W_+ + W_-) = W_+ W_- in closed form; the test is
    _n2_witness, the one the 2D reduced branch code reads. Raises
    PreconditionError on S or Omega_0.
    """
    omega = complex(omega)
    _, _, w_p, w_m = _reduced_point_values(problem, omega, tol, "in_N2")
    holds, a = _n2_witness(w_p, w_m, tol)
    return (True, float(a)) if holds else (False, None)


def classify2(omega: complex, problem: InterfaceProblem,
              tol: Tolerances = DEFAULT_TOL) -> SpectrumClass:
    """Classify omega for the 2D pencil. Total: never raises."""
    return _classify_point(complex(omega), None, problem, tol)
