"""Pointwise spectral classification of the 2D pencil.

Off the exceptional set the whole spectrum is essential: the union (not
disjoint) of the open-ray sets M_pm and the interface-guided set N, whose
membership reduces to a closed-form witness a = W_+ W_-/(W_+ + W_-) that must
be a nonnegative real with both W_pm outside [a, inf). On the exceptional set
everything is essential of every kind; only the infinite-multiplicity point
spectrum needs a sub-test. Point spectrum off Omega_0 is empty in 2D.

The decisions are classify1d's, shared with the 1D pencil (k=None there).
"""

from __future__ import annotations

from .complex_numerics import DEFAULT_TOL, Tolerances, in_open_positive_ray
from .classify1d import SpectrumClass, _check_reduced_point, _classify_point, _n2_witness, _w_values
from .dielectric import InterfaceProblem, wtilde


def in_M2(side: str, omega: complex, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of omega in the 2D bulk set M_side: W_side(omega) in (0, inf)."""
    omega = complex(omega)
    _check_reduced_point(problem, omega, tol, "in_M2")
    wv = omega * omega * wtilde(problem.side(side), omega, tol)
    return in_open_positive_ray(wv, tol)


def in_N2(omega: complex, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL):
    """(membership, witness a) for the 2D interface set N.

    The witness solves a(W_+ + W_-) = W_+ W_- in closed form.
    """
    omega = complex(omega)
    _check_reduced_point(problem, omega, tol, "in_N2")
    _, _, w_p, w_m = _w_values(problem, omega, tol)
    holds, a = _n2_witness(w_p, w_m, tol)
    return (True, float(a)) if holds else (False, None)


def classify2(omega: complex, problem: InterfaceProblem,
              tol: Tolerances = DEFAULT_TOL) -> SpectrumClass:
    """Classify omega for the 2D pencil. Total: never raises."""
    return _classify_point(complex(omega), None, problem, tol)
