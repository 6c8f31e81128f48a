"""Pointwise spectral classification of the 2D pencil.

Off the exceptional set the whole spectrum is essential: the union (not
disjoint) of the open-ray sets M_pm and the interface-guided set N, whose
membership reduces to a closed-form witness a = W_+ W_-/(W_+ + W_-) that must
be a nonnegative real with both W_pm outside [a, inf). On the exceptional set
everything is essential of every kind; only the infinite-multiplicity point
spectrum needs a sub-test. Point spectrum off Omega_0 is empty in 2D.
"""

from __future__ import annotations

from dataclasses import replace

from .complex_numerics import (
    DEFAULT_TOL,
    Tolerances,
    in_open_positive_ray,
    in_ray,
)
from .classify1d import OUTSIDE, SpectrumClass, _check_reduced_point, _w_values
from .dielectric import InterfaceProblem, near_omega0, which_pole_side, wtilde


def in_M2(side: str, omega: complex, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of omega in the 2D bulk set M_side: W_side(omega) in (0, inf)."""
    omega = complex(omega)
    _check_reduced_point(problem, omega, tol, "in_M2")
    wv = omega * omega * wtilde(problem.side(side), omega, tol)
    return in_open_positive_ray(wv, tol)


def _n2_witness(w_p: complex, w_m: complex, tol: Tolerances):
    """The real witness a = W_+ W_-/(W_+ + W_-) of the set N, or None off N.

    Near-cancelling W_+ + W_- is treated as the excluded limit-point case (a
    diverges there). The unsquared matching identity with mu_pm = sqrt(a - W_pm)
    holds automatically for the returned a (same argument as the 1D set with
    a = k^2).
    """
    s = w_p + w_m
    # comparisons written so that a NaN W or witness fails them
    if not abs(s) > tol.equality_tol * (abs(w_p) + abs(w_m)):
        return None
    a = w_p * w_m / s
    if not (abs(a.imag) <= tol.ray_imag_tol and a.real >= -tol.ray_real_tol):
        return None
    if in_ray(w_p, a.real, tol) or in_ray(w_m, a.real, tol):
        return None
    return a.real


def in_N2(omega: complex, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL):
    """(membership, witness a) for the 2D interface set N.

    The witness solves a(W_+ + W_-) = W_+ W_- in closed form.
    """
    omega = complex(omega)
    _check_reduced_point(problem, omega, tol, "in_N2")
    _, _, w_p, w_m = _w_values(problem, omega, tol)
    a = _n2_witness(w_p, w_m, tol)
    return a is not None, a


def classify2(omega: complex, problem: InterfaceProblem,
              tol: Tolerances = DEFAULT_TOL) -> SpectrumClass:
    """Classify omega for the 2D pencil. Total: never raises."""
    omega = complex(omega)
    hit = which_pole_side(problem, omega, tol)
    if hit is not None:
        pole, side = hit
        return replace(OUTSIDE, branch_note=f"2D-S/{side}-pole@{pole:.6g}")

    pt = near_omega0(problem, omega, tol)
    if pt is not None:
        wt_p, wt_m, _, _ = _w_values(problem, omega, tol)
        m = max(abs(wt_p), abs(wt_m), 1.0)
        point_infinite = (
            pt.wtilde_plus_zero or pt.wtilde_minus_zero
            or abs(wt_p + wt_m) <= tol.equality_tol * m
        )
        suffix = "" if omega == pt.omega else ";near-Omega0"
        return SpectrumClass(
            True, True, resolvent=False, point_finite=False,
            point_infinite=point_infinite, discrete=False, weyl=True,
            e1=True, e2=True, e3=True, e4=True, e5=True,
            branch_note=f"2D-exceptional/{'pt-infinite' if point_infinite else 'essential'}{suffix}",
        )

    wt_p, wt_m, w_p, w_m = _w_values(problem, omega, tol)
    mp = in_open_positive_ray(w_p, tol)
    mm = in_open_positive_ray(w_m, tol)
    nn = _n2_witness(w_p, w_m, tol) is not None

    if mp or mm or nn:
        members = [name for name, flag in (("M+", mp), ("M-", mm), ("N", nn)) if flag]
        return SpectrumClass(
            True, False, resolvent=False, point_finite=False, point_infinite=False,
            discrete=False, weyl=True, e1=True, e2=True, e3=True, e4=True, e5=True,
            branch_note="2D-reduced/" + "&".join(members),
        )
    return SpectrumClass(
        True, False, resolvent=True, point_finite=False, point_infinite=False,
        discrete=False, weyl=False, e1=False, e2=False, e3=False, e4=False, e5=False,
        branch_note="2D-reduced/resolvent",
    )
