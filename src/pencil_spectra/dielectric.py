"""Frequency response of the two half-space media.

Each built-in model reduces to scale * num(omega)/den(omega) with complex
polynomial coefficients in descending powers. That turns every global set
computation - the pole set S, the exceptional set Omega_0, eigenvalue
polynomials - into finite polynomial problems. A black-box callable model is
accepted for pointwise evaluation only; global set operations reject it.

Models and problems are immutable after construction; evaluation is pure, so
everything here may be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .complex_numerics import (
    DEFAULT_TOL,
    Tolerances,
    cabs,
    poly_eval_scale,
    poly_roots,
    polyval,
    trim_leading,
)
from .errors import DegenerateInputError, SingularityError, UnsupportedModelError

TWO_PI = 2.0 * np.pi


def _deflate_once(coeffs, root):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * root + c)
    return tuple(out)


@dataclass(frozen=True)
class DielectricModel:
    """One half-space's response W-tilde(omega), with W(omega) = omega^2 W-tilde(omega).

    kind is one of "constant", "drude", "rational", "callable". For the first
    three the reduced rational form scale*num/den is stored; "callable" keeps
    only the function plus a user-declared pole list.
    """

    kind: str
    numerator: Optional[tuple] = None
    denominator: Optional[tuple] = None
    scale: float = 1.0
    omega_p: Optional[float] = None
    gamma: Optional[float] = None
    background: Optional[float] = None
    func: Optional[Callable] = None
    declared_poles: tuple = ()

    def __post_init__(self):
        """The one definition of what a stored medium satisfies."""
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive real, got {self.scale!r}")
        if self.kind != "callable":
            if not self.denominator:
                raise ValueError("rational model needs a nonzero denominator")
            if not self.numerator:
                raise ValueError("numerator must not be identically zero")
            if not np.isfinite(self.numerator + self.denominator).all():
                raise ValueError(f"coefficients must be finite, got numerator {self.numerator}"
                                 f" and denominator {self.denominator}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, scale: float = 1.0) -> "DielectricModel":
        c = complex(value)
        if c == 0:
            raise DegenerateInputError(
                "Constant(0) would make W vanish identically; the exceptional set "
                "would be the whole plane"
            )
        return DielectricModel(kind="constant", numerator=(c,), denominator=(1 + 0j,), scale=scale)

    @staticmethod
    def drude(omega_p: float, gamma: float, background: float = 1.0, scale: float = 1.0) -> "DielectricModel":
        """Metal response W-tilde = scale*(background - 2 pi omega_p^2/(omega^2 + i gamma omega)).

        gamma = 0 (the lossless limit) is accepted; the two poles then merge at 0.
        """
        if not (omega_p > 0):
            raise ValueError("omega_p must be > 0")
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        b = float(background)
        try:
            wp2 = omega_p**2
        except OverflowError:   # inf, which __post_init__ rejects
            wp2 = math.inf
        num = (b + 0j, 1j * gamma * b, complex(-TWO_PI * wp2))
        den = (1 + 0j, 1j * gamma, 0j)
        return DielectricModel(
            kind="drude", numerator=trim_leading(num), denominator=den,
            scale=scale, omega_p=float(omega_p), gamma=float(gamma), background=b,
        )

    @staticmethod
    def rational(numerator, denominator, scale: float = 1.0,
                 tol: Tolerances = DEFAULT_TOL) -> "DielectricModel":
        """W-tilde = scale*num/den; common roots (within equality_tol) are cancelled."""
        model = DielectricModel(kind="rational", numerator=trim_leading(numerator),
                                denominator=trim_leading(denominator), scale=scale)
        num, den = model.numerator, model.denominator
        # cancel removable singularities up front so S never contains them: the first
        # denominator root where the numerator vanishes, until there is none
        while len(den) > 1 and len(num) > 1:
            r = next((r for r, _ in poly_roots(den, tol)
                      if abs(polyval(num, r)) <= tol.equality_tol * poly_eval_scale(num, r)), None)
            if r is None:
                break
            num, den = _deflate_once(num, r), _deflate_once(den, r)
        return replace(model, numerator=num, denominator=den)

    @staticmethod
    def from_callable(func: Callable, poles=(), scale: float = 1.0) -> "DielectricModel":
        """Black-box W-tilde(omega). Pointwise classification only; set tracing rejects it."""
        return DielectricModel(
            kind="callable", func=func, scale=scale,
            declared_poles=tuple(complex(p) for p in poles),
        )

    # -- queries -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.kind != "callable"


@lru_cache(maxsize=256)
def singular_set(model: DielectricModel, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Finite pole set S of the model, sorted by (Re, Im)."""
    if model.kind == "callable":
        poles = list(model.declared_poles)
    elif len(model.denominator) == 1:
        poles = []
    else:
        poles = [z for z, _ in poly_roots(model.denominator, tol)]
    poles.sort(key=lambda z: (z.real, z.imag))
    return tuple(poles)


def _near(z: complex, points, dist: float):
    for p in points:
        if cabs(z - p) <= dist:
            return p
    return None


def _near_any(omega: np.ndarray, points, dist) -> np.ndarray:
    """Mask of the omega within dist (one number or one per point) of a point, by _near's test."""
    hit = np.zeros(omega.shape, dtype=bool)
    for p, d in zip(points, np.broadcast_to(dist, (len(points),))):
        hit |= cabs(omega - p) <= d
    return hit


def _pole_at(model: DielectricModel, omega: complex, tol: Tolerances):
    """(pole, den(omega)): the pole of model within ray_imag_tol of omega, else omega
    where a rational den(omega) is exactly 0 (a root poly_roots missed), else None."""
    pole = _near(omega, singular_set(model, tol), tol.ray_imag_tol)
    den = polyval(model.denominator, omega) if model.is_rational else None
    return (omega if pole is None and den == 0 else pole), den


def wtilde(model: DielectricModel, omega, tol: Tolerances = DEFAULT_TOL):
    """W-tilde(omega); SingularityError at (or within ray_imag_tol of) a pole. A scalar
    divides by _pole_at's den. At a numpy array it is elementwise: in numpy's arithmetic
    on a rational model (points off its poles: not checked), a scalar call per point
    on a black box."""
    if isinstance(omega, np.ndarray):
        if model.kind == "callable":
            return np.vectorize(lambda z: wtilde(model, z, tol), otypes=[complex])(omega)
        den = polyval(model.denominator, omega)
    else:
        omega = complex(omega)
        pole, den = _pole_at(model, omega, tol)
        if pole is not None:
            raise SingularityError(omega, pole)
        if model.kind == "callable":
            # the callable supplies the full W-tilde, scale included
            return complex(model.func(omega))
    return model.scale * polyval(model.numerator, omega) / den


def w(model: DielectricModel, omega: complex, tol: Tolerances = DEFAULT_TOL) -> complex:
    """W(omega) = omega^2 W-tilde(omega); same domain and errors as wtilde."""
    omega = complex(omega)
    return omega * omega * wtilde(model, omega, tol)


def w_values(problem: InterfaceProblem, omega, tol: Tolerances = DEFAULT_TOL):
    """(W-tilde_+, W-tilde_-, W_+, W_-) at omega: both media, W = omega^2 W-tilde.

    omega is used as given (a Python complex keeps CPython's arithmetic);
    raises SingularityError on either side's poles, as wtilde does. At a
    numpy array of omega the values are elementwise, as wtilde's (a black
    box's point by point), and W is formed in numpy's arithmetic.
    """
    wt_p, wt_m = wtilde(problem.plus, omega, tol), wtilde(problem.minus, omega, tol)
    zz = omega * omega
    return wt_p, wt_m, zz * wt_p, zz * wt_m


@dataclass(frozen=True)
class InterfaceProblem:
    """The (plus-model, minus-model) pair defining the pencil; plus lives on x1 > 0."""

    plus: DielectricModel
    minus: DielectricModel

    def __post_init__(self):
        if abs(self.plus.scale - self.minus.scale) > 1e-15 * max(self.plus.scale, self.minus.scale):
            raise ValueError("both sides must share the same scale convention")

    @property
    def is_rational(self) -> bool:
        return self.plus.is_rational and self.minus.is_rational

    def side(self, which: str) -> DielectricModel:
        if which in ("+", "plus"):
            return self.plus
        if which in ("-", "minus"):
            return self.minus
        raise ValueError(f"side must be '+' or '-', got {which!r}")


@lru_cache(maxsize=256)
def singular_points(problem: InterfaceProblem, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """S for the interface problem: union of both sides' poles."""
    pts = list(singular_set(problem.plus, tol))
    for q in singular_set(problem.minus, tol):
        if _near(q, pts, tol.ray_imag_tol * (1.0 + abs(q))) is None:
            pts.append(q)
    pts.sort(key=lambda z: (z.real, z.imag))
    return tuple(pts)


def which_pole_side(problem: InterfaceProblem, omega: complex, tol: Tolerances = DEFAULT_TOL):
    """(pole, side-label) if omega sits on S (as wtilde decides it), else None."""
    for side, model in (("plus", problem.plus), ("minus", problem.minus)):
        p = _pole_at(model, complex(omega), tol)[0]
        if p is not None:
            return p, side
    return None


@dataclass(frozen=True)
class Omega0Point:
    """One element of the exceptional set, tagged with what vanishes there."""

    omega: complex
    plus_vanishes: bool          # W_+(omega) = 0
    minus_vanishes: bool         # W_-(omega) = 0
    wtilde_plus_zero: bool       # W-tilde_+(omega) = 0 (not just the omega^2 factor)
    wtilde_minus_zero: bool


def _zero_tags(wt_p, wt_m, tol: Tolerances):
    """(W-tilde_+ = 0, W-tilde_- = 0, W-tilde_+ + W-tilde_- = 0, b): each |.| <= b
    with b = equality_tol max(|W-tilde_+|, |W-tilde_-|, 1), the moduli by cabs
    (inf, not an OverflowError, beyond the float range)."""
    a_p, a_m = cabs(wt_p), cabs(wt_m)
    b = tol.equality_tol * max(a_p, a_m, 1.0)
    return a_p <= b, a_m <= b, cabs(wt_p + wt_m) <= b, b


def _omega0_point(omega: complex, wt_p, wt_m, tol: Tolerances):
    """The Omega0Point at omega if W_+ or W_- vanishes there, else None, from
    the caller's values W-tilde_pm(omega).

    W = omega^2 W-tilde vanishes relative to max(|omega|^2, 1) exactly when
    min(|omega|^2, 1) |W-tilde| <= b, the bound of _zero_tags (which gives the
    W-tilde tags). W is never formed and |omega|^2 is a float product (inf, not
    an OverflowError, beyond the float range), so the test holds at every |omega|.
    """
    wtp_zero, wtm_zero, _, bound = _zero_tags(wt_p, wt_m, tol)
    zz = min(cabs(omega) * cabs(omega), 1.0)
    plus_v, minus_v = zz * cabs(wt_p) <= bound, zz * cabs(wt_m) <= bound
    return (Omega0Point(omega, plus_v, minus_v, wtp_zero, wtm_zero)
            if plus_v or minus_v else None)


@lru_cache(maxsize=256)
def omega0_set(problem: InterfaceProblem, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """The exceptional set Omega_0 = {omega in D(W-tilde): W_+ = 0 or W_- = 0}.

    Only rational models are supported: denominators are cleared so the set is
    an exact polynomial problem. The candidates are omega = 0 and the roots of
    both numerators off S; each returned point carries side tags.
    """
    if not problem.is_rational:
        raise UnsupportedModelError("omega0_set needs rational models on both sides")
    poles = singular_points(problem, tol)

    pts: list[complex] = []
    for model in (problem.plus, problem.minus):
        cands = [0j]
        if len(model.numerator) > 1:
            cands.extend(z for z, _ in poly_roots(model.numerator, tol))
        for z in cands:
            if _near(z, poles, tol.ray_imag_tol * (1.0 + abs(z))) is not None:
                continue  # not in D(W-tilde)
            if _near(z, pts, 10 * tol.ray_imag_tol * (1.0 + abs(z))) is None:
                pts.append(z)

    # a candidate where neither W vanishes (e.g. a clustered duplicate) is dropped
    out = [p for z in pts
           if (p := _omega0_point(z, *w_values(problem, z, tol)[:2], tol)) is not None]
    out.sort(key=lambda p: (p.omega.real, p.omega.imag))
    return tuple(out)


def near_omega0(problem: InterfaceProblem, omega: complex, tol: Tolerances = DEFAULT_TOL):
    """The Omega0Point within ray_imag_tol of omega, or None.

    For rational models, the first point of omega0_set that close; for
    black-box models, the pointwise test of _omega0_point at omega itself:
    min(|omega|^2, 1) |W-tilde_pm| <= the bound of _zero_tags (SingularityError
    on either side's poles, as wtilde).
    """
    omega = complex(omega)
    if problem.is_rational:
        return next((p for p in omega0_set(problem, tol)
                     if cabs(omega - p.omega) <= tol.ray_imag_tol), None)
    return _omega0_point(omega, *w_values(problem, omega, tol)[:2], tol)
