"""Spectral classification of the 1D pencil at fixed wavenumber k, and of the 2D pencil.

The decision procedure is driven entirely by the values W_pm(omega) and
W-tilde_pm(omega):

* off the exceptional set, the spectrum is the disjoint union of the
  essential rays M_+ u M_- (Weyl spectrum, all five essential spectra) and
  the finite plasmon set N (point and discrete spectrum);
* on the exceptional set a case table on (W-tilde_+, W-tilde_-, W_+, W_-)
  applies, which for k != 0 can split the essential spectra three ways.

The 2D sets are the 1D ones at k = 0 plus the witness a = W_+ W_-/(W_+ + W_-)
of N. classify_array() decides whole arrays of omega for both pencils (k=None
selects the 2D one); classify() and classify2() decide one point with its
per-point step, _classify_point, which evaluates w_values once. The reduced
branch, the N identity, the 2D witness and the exceptional table each have one
implementation, which takes Python scalars or numpy arrays (a size-1 array call
would cost about 20x a scalar one in numpy call overhead). Classification is
total: domain or singularity issues are encoded in the record, never thrown, so
grid tracing cannot abort. All functions are pure.

The values come from dielectric.w_values and every set test lives in
_reduced_codes: in_M and in_N (so in_M2, in_M at k = 0) read one bit of its
code (M_PLUS, M_MINUS, IN_N) after _reduced_point_values' precondition, in_N2
also returns the 2D witness, and modes.eigen_sweep keeps the polynomial roots
whose code is IN_N, deciding the roots of a whole k sweep in one call with one
k per root.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .complex_numerics import (
    DEFAULT_TOL,
    Tolerances,
    cabs,
    cdiv,
    cmul,
    in_ray,
    principal_sqrt,
)
from .dielectric import (
    InterfaceProblem,
    Omega0Point,
    _zero_tags,
    near_omega0,
    omega0_set,
    singular_set,
    w_values,
    which_pole_side,
)
from .errors import PreconditionError


@dataclass(frozen=True)
class SpectrumClass:
    """Full classification record for one omega.

    Flag semantics: resolvent and spectrum membership are mutually exclusive
    for in-domain points; e1 => e2 => e3 => e4 => e5; weyl <=> e2; discrete
    and e5 are never both true. branch_note names the classification branch
    that produced the record.
    """

    in_domain: bool
    in_omega0: bool
    resolvent: bool
    point_finite: bool
    point_infinite: bool
    discrete: bool
    weyl: bool
    e1: bool
    e2: bool
    e3: bool
    e4: bool
    e5: bool
    branch_note: str

    @property
    def in_spectrum(self) -> bool:
        return self.weyl or self.point_finite or self.point_infinite or self.e5 or self.discrete

    def flags(self) -> tuple:
        return (self.resolvent, self.point_finite, self.point_infinite, self.discrete,
                self.weyl, self.e1, self.e2, self.e3, self.e4, self.e5)

    def memberships(self) -> tuple:
        """Set labels encoded in the branch note of reduced-branch records."""
        tail = self.branch_note.rsplit("/", 1)[-1]
        return tuple(part for part in tail.split("&") if part in ("M+", "M-", "N", "M+-"))

    def raster_class(self) -> str:
        """Coarse display class: one of S, Omega0, N, M+, M-, resolvent."""
        if not self.in_domain:
            return "S"
        if self.in_omega0:
            return "Omega0"
        if self.point_finite:
            return "N"
        members = self.memberships()
        if "M+" in members or "M+-" in members:
            return "M+"
        if "M-" in members:
            return "M-"
        if "N" in members:
            return "N"
        return "resolvent" if self.resolvent else "M-"


OUTSIDE = SpectrumClass(
    in_domain=False, in_omega0=False, resolvent=False, point_finite=False,
    point_infinite=False, discrete=False, weyl=False,
    e1=False, e2=False, e3=False, e4=False, e5=False, branch_note="S",
)
_RESOLVENT = SpectrumClass(
    True, False, resolvent=True, point_finite=False, point_infinite=False,
    discrete=False, weyl=False, e1=False, e2=False, e3=False, e4=False, e5=False,
    branch_note="",
)
_ESSENTIAL = SpectrumClass(
    True, False, resolvent=False, point_finite=False, point_infinite=False,
    discrete=False, weyl=True, e1=True, e2=True, e3=True, e4=True, e5=True,
    branch_note="",
)
_PLASMON = SpectrumClass(
    True, False, resolvent=False, point_finite=True, point_infinite=False,
    discrete=True, weyl=False, e1=False, e2=False, e3=False, e4=False, e5=False,
    branch_note="",
)

# Branch codes of the reduced branch are bit sets of the memberships found.
# POINTWISE marks the points decided one at a time by _classify_point.
M_PLUS, M_MINUS, IN_N = 1, 2, 4
POINTWISE = -1


def _reduced_record(code: int, dim: int) -> SpectrumClass:
    if code == 0:
        return replace(_RESOLVENT, branch_note=("2D-" if dim == 2 else "") + "reduced/resolvent")
    if dim == 2:
        members = [name for bit, name in ((M_PLUS, "M+"), (M_MINUS, "M-"), (IN_N, "N"))
                   if code & bit]
        return replace(_ESSENTIAL, branch_note="2D-reduced/" + "&".join(members))
    if code == IN_N:
        return replace(_PLASMON, branch_note="reduced/N")
    which = {M_PLUS: "M+", M_MINUS: "M-", M_PLUS | M_MINUS: "M+-"}[code]
    return replace(_ESSENTIAL, branch_note=f"reduced/{which}")


# the record of each reduced code, by pencil dimension (1D N excludes the rays)
REDUCED = {1: tuple(_reduced_record(c, 1) for c in range(IN_N + 1)),
           2: tuple(_reduced_record(c, 2) for c in range(2 * IN_N))}


@dataclass(frozen=True)
class ArrayClassification:
    """classify_array's result: one branch code per point, and the records of
    the points decided one at a time (code POINTWISE), by index."""

    codes: np.ndarray
    pointwise: dict
    dim: int

    def record(self, i: int) -> SpectrumClass:
        rec = self.pointwise.get(i)
        return rec if rec is not None else REDUCED[self.dim][self.codes[i]]

    def _per_point(self, fn) -> list:
        table = [fn(rec) for rec in REDUCED[self.dim]]
        out = [table[c] for c in self.codes.tolist()]
        for i, rec in self.pointwise.items():   # their code -1 picked a stand-in
            out[i] = fn(rec)
        return out

    def branch_notes(self) -> list:
        return self._per_point(lambda rec: rec.branch_note)

    def raster_classes(self) -> list:
        return self._per_point(SpectrumClass.raster_class)


def _reduced_point_values(problem, omega, tol, op_name):
    """w_values at an omega off S and Omega_0, the precondition of the set predicates.

    Raises PreconditionError on S or Omega_0, where the reduced branch does not apply.
    """
    hit = which_pole_side(problem, omega, tol)
    if hit is not None:
        pole, side = hit
        raise PreconditionError(f"{op_name}: omega={omega} is a pole of the {side} side ({pole})")
    if near_omega0(problem, omega, tol) is not None:
        raise PreconditionError(f"{op_name}: omega={omega} lies in the exceptional set Omega_0")
    return w_values(problem, omega, tol)


def _m_side(side: str, values, k, problem: InterfaceProblem, tol: Tolerances):
    """(W_side, the M_side bit of the reduced code at k; k=None is 2D) from w_values' values.
    problem.side rejects a bad label; when one model serves both sides the bits agree."""
    i = 0 if problem.side(side) is problem.plus else 1
    return values[2 + i], bool(_reduced_codes(*values, k, tol) & (M_PLUS, M_MINUS)[i])


def in_M(side: str, omega: complex, k: float, problem: InterfaceProblem,
         tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of omega in the essential ray set M_side^(k).

    k != 0 tests W_side(omega) in [k^2, inf); k == 0 tests the open ray
    (0, inf). The open/closed distinction at the k = 0 endpoint is moot off
    the exceptional set: W_side(omega) = 0 is exactly membership in Omega_0,
    which this operation rejects. Raises PreconditionError on S or Omega_0.
    The answer is the M_side bit of the reduced branch code (_m_side).
    """
    values = _reduced_point_values(problem, complex(omega), tol, "in_M")
    return _m_side(side, values, k, problem, tol)[1]


def _n_identity_holds(wt_p, wt_m, w_p, w_m, k2, tol, slack=1.0):
    """The unsquared matching identity W-tilde_+ mu_- + W-tilde_- mu_+ = 0.

    mu_pm = principal_sqrt(k2 - W_pm), where k2 is k^2 (or the 2D witness a).
    With a = W-tilde_+ mu_-, b = W-tilde_- mu_+ it holds when
    |a + b| <= slack * equality_tol * (|a| + |b|) and |a| + |b| is finite.
    Elementwise on arrays.
    """
    mu_p = principal_sqrt(k2 - w_p)
    mu_m = principal_sqrt(k2 - w_m)
    a = cmul(wt_p, mu_m)
    b = cmul(wt_m, mu_p)
    size = cabs(a) + cabs(b)   # beyond the float range no cancellation can be read
    return (cabs(a + b) <= slack * tol.equality_tol * size) & (size < np.inf)


def _n2_witness(w_p, w_m, tol: Tolerances):
    """(holds, a): the real witness a = Re W_+ W_-/(W_+ + W_-) of the 2D set N.

    Near-cancelling W_+ + W_- is treated as the excluded limit-point case (a
    diverges there). The unsquared matching identity with mu_pm = sqrt(a - W_pm)
    holds automatically for the returned a (same argument as the 1D set with
    a = k^2). The comparisons are written so that a NaN W or witness fails
    them. Elementwise on arrays.
    """
    s = w_p + w_m
    a = cdiv(cmul(w_p, w_m), s)
    holds = ((cabs(s) > tol.equality_tol * (cabs(w_p) + cabs(w_m)))
             & (abs(a.imag) <= tol.ray_imag_tol) & (a.real >= -tol.ray_real_tol))
    holds = holds & np.logical_not(in_ray(w_p, a.real, tol) | in_ray(w_m, a.real, tol))
    return holds, a.real


def in_N(omega: complex, k: float, problem: InterfaceProblem,
         tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of omega in the plasmon set N^(k).

    Requires the two ray exclusions W_pm(omega) not in [k^2, inf) and the
    unsquared matching identity W-tilde_+ mu_- + W-tilde_- mu_+ = 0 with
    mu_pm = principal_sqrt(k^2 - W_pm). N^(0) is empty. The answer is the N
    bit of the reduced branch code (_reduced_codes); PreconditionError on S
    or Omega_0.
    """
    omega = complex(omega)
    values = _reduced_point_values(problem, omega, tol, "in_N")
    return bool(_reduced_codes(*values, k, tol) & IN_N)


def _classify_omega0(values, k, pt: Omega0Point, tol, exact_hit: bool) -> SpectrumClass:
    """The exceptional-set case table from the caller's w_values; k=None is the 2D pencil."""
    wt_p, wt_m, w_p, w_m = values
    wtp_zero, wtm_zero, sum_zero, _ = _zero_tags(wt_p, wt_m, tol)
    suffix = "" if exact_hit else ";near-Omega0"

    if k is None:
        # 2D: everything on Omega_0 is essential spectrum of every kind
        point_infinite = pt.wtilde_plus_zero or pt.wtilde_minus_zero or sum_zero
        return replace(
            _ESSENTIAL, in_omega0=True, point_infinite=point_infinite,
            branch_note=f"2D-exceptional/{'pt-infinite' if point_infinite else 'essential'}{suffix}",
        )

    wtp_zero, wtm_zero = pt.wtilde_plus_zero or wtp_zero, pt.wtilde_minus_zero or wtm_zero
    point_infinite = wtp_zero or wtm_zero
    if k != 0.0:
        if not point_infinite:
            # only possible at omega = 0 with W_+ = W_- = 0 and both responses nonzero
            if sum_zero:
                return SpectrumClass(
                    True, True, resolvent=False, point_finite=True, point_infinite=False,
                    discrete=False, weyl=False, e1=False, e2=False, e3=False, e4=False,
                    e5=True, branch_note=f"exceptional/pt-finite{suffix}",
                )
            return replace(_RESOLVENT, in_omega0=True,
                           branch_note=f"exceptional/resolvent{suffix}")
        e1 = (wtp_zero and in_ray(w_m, k * k, tol)) or (wtm_zero and in_ray(w_p, k * k, tol))
        return replace(
            _ESSENTIAL, in_omega0=True, point_infinite=True, e1=e1,
            branch_note=f"exceptional/pt-infinite{'+e1' if e1 else ''}{suffix}",
        )

    # k == 0: everything on Omega_0 is essential spectrum of every kind
    return replace(
        _ESSENTIAL, in_omega0=True, point_infinite=point_infinite,
        branch_note=f"exceptional-k0/{'pt-infinite' if point_infinite else 'essential'}{suffix}",
    )


def _reduced_codes(wt_p, wt_m, w_p, w_m, k, tol):
    """Branch codes off S and Omega_0; k=None is the 2D pencil. Elementwise on
    arrays, k included (one wavenumber per point)."""
    kr = 0.0 if k is None else k   # the 2D rays M_pm are the 1D ones at k = 0
    ray_p = in_ray(w_p, kr * kr, tol)
    ray_m = in_ray(w_m, kr * kr, tol)
    # M_pm is the closed ray [k^2, inf), or the open ray (0, inf) where k = 0
    mp = ray_p & ((kr != 0.0) | (w_p.real > tol.ray_real_tol))
    mm = ray_m & ((kr != 0.0) | (w_m.real > tol.ray_real_tol))
    if k is None:
        nn = _n2_witness(w_p, w_m, tol)[0]
    else:
        nn = (np.logical_not(ray_p | ray_m)
              & _n_identity_holds(wt_p, wt_m, w_p, w_m, k * k, tol))
    return M_PLUS * mp + M_MINUS * mm + IN_N * nn


def _classify_point(omega: complex, k, problem: InterfaceProblem, tol: Tolerances) -> SpectrumClass:
    """classify_array's decision for one point, in CPython scalar arithmetic; k=None is 2D."""
    hit = which_pole_side(problem, omega, tol)
    if hit is not None:
        pole, side = hit
        return replace(OUTSIDE, branch_note=f"{'2D-' if k is None else ''}S/{side}-pole@{pole:.6g}")
    values = w_values(problem, omega, tol)
    pt = near_omega0(problem, omega, tol)
    if pt is not None:
        return _classify_omega0(values, k, pt, tol, omega == pt.omega)
    return REDUCED[2 if k is None else 1][_reduced_codes(*values, k, tol)]


def _near_any(omega: np.ndarray, points, dist: float) -> np.ndarray:
    """Mask of the omega within dist of one of the points (the test of dielectric._near)."""
    hit = np.zeros(omega.shape, dtype=bool)
    for p in points:
        hit |= cabs(omega - p) <= dist
    return hit


def classify_array(omega, k: float | None, problem: InterfaceProblem,
                   tol: Tolerances = DEFAULT_TOL) -> ArrayClassification:
    """Classify every point of a complex array (flattened); k=None selects the 2D pencil.

    1. The points within ray_imag_tol of S or Omega_0 are found by their
       distance to those finite sets.
    2. W-tilde_pm is evaluated once over the other points, by Horner on the
       rational coefficients.
    3. Their reduced branch (the M_pm rays, the N identity, the 2D witness)
       is decided by array comparisons and returned as integer codes.
    4. The points of step 1 are decided one at a time by _classify_point:
       which_pole_side (plus side first), near_omega0 and the exceptional
       case table. So is every point of a black-box model, whose Omega_0
       test is pointwise, and every point with a W-tilde that is not finite
       (a denominator exactly 0 at a pole that poly_roots missed, say).

    The array arithmetic rounds as CPython's complex arithmetic, so every
    point gets the record classify (or classify2) gives it. Total: never
    raises for any complex input, NaN and infinities included, and emits no
    floating-point warnings.
    """
    omega = np.ravel(np.asarray(omega, dtype=complex))
    codes = np.full(omega.shape, POINTWISE, dtype=np.int8)
    if problem.is_rational:
        with np.errstate(all="ignore"):
            special = (singular_set(problem.plus, tol) + singular_set(problem.minus, tol)
                       + tuple(p.omega for p in omega0_set(problem, tol)))
            rest = ~_near_any(omega, special, tol.ray_imag_tol)
            wt_p, wt_m, w_p, w_m = w_values(problem, omega[rest], tol)
            codes[rest] = np.where(np.isfinite(wt_p) & np.isfinite(wt_m),
                                   _reduced_codes(wt_p, wt_m, w_p, w_m, k, tol), POINTWISE)
    pointwise = {i: _classify_point(complex(omega[i]), k, problem, tol)
                 for i in np.flatnonzero(codes == POINTWISE).tolist()}
    return ArrayClassification(codes, pointwise, 2 if k is None else 1)


def classify(omega: complex, k: float, problem: InterfaceProblem,
             tol: Tolerances = DEFAULT_TOL) -> SpectrumClass:
    """Classify omega for the 1D pencil at wavenumber k. Total: never raises."""
    return _classify_point(complex(omega), k, problem, tol)


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
