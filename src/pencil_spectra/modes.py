"""Plasmon modes and Weyl sequences.

Eigenvalues are the zeros of k^2 (W_+ + W_-) - W_+ W_- surviving a filter
chain (poles, exceptional set, essential rays, unsquared matching identity);
for rational media the zeros come from one cleared-denominator polynomial, so
the search is exact. eigen_sweep solves the polynomials of a whole k sweep
as one family and filters their roots in one array pass; mode_residuals checks
all modes in another. Eigenfunctions are the explicit two-sided exponentials
with decay rates mu_pm = sqrt(k^2 - W_pm), Re mu_pm > 0.

Weyl-sequence residual norms are evaluated from closed-form integrands on
quadrature grids, never by numerically differentiating samples: the decay
rates under test sit far below finite-difference noise floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complex_numerics import (DEFAULT_TOL, Tolerances, cabs, cmul, hypot_array, in_ray,
                               poly_roots_family, principal_sqrt)
from .classify1d import IN_N, _m_side, _n_identity_holds, _near_any, _reduced_codes
from .dielectric import (
    DielectricModel,
    InterfaceProblem,
    _omega0_point,
    _zero_tags,
    omega0_set,
    singular_points,
    w,
    w_values,
    wtilde,
)
from .errors import (DegenerateDispersionError, PencilSpectraError, PreconditionError,
                     UnsupportedModelError)


# ---------------------------------------------------------------------------
# the fixed C-infinity cutoff bump, exp(1/(x^2-1)) normalized on [-1, 1]
# ---------------------------------------------------------------------------

_GL_N = 400   # Gauss-Legendre nodes on [-1, 1] for the bump's integrals


def _bump_raw(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 / (yi * yi - 1.0))
    return out


def _bump_constants():
    """(c, ||phi'||, ||phi''||) for phi = c*exp(1/(y^2-1)) with ||phi|| = 1.

    The values of the _GL_N-point Gauss-Legendre rule, stored so that no
    process pays for leggauss; tests/test_modes.py recomputes them bitwise.
    """
    return 2.7411551457069354, 1.7543115832803977, 9.022635232749735


def bump(y):
    """The unit-norm cutoff profile on [-1, 1]."""
    c, _, _ = _bump_constants()
    return c * _bump_raw(y)


@lru_cache(maxsize=1)
def _bump_fourier_table():
    """kappa grid and hat-phi(kappa) = sqrt(2/pi) * int_0^1 phi cos(kappa y) dy."""
    x, w = np.polynomial.legendre.leggauss(_GL_N)
    half = x > 0  # phi is even; integrate on (0, 1)
    y = x[half]
    wphi = w[half] * bump(y)
    kappa = np.linspace(0.0, 240.0, 4801)
    # 512 kappa at a time: the whole 4801 x 200 cosine table never exists at once
    phat = np.concatenate([np.cos(np.outer(kappa[i:i + 512], y)) @ wphi
                           for i in range(0, kappa.size, 512)])
    return kappa, math.sqrt(2.0 / math.pi) * phat


# ---------------------------------------------------------------------------
# dispersion relation and eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlasmonMode:
    """Interface-localized TM eigenmode: (psi1, psi2) = v_pm e^(-+ mu_pm x1), psi3 = 0."""

    omega: complex
    k: float
    mu_plus: complex
    mu_minus: complex
    v_plus: tuple
    v_minus: tuple
    normalization: str = "v-minus=(-ik,mu-)"


@dataclass(frozen=True)
class WeylSample:
    """One member of a Weyl sequence with its exactly-evaluated residual."""

    n: int
    construction: str   # 1D-right | 1D-left | 1D-k0-W0 | 2D-bulk | 2D-interface
    residual_norm: float
    norm: float
    support_center: float


def dispersion_k2(omega: complex, problem: InterfaceProblem,
                  tol: Tolerances = DEFAULT_TOL) -> complex:
    """k^2 = W_+ Wt_- / (Wt_+ + Wt_-) from w_values; the caller judges admissibility."""
    omega = complex(omega)
    wt_p, wt_m, w_p, _ = w_values(problem, omega, tol)
    if _zero_tags(wt_p, wt_m, tol)[2]:
        raise DegenerateDispersionError(
            f"Wt_+ + Wt_- cancels at omega={omega}; k^2 diverges there")
    return w_p * wt_m / (wt_p + wt_m)


def _polymul(a, b):
    return tuple(np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def _polyadd(a, b) -> np.ndarray:
    """a + b in descending coefficients; a 2D operand holds one polynomial per row."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = max(a.shape[-1], b.shape[-1])
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n,), dtype=complex)
    out[..., n - a.shape[-1]:] += a
    out[..., n - b.shape[-1]:] += b
    return out


def eigenvalue_polynomial(k, problem: InterfaceProblem):
    """Cleared-denominator polynomial whose roots contain N^(k), as a tuple; for
    an array of k, an array with one polynomial per row.

    With Wt_pm = s n_pm/d_pm, the eigenvalue condition
    k^2 (W_+ + W_-) = W_+ W_- becomes (after dropping the omega^2 s/(d_+ d_-)
    prefactor, whose zeros land in Omega_0 or S and are filtered out)
    Q(omega) = k^2 (n_+ d_- + n_- d_+) - s omega^2 n_+ n_-.
    """
    if not problem.is_rational:
        raise UnsupportedModelError("eigenvalue search needs rational models")
    np_, dp = problem.plus.numerator, problem.plus.denominator
    nm, dm = problem.minus.numerator, problem.minus.denominator
    s = problem.plus.scale
    cross = _polyadd(_polymul(np_, dm), _polymul(nm, dp))
    qb = _polymul((s, 0.0, 0.0), _polymul(np_, nm))
    k = np.asarray(k, dtype=float)
    # k^2 times each coefficient, one row per k, rounded as k * k * c of scalars
    q = _polyadd(cmul((k * k)[..., None], cross), np.negative(qb))
    return q if k.ndim else tuple(q)


def ray_polynomial(model: DielectricModel, t):
    """Cleared-denominator polynomial s omega^2 n(omega) - t d(omega), as a
    tuple; for an array of t, an array with one polynomial per row.

    With W = omega^2 s n/d, its roots off the poles of d are the omega with
    W(omega) = t; a t >= k^2 gives points of the ray set M^(k).
    """
    if not model.is_rational:
        raise UnsupportedModelError("ray preimages need a rational model")
    t = np.asarray(t, dtype=float)
    q = _polyadd(_polymul((model.scale, 0.0, 0.0), model.numerator),
                 cmul(-t[..., None], model.denominator))   # rounded as -t * c of scalars
    return q if t.ndim else tuple(q)


def _make_mode(omega, k, w_p, w_m):
    mu_p = principal_sqrt(k * k - w_p)
    mu_m = principal_sqrt(k * k - w_m)
    v_plus = ((mu_m / mu_p) * (1j * k), mu_m)
    v_minus = (-1j * k, mu_m)
    return PlasmonMode(omega=omega, k=k, mu_plus=mu_p, mu_minus=mu_m,
                       v_plus=v_plus, v_minus=v_minus)


def eigen_sweep(ks, problem: InterfaceProblem, tol: Tolerances = DEFAULT_TOL) -> list:
    """The plasmon eigenvalues in N^(k) of each k of a sweep: per k, a list of
    PlasmonMode records sorted by (Re, Im) omega.

    The eigenvalue polynomials of all k are solved as one poly_roots_family,
    and their roots pass one array filter chain. A root is kept off the pole
    reach (wider than classify's, since it is about root accuracy) and Omega_0,
    with the reduced branch code IN_N: off the essential rays, and satisfying
    the unsquared matching identity (squaring made the polynomial's spurious
    roots). A member error of the family (a polynomial that overflows) is raised.
    """
    if not problem.is_rational:
        raise UnsupportedModelError("eigen_omegas needs rational models on both sides")
    reach = max(tol.ray_imag_tol, 1e-9)
    with np.errstate(all="ignore"):
        ka = np.asarray(ks, dtype=float)
        q = eigenvalue_polynomial(ka, problem)
        # N^(0) is empty (0 = W_+ W_- cannot hold off Omega_0); so is the
        # N^(k) of a constant polynomial
        solved = np.flatnonzero((ka != 0.0) & (q[:, :-1] != 0).any(axis=1))
        roots, owner = [], []
        for i, found in zip(solved.tolist(), poly_roots_family(q[solved], tol)):
            if isinstance(found, PencilSpectraError):
                raise found
            roots += [z for z, _ in found]
            owner += [i] * len(found)
        z = np.array(roots, dtype=complex)
        keep = ~_near_any(z, [p.omega for p in omega0_set(problem, tol)], tol.ray_imag_tol)
        for p in singular_points(problem, tol):
            keep &= ~(cabs(z - p) <= reach * (1.0 + abs(p)))
        wt_p, wt_m, w_p, w_m = w_values(problem, z, tol)
        keep &= _reduced_codes(wt_p, wt_m, w_p, w_m, ka[owner], tol) == IN_N
    sweep = [[] for _ in ks]   # each k's modes in poly_roots' (Re, Im) order
    for i, root, wp, wm in zip(np.array(owner, dtype=int)[keep].tolist(), z[keep].tolist(),
                               w_p[keep].tolist(), w_m[keep].tolist()):
        sweep[i].append(_make_mode(root, ks[i], wp, wm))
    return sweep


def eigen_omegas(k: float, problem: InterfaceProblem,
                 tol: Tolerances = DEFAULT_TOL) -> list:
    """All plasmon eigenvalues omega in N^(k), as PlasmonMode records: eigen_sweep at one k."""
    return eigen_sweep([k], problem, tol)[0]


def eigenfunction_eval(mode: PlasmonMode, x1):
    """(psi1, psi2, psi3)(x1); the interface value is the limit from the right."""
    x = np.asarray(x1, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros((3, x.size), dtype=complex)
    right = x >= 0.0
    ep = np.exp(-mode.mu_plus * x[right])
    out[0, right] = mode.v_plus[0] * ep
    out[1, right] = mode.v_plus[1] * ep
    em = np.exp(mode.mu_minus * x[~right])
    out[0, ~right] = mode.v_minus[0] * em
    out[1, ~right] = mode.v_minus[1] * em
    return out[:, 0] if scalar else out


def mode_residuals(modes, grid, problem: InterfaceProblem,
                   tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """mode_residual of every mode, in one array pass over modes and grid: cmul,
    cabs, wtilde and hypot_array round as the one-mode formula does in
    CPython scalars, so each value is bitwise that formula's (a NaN term gives
    NaN). The modes must lie off S, as eigen_sweep's do."""
    x = np.asarray(grid, dtype=float)
    if np.any(x == 0.0):
        raise PreconditionError("mode_residual grid must avoid x1 = 0")
    # k ** 2 is CPython's pow, which can round differently from k * k
    k, k_sq, omega, mu_p, mu_m, vp0, vp1, vm0, vm1 = np.array(
        [(md.k, md.k ** 2, md.omega, md.mu_plus, md.mu_minus, *md.v_plus, *md.v_minus)
         for md in modes], dtype=complex).reshape(-1, 9).T
    ik = cmul(1j, k)   # k and k_sq hold a zero imaginary part, which rounds as a float
    parts = []   # per mode: the residual on each side, then the three jumps
    with np.errstate(all="ignore"):
        for sel, m, v0, v1 in ((x > 0, -mu_p, vp0, vp1), (x < 0, mu_m, vm0, vm1)):
            if not np.any(sel):
                continue
            # psi = v e^(m x1); W_side = k^2 - mu^2 (CPython's mu**2 is mu * mu
            # up to the sign of a zero, which the subtraction from k^2 drops)
            w_side = k_sq - cmul(m, m)
            r1 = cmul(k * k - w_side, v0) + cmul(cmul(ik, m), v1)
            r2 = cmul(cmul(ik, m), v0) - cmul(cmul(m, m), v1) - cmul(w_side, v1)
            env = m[:, None] * x[sel]   # one mode per row, overwritten in place
            env = np.abs(np.exp(env, out=env))
            env *= hypot_array(cabs(r1), cabs(r2))[:, None]
            parts.append(env.max(axis=1))
        parts += [cabs(cmul(wtilde(problem.plus, omega), vp0)
                       - cmul(wtilde(problem.minus, omega), vm0)),
                  cabs(vp1 - vm1),
                  cabs((cmul(-mu_p, vp1) - cmul(ik, vp0)) - (cmul(mu_m, vm1) - cmul(ik, vm0)))]
    return np.max(parts, axis=0)


def mode_residual(mode: PlasmonMode, grid, problem: InterfaceProblem,
                  tol: Tolerances = DEFAULT_TOL) -> float:
    """max |T_k psi - W psi| over the grid plus the three interface jumps.

    Derivatives of the exponential closed form are exact; no finite
    differences enter. The grid must avoid x1 = 0. One mode of mode_residuals.
    """
    return float(mode_residuals([mode], grid, problem, tol)[0])


# ---------------------------------------------------------------------------
# 1D Weyl sequences
# ---------------------------------------------------------------------------


def weyl_sequence_1d(omega: complex, k: float, n: int, side: str,
                     variant: str, problem: InterfaceProblem,
                     tol: Tolerances = DEFAULT_TOL) -> WeylSample:
    """One member of a 1D Weyl sequence.

    variant == "plane_wave": u^(n) = n^(-1/2) e^(i l x1) phi((x1 -+ n^2)/n) e3
    with l = sqrt(W_side - k^2) real; needs omega in M_side^(k), the classifier's
    M_side bit (W_side(omega) in [k^2, inf), in the open ray (0, inf) at k = 0).
    variant == "k0_w0": k = 0 with W_side(omega) = 0, the Omega_0 test of
    dielectric._omega0_point on the same values; compactly supported profile
    in the first component, residual |W_side(omega)|.
    """
    omega = complex(omega)
    sgn = 1.0 if side in ("+", "plus") else -1.0
    values = w_values(problem, omega, tol)
    w_side, in_m = _m_side(side, values, k, problem, tol)
    center = sgn * n * n
    _, nphi1, nphi2 = _bump_constants()

    if variant == "plane_wave":
        if not in_m:
            raise PreconditionError(
                f"plane-wave Weyl sample needs omega in M_{side}^(k); got W={w_side}")
        ell = math.sqrt(max(w_side.real - k * k, 0.0))
        resid = (1.0 / n) * math.sqrt(4.0 * ell * ell * nphi1**2 + (nphi2 / n) ** 2)
        return WeylSample(n=n, construction="1D-right" if sgn > 0 else "1D-left",
                          residual_norm=resid, norm=1.0, support_center=center)

    if variant == "k0_w0":
        if k != 0.0:
            raise PreconditionError("k0_w0 variant requires k = 0")
        pt = _omega0_point(omega, *values[:2], tol)
        if pt is None or not (pt.plus_vanishes if sgn > 0 else pt.minus_vanishes):
            raise PreconditionError(
                f"k0_w0 variant needs W_{side}(omega) = 0; got {w_side}")
        # L_0 u = (-W_side f, 0, 0): the residual is |W_side| exactly
        return WeylSample(n=n, construction="1D-k0-W0",
                          residual_norm=float(abs(w_side)), norm=1.0,
                          support_center=center)

    raise ValueError(f"unknown variant {variant!r}")


def weyl_field_1d(omega: complex, k: float, n: int, side: str, variant: str,
                  problem: InterfaceProblem, x1, tol: Tolerances = DEFAULT_TOL):
    """Sample the Weyl member on points x1; used for overlap/weak-limit checks."""
    omega = complex(omega)
    sgn = 1.0 if side in ("+", "plus") else -1.0
    x = np.asarray(x1, dtype=float)
    out = np.zeros((3, x.size), dtype=complex)
    center = sgn * n * n
    if variant == "plane_wave":
        w_side = w(problem.side(side), omega, tol)
        ell = math.sqrt(max(w_side.real - k * k, 0.0))
        out[2] = np.exp(1j * ell * x) * bump((x - center) / n) / math.sqrt(n)
    elif variant == "k0_w0":
        out[0] = bump(x - center)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return out


def weyl_sequence_2d_bulk(omega: complex, side: str, n: int,
                          problem: InterfaceProblem,
                          tol: Tolerances = DEFAULT_TOL) -> WeylSample:
    """2D plane-wave Weyl member in the third component; needs omega in M_side,
    the M_side bit of classify2 (W_side(omega) in the open ray (0, inf))."""
    sgn = 1.0 if side in ("+", "plus") else -1.0
    w_side, in_m = _m_side(side, w_values(problem, complex(omega), tol), None, problem, tol)
    if not in_m:
        raise PreconditionError(
            f"2D bulk Weyl sample needs W_{side}(omega) in (0, inf); got {w_side}")
    _, nphi1, nphi2 = _bump_constants()
    # product bump phi(y1) phi(y2): ||beta . grad||^2 = |beta|^2 ||phi'||^2,
    # ||Laplacian||^2 = 2 ||phi''||^2 + 2 ||phi'||^4
    lap2 = 2.0 * nphi2**2 + 2.0 * nphi1**4
    resid = (1.0 / n) * math.sqrt(4.0 * w_side.real * nphi1**2 + lap2 / (n * n))
    return WeylSample(n=n, construction="2D-bulk", residual_norm=resid,
                      norm=1.0, support_center=sgn * n * n)


# ---------------------------------------------------------------------------
# 2D interface-guided Weyl sequence (Fourier-fiber residual)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weyl2DInterfaceReport:
    n: int
    k0: float
    residual_norm: float
    normalization: float      # c_n
    correction_norm: float    # ||r_n||
    leading_norm: float       # ||v^(n)||


def _interface_profile(omega, a, problem, tol):
    """psi, its coefficient data, and exponents for the guided construction."""
    k0 = math.sqrt(a)
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    if in_ray(w_p, a, tol) or in_ray(w_m, a, tol):
        raise PreconditionError("(omega, a) violates the ray exclusions of N")
    mu_p = principal_sqrt(a - w_p)
    mu_m = principal_sqrt(a - w_m)
    if not _n_identity_holds(wt_p, wt_m, w_p, w_m, a, tol, slack=10):
        raise PreconditionError(
            f"(omega, a) does not satisfy the N-membership identity: "
            f"|Wt+ mu- + Wt- mu+| = {abs(wt_p * mu_m + wt_m * mu_p):.3e}")
    v_p = np.array([1j * k0, mu_p], dtype=complex)
    v_m = (mu_p / mu_m) * np.array([-1j * k0, mu_m], dtype=complex)
    return k0, w_p, w_m, mu_p, mu_m, v_p, v_m


def _half_norm2(coef, alpha):
    """||c e^(-alpha x)||^2 on a half-line = |c|^2/(2 alpha)."""
    return abs(coef) ** 2 / (2.0 * alpha)


def weyl_2d_interface_report(omega: complex, a: float, n: int,
                             problem: InterfaceProblem,
                             tol: Tolerances = DEFAULT_TOL) -> Weyl2DInterfaceReport:
    """Residual of the interface-guided 2D Weyl member, via kappa quadrature.

    The construction is the 1D eigenprofile psi at wavenumber k0 = sqrt(a),
    modulated by a moving cutoff in x2 and corrected by r_n to stay
    divergence free. In the Fourier fiber the full residual collapses to
      R(x1, k) ~ kappa k hat-phi(kappa) [ (k + k0) psi1, i psi1' + (k0^2/k) psi2, 0 ]
    with kappa = n (k - k0); the x1-norms are exact exponential integrals and
    only the kappa integral is quadrature.
    """
    omega = complex(omega)
    k0, w_p, w_m, mu_p, mu_m, v_p, v_m = _interface_profile(omega, a, problem, tol)
    ap, am = mu_p.real, mu_m.real

    kappa, phat = _bump_fourier_table()
    kap = np.concatenate([-kappa[:0:-1], kappa])
    ph2 = np.concatenate([phat[:0:-1], phat]) ** 2   # hat-phi is even
    dk = kap[1] - kap[0]

    kk = k0 + kap / n
    # guard the 1/k factor in the correction: hat-phi is negligible there anyway
    kk_safe = np.where(np.abs(kk) < 1e-12, 1e-12, kk)

    # x1-norms of the two nonzero residual components
    n1 = _half_norm2(v_p[0], ap) + _half_norm2(v_m[0], am)
    comp1 = (kk + k0) ** 2 * n1
    c_over = k0 * k0 / kk_safe
    cp = np.abs(-1j * mu_p * v_p[0] + c_over * v_p[1]) ** 2 / (2 * ap)
    cm = np.abs(1j * mu_m * v_m[0] + c_over * v_m[1]) ** 2 / (2 * am)
    comp2 = cp + cm

    integrand_R = kap**2 * kk**2 * ph2 * (comp1 + comp2)
    int_R = float(np.sum(integrand_R) * dk)

    # normalization pieces
    psi_norm2 = sum(_half_norm2(v_p[j], ap) + _half_norm2(v_m[j], am) for j in range(2))
    psi2_norm2 = _half_norm2(v_p[1], ap) + _half_norm2(v_m[1], am)
    lead2 = psi_norm2 * float(np.sum(kk**2 * ph2) * dk)
    corr2 = psi2_norm2 * float(np.sum(kap**2 * ph2) * dk) / (n * n)
    cross = -psi2_norm2 * float(np.sum(kk * kap * ph2) * dk) / n
    total2 = lead2 + 2.0 * cross + corr2
    c_n = 1.0 / math.sqrt(total2)

    resid = c_n * math.sqrt(int_R) / n
    return Weyl2DInterfaceReport(
        n=n, k0=k0, residual_norm=resid, normalization=c_n,
        correction_norm=c_n * math.sqrt(corr2), leading_norm=c_n * math.sqrt(lead2),
    )


def weyl_residual_2d_interface(omega: complex, a: float, n: int,
                               problem: InterfaceProblem,
                               tol: Tolerances = DEFAULT_TOL) -> float:
    """||L(omega) u^(n)|| for the interface-guided 2D Weyl sequence."""
    return weyl_2d_interface_report(omega, a, n, problem, tol).residual_norm


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ln = np.log(np.asarray(ns, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(ln, lv, 1)[0])
