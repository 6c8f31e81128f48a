"""Plasmon modes and Weyl sequences.

Eigenvalues are the zeros of k^2 (W_+ + W_-) - W_+ W_- surviving a filter
chain (poles, exceptional set, essential rays, unsquared matching identity);
for rational media the zeros come from one cleared-denominator polynomial, so
the search is exact. roots_in_set samples a set as the roots of a polynomial
family that one classify_array call puts in it: eigen_sweep's N^(k) over a k
sweep, and the portrait's overlays. mode_residuals checks all modes in one array
pass. Eigenfunctions are the explicit two-sided exponentials with decay rates
mu_pm = sqrt(k^2 - W_pm), Re mu_pm > 0.

Each Weyl member is built where the classifier's predicate puts omega in its set:
in_M, near_omega0 (the side's W = 0 tag), in_M2, and in_N2 (and its witness a).
Residual norms are closed forms in the decay rates and the cutoff bump's norms
||phi^(m)||, m <= 3 (the 2D interface-guided one through Parseval's identity in
the Fourier fiber), never numerical derivatives of samples: the decay rates
under test sit far below finite-difference noise floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complex_numerics import (DEFAULT_TOL, Tolerances, _bump_constants, bump, cabs,
                               poly_roots_family, principal_sqrt)
from .classify1d import IN_N, POINTWISE, classify_array, in_M, in_M2, in_N2
from .dielectric import (
    DielectricModel,
    InterfaceProblem,
    _near_any,
    _zero_tags,
    near_omega0,
    singular_points,
    w,
    w_values,
    wtilde,
)
from .errors import (DegenerateDispersionError, PencilSpectraError, PreconditionError,
                     UnsupportedModelError)


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
    cross = _polyadd(np.convolve(np_, dm), np.convolve(nm, dp))
    qb = np.convolve((s, 0.0, 0.0), np.convolve(np_, nm))
    k = np.asarray(k, dtype=float)
    q = _polyadd((k * k)[..., None] * cross, np.negative(qb))   # one row per k
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
    q = _polyadd(np.convolve((model.scale, 0.0, 0.0), model.numerator),
                 -t[..., None] * np.asarray(model.denominator))
    return q if t.ndim else tuple(q)


def _make_mode(omega, k, w_p, w_m):
    mu_p = principal_sqrt(k * k - w_p)
    mu_m = principal_sqrt(k * k - w_m)
    v_plus = ((mu_m / mu_p) * (1j * k), mu_m)
    v_minus = (-1j * k, mu_m)
    return PlasmonMode(omega=omega, k=k, mu_plus=mu_p, mu_minus=mu_m,
                       v_plus=v_plus, v_minus=v_minus)


def roots_in_set(family, params, k, bit: int, problem: InterfaceProblem,
                 tol: Tolerances = DEFAULT_TOL):
    """(z, row, errors): the roots z of the rows of family(params) whose classify_array
    code at k (a wavenumber, None for the 2D pencil, or one per param) has bit, the
    row of each root, and the PencilSpectraError of each row poly_roots_family
    refuses. A row of degree 0 has no roots, nor has a family that raises (a black-box
    medium). Roots coded POINTWISE are in no set: those on S or Omega_0, and those
    where W~ is not finite (Horner overflows from |omega| ~ 1e52 on a three-pole-pair).
    """
    roots, row, errors = [], [], []
    with np.errstate(all="ignore"):
        try:
            q = np.asarray(family(np.asarray(params, dtype=float)))
        except PencilSpectraError:
            q = np.zeros((0, 1))
        solved = np.flatnonzero((q[:, :-1] != 0).any(axis=1))   # degree >= 1
        for i, found in zip(solved.tolist(), poly_roots_family(q[solved], tol)):
            if isinstance(found, PencilSpectraError):
                errors.append(found)
            else:
                roots += [z for z, _ in found]
                row += [i] * len(found)
        z, row = np.array(roots, dtype=complex), np.array(row, dtype=int)
        codes = classify_array(z, k if np.ndim(k) == 0 else np.asarray(k)[row], problem, tol).codes
    keep = (codes != POINTWISE) & (codes & bit != 0)
    return z[keep], row[keep], errors


def eigen_sweep(ks, problem: InterfaceProblem, tol: Tolerances = DEFAULT_TOL) -> list:
    """The plasmon eigenvalues in N^(k) of each k of a sweep: per k, a list of
    PlasmonMode records sorted by (Re, Im) omega. They are the roots_in_set of the
    eigenvalue polynomials (IN_N: off S, Omega_0 and the essential rays, with the
    unsquared matching identity) off a pole reach wider than classify's, since it is
    about root accuracy. A member error of the family (one that overflows) is raised.
    """
    if not problem.is_rational:
        raise UnsupportedModelError("eigen_omegas needs rational models on both sides")
    ka = np.asarray(ks, dtype=float)
    nonzero = np.flatnonzero(ka != 0.0)   # N^(0) is empty: 0 = W_+ W_- fails off Omega_0
    z, row, errors = roots_in_set(lambda k: eigenvalue_polynomial(k, problem), ka[nonzero],
                                  ka[nonzero], IN_N, problem, tol)
    if errors:
        raise errors[0]
    reach = max(tol.ray_imag_tol, 1e-9)
    poles = singular_points(problem, tol)
    with np.errstate(all="ignore"):
        keep = ~_near_any(z, poles, [reach * (1.0 + abs(p)) for p in poles])
        z, row = z[keep], row[keep]
        _, _, w_p, w_m = w_values(problem, z, tol)
    sweep = [[] for _ in ks]   # each k's modes in poly_roots' (Re, Im) order
    for i, root, wp, wm in zip(nonzero[row].tolist(), z.tolist(), w_p.tolist(), w_m.tolist()):
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


def mode_residuals(modes, grid, problem: InterfaceProblem) -> np.ndarray:
    """mode_residual of every mode, in one array pass (a NaN term gives NaN). The modes
    must lie off S, as eigen_sweep's do. |e^(m x1)| = e^(Re m x1) is monotone in x1, so
    on each side it peaks at an extreme node, and only those two nodes are evaluated."""
    x = np.asarray(grid, dtype=float)
    if np.any(x == 0.0):
        raise PreconditionError("mode_residual grid must avoid x1 = 0")
    k, omega, mu_p, mu_m, vp0, vp1, vm0, vm1 = np.array(
        [(md.k, md.omega, md.mu_plus, md.mu_minus, *md.v_plus, *md.v_minus)
         for md in modes], dtype=complex).reshape(-1, 8).T
    ik = 1j * k
    parts = []   # per mode: the residual on each side, then the three jumps
    with np.errstate(all="ignore"):
        for side, m, v0, v1 in ((x[x > 0], -mu_p, vp0, vp1), (x[x < 0], mu_m, vm0, vm1)):
            if not side.size:
                continue
            w_side = k * k - m * m   # psi = v e^(m x1), W_side = k^2 - mu^2
            r1 = (k * k - w_side) * v0 + ik * m * v1
            r2 = ik * m * v0 - m * m * v1 - w_side * v1
            env = np.abs(np.exp(m[:, None] * [side.min(), side.max()]))   # one mode per row
            env *= np.hypot(cabs(r1), cabs(r2))[:, None]
            parts.append(env.max(axis=1))
        parts += [cabs(wtilde(problem.plus, omega) * vp0 - wtilde(problem.minus, omega) * vm0),
                  cabs(vp1 - vm1),
                  cabs((-mu_p * vp1 - ik * vp0) - (mu_m * vm1 - ik * vm0))]
    return np.max(parts, axis=0)


def mode_residual(mode: PlasmonMode, grid, problem: InterfaceProblem) -> float:
    """max |T_k psi - W psi| over the grid plus the three interface jumps.

    Derivatives of the exponential closed form are exact; no finite
    differences enter. The grid must avoid x1 = 0. One mode of mode_residuals.
    """
    return float(mode_residuals([mode], grid, problem)[0])


# ---------------------------------------------------------------------------
# 1D Weyl sequences
# ---------------------------------------------------------------------------


def weyl_sequence_1d(omega: complex, k: float, n: int, side: str,
                     variant: str, problem: InterfaceProblem,
                     tol: Tolerances = DEFAULT_TOL) -> WeylSample:
    """One member of a 1D Weyl sequence.

    variant == "plane_wave": u^(n) = n^(-1/2) e^(i l x1) phi((x1 -+ n^2)/n) e3
    with l = sqrt(W_side - k^2) real; needs in_M(side, omega, k) (W_side(omega)
    in [k^2, inf), in the open ray (0, inf) at k = 0; off S and Omega_0).
    variant == "k0_w0": k = 0 and the Omega_0 point near_omega0 finds at omega
    tagged W_side = 0; compactly supported profile in the first component,
    residual |W_side(omega)|.
    """
    omega = complex(omega)
    sgn = 1.0 if side in ("+", "plus") else -1.0
    model = problem.side(side)   # rejects a bad label
    center = sgn * n * n
    _, nphi1, nphi2, _ = _bump_constants()

    if variant == "plane_wave":
        if not in_M(side, omega, k, problem, tol):
            raise PreconditionError(f"plane-wave Weyl sample needs omega in M_{side}^(k)")
        ell = math.sqrt(max(w(model, omega, tol).real - k * k, 0.0))
        resid = (1.0 / n) * math.sqrt(4.0 * ell * ell * nphi1**2 + (nphi2 / n) ** 2)
        return WeylSample(n=n, construction="1D-right" if sgn > 0 else "1D-left",
                          residual_norm=resid, norm=1.0, support_center=center)

    if variant == "k0_w0":
        if k != 0.0:
            raise PreconditionError("k0_w0 variant requires k = 0")
        pt = near_omega0(problem, omega, tol)
        if pt is None or not (pt.plus_vanishes if sgn > 0 else pt.minus_vanishes):
            raise PreconditionError(f"k0_w0 variant needs omega in Omega_0 with W_{side} = 0")
        # L_0 u = (-W_side f, 0, 0): the residual is |W_side| exactly
        return WeylSample(n=n, construction="1D-k0-W0",
                          residual_norm=float(abs(w(model, omega, tol))), norm=1.0,
                          support_center=center)

    raise ValueError(f"unknown variant {variant!r}")


def weyl_field_1d(omega: complex, k: float, n: int, side: str, variant: str,
                  problem: InterfaceProblem, x1, tol: Tolerances = DEFAULT_TOL):
    """Sample the Weyl member on points x1; used for overlap/weak-limit checks."""
    omega = complex(omega)
    model = problem.side(side)   # rejects a bad label
    sgn = 1.0 if side in ("+", "plus") else -1.0
    x = np.asarray(x1, dtype=float)
    out = np.zeros((3, x.size), dtype=complex)
    center = sgn * n * n
    if variant == "plane_wave":
        w_side = w(model, omega, tol)
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
    """2D plane-wave Weyl member in the third component; needs in_M2(side, omega)
    (W_side(omega) in the open ray (0, inf), off S and Omega_0)."""
    sgn = 1.0 if side in ("+", "plus") else -1.0
    omega = complex(omega)
    if not in_M2(side, omega, problem, tol):
        raise PreconditionError(f"2D bulk Weyl sample needs W_{side}(omega) in (0, inf)")
    w_side = w(problem.side(side), omega, tol)
    _, nphi1, nphi2, _ = _bump_constants()
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


def _interface_profile(omega, problem, tol):
    """psi, its coefficient data, and exponents for the guided construction at
    k0 = sqrt(a): needs in_N2(omega) to hold, with a its witness."""
    holds, a = in_N2(omega, problem, tol)
    if not holds:
        raise PreconditionError(f"omega={omega} is not in the 2D set N")
    k0 = math.sqrt(a)
    _, _, w_p, w_m = w_values(problem, omega, tol)
    mu_p = principal_sqrt(a - w_p)
    mu_m = principal_sqrt(a - w_m)
    v_p = np.array([1j * k0, mu_p], dtype=complex)
    v_m = (mu_p / mu_m) * np.array([-1j * k0, mu_m], dtype=complex)
    return k0, w_p, w_m, mu_p, mu_m, v_p, v_m


def _half_norm2(coef, alpha):
    """||c e^(-alpha x)||^2 on a half-line = |c|^2/(2 alpha)."""
    return abs(coef) ** 2 / (2.0 * alpha)


def weyl_2d_interface_report(omega: complex, n: int, problem: InterfaceProblem,
                             tol: Tolerances = DEFAULT_TOL) -> Weyl2DInterfaceReport:
    """Residual of the interface-guided 2D Weyl member, in closed form.

    The construction is the 1D eigenprofile psi at wavenumber k0 = sqrt(a), a the
    witness of in_N2(omega), modulated by a moving cutoff in x2 and corrected by r_n
    to stay divergence free. In the Fourier fiber the full residual collapses to
      R(x1, k) ~ kappa k hat-phi(kappa) [ (k + k0) psi1, i psi1' + (k0^2/k) psi2, 0 ]
    with kappa = n (k - k0). The x1-norms are exact exponential integrals, and
    the kappa integrals are Parseval moments of the bump: with hat-phi even,
    int kappa^(2m) |hat-phi|^2 dkappa = ||phi^(m)||^2 and the odd moments vanish.
    """
    omega = complex(omega)
    k0, _, _, mu_p, mu_m, v_p, v_m = _interface_profile(omega, problem, tol)
    ap, am = mu_p.real, mu_m.real
    _, nphi1, nphi2, nphi3 = _bump_constants()

    # k^2 times the squared x1-norm of the bracket is the quartic
    #   P(k) = k^2 (k + k0)^2 n1 + sum_pm |alpha_pm k + beta_pm|^2 / (2 Re mu_pm)
    # with alpha_pm = -+ i mu_pm v_pm[0] and beta_pm = k0^2 v_pm[1] (sides), the 1/k
    # of the correction cancelling. With k = k0 + t only even powers of t survive
    # the kappa integral: those of k^2 (k + k0)^2 are 4 k0^4 + 13 k0^2 t^2 + t^4,
    # those of |alpha k + beta|^2 are |alpha k0 + beta|^2 + |alpha|^2 t^2
    n1 =_half_norm2(v_p[0], ap) + _half_norm2(v_m[0], am)
    sides = ((-1j * mu_p * v_p[0], k0 * k0 * v_p[1], ap),
             (1j * mu_m * v_m[0], k0 * k0 * v_m[1], am))
    p0 = 4.0 * k0**4 * n1 + sum(_half_norm2(al * k0 + be, re) for al, be, re in sides)
    p2 = 13.0 * k0**2 * n1 + sum(_half_norm2(al, re) for al, _, re in sides)
    # int kappa^2 P(k0 + kappa/n) |hat-phi|^2 dkappa
    int_R = p0 * nphi1**2 + p2 * (nphi2 / n) ** 2 + n1 * (nphi3 / (n * n)) ** 2

    # normalization pieces; the cross term of leading part and correction is -corr2
    psi_norm2 = sum(_half_norm2(v_p[j], ap) + _half_norm2(v_m[j], am) for j in range(2))
    psi2_norm2 = _half_norm2(v_p[1], ap) + _half_norm2(v_m[1], am)
    lead2 = psi_norm2 * (k0 * k0 + (nphi1 / n) ** 2)
    corr2 = psi2_norm2 * (nphi1 / n) ** 2
    c_n = 1.0 / math.sqrt(lead2 - corr2)

    resid = c_n * math.sqrt(int_R) / n
    return Weyl2DInterfaceReport(
        n=n, k0=k0, residual_norm=resid, normalization=c_n,
        correction_norm=c_n * math.sqrt(corr2), leading_norm=c_n * math.sqrt(lead2),
    )


def weyl_residual_2d_interface(omega: complex, n: int, problem: InterfaceProblem,
                               tol: Tolerances = DEFAULT_TOL) -> float:
    """||L(omega) u^(n)|| for the interface-guided 2D Weyl sequence."""
    return weyl_2d_interface_report(omega, n, problem, tol).residual_norm


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    ln = np.log(np.asarray(ns, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(ln, lv, 1)[0])
