"""Plasmon modes and Weyl sequences.

Eigenvalues are the zeros of k^2 (W_+ + W_-) - W_+ W_- surviving a filter
chain (poles, exceptional set, essential rays, unsquared matching identity);
for rational media the zeros come from one cleared-denominator polynomial, so
the search is exact. eigen_sweep solves the polynomials of a whole k sweep
as one family and keeps the roots classify_array puts in N^(k); mode_residuals
checks all modes in one array pass. Eigenfunctions are the explicit two-sided
exponentials with decay rates mu_pm = sqrt(k^2 - W_pm), Re mu_pm > 0.

Weyl-sequence residual norms are evaluated from closed-form integrands on
quadrature grids, never by numerically differentiating samples: the decay
rates under test sit far below finite-difference noise floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .complex_numerics import (DEFAULT_TOL, Tolerances, cabs, in_ray, poly_roots_family,
                               principal_sqrt)
from .classify1d import IN_N, _m_side, _n_identity_holds, _point_arrays, classify_array
from .dielectric import (
    DielectricModel,
    InterfaceProblem,
    _omega0_point,
    _zero_tags,
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


def _gl_half():
    """The non-negative half of the _GL_N // 2-point Gauss-Legendre rule on [-1, 1]:
    nodes ascending, and their weights. numpy's rule is symmetric bit for bit, so the
    other half is -nodes and the same weights, reversed. Stored so that no process
    pays for leggauss; tests/test_modes.py recomputes them bitwise.
    """
    nodes = (
        0.007834291142306368, 0.023500950061457637, 0.03916183935642225, 0.054813114184952376,
        0.07045093206520935, 0.08607145381911603, 0.10167084451489806, 0.11724527440858257,
        0.13279091988422337, 0.1483039643926215, 0.16378059938831108, 0.17921702526457994,
        0.19460945228629592, 0.20995410152030963, 0.2252472057632051, 0.24048501046617085,
        0.2556637746567642, 0.2707797718573425, 0.2858292909999354, 0.30080863733733487,
        0.31571413335017723, 0.3305421196497966, 0.34528895587662667, 0.3599510215939307,
        0.3745247171766407, 0.38900646469508665, 0.40339270879340006, 0.4176799175623748,
        0.4318645834065725, 0.44594322390545765, 0.4599123826683533, 0.4737686301830054,
        0.48750856465754877, 0.5011288128556672, 0.5146260309247439, 0.5279969052167963,
        0.5412381531019974, 0.5543465237745809, 0.5673187990509334, 0.580151794159678,
        0.5928423585235543, 0.6053873765329049, 0.6177837683105758, 0.6300284904680445,
        0.642118536852591, 0.6540509392853255, 0.665822768289895, 0.6774311338116865,
        0.6888731859273538, 0.7001461155444901, 0.7112471550912779, 0.7221735791959438,
        0.7329227053558545, 0.743491894596087, 0.7538785521173134, 0.7640801279328392,
        0.774094117494642, 0.7839180623082517, 0.7935495505363276, 0.8029862175907783,
        0.8122257467132833, 0.8212658695440718, 0.8301043666788191, 0.8387390682135252,
        0.8471678542772394, 0.8553886555525035, 0.8633994537833832, 0.8711982822709635,
        0.8787832263561882, 0.8861524238899227, 0.8933040656901265, 0.9002363959860233,
        0.9069477128491588, 0.913436368611241, 0.9197007702686635, 0.9257393798736082,
        0.931550714911637, 0.9371333486656785, 0.9424859105663231, 0.9476070865283424,
        0.952495619273355, 0.9571503086385662, 0.9615700118715107, 0.9657536439107448,
        0.9697001776524374, 0.9734086442028306, 0.9768781331165662, 0.9801077926209241,
        0.9830968298260957, 0.9858445109217865, 0.9883501613607613, 0.9906131660306736,
        0.9926329694171897, 0.9944090757657015, 0.9959410492610112, 0.9972285142833798,
        0.9982711559489107, 0.9990687218731522, 0.9996210312809364, 0.99992807128507,
    )
    weights = (
        0.015668261715832337, 0.01566441506361095, 0.01565672270354441, 0.015645186524153143,
        0.015629809357638556, 0.015610594979187131, 0.01558754810604403, 0.015560674396354899,
        0.015529980447776693, 0.015495473795857861, 0.015457162912188434, 0.015415057202320174,
        0.015369167003457368, 0.015319503581919136, 0.01526607913037345, 0.015208906764843459,
        0.015148000521487945, 0.015083375353155012, 0.015015047125711098, 0.014943032614145865,
        0.014867349498454075, 0.014788016359294458, 0.01470505267342854, 0.014618478808939024,
        0.014528316020228874, 0.014434586442803586, 0.014337313087836713, 0.014236519836520486,
        0.014132231434202665, 0.014024473484311746, 0.01391327244207079, 0.013798655608002853,
        0.013680651121228285, 0.013559287952556688, 0.013434595897373896, 0.013306605568327617,
        0.013175348387811777, 0.013040856580251444, 0.012903163164192474, 0.01276230194419463,
        0.012618307502532998, 0.012471215190706916, 0.012321061120761255, 0.012167882156422056,
        0.012011715904043953, 0.01185260070337936, 0.011690575618165045, 0.011525680426532002,
        0.01135795561124021, 0.011187442349738392, 0.01101418250405644, 0.010838218610526869,
        0.010659593869342624, 0.010478352133950512, 0.010294537900285458, 0.01010819629584757,
        0.009919373068619721, 0.009728114575840755, 0.009534467772620132, 0.009338480200414235,
        0.009140199975351754, 0.008939675776422852, 0.008736956833526668, 0.008532092915386579,
        0.008325134317331668, 0.008116131848949184, 0.007905136821609959, 0.007692201035873204,
        0.007477376768767286, 0.007260716760958532, 0.007042274203802023, 0.006822102726285015,
        0.00660025638186125, 0.006376789635183411, 0.006151757348731806, 0.005925214769351217,
        0.005697217514689605, 0.005467821559550249, 0.005237083222156625, 0.00500505915033892,
        0.004771806307641696, 0.004537381959358461, 0.004301843658512845, 0.004065249231775891,
        0.0038276567653450057, 0.0035891245908115745, 0.003349711271035659, 0.0031094755861022214,
        0.0028684765194691045, 0.002626773244516121, 0.0023844251120056803, 0.0021414916394403485,
        0.001898032504939851, 0.0016541075523122757, 0.0014097768274520645, 0.0011651007147556079,
        0.0009201404593424986, 0.0006749606344774274, 0.00042964663045148117, 0.0001845900974673164,
    )
    return np.array(nodes), np.array(weights)


@lru_cache(maxsize=1)
def _bump_fourier_table():
    """kappa grid and hat-phi(kappa) = sqrt(2/pi) * int_0^1 phi cos(kappa y) dy, phi being
    even, by the _GL_N // 2-point Gauss-Legendre rule mapped onto (0, 1)."""
    half, w_half = _gl_half()
    x, w = np.concatenate([-half[::-1], half]), np.concatenate([w_half[::-1], w_half])
    y = 0.5 * (x + 1.0)
    wphi = 0.5 * w * bump(y)
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
    q = _polyadd(_polymul((model.scale, 0.0, 0.0), model.numerator),
                 -t[..., None] * np.asarray(model.denominator))
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

    The eigenvalue polynomials of all k are solved as one poly_roots_family. A
    root is kept exactly when classify_array, at its own k, codes it IN_N (off S,
    Omega_0 and the essential rays, with the unsquared matching identity that
    squaring lost) and it lies off the pole reach, wider than classify's since
    it is about root accuracy. A member error of the family (a polynomial that
    overflows) is raised.
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
        keep = classify_array(z, ka[owner], problem, tol).codes == IN_N
        for p in singular_points(problem, tol):
            keep &= ~(cabs(z - p) <= reach * (1.0 + abs(p)))
        _, _, w_p, w_m = w_values(problem, z[keep], tol)
    sweep = [[] for _ in ks]   # each k's modes in poly_roots' (Re, Im) order
    for i, root, wp, wm in zip(np.array(owner, dtype=int)[keep].tolist(), z[keep].tolist(),
                               w_p.tolist(), w_m.tolist()):
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
    """mode_residual of every mode, in one array pass over modes and grid (a NaN
    term gives NaN). The modes must lie off S, as eigen_sweep's do."""
    x = np.asarray(grid, dtype=float)
    if np.any(x == 0.0):
        raise PreconditionError("mode_residual grid must avoid x1 = 0")
    k, omega, mu_p, mu_m, vp0, vp1, vm0, vm1 = np.array(
        [(md.k, md.omega, md.mu_plus, md.mu_minus, *md.v_plus, *md.v_minus)
         for md in modes], dtype=complex).reshape(-1, 8).T
    ik = 1j * k
    parts = []   # per mode: the residual on each side, then the three jumps
    with np.errstate(all="ignore"):
        for sel, m, v0, v1 in ((x > 0, -mu_p, vp0, vp1), (x < 0, mu_m, vm0, vm1)):
            if not np.any(sel):
                continue
            w_side = k * k - m * m   # psi = v e^(m x1), W_side = k^2 - mu^2
            r1 = (k * k - w_side) * v0 + ik * m * v1
            r2 = ik * m * v0 - m * m * v1 - w_side * v1
            env = m[:, None] * x[sel]   # one mode per row, overwritten in place
            env = np.abs(np.exp(env, out=env))
            env *= np.hypot(cabs(r1), cabs(r2))[:, None]
            parts.append(env.max(axis=1))
        parts += [cabs(wtilde(problem.plus, omega) * vp0 - wtilde(problem.minus, omega) * vm0),
                  cabs(vp1 - vm1),
                  cabs((-mu_p * vp1 - ik * vp0) - (mu_m * vm1 - ik * vm0))]
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
    in_m = _m_side(side, omega, values, k, problem, tol)
    w_side = values[2 if sgn > 0 else 3]
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
    omega = complex(omega)
    values = w_values(problem, omega, tol)
    in_m = _m_side(side, omega, values, None, problem, tol)
    w_side = values[2 if sgn > 0 else 3]
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
    wt_p, wt_m, w_p, w_m = values = w_values(problem, omega, tol)
    if in_ray(w_p, a, tol) or in_ray(w_m, a, tol):
        raise PreconditionError("(omega, a) violates the ray exclusions of N")
    mu_p = principal_sqrt(a - w_p)
    mu_m = principal_sqrt(a - w_m)
    if not _n_identity_holds(*_point_arrays(omega, values, problem, tol), a, tol, slack=10)[0]:
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
