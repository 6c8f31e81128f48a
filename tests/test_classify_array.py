"""classify_array against a scalar reference of the reduced branch.

`_reference` is a test-only copy of the reduced branch as classify and
classify2 decided it point by point, in Python complex arithmetic, before the
array kernel existed. classify_array must give every point the same record
as that copy and as classify / classify2: on small grids of the three
benchmark media and a lossless one (where M+ and M- overlap), at the M+
endpoint sqrt(k^2/2), 1e-10 and 1e-9 away from every point of S and Omega_0,
where the ray test turns on the last bit of W, at NaN, inf and 1e200, and
for a black-box model, with k in {0, 0.7, 3, 50, 1e3} and for the 2D pencil.
It must emit no floating-point warning."""

import cmath
import math
import warnings

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    classify,
    classify2,
    eigen_omegas,
    omega0_set,
    singular_points,
)
from pencil_spectra.classify1d import IN_N, M_MINUS, M_PLUS, _reduced_codes, classify_array
from pencil_spectra.complex_numerics import DEFAULT_TOL, Tolerances, in_open_positive_ray
from pencil_spectra.dielectric import near_omega0, which_pole_side, wtilde
from pencil_spectra.modes import eigen_sweep

KS = [0.0, 0.7, 3.0, 50.0, 1e3]
TOL = DEFAULT_TOL


def complex_array(re, im) -> np.ndarray:
    """re + i*im (same-shape real arrays) by assignment, so infinities and
    signed zeros pass unchanged."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _lorentz(oscillators):
    """W~ = 1 - sum_j f_j/(omega^2 + i g_j omega - w_j^2) as one rational model."""
    quads = [np.array([1.0, 1j * g, -w0 * w0]) for w0, g, _ in oscillators]
    den = np.array([1 + 0j])
    for q in quads:
        den = np.polymul(den, q)
    num = den.copy()
    for j, (_, _, f) in enumerate(oscillators):
        rest = np.array([1 + 0j])
        for i, q in enumerate(quads):
            if i != j:
                rest = np.polymul(rest, q)
        num = np.polysub(num, f * rest)
    return DielectricModel.rational(num.tolist(), den.tolist())


MEDIA = {
    "drude": InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
    "guided": InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.6, 2.0)),
    "lorentz": InterfaceProblem(DielectricModel.constant(2.0), _lorentz(
        [(0.8, 0.3, 1.0), (1.6, 0.4, 1.5), (2.6, 0.5, 2.0)])),
    # lossless: both W_pm are real on the real axis, so M+ and M- overlap there
    "lossless": InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 0.0)),
}


def _sqrt(z):
    a = cmath.sqrt(z)
    return -a if a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0) else a


def _ray(z, a):
    return abs(z.imag) <= TOL.ray_imag_tol and z.real >= a - TOL.ray_real_tol


def _open_ray(z):
    return abs(z.imag) <= TOL.ray_imag_tol and z.real > TOL.ray_real_tol


def _reference(omega, k, problem):
    """branch_note of the reduced branch at omega (k=None: 2D); None on S or Omega_0."""
    if (which_pole_side(problem, omega, TOL) is not None
            or near_omega0(problem, omega, TOL) is not None):
        return None
    wt_p = wtilde(problem.plus, omega, TOL)
    wt_m = wtilde(problem.minus, omega, TOL)
    w_p = omega * omega * wt_p
    w_m = omega * omega * wt_m
    if k is None:
        nn = False
        s = w_p + w_m
        if abs(s) > TOL.equality_tol * (abs(w_p) + abs(w_m)):
            a = w_p * w_m / s
            nn = (abs(a.imag) <= TOL.ray_imag_tol and a.real >= -TOL.ray_real_tol
                  and not _ray(w_p, a.real) and not _ray(w_m, a.real))
        members = [name for name, flag in
                   (("M+", _open_ray(w_p)), ("M-", _open_ray(w_m)), ("N", nn)) if flag]
        return "2D-reduced/" + ("&".join(members) or "resolvent")
    if k != 0.0:
        mp, mm = _ray(w_p, k * k), _ray(w_m, k * k)
    else:
        mp, mm = _open_ray(w_p), _open_ray(w_m)
    if mp or mm:
        return "reduced/" + ("M+-" if mp and mm else "M+" if mp else "M-")
    if _ray(w_p, k * k) or _ray(w_m, k * k):
        return "reduced/resolvent"
    mu_p = _sqrt(k * k - w_p)
    mu_m = _sqrt(k * k - w_m)
    a = wt_p * mu_m
    b = wt_m * mu_p
    return "reduced/N" if abs(a + b) <= TOL.equality_tol * (abs(a) + abs(b)) \
        else "reduced/resolvent"


def _assert_matches(points, k, problem):
    points = np.asarray(points, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a RuntimeWarning fails the test
        res = classify_array(points, k, problem)
        notes = res.branch_notes()
        classes = res.raster_classes()
        for i, z in enumerate(points.tolist()):
            rec = res.record(i)
            scalar = classify2(z, problem) if k is None else classify(z, k, problem)
            assert rec == scalar, (z, k)
            ref = _reference(z, k, problem)
            if ref is None:
                assert res.codes[i] == -1 and ("S/" in rec.branch_note
                                               or "exceptional" in rec.branch_note), (z, k)
            else:
                assert rec.branch_note == ref, (z, k)
            assert notes[i] == rec.branch_note and classes[i] == rec.raster_class()
    return res


def _grid(re0, re1, nx, im0, im1, ny):
    points = np.empty((ny, nx), dtype=complex)
    points.real = np.linspace(re0, re1, nx)
    points.imag = np.linspace(im0, im1, ny)[:, None]
    return points.ravel()


def _near_special(problem):
    """Each point of S and Omega_0, and points 1e-10 and 1e-9 from it."""
    centres = list(singular_points(problem)) + [p.omega for p in omega0_set(problem)]
    out = []
    for c in centres:
        out.append(c)
        for d in (1e-10, 1e-9):
            out += [c + d * cmath.exp(1j * t) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    return out


def _ulps(x, n=4):
    """x and its n floating-point neighbours on each side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(n):
            y = np.nextafter(y, direction)
            out.append(float(y))
    return out


def _edges(k):
    """The M+ endpoint +-sqrt(k^2/2) of the constant-2 side, and its floating-point neighbours."""
    e = math.sqrt(k * k / 2.0)
    return _ulps(e, 1) + _ulps(-e, 1)


def _ray_corner(k):
    """Points whose W_+ = 2 omega^2 sits within ulps of both tolerances of the ray
    test (Re W = k^2 - ray_real_tol, |Im W| = ray_imag_tol): there the decision
    turns on the last bit of the complex product."""
    x0 = math.sqrt((k * k - TOL.ray_real_tol) / 2.0) if k else math.sqrt(TOL.ray_real_tol / 2.0)
    y0 = TOL.ray_imag_tol / (4.0 * x0)
    return [complex(sx * x, sy * y) for x in _ulps(x0) for y in _ulps(y0)
            for sx in (1, -1) for sy in (1, -1)]


ODD = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
       complex(-math.inf, 1.0), complex(1.0, math.inf), complex(math.inf, -math.inf),
       1e200, -1e200j, complex(1e200, 1e200), complex(1.5e308, 1.5e308), 0.0, -0.0j]


def _points(problem, k):
    pts = list(_grid(-4.0, 4.0, 33, -2.4, 0.8, 17))
    pts += _near_special(problem) + ODD
    pts += [complex(x, 0.0) for x in np.linspace(-3.0, 3.0, 61)]     # real axis
    pts += [complex(0.0, y) for y in np.linspace(-3.0, 1.0, 41)]     # imaginary axis
    if k:
        pts += _edges(k) + [complex(x, 0.0) for x in np.linspace(-1.2, 1.2, 9) * k]
        pts += [m.omega for m in eigen_omegas(k, problem)]            # the plasmon set N
    pts += _ray_corner(k or 0.0)
    return pts


@pytest.mark.parametrize("name", sorted(MEDIA))
@pytest.mark.parametrize("k", KS + [None])
def test_matches_reference(name, k):
    res = _assert_matches(_points(MEDIA[name], k), k, MEDIA[name])
    assert res.dim == (2 if k is None else 1)


def test_points_cross_every_branch_kind():
    """The comparisons above meet each kind of branch, not only the resolvent set."""
    kinds = set()
    for name, problem in MEDIA.items():
        for k in KS + [None]:
            notes = classify_array(_points(problem, k), k, problem).branch_notes()
            kinds |= {note.split("@")[0].split(";")[0] for note in notes}
    assert {"reduced/M+", "reduced/M-", "reduced/M+-", "reduced/N", "reduced/resolvent",
            "2D-reduced/M+", "2D-reduced/M-", "2D-reduced/M-&N", "2D-reduced/resolvent",
            "S/minus-pole", "2D-S/minus-pole", "exceptional/pt-infinite",
            "exceptional-k0/pt-infinite", "2D-exceptional/pt-infinite"} <= kinds


def test_callable_model_matches():
    c = 2 * math.pi * 0.64
    black_box = DielectricModel.from_callable(lambda w: 1 - c / (w * w + 1j * w), poles=(0, -1j))
    problem = InterfaceProblem(DielectricModel.constant(2.0), black_box)
    pts = list(_grid(-3.0, 3.0, 13, -1.5, 0.5, 9)) + ODD + [0j, -1j, 1e-10 - 1j]
    pts += [p.omega for p in omega0_set(MEDIA["drude"])]   # the same medium, in closed form
    for k in KS + [None]:
        res = _assert_matches(pts, k, problem)
        assert (res.codes == -1).all()       # black-box points are decided one at a time


def test_empty_and_shape():
    res = classify_array(np.empty(0, dtype=complex), 3.0, MEDIA["drude"])
    assert res.codes.shape == (0,) and res.branch_notes() == []
    grid = _grid(-1.0, 1.0, 5, -1.0, 1.0, 3).reshape(3, 5)
    flat = classify_array(grid, 3.0, MEDIA["drude"])
    assert flat.codes.shape == (15,)
    assert flat.branch_notes() == classify_array(grid.ravel(), 3.0, MEDIA["drude"]).branch_notes()


@pytest.mark.parametrize("tol", [TOL, Tolerances(ray_imag_tol=0.0, ray_real_tol=0.0),
                                 Tolerances(ray_imag_tol=0.5, ray_real_tol=2.0)])
def test_2d_rays_are_the_open_positive_ray(tol):
    """The 2D M bits of _reduced_codes are the open ray (0, inf) of in_open_positive_ray,
    for scalars and arrays, at the tolerance edges, signed zeros, infinities and NaN."""
    rt, it = tol.ray_real_tol, tol.ray_imag_tol
    edges = lambda t: [t, -t, np.nextafter(t, math.inf), np.nextafter(t, -math.inf)]
    re = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan] + edges(rt) + edges(-rt)
    im = [0.0, -0.0, math.inf, -math.inf, math.nan] + edges(it) + edges(-it)
    re_g, im_g = np.meshgrid(re, im)
    rng = np.random.default_rng(7)
    w_p = np.concatenate([complex_array(re_g.ravel(), im_g.ravel()),
                          complex_array(rng.normal(0, 3 * rt + 1e-9, 200),
                                        rng.normal(0, 3 * it + 1e-9, 200))])
    w_m = w_p[::-1].copy()
    wt = np.ones_like(w_p)
    with np.errstate(all="ignore"):   # the N witness meets the infinities and NaNs
        codes = _reduced_codes(wt, wt, w_p, w_m, None, tol)
    old = M_PLUS * in_open_positive_ray(w_p, tol) + M_MINUS * in_open_positive_ray(w_m, tol)
    assert ((codes & (M_PLUS | M_MINUS)) == old).all()
    for a, b, want in zip(w_p.tolist(), w_m.tolist(), old.tolist()):
        got = _reduced_codes(1 + 0j, 1 + 0j, a, b, None, tol) & (M_PLUS | M_MINUS)
        assert got == want, (a, b)


@pytest.mark.parametrize("name", ["drude", "lorentz"])
def test_one_k_per_point_is_each_points_own_call(name):
    """classify_array with an array of one k per point gives point i the record, and
    the code, of classify_array(z[i:i+1], k_i), and classify's record at k_i: at
    the roots of a short eigen_sweep (at their own k), at each point of S and
    Omega_0 and +-ray_imag_tol / 2 beside it (the points decided one at a time),
    and on a grid, at k drawn from KS."""
    problem = MEDIA[name]
    sweep = [0.5, 1.0, 3.0, 7.0]
    pts, ks = [], []
    for k, found in zip(sweep, eigen_sweep(sweep, problem)):
        pts += [m.omega for m in found]
        ks += [k] * len(found)
    d = 0.5 * TOL.ray_imag_tol
    centres = list(singular_points(problem)) + [p.omega for p in omega0_set(problem)]
    others = [c + s for c in centres for s in (0.0, d, -d, 1j * d, -1j * d)]
    others += list(_grid(-4.0, 4.0, 17, -2.4, 0.8, 9))
    pts += others
    ks += np.random.default_rng(5).choice(KS, size=len(others)).tolist()
    z = np.array(pts, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a RuntimeWarning fails the test
        res = classify_array(z, np.array(ks), problem)
        for i, (zi, k) in enumerate(zip(z.tolist(), ks)):
            one = classify_array(z[i:i + 1], k, problem)
            assert (res.codes[i], res.record(i)) == (one.codes[0], one.record(0)), (zi, k)
            assert res.record(i) == classify(zi, k, problem), (zi, k)
    assert (res.codes[:len(pts) - len(others)] == IN_N).all()
    assert (res.codes == -1).sum() >= 5 * len(omega0_set(problem))
    assert {k for k, c in zip(ks, res.codes.tolist()) if c == -1} >= {0.0, 3.0}
