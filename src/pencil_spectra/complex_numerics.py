"""Complex-plane primitives shared by all modules.

The square-root branch is arg(sqrt(z)) in (-pi/2, pi/2]: the cut sits on the
negative real axis and the upper value is taken there, so sqrt(-1) == 1j.
Every branch condition in the classification (the decay rates mu_pm and the
ray tests they induce) hinges on this convention.

Each evaluator takes a Python scalar, computed in CPython's complex arithmetic,
or a numpy array, computed by numpy's operators. The two can differ in the last
bits, so no decision may depend on one agreeing with the other; classify1d
makes every set decision on arrays.

Polynomial roots come from one Aberth-Ehrlich iteration (poly_roots_family),
started from the tropical roots and evaluated through the reversed polynomial
beyond the unit circle, so roots some 100 orders of magnitude apart come out
together; roots that agree within root_residual_tol are one multiple root.

bump, the C-infinity cutoff exp(1/(y^2-1)) of unit norm on [-1, 1], is the profile
shared by the resolvent's right-hand sides and the Weyl members.

All functions here are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateInputError

TOL_ENV_VAR = "PENCIL_SPECTRA_TOL"


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack used to turn exact spectral sets into decidable tests.

    ray_imag_tol      max |Im z| for z to count as real (ray membership)
    ray_real_tol      slack at a ray's left endpoint
    root_residual_tol relative residual accepted for polynomial roots; it also
                      sizes the discs that decide their multiplicities
    equality_tol      relative tolerance for zero/equality tests on W, W-tilde

    Ray tolerances are absolute on purpose: the rays start at k^2, a
    user-scale quantity.
    """

    ray_imag_tol: float = 1e-10
    ray_real_tol: float = 1e-10
    root_residual_tol: float = 1e-10
    equality_tol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValueError(f"tolerance {f.name} must be finite and >= 0, got {v!r}")

    @classmethod
    def from_env(cls, environ=None) -> "Tolerances":
        """Defaults, overridden by PENCIL_SPECTRA_TOL='name=value,name=value', each name once."""
        raw = (environ if environ is not None else os.environ).get(TOL_ENV_VAR, "")
        known = {f.name for f in fields(cls)}
        overrides = {}
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"{TOL_ENV_VAR}: expected name=value, got {item!r}")
            name, _, val = item.partition("=")
            name = name.strip()
            if name not in known:
                raise ValueError(f"{TOL_ENV_VAR}: unknown tolerance {name!r}")
            if name in overrides:
                raise ValueError(f"{TOL_ENV_VAR}: tolerance {name!r} given twice")
            try:
                overrides[name] = float(val)
            except ValueError as exc:
                raise ValueError(f"{TOL_ENV_VAR}: bad value for {name!r}: {val!r}") from exc
        return cls(**overrides)


DEFAULT_TOL = Tolerances()


def principal_sqrt(z):
    """Unique a with a^2 == z and arg(a) in (-pi/2, pi/2]; principal_sqrt(-1) == 1j.

    Elementwise (np.sqrt) on numpy arrays.
    """
    array = isinstance(z, np.ndarray)
    a = np.sqrt(z) if array else cmath.sqrt(complex(z))
    # both land in [-pi/2, pi/2]; arg == -pi/2 occurs only on the cut
    # approached from below (negative real z with -0.0 imaginary part).
    flip = (a.real < 0.0) | ((a.real == 0.0) & (a.imag < 0.0))
    return np.where(flip, -a, a) if array else (-a if flip else a)


def in_ray(z, a, tol: Tolerances = DEFAULT_TOL):
    """Membership of z in the closed ray [a, inf) on the real axis, with slack.

    Elementwise (a numpy bool) when z is an array; a may be an array too.
    """
    return (abs(z.imag) <= tol.ray_imag_tol) & (z.real >= a - tol.ray_real_tol)


def in_open_positive_ray(z, tol: Tolerances = DEFAULT_TOL):
    """Membership of z in the open ray (0, inf); the endpoint is excluded. Elementwise on arrays."""
    return (abs(z.imag) <= tol.ray_imag_tol) & (z.real > tol.ray_real_tol)


def cabs(z):
    """|z| (libm hypot), elementwise on arrays; inf where CPython raises OverflowError."""
    if not isinstance(z, np.ndarray):
        try:
            return abs(z)
        except OverflowError:   # both parts finite, the modulus beyond the float range
            return math.inf
    return np.hypot(z.real, z.imag)


def polyval(coeffs, z):
    """Horner evaluation of descending coefficients at a complex scalar or,
    elementwise, a numpy array; a coefficient may be an array."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def poly_eval_scale(coeffs, z):
    """Natural magnitude of the evaluation sum_i |c_i| |z|^(n-i); floors residual
    tests. Elementwise on arrays (z or the coefficients)."""
    az = cabs(z)
    acc = 0.0
    for c in coeffs:
        acc = acc * az + cabs(c)
    return np.maximum(acc, 1e-300)


def trim_leading(coeffs) -> tuple:
    """Descending coefficients as a tuple of Python complex, leading zeros removed."""
    cs = tuple(complex(c) for c in coeffs)
    i = 0
    while i < len(cs) and cs[i] == 0:
        i += 1
    return cs[i:]


def poly_roots(coeffs, tol: Tolerances = DEFAULT_TOL):
    """All complex roots of a polynomial, with multiplicities: poly_roots_family
    of one member.

    coeffs are descending-power complex coefficients. Returns [(root,
    multiplicity), ...] sorted by (Re, Im); the multiplicities sum to the degree.

    Raises DegenerateInputError for the zero polynomial, degree 0, a
    coefficient that is not finite or a root beyond the float range.
    """
    (roots,) = poly_roots_family([coeffs], tol)
    if isinstance(roots, DegenerateInputError):
        raise roots
    return roots


def poly_roots_family(polys, tol: Tolerances = DEFAULT_TOL) -> list:
    """poly_roots of every member of a family of polynomials, in array passes.

    polys is a sequence of descending-power coefficient sequences (or a 2D
    array, one member per row). Returns one entry per member: its [(root,
    multiplicity), ...], or the DegenerateInputError it raises alone.

    The members are grouped by trimmed length and number of trailing zero
    coefficients, which give the exact root 0. The other roots of a group come
    from one masked Aberth-Ehrlich iteration over a (members, degree) array
    (_aberth), and _multiplicities groups them. Each member's update reads only
    its own roots, so its roots are bitwise those it has when solved alone.
    """
    out: list = [None] * len(polys)
    groups: dict = {}   # (trimmed length, trailing zeros) -> [(member, coefficients)]
    for i, coeffs in enumerate(polys):
        cs = trim_leading(coeffs)
        if not cs:
            out[i] = DegenerateInputError("zero polynomial has no well-defined roots")
        elif len(cs) == 1:
            out[i] = DegenerateInputError("constant polynomial (degree 0) has no roots")
        elif not all(cmath.isfinite(c) for c in cs):
            out[i] = DegenerateInputError("polynomial has a coefficient that is not finite")
        else:
            zeros = next(j for j, c in enumerate(reversed(cs)) if c != 0)
            groups.setdefault((len(cs), zeros), []).append((i, cs[:len(cs) - zeros]))
    for (_, zeros), members in groups.items():
        a = np.array([cs for _, cs in members], dtype=complex)
        ok, found = np.ones(len(a), dtype=bool), [[] for _ in members]
        if a.shape[1] > 1:   # else every root is the exact 0
            with np.errstate(all="ignore"):
                z, ok = _aberth(a)
                found = _multiplicities(a, z, tol)
        for (i, _), roots, fine in zip(members, found, ok.tolist()):
            if zeros:
                roots = sorted(roots + [(0j, zeros)], key=lambda t: (t[0].real, t[0].imag))
            out[i] = roots if fine else DegenerateInputError(
                "polynomial has a root beyond the float range")
    return out


def _horner(a, z):
    """(p/p', p, s, big) at the roots z, a row of them per row of descending
    coefficients a; s = sum_j |a_j| |x|^(d-j) bounds the rounding of p. Where
    |z| > 1 (big), p and s are those of the reversed polynomial at x = 1/z, so
    that nothing overflows; p/p' is that of p at z either way."""
    d = a.shape[1] - 1
    big = np.abs(z) > 1.0
    x = np.where(big, 1.0 / z, z)
    ax = np.abs(x)
    cs = np.where(big[..., None], a[:, None, ::-1], a[:, None, :])
    acs = np.abs(cs)
    p, dp, s = cs[..., 0], 0j, acs[..., 0]
    for j in range(1, d + 1):
        dp = dp * x + p
        p = p * x + cs[..., j]
        s = s * ax + acs[..., j]
    # z^d rev(1/z) = p(z) gives p/p' = rev / (x (d rev - x rev'))
    return np.where(big, p / (d * p - x * dp) / x, p / dp), p, s, big


def _aberth(a):
    """The roots of each row of descending coefficients a (the first and last
    nonzero), a row of them per row, and whether the row's are all finite.

    They start on circles whose radii are the tropical roots (the slopes of the
    upper convex hull of (j, log|a_j|)), at angles 2 pi t / d + 0.7, so that no
    start set is symmetric about the real axis. Each root takes Aberth-Ehrlich
    steps N / (1 - N sum_j 1/(z - z_j)), N = p/p', over its own row's roots;
    the last starts where |p(z)| is within the rounding bound of its Horner
    evaluation (at most 100 steps).
    """
    m, n = a.shape
    d, j = n - 1, np.arange(n)
    lg = np.log(np.abs(a))
    lg[~np.isfinite(lg)] = -1e6   # a zero coefficient lies below the hull
    hull = np.empty((m, n))
    for k in range(n):   # the hull at k: the best chord from some lo <= k to some hi >= k
        lo, hi = j[:k + 1, None], j[None, k:]
        chord = (((hi - k) * lg[:, :k + 1, None] + (k - lo) * lg[:, None, k:])
                 / np.maximum(hi - lo, 1))
        hull[:, k] = np.where(hi > lo, chord, -np.inf).max(axis=(1, 2))
    z = np.exp(np.diff(hull, axis=1)) * np.exp(1j * (2.0 * np.pi * j[:d] / d + 0.7))
    ok = np.isfinite(z).all(axis=1)
    z[~ok] = 0.0
    live = np.repeat(ok[:, None], d, axis=1)
    bound = 4.0 * d * np.finfo(float).eps
    for _ in range(100):
        rows = np.flatnonzero(live.any(axis=1))
        if not rows.size:
            break
        zr = z[rows]
        newton, p, s, _ = _horner(a[rows], zr)
        diff = zr[:, :, None] - zr[:, None, :]
        diff[:, j[:d], j[:d]] = np.inf   # no self-repulsion
        inv = 1.0 / diff
        step = newton / (1.0 - newton * sum(inv[:, :, i] for i in range(d)))
        move = live[rows] & np.isfinite(step.real) & np.isfinite(step.imag)
        z[rows] = np.where(move, zr - step, zr)
        live[rows] &= ~(np.abs(p) <= bound * s)
    return z, ok & np.isfinite(z).all(axis=1)


def _pseudozero(a, z, tol: Tolerances):
    """Whether z is a root of a polynomial whose coefficients differ from its row
    of a by at most root_residual_tol relative: |p(z)| <= root_residual_tol s."""
    _, p, s, _ = _horner(a, z)
    return np.abs(p) <= tol.root_residual_tol * s


def _multiplicities(a, z, tol: Tolerances) -> list:
    """Each row's roots z as [(root, multiplicity), ...] sorted by (Re, Im).

    Roots i and j are one where their inclusion discs, of radius
    d (|p(z_i)| + root_residual_tol s_i) / |a_0 prod_j (z_i - z_j)| (Bini &
    Fiorentino), overlap and their midpoint is a _pseudozero. The midpoint test
    splits the discs that a tight cluster swells: a triple root's reach 13
    times the distance to a simple root 1 away. A connected component is one
    root, at _centre, with its size as the multiplicity. On a row of real
    coefficients a root whose real part is a _pseudozero is real.
    """
    d = z.shape[1]
    _, p, s, big = _horner(a, z)
    dist = np.abs(z[:, :, None] - z[:, None, :])
    logs = np.log(dist, out=np.zeros_like(dist), where=dist > 0)
    r = np.exp(math.log(d) + np.log(np.abs(p) + tol.root_residual_tol * s)
               - np.log(np.abs(a[:, :1])) + np.where(big, d * np.log(np.abs(z)), 0.0)
               - sum(logs[:, :, j] for j in range(d)))
    near = (dist <= r[:, :, None] + r[:, None, :]) | (dist == 0)
    i, j, k = np.nonzero(near & (dist > 0))   # distinct roots whose discs overlap: rare
    near[i, j, k] = _pseudozero(a[i], (z[i, j] + z[i, k])[:, None] / 2.0, tol)[:, 0]
    for _ in range(d.bit_length()):   # the transitive closure: connected components
        near = near @ near
    label, size = near.argmax(axis=2), near.sum(axis=2)
    first = label == np.arange(d)
    for i, k in zip(*np.nonzero(first & (size > 1))):
        z[i, k] = _centre(a[i], z[i, label[i] == k])
    i, k = np.nonzero((a.imag == 0.0).all(axis=1)[:, None] & (z.imag != 0.0))
    x = z[i, k].real + 0j
    z[i, k] = np.where(_pseudozero(a[i], x[:, None], tol)[:, 0], x, z[i, k])
    order = np.lexsort((z.imag, z.real))
    rows = (np.take_along_axis(v, order, axis=1).tolist() for v in (z, size, first))
    return [[(c, m) for c, m, f in zip(*row) if f] for row in zip(*rows)]


def _centre(a, zs):
    """The m-fold root of the polynomial a that its m clustered roots zs stand
    for: Newton's method on p^(m-1), which has a simple root there, from their
    mean (on the reversed polynomial where |mean| > 1). A step that leaves the
    cluster's spread about the mean is not taken."""
    mean = zs.mean()
    flip = abs(mean) > 1.0
    q = np.polyder(a[::-1] if flip else a, len(zs) - 1)
    x = 1.0 / mean if flip else mean
    for _ in range(3):
        x_new = x - np.polyval(q, x) / np.polyval(np.polyder(q), x)
        if not abs((1.0 / x_new if flip else x_new) - mean) <= np.abs(zs - mean).max():
            break
        x = x_new
    return 1.0 / x if flip else x


_GL_N = 400   # Gauss-Legendre nodes on [-1, 1] for the bump's integrals


def _bump_raw(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(1.0 / (yi * yi - 1.0))
    return out


def _bump_constants():
    """(c, ||phi'||, ||phi''||, ||phi'''||) for phi = c*exp(1/(y^2-1)) with ||phi|| = 1.

    The values of the _GL_N-point Gauss-Legendre rule, stored so that no
    process pays for leggauss; tests/test_modes.py recomputes them bitwise.
    """
    return 2.7411551457069354, 1.7543115832803977, 9.022635232749735, 155.1337440410206


def bump(y):
    """The unit-norm cutoff profile on [-1, 1]."""
    return _bump_constants()[0] * _bump_raw(y)
