"""Complex-plane primitives shared by all modules.

The square-root branch is arg(sqrt(z)) in (-pi/2, pi/2]: the cut sits on the
negative real axis and the upper value is taken there, so sqrt(-1) == 1j.
Every branch condition in the classification (the decay rates mu_pm and the
ray tests they induce) hinges on this convention.

Each evaluator takes a Python scalar, computed in CPython's complex arithmetic,
or a numpy array, computed by numpy's operators. The two can differ in the last
bits, so no decision may depend on one agreeing with the other; classify1d
makes every set decision on arrays.

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
    root_residual_tol relative residual accepted for polynomial roots
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
        """Defaults, overridden by PENCIL_SPECTRA_TOL='name=value,name=value'."""
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
    coefficient that is not finite or a companion matrix that overflows.
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

    Roots come from companion matrices, built as np.roots builds them: the
    members are grouped by trimmed length and number of trailing zero
    coefficients (the exact root 0), and each group's matrices go through one
    stacked eigvals call. One masked Newton loop polishes every root of the
    family (_newton_polish), and each member's roots are then clustered into
    multiplicity groups on their own (_clusters). A member's roots are bitwise
    those it has when solved alone, as Python complex numbers.
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
            groups.setdefault((len(cs), zeros), []).append((i, cs))
    for (n, zeros), members in groups.items():
        c = np.array([cs for _, cs in members])
        d = n - zeros - 1   # the companion order; the zero roots are appended
        with np.errstate(all="ignore"):
            row = -c[:, 1:d + 1] / c[:, :1]
            der = c[:, :-1] * np.arange(n - 1, 0, -1)   # np.polyder's product
        finite = np.isfinite(row).all(axis=1)   # else a member error: the companion overflows
        raw = np.zeros((len(members), n - 1), dtype=complex)
        if d:
            companion = np.zeros((len(members), d, d), dtype=complex)
            companion[:, 0, :] = np.where(finite[:, None], row, 0.0)   # eigvals takes no inf
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            raw[:, :d] = np.linalg.eigvals(companion)
        z = _newton_polish(c, der, raw, tol)
        for (i, cs), zs, dr, ok in zip(members, z.tolist(), der, finite):
            out[i] = (_clusters(cs, dr, zs) if ok
                      else DegenerateInputError("the companion matrix overflows"))
    return out


def _newton_polish(c, der, raw, tol: Tolerances):
    """Newton steps on every root of raw (a row of roots per coefficient row of c,
    der their derivatives) at once: each root stops at its first small residual,
    zero or non-finite step, small step, or after 20 steps. Returns the roots,
    shaped as raw."""
    z = raw.ravel()
    owner = np.repeat(np.arange(raw.shape[0]), raw.shape[1])
    bound = 1e-3 * tol.root_residual_tol
    live = np.arange(z.size)
    with np.errstate(all="ignore"):
        for _ in range(20):
            rows, zl = owner[live], z[live]
            p = polyval(c[rows].T, zl)
            go = ~(cabs(p) <= bound * poly_eval_scale(c[rows].T, zl))
            live, rows, zl, p = live[go], rows[go], zl[go], p[go]
            step = p / polyval(der[rows].T, zl)   # not finite where p' == 0
            go = np.isfinite(step.real) & np.isfinite(step.imag)
            live, zl, step = live[go], zl[go] - step[go], step[go]
            z[live] = zl
            live = live[~(cabs(step) <= 1e-16 * (1.0 + cabs(zl)))]
            if not live.size:
                break
    return z.reshape(raw.shape)


def _clusters(cs: tuple, der, polished: list) -> list:
    """One member's polished roots as [(root, multiplicity), ...], sorted by (Re, Im)."""
    # The exact root 0 of trailing zero coefficients stays apart. The other
    # roots cluster up to the multiple-root noise floor, within a radius
    # relative to the root scale s (Fujiwara: all roots lie within 2 s of 0).
    zeros = polished.count(0)
    s = max((abs(c) / abs(cs[0])) ** (1.0 / i) for i, c in enumerate(cs) if i)

    def radius(c):
        return 1e-5 * min(1.0 + abs(c), s + abs(c))

    polished.sort(key=lambda w: (w.real, w.imag))
    clusters: list[list[complex]] = []
    for z in polished:
        if z == 0:
            continue
        for cl in clusters:
            c = sum(cl) / len(cl)
            if abs(z - c) <= radius(c):
                cl.append(z)
                break
        else:
            clusters.append([z])

    out = [(0j, zeros)] if zeros else []
    for cl in clusters:
        m = len(cl)
        z = sum(cl) / m
        if m > 1:
            # multiplicity-aware Newton sharpens the cluster centre; it stops
            # before a step longer than the radius, where p' is only noise
            for _ in range(5):
                p = polyval(cs, z)
                dp = polyval(der, z)
                if not m * abs(p) < radius(z) * abs(dp):
                    break
                z = z - m * p / dp
        out.append((z, m))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out
