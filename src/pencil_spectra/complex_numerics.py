"""Complex-plane primitives shared by all modules.

The square-root branch is arg(sqrt(z)) in (-pi/2, pi/2]: the cut sits on the
negative real axis and the upper value is taken there, so sqrt(-1) == 1j.
Every branch condition in the classification (the decay rates mu_pm and the
ray tests they induce) hinges on this convention.

All functions here are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
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
        if not raw.strip():
            return cls()
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

    Elementwise on numpy arrays, with the scalar result at every element.
    """
    if isinstance(z, np.ndarray):
        return _principal_sqrt_array(z)
    a = cmath.sqrt(complex(z))
    # cmath.sqrt lands in [-pi/2, pi/2]; arg == -pi/2 occurs only on the cut
    # approached from below (negative real z with -0.0 imaginary part).
    if a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0):
        a = -a
    return a


def in_ray(z, a, tol: Tolerances = DEFAULT_TOL):
    """Membership of z in the closed ray [a, inf) on the real axis, with slack.

    Elementwise (a numpy bool) when z is an array; a may be an array too.
    """
    if not isinstance(z, np.ndarray):
        z = complex(z)
    return (abs(z.imag) <= tol.ray_imag_tol) & (z.real >= a - tol.ray_real_tol)


def in_open_positive_ray(z, tol: Tolerances = DEFAULT_TOL):
    """Membership of z in the open ray (0, inf); the endpoint is excluded. Elementwise on arrays."""
    if not isinstance(z, np.ndarray):
        z = complex(z)
    return (abs(z.imag) <= tol.ray_imag_tol) & (z.real > tol.ray_real_tol)


def polyval(coeffs, z: complex) -> complex:
    """Horner evaluation of descending coefficients at a complex scalar."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


# -- complex arithmetic on numpy arrays, rounded as CPython rounds it ----------
#
# numpy's complex product, quotient, modulus and square root round
# differently from CPython's (fused or reordered products, a reciprocal in the
# quotient, other hypot and sqrt algorithms). The functions below rebuild
# CPython's formulas from real-array operations, so an array kernel decides
# every point bit-for-bit as scalar code does. Given Python scalars they use
# CPython's own arithmetic. Array callers wrap them in np.errstate: infinities
# and NaNs propagate, nothing raises.

def _scalars(*xs) -> bool:
    return not any(isinstance(x, np.ndarray) for x in xs)


def complex_array(re, im) -> np.ndarray:
    """re + i*im (same-shape real arrays) by assignment, so infinities and
    signed zeros pass unchanged."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def cmul(a, b):
    """a*b, elementwise on arrays."""
    if _scalars(a, b):
        return a * b
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return complex_array(a.real * b.real - a.imag * b.imag,
                         a.real * b.imag + a.imag * b.real)


def cdiv(a, b):
    """a/b (Smith's method), elementwise on arrays; NaN where b == 0."""
    if _scalars(a, b):
        return a / b if b != 0 else complex(math.nan, math.nan)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    wide = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(wide, b.imag / b.real, b.real / b.imag)
    denom = np.where(wide, b.real + b.imag * ratio, b.real * ratio + b.imag)
    re = np.where(wide, a.real + a.imag * ratio, a.real * ratio + a.imag)
    im = np.where(wide, a.imag - a.real * ratio, a.imag * ratio - a.real)
    return complex_array(re / denom, im / denom)


def cabs(z):
    """|z| (libm hypot), elementwise on arrays; inf where CPython raises OverflowError."""
    if _scalars(z):
        try:
            return abs(z)
        except OverflowError:   # both parts finite, the modulus beyond the float range
            return math.inf
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


def _principal_sqrt_array(z: np.ndarray) -> np.ndarray:
    """cmath.sqrt's algorithm on arrays, then principal_sqrt's branch flip."""
    z = np.asarray(z, dtype=complex)
    ax, ay = np.abs(z.real), np.abs(z.imag)
    s = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    if tiny.any():   # cmath rescales where hypot(ax, ay) could be subnormal
        up = np.ldexp(ax[tiny], 53)
        s[tiny] = np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay[tiny], 53))), -27)
    d = ay / (2.0 * s)
    lower = z.real < 0.0
    a = complex_array(np.where(lower, d, s), np.copysign(np.where(lower, s, d), z.imag))
    # zeros and cmath's table of infinite and NaN cases, taken from cmath
    special = ~(np.isfinite(z.real) & np.isfinite(z.imag)) | ((z.real == 0.0) & (z.imag == 0.0))
    if special.any():
        a[special] = [cmath.sqrt(v) for v in z[special].tolist()]
    return np.where((a.real < 0.0) | ((a.real == 0.0) & (a.imag < 0.0)), -a, a)


def polyval_array(coeffs, z: np.ndarray) -> np.ndarray:
    """polyval at every element: the same Horner steps, rounded as CPython rounds them."""
    acc = np.zeros(z.shape, dtype=complex)
    for c in coeffs:
        acc = cmul(acc, z) + c
    return acc


def poly_eval_scale(coeffs, z: complex) -> float:
    """Natural magnitude of the evaluation sum_i |c_i| |z|^(n-i); floors residual tests."""
    az = abs(z)
    acc = 0.0
    for c in coeffs:
        acc = acc * az + abs(c)
    return max(acc, 1e-300)


def trim_leading(coeffs) -> tuple:
    """Descending coefficients as a tuple of Python complex, leading zeros removed."""
    cs = tuple(complex(c) for c in coeffs)
    i = 0
    while i < len(cs) and cs[i] == 0:
        i += 1
    return cs[i:]


def poly_roots(coeffs, tol: Tolerances = DEFAULT_TOL):
    """All complex roots of a polynomial, with multiplicities.

    coeffs are descending-power complex coefficients. Roots come from the
    companion matrix (np.roots), Newton-polished, then clustered into
    multiplicity groups. Returns [(root, multiplicity), ...] sorted by
    (Re, Im); the multiplicities sum to the degree.

    Raises DegenerateInputError for the zero polynomial or degree 0.
    """
    cs = trim_leading(coeffs)
    if not cs:
        raise DegenerateInputError("zero polynomial has no well-defined roots")
    if len(cs) == 1:
        raise DegenerateInputError("constant polynomial (degree 0) has no roots")

    arr = np.asarray(cs, dtype=complex)
    raw = np.roots(arr)
    der = np.polyder(arr)

    polished = []
    for z in raw:
        z = complex(z)
        for _ in range(20):
            p = polyval(cs, z)
            if abs(p) <= 1e-3 * tol.root_residual_tol * poly_eval_scale(cs, z):
                break
            dp = polyval(der, z)
            if dp == 0:
                break
            step = p / dp
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            z = z - step
            if abs(step) <= 1e-16 * (1.0 + abs(z)):
                break
        polished.append(z)

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
