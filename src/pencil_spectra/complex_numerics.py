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


def principal_sqrt(z: complex) -> complex:
    """Unique a with a^2 == z and arg(a) in (-pi/2, pi/2]; principal_sqrt(-1) == 1j."""
    a = cmath.sqrt(complex(z))
    # cmath.sqrt lands in [-pi/2, pi/2]; arg == -pi/2 occurs only on the cut
    # approached from below (negative real z with -0.0 imaginary part).
    if a.real < 0.0 or (a.real == 0.0 and a.imag < 0.0):
        a = -a
    return a


def in_ray(z: complex, a: float, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of z in the closed ray [a, inf) on the real axis, with slack."""
    z = complex(z)
    return abs(z.imag) <= tol.ray_imag_tol and z.real >= a - tol.ray_real_tol


def in_open_positive_ray(z: complex, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Membership of z in the open ray (0, inf); the endpoint is excluded."""
    z = complex(z)
    return abs(z.imag) <= tol.ray_imag_tol and z.real > tol.ray_real_tol


def polyval(coeffs, z: complex) -> complex:
    """Horner evaluation of descending coefficients at a complex scalar."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def poly_eval_scale(coeffs, z: complex) -> float:
    """Natural magnitude of the evaluation sum_i |c_i| |z|^(n-i); floors residual tests."""
    az = abs(z)
    acc = 0.0
    for c in coeffs:
        acc = acc * az + abs(c)
    return max(acc, 1e-300)


def _trim_leading(coeffs):
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def _deflate(coeffs, root):
    """Synthetic division by (z - root); drops the remainder."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * root + c)
    return out


def poly_roots(coeffs, tol: Tolerances = DEFAULT_TOL):
    """All complex roots of a polynomial, with multiplicities.

    coeffs are descending-power complex coefficients. Roots come from the
    companion matrix (np.roots), Newton-polished, then clustered into
    multiplicity groups. Returns [(root, multiplicity), ...] sorted by
    (Re, Im); the multiplicities sum to the degree.

    Raises DegenerateInputError for the zero polynomial or degree 0.
    """
    cs = [complex(c) for c in coeffs]
    cs = _trim_leading(cs)
    if not cs:
        raise DegenerateInputError("zero polynomial has no well-defined roots")
    if len(cs) == 1:
        raise DegenerateInputError("constant polynomial (degree 0) has no roots")
    deg = len(cs) - 1

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

    # Cluster roots that coincide up to the multiple-root noise floor.
    polished.sort(key=lambda w: (w.real, w.imag))
    clusters: list[list[complex]] = []
    for z in polished:
        for cl in clusters:
            c = sum(cl) / len(cl)
            if abs(z - c) <= 1e-5 * (1.0 + abs(c)):
                cl.append(z)
                break
        else:
            clusters.append([z])

    out = []
    for cl in clusters:
        m = len(cl)
        z = sum(cl) / m
        if m > 1:
            # multiplicity-aware Newton sharpens the cluster centre
            for _ in range(5):
                p = polyval(cs, z)
                dp = polyval(der, z)
                if dp == 0:
                    break
                z = z - m * p / dp
        out.append((z, m))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out
