import cmath
import math

import numpy as np
import pytest

from pencil_spectra.complex_numerics import (
    Tolerances,
    cabs,
    cdiv,
    cmul,
    complex_array,
    in_open_positive_ray,
    in_ray,
    poly_roots,
    polyval,
    polyval_array,
    principal_sqrt,
)
from pencil_spectra.errors import DegenerateInputError


def test_sqrt_examples():
    assert principal_sqrt(4.0) == 2.0
    assert principal_sqrt(-1.0) == 1j
    a = principal_sqrt(2j)
    assert abs(a - (1 + 1j)) < 1e-15
    assert abs(a * a - 2j) < 1e-15
    assert abs(cmath.phase(a) - math.pi / 4) < 1e-15


def test_sqrt_branch_cut_upper_value():
    # on the cut the upper value is taken, for both signs of the zero imag part
    for z in (-4.0, complex(-4.0, 0.0), complex(-4.0, -0.0)):
        assert principal_sqrt(z) == 2j
    assert principal_sqrt(0.0) == 0.0


def test_sqrt_roundtrip_million():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(10**6) * 10.0 + 1j * rng.standard_normal(10**6) * 10.0
    a = np.sqrt(z)
    flip = (a.real < 0) | ((a.real == 0) & (a.imag < 0))
    a = np.where(flip, -a, a)
    err = np.abs(a * a - z) / np.maximum(np.abs(z), 1e-300)
    assert float(err.max()) < 4 * np.finfo(float).eps
    # arg in (-pi/2, pi/2]
    assert np.all((a.real > 0) | ((a.real == 0) & (a.imag >= 0)))
    # vectorized rule agrees with the scalar function
    for zz, aa in zip(z[:500], a[:500]):
        assert principal_sqrt(complex(zz)) == complex(aa)


def test_sqrt_conjugation_off_cut():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        z = complex(rng.standard_normal(), rng.standard_normal())
        if z.imag == 0:
            continue
        a = principal_sqrt(z)
        if a.real > 0:
            assert abs(principal_sqrt(z.conjugate()) - a.conjugate()) < 1e-14 * abs(a)


def test_poly_roots_examples():
    roots = poly_roots([1, 0, -1])
    vals = sorted(z.real for z, _ in roots)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)

    roots4 = poly_roots([1, 0, 0, 0, -1])
    assert sum(m for _, m in roots4) == 4
    got = sorted(roots4, key=lambda t: (round(t[0].real, 8), round(t[0].imag, 8)))
    expect = [-1.0, -1j, 1j, 1.0]
    for (z, m), e in zip(got, expect):
        assert m == 1 and abs(z - e) < 1e-10


def test_poly_roots_biquadratic_oracle():
    # quartic z^4 - c2 z^2 + c0 from the lossless interface; oracle = quadratic
    # formula applied to z^2 by hand
    c2 = 2 * math.pi * 0.64 + 9 * 3 / 2
    c0 = 2 * math.pi * 0.64 * 9 / 2
    assert abs(c2 - 17.52124) < 5e-6 and abs(c0 - 18.09557) < 5e-6
    disc = math.sqrt(c2 * c2 - 4 * c0)
    expected = sorted([math.sqrt((c2 + disc) / 2), math.sqrt((c2 - disc) / 2)])
    roots = poly_roots([1, 0, -c2, 0, c0])
    pos = sorted(z.real for z, _ in roots if z.real > 0)
    assert np.allclose(pos, expected, rtol=1e-12)
    assert abs(pos[0] - 1.04980) < 5e-5 and abs(pos[1] - 4.0520) < 1e-4


def test_poly_roots_random_recovery():
    rng = np.random.default_rng(3)
    for _ in range(40):
        deg = rng.integers(1, 9)
        roots = []
        while len(roots) < deg:
            cand = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(cand - r) > 0.3 for r in roots):
                roots.append(cand)
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, [1.0, -r])
        found = poly_roots(list(coeffs))
        assert sum(m for _, m in found) == deg
        for r in roots:
            assert min(abs(r - z) for z, _ in found) < 1e-8 * max(1.0, abs(r))


def test_poly_roots_multiplicity():
    found = poly_roots([1, -2, 1])  # (z-1)^2
    assert len(found) == 1
    z, m = found[0]
    assert m == 2 and abs(z - 1.0) < 1e-6


def test_poly_roots_residual_postcondition():
    tol = Tolerances()
    coeffs = [1, 0, -17.521238596594934, 0, 18.09557368467721]
    for z, _ in poly_roots(coeffs, tol):
        scale = sum(abs(c) * max(1.0, abs(z)) ** (len(coeffs) - 1 - i)
                    for i, c in enumerate(coeffs))
        assert abs(polyval(coeffs, z)) <= tol.root_residual_tol * scale


def test_poly_roots_degenerate():
    with pytest.raises(DegenerateInputError):
        poly_roots([0, 0, 0])
    with pytest.raises(DegenerateInputError):
        poly_roots([3.0])


def test_in_ray_examples():
    assert in_ray(9.5, 9.0)
    assert not in_ray(9.5 + 0.1j, 9.0)
    assert in_ray(9.0 - 5e-11, 9.0)  # inside the default left-endpoint slack
    assert not in_ray(9.0 - 1e-9, 9.0)


def test_in_ray_exact_when_tol_zero():
    t0 = Tolerances(ray_imag_tol=0.0, ray_real_tol=0.0)
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = float(rng.uniform(-2, 2))
        a = float(rng.uniform(-1, 1))
        assert in_ray(x, a, t0) == (x >= a)
    assert not in_ray(1e-300j + 1.0 + 1e-12j, 0.0, t0)


def test_open_ray():
    t = Tolerances()
    assert in_open_positive_ray(1.0, t)
    assert not in_open_positive_ray(0.0, t)
    assert not in_open_positive_ray(-1.0, t)
    assert not in_open_positive_ray(1.0 + 1e-3j, t)


def test_tolerances_validation_and_env():
    with pytest.raises(ValueError):
        Tolerances(ray_imag_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerances(equality_tol=float("nan"))
    t = Tolerances.from_env({"PENCIL_SPECTRA_TOL": "ray_imag_tol=1e-12, equality_tol=1e-8"})
    assert t.ray_imag_tol == 1e-12 and t.equality_tol == 1e-8
    assert t.ray_real_tol == 1e-10
    with pytest.raises(ValueError):
        Tolerances.from_env({"PENCIL_SPECTRA_TOL": "nonsense=3"})
    with pytest.raises(ValueError):
        Tolerances.from_env({"PENCIL_SPECTRA_TOL": "ray_imag_tol=-2"})


def _awkward_values():
    """Complex values over the whole float range, with zeros, subnormals, inf and NaN."""
    rng = np.random.default_rng(17)
    n = 20000
    wide = complex_array(rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n),
                         rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n))
    usual = complex_array(rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n),
                          rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n))
    parts = [0.0, -0.0, 5e-324, -1e-310, 1.0, -2.5, 1e200, -1.7e308,
             math.inf, -math.inf, math.nan]
    special = [complex(a, b) for a in parts for b in parts]
    return np.concatenate([wide, usual, np.array(special * 4)])


def _same_bits(x, y):
    """Elementwise equality of floats, telling signed zeros apart and matching NaN to NaN."""
    x, y = np.asarray(x), np.asarray(y)
    return ((x == y) & (np.signbit(x) == np.signbit(y))) | (np.isnan(x) & np.isnan(y))


def _assert_bitwise(got, scalar_fn, *args):
    ref = []
    for vals in zip(*(a.tolist() for a in args)):
        try:
            ref.append(scalar_fn(*vals))
        except ZeroDivisionError:
            ref.append(complex(math.nan, math.nan))
    ref = np.array(ref)
    if np.iscomplexobj(ref):
        assert np.all(_same_bits(got.real, ref.real) & _same_bits(got.imag, ref.imag))
    else:
        assert np.all(_same_bits(got, ref))


def test_array_arithmetic_is_cpythons_bit_for_bit():
    a = _awkward_values()
    b = np.roll(a, 7919)
    with np.errstate(all="ignore"):
        _assert_bitwise(cmul(a, b), lambda x, y: x * y, a, b)
        _assert_bitwise(cmul(1.7, a), lambda x: 1.7 * x, a)
        _assert_bitwise(cdiv(a, b), lambda x, y: x / y, a, b)
        _assert_bitwise(cabs(a), lambda x: cabs(x), a)
        _assert_bitwise(principal_sqrt(a), principal_sqrt, a)
        coeffs = (2 + 1j, -3j, 0.5, 1e-3 + 0j)
        _assert_bitwise(polyval_array(coeffs, a), lambda x: polyval(coeffs, x), a)


def test_array_arithmetic_scalars_and_zero_division():
    assert cmul(1 + 2j, 3 - 1j) == (1 + 2j) * (3 - 1j)
    assert cdiv(1 + 2j, 3 - 1j) == (1 + 2j) / (3 - 1j)
    assert cmath.isnan(cdiv(1 + 2j, 0j)) and cmath.isnan(cdiv(1 + 2j, -0.0 + 0j))
    assert cabs(complex(1.5e308, 1.5e308)) == math.inf      # abs() raises OverflowError
    assert principal_sqrt(np.array([-4 - 0j]))[0] == 2j


def test_poly_roots_keeps_distinct_close_roots_apart():
    # a simple root at 0 and one at -i gamma: the Drude denominator z^2 + i gamma z
    for gamma in (1e-5, 1e-9, 1e-300, 5e-324):
        (pole, m_pole), zero = poly_roots([1, 1j * gamma, 0])
        assert zero == (0j, 1) and m_pole == 1
        assert abs(pole + 1j * gamma) <= 1e-15 * gamma
    # two simple roots of a polynomial whose whole root scale is 1e-8
    (lo, m_lo), (hi, m_hi) = poly_roots([1, 0, -1e-16])
    assert (m_lo, m_hi) == (1, 1)
    assert abs(lo + 1e-8) < 1e-20 and abs(hi - 1e-8) < 1e-20
    # exact root 0 next to a computed root 1.5e-10 away, in a polynomial of
    # root scale 2.6 (a Drude ray polynomial): four simple, finite roots
    cs = [1, 1e-9j, -6.8, -1e-9j, 0]
    roots = poly_roots(cs)
    assert [m for _, m in roots] == [1, 1, 1, 1]
    assert (0j, 1) in roots
    for z, _ in roots:
        assert cmath.isfinite(z) and abs(polyval(cs, z)) < 1e-12 * (1 + abs(z) ** 4)
    assert any(abs(z + 1e-9j / 6.8) < 1e-20 for z, _ in roots)


def test_poly_roots_small_scale_multiple_roots_still_merge():
    assert poly_roots([1, 0, 0]) == [(0j, 2)]
    ((z, m),) = poly_roots([1, -3e-3, 3e-6, -1e-9])    # (z - 1e-3)^3, root scale 3e-3
    assert m == 3 and abs(z - 1e-3) < 1e-12


def test_poly_roots_double_root_centre_stays_in_its_cluster():
    # Newton with multiplicity 2 on noise-level p and p' used to throw the
    # centre of this double root 1.7 away
    roots = [2.5 + 2j, 2.5 + 2j, -0.6 + 2j, 0.4 + 2j]
    found = poly_roots(list(np.poly(roots)))
    assert sorted(m for _, m in found) == [1, 1, 2]
    ((z, _),) = [(z, m) for z, m in found if m == 2]
    assert abs(z - (2.5 + 2j)) < 1e-8
