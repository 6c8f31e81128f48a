import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_spectra.complex_numerics import (
    Tolerances,
    cabs,
    in_open_positive_ray,
    in_ray,
    poly_eval_scale,
    poly_roots,
    poly_roots_family,
    polyval,
    principal_sqrt,
    trim_leading,
)
from pencil_spectra.errors import DegenerateInputError
from pencil_spectra.modes import eigenvalue_polynomial, ray_polynomial
from pencil_spectra.trace_cli import _N2_WITNESSES, _RAY_OFFSETS
from tests.test_classify_array import MEDIA, complex_array


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


def test_principal_sqrt_and_cabs_on_arrays():
    """principal_sqrt's branch on arrays: the upper value on the negative real axis
    for either sign of a zero imaginary part, and C99's infinities and NaN; cabs is
    inf where abs() overflows, for an array as for a scalar."""
    inf, nan = math.inf, math.nan
    z = np.array([complex(-4.0, 0.0), complex(-4.0, -0.0), complex(-inf, 0.0),
                  complex(-inf, -0.0), complex(inf, -0.0), complex(1.0, inf), complex(1.0, -inf),
                  complex(nan, 0.0), complex(0.0, nan), complex(-0.0, -0.0)])
    want = [2j, 2j, complex(0.0, inf), complex(0.0, inf), complex(inf, -0.0),
            complex(inf, inf), complex(inf, -inf), complex(nan, nan), complex(nan, nan),
            complex(0.0, -0.0)]
    got = principal_sqrt(z)
    want = np.array(want)
    assert np.all(_same_bits(np.abs(got.real), want.real) & _same_bits(got.imag, want.imag))
    a = _awkward_values()
    with np.errstate(all="ignore"):
        r = principal_sqrt(a)
    finite = np.isfinite(r.real) & np.isfinite(r.imag)
    assert np.all((r.real[finite] > 0.0) | ((r.real[finite] == 0.0) & (r.imag[finite] >= 0.0)))
    big = complex(1.5e308, 1.5e308)
    with np.errstate(over="ignore"):
        assert cabs(np.array([big, 3 + 4j])).tolist() == [math.inf, 5.0]


def test_array_arithmetic_scalars_and_zero_division():
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


# -- poly_roots_family against a companion-matrix reference -------------------


def _poly_roots_scalar(coeffs, tol=Tolerances()):
    """A reference poly_roots: np.roots (companion eigenvalues), then a Newton
    polish loop per root, then a cluster step within 1e-5 of the root scale. It
    splits triple roots, but agrees with poly_roots_family on families of
    well-separated roots, such as the overlay and sweep families."""
    cs = trim_leading(coeffs)
    if not cs:
        raise DegenerateInputError("zero polynomial has no well-defined roots")
    if len(cs) == 1:
        raise DegenerateInputError("constant polynomial (degree 0) has no roots")
    if not all(cmath.isfinite(c) for c in cs):
        raise DegenerateInputError("polynomial has a coefficient that is not finite")

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

    zeros = polished.count(0)
    s = max((abs(c) / abs(cs[0])) ** (1.0 / i) for i, c in enumerate(cs) if i)

    def radius(c):
        return 1e-5 * min(1.0 + abs(c), s + abs(c))

    polished.sort(key=lambda w: (w.real, w.imag))
    clusters = []
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
            for _ in range(5):
                p = polyval(cs, z)
                dp = polyval(der, z)
                if not m * abs(p) < radius(z) * abs(dp):
                    break
                z = z - m * p / dp
        out.append((z, m))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _bits(found):
    """A result as comparable bits: each root's type, float.hex parts and
    multiplicity, or the error's type and message."""
    if isinstance(found, Exception):
        return type(found).__name__, str(found)
    return [(type(z), z.real.hex(), z.imag.hex(), m) for z, m in found]


def _assert_family_matches_scalar(polys, tol=Tolerances()):
    """poly_roots_family against _poly_roots_scalar, whose roots may differ in
    their last bits. A member's error is the same. Its multiplicities are the
    same, and each root of multiplicity m lies within the reference's cluster
    radius of a reference root of multiplicity m. A simple root meets the
    reference polish's stopping bound |p(z)| <= 1e-3 root_residual_tol
    sum_i |c_i||z|^(n-i).
    The family's roots are returned bitwise as each member has them alone."""
    expect = []
    for coeffs in polys:
        try:
            expect.append(_poly_roots_scalar(coeffs, tol))
        except DegenerateInputError as exc:
            expect.append(exc)
    got = poly_roots_family(polys, tol)
    for coeffs, g, e in zip(polys, got, expect):
        if isinstance(e, Exception):
            assert _bits(g) == _bits(e)
            continue
        assert sorted(m for _, m in g) == sorted(m for _, m in e)
        cs = trim_leading(coeffs)
        s = max((abs(c) / abs(cs[0])) ** (1.0 / i) for i, c in enumerate(cs) if i)
        for z, m in g:
            assert min(abs(z - w) - 1e-5 * min(1.0 + abs(w), s + abs(w))
                       for w, n in e if n == m) <= 0.0, (cs, z, m)
            if m == 1:
                bound = 1e-3 * tol.root_residual_tol * poly_eval_scale(cs, z)
                assert abs(polyval(cs, z)) <= bound, (cs, z)
        assert _bits(g) == _bits(poly_roots(coeffs, tol))
    return expect


_PARTS = st.floats(-3.0, 3.0, allow_nan=False).map(lambda x: round(x, 3))


@st.composite
def _polynomial(draw):
    """(descending coefficients, drawn roots): simple, double and triple roots,
    the exact root 0 (trailing zeros) and leading zeros. Roots far apart in
    modulus come from tropical starts on circles of their own. The drawn roots
    are [(root, multiplicity), ...] with the coinciding draws merged."""
    drawn: dict = {}
    for _ in range(draw(st.integers(1, 4))):
        scale = 10.0 ** draw(st.integers(-14, 6))
        z = complex(draw(_PARTS), draw(_PARTS)) * scale
        drawn[z] = drawn.get(z, 0) + draw(st.integers(1, 3))
    zeros = draw(st.integers(0, 2))
    if zeros:
        drawn[0j] = drawn.get(0j, 0) + zeros
    roots = [z for z, m in drawn.items() for _ in range(m)]
    lead = complex(draw(st.floats(0.25, 4.0)), draw(st.floats(-1.0, 1.0)))
    return [0j] * draw(st.integers(0, 2)) + (lead * np.poly(roots)).tolist(), list(drawn.items())


@st.composite
def _family(draw):
    """[(coefficients, drawn roots or the message of the member's error), ...]."""
    members = draw(st.lists(_polynomial(), min_size=3, max_size=10))
    members.append((draw(st.sampled_from([[2.5], [0j, -1j], [0j, 0j], []])), None))   # degree 0
    broken, _ = draw(_polynomial())
    broken[draw(st.integers(0, len(broken) - 1))] = draw(st.sampled_from(
        [complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(math.nan, 0.0),
         complex(0.0, math.nan)]))
    members.append((broken, "polynomial has a coefficient that is not finite"))
    return draw(st.permutations(members))


def _cluster_radius(cs, drawn, i, tol):
    """The inclusion radius of the m-fold drawn root i of cs against the other
    drawn roots: (d (|p| + root_residual_tol s) / |a_0 prod_j (z - z_j)^m_j|)^(1/m)."""
    z, m = drawn[i]
    rest = abs(cs[0]) * math.prod(abs(z - w) ** n for j, (w, n) in enumerate(drawn) if j != i)
    top = (len(cs) - 1) * (abs(polyval(cs, z)) + tol.root_residual_tol * poly_eval_scale(cs, z))
    return (top / rest) ** (1.0 / m) if rest else math.inf


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(members=_family())
def test_poly_roots_family_is_the_scalar_loop_bit_for_bit(members):
    """Every member of a family gets bitwise the roots, or the error, it gets
    alone. A simple root meets |p(z)| <= 1e-3 root_residual_tol sum_i |c_i||z|^(n-i).
    Where the member's drawn roots lie more than 10 cluster radii apart, each
    is found once, within its radius, with its drawn multiplicity."""
    tol = Tolerances()
    polys = [coeffs for coeffs, _ in members]
    got = poly_roots_family(polys, tol)
    assert sum(isinstance(f, DegenerateInputError) for f in got) >= 2
    for (coeffs, drawn), found in zip(members, got):
        if isinstance(found, DegenerateInputError):
            with pytest.raises(DegenerateInputError) as err:
                poly_roots(coeffs, tol)
            assert str(err.value) == str(found)
            if drawn is not None:
                assert str(found) == drawn
            continue
        assert _bits(found) == _bits(poly_roots(coeffs, tol))
        cs = trim_leading(coeffs)
        assert sum(m for _, m in found) == len(cs) - 1
        for z, m in found:
            if m == 1:
                bound = 1e-3 * tol.root_residual_tol * poly_eval_scale(cs, z)
                assert abs(polyval(cs, z)) <= bound, (cs, z)
        radii = [_cluster_radius(cs, drawn, i, tol) for i in range(len(drawn))]
        if all(abs(z - w) > 10.0 * (radii[i] + radii[j])
               for i, (z, _) in enumerate(drawn) for j, (w, _) in enumerate(drawn) if i < j):
            assert len(found) == len(drawn), (cs, drawn, found)
            for (z, m), rad in zip(drawn, radii):
                assert [n for w, n in found if abs(w - z) <= rad] == [m], (cs, z, m, found)


def test_poly_roots_family_meets_every_member_kind():
    """Multiple roots, the exact root 0, roots eleven orders of magnitude apart,
    degree 0 and a coefficient that is not finite, in one family; every root a
    Python complex, and each member as it is alone."""
    fam = [list(np.poly([1 + 1j] * 3 + [0j, 0j, -2.0])), list(np.poly([0.5, 0.5, -1j])),
           list(np.poly([92000 + 47000j, 1560000 + 2860000j, 2.8e-06 + 5.7e-06j])),
           [0j, 1.0, -2.0], [4.0], [1.0, math.nan]]
    found = poly_roots_family(fam)
    assert [m for _, m in found[0]] == [1, 2, 3] and found[0][1] == (0j, 2)
    assert abs(found[0][0][0] + 2.0) < 1e-12 and abs(found[0][2][0] - (1 + 1j)) < 1e-12
    assert [m for _, m in found[1]] == [1, 2] and abs(found[1][1][0] - 0.5) < 1e-12
    assert abs(found[2][0][0] - 2.8e-06 - 5.7e-06j) < 1e-20
    assert found[3] == [(2 + 0j, 1)]
    assert [type(e) for e in found[4:]] == [DegenerateInputError] * 2
    assert all(type(z) is complex for f in found[:4] for z, _ in f)
    for coeffs, f in zip(fam, found):
        try:
            alone = poly_roots(coeffs)
        except DegenerateInputError as exc:
            alone = exc
        assert _bits(f) == _bits(alone)
    assert poly_roots_family([]) == []


@pytest.mark.parametrize("wide", [[1e-300, 1e300], [1e-200, 1.0, 1e200]])
def test_poly_roots_family_member_with_overflowing_companion(wide):
    """Finite coefficients whose root lies beyond the float range (-1e600 of the
    first) make that member's own DegenerateInputError, without a warning. The
    second, whose two roots have modulus 1e200, is solved. [1, -3, 2] beside
    either keeps its roots, bitwise those it has alone."""
    found = poly_roots_family([wide, [1.0, -3.0, 2.0]])
    if len(wide) == 2:
        assert isinstance(found[0], DegenerateInputError)
        assert "beyond the float range" in str(found[0])
        with pytest.raises(DegenerateInputError):
            poly_roots(wide)
    else:
        expect = [1e200 * complex(-0.5, -math.sqrt(0.75)), 1e200 * complex(-0.5, math.sqrt(0.75))]
        assert [m for _, m in found[0]] == [1, 1]
        assert all(abs(z - e) <= 1e-15 * 1e200 for (z, _), e in zip(found[0], expect))
        assert _bits(found[0]) == _bits(poly_roots(wide))
    assert [m for _, m in found[1]] == [1, 1]
    assert [abs(z - r) <= 1e-14 for (z, _), r in zip(found[1], (1.0, 2.0))] == [True, True]
    assert _bits(found[1]) == _bits(poly_roots([1.0, -3.0, 2.0]))


@pytest.mark.parametrize("roots, expect", [
    ([-0.6 + 2j] * 3 + [0.4 + 2j], [(-0.6 + 2j, 3), (0.4 + 2j, 1)]),
    ([1 - 1j] * 2 + [1 + 1j] * 2, [(1 - 1j, 2), (1 + 1j, 2)]),
    ([3.0] * 4 + [-1.0], [(-1.0, 1), (3.0, 4)]),
])
def test_poly_roots_finds_a_multiple_root_beside_a_simple_one(roots, expect):
    """Inclusion discs swollen by a tight cluster of computed roots do not merge it
    with a root a distance 1 or 2 away; the centre sharpens to 1e-12."""
    found = poly_roots(list(np.poly(roots)))
    assert [m for _, m in found] == [m for _, m in expect]
    for (z, _), (e, _) in zip(found, expect):
        assert abs(z - e) < 1e-12, (z, e)


def test_poly_roots_derivative_overflow_is_quiet():
    """np.polyder's product 2 * 1e308 overflows; the roots come without a warning."""
    roots = poly_roots([1e308, 1.0, 1.0])
    assert sum(m for _, m in roots) == 2


def _ray_polynomial_scalar(model, t):
    """modes.ray_polynomial for one t, as the per-member loop built it."""
    lead = np.convolve([model.scale, 0.0, 0.0], np.asarray(model.numerator, dtype=complex))
    tail = np.asarray([-t * c for c in model.denominator], dtype=complex)
    n = max(len(lead), len(tail))
    out = np.zeros(n, dtype=complex)
    out[n - len(lead):] += lead
    out[n - len(tail):] += tail
    return out


def _eigenvalue_polynomial_scalar(k, problem):
    """modes.eigenvalue_polynomial for one k, as the per-member loop built it."""
    p, m = problem.plus, problem.minus
    cross = np.polyadd(np.convolve(p.numerator, m.denominator),
                       np.convolve(m.numerator, p.denominator))
    qb = np.convolve([p.scale, 0.0, 0.0], np.convolve(p.numerator, m.numerator))
    out = np.zeros(max(len(cross), len(qb)), dtype=complex)
    out[len(out) - len(cross):] += np.array([k * k * c for c in cross])
    out[len(out) - len(qb):] += np.array([-c for c in qb])
    return out


def _same_rows(rows, expect):
    assert [[(c.real.hex(), c.imag.hex()) for c in row] for row in np.asarray(rows).tolist()] \
        == [[(c.real.hex(), c.imag.hex()) for c in row] for row in np.asarray(expect).tolist()]


@pytest.mark.parametrize("name, k", [("drude", 3.0), ("guided", None), ("lorentz", 2.87)])
def test_overlay_families_match_the_scalar_loop(name, k):
    """The M+ and M- ray families and the 2D N family of the three portrait media,
    as trace builds them: the same coefficients and the same roots, bit for bit."""
    problem = MEDIA[name]
    k2 = 0.0 if k is None else k * k
    ts = k2 + max(k2, 1.0) * _RAY_OFFSETS
    for model in (problem.plus, problem.minus):
        rows = ray_polynomial(model, ts)
        _same_rows(rows, [_ray_polynomial_scalar(model, t) for t in ts])
        _assert_family_matches_scalar(rows)
    if k is None:
        rows = eigenvalue_polynomial(np.sqrt(_N2_WITNESSES), problem)
        _same_rows(rows, [_eigenvalue_polynomial_scalar(math.sqrt(a), problem)
                          for a in _N2_WITNESSES])
        _assert_family_matches_scalar(rows)


def test_eigen_sweep_family_matches_the_scalar_loop():
    problem = MEDIA["lorentz"]
    ks = np.linspace(0.613, 6.07, 400)
    rows = eigenvalue_polynomial(ks, problem)
    _same_rows(rows, [_eigenvalue_polynomial_scalar(k, problem) for k in ks.tolist()])
    expect = _assert_family_matches_scalar(rows)
    assert all(sum(m for _, m in f) == rows.shape[1] - 1 for f in expect)


@pytest.mark.parametrize("raw", ["", " ", " , ,"])
def test_blank_tolerance_override_gives_the_defaults(raw):
    assert Tolerances.from_env({"PENCIL_SPECTRA_TOL": raw}) == Tolerances()
