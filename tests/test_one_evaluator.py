"""One evaluator of W-tilde, W, Horner and the evaluation scale for scalars and arrays.

The values are compared with copies of the scalar formulas that wtilde,
w_values and dispersion_k2 had as separate scalar code: bit for bit for a
Python scalar, and within the a priori rounding bound of the formula for a
numpy array, which rounds in numpy's arithmetic. The Weyl preconditions are
compared with the classifier's M bits (in_M, in_M2).
"""

import cmath
import math

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    dispersion_k2,
    in_M,
    in_M2,
    weyl_sequence_1d,
)
from pencil_spectra.complex_numerics import DEFAULT_TOL, in_ray, poly_eval_scale
from pencil_spectra.dielectric import singular_set, w_values, wtilde
from pencil_spectra.errors import DegenerateDispersionError, PreconditionError
from pencil_spectra.modes import weyl_sequence_2d_bulk
from tests.test_classify_array import _lorentz
from tests.test_complex_numerics import _awkward_values, _same_bits

CONSTANT = DielectricModel.constant(2.0)
DRUDE = DielectricModel.drude(0.8, 1.0)
LORENTZ = _lorentz([(0.8, 0.3, 1.0), (1.6, 0.4, 1.5), (2.6, 0.5, 2.0)])
MEDIA = (CONSTANT, DRUDE, LORENTZ)


def _scalar_polyval(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _scalar_wtilde(model, z):
    return model.scale * _scalar_polyval(model.numerator, z) / _scalar_polyval(model.denominator, z)


def _assert_same(got, ref):
    got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
    assert np.all(_same_bits(got.real, ref.real) & _same_bits(got.imag, ref.imag))


def _points_off_poles(models):
    """Points over the float range (1e200, subnormal and negative-zero parts among
    them), keeping those farther than 1e-10 from every pole of the models."""
    rng = np.random.default_rng(22)
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.37, -1.7, 2.5, 1e200, -1e200]
    pts = [complex(a, b) for a in parts for b in parts]
    pts += list(rng.standard_normal(400) * 3 + 1j * rng.standard_normal(400) * 3)
    poles = [p for m in models for p in singular_set(m)]
    return np.array([z for z in pts if all(abs(z - p) > 1e-10 for p in poles)])


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


def _wtilde_bound(model, z):
    """A priori bound, to first order, on |computed W~(z) - W~(z)| for W~ = s p/q
    evaluated by Horner in either arithmetic at the points z (a list).

    Horner in complex arithmetic errs by at most gamma_4n sum_i |c_i||z|^(n-i)
    (Higham (5.3), with Lemma 3.5's sqrt(2) gamma_2 <= gamma_3 per complex product
    and u per sum), which is gamma_4n poly_eval_scale. The product by s errs by
    at most gamma_3 |W~| and Smith's quotient by gamma_11 |W~|. So
    |dW~| <= s (gamma_4n P + |W~/s| gamma_4m Q) / |q| + gamma_14 |W~|, with P, Q
    the scales of the numerator and denominator of degrees n, m."""
    n, m = len(model.numerator) - 1, len(model.denominator) - 1
    out = []
    for v in z:
        q = _scalar_polyval(model.denominator, v)
        wt = _scalar_wtilde(model, v)
        out.append(model.scale * (_gamma(4 * n) * poly_eval_scale(model.numerator, v)
                                  + abs(wt) / model.scale * _gamma(4 * m)
                                  * poly_eval_scale(model.denominator, v)) / abs(q)
                   + _gamma(14) * abs(wt))
    return np.array(out)


def _assert_close(got, ref, bound):
    """|got - ref| <= bound where both are finite; elsewhere the same infinities
    and NaNs in each part."""
    got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
    finite = np.isfinite(got) & np.isfinite(ref)
    assert np.all(np.abs(got - ref)[finite] <= np.asarray(bound)[finite])
    for part in (np.real, np.imag):
        g, r = part(got)[~finite], part(ref)[~finite]
        assert np.all((g == r) | (np.isnan(g) & np.isnan(r)))


@pytest.mark.parametrize("model", MEDIA, ids=["constant", "drude", "lorentz"])
def test_wtilde_at_an_array_is_the_scalar_formula_bit_for_bit(model):
    """The array W~ (numpy's arithmetic) against the scalar formula (CPython's),
    which both meet _wtilde_bound: they differ by at most twice it. Each element
    is bitwise the one-element call's, and the scalar wtilde is the formula."""
    z = _points_off_poles([model])
    ref = [_scalar_wtilde(model, v) for v in z.tolist()]
    with np.errstate(all="ignore"):
        got = wtilde(model, z)
        _assert_close(got, ref, 2.0 * _wtilde_bound(model, z.tolist()))
        _assert_same(got, [wtilde(model, z[i:i + 1])[0] for i in range(z.size)])
    _assert_same([wtilde(model, v) for v in z.tolist()], ref)


@pytest.mark.parametrize("plus", MEDIA, ids=["constant", "drude", "lorentz"])
@pytest.mark.parametrize("minus", MEDIA, ids=["constant", "drude", "lorentz"])
def test_w_values_at_an_array_is_the_scalar_formula_bit_for_bit(plus, minus):
    """w_values at an array against the scalar formulas. W~ is held to twice
    _wtilde_bound; W = (z z) W~ adds two complex products, each within gamma_3,
    so |dW| <= |z|^2 |dW~| + gamma_6 |W|, again twice that between the two.
    Each element is bitwise the one-element call's, and the scalar call the formula."""
    problem = InterfaceProblem(plus, minus)
    z = _points_off_poles([plus, minus])
    ref = []
    for v in z.tolist():
        wt_p, wt_m = _scalar_wtilde(plus, v), _scalar_wtilde(minus, v)
        ref.append((wt_p, wt_m, v * v * wt_p, v * v * wt_m))
    with np.errstate(all="ignore"):
        zz = np.abs(z) ** 2
        got = w_values(problem, z)
        one = [w_values(problem, z[i:i + 1]) for i in range(z.size)]
        for j, model in enumerate((plus, minus)):
            b = _wtilde_bound(model, z.tolist())
            _assert_close(got[j], [r[j] for r in ref], 2.0 * b)
            w_ref = np.array([r[2 + j] for r in ref])
            _assert_close(got[2 + j], w_ref, 2.0 * (zz * b + _gamma(6) * np.abs(w_ref)))
    for j in range(4):
        _assert_same(got[j], [o[j][0] for o in one])
    for v, r in zip(z.tolist(), ref):
        _assert_same(w_values(problem, v), r)


def test_poly_eval_scale_at_an_array_is_its_scalar_value_bit_for_bit():
    z = _awkward_values()
    coeffs = (2 + 1j, -3j, 0.5, 1e-3 + 0j)
    with np.errstate(all="ignore"):
        got = poly_eval_scale(coeffs, z)
    assert np.all(_same_bits(got, [poly_eval_scale(coeffs, v) for v in z.tolist()]))
    # one polynomial per point: the coefficients are arrays too
    rows = np.roll(z, 11)[:400].reshape(100, 4)
    with np.errstate(all="ignore"):
        got = poly_eval_scale(rows.T, z[:100])
    assert np.all(_same_bits(got, [poly_eval_scale(r, v)
                                   for r, v in zip(rows.tolist(), z[:100].tolist())]))


@pytest.mark.parametrize("minus", [DRUDE, LORENTZ], ids=["drude", "lorentz"])
def test_dispersion_k2_is_the_scalar_formula_bit_for_bit(minus):
    problem = InterfaceProblem(CONSTANT, minus)
    rng = np.random.default_rng(5)
    checked = 0
    for omega in (rng.standard_normal(200) * 2 + 1j * rng.standard_normal(200)).tolist():
        try:
            got = dispersion_k2(omega, problem)
        except DegenerateDispersionError:
            continue
        wt_p, wt_m = wtilde(problem.plus, omega), wtilde(problem.minus, omega)
        s = wt_p + wt_m
        _assert_same(got, omega * omega * wt_p * wt_m / s)
        checked += 1
    assert checked > 150


# -- Weyl preconditions: the classifier's M bits --------------------------------

WEYL_PROBLEMS = {
    "lossless": InterfaceProblem(CONSTANT, DielectricModel.drude(0.8, 0.0)),
    "lossy": InterfaceProblem(CONSTANT, DRUDE),
}


def _grid():
    """Points on and off the real and imaginary axes, where W_+ = 2 omega^2 is real."""
    re, im = np.linspace(-3.0, 3.0, 25), np.linspace(-2.0, 2.0, 17)
    return (re[:, None] + 1j * im[None, :]).ravel().tolist()


def _edge_points():
    """omega with W_+ = 2 omega^2 at +-1e-10 +- 0.9e-10 i, at the ray tolerances."""
    return [cmath.sqrt(complex(a, b) / 2.0) for a in (1e-10, -1e-10) for b in (0.9e-10, -0.9e-10)]


def _accepts(fn, *args):
    try:
        fn(*args)
    except PreconditionError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(WEYL_PROBLEMS))
@pytest.mark.parametrize("k", [0.0, 0.7, 3.0])
def test_weyl_1d_plane_wave_accepts_exactly_the_ray_set(name, k):
    problem = WEYL_PROBLEMS[name]
    checked = 0
    for omega in _grid() + _edge_points():
        for side in "+-":
            try:
                expected = in_M(side, omega, k, problem)
            except PreconditionError:   # on S or Omega_0
                continue
            assert _accepts(weyl_sequence_1d, omega, k, 8, side, "plane_wave", problem) == expected
            checked += expected
    assert checked > 0


@pytest.mark.parametrize("name", sorted(WEYL_PROBLEMS))
def test_weyl_2d_bulk_accepts_exactly_the_ray_set(name):
    problem = WEYL_PROBLEMS[name]
    checked = 0
    for omega in _grid() + _edge_points():
        for side in "+-":
            try:
                expected = in_M2(side, omega, problem)
            except PreconditionError:
                continue
            assert _accepts(weyl_sequence_2d_bulk, omega, side, 8, problem) == expected
            checked += expected
    assert checked > 0


def test_weyl_edge_points_are_where_the_hand_written_ray_tests_disagreed():
    """The replaced tests: k = 0 took |W| > ray_real_tol for Re W > ray_real_tol, and
    the 2D bulk the closed ray [0, inf); at the edge points they differ from in_M."""
    problem = WEYL_PROBLEMS["lossy"]
    tol = DEFAULT_TOL
    differ_1d = differ_2d = 0
    for omega in _edge_points():
        w_plus = w_values(problem, omega)[2]
        old_1d = bool(in_ray(w_plus, 0.0, tol) and abs(w_plus) > tol.ray_real_tol)
        old_2d = bool(in_ray(w_plus, 0.0, tol))
        differ_1d += old_1d != in_M("+", omega, 0.0, problem)
        differ_2d += old_2d != in_M2("+", omega, problem)
    assert differ_1d and differ_2d


def test_weyl_2d_bulk_rejects_the_ray_endpoint():
    problem = InterfaceProblem(CONSTANT, DielectricModel.constant(3.0))
    with pytest.raises(PreconditionError):
        weyl_sequence_2d_bulk(0.0, "+", 8, problem)   # W_+(0) = 0 is not in (0, inf)
    assert math.isfinite(weyl_sequence_2d_bulk(1.0, "+", 8, problem).residual_norm)
