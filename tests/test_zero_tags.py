"""One zero test for W-tilde, Omega_0 tests that read their caller's values, and
one denominator evaluation per scalar W-tilde.

dielectric._zero_tags, _omega0_point and classify1d's exceptional table are
compared with verbatim copies of the formulas they replace: the three inline
"W-tilde_pm or their sum vanishes" tests, the _omega0_point that evaluated
W-tilde itself, and the _classify_point / _classify_omega0 pair that evaluated
w_values a second time on Omega_0.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pencil_spectra import DielectricModel, InterfaceProblem, classify, classify2
import pencil_spectra.dielectric as dielectric
from pencil_spectra.classify1d import (_ESSENTIAL, _RESOLVENT, OUTSIDE, REDUCED, SpectrumClass,
                                       _reduced_codes)
from pencil_spectra.complex_numerics import DEFAULT_TOL, Tolerances, cabs, in_ray, poly_roots
from pencil_spectra.dielectric import (Omega0Point, _omega0_point, _zero_tags, near_omega0,
                                       omega0_set, singular_points, w_values, which_pole_side,
                                       wtilde)
from tests.test_classify_array import _lorentz

TOL = DEFAULT_TOL
CONSTANT = DielectricModel.constant(2.0)
LOSSY = InterfaceProblem(CONSTANT, DielectricModel.drude(0.8, 1.0))
LOSSLESS = InterfaceProblem(CONSTANT, DielectricModel.drude(0.8, 0.0))
THREE_POLE_PAIR = InterfaceProblem(
    _lorentz([(0.8, 0.3, 1.0), (1.6, 0.4, 1.5), (2.6, 0.5, 2.0)]), CONSTANT)
OPPOSITE = InterfaceProblem(CONSTANT, DielectricModel.constant(-2.0))   # W~_+ + W~_- = 0
BLACK_BOX = InterfaceProblem(CONSTANT, DielectricModel.from_callable(
    lambda w: 1 - 2 * math.pi * 0.64 / (w * w + 1j * w), poles=(0, -1j)))
PROBLEMS = (LOSSY, LOSSLESS, THREE_POLE_PAIR, OPPOSITE)


# -- the formulas as they stood before the one helper ------------------------

def _old_omega0_point_tags(wt_p, wt_m, tol):
    a_p, a_m = cabs(wt_p), cabs(wt_m)
    bound = tol.equality_tol * max(a_p, a_m, 1.0)
    return a_p <= bound, a_m <= bound, bound


def _old_classify_omega0_tags(wt_p, wt_m, tol):
    m = max(abs(wt_p), abs(wt_m), 1.0)
    sum_zero = abs(wt_p + wt_m) <= tol.equality_tol * m
    return abs(wt_p) <= tol.equality_tol * m, abs(wt_m) <= tol.equality_tol * m, sum_zero


def _old_dispersion_k2_cancels(wt_p, wt_m, tol):
    s = wt_p + wt_m
    return abs(s) <= tol.equality_tol * max(abs(wt_p), abs(wt_m), 1.0)


def _old_omega0_point(problem, omega, tol):
    wt_p = wtilde(problem.plus, omega, tol)
    wt_m = wtilde(problem.minus, omega, tol)
    a_p, a_m = cabs(wt_p), cabs(wt_m)
    bound = tol.equality_tol * max(a_p, a_m, 1.0)
    zz = min(cabs(omega) * cabs(omega), 1.0)
    plus_v, minus_v = zz * a_p <= bound, zz * a_m <= bound
    if not (plus_v or minus_v):
        return None
    return Omega0Point(omega=omega, plus_vanishes=plus_v, minus_vanishes=minus_v,
                       wtilde_plus_zero=a_p <= bound, wtilde_minus_zero=a_m <= bound)


def _old_near_omega0(problem, omega, tol):
    omega = complex(omega)
    if problem.is_rational:
        for p in omega0_set(problem, tol):
            if cabs(omega - p.omega) <= tol.ray_imag_tol:
                return p
        return None
    return _old_omega0_point(problem, omega, tol)


def _old_classify_omega0(problem, omega, k, pt, tol, exact_hit):
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    m = max(abs(wt_p), abs(wt_m), 1.0)
    sum_zero = abs(wt_p + wt_m) <= tol.equality_tol * m
    suffix = "" if exact_hit else ";near-Omega0"

    if k is None:
        point_infinite = pt.wtilde_plus_zero or pt.wtilde_minus_zero or sum_zero
        return replace(
            _ESSENTIAL, in_omega0=True, point_infinite=point_infinite,
            branch_note=f"2D-exceptional/{'pt-infinite' if point_infinite else 'essential'}{suffix}",
        )

    wtp_zero = pt.wtilde_plus_zero or abs(wt_p) <= tol.equality_tol * m
    wtm_zero = pt.wtilde_minus_zero or abs(wt_m) <= tol.equality_tol * m
    point_infinite = wtp_zero or wtm_zero
    if k != 0.0:
        if not point_infinite:
            if sum_zero:
                return SpectrumClass(
                    True, True, resolvent=False, point_finite=True, point_infinite=False,
                    discrete=False, weyl=False, e1=False, e2=False, e3=False, e4=False,
                    e5=True, branch_note=f"exceptional/pt-finite{suffix}",
                )
            return replace(_RESOLVENT, in_omega0=True,
                           branch_note=f"exceptional/resolvent{suffix}")
        e1 = (wtp_zero and in_ray(w_m, k * k, tol)) or (wtm_zero and in_ray(w_p, k * k, tol))
        return replace(
            _ESSENTIAL, in_omega0=True, point_infinite=True, e1=e1,
            branch_note=f"exceptional/pt-infinite{'+e1' if e1 else ''}{suffix}",
        )

    return replace(
        _ESSENTIAL, in_omega0=True, point_infinite=point_infinite,
        branch_note=f"exceptional-k0/{'pt-infinite' if point_infinite else 'essential'}{suffix}",
    )


def _old_classify_point(omega, k, problem, tol):
    hit = which_pole_side(problem, omega, tol)
    if hit is not None:
        pole, side = hit
        return replace(OUTSIDE, branch_note=f"{'2D-' if k is None else ''}S/{side}-pole@{pole:.6g}")
    pt = _old_near_omega0(problem, omega, tol)
    if pt is not None:
        return _old_classify_omega0(problem, omega, k, pt, tol, omega == pt.omega)
    return REDUCED[2 if k is None else 1][_reduced_codes(*w_values(problem, omega, tol), k, tol)]


# -- the one zero test --------------------------------------------------------

_VALUES = [0j, 1e-300 + 0j, -1e-300 + 0j, 1e-300j, 1.0 + 0j, -1.0 + 0j, 2.5 - 1j, -2.5 + 1j,
           1e200 + 0j, -1e200 + 0j, 1e200 - 1e200j, -1e200 + 1e200j, complex(math.inf, 0.0),
           complex(-math.inf, 0.0), complex(math.inf, math.nan), complex(math.nan, 0.0),
           complex(1e308, 1e308)]


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _raises_overflow(fn, *args) -> bool:
    try:
        fn(*args)
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("wt_p", _VALUES)
@pytest.mark.parametrize("wt_m", _VALUES)
def test_zero_tags_are_the_three_inline_tests(wt_p, wt_m):
    p_zero, m_zero, sum_zero, b = _zero_tags(wt_p, wt_m, TOL)
    old_p, old_m, old_b = _old_omega0_point_tags(wt_p, wt_m, TOL)
    assert (p_zero, m_zero) == (old_p, old_m) and _same(b, old_b)
    if _raises_overflow(_old_classify_omega0_tags, wt_p, wt_m, TOL):
        # the old abs raised; the helper decides with an infinite bound
        assert b == math.inf and sum_zero
        return
    assert (p_zero, m_zero, sum_zero) == _old_classify_omega0_tags(wt_p, wt_m, TOL)
    assert sum_zero == _old_dispersion_k2_cancels(wt_p, wt_m, TOL)


def test_exact_cancellation_is_a_zero_sum():
    assert _zero_tags(2.5 - 1j, -2.5 + 1j, TOL)[:3] == (False, False, True)
    assert _zero_tags(1e200 + 0j, -1e200 + 0j, TOL)[:3] == (False, False, True)


# -- the Omega_0 tests read the caller's values -------------------------------

def _candidates(problem):
    """omega0_set's candidates: 0 and the numerator roots of both sides, off S."""
    poles = singular_points(problem, TOL)
    cands = [0j]
    for model in (problem.plus, problem.minus):
        if len(model.numerator) > 1:
            cands.extend(z for z, _ in poly_roots(model.numerator, TOL))
    return [z for z in cands if all(abs(z - p) > TOL.ray_imag_tol * (1.0 + abs(z)) for p in poles)]


def _random_points(problem, n=300, seed=23):
    rng = np.random.default_rng(seed)
    pts = (rng.standard_normal(n) * 2 + 1j * rng.standard_normal(n) * 2).tolist()
    poles = singular_points(problem, TOL)
    return [z for z in pts if all(abs(z - p) > 1e-6 for p in poles)]


@pytest.mark.parametrize("problem", PROBLEMS)
def test_omega0_point_from_values_is_the_old_one(problem):
    for z in _candidates(problem) + _random_points(problem):
        got = _omega0_point(z, *w_values(problem, z, TOL)[:2], TOL)
        assert got == _old_omega0_point(problem, z, TOL), z


def _omega0_neighbourhood(problem, tol):
    d = 0.5 * tol.ray_imag_tol
    return [p.omega + off for p in omega0_set(problem, tol) for off in (0, d, -d, 1j * d, -1j * d)]


# with equality_tol far below ray_imag_tol, W-tilde at omega and the tags of the
# Omega_0 point within ray_imag_tol of it disagree, and the table reads both
@pytest.mark.parametrize("tol", (TOL, Tolerances(equality_tol=1e-14)))
@pytest.mark.parametrize("problem", PROBLEMS + (BLACK_BOX,))
def test_exceptional_records_are_the_old_ones(problem, tol):
    points = _omega0_neighbourhood(LOSSY if problem is BLACK_BOX else problem, tol)
    assert any(near_omega0(problem, z, tol) is not None for z in points)
    for z in points:
        for k in (0.0, 0.7, 3.0):
            assert classify(z, k, problem, tol) == _old_classify_point(z, k, problem, tol), (z, k)
        assert classify2(z, problem, tol) == _old_classify_point(z, None, problem, tol), z


def test_the_table_also_reads_the_values_where_the_point_tags_miss_a_zero():
    # W-tilde_+ vanishes at 1e-3, within ray_imag_tol of the Omega_0 point 0,
    # whose own tags say it does not vanish there
    tol = Tolerances(ray_imag_tol=1e-2)
    problem = InterfaceProblem(DielectricModel.rational([1, -1e-3], [1, 3]), CONSTANT)
    pt = near_omega0(problem, 1e-3, tol)
    assert pt.omega == 0 and not pt.wtilde_plus_zero and not pt.wtilde_minus_zero
    for k in (0.0, 0.7, 3.0, None):
        rec = classify2(1e-3, problem, tol) if k is None else classify(1e-3, k, problem, tol)
        assert rec == _old_classify_point(1e-3 + 0j, k, problem, tol), k
    assert classify(1e-3, 3.0, problem, tol).point_infinite


def test_opposite_constants_reach_the_finite_point_branch():
    assert classify(0j, 3.0, OPPOSITE, TOL).branch_note == "exceptional/pt-finite"


# -- one denominator evaluation per scalar W-tilde ----------------------------

@pytest.mark.parametrize("model", (LOSSY.minus, THREE_POLE_PAIR.plus, CONSTANT))
def test_scalar_wtilde_evaluates_the_denominator_once(model, monkeypatch):
    calls = []
    polyval = dielectric.polyval
    monkeypatch.setattr(dielectric, "polyval", lambda c, z: calls.append(c) or polyval(c, z))
    dielectric.singular_set(model, TOL)   # the pole set is cached before counting
    calls.clear()
    value = wtilde(model, 0.3 + 0.7j, TOL)
    assert [c is model.denominator for c in calls].count(True) == 1
    assert len(calls) == 2
    assert value == model.scale * polyval(model.numerator, 0.3 + 0.7j) \
        / polyval(model.denominator, 0.3 + 0.7j)
