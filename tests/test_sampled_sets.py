"""The sampled omega-plane sets: ray preimages (the M+ and M- overlays and the
Weyl suite's 1D point) and the 2D set N, all accepted by one classify_array call."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_spectra import DielectricModel, InterfaceProblem, classify, classify2, in_N2
from pencil_spectra.classify1d import M_PLUS
from pencil_spectra.complex_numerics import DEFAULT_TOL, poly_roots
from pencil_spectra.dielectric import singular_set, w
from pencil_spectra.errors import PencilSpectraError, UnsupportedModelError
from pencil_spectra.modes import eigen_omegas, eigenvalue_polynomial, ray_polynomial, roots_in_set
from pencil_spectra.trace_cli import _m_minus_boundary, _n_points, _suite_weyl, trace_portrait
from tests.test_classify_array import MEDIA

CELL = 8.0 / 400.0   # one cell of a 400-column raster over [-4, 4]


def _closed_form_m_minus(problem, k):
    """The M- lobe boundary of a Drude metal with background 1, in closed form.

    Im W_-(s + ... ) = 0 off the imaginary axis gives Re omega = +-sqrt(rad)
    at Im omega = s in (-gamma/2, 0); cond <= -k^2 is Re W_- >= k^2 there.
    """
    m = problem.minus
    wp, g = m.omega_p, m.gamma
    pts = []
    for s in np.linspace(-g / 2 + 1e-9, -1e-9, 4001):
        rad = -math.pi * wp**2 * g / s - (s + g) ** 2
        cond = (math.pi * wp**2 / s) * (2 * s + g) + (2 * s + g) ** 2
        if rad >= 0.0 and cond <= -k * k:
            r = math.sqrt(rad)
            pts.append(complex(r, s))
            pts.append(complex(-r, s))
    return pts


def _in_window(z):
    return -4.0 <= z.real <= 4.0 and -1.2 <= z.imag <= 0.4


@pytest.mark.parametrize("name", sorted(MEDIA))
def test_ray_polynomial_roots_are_the_preimage(name):
    model = MEDIA[name].minus
    poles = singular_set(model)
    for t in (0.5, 9.0, 18.0, 1e4):
        q = ray_polynomial(model, t)
        roots = poly_roots(q)
        assert sum(m for _, m in roots) == len(q) - 1
        for z, _ in roots:
            if min((abs(z - p) for p in poles), default=math.inf) < 1e-6:
                continue   # a root of d shared with omega^2 n, not a preimage
            assert abs(w(model, z) - t) <= 1e-8 * max(t, 1.0)


def test_ray_polynomial_needs_a_rational_model():
    with pytest.raises(UnsupportedModelError):
        ray_polynomial(DielectricModel.from_callable(lambda z: 2.0), 9.0)


def test_m_minus_overlay_covers_the_closed_form(drude_problem):
    sampled = np.array(_m_minus_boundary(drude_problem, 3.0))
    ref = [z for z in _closed_form_m_minus(drude_problem, 3.0) if _in_window(z)]
    assert len(ref) > 100
    gaps = [np.min(np.abs(sampled - z)) for z in ref]
    assert max(gaps) <= CELL


def test_m_minus_overlay_has_the_imaginary_axis_segment(drude_problem):
    # on the axis W_-(-iy) = -y^2 + 2 pi wp^2 y/(gamma - y) is real and runs
    # up to the pole at -i gamma: the raster puts -0.975i in M-
    assert classify(-0.975j, 3.0, drude_problem).branch_note == "reduced/M-"
    sampled = _m_minus_boundary(drude_problem, 3.0)
    axis = sorted(z.imag for z in sampled if abs(z.real) <= 1e-9)
    assert axis and axis[0] < -0.99 and -0.71 < axis[-1] < -0.70
    assert max(np.diff(axis)) <= CELL
    assert min(abs(z - (-0.975j)) for z in sampled) <= CELL


@pytest.mark.parametrize("name", ["lorentz", "lossless"])
def test_m_minus_overlay_for_other_media(name):
    problem = MEDIA[name]
    pts = _m_minus_boundary(problem, 3.0)
    assert len(pts) > 100
    for z in pts:
        members = classify(z, 3.0, problem).memberships()
        assert "M-" in members or "M+-" in members


def test_portrait_draws_the_rational_m_minus_overlay():
    pg = trace_portrait(MEDIA["lorentz"], ((-4, 4, 21), (-1.2, 0.4, 9)), 3.0, DEFAULT_TOL)
    assert pg.overlays["M-boundary"] == _m_minus_boundary(MEDIA["lorentz"], 3.0)


def _n_points_2d_by_in_n2(problem, tol):
    """The pointwise sampler _n_points replaced: in_N2 on every root."""
    pts = []
    for a in np.geomspace(1e-3, 1e3, 160):
        try:
            roots = [z for z, _ in poly_roots(eigenvalue_polynomial(math.sqrt(a), problem), tol)]
        except PencilSpectraError:
            continue
        for z in roots:
            try:
                ok, _ = in_N2(z, problem, tol)
            except PencilSpectraError:
                continue
            if ok:
                pts.append(z)
    return pts


@pytest.mark.parametrize("name", sorted(MEDIA))
def test_n_points_2d_match_the_pointwise_predicate(name):
    problem = MEDIA[name]
    assert _n_points(problem, None, DEFAULT_TOL) == _n_points_2d_by_in_n2(problem, DEFAULT_TOL)


@pytest.mark.parametrize("name", sorted(MEDIA))
def test_1d_n_overlay_is_eigen_omegas(name):
    """roots_in_set's two readers, the portrait's 1D N overlay and eigen_omegas,
    give the same points at every k of a sweep far past the acceptance suite's."""
    problem = MEDIA[name]
    for k in np.geomspace(1e-2, 1e40, 41).tolist():
        pg = trace_portrait(problem, ((0.0, 0.0, 1), (0.0, 0.0, 1)), k, DEFAULT_TOL)
        assert pg.overlays["N"] == [m.omega for m in eigen_omegas(k, problem)], k


def test_weyl_point_at_k3_is_omega_3(drude_problem):
    plane = roots_in_set(lambda t: ray_polynomial(drude_problem.plus, t), [18.0], 3.0,
                         M_PLUS, drude_problem, DEFAULT_TOL)[0].tolist()
    assert abs(max(plane, key=lambda z: (z.real, z.imag)) - 3.0) <= 1e-12


@pytest.mark.parametrize("k", [13.0, 20.0, 50.0, 1000.0])
def test_weyl_suite_finds_a_1d_point_at_large_k(drude_problem, k):
    ok, detail = _suite_weyl(drude_problem, k, DEFAULT_TOL)
    found = re.search(r"1D slope = (-?\d+\.\d+)", detail)
    assert found, detail
    assert -1.15 <= float(found.group(1)) <= -0.85
    assert ok, detail


@pytest.mark.parametrize("name", sorted(MEDIA))
@pytest.mark.parametrize("k", [1.0, 3.0, 1000.0])
def test_weyl_suite_runs_the_2d_slope_on_every_rational_medium(name, k):
    """The 2D point is the last of _n_points, which every medium of MEDIA
    has (lossy Drude, with no guided point on the negative imaginary axis, too)."""
    ok, detail = _suite_weyl(MEDIA[name], k, DEFAULT_TOL)
    found = re.search(r"2D slope = (-?\d+\.\d+)", detail)
    assert found, detail
    assert -1.15 <= float(found.group(1)) <= -0.85
    assert ok, detail


def test_weyl_suite_skips_the_2d_slope_without_a_2d_n_point():
    problem = InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.constant(3.0))
    assert _n_points(problem, None, DEFAULT_TOL) == []
    ok, detail = _suite_weyl(problem, 3.0, DEFAULT_TOL)
    assert ok and detail.endswith("no interface-guided 2D point; skipped"), detail


def test_weyl_suite_fails_without_a_1d_point():
    # a black-box plus side has no ray polynomial, so no M+ point is sampled
    problem = InterfaceProblem(DielectricModel.from_callable(lambda z: 2.0),
                               DielectricModel.drude(0.8, 1.0))
    ok, detail = _suite_weyl(problem, 3.0, DEFAULT_TOL)
    assert not ok and "no 1D plane-wave point" in detail


def _lorentz_model(w0, g, f):
    """W~ = 1 - f/(omega^2 + i g omega - w0^2), one oscillator."""
    den = [1.0, 1j * g, -w0 * w0]
    return DielectricModel.rational([1.0, 1j * g, -w0 * w0 - f], den)


_MEDIUM = st.one_of(
    st.builds(DielectricModel.constant, st.floats(1.1, 4.0)),
    st.builds(DielectricModel.drude, st.floats(0.2, 2.0), st.floats(0.0, 2.0)),
    st.builds(_lorentz_model, st.floats(0.3, 3.0), st.floats(0.0, 1.0), st.floats(0.2, 3.0)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(plus=_MEDIUM, minus=_MEDIUM, k=st.one_of(st.just(0.0), st.floats(0.1, 5.0), st.none()))
def test_ray_overlays_lie_in_their_sets(plus, minus, k):
    # k = None is the 2D pencil, whose rays are the open (0, inf)
    problem = InterfaceProblem(plus, minus)
    pg = trace_portrait(problem, ((-4, 4, 3), (-1.2, 0.4, 3)), k, DEFAULT_TOL)
    for name, label in (("M+boundary", "M+"), ("M-boundary", "M-")):
        for z in pg.overlays[name]:
            rec = classify2(z, problem) if k is None else classify(z, k, problem)
            members = rec.memberships()
            assert label in members or "M+-" in members, (name, z, rec.branch_note)


def test_m_plus_overlay_of_a_lossless_drude_plus_side():
    # W_+ = omega^2 - 2 pi 0.64 is real on the real axis: M+ there is |omega| >= sqrt(9 + 1.28 pi)
    problem = InterfaceProblem(DielectricModel.drude(0.8, 0.0), DielectricModel.constant(2.0))
    pg = trace_portrait(problem, ((-4, 4, 161), (-1.2, 0.4, 65)), 3.0, DEFAULT_TOL)
    edge = math.sqrt(9.0 + 1.28 * math.pi)
    real = [z.real for z in pg.overlays["M+boundary"] if z.imag == 0.0]
    assert min(real) < -3.0 and max(real) > 3.0
    assert all(abs(x) >= edge - 1e-9 for x in real)


def test_2d_m_plus_overlay_runs_into_the_origin(guided_2d_problem):
    # 2D: W_+ = 2 omega^2 = t over the open ray t > 0, sampled down to t = 1e-3
    pg = trace_portrait(guided_2d_problem, ((-3, 3, 3), (-2.2, 0.4, 3)), None, DEFAULT_TOL)
    plus = pg.overlays["M+boundary"]
    assert all(z.imag == 0.0 and z != 0.0 for z in plus)
    assert min(abs(z) for z in plus) <= math.sqrt(1e-3 / 2) + 1e-12
    assert max(abs(z) for z in plus) >= math.sqrt(1e3 / 2) - 1e-9
