"""The Weyl constructions are built exactly where the classifier's predicates put
omega in their sets: the 1D plane wave on in_M, the k = 0 profile on
near_omega0 with the side's W = 0 tag, the 2D bulk member on in_M2 and the 2D
interface-guided member on in_N2 with its witness a."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_spectra import InterfaceProblem, in_M, in_M2, in_N2
from pencil_spectra.complex_numerics import DEFAULT_TOL, poly_roots
from pencil_spectra.dielectric import near_omega0, omega0_set, singular_points
from pencil_spectra.errors import PencilSpectraError, PreconditionError
from pencil_spectra.modes import (
    eigenvalue_polynomial,
    ray_polynomial,
    weyl_2d_interface_report,
    weyl_sequence_1d,
    weyl_sequence_2d_bulk,
)
from pencil_spectra.trace_cli import _n_points
from tests.test_classify_array import MEDIA
from tests.test_sampled_sets import _MEDIUM


@pytest.mark.parametrize("name", sorted(MEDIA))
def test_every_sampled_2d_n_point_takes_its_interface_member(name):
    """Each point of _n_points (1,248 on the three-pole-pair medium) takes the
    guided 2D member at in_N2's witness, with a finite residual."""
    problem = MEDIA[name]
    points = _n_points(problem, None, DEFAULT_TOL)
    assert points
    for omega in points:
        assert in_N2(omega, problem)[0], omega
        rep = weyl_2d_interface_report(omega, 8, problem)
        assert math.isfinite(rep.residual_norm), omega


def _holds(predicate, *args) -> bool:
    """The predicate's answer, False where it raises (on S or Omega_0)."""
    try:
        return bool(predicate(*args))
    except PencilSpectraError:
        return False


def _accepts(construction, *args) -> bool:
    """False where the construction raises PreconditionError; any other error propagates."""
    try:
        construction(*args)
    except PreconditionError:
        return False
    return True


def _roots(q) -> list:
    try:
        return [z for z, _ in poly_roots(q)]
    except PencilSpectraError:
        return []


def _k0_profile_holds(problem, omega, side) -> bool:
    pt = near_omega0(problem, omega)
    return pt is not None and (pt.plus_vanishes if side == "+" else pt.minus_vanishes)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(plus=_MEDIUM, minus=_MEDIUM, k=st.floats(0.1, 5.0), t=st.floats(0.01, 20.0),
       re=st.floats(-4.0, 4.0), im=st.floats(-1.2, 0.4))
def test_each_construction_raises_exactly_where_its_predicate_fails(plus, minus, k, t, re, im):
    """At a drawn point, every point of S and Omega_0, the ray preimages W_pm = t and
    W_pm = k^2 + t (points of M_pm) and the roots of the eigenvalue polynomial at k
    (candidates of N^(k), and of the 2D N at a = k^2)."""
    problem = InterfaceProblem(plus, minus)
    points = [complex(re, im), *singular_points(problem), *(p.omega for p in omega0_set(problem))]
    for model in (plus, minus):
        points += _roots(ray_polynomial(model, t)) + _roots(ray_polynomial(model, k * k + t))
    points += _roots(eigenvalue_polynomial(k, problem))
    accepted = set()   # the constructions that took at least one point
    for z in points:
        for side in "+-":
            for kk in (0.0, k):
                want = _holds(in_M, side, z, kk, problem)
                assert _accepts(weyl_sequence_1d, z, kk, 8, side, "plane_wave",
                                problem) == want, ("plane_wave", z, kk, side)
                accepted |= {"plane_wave"} if want else set()
            want = _k0_profile_holds(problem, z, side)
            assert _accepts(weyl_sequence_1d, z, 0.0, 8, side, "k0_w0", problem) == want, z
            accepted |= {"k0_w0"} if want else set()
            want = _holds(in_M2, side, z, problem)
            assert _accepts(weyl_sequence_2d_bulk, z, side, 8, problem) == want, ("bulk", z)
            accepted |= {"bulk"} if want else set()
        want = _holds(lambda *a: in_N2(*a)[0], z, problem)
        assert _accepts(weyl_2d_interface_report, z, 8, problem) == want, z
    assert {"plane_wave", "k0_w0", "bulk"} <= accepted
