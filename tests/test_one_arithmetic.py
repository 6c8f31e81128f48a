"""Consistency by construction: every scalar entry point decides the reduced
branch on one-element numpy arrays, so it agrees with classify_array at every
omega, and a black-box medium is evaluated once per classified point.

The points are a grid, a sample of test_complex_numerics._awkward_values()
(the whole float range, zeros, subnormals, inf and NaN) and the preimages
of the ray edges W_side = k^2 + s ray_real_tol, on lossy Drude, lossless
Drude and the three-pole-pair medium, at k in {1, 3, 1000} and in 2D."""

import numpy as np
import pytest

from pencil_spectra import (DielectricModel, InterfaceProblem, classify, classify2, in_M, in_M2,
                            in_N, in_N2, weyl_sequence_1d)
from pencil_spectra import classify1d, modes
from pencil_spectra.classify1d import IN_N, M_MINUS, M_PLUS, REDUCED, classify_array
from pencil_spectra.complex_numerics import DEFAULT_TOL, cabs, poly_roots
from pencil_spectra.dielectric import omega0_set, singular_points, w_values
from pencil_spectra.errors import PreconditionError
from pencil_spectra.modes import ray_polynomial, weyl_2d_interface_report, weyl_sequence_2d_bulk
from tests.test_classify_array import MEDIA
from tests.test_complex_numerics import _awkward_values, _same_bits

NAMES = ["drude", "lossless", "lorentz"]
KS = [1.0, 3.0, 1000.0, None]


def _ray_edge_points(problem, k):
    """Roots of ray_polynomial at t = k^2 + s ray_real_tol (k=None: k = 0) on both sides.
    At the ray tests' thresholds s = -1 (the closed ray) and s = 1 (the open ray at
    k = 0), t also moves by up to 4 ulps, so that the last bit of W decides."""
    k2 = 0.0 if k is None else k * k
    pts = []
    for model in (problem.plus, problem.minus):
        for s in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            t = k2 + s * DEFAULT_TOL.ray_real_tol
            for j in (range(-4, 5) if abs(s) == 1.0 else [0]):
                q = ray_polynomial(model, t + j * np.spacing(t))
                pts += [z for z, _ in poly_roots(q)]
    return pts


def _points(problem, k):
    re, im = np.linspace(-4.0, 4.0, 17), np.linspace(-1.2, 0.4, 9)
    grid = (re[None, :] + 1j * im[:, None]).ravel()
    awkward = _awkward_values()
    sample = np.concatenate([awkward[:40000:200], awkward[40000:][::4]])
    return np.concatenate([grid, sample, np.array(_ray_edge_points(problem, k), dtype=complex)])


def _accepts(fn, *args):
    try:
        fn(*args)
    except PreconditionError:
        return False
    return True


def _raises(fn, *args):
    try:
        fn(*args)
    except PreconditionError:
        return True
    return False


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("k", KS, ids=["k1", "k3", "k1000", "2D"])
def test_scalar_entry_points_are_classify_array(name, k):
    problem = MEDIA[name]
    points = _points(problem, k)
    res = classify_array(points, k, problem)
    dim = 2 if k is None else 1
    reduced = 0
    for i, z in enumerate(points.tolist()):
        rec = res.record(i)
        assert rec == (classify2(z, problem) if k is None else classify(z, k, problem)), z
        if rec not in REDUCED[dim]:   # on S or Omega_0: the predicates refuse omega
            if k is None:
                assert _raises(in_M2, "+", z, problem) and _raises(in_N2, z, problem), z
            else:
                assert _raises(in_M, "-", z, k, problem) and _raises(in_N, z, k, problem), z
            continue
        code = REDUCED[dim].index(rec)
        reduced += 1
        if k is None:
            m_bits = [in_M2(side, z, problem) for side in "+-"]
            assert in_N2(z, problem)[0] == bool(code & IN_N), z
            weyl = [_accepts(weyl_sequence_2d_bulk, z, side, 8, problem) for side in "+-"]
        else:
            m_bits = [in_M(side, z, k, problem) for side in "+-"]
            assert in_N(z, k, problem) == bool(code & IN_N), z
            weyl = [_accepts(weyl_sequence_1d, z, k, 8, side, "plane_wave", problem)
                    for side in "+-"]
        assert m_bits == [bool(code & M_PLUS), bool(code & M_MINUS)] == weyl, z
    assert reduced > points.size // 2


@pytest.mark.parametrize("name", NAMES)
def test_w_values_of_an_array_is_the_one_element_call(name):
    problem = MEDIA[name]
    poles = singular_points(problem)
    z = np.concatenate([_points(problem, k) for k in KS])
    z = z[[min((cabs(v - p) for p in poles), default=np.inf) > 1e-10 for v in z.tolist()]]
    with np.errstate(all="ignore"):
        whole = w_values(problem, z)
        for i in range(z.size):
            for got, one in zip(whole, w_values(problem, z[i:i + 1])):
                assert _same_bits(got[i].real, one[0].real) and _same_bits(got[i].imag, one[0].imag)


def _counting_drude():
    model = DielectricModel.drude(0.8, 1.0)
    calls = []

    def func(omega):
        calls.append(omega)
        return model.scale * (model.background - 2.0 * np.pi * model.omega_p ** 2
                              / (omega * omega + 1j * model.gamma * omega))

    return DielectricModel.from_callable(func, poles=[0.0, -1j]), calls


def test_a_black_box_is_evaluated_once_per_classified_point():
    minus, calls = _counting_drude()
    problem = InterfaceProblem(DielectricModel.constant(2.0), minus)
    for omega in (0.3 + 0.4j, 1.2 - 0.3j, 2.0 + 0j):
        calls.clear()
        classify(omega, 3.0, problem)
        assert len(calls) == 1
        calls.clear()
        classify2(omega, problem)
        assert len(calls) == 1


def test_a_rational_classify_evaluates_scalar_w_only_on_omega0(monkeypatch):
    """Scalar w_values (CPython's arithmetic) feed only the exceptional table of a rational
    medium: classify and classify2 make no such call off Omega_0 and one on it, and the
    predicates in_M, in_N, in_M2 and in_N2 (defined off Omega_0) make none."""
    scalar = []

    def counting(problem, omega, tol=DEFAULT_TOL):
        if not isinstance(omega, np.ndarray):
            scalar.append(omega)
        return w_values(problem, omega, tol)

    monkeypatch.setattr(classify1d, "w_values", counting)
    problem = MEDIA["drude"]
    z0 = min((p.omega for p in omega0_set(problem)), key=lambda z: abs(z - (-1.94197 - 0.5j)))
    assert abs(z0 - (-1.94197 - 0.5j)) < 1e-5
    for omega, calls in ((0.3 + 0.4j, 0), (z0, 1)):
        for run in (lambda: classify(omega, 3.0, problem), lambda: classify2(omega, problem)):
            scalar.clear()
            run()
            assert len(scalar) == calls, omega
    for run in (lambda: in_M("-", 0.3 + 0.4j, 3.0, problem), lambda: in_N(0.3 + 0.4j, 3.0, problem),
                lambda: in_M2("+", 0.3 + 0.4j, problem), lambda: in_N2(0.3 + 0.4j, problem)):
        scalar.clear()
        run()
        assert scalar == []


def test_the_set_tests_receive_only_numpy_arrays(monkeypatch):
    """_reduced_codes, _n_identity_holds and _n2_witness, patched to assert that every
    W argument is a numpy array, through the scalar entry points, the Weyl
    constructions and a black-box classify."""
    seen = []

    def checked(fn, n_w):
        def wrapper(*args, **kwargs):
            assert all(isinstance(a, np.ndarray) for a in args[:n_w]), (fn.__name__, args)
            seen.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (classify1d, modes):
        for fn, n_w in ((classify1d._reduced_codes, 4), (classify1d._n_identity_holds, 4),
                        (classify1d._n2_witness, 2)):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, checked(fn, n_w))
    problem = MEDIA["drude"]
    mode = modes.eigen_omegas(3.0, problem)[0]
    for z in (0.3 + 0.4j, 1.2 - 0.3j, 3.0 + 0j, mode.omega):
        classify(z, 3.0, problem)
        classify2(z, problem)
        in_M("+", z, 3.0, problem), in_N(z, 3.0, problem)
        in_M2("-", z, problem), in_N2(z, problem)
        _accepts(weyl_sequence_1d, z, 3.0, 8, "+", "plane_wave", problem)
        _accepts(weyl_sequence_2d_bulk, z, "+", 8, problem)
    assert in_N2(mode.omega, problem)[0]
    weyl_2d_interface_report(mode.omega, 8, problem)
    black_box = InterfaceProblem(DielectricModel.constant(2.0), _counting_drude()[0])
    classify(0.3 + 0.4j, 3.0, black_box)
    classify2(0.3 + 0.4j, black_box)
    assert {"_reduced_codes", "_n_identity_holds", "_n2_witness"} <= set(seen)
