import cmath
import math

import numpy as np
import pytest

from pencil_spectra.classify1d import classify
from pencil_spectra.classify1d import classify2
from pencil_spectra.dielectric import (
    DielectricModel,
    InterfaceProblem,
    near_omega0,
    omega0_set,
    singular_points,
    singular_set,
    w,
    wtilde,
)
from pencil_spectra.errors import (
    DegenerateInputError,
    SingularityError,
    UnsupportedModelError,
)
from tests.conftest import OMEGA0_RE

TWO_PI = 2 * math.pi


def test_wtilde_examples(drude_problem):
    drude = drude_problem.minus
    # hand evaluation: 1 - 2 pi 0.64 / ((i)^2 + i*1*i) = 1 + 2 pi 0.64 / 2
    assert abs(wtilde(drude, 1j) - 3.01062) < 5e-6
    assert wtilde(DielectricModel.constant(2.0), 0.37 - 5j) == 2.0
    with pytest.raises(SingularityError):
        wtilde(drude, 0.0)


def test_w_examples(drude_problem):
    assert w(DielectricModel.constant(2.0), 3.0) == 18.0
    assert abs(w(drude_problem.minus, 0.5j) - (-1.59041)) < 5e-6
    assert w(DielectricModel.constant(5.0 + 1j), 0.0) == 0.0


def test_singular_sets(drude_problem):
    assert singular_set(drude_problem.minus) == (-1j, 0j)
    assert singular_set(DielectricModel.constant(2.0)) == ()
    rat = DielectricModel.rational([1, -1], [1, 0, 1])  # (z-1)/(z^2+1)
    poles = singular_set(rat)
    assert len(poles) == 2
    assert min(abs(p - 1j) for p in poles) < 1e-12
    assert min(abs(p + 1j) for p in poles) < 1e-12
    # lossless limit: the two poles merge at 0
    assert singular_set(DielectricModel.drude(0.8, 0.0)) == (0j,)


def test_rational_pole_cancellation():
    # (z^2 - 1)/(z - 1) reduces to z + 1: the pole at 1 is removable
    m = DielectricModel.rational([1, 0, -1], [1, -1])
    assert singular_set(m) == ()
    assert abs(wtilde(m, 1.0) - 2.0) < 1e-9
    assert abs(wtilde(m, 3.0) - 4.0) < 1e-9


def test_omega0_drude_example(drude_problem):
    pts = omega0_set(drude_problem)
    assert len(pts) == 2
    omegas = sorted((p.omega for p in pts), key=lambda z: z.real)
    assert abs(omegas[0] - (-OMEGA0_RE - 0.5j)) < 1e-10
    assert abs(omegas[1] - (OMEGA0_RE - 0.5j)) < 1e-10
    for p in pts:
        assert p.minus_vanishes and p.wtilde_minus_zero
        assert not p.plus_vanishes


def test_omega0_constants():
    prob = InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.constant(3.0))
    pts = omega0_set(prob)
    assert len(pts) == 1 and pts[0].omega == 0
    assert pts[0].plus_vanishes and pts[0].minus_vanishes
    assert not pts[0].wtilde_plus_zero and not pts[0].wtilde_minus_zero


def test_omega0_identical_drude_counted_once():
    m = DielectricModel.drude(0.8, 1.0)
    prob = InterfaceProblem(m, m)
    pts = omega0_set(prob)
    assert len(pts) == 2  # 0 is a pole, so only the two Wt zeros, deduplicated
    for p in pts:
        assert p.plus_vanishes and p.minus_vanishes


def test_omega0_residual_invariant(drude_problem):
    for p in omega0_set(drude_problem):
        vals = [abs(w(drude_problem.plus, p.omega)), abs(w(drude_problem.minus, p.omega))]
        assert min(vals) <= 1e-10 * max(1.0, abs(p.omega) ** 2)


def test_omega0_disjoint_from_singular(drude_problem):
    poles = singular_points(drude_problem)
    for p in omega0_set(drude_problem):
        assert min(abs(p.omega - q) for q in poles) > 1e-6


def test_conjugation_symmetry():
    rng = np.random.default_rng(2)
    models = [
        DielectricModel.drude(0.8, 1.0),
        DielectricModel.constant(2.0),
        DielectricModel.rational([1, 0, -2.0], [1, 0, 3.0]),
    ]
    for m in models:
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                a = wtilde(m, -z.conjugate())
                b = wtilde(m, z)
            except SingularityError:
                continue
            assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(b))


def test_callable_model_pointwise_only():
    f = lambda om: 1.0 - 4.021238596594935 / (om * om + 1j * om)
    m = DielectricModel.from_callable(f, poles=(0.0, -1j))
    assert abs(wtilde(m, 1j) - 3.01062) < 5e-6
    with pytest.raises(SingularityError):
        wtilde(m, -1j)
    prob = InterfaceProblem(DielectricModel.constant(2.0), m)
    with pytest.raises(UnsupportedModelError):
        omega0_set(prob)


def test_constructor_validation():
    with pytest.raises(DegenerateInputError):
        DielectricModel.constant(0.0)
    with pytest.raises(ValueError):
        DielectricModel.drude(-1.0, 0.5)
    with pytest.raises(ValueError):
        DielectricModel.drude(0.8, -0.5)
    with pytest.raises(ValueError):
        DielectricModel.rational([1.0], [0.0])
    with pytest.raises(ValueError):
        DielectricModel.constant(2.0, scale=-1.0)
    with pytest.raises(ValueError):
        InterfaceProblem(DielectricModel.constant(1.0, scale=1.0),
                         DielectricModel.constant(1.0, scale=2.0))


def test_omega0_at_a_huge_numerator_root():
    # W~_- = omega - 1e200: |omega|^2 overflows at its root, the test must not
    problem = InterfaceProblem(DielectricModel.constant(2.0),
                               DielectricModel.rational([1, -1e200], [1]))
    pts = omega0_set(problem)
    assert [p.omega for p in pts] == [0j, 1e200]
    far = pts[1]
    assert far.minus_vanishes and far.wtilde_minus_zero
    assert not far.plus_vanishes and not far.wtilde_plus_zero
    assert near_omega0(problem, 1e200) == far
    assert classify(0.5j, 3.0, problem).branch_note == "reduced/resolvent"
    assert classify2(0.5j, problem).branch_note == "2D-reduced/resolvent"
    assert classify(1e200, 3.0, problem).in_omega0


def test_black_box_omega0_matches_the_rational_model():
    # the same W~_- = 1 - 1/(omega^2 + 1e-3 i) as a callable and as a rational model
    plus = DielectricModel.constant(2.0)
    box = InterfaceProblem(plus, DielectricModel.from_callable(
        lambda z: 1 - 1 / (z * z + 1e-3j), poles=[cmath.sqrt(-1e-3j), -cmath.sqrt(-1e-3j)]))
    rat = InterfaceProblem(plus, DielectricModel.rational([1, 0, 1e-3j - 1], [1, 0, 1e-3j]))
    pts = omega0_set(rat)
    assert len(pts) == 3
    for p in pts:
        assert near_omega0(box, p.omega) == p
    # W~_+ = 2 and W~_- -> 1: nothing vanishes at |omega| = 1e200
    for omega in (1e200, -1e200j, 1e300 + 1e300j):
        assert near_omega0(box, omega) is None
        assert not classify(omega, 3.0, box).in_omega0
        assert not classify2(omega, box).in_omega0
