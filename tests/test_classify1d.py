import math

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    classify,
    in_M,
    in_N,
    omega0_set,
)
from pencil_spectra.errors import PreconditionError
from tests.conftest import OMEGA0_RE, PLASMON, QUARTIC_HI


def check_flag_invariants(rec):
    if not rec.in_domain:
        assert not any(rec.flags())
        return
    assert rec.resolvent != rec.in_spectrum
    chain = [rec.e1, rec.e2, rec.e3, rec.e4, rec.e5]
    for a, b in zip(chain, chain[1:]):
        assert (not a) or b  # e_j implies e_{j+1}
    assert not (rec.discrete and rec.e5)


def test_in_M_examples(drude_problem):
    assert in_M("+", 3.0, 3.0, drude_problem)           # W+ = 18 in [9, inf)
    assert in_M("-", -0.9j, 3.0, drude_problem)         # criterion value -2.638 < 0
    assert not in_M("-", -0.5j, 3.0, drude_problem)     # criterion value +2.614 > 0
    with pytest.raises(PreconditionError):
        in_M("+", 0.0, 3.0, drude_problem)              # pole of the minus side
    with pytest.raises(PreconditionError):
        in_M("+", OMEGA0_RE - 0.5j, 3.0, drude_problem)  # exceptional point


def test_in_N_lossless(lossless_problem):
    assert in_N(PLASMON, 3.0, lossless_problem)
    assert in_N(-PLASMON, 3.0, lossless_problem)
    # the other biquadratic root lands in M+ (W+ = 2 omega^2 > 9), so not in N
    assert not in_N(QUARTIC_HI, 3.0, lossless_problem)
    assert in_M("+", QUARTIC_HI, 3.0, lossless_problem)


def test_no_plasmons_without_interface(equal_problem):
    rng = np.random.default_rng(9)
    for _ in range(300):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) < 1e-3:
            continue
        assert not in_N(z, 3.0, equal_problem)


def test_classify_reduced_examples(drude_problem):
    rec = classify(0.5j, 3.0, drude_problem)
    assert rec.resolvent and rec.branch_note == "reduced/resolvent"
    check_flag_invariants(rec)

    rec = classify(3.0, 3.0, drude_problem)
    assert rec.weyl and rec.e1 and rec.e5 and not rec.point_finite
    assert rec.raster_class() == "M+"

    rec = classify(-0.9j, 3.0, drude_problem)
    assert rec.weyl and rec.raster_class() == "M-"


def test_classify_outside_domain(drude_problem):
    for pole in (0.0, -1j):
        rec = classify(pole, 3.0, drude_problem)
        assert not rec.in_domain
        assert rec.branch_note.startswith("S/")
        check_flag_invariants(rec)
    # which side is named
    assert "minus" in classify(-1j, 3.0, drude_problem).branch_note


def test_classify_exceptional_point_infinite(drude_problem):
    om0 = OMEGA0_RE - 0.5j
    rec = classify(om0, 3.0, drude_problem)
    assert rec.in_omega0 and rec.point_infinite
    assert rec.weyl and rec.e2 and rec.e3 and rec.e4 and rec.e5
    # W+(om0) = 2 om0^2 is far from the real ray, so e1 is off
    assert not rec.e1
    assert not rec.discrete
    check_flag_invariants(rec)


def test_classify_exceptional_point_finite():
    prob = InterfaceProblem(DielectricModel.constant(1.0), DielectricModel.constant(-1.0))
    rec = classify(0.0, 1.0, prob)
    assert rec.in_omega0 and rec.point_finite and not rec.discrete
    assert not rec.e1 and not rec.e2 and not rec.e3 and not rec.e4 and rec.e5
    assert not rec.weyl
    check_flag_invariants(rec)


def test_classify_exceptional_resolvent():
    prob = InterfaceProblem(DielectricModel.constant(1.0), DielectricModel.constant(2.0))
    rec = classify(0.0, 1.0, prob)
    assert rec.in_omega0 and rec.resolvent
    check_flag_invariants(rec)


def test_classify_exceptional_k0():
    prob = InterfaceProblem(DielectricModel.constant(1.0), DielectricModel.constant(2.0))
    rec = classify(0.0, 0.0, prob)
    assert rec.in_omega0 and rec.e1 and rec.e5 and rec.weyl and not rec.resolvent
    assert not rec.point_infinite and not rec.point_finite
    check_flag_invariants(rec)


def test_exceptional_table_all_branches():
    # plus side W~(omega) = omega - 1 hits every clause of the exceptional table
    plus = DielectricModel.rational([1, -1], [1])
    prob = InterfaceProblem(plus, DielectricModel.constant(1.0))
    omegas = sorted((p.omega for p in omega0_set(prob)), key=lambda z: z.real)
    assert np.allclose(omegas, [0.0, 1.0])

    # omega = 0: W~+ + W~- = 0 -> finite-multiplicity point, e5 \ e4
    rec = classify(0.0, 2.0, prob)
    assert rec.point_finite and rec.e5 and not rec.e4 and not rec.weyl

    # omega = 1, k = 2: W~+ = 0 and W_-(1) = 1 not in [4, inf): e2 \ e1
    rec = classify(1.0, 2.0, prob)
    assert rec.point_infinite and rec.weyl and rec.e2 and not rec.e1

    # omega = 1, k = 0.5: W_-(1) = 1 in [0.25, inf): e1 too
    rec = classify(1.0, 0.5, prob)
    assert rec.point_infinite and rec.e1

    # k = 0 on the exceptional set: everything is essential
    rec = classify(1.0, 0.0, prob)
    assert rec.e1 and rec.e5 and rec.weyl and not rec.resolvent
    for om, k in ((0.0, 2.0), (1.0, 2.0), (1.0, 0.5), (1.0, 0.0), (0.0, 0.0)):
        check_flag_invariants(classify(om, k, prob))


def test_near_omega0_flagged(drude_problem):
    om0 = OMEGA0_RE - 0.5j
    rec = classify(om0 + 1e-12, 3.0, drude_problem)
    assert rec.in_omega0 and "near-Omega0" in rec.branch_note


def test_fuzz_invariants_and_disjointness():
    rng = np.random.default_rng(1234)
    problems = [
        InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
        InterfaceProblem(DielectricModel.constant(1.5), DielectricModel.drude(1.1, 0.3)),
        InterfaceProblem(DielectricModel.drude(0.5, 0.7), DielectricModel.drude(0.9, 1.3)),
        InterfaceProblem(DielectricModel.constant(3.0), DielectricModel.constant(-2.0)),
    ]
    for prob in problems:
        for _ in range(400):
            z = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
            k = float(rng.choice([0.0, 0.7, 3.0, rng.uniform(0.1, 6.0)]))
            rec = classify(z, k, prob)
            check_flag_invariants(rec)
            if rec.in_domain and not rec.in_omega0:
                both = (in_M("+", z, k, prob) or in_M("-", z, k, prob)) and in_N(z, k, prob)
                assert not both  # the reduced union is disjoint


def test_conjugate_symmetry(drude_problem):
    rng = np.random.default_rng(77)
    for _ in range(300):
        z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        rec1 = classify(z, 3.0, drude_problem)
        rec2 = classify(-z.conjugate(), 3.0, drude_problem)
        assert rec1.flags() == rec2.flags()


def test_N0_empty():
    rng = np.random.default_rng(13)
    problems = [
        InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
        InterfaceProblem(DielectricModel.constant(1.0), DielectricModel.constant(-3.0)),
    ]
    for prob in problems:
        for _ in range(300):
            z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
            rec = classify(z, 0.0, prob)
            assert not rec.point_finite and not rec.discrete


def test_modes_are_classified_discrete(lossless_problem):
    from pencil_spectra import eigen_omegas

    for mode in eigen_omegas(3.0, lossless_problem):
        rec = classify(mode.omega, 3.0, lossless_problem)
        assert rec.point_finite and rec.discrete and not rec.weyl


def test_classify_callable_model_pointwise():
    f = lambda om: 1.0 - 2 * math.pi * 0.64 / (om * om + 1j * om)
    m = DielectricModel.from_callable(f, poles=(0.0, -1j))
    prob = InterfaceProblem(DielectricModel.constant(2.0), m)
    assert classify(0.5j, 3.0, prob).resolvent
    assert classify(3.0, 3.0, prob).weyl
    assert not classify(-1j, 3.0, prob).in_domain
    rec = classify(OMEGA0_RE - 0.5j, 3.0, prob)
    assert rec.in_omega0 and rec.point_infinite
