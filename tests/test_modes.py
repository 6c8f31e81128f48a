import math

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    dispersion_k2,
    eigen_omegas,
    eigenfunction_eval,
    in_N2,
    mode_residual,
    weyl_sequence_1d,
    wtilde,
)
from pencil_spectra.errors import (
    DegenerateDispersionError,
    PreconditionError,
    UnsupportedModelError,
)
from pencil_spectra.modes import (
    bump,
    fit_loglog_slope,
    weyl_2d_interface_report,
    weyl_field_1d,
    weyl_sequence_2d_bulk,
)
from tests.conftest import A_WITNESS, OMEGA_SP, PLASMON


def test_dispersion_examples(lossless_problem, equal_problem):
    k2 = dispersion_k2(PLASMON, lossless_problem)
    assert abs(k2 - 9.0) < 1e-9
    # interface-free: k^2 = omega^2 c/2, never an eigenvalue
    assert abs(dispersion_k2(2.0, equal_problem) - 4.0) < 1e-12
    # divergence toward the surface-plasmon asymptote
    near = dispersion_k2(OMEGA_SP * (1 + 1e-6), lossless_problem)
    assert abs(near) > 1e4
    with pytest.raises(DegenerateDispersionError):
        dispersion_k2(OMEGA_SP, lossless_problem)


def test_eigen_omegas_lossless(lossless_problem):
    modes = eigen_omegas(3.0, lossless_problem)
    assert len(modes) == 2  # the symmetric pair +-omega
    close = [m for m in modes if abs(m.omega - PLASMON) < 1e-9]
    assert len(close) == 1
    m = close[0]
    assert abs(m.mu_plus - math.sqrt(9 - 2 * PLASMON**2)) < 1e-10
    assert m.mu_plus.real > 0 and m.mu_minus.real > 0


def test_eigen_omegas_k0_and_equal(lossless_problem, equal_problem):
    assert eigen_omegas(0.0, lossless_problem) == []
    assert eigen_omegas(3.0, equal_problem) == []
    assert eigen_omegas(0.7, equal_problem) == []


def test_eigen_omegas_needs_rational():
    m = DielectricModel.from_callable(lambda om: 2.0)
    prob = InterfaceProblem(DielectricModel.constant(2.0), m)
    with pytest.raises(UnsupportedModelError):
        eigen_omegas(3.0, prob)


def test_dispersion_roundtrip(lossless_problem, guided_2d_problem):
    for prob, k in ((lossless_problem, 3.0), (lossless_problem, 5.0),
                    (guided_2d_problem, 2.0)):
        for m in eigen_omegas(k, prob):
            assert abs(dispersion_k2(m.omega, prob) - k * k) <= 1e-8 * k * k
            assert m.mu_plus.real > 0.0 and m.mu_minus.real > 0.0


def test_eigenfunction_jumps(lossless_problem):
    mode = [m for m in eigen_omegas(3.0, lossless_problem)
            if abs(m.omega - PLASMON) < 1e-9][0]
    k = mode.k
    wp = wtilde(lossless_problem.plus, mode.omega)
    wm = wtilde(lossless_problem.minus, mode.omega)
    right = eigenfunction_eval(mode, 1e-14)
    left = eigenfunction_eval(mode, -1e-14)
    assert abs(right[1] - left[1]) < 1e-10            # [psi2] = 0
    assert abs(wp * right[0] - wm * left[0]) < 1e-10  # [W~ psi1] = 0
    # derivative combination jump via the closed form
    dp = -mode.mu_plus * mode.v_plus[1] - 1j * k * mode.v_plus[0]
    dm = mode.mu_minus * mode.v_minus[1] - 1j * k * mode.v_minus[0]
    assert abs(dp - dm) < 1e-10
    assert right[2] == 0 and left[2] == 0             # psi3 = 0
    # exponential decay on the right
    vals = np.abs(eigenfunction_eval(mode, np.array([1.0, 2.0, 4.0]))[1])
    rate = np.diff(np.log(vals)) / np.array([1.0, 2.0])
    assert np.allclose(rate, -mode.mu_plus.real, rtol=1e-8)


def test_mode_residual(lossless_problem):
    grid = np.linspace(-8, 8, 321)
    grid = grid[grid != 0.0]
    modes = eigen_omegas(3.0, lossless_problem)
    for m in modes:
        assert mode_residual(m, grid, lossless_problem) <= 1e-10
    # detector sensitivity: a 1 percent perturbation is visible
    m = modes[0]
    bad = type(m)(omega=m.omega, k=m.k, mu_plus=m.mu_plus * 1.01,
                  mu_minus=m.mu_minus, v_plus=m.v_plus, v_minus=m.v_minus)
    assert mode_residual(bad, grid, lossless_problem) > 1e-3
    zero = type(m)(omega=m.omega, k=m.k, mu_plus=m.mu_plus,
                   mu_minus=m.mu_minus, v_plus=(0j, 0j), v_minus=(0j, 0j))
    assert mode_residual(zero, grid, lossless_problem) == 0.0


def test_matching_matrix_rank_one(lossless_problem, guided_2d_problem):
    for prob, k in ((lossless_problem, 3.0), (guided_2d_problem, 2.0)):
        for m in eigen_omegas(k, prob):
            wp = wtilde(prob.plus, m.omega)
            wm = wtilde(prob.minus, m.omega)
            mat = np.array([[m.mu_plus, -m.mu_minus], [wp, wm]])
            s = np.linalg.svd(mat, compute_uv=False)
            assert s[1] <= 1e-10 * s[0]


def test_weyl_1d_slope(equal_problem):
    ns = [8, 16, 32, 64]
    res = [weyl_sequence_1d(3.0, 3.0, n, "+", "plane_wave", equal_problem).residual_norm
           for n in ns]
    assert all(a > b for a, b in zip(res, res[1:]))
    slope = fit_loglog_slope(ns, res)
    assert -1.15 <= slope <= -0.85
    left = weyl_sequence_1d(3.0, 3.0, 8, "-", "plane_wave", equal_problem)
    assert left.construction == "1D-left" and left.support_center == -64


def test_weyl_1d_preconditions(equal_problem):
    with pytest.raises(PreconditionError):
        weyl_sequence_1d(0.5j, 3.0, 8, "+", "plane_wave", equal_problem)
    with pytest.raises(PreconditionError):
        weyl_sequence_1d(3.0, 3.0, 8, "+", "k0_w0", equal_problem)  # k != 0
    with pytest.raises(PreconditionError):
        weyl_sequence_1d(3.0, 0.0, 8, "+", "k0_w0", equal_problem)  # W != 0


def test_weyl_k0_precondition_at_huge_omega(equal_problem):
    # W_+ = 2 omega^2 does not vanish at 1e200; |omega|^2 overflows there
    with pytest.raises(PreconditionError):
        weyl_sequence_1d(1e200, 0.0, 8, "+", "k0_w0", equal_problem)
    with pytest.raises(PreconditionError):
        weyl_sequence_1d(-1e300j, 0.0, 8, "-", "k0_w0", equal_problem)


def test_eigen_omegas_constant_eigenvalue_polynomial():
    # W~_+ = 1/omega^2 against 2: Q = (2k^2 - 2) omega^2 + k^2 is the constant 1 at k = 1
    problem = InterfaceProblem(DielectricModel.rational([1], [1, 0, 0]),
                               DielectricModel.constant(2.0))
    assert eigen_omegas(1.0, problem) == []
    modes = eigen_omegas(1.5, problem)
    assert [md.omega.imag for md in modes] == pytest.approx([-0.3 * math.sqrt(10), 0.3 * math.sqrt(10)])


def test_weyl_k0_zero_variant(equal_problem, drude_problem):
    # omega = 0 with constant media: W vanishes exactly, residual is exactly 0
    for n in (4, 8, 16):
        s = weyl_sequence_1d(0.0, 0.0, n, "+", "k0_w0", equal_problem)
        assert s.residual_norm == 0.0 and s.construction == "1D-k0-W0"
    # at a computed zero of W~_- the residual sits at roundoff level
    from pencil_spectra import omega0_set
    om0 = omega0_set(drude_problem)[1].omega
    s = weyl_sequence_1d(om0, 0.0, 8, "-", "k0_w0", drude_problem)
    assert s.residual_norm < 1e-14


def test_weyl_norm_and_weak_limit(equal_problem):
    # ||u^(n)|| = 1 by construction of the normalized bump
    x = np.linspace(-1, 1, 20001)
    phi = bump(x)
    assert abs(np.trapezoid(phi**2, x) - 1.0) < 1e-8
    # overlap with a fixed compactly supported eta dies once supports separate
    eta_supp = np.linspace(-5.0, 5.0, 2001)
    for n in (2, 3, 4, 8):
        u = weyl_field_1d(3.0, 3.0, n, "+", "plane_wave", equal_problem, eta_supp)
        overlap = abs(np.trapezoid(u[2] * 1.0, eta_supp))
        if n >= 3:  # support [n^2 - n, n^2 + n] is disjoint from [-5, 5]
            assert overlap == 0.0


def test_weyl_2d_bulk_slope(equal_problem):
    ns = [8, 16, 32, 64]
    res = [weyl_sequence_2d_bulk(3.0, "+", n, equal_problem).residual_norm for n in ns]
    slope = fit_loglog_slope(ns, res)
    assert -1.15 <= slope <= -0.85


def test_weyl_2d_interface(guided_2d_problem):
    ok, a = in_N2(-1j, guided_2d_problem)
    assert ok and abs(a - A_WITNESS) < 1e-12
    ns = [8, 16, 32, 64]
    reps = [weyl_2d_interface_report(-1j, a, n, guided_2d_problem) for n in ns]
    res = [r.residual_norm for r in reps]
    assert all(x > y for x, y in zip(res, res[1:]))
    slope = fit_loglog_slope(ns, res)
    assert -1.15 <= slope <= -0.85
    # correction term r_n decays like 1/n as well
    corr_slope = fit_loglog_slope(ns, [r.correction_norm for r in reps])
    assert -1.15 <= corr_slope <= -0.85
    # normalization c_n stays in a fixed band
    cns = [r.normalization for r in reps]
    assert max(cns) / min(cns) < 1.5
    with pytest.raises(PreconditionError):
        weyl_2d_interface_report(-1j, a * 1.7, 8, guided_2d_problem)


def test_weyl_2d_interface_at_mode(lossless_problem):
    # a 1D mode yields the witness a = k^2; the guided sequence must accept it
    mode = [m for m in eigen_omegas(3.0, lossless_problem)
            if abs(m.omega - PLASMON) < 1e-9][0]
    rep = weyl_2d_interface_report(mode.omega, 9.0, 16, lossless_problem)
    assert rep.k0 == 3.0 and rep.residual_norm > 0


@pytest.mark.parametrize("medium", ["lossless", "rational"])
def test_eigen_omegas_are_the_reduced_N_roots(medium, lossless_problem):
    """eigen_omegas and classify agree on the roots of the eigenvalue polynomial:
    every mode is reduced/N, and every root off the pole filter that classify
    puts in reduced/N is a mode."""
    from pencil_spectra import classify
    from pencil_spectra.complex_numerics import DEFAULT_TOL, poly_roots
    from pencil_spectra.dielectric import singular_points
    from pencil_spectra.modes import eigenvalue_polynomial

    problem = lossless_problem if medium == "lossless" else InterfaceProblem(
        DielectricModel.constant(2.0),
        DielectricModel.rational([1, 0.3j, -3.14], [1, 0.3j, -0.64]))   # one Lorentz pole pair
    poles = singular_points(problem)
    pole_reach = max(DEFAULT_TOL.ray_imag_tol, 1e-9)   # eigen_omegas' own pole filter
    found = rejected = 0
    for k in np.linspace(0.05, 8.0, 160):
        k = float(k)
        modes = [m.omega for m in eigen_omegas(k, problem)]
        assert all(classify(z, k, problem).branch_note == "reduced/N" for z in modes), k
        roots = [z for z, _ in poly_roots(eigenvalue_polynomial(k, problem))]
        kept = [z for z in roots
                if not any(abs(z - p) <= pole_reach * (1.0 + abs(p)) for p in poles)
                and classify(z, k, problem).branch_note == "reduced/N"]
        assert modes == sorted(kept, key=lambda z: (z.real, z.imag)), k
        found += len(modes)
        rejected += len(roots) - len(modes)
    assert found > 0 and rejected > 0
