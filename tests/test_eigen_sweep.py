"""eigen_sweep and mode_residuals, the array passes over a whole k sweep, held
to the scalar decisions they replace and, within the rounding bounds of their
formulas, to the scalar formulas; and the N identity, the polynomial roots and
the CLI's k parser where squares overflow the float range."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil_spectra import (DielectricModel, InterfaceProblem, PlasmonMode, classify, eigen_omegas,
                            mode_residual)
from pencil_spectra.classify1d import _n_identity_holds, _reduced_codes
from pencil_spectra.complex_numerics import (DEFAULT_TOL, cabs, in_open_positive_ray, in_ray,
                                             poly_roots, trim_leading)
from pencil_spectra.dielectric import omega0_set, singular_points, w_values, wtilde
from pencil_spectra.errors import DegenerateInputError
from pencil_spectra.modes import (_make_mode, eigen_sweep, eigenvalue_polynomial, mode_residuals,
                                  ray_polynomial)
from pencil_spectra.trace_cli import main
from tests.test_one_evaluator import _gamma, _wtilde_bound

POLE_REACH = max(DEFAULT_TOL.ray_imag_tol, 1e-9)    # eigen_sweep's pole filter
INVERSE_SQUARE = DielectricModel.rational([1], [1, 0, 0])   # W~ = 1/omega^2


def _lorentz(oscillators):
    """W~ = 1 - sum_j f_j / (omega^2 + i g_j omega - w_j^2), as one rational."""
    quads = [np.array([1.0, 1j * g, -w0 * w0]) for w0, g, _ in oscillators]
    den = np.array([1 + 0j])
    for q in quads:
        den = np.polymul(den, q)
    num = den.copy()
    for j, (_, _, f) in enumerate(oscillators):
        rest = np.array([1 + 0j])
        for i, q in enumerate(quads):
            if i != j:
                rest = np.polymul(rest, q)
        num = np.polysub(num, f * rest)
    return DielectricModel.rational(num, den)


THREE_POLE_PAIRS = InterfaceProblem(
    DielectricModel.constant(2.0),
    _lorentz([(0.8, 0.3, 1.0), (1.6, 0.4, 1.5), (2.6, 0.5, 2.0)]))

_MEDIUM = st.one_of(
    st.builds(DielectricModel.constant, st.floats(1.1, 4.0)),
    st.builds(DielectricModel.drude, st.floats(0.2, 2.0), st.floats(0.0, 2.0)),
    st.builds(lambda w0, g, f: _lorentz([(w0, g, f)]),
              st.floats(0.3, 3.0), st.floats(0.0, 1.0), st.floats(0.2, 3.0)),
    st.just(INVERSE_SQUARE),
)
# every sweep holds k = 0, k = 1 (where the inverse-square medium against a
# constant has a constant eigenvalue polynomial) and a repeated k
_SWEEP = st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=6).map(
    lambda ks: ks + [0.0, 1.0] + ks[:1])


def _reduced_n_roots(k, problem):
    """The eigenvalue-polynomial roots off the pole reach that classify puts in reduced/N."""
    q = trim_leading(eigenvalue_polynomial(k, problem))
    if k == 0.0 or len(q) == 1:
        return []
    poles = singular_points(problem)
    kept = [z for z, _ in poly_roots(q)
            if not any(abs(z - p) <= POLE_REACH * (1.0 + abs(p)) for p in poles)
            and classify(z, k, problem).branch_note == "reduced/N"]
    return sorted(kept, key=lambda z: (z.real, z.imag))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(plus=_MEDIUM, minus=_MEDIUM, ks=_SWEEP)
@example(plus=INVERSE_SQUARE, minus=DielectricModel.constant(2.0), ks=[1.5, 0.0, 1.0, 1.5])
# W~_- = -W~_+: the eigenvalue polynomial is 4 omega^2, whose root 0 lies in
# Omega_0, where the unsquared identity holds and the rays are missed
@example(plus=DielectricModel.constant(2.0), minus=DielectricModel.constant(-2.0),
         ks=[0.5, 0.0, 1.0, 0.5])
def test_eigen_sweep_is_the_scalar_filter_chain(plus, minus, ks):
    problem = InterfaceProblem(plus, minus)
    sweep = eigen_sweep(ks, problem)
    assert len(sweep) == len(ks)
    for k, modes in zip(ks, sweep):
        assert [m.omega for m in modes] == _reduced_n_roots(k, problem), k
        # each record is built from the one-element call's W values, and a k's
        # modes do not depend on the rest of the sweep
        one = [[v.tolist()[0] for v in w_values(problem, np.array([m.omega]))[2:]] for m in modes]
        assert modes == [_make_mode(m.omega, k, *ws) for m, ws in zip(modes, one)]
        assert modes == eigen_omegas(k, problem)
        # the scalar W values (CPython's arithmetic) lie within the bound of the
        # formula W = omega^2 W~ (test_w_values_at_an_array_is_the_scalar_formula_bit_for_bit)
        for m, ws in zip(modes, one):
            zz = abs(m.omega) ** 2
            for model, w_arr, w_ref in zip((plus, minus), ws, w_values(problem, m.omega)[2:]):
                b = zz * _wtilde_bound(model, [m.omega])[0] + _gamma(6) * abs(w_ref)
                assert abs(w_arr - w_ref) <= 2.0 * b


def test_eigen_sweep_constant_polynomial_and_k0():
    problem = InterfaceProblem(INVERSE_SQUARE, DielectricModel.constant(2.0))
    assert trim_leading(eigenvalue_polynomial(1.0, problem)) == (1 + 0j,)
    none_at_1, none_at_0, pair, again = eigen_sweep([1.0, 0.0, 1.5, 1.5], problem)
    assert none_at_1 == [] and none_at_0 == []
    assert len(pair) == 2 and again == pair
    assert eigen_sweep([], problem) == []


def test_reduced_codes_take_one_k_per_point(drude_problem):
    """An array of k decides each point as the scalar call at its own k, k = 0
    (open rays) included."""
    rng = np.random.default_rng(7)
    ks = rng.choice([0.0, 0.7, 2.0, 3.0], 300).tolist()
    cases = list(zip((rng.uniform(-4, 4, 300) + 1j * rng.uniform(-1, 1, 300)).tolist(), ks))
    for k in (0.0, 0.7, 2.0, 3.0):
        cases += [(m.omega, k) for m in eigen_omegas(k, drude_problem)]           # N
        for model in (drude_problem.plus, drude_problem.minus):                   # M+, M-
            cases += [(z, k) for z, _ in poly_roots(ray_polynomial(model, k * k + 1.0))
                      if min(abs(z - p) for p in singular_points(drude_problem)) > 1e-6]
        # W_- = 0 (the endpoint of the k = 0 rays, open there) and points below the rays
        cases += [(p.omega, k) for p in omega0_set(drude_problem)] + [(0.3 + 0j, k), (-3 + 0j, k)]
        cases += [(1e-6 + 0j, k)]     # W_+ = 2e-12, inside the ray slack of 0
    values = [w_values(drude_problem, z) for z, _ in cases]
    expect = [_reduced_codes(*v, k, DEFAULT_TOL) for v, (_, k) in zip(values, cases)]
    arrays = [np.array(col) for col in zip(*values)]
    got = _reduced_codes(*arrays, np.array([k for _, k in cases]), DEFAULT_TOL)
    assert got.tolist() == expect
    assert {0, 1, 2, 4} <= set(expect)
    # the M bits: the closed ray [k^2, inf), or the open (0, inf) at k = 0
    ray = [in_open_positive_ray if k == 0.0 else lambda w, k=k: in_ray(w, k * k)
           for _, k in cases]
    assert [bool(c & 1) for c in expect] == [r(v[2]) for r, v in zip(ray, values)]
    assert [bool(c & 2) for c in expect] == [r(v[3]) for r, v in zip(ray, values)]


def _reference_residual(mode, grid, problem, tol=DEFAULT_TOL):
    """The per-mode residual formula that mode_residuals replaces, kept verbatim."""
    x = np.asarray(grid, dtype=float)
    k = mode.k
    worst = 0.0
    for sign in (1.0, -1.0):
        sel = x > 0 if sign > 0 else x < 0
        if not np.any(sel):
            continue
        mu = mode.mu_plus if sign > 0 else mode.mu_minus
        v = mode.v_plus if sign > 0 else mode.v_minus
        m = -mu if sign > 0 else mu  # psi = v e^(m x1)
        w_side = mode.k**2 - mu**2
        r1 = (k * k - w_side) * v[0] + 1j * k * m * v[1]
        r2 = 1j * k * m * v[0] - m * m * v[1] - w_side * v[1]
        env = np.abs(np.exp(m * x[sel]))
        res = math.hypot(abs(r1), abs(r2)) * env
        worst = max(worst, float(res.max()))

    wt_p = wtilde(problem.plus, mode.omega, tol)
    wt_m = wtilde(problem.minus, mode.omega, tol)
    psi_p = np.array(mode.v_plus)
    psi_m = np.array(mode.v_minus)
    jump_wu1 = abs(wt_p * psi_p[0] - wt_m * psi_m[0])
    jump_u2 = abs(psi_p[1] - psi_m[1])
    dpsi2_p = -mode.mu_plus * psi_p[1]
    dpsi2_m = mode.mu_minus * psi_m[1]
    jump_comb = abs((dpsi2_p - 1j * k * psi_p[0]) - (dpsi2_m - 1j * k * psi_m[0]))
    return max(worst, float(jump_wu1), float(jump_u2), float(jump_comb))


def _eigen_grid():
    grid = np.linspace(-8.0, 8.0, 257)     # the grid of the eigen command
    return grid[grid != 0.0]


def _residual_bound(mode, grid, problem):
    """A priori bound, to first order, on the rounding error of either the array
    residual or _reference_residual against the exact value of the formula.

    A complex product errs by at most gamma_3 relative (Higham, Lemma 3.5) and a
    sum by u, so an expression of depth d errs by at most gamma_3d times its
    value with every operand replaced by its modulus and every difference by a
    sum. With A = |k|^2 + |m|^2 (for W_side = k^2 - m^2, within gamma_4 A), the
    side terms r1 and r2 err by at most gamma_9 (|k|^2 + A)|v0| + gamma_9 |k||m||v1|
    and gamma_9 (|k||m||v0| + |m|^2|v1| + A|v1|); hypot and the envelope add
    gamma_3, so a side errs by at most gamma_12 (that sum) max_x |e^(m x)|. The
    jumps err by at most |v0| dW~ + gamma_8 |W~||v0| per side (dW~ from
    _wtilde_bound) and gamma_8 (|mu_+||v_+1| + |k||v_+0| + |mu_-||v_-1| + |k||v_-0|).
    A max of terms errs by at most the largest term error."""
    x = np.asarray(grid, dtype=float)
    k = mode.k
    errs = []
    for sel, m, v in ((x > 0, -mode.mu_plus, mode.v_plus), (x < 0, mode.mu_minus, mode.v_minus)):
        if not np.any(sel):
            continue
        a = k * k + abs(m) ** 2
        env = float(np.abs(np.exp(m * x[sel])).max())
        e1 = (k * k + a) * abs(v[0]) + abs(k) * abs(m) * abs(v[1])
        e2 = abs(k) * abs(m) * abs(v[0]) + abs(m) ** 2 * abs(v[1]) + a * abs(v[1])
        errs.append(_gamma(12) * (e1 + e2) * env)
    jump = 0.0
    for model, v in ((problem.plus, mode.v_plus), (problem.minus, mode.v_minus)):
        jump += abs(v[0]) * (_wtilde_bound(model, [mode.omega])[0]
                             + _gamma(8) * abs(wtilde(model, mode.omega)))
    errs.append(jump)
    errs.append(_gamma(8) * (abs(mode.mu_plus) * abs(mode.v_plus[1]) + abs(k) * abs(mode.v_plus[0])
                             + abs(mode.mu_minus) * abs(mode.v_minus[1])
                             + abs(k) * abs(mode.v_minus[0])))
    return max(errs)


def _assert_residuals_match(cases, grid, problem):
    """mode_residuals against _reference_residual within twice _residual_bound
    (both err by at most the bound), and bitwise the one-mode mode_residual."""
    got = mode_residuals(cases, grid, problem)
    for g, md in zip(got.tolist(), cases):
        r = _reference_residual(md, grid, problem)
        assert abs(g - r) <= 2.0 * _residual_bound(md, grid, problem), (md, g, r)
    assert _bitwise(got) == _bitwise(mode_residual(md, grid, problem) for md in cases)
    return got


def _bitwise(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("sweep", ["linspace", "27-bit"])
def test_mode_residuals_bitwise_on_a_three_pole_pair_sweep(sweep):
    # k with 27 significant bits: there CPython's k**2 (pow) and k*k round
    # differently for about one k in ten
    ks = np.linspace(0.6, 6.0, 400)
    if sweep == "27-bit":
        frac, exp = np.frexp(ks)
        ks = np.ldexp(np.floor(frac * 2**27) / 2**27, exp)
    modes = [m for ms in eigen_sweep(ks.tolist(), THREE_POLE_PAIRS) for m in ms]
    assert len(modes) == 3200
    # the same modes with mu_+ off by about 1e-3: the residual on the grid then
    # dominates the jumps
    rng = np.random.default_rng(3)
    off = [type(m)(omega=m.omega, k=m.k, mu_plus=m.mu_plus * (1 + 1e-3 * rng.standard_normal()),
                   mu_minus=m.mu_minus, v_plus=m.v_plus, v_minus=m.v_minus) for m in modes]
    grid = _eigen_grid()
    for cases in (modes, off):
        _assert_residuals_match(cases, grid, THREE_POLE_PAIRS)


def _full_grid_residuals(modes, grid, problem):
    """mode_residuals with each side's envelope taken at every grid node: the reference
    that its two extreme nodes must reproduce."""
    x = np.asarray(grid, dtype=float)
    k, omega, mu_p, mu_m, vp0, vp1, vm0, vm1 = np.array(
        [(md.k, md.omega, md.mu_plus, md.mu_minus, *md.v_plus, *md.v_minus)
         for md in modes], dtype=complex).reshape(-1, 8).T
    ik = 1j * k
    parts = []
    with np.errstate(all="ignore"):
        for sel, m, v0, v1 in ((x > 0, -mu_p, vp0, vp1), (x < 0, mu_m, vm0, vm1)):
            w_side = k * k - m * m
            r1 = (k * k - w_side) * v0 + ik * m * v1
            r2 = ik * m * v0 - m * m * v1 - w_side * v1
            env = np.abs(np.exp(m[:, None] * x[sel]))
            env *= np.hypot(cabs(r1), cabs(r2))[:, None]
            parts.append(env.max(axis=1))
        parts += [cabs(wtilde(problem.plus, omega) * vp0 - wtilde(problem.minus, omega) * vm0),
                  cabs(vp1 - vm1),
                  cabs((-mu_p * vp1 - ik * vp0) - (mu_m * vm1 - ik * vm0))]
    return np.max(parts, axis=0)


@pytest.mark.parametrize("medium", ["lossy Drude", "three-pole-pair"])
def test_mode_residuals_bitwise_the_full_grid(medium, drude_problem):
    """The two extreme nodes of each side against every node, bitwise, on an `eigen` sweep
    and its modes with mu_+ off by about 1e-3; a NaN mu gives NaN either way."""
    problem = drude_problem if medium == "lossy Drude" else THREE_POLE_PAIRS
    modes = [m for ms in eigen_sweep(np.linspace(0.5, 6.0, 200).tolist(), problem) for m in ms]
    rng = np.random.default_rng(5)
    off = [type(m)(omega=m.omega, k=m.k, mu_plus=m.mu_plus * (1 + 1e-3 * rng.standard_normal()),
                   mu_minus=m.mu_minus, v_plus=m.v_plus, v_minus=m.v_minus) for m in modes]
    m = modes[0]
    nan = type(m)(omega=m.omega, k=m.k, mu_plus=complex(math.nan, 1.0), mu_minus=m.mu_minus,
                  v_plus=m.v_plus, v_minus=m.v_minus)
    grid = _eigen_grid()
    for cases in (modes, off, [*modes[:3], nan]):
        got = mode_residuals(cases, grid, problem)
        assert _bitwise(got) == _bitwise(_full_grid_residuals(cases, grid, problem))
    assert math.isnan(got[-1]) and not np.isnan(got[:-1]).any()


def test_mode_residuals_bitwise_on_perturbed_and_zero_modes(lossless_problem):
    grid = np.linspace(-8, 8, 321)
    grid = grid[grid != 0.0]
    modes = eigen_omegas(3.0, lossless_problem)
    m = modes[0]
    bad = type(m)(omega=m.omega, k=m.k, mu_plus=m.mu_plus * 1.01,
                  mu_minus=m.mu_minus, v_plus=m.v_plus, v_minus=m.v_minus)
    zero = type(m)(omega=m.omega, k=m.k, mu_plus=m.mu_plus,
                   mu_minus=m.mu_minus, v_plus=(0j, 0j), v_minus=(0j, 0j))
    cases = modes + [bad, zero]
    got = _assert_residuals_match(cases, grid, lossless_problem).tolist()
    assert got[-2] > 1e-3 and got[-1] == 0.0
    # one side of the interface only, and no modes at all
    _assert_residuals_match(cases, grid[grid > 0], lossless_problem)
    assert mode_residuals([], grid, lossless_problem).shape == (0,)


def test_mode_residuals_bitwise_on_random_records(lossless_problem):
    """Records that are no modes, so that each of the five terms is the largest for some."""
    rng = np.random.default_rng(11)

    def c(scale=1.0):
        return complex(*(scale * rng.standard_normal(2)))

    cases = [PlasmonMode(omega=c(2.0), k=float(rng.uniform(0.1, 5.0)), mu_plus=c(), mu_minus=c(),
                         v_plus=(c(), c(0.01 * j)), v_minus=(c(), c(0.01 * j)))
             for j in range(300)]
    grid = np.linspace(-2, 2, 41)
    grid = grid[grid != 0.0]
    _assert_residuals_match(cases, grid, lossless_problem)


# -- where k^2, W or the identity's terms leave the float range -----------------


def test_n_identity_fails_beyond_the_float_range():
    inf = math.inf
    assert not _n_identity_holds(1 + 0j, 1 + 0j, complex(-inf, 0), complex(-inf, 0), 9.0,
                                 DEFAULT_TOL)
    assert not _n_identity_holds(2 + 0j, 1 + 0j, 1 + 0j, 1 + 0j, inf, DEFAULT_TOL)
    assert _n_identity_holds(2 + 0j, -2 + 0j, -1 + 0j, -1 + 0j, 9.0, DEFAULT_TOL)


@pytest.mark.parametrize("omega, k", [
    (1e154j, 3.0),
    (0.1 + 0.5j, 1.4e154), (0.5 + 0.25j, 1.4e154), (-0.3 + 0.9j, 1e160), (0.5 - 0.5j, 1e160),
])
def test_overflowing_squares_are_not_plasmons(drude_problem, omega, k):
    assert classify(omega, k, drude_problem).branch_note != "reduced/N"


@pytest.mark.parametrize("coeffs", [
    [1.0, math.inf, 2.0], [complex(1.0, math.nan), 0.0, 1.0], [1.0, 0.0, -math.inf]])
def test_poly_roots_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(DegenerateInputError):
        poly_roots(coeffs)


def test_eigen_sweep_at_an_overflowing_k_raises_a_package_error(drude_problem):
    with pytest.raises(DegenerateInputError):
        eigen_sweep([3.0, 1e160], drude_problem)


# the quasi-static plasmons W~_+ + W~_- = 0 that the modes approach as k grows
_LARGE_K_MODES = {
    "drude": [-1.0442283589 - 0.5j, 1.0442283589 - 0.5j],
    "three-pole-pair": [-2.73508739543 - 0.248456715255j, -1.73220385945 - 0.199781967287j,
                        -0.923819138118 - 0.151761317458j, 0.923819138118 - 0.151761317458j,
                        1.73220385945 - 0.199781967287j, 2.73508739543 - 0.248456715255j],
}


@pytest.mark.parametrize("medium, k", [("drude", 1e32), ("drude", 1e100),
                                       ("three-pole-pair", 1e33), ("three-pole-pair", 1e40)])
def test_eigen_sweep_keeps_the_plasmons_at_large_k(drude_problem, medium, k):
    """The eigenvalue polynomial's roots lie some 30 to 100 orders of magnitude
    apart (the plasmons near 1, the light-line pair near k); the plasmons are
    found at such a k alone, and beside k = 3 in one sweep."""
    problem = drude_problem if medium == "drude" else THREE_POLE_PAIRS
    expect = _LARGE_K_MODES[medium]
    for modes in (eigen_omegas(k, problem), eigen_sweep([3.0, k], problem)[1]):
        got = [m.omega for m in modes]
        assert len(got) == len(expect), got
        assert all(abs(z - e) < 1e-9 for z, e in zip(got, expect)), got


DRUDE_CFG = """\
[plus]
kind = "constant"
value = 2.0

[minus]
kind = "drude"
omega_p = 0.8
gamma = 1.0
"""


@pytest.mark.parametrize("argv", [
    ["classify", "--omega", "0.1,0.5", "--k", "1e160"],
    ["classify", "--omega", "0.1,0.5", "--k=-1.4e154"],
    ["trace", "--grid=-1:1:5,-1:1:5", "--k", "1e160", "--no-overlays"],
    ["trace", "--grid=-1:1:5,-1:1:5", "--k", "1e160"],
    ["resolve", "--omega", "0.1,0.5", "--k", "1e160"],
    ["resolve", "--omega=0.5,-0.5", "--k", "1e160"],
    ["eigen", "--k", "1e160"],
    ["eigen", "--k", "1:1e160:3"],
    ["eigen", "--k=-1e155:1:3"],
    ["check", "--k", "1e160"],
])
def test_k_with_an_overflowing_square_is_a_usage_error(tmp_path, capsys, argv):
    cfg = tmp_path / "drude.cfg"
    cfg.write_text(DRUDE_CFG)
    args = argv[:1] + ["--config", str(cfg)] + argv[1:]
    if argv[0] in ("eigen", "trace", "resolve"):
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --k must have a finite square") and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_largest_k_with_a_finite_square_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "drude.cfg"
    cfg.write_text(DRUDE_CFG)
    assert main(["classify", "--config", str(cfg), "--omega", "0.1,0.5", "--k", "1.34e154"]) == 0
    assert "reduced/resolvent" in capsys.readouterr().out
