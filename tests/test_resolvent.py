import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pencil_spectra
from pencil_spectra import DielectricModel, InterfaceProblem, solve, verify
from pencil_spectra.errors import SpectralPointError
from pencil_spectra.modes import bump
from pencil_spectra.resolvent import (
    RhsField,
    _cumulative_integral,
    _exp_kernels,
    _gl_cell,
    load_field_csv,
    make_grid,
    save_field_csv,
    suggest_half_length,
)


def _bump_rhs(grid, k, center=1.5, width=0.5, support=(1.0, 2.0), third=True):
    r2 = lambda x: bump((np.asarray(x, dtype=float) - center) / width)
    r3 = r2 if third else None
    return RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r3, support=support)


def test_zero_rhs_gives_zero(drude_problem):
    grid = make_grid(8.0, 1 / 100)
    r = RhsField.from_callables(grid, 3.0)
    sol = solve(0.5j, 3.0, r, drude_problem)
    assert np.allclose(sol.u, 0.0)
    assert sol.C2 == 0 and sol.C3 == 0


def test_norm_ratio_is_second_order_for_an_rhs_across_the_interface(drude_problem):
    """The norms give the zero-width pair (0-, 0+) no weight, so norm_ratio converges
    at the trapezoid rule's O(h^2) even when r is nonzero at x1 = 0."""
    ratios = [solve(0.5j, 3.0, _bump_rhs(make_grid(8.0, h), 3.0, center=0.25,
                                         support=(-0.25, 0.75)), drude_problem).norm_ratio
              for h in (1 / 50, 1 / 100, 1 / 200)]
    d1, d2 = abs(ratios[1] - ratios[0]), abs(ratios[2] - ratios[1])
    assert d1 >= 3.5 * d2


def test_solve_spectral_point_rejected(drude_problem):
    grid = make_grid(8.0, 1 / 100)
    r = _bump_rhs(grid, 3.0)
    with pytest.raises(SpectralPointError):
        solve(3.0, 3.0, r, drude_problem)  # W+ = 18 in [9, inf)


def test_divergence_free_rhs(drude_problem):
    grid = make_grid(8.0, 1 / 100)
    # zero-mean r2 (odd around its center) keeps r1 compactly supported
    width = 0.5
    k = 3.0
    r2 = lambda x: bump((np.asarray(x) - 1.5) / width) * (np.asarray(x) - 1.5)
    r = RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))
    # r1' = -i k r2 in the discrete defining sense: node increments of r1
    # equal -i k times the quadrature cell integrals of r2
    cum = _cumulative_integral(grid, r2)
    assert np.abs(np.diff(r.r1) - (-1j * k) * np.diff(cum)).max() <= 1e-14
    assert np.abs(r.r1 - (-1j * k) * cum).max() <= 1e-14
    # and the sampled divergence is small in the (second-order) FD sense too
    d = np.gradient(r.r1, grid.h) + 1j * k * r.r2
    assert np.abs(d[4:-4]).max() <= 2e-2 * np.abs(r.r1).max() + 1e-12
    assert abs(r.r1[-1]) < 1e-12  # compact support restored at the top end


def test_green_function_oracle_equal_media(equal_problem):
    # k = 0, W = -18 on both sides: u2 is the free-space Green convolution
    k = 0.0
    omega = 3j
    mu = math.sqrt(18.0)
    grid = make_grid(8.0, 1 / 100)
    r = _bump_rhs(grid, k)
    sol = solve(omega, k, r, equal_problem)
    x = grid.x
    t = np.linspace(1.0, 2.0, 2001)
    rv = bump((t - 1.5) / 0.5)
    expect = np.array([np.trapezoid(np.exp(-mu * np.abs(xx - t)) * rv, t)
                       for xx in x[:: 40]]) / (2 * mu)
    got = sol.u[1][:: 40]
    assert np.abs(got - expect).max() <= 1e-6 * np.abs(expect).max()
    # u3 solves the same equation: identical by symmetry of the construction
    assert np.allclose(sol.u[1], sol.u[2])
    assert np.allclose(sol.u[0], 0.0)  # no first component at k = 0


def test_interface_jumps_and_residual(drude_problem):
    grid = make_grid(10.0, 1 / 200)
    r = _bump_rhs(grid, 3.0)
    sol = solve(0.5j, 3.0, r, drude_problem)
    rep = verify(sol, r, 0.5j, 3.0, drude_problem)
    assert max(rep.jumps) <= 1e-8
    assert rep.ode_residual_max <= 1e-6
    assert rep.divergence_max <= 1e-6
    assert np.isfinite(rep.norm_ratio) and rep.norm_ratio > 0


def test_combination_identity(drude_problem):
    # u2' - i k u1 = (W u1 + r1)/(i k) on each half-line, with u2' from an
    # independent finite-difference pass over the sampled u2
    from pencil_spectra.resolvent import _fd_first
    from pencil_spectra.dielectric import w as w_eval

    k = 3.0
    omega = 0.5j
    grid = make_grid(10.0, 1 / 200)
    r = _bump_rhs(grid, k)
    sol = solve(omega, k, r, drude_problem)
    nl = grid.i_zero_minus + 1
    for sl, model in ((slice(0, nl), drude_problem.minus),
                      (slice(nl, None), drude_problem.plus)):
        wv = w_eval(model, omega)
        du2 = _fd_first(sol.u[1, sl], grid.h)   # at the nodes [2:-2]
        u1, r1 = sol.u[0, sl][2:-2], r.r1[sl][2:-2]
        lhs = du2 - 1j * k * u1
        rhs = (wv * u1 + r1) / (1j * k)
        norm = np.abs(lhs).max()
        assert np.abs(lhs - rhs)[1:-1].max() <= 1e-6 * max(norm, 1.0)


def test_linearity(drude_problem):
    k = 3.0
    omega = 0.5j
    grid = make_grid(8.0, 1 / 100)
    r_a = _bump_rhs(grid, k, center=1.5, width=0.5, support=(1.0, 2.0))
    r_b = RhsField.from_callables(
        grid, k, r2_fn=lambda x: bump((np.asarray(x) + 2.5) / 0.4),
        r3_fn=lambda x: 2.0 * bump((np.asarray(x) + 2.5) / 0.4),
        support=(-2.9, -2.1))
    al, be = 2.0 - 1j, 0.5 + 0.25j
    r_ab = RhsField.from_callables(
        grid, k,
        r2_fn=lambda x: al * r_a.r2_fn(x) + be * r_b.r2_fn(x),
        r3_fn=lambda x: al * r_a.r3_fn(x) + be * r_b.r3_fn(x),
        support=(-2.9, 2.0))
    sol_a = solve(omega, k, r_a, drude_problem)
    sol_b = solve(omega, k, r_b, drude_problem)
    sol_ab = solve(omega, k, r_ab, drude_problem)
    combo = al * sol_a.u + be * sol_b.u
    scale = np.abs(combo).max()
    assert np.abs(sol_ab.u - combo).max() <= 1e-9 * scale


def test_perturbed_constant_detector(drude_problem):
    # a perturbed C2 must show up in the [W~ u1] jump
    from dataclasses import replace
    from pencil_spectra.dielectric import wtilde

    k = 3.0
    omega = 0.5j
    grid = make_grid(8.0, 1 / 100)
    r = _bump_rhs(grid, k)
    sol = solve(omega, k, r, drude_problem)
    rep = verify(sol, r, omega, k, drude_problem)
    assert rep.jumps[0] <= 1e-10
    # rebuild u with C2 shifted: adds delta * e^(-mu |x|)-type tails on both sides
    delta = 1e-2
    from pencil_spectra.complex_numerics import principal_sqrt
    from pencil_spectra.dielectric import w as w_eval
    mu_p = principal_sqrt(9 - w_eval(drude_problem.plus, omega))
    mu_m = principal_sqrt(9 - w_eval(drude_problem.minus, omega))
    u = sol.u.copy()
    nl = grid.i_zero_minus + 1
    u[1, nl:] += delta * np.exp(-mu_p * grid.x[nl:])
    u[1, :nl] += delta * np.exp(mu_m * grid.x[:nl])
    u[0, nl:] += (-1j * k) * delta * (-mu_p) * np.exp(-mu_p * grid.x[nl:]) / (9 - w_eval(drude_problem.plus, omega))
    u[0, :nl] += (-1j * k) * delta * (mu_m) * np.exp(mu_m * grid.x[:nl]) / (9 - w_eval(drude_problem.minus, omega))
    bad = replace(sol, u=u)
    rep_bad = verify(bad, r, omega, k, drude_problem)
    assert rep_bad.jumps[0] > 1e-3


def test_norm_ratio_statistics(drude_problem):
    rng = np.random.default_rng(6)
    k = 3.0
    omega = 0.5j
    grid = make_grid(9.0, 1 / 100)
    ratios = []
    for _ in range(20):
        c = float(rng.uniform(-3.0, 3.0))
        wdt = float(rng.uniform(0.2, 0.8))
        r = RhsField.from_callables(
            grid, k, r2_fn=lambda x, c=c, wdt=wdt: bump((np.asarray(x) - c) / wdt),
            r3_fn=lambda x, c=c, wdt=wdt: bump((np.asarray(x) - c) / wdt),
            support=(c - wdt, c + wdt))
        sol = solve(omega, k, r, drude_problem)
        ratios.append(sol.norm_ratio)
    assert max(ratios) / min(ratios) < 10.0


def test_suggest_half_length(drude_problem):
    L = suggest_half_length(0.5j, 3.0, drude_problem, 2.0, 1 / 100)
    assert L >= 2.0 + 27.7 / 3.26
    # truncation below verification tolerance: solve on that L has tiny tails
    grid = make_grid(L, 1 / 100)
    r = _bump_rhs(grid, 3.0)
    sol = solve(0.5j, 3.0, r, drude_problem)
    assert abs(sol.u[1, -1]) <= 1e-11 * np.abs(sol.u[1]).max()


def test_field_csv_roundtrip(tmp_path, drude_problem):
    grid = make_grid(6.0, 1 / 50)
    r = _bump_rhs(grid, 3.0)
    sol = solve(0.5j, 3.0, r, drude_problem)
    path = tmp_path / "field.csv"
    save_field_csv(path, grid.x, sol.u)
    x2, u2 = load_field_csv(path)
    assert np.allclose(x2, grid.x)
    assert np.abs(u2 - sol.u).max() <= 1e-12 * max(np.abs(sol.u).max(), 1e-30)
    header = path.read_text().splitlines()[0]
    assert header == "x1,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3"


@pytest.mark.parametrize("xs", [np.linspace(0.0, 6.0, 601), np.linspace(-6.0, 0.0, 601)])
def test_exp_kernels_closed_form(xs):
    # f = 1: S_j = (1 - e^(-mu (x_end - x_j)))/mu, T_j = (1 - e^(-mu (x_j - x_0)))/mu
    mu = 1.3 + 0.4j
    S, T = _exp_kernels(xs, np.ones_like, mu)
    S_exact = (1.0 - np.exp(-mu * (xs[-1] - xs))) / mu
    T_exact = (1.0 - np.exp(-mu * (xs - xs[0]))) / mu
    assert np.abs(S - S_exact).max() <= 1e-14
    assert np.abs(T - T_exact).max() <= 1e-14
    assert S[-1] == 0 and T[0] == 0


def _loop_kernels(xs, fn, mu):
    """Cell-by-cell reference for _exp_kernels: one fn call and one np.sum per cell."""
    xi, wq = np.polynomial.legendre.leggauss(8)
    h = xs[1] - xs[0]
    tloc = 0.5 * h * (xi + 1.0)
    w_s = 0.5 * wq * np.exp(-mu * tloc) * h
    w_t = 0.5 * wq * np.exp(mu * (tloc - h)) * h
    decay = np.exp(-mu * h)
    S = np.zeros(xs.size, dtype=complex)
    T = np.zeros(xs.size, dtype=complex)
    for j in range(xs.size - 2, -1, -1):
        S[j] = np.sum(w_s * fn(xs[j] + tloc)) + decay * S[j + 1]
    for j in range(xs.size - 1):
        T[j + 1] = decay * T[j] + np.sum(w_t * fn(xs[j] + tloc))
    return S, T


@pytest.mark.parametrize("xs", [np.linspace(0.0, 4.0, 401), np.linspace(-4.0, 0.0, 401)])
def test_exp_kernels_match_cell_loop(xs):
    fn = lambda x: bump((np.asarray(x) - np.sign(xs.sum()) * 1.5) / 0.5) * (1 + 0.3j * x)
    mu = 2.1 - 0.7j
    S, T = _exp_kernels(xs, fn, mu)
    S_ref, T_ref = _loop_kernels(xs, fn, mu)
    # only the rounding of each cell's moment may differ
    eps = np.finfo(float).eps
    assert np.abs(S - S_ref).max() <= 16 * eps * np.abs(S_ref).max()
    assert np.abs(T - T_ref).max() <= 16 * eps * np.abs(T_ref).max()


def test_exp_kernels_no_overflow():
    # Re(mu) * L = 900 > 710, where e^(Re(mu) L) overflows a double
    xs = np.linspace(0.0, 100.0, 2001)
    mu = 9.0 + 2.0j
    assert mu.real * xs[-1] > 710
    S, T = _exp_kernels(xs, np.ones_like, mu)
    assert np.isfinite(S).all() and np.isfinite(T).all()
    assert np.abs(S - (1.0 - np.exp(-mu * (xs[-1] - xs))) / mu).max() <= 1e-14
    assert np.abs(T - (1.0 - np.exp(-mu * (xs - xs[0]))) / mu).max() <= 1e-14


def test_cumulative_integral_across_interface():
    # f = 1 integrates to x + L; the zero-width cell (0-, 0+) adds nothing
    grid = make_grid(3.0, 1 / 10)
    cum = _cumulative_integral(grid, np.ones_like)
    assert np.abs(cum - (grid.x + grid.L)).max() <= 1e-13
    assert cum[grid.i_zero_minus] == cum[grid.i_zero_plus]


@pytest.mark.parametrize("h", [1 / 50, 1 / 200])
def test_solve_calls_rhs_a_fixed_number_of_times(drude_problem, h):
    grid = make_grid(8.0, h)
    calls = []

    def r2(x):
        calls.append(np.size(x))
        return bump((np.asarray(x) - 1.5) / 0.5)

    r = RhsField.from_callables(grid, 3.0, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))
    calls.clear()
    solve(0.5j, 3.0, r, drude_problem)
    # one kernel pass per (side, component), independent of the grid size
    assert len(calls) == 4


def test_gl_cell_is_the_gauss_legendre_rule_bit_for_bit():
    """The stored nodes and weights on [0, 1] are what leggauss(8) gives."""
    xi, wq = np.polynomial.legendre.leggauss(8)
    nodes, weights = _gl_cell()
    assert nodes.tolist() == (0.5 * (xi + 1.0)).tolist()
    assert weights.tolist() == (0.5 * wq).tolist()


def test_cli_import_and_resolve_leave_out_costly_modules(tmp_path):
    """Importing the CLI loads neither fractions nor decimal (the CSV writer's powers
    of ten come from int arithmetic), and a resolve run loads no numpy.polynomial."""
    (tmp_path / "drude.cfg").write_text('[plus]\nkind = "constant"\nvalue = 2.0\n\n'
                                        '[minus]\nkind = "drude"\nomega_p = 0.8\ngamma = 1.0\n')
    argv = ["resolve", "--config", "drude.cfg", "--omega", "0,0.5", "--k", "3", "--h", "0.05",
            "--out", "out"]
    code = ("import sys\n"
            "import pencil_spectra.trace_cli as cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('numpy.polynomial' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(pencil_spectra.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "False")
    assert (tmp_path / "out" / "resolvent.csv").exists()


def test_cli_import_does_not_load_scipy_signal():
    src = os.path.dirname(os.path.dirname(pencil_spectra.__file__))
    code = "import sys, pencil_spectra.trace_cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


# -- a reference verify: full-length stencils, one-sided at the ends, read at [2:-2] --

def _ref_fd_first(y, h):
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    d[0] = np.dot(c, y[:5])
    d[1] = np.dot(c, y[1:6])
    d[-1] = -np.dot(c, y[-1:-6:-1])
    d[-2] = -np.dot(c, y[-2:-7:-1])
    return d


def _ref_fd_second(y, h):
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h * h)
    c = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h * h)
    d[0] = np.dot(c, y[:6])
    d[1] = np.dot(c, y[1:7])
    d[-1] = np.dot(c, y[-1:-7:-1])
    d[-2] = np.dot(c, y[-2:-8:-1])
    return d


def _ref_verify_fields(grid, u, u2_prime, u3_prime, r, omega, k, problem, tol):
    from pencil_spectra.dielectric import w_values
    from pencil_spectra.resolvent import VerifyReport

    h = grid.h
    nl = grid.i_zero_minus + 1
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    r_norm = r.norm()
    scale = max(r_norm, 1e-300)

    res = np.zeros((2, 3))
    div = np.zeros(2)
    for n, (sl, wval) in enumerate(((slice(0, nl), w_m), (slice(nl, None), w_p))):
        u1 = u[0, sl]; u2 = u[1, sl]; u3 = u[2, sl]
        du1 = _ref_fd_first(u1, h)
        du2 = _ref_fd_first(u2, h)
        d2u2 = _ref_fd_second(u2, h)
        d2u3 = _ref_fd_second(u3, h)
        interior = slice(2, -2)
        eq1 = (k * k - wval) * u1 + 1j * k * du2 - r.r1[sl]
        eq2 = 1j * k * du1 - d2u2 - wval * u2 - r.r2[sl]
        eq3 = -d2u3 + (k * k - wval) * u3 - r.r3[sl]
        res[n] = [np.abs(eq[interior]).max() for eq in (eq1, eq2, eq3)]
        div[n] = np.abs((du1 + 1j * k * u2)[interior]).max()
    res = res.max(axis=0).tolist()

    im, ip = grid.i_zero_minus, grid.i_zero_plus
    jump_wu1 = abs(wt_p * u[0, ip] - wt_m * u[0, im])
    jump_u2 = abs(u[1, ip] - u[1, im])
    jump_u3 = abs(u[2, ip] - u[2, im])
    comb_p = u2_prime[ip] - 1j * k * u[0, ip]
    comb_m = u2_prime[im] - 1j * k * u[0, im]
    jump_comb = abs(comb_p - comb_m)
    jump_du3 = abs(u3_prime[ip] - u3_prime[im])

    u_norm = math.sqrt(sum(float(np.trapezoid(np.abs(u[j]) ** 2, x=grid.x))
                           for j in range(3)))
    return VerifyReport(
        ode_residuals=tuple(x / scale for x in res),
        jumps=(jump_wu1 / scale, jump_u2 / scale, jump_u3 / scale,
               jump_comb / scale, jump_du3 / scale),
        divergence_max=float(div.max()) / scale,
        norm_ratio=u_norm / scale,
        r_norm=r_norm,
    )


@pytest.mark.parametrize("k, omega", [(3.0, 0.5j), (0.0, 0.2 + 0.7j), (1.0, -0.3 + 0.4j)])
def test_verify_reads_only_the_interior_stencils(k, omega, drude_problem):
    """The report from interior-only stencils equals, bit for bit, the one whose
    stencils also filled the two end nodes of each half-line and then dropped them."""
    from pencil_spectra.complex_numerics import DEFAULT_TOL

    grid = make_grid(10.0, 1 / 200)
    r = _bump_rhs(grid, k)
    sol = solve(omega, k, r, drude_problem)
    ref = _ref_verify_fields(grid, sol.u, sol.u2_prime, sol.u3_prime, r, omega, k,
                             drude_problem, DEFAULT_TOL)
    for name in ("ode_residuals", "ode_residual_max", "jumps", "divergence_max",
                 "norm_ratio", "r_norm"):
        got, want = getattr(sol.report, name), getattr(ref, name)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name
