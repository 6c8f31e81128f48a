import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    direct_solve,
    eigen_omegas,
    lambda_isolation_probe,
    shoot_determinant,
    solve,
)
import pencil_spectra
from pencil_spectra import fd_oracle
from pencil_spectra.complex_numerics import principal_sqrt
from pencil_spectra.dielectric import wtilde
from pencil_spectra.errors import PreconditionError
from pencil_spectra.fd_oracle import discretize, shoot_refine, smallest_singular_value
from pencil_spectra.modes import bump
from pencil_spectra.resolvent import RhsField, make_grid
from tests.conftest import PLASMON, QUARTIC_HI


def _bump_rhs(grid, k):
    r2 = lambda x: bump((np.asarray(x, dtype=float) - 1.5) / 0.5)
    return RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))


def test_direct_solve_zero_rhs(drude_problem):
    grid = make_grid(6.0, 1 / 50)
    disc = discretize(0.5j, 3.0, drude_problem, grid=grid)
    r = RhsField.from_callables(grid, 3.0)
    u = direct_solve(3.0, r, disc)
    assert np.allclose(u, 0.0)


def test_direct_vs_closed_form_convergence(drude_problem):
    k, omega = 3.0, 0.5j
    errs = {}
    for h in (1 / 50, 1 / 100, 1 / 200):
        grid = make_grid(8.0, h)
        r = _bump_rhs(grid, k)
        sol = solve(omega, k, r, drude_problem)
        disc = discretize(omega, k, drude_problem, grid=grid)
        u_fd = direct_solve(k, r, disc)
        num = math.sqrt(sum(float(np.sum(np.abs(sol.u[j] - u_fd[j]) ** 2)) for j in range(3)))
        den = math.sqrt(sum(float(np.sum(np.abs(sol.u[j]) ** 2)) for j in range(3)))
        errs[h] = num / den
    assert errs[1 / 200] <= 1e-3
    order1 = math.log2(errs[1 / 50] / errs[1 / 100])
    order2 = math.log2(errs[1 / 100] / errs[1 / 200])
    assert order1 >= 1.9 and order2 >= 1.9


def test_direct_solve_k0(equal_problem):
    # cross-check the k = 0 scalar path against the closed form
    k, omega = 0.0, 3j
    grid = make_grid(8.0, 1 / 100)
    r = _bump_rhs(grid, k)
    sol = solve(omega, k, r, equal_problem)
    disc = discretize(omega, k, equal_problem, grid=grid)
    u_fd = direct_solve(k, r, disc)
    den = np.abs(sol.u[1]).max()
    assert np.abs(sol.u[1] - u_fd[1]).max() <= 2e-4 * den
    assert np.abs(sol.u[2] - u_fd[2]).max() <= 2e-4 * den


def test_direct_solve_k0_u1_is_r1_over_denom(drude_problem):
    """At k = 0 the general u1 = (r1 - i k u2') / denom is r1 / denom bit for bit."""
    grid = make_grid(6.0, 1 / 50)
    disc = discretize(0.5j, 0.0, drude_problem, grid=grid)
    r = _bump_rhs(grid, 0.0)
    u = direct_solve(0.0, r, disc)
    assert disc.denom_plus != disc.denom_minus
    denom = np.where(np.arange(grid.x.size) >= grid.i_zero_plus,
                     disc.denom_plus, disc.denom_minus)
    assert u[0].tobytes() == (r.r1 / denom).tobytes()


def test_u3_block_bitwise_consistency(drude_problem):
    grid = make_grid(6.0, 1 / 50)
    disc = discretize(0.5j, 3.0, drude_problem, grid=grid)
    r = _bump_rhs(grid, 3.0)
    u_full = direct_solve(3.0, r, disc)
    b3 = np.zeros(grid.x.size, dtype=complex)
    b3[:disc.interior.size] = r.r3[disc.interior]   # equation row i takes node interior[i]
    u3_alone = disc.block3.solve(b3)
    assert np.array_equal(u3_alone, u_full[2])
    dense = np.linalg.solve(disc.block3.toarray(), b3)
    assert np.abs(u3_alone - dense).max() <= 1e-12 * np.abs(dense).max()


def test_shoot_determinant_at_modes(lossless_problem):
    modes = eigen_omegas(3.0, lossless_problem)
    for m in modes:
        assert abs(shoot_determinant(m.omega, 3.0, lossless_problem)) < 1e-9
    # sweep near the positive root: the (purely imaginary) determinant flips
    om_grid = np.linspace(PLASMON - 0.05, PLASMON + 0.05, 11)
    vals = [shoot_determinant(float(om), 3.0, lossless_problem) for om in om_grid]
    signs = [v.imag for v in vals]
    assert signs[0] * signs[-1] < 0


def test_shoot_refine_matches_polynomial(lossless_problem):
    root = shoot_refine(PLASMON + 1e-3, 3.0, lossless_problem)
    assert abs(root - PLASMON) < 1e-6


def test_shoot_zeros_bijective_on_window(lossless_problem):
    # on (0, 2] the determinant vanishes exactly once, at the single mode there
    oms = np.linspace(0.2, 2.0, 91)
    vals = np.array([shoot_determinant(complex(om), 3.0, lossless_problem).imag
                     for om in oms])
    crossings = np.where(np.diff(np.sign(vals)) != 0)[0]
    assert len(crossings) == 1
    lo, hi = oms[crossings[0]], oms[crossings[0] + 1]
    assert lo <= PLASMON <= hi
    refined = shoot_refine(0.5 * (lo + hi), 3.0, lossless_problem)
    modes_in_window = [m for m in eigen_omegas(3.0, lossless_problem)
                       if 0.2 <= m.omega.real <= 2.0]
    assert len(modes_in_window) == 1
    assert abs(refined - modes_in_window[0].omega) < 1e-6


def test_shoot_no_modes_equal_media(equal_problem):
    vals = []
    for om in np.linspace(0.2, 2.5, 12):
        try:
            vals.append(abs(shoot_determinant(complex(om), 3.0, equal_problem)))
        except PreconditionError:
            continue
    assert vals and min(vals) > 1e-3


def test_shoot_rejected_root(lossless_problem):
    # the rejected biquadratic root sits inside M+: no decaying solution there,
    # and just off the ray no eigenvalue exists either
    with pytest.raises(PreconditionError):
        shoot_determinant(QUARTIC_HI, 3.0, lossless_problem)
    assert abs(shoot_determinant(QUARTIC_HI + 0.05j, 3.0, lossless_problem)) > 1e-3


def test_shoot_k0_rejected(equal_problem):
    with pytest.raises(PreconditionError):
        shoot_determinant(0.5j, 0.0, equal_problem)


def test_lambda_probe_isolation(lossless_problem):
    mode = [m for m in eigen_omegas(3.0, lossless_problem)
            if abs(m.omega - PLASMON) < 1e-9][0]
    grid = make_grid(12.0, 1 / 200)
    rep = lambda_isolation_probe(mode.omega, 3.0, lossless_problem, grid=grid)
    assert rep.separation_factor >= 100.0
    assert rep.isolated
    rep_ess = lambda_isolation_probe(3.0, 3.0, lossless_problem, grid=grid)
    assert rep_ess.separation_factor < 100.0
    rep_rho = lambda_isolation_probe(0.5j, 3.0, lossless_problem, grid=grid)
    assert rep_rho.separation_factor < 10.0
    assert rep_rho.sigma_at_one > 0.5 * min(rep_rho.ring_minima)


def test_smallest_singular_value_agrees_dense():
    """Random structured blocks: any diagonal per side and any four constraint rows."""
    rng = np.random.default_rng(42)
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for n in (3, 40, 297):
        h = 1.0 / (n + 1)
        diag = tuple(2.0 / h**2 + cplx(2))
        block = fd_oracle.FDBlock(n=n, h=h, diag=diag, rows=cplx(4, 8))
        dense = np.linalg.svd(block.toarray(), compute_uv=False)[-1]
        fast = smallest_singular_value(block)
        assert abs(fast - dense) <= 1e-6 * dense


def test_discretize_grid_mismatch(drude_problem):
    g1 = make_grid(6.0, 1 / 50)
    g2 = make_grid(6.0, 1 / 40)
    disc = discretize(0.5j, 3.0, drude_problem, grid=g1)
    r = _bump_rhs(g2, 3.0)
    with pytest.raises(PreconditionError):
        direct_solve(3.0, r, disc)


def _loop_blocks(sp, omega, k, problem, grid, lam):
    """Reference assembly: one Python loop over the nodes, entry by entry, into
    scipy.sparse matrices (sp)."""
    x, h = grid.x, grid.h
    N = x.size
    im, ip = grid.i_zero_minus, grid.i_zero_plus
    wt_p, wt_m = wtilde(problem.plus, omega), wtilde(problem.minus, omega)
    w_p, w_m = omega**2 * wt_p, omega**2 * wt_m
    den_p, den_m = k * k - lam * w_p, k * k - lam * w_m
    wvals = np.where(np.arange(N) >= ip, w_p, w_m)
    fwd = np.array([-1.5, 2.0, -0.5]) / h
    bwd = np.array([1.5, -2.0, 0.5]) / h
    interior = [j for j in range(N) if j not in (0, im, ip, N - 1)]

    def block(include_wu1):
        rows, cols, vals = [], [], []
        eq = np.zeros(N, dtype=bool)
        node = np.zeros(N, dtype=np.int64)
        row = 0
        for j in interior:
            rows += [row, row, row]
            cols += [j - 1, j, j + 1]
            vals += [-1.0 / h**2, 2.0 / h**2 + k * k - lam * wvals[j], -1.0 / h**2]
            eq[row] = True
            node[row] = j
            row += 1
        rows += [row, row + 1, row + 2, row + 2]
        cols += [0, N - 1, ip, im]
        vals += [1.0, 1.0, 1.0, -1.0]
        row += 3
        cp, cm = (wt_p / den_p, wt_m / den_m) if include_wu1 and k != 0.0 else (1.0, 1.0)
        for o, cf in zip((0, 1, 2), fwd):
            rows.append(row); cols.append(ip + o); vals.append(cp * cf)
        for o, cf in zip((0, -1, -2), bwd):
            rows.append(row); cols.append(im + o); vals.append(-cm * cf)
        mat = sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(N, N)))
        return mat, eq, node

    return block(True), block(False)


@pytest.mark.parametrize("k", [0.0, 3.0])
@pytest.mark.parametrize("lam", [1.0, 1.0 + 0.05j, 0.8 + 0.01j])
@pytest.mark.parametrize("medium", ["lossless_problem", "drude_problem"])
def test_discretize_matches_loop_assembly(k, lam, medium, request):
    sp = pytest.importorskip("scipy.sparse")
    problem = request.getfixturevalue(medium)
    omega = 1.0 + 0.3j
    grid = make_grid(5.0, 1 / 40)
    disc = discretize(omega, k, problem, grid=grid, lam=lam)
    (ref2, eq2, node2), (ref3, eq3, node3) = _loop_blocks(
        sp, complex(omega), k, problem, grid, complex(lam))
    for got, ref in ((disc.block2, ref2), (disc.block3, ref3)):
        a, b = got.toarray(), ref.toarray()
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the loop's equation rows are the first interior.size rows, and row i takes
    # the right-hand side of node interior[i]
    for eq, node in ((eq2, node2), (eq3, node3)):
        assert np.array_equal(eq, np.arange(grid.x.size) < disc.interior.size)
        assert disc.interior.dtype == node.dtype and np.array_equal(disc.interior, node[eq])
    assert disc.wu1_row == (grid.x.size - 1 if k != 0.0 else -1)


def _dop853_direction(solve_ivp, omega, k, problem, side):
    """phi[0]/phi[1] from an adaptive DOP853 integration of psi' = M psi by scipy's
    solve_ivp."""
    wv = omega * omega * wtilde(problem.side(side), omega)
    mu = principal_sqrt(k * k - wv)
    X = 25.0 / mu.real
    x0, v0 = (X, [1j * k, mu]) if side == "+" else (-X, [-1j * k, mu])
    sol = solve_ivp(lambda x, y: [-1j * k * y[1], (wv - k * k) / (1j * k) * y[0]],
                    (x0, 0.0), np.array(v0, dtype=complex), method="DOP853",
                    rtol=1e-10, atol=1e-14)
    assert sol.success
    return sol.y[0, -1] / sol.y[1, -1]


def test_flow_map_matches_adaptive_integration(drude_problem):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    k = 3.0
    # the modes, and omega = 2.12 where Re mu_+ = 0.106 on the constant side
    points = [m.omega for m in eigen_omegas(k, drude_problem)] + [2.12 + 0j]
    for om in points:
        for side in ("+", "-"):
            phi = fd_oracle._integrate_decaying(om, k, drude_problem, side, fd_oracle.DEFAULT_TOL)
            ref = _dop853_direction(solve_ivp, om, k, drude_problem, side)
            assert abs(phi[0] / phi[1] - ref) <= 1e-12 * abs(ref), (om, side)


THREE_POLE_PAIRS = InterfaceProblem(   # constant 2 against Lorentz pairs at 0.8, 1.6 and 2.6
    DielectricModel.constant(2.0),
    DielectricModel.rational([1, 1.2j, -14.93, -10.916j, 52.0786, 17.29544j, -38.147584],
                             [1, 1.2j, -10.43, -7.416j, 24.5936, 7.74144j, -11.075584]))


@pytest.mark.parametrize("k", [0.5, 3.0, 10.0])
@pytest.mark.parametrize("medium", ["lossy Drude", "three-pole-pair"])
def test_flow_map_carries_the_decaying_solution_exactly(medium, k, drude_problem):
    """The start vector is an eigenvector of M, so the flow to 0 only scales it by
    e^(mu X): (ik, mu) on the right, (-ik, mu) on the left. The direction agrees to
    1e-13; the vector to the rounding of its phase mu X, some eps |mu X|."""
    problem = drude_problem if medium == "lossy Drude" else THREE_POLE_PAIRS
    modes = eigen_omegas(k, problem)
    assert modes
    for m in modes:
        for side, sign in (("+", 1), ("-", -1)):
            wv = m.omega * m.omega * wtilde(problem.side(side), m.omega)
            mu = principal_sqrt(k * k - wv)
            X = 25.0 / mu.real
            exact = (np.exp(mu * X) * sign * 1j * k, np.exp(mu * X) * mu)
            phi = fd_oracle._integrate_decaying(m.omega, k, problem, side, fd_oracle.DEFAULT_TOL)
            ratio = exact[0] / exact[1]
            assert abs(phi[0] / phi[1] - ratio) <= 1e-13 * abs(ratio), (m.omega, side)
            err = max(abs(got - ref) for got, ref in zip(phi, exact))
            bound = (1e-13 + 4 * np.finfo(float).eps * abs(mu * X)) * max(map(abs, exact))
            assert err <= bound, (m.omega, side)


def test_shooting_does_not_lean_on_the_closed_form_start(drude_problem, monkeypatch):
    # a wrong mu gives a wrong start direction; the backward flow must wash
    # it out, so the roots still come from the flow of M alone
    modes = eigen_omegas(3.0, drude_problem)
    assert modes
    monkeypatch.setattr(fd_oracle, "principal_sqrt", lambda z: principal_sqrt(z) + 1e-3)
    for m in modes:
        root = shoot_refine(m.omega * (1 + 1e-5) + 1e-7, 3.0, drude_problem)
        assert abs(root - m.omega) <= 1e-9


def test_fd_oracle_import_skips_scipy_integrate():
    code = ("import sys, pencil_spectra.fd_oracle\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n")
    src = os.path.dirname(os.path.dirname(pencil_spectra.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines()[-1] == "[]"


def test_fd_oracle_stays_independent_of_the_closed_forms():
    """The oracle may share the media evaluation (dielectric) and the grid types,
    but no closed form: nothing from modes or the classifiers, and from resolvent
    only Grid, RhsField and make_grid."""
    import ast

    tree = ast.parse(open(fd_oracle.__file__).read())
    imported = {}   # pencil_spectra module -> names taken from it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("pencil_spectra"):
                continue
            module = (node.module or "").removeprefix("pencil_spectra").lstrip(".")
            if module:
                imported.setdefault(module, set()).update(a.name for a in node.names)
            else:   # from . import x
                for a in node.names:
                    imported.setdefault(a.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("pencil_spectra"):
                    module = a.name.removeprefix("pencil_spectra").lstrip(".")
                    imported.setdefault(module or "pencil_spectra", set()).add("*")
    assert "resolvent" in imported and "dielectric" in imported   # the scan sees them
    assert not {"modes", "classify1d", "classify2d", "pencil_spectra"} & set(imported)
    assert imported["resolvent"] <= {"Grid", "RhsField", "make_grid"}


def test_fd_oracle_factors_in_one_place_in_natural_order():
    """The oracle imports no scipy, and every DST goes through one np.fft.fft call."""
    import ast

    tree = ast.parse(open(fd_oracle.__file__).read())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "scipy"]
    calls = [ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert [c for c in calls if "fft" in c] == ["np.fft.fft"]


def test_d1_grid_is_exact_for_a_quadratic_on_each_half_line():
    """Second order on each half-line, end nodes included, and never across x1 = 0:
    a different quadratic on each side gives its own derivative at every node."""
    grid = make_grid(2.0, 1 / 50)
    x = grid.x
    left = x <= 0.0
    left[grid.i_zero_plus] = False   # the doubled interface node belongs to the right side
    u = np.where(left, (1.0 + 1j) + 2.0 * x - 3.0 * x**2, -4.0 + (5.0 - 2j) * x + 7.0 * x**2)
    exact = np.where(left, 2.0 - 6.0 * x, (5.0 - 2j) + 14.0 * x)
    du = fd_oracle._d1_grid(u, grid)
    assert np.abs(du - exact).max() <= 1e-9 * np.abs(exact).max()


@pytest.mark.parametrize("half_length, h", [(1.0, 1 / 10), (2.0, 1 / 100)])   # 22, 402 nodes
@pytest.mark.parametrize("k", [0.5, 3.0, 10.0])
def test_sigma_min_matches_dense_svd_on_small_blocks(half_length, h, k, drude_problem):
    grid = make_grid(half_length, h)
    assert grid.x.size in (22, 402)
    omega = 0.5j
    for lam in (1.0, 1.0 + 0.05j, 1.0 + 0.2 * np.exp(0.75j * math.pi)):
        disc = discretize(omega, k, drude_problem, grid=grid, lam=lam)
        for block in (disc.block2, disc.block3):
            dense = np.linalg.svd(block.toarray(), compute_uv=False)[-1]
            assert smallest_singular_value(block) == pytest.approx(dense, rel=1e-8)
