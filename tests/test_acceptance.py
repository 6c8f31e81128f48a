"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import cmath
import math
import time

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    classify,
    direct_solve,
    eigen_omegas,
    eigenfunction_eval,
    in_M,
    in_M2,
    in_N2,
    lambda_isolation_probe,
    mode_residual,
    omega0_set,
    singular_points,
    solve,
    wtilde,
)
from pencil_spectra.fd_oracle import discretize, shoot_refine
from pencil_spectra.modes import (
    bump,
    fit_loglog_slope,
    weyl_2d_interface_report,
    weyl_sequence_1d,
)
from pencil_spectra.resolvent import RhsField, make_grid
from pencil_spectra.trace_cli import main as cli_main
from tests.conftest import A_WITNESS, OMEGA_SP, PLASMON


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_omega0_and_singular_set(drude_problem):
    t0 = time.perf_counter()
    pts = omega0_set(drude_problem)
    closed = [0.5 * (-1j + cmath.sqrt(8 * math.pi * 0.64 - 1)),
              0.5 * (-1j - cmath.sqrt(8 * math.pi * 0.64 - 1))]
    err = max(min(abs(p.omega - c) for c in closed) for p in pts)
    poles = singular_points(drude_problem)
    s_ok = (len(poles) == 2
            and min(abs(p) for p in poles) < 1e-14
            and min(abs(p + 1j) for p in poles) < 1e-14)
    dt = time.perf_counter() - t0
    ok = len(pts) == 2 and err <= 1e-10 and s_ok and dt < 1.0
    _report(1, ok, f"Omega0 error {err:.2e} vs closed form, S = {{0, -i}}, {dt:.3f}s")


def test_criterion_2_m_plus_endpoints(drude_problem):
    worst = 0.0
    for k in (3.0, 0.7):
        target = math.sqrt(k * k / 2.0)
        lo, hi = 0.01, 3.0 * k
        assert not in_M("+", lo, k, drude_problem)
        assert in_M("+", hi, k, drude_problem)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if in_M("+", mid, k, drude_problem):
                hi = mid
            else:
                lo = mid
        worst = max(worst, abs(hi - target))
        # mirror endpoint by conjugate symmetry
        lo2, hi2 = -3.0 * k, -0.01
        for _ in range(60):
            mid = 0.5 * (lo2 + hi2)
            if in_M("+", mid, k, drude_problem):
                lo2 = mid
            else:
                hi2 = mid
        worst = max(worst, abs(lo2 + target))
    _report(2, worst <= 1e-8, f"bisection endpoints off by {worst:.2e}")


def test_criterion_3_lossless_plasmon(lossless_problem):
    t0 = time.perf_counter()
    modes = eigen_omegas(3.0, lossless_problem)
    at_anchor = [m for m in modes if abs(m.omega - 1.04980) < 1e-3]
    ok = len(at_anchor) == 1
    mode = at_anchor[0]
    root = shoot_refine(mode.omega + 5e-4, 3.0, lossless_problem)
    shoot_err = abs(root - mode.omega)
    grid = np.linspace(-8, 8, 257)
    grid = grid[grid != 0]
    resid = mode_residual(mode, grid, lossless_problem)
    # the five interface jumps from the closed form
    wp = wtilde(lossless_problem.plus, mode.omega)
    wm = wtilde(lossless_problem.minus, mode.omega)
    right = eigenfunction_eval(mode, 0.0)
    left_v = np.array(mode.v_minus + (0,))
    jumps = [
        abs(wp * right[0] - wm * left_v[0]),
        abs(right[1] - left_v[1]),
        abs(right[2] - left_v[2]),
        abs((-mode.mu_plus * mode.v_plus[1] - 3j * mode.v_plus[0])
            - (mode.mu_minus * mode.v_minus[1] - 3j * mode.v_minus[0])),
        0.0,  # psi3' jump: psi3 vanishes identically
    ]
    dt = time.perf_counter() - t0
    ok = (ok and shoot_err <= 1e-6 and resid <= 1e-10
          and max(jumps) <= 1e-10 and dt < 5.0)
    _report(3, ok, f"omega = {mode.omega.real:.6f}, shooting off by {shoot_err:.2e}, "
                   f"residual {resid:.2e}, max jump {max(jumps):.2e}, {dt:.2f}s")


def test_criterion_4_dispersion_asymptote(tmp_path):
    cfg = tmp_path / "lossless.cfg"
    cfg.write_text("[plus]\nkind = \"constant\"\nvalue = 2.0\n"
                   "[minus]\nkind = \"drude\"\nomega_p = 0.8\ngamma = 0.0\n")
    out = tmp_path / "sweep"
    assert cli_main(["eigen", "--config", str(cfg), "--k", "2:50:25",
                     "--out", str(out)]) == 0
    import csv as _csv
    rows = list(_csv.DictReader((out / "modes.csv").open()))
    pos = [r for r in rows if float(r["re_omega"]) > 0]
    last = max(pos, key=lambda r: float(r["k"]))
    err = abs(float(last["re_omega"]) - OMEGA_SP)
    ok = float(last["k"]) == 50.0 and err <= 1e-3
    _report(4, ok, f"omega(k=50) = {float(last['re_omega']):.6f}, "
                   f"asymptote {OMEGA_SP:.6f}, err {err:.2e}")


def test_criterion_5_resolvent_cross_validation(drude_problem):
    t0 = time.perf_counter()
    k, omega = 3.0, 0.5j
    errs = {}
    for h in (1 / 50, 1 / 100, 1 / 200):
        grid = make_grid(8.0, h)
        r2 = lambda x: bump((np.asarray(x) - 1.5) / 0.5)
        r = RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))
        sol = solve(omega, k, r, drude_problem)
        disc = discretize(omega, k, drude_problem, grid=grid)
        u_fd = direct_solve(k, r, disc)
        num = math.sqrt(sum(float(np.sum(np.abs(sol.u[j] - u_fd[j]) ** 2))
                            for j in range(3)))
        den = math.sqrt(sum(float(np.sum(np.abs(sol.u[j]) ** 2)) for j in range(3)))
        errs[h] = num / den
    order1 = math.log2(errs[1 / 50] / errs[1 / 100])
    order2 = math.log2(errs[1 / 100] / errs[1 / 200])

    # linearity at fixed (omega, k)
    grid = make_grid(8.0, 1 / 100)
    ra = RhsField.from_callables(grid, k, r2_fn=lambda x: bump((np.asarray(x) - 1.5) / 0.5),
                                 r3_fn=lambda x: bump((np.asarray(x) - 1.5) / 0.5),
                                 support=(1.0, 2.0))
    rb = RhsField.from_callables(grid, k, r2_fn=lambda x: bump((np.asarray(x) + 2.5) / 0.4),
                                 r3_fn=lambda x: bump((np.asarray(x) + 2.5) / 0.4),
                                 support=(-2.9, -2.1))
    al, be = 1.5 - 0.5j, -0.75 + 0.2j
    rc = RhsField.from_callables(
        grid, k,
        r2_fn=lambda x: al * ra.r2_fn(x) + be * rb.r2_fn(x),
        r3_fn=lambda x: al * ra.r3_fn(x) + be * rb.r3_fn(x), support=(-2.9, 2.0))
    combo = al * solve(omega, k, ra, drude_problem).u + be * solve(omega, k, rb, drude_problem).u
    lin_err = float(np.abs(solve(omega, k, rc, drude_problem).u - combo).max()
                    / np.abs(combo).max())
    dt = time.perf_counter() - t0
    ok = (errs[1 / 200] <= 1e-3 and min(order1, order2) >= 1.9
          and lin_err <= 1e-9 and dt < 30.0)
    _report(5, ok, f"rel err(h=1/200) {errs[1/200]:.2e}, orders {order1:.2f}/{order2:.2f}, "
                   f"linearity {lin_err:.2e}, {dt:.1f}s")


def test_criterion_6_weyl_slopes(equal_problem, guided_2d_problem):
    ns = [8, 16, 32, 64]
    res1 = [weyl_sequence_1d(3.0, 3.0, n, "+", "plane_wave", equal_problem).residual_norm
            for n in ns]
    slope1 = fit_loglog_slope(ns, res1)
    ok1 = -1.15 <= slope1 <= -0.85

    ok_n2, a = in_N2(-1j, guided_2d_problem)
    res2 = [weyl_2d_interface_report(-1j, n, guided_2d_problem).residual_norm
            for n in ns]
    slope2 = fit_loglog_slope(ns, res2)
    ok2 = ok_n2 and -1.15 <= slope2 <= -0.85

    zero = max(weyl_sequence_1d(0.0, 0.0, n, "+", "k0_w0", equal_problem).residual_norm
               for n in ns)
    ok3 = zero < 1e-14
    _report(6, ok1 and ok2 and ok3,
            f"1D slope {slope1:.3f}, 2D slope {slope2:.3f}, k0 residual {zero:.1e}")


def test_criterion_7_exceptional_table():
    plus = DielectricModel.rational([1, -1], [1])  # W~+(omega) = omega - 1
    prob = InterfaceProblem(plus, DielectricModel.constant(1.0))
    checks = []

    # W~+ + W~- = 0 at omega = 0 (k != 0): finite point, e5 only
    rec = classify(0.0, 2.0, prob)
    checks.append(rec.point_finite and not rec.discrete and rec.e5
                  and not rec.e4 and not rec.e3 and not rec.e2 and not rec.e1
                  and not rec.weyl and not rec.resolvent)

    # W~+ = 0 with W_- in [k^2, inf): all five essential spectra
    rec = classify(1.0, 0.5, prob)
    checks.append(rec.point_infinite and rec.e1 and rec.e2 and rec.e3
                  and rec.e4 and rec.e5 and rec.weyl)

    # W~+ = 0 with W_- outside [k^2, inf): e1 off, e2-e5 on (three-way split)
    rec = classify(1.0, 2.0, prob)
    checks.append(rec.point_infinite and not rec.e1 and rec.e2 and rec.e3
                  and rec.e4 and rec.e5 and rec.weyl)

    # k = 0 on the exceptional set: everything essential
    rec = classify(1.0, 0.0, prob)
    checks.append(rec.e1 and rec.e5 and rec.weyl and not rec.resolvent
                  and not rec.point_finite and not rec.discrete)
    rec = classify(0.0, 0.0, prob)
    checks.append(rec.e1 and rec.e5 and rec.weyl and not rec.point_finite)

    # resolvent-on-Omega0 branch from a second fixture
    prob2 = InterfaceProblem(DielectricModel.constant(1.0), DielectricModel.constant(2.0))
    rec = classify(0.0, 1.0, prob2)
    checks.append(rec.resolvent and not rec.e5)

    # the three-way split is realized within one problem at k = 2:
    # sigma_e1 != sigma_e2 (omega = 1) and sigma_e4 != sigma_e5 (omega = 0)
    _report(7, all(checks), f"{sum(checks)}/{len(checks)} exceptional branches match")


def test_criterion_8_2d_consistency(drude_problem, lossless_problem, guided_2d_problem):
    rng = np.random.default_rng(123)
    implic = 0
    ok = True
    for i in range(500):
        if i % 2 == 0:
            z = complex(0.0, rng.uniform(-0.999, -0.001))
        else:
            z = complex(rng.uniform(-4, 4), rng.uniform(-1.1, 0.5))
        k = float(rng.uniform(0.05, 5.0))
        try:
            if in_M("-", z, k, drude_problem):
                implic += 1
                ok = ok and in_M2("-", z, drude_problem)
        except Exception:
            continue
    witness_err = 0.0
    for prob, k in ((lossless_problem, 3.0), (lossless_problem, 1.2)):
        for m in eigen_omegas(k, prob):
            hit, a = in_N2(m.omega, prob)
            ok = ok and hit
            witness_err = max(witness_err, abs(a - k * k) / (k * k))
    hit, a = in_N2(-1j, guided_2d_problem)
    anchor_err = abs(a - 3.41973)
    ok = ok and hit and witness_err <= 1e-8 and anchor_err <= 1e-4 and implic > 20
    _report(8, ok, f"{implic} M- implications, witness err {witness_err:.1e}, "
                   f"a = {a:.6f} vs 3.41973 (err {anchor_err:.1e})")


def test_criterion_9_lambda_isolation(lossless_problem):
    mode = [m for m in eigen_omegas(3.0, lossless_problem)
            if abs(m.omega - PLASMON) < 1e-6][0]
    grid = make_grid(12.0, 1 / 200)
    rep = lambda_isolation_probe(mode.omega, 3.0, lossless_problem, grid=grid)
    rep_ess = lambda_isolation_probe(3.0, 3.0, lossless_problem, grid=grid)
    ok = rep.separation_factor >= 100.0 and rep_ess.separation_factor < 100.0
    _report(9, ok, f"mode factor {rep.separation_factor:.0f} (>= 100), "
                   f"essential factor {rep_ess.separation_factor:.2f} (< 100)")


def test_criterion_10_invariant_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    problems = [
        InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
        InterfaceProblem(DielectricModel.constant(1.5), DielectricModel.drude(1.2, 0.4)),
        InterfaceProblem(DielectricModel.drude(0.6, 0.9), DielectricModel.drude(1.0, 1.7)),
        InterfaceProblem(DielectricModel.constant(2.5), DielectricModel.constant(-1.5)),
        InterfaceProblem(DielectricModel.rational([1, -1], [1]),
                         DielectricModel.constant(1.0)),
    ]
    ks = [0.0, 0.7, 3.0, 5.5]
    count = 0
    checked_pairs = 0
    for prob in problems:
        for i in range(20000):
            z = complex(rng.uniform(-5, 5), rng.uniform(-2.5, 1.0))
            k = ks[i % 4]
            rec = classify(z, k, prob)
            count += 1
            if rec.in_domain:
                assert rec.resolvent != rec.in_spectrum
                chain = (rec.e1, rec.e2, rec.e3, rec.e4, rec.e5)
                assert all((not a) or b for a, b in zip(chain, chain[1:]))
                assert not (rec.discrete and rec.e5)
            else:
                assert not any(rec.flags())
            if i % 40 == 0:
                rec2 = classify(-z.conjugate(), k, prob)
                assert rec.flags() == rec2.flags()
                checked_pairs += 1
    dt = time.perf_counter() - t0
    ok = count == 100000 and dt < 60.0
    _report(10, ok, f"{count} classifications + {checked_pairs} conjugate pairs "
                    f"upheld every invariant in {dt:.1f}s")
