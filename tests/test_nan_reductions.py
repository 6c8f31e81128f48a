"""A NaN never reads as a pass: the resolvent's verify report, the shooting suite
and the lambda-isolation probe reduce with NaN-propagating maxima and minima
(Python's max and min drop a NaN: max(0.0, nan) == 0.0)."""
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pencil_spectra import fd_oracle, modes, trace_cli
from pencil_spectra.fd_oracle import PROBE_RADII, lambda_isolation_probe
from pencil_spectra.modes import bump
from pencil_spectra.resolvent import RhsField, make_grid, solve, verify


@pytest.fixture(scope="module")
def drude_solution(drude_problem):
    grid = make_grid(8.0, 1 / 100)
    r2 = lambda x: bump((np.asarray(x) - 1.5) / 0.5)
    r = RhsField.from_callables(grid, 3.0, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))
    return solve(0.5j, 3.0, r, drude_problem), r


@pytest.mark.parametrize("node", ["left", "right"])
def test_verify_reports_a_nan_node(node, drude_solution, drude_problem):
    sol, r = drude_solution
    clean = sol.report
    assert math.isfinite(clean.ode_residual_max) and math.isfinite(clean.divergence_max)
    assert verify(sol, r, 0.5j, 3.0, drude_problem) == clean
    u = sol.u.copy()
    i = sol.grid.x.size // 4 if node == "left" else 3 * sol.grid.x.size // 4
    assert (sol.grid.x[i] < 0) == (node == "left")
    u[1, i] = math.nan
    rep = verify(replace(sol, u=u), r, 0.5j, 3.0, drude_problem)
    assert math.isnan(rep.ode_residual_max) and math.isnan(rep.divergence_max)
    assert math.isnan(rep.ode_residuals[1])


def test_shoot_suite_fails_on_nan_roots(drude_problem, monkeypatch):
    monkeypatch.setattr(fd_oracle, "shoot_refine", lambda *args: complex(math.nan, math.nan))
    ok, detail = trace_cli._suite_shoot(drude_problem, 3.0, fd_oracle.DEFAULT_TOL)
    assert not ok and detail.endswith("= nan")


def test_shoot_suite_without_modes_fails_on_a_nan_determinant(drude_problem, monkeypatch):
    monkeypatch.setattr(modes, "eigen_omegas", lambda *args: [])
    monkeypatch.setattr(fd_oracle, "shoot_determinant",
                        lambda om, *args: math.nan if om.real > 2 else 1.0)
    ok, detail = trace_cli._suite_shoot(drude_problem, 3.0, fd_oracle.DEFAULT_TOL)
    assert not ok and detail.endswith("dips to nan")
    monkeypatch.setattr(fd_oracle, "shoot_determinant", lambda om, *args: 1.0)
    assert trace_cli._suite_shoot(drude_problem, 3.0, fd_oracle.DEFAULT_TOL) == (
        True, "no modes; determinant stays >= 1.00e+00")


@pytest.mark.parametrize("nan_at", [None, 1.0, 1.0 + PROBE_RADII[1] * 1j])
def test_lambda_probe_fails_on_a_nan_sigma(nan_at, drude_problem, monkeypatch):
    # sigma_min = |lambda - 1| + 1e-4 on a stand-in pencil, NaN at one lambda
    def sigma(block):
        if nan_at is not None and abs(block - nan_at) < 1e-12:
            return math.nan
        return abs(block - 1) + 1e-4

    monkeypatch.setattr(fd_oracle, "discretize",
                        lambda *args, lam, **kw: SimpleNamespace(block2=lam + 1, block3=lam))
    monkeypatch.setattr(fd_oracle, "smallest_singular_value", sigma)
    rep = lambda_isolation_probe(1.0, 3.0, drude_problem, grid=make_grid(1.0, 0.1))
    if nan_at is None:
        assert rep.sigma_at_one == 1e-4 and rep.isolated
        assert rep.separation_factor == pytest.approx((PROBE_RADII[0] + 1e-4) / 1e-4)
    else:
        assert math.isnan(rep.separation_factor) and not rep.isolated
