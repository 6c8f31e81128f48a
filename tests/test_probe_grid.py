"""The lambda probe's grid, sized by the probed mode, and the early FAIL where the
innermost ring meets the lambda-plane essential spectrum."""
import numpy as np
import pytest

from pencil_spectra import fd_oracle
from pencil_spectra.complex_numerics import DEFAULT_TOL, principal_sqrt
from pencil_spectra.dielectric import w_values
from pencil_spectra.modes import eigen_omegas
from pencil_spectra.trace_cli import _suite_lambda
from tests.test_classify_array import MEDIA


@pytest.fixture
def grids(monkeypatch):
    """Every grid discretize is called on, in call order."""
    seen = []
    discretize = fd_oracle.discretize

    def counting(*args, **kwargs):
        disc = discretize(*args, **kwargs)
        seen.append(disc.grid)
        return disc

    monkeypatch.setattr(fd_oracle, "discretize", counting)
    return seen


def _probed_mode(k, problem):
    """The mode `check` probes: the best-localized one."""
    modes = eigen_omegas(k, problem)
    return max(modes, key=lambda m: min(m.mu_plus.real, m.mu_minus.real)).omega


@pytest.mark.parametrize("k", np.geomspace(1.0, 1e3, 8).tolist())
def test_probe_passes_on_lossy_drude_with_a_small_grid(k, drude_problem, grids):
    """A count, not a timing: at most 5,000 nodes from k = 2.5 on, and the separation
    factor above its bound of 100 at every k."""
    ok, detail = _suite_lambda(drude_problem, k, DEFAULT_TOL)
    assert ok, detail
    assert len(grids) == 25 and len({id(g) for g in grids}) == 1   # one grid per probe
    grid = grids[0]
    if k >= 2.5:
        assert grid.x.size <= 5000
    # the rule: L = 27.7 / min Re mu (a multiple of h), h = min(1/200, 0.02 / max |mu|)
    _, _, w_p, w_m = w_values(drude_problem, _probed_mode(k, drude_problem))
    mus = principal_sqrt(k * k - w_p), principal_sqrt(k * k - w_m)
    assert grid.h == min(1 / 200, 0.02 / max(abs(mus[0]), abs(mus[1])))
    assert abs(grid.L - 27.7 / min(mus[0].real, mus[1].real)) <= grid.h / 2


def test_probe_line_at_k3_is_unchanged(drude_problem, grids):
    """The check line of the benchmark's k = 3, on half the parent's 8,002 nodes."""
    assert _suite_lambda(drude_problem, 3.0, DEFAULT_TOL) == (
        True, "sigma(lambda=1) = 3.169e-06, ring min = 9.503e-04, factor = 299.8")
    assert grids[0].x.size == 4040


def test_probe_falls_back_to_default_grid_without_decay(lossless_problem, grids, monkeypatch):
    """At the essential point omega = 3 (Re mu_+ = 0) the probe still reports, on the
    grid of default_grid."""
    monkeypatch.setattr(fd_oracle, "smallest_singular_value", lambda A: 1.0)
    rep = fd_oracle.lambda_isolation_probe(3.0, 3.0, lossless_problem)
    assert rep.separation_factor == 1.0
    ref = fd_oracle.default_grid(3.0, 3.0, lossless_problem)
    assert (grids[0].L, grids[0].h) == (ref.L, ref.h)


@pytest.mark.parametrize("medium, k, side, dist", [
    ("drude", 0.1, "+", "0.035"),     # lossy Drude: the ROADMAP's 114 s ARPACK failure
    ("lorentz", 0.5, "-", "0.036"),   # three pole pairs
])
def test_ring_meeting_the_essential_spectrum_fails_early(medium, k, side, dist, grids):
    ok, detail = _suite_lambda(MEDIA[medium], k, DEFAULT_TOL)
    assert not ok
    assert detail == (f"the {side} side's essential spectrum lies {dist} from lambda = 1, "
                      f"inside the innermost ring (0.05); probe not run")
    assert grids == []   # discretize never called


def test_ring_clear_of_the_essential_spectrum_still_probes(drude_problem, monkeypatch):
    """k = 0.2 (distance 0.071) and k = 0.5 (0.19) on lossy Drude reach the probe."""
    calls = []

    def probe(omega, k, problem, **kwargs):
        calls.append(k)
        return fd_oracle.LambdaProbeReport(omega, k, 1.0, (200.0,))

    monkeypatch.setattr(fd_oracle, "lambda_isolation_probe", probe)
    for k in (0.2, 0.5):
        assert _suite_lambda(drude_problem, k, DEFAULT_TOL)[0]
    assert calls == [0.2, 0.5]
