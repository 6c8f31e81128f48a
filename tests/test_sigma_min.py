"""sigma_min of the discretized pencil against dense SVD, its cost in structured solves and
refinement steps, its start vector, and how a non-converged iteration surfaces in `check`."""
import hashlib
import math

import numpy as np
import pytest

from pencil_spectra import eigen_omegas, lambda_isolation_probe
from pencil_spectra import fd_oracle
from pencil_spectra.dielectric import w_values
from pencil_spectra.errors import PencilSpectraError
from pencil_spectra.fd_oracle import discretize, smallest_singular_value
from pencil_spectra.resolvent import make_grid
from pencil_spectra.trace_cli import main
from tests.test_cli import DRUDE_CFG, _python

RING = 1.0 + 0.2 * np.exp(0.75j * math.pi)   # a point of the probe's outer ring


def _probed_mode(k, problem):
    """The mode `check` probes: the best-localized one."""
    modes = eigen_omegas(k, problem)
    return max(modes, key=lambda m: min(m.mu_plus.real, m.mu_minus.real)).omega


@pytest.mark.parametrize("case, k, lams", [
    ("drude", 3.0, (1.0, 1.0 + 0.2j)),
    ("drude", 10.0, (1.0, RING)),
    ("equal", 3.0, (1.0 + 0.2j,)),
    ("equal_off_axis", 3.0, (1.0 - 0.1j, RING)),
])
def test_sigma_min_matches_dense_svd(case, k, lams, drude_problem, equal_problem):
    # 802 nodes: a cheap dense SVD to check inverse Lanczos against
    grid = make_grid(4.0, 1 / 100)
    if case == "drude":
        problem, omega = drude_problem, _probed_mode(k, drude_problem)
    else:
        # equal constants: the two smallest singular values lie within 0.3% of each other
        problem, omega = equal_problem, (2.5 if case == "equal" else 2.2 + 0.01j)
    for lam in lams:
        disc = discretize(omega, k, problem, grid=grid, lam=lam)
        for block in (disc.block2, disc.block3):
            dense = np.linalg.svd(block.toarray(), compute_uv=False)[-1]
            assert smallest_singular_value(block) == pytest.approx(dense, rel=1e-8)


@pytest.mark.parametrize("k", [0.5, 3.0, 10.0, 50.0])
def test_sigma_min_with_lambda_on_each_essential_ray(k, drude_problem):
    """lambda = t / W_side on a side's ray {t / W : t >= k^2}, with t a discrete eigenvalue
    of that side's stencil, so that one DST pivot Lambda_j vanishes to rounding (exactly,
    on the constant side): the refinement step must still give dense SVD's sigma_min."""
    omega = _probed_mode(k, drude_problem)
    for grid in (make_grid(1.0, 1 / 10), make_grid(2.0, 1 / 100)):
        n, h = grid.i_zero_minus - 1, grid.h
        for wv in w_values(drude_problem, omega)[2:]:
            for j in (1, n // 3):
                t = k * k + 2.0 / h**2 * (1.0 - math.cos(math.pi * j / (n + 1)))
                disc = discretize(omega, k, drude_problem, grid=grid, lam=t / wv)
                for block in (disc.block2, disc.block3):
                    lam = np.abs(block.hat.lam)
                    assert lam.min() <= 1e-12 * lam.max()
                    dense = np.linalg.svd(block.toarray(), compute_uv=False)[-1]
                    assert smallest_singular_value(block) == pytest.approx(dense, rel=1e-8)


@pytest.mark.parametrize("offset", [10.0**-e for e in range(2, 13)] + [0.0])
def test_sigma_min_across_the_refinement_threshold(offset, drude_problem):
    """lambda = (1 + offset) t / W_side, toward a discrete eigenvalue t of a side's stencil
    on its ray: as the offset falls, that side's DST pivots spread from about 3e5 (5e2 at
    j = n // 3) to a vanishing pivot, and the structured solve refines once they spread
    past 1/sqrt(eps). sigma_min matches dense SVD on both sides of that threshold."""
    k, grid = 3.0, make_grid(2.0, 1 / 100)
    omega = _probed_mode(k, drude_problem)
    n, h = grid.i_zero_minus - 1, grid.h
    refined = set()
    for wv in w_values(drude_problem, omega)[2:]:
        for j in (1, n // 3):
            t = k * k + 2.0 / h**2 * (1.0 - math.cos(math.pi * j / (n + 1)))
            disc = discretize(omega, k, drude_problem, grid=grid, lam=(1.0 + offset) * t / wv)
            for block in (disc.block2, disc.block3):
                refined.add(block.hat.refine)
                dense = np.linalg.svd(block.toarray(), compute_uv=False)[-1]
                assert smallest_singular_value(block) == pytest.approx(dense, rel=1e-8)
    if offset in (1e-2, 0.0):   # the sweep's ends: every block on one side of the threshold
        assert refined == {offset == 0.0}


def test_refinement_only_where_the_pivots_spread(drude_problem, monkeypatch):
    """Counted applications of the block, one per refinement step: the lossy-Drude k = 3
    probe takes none, and a block with a vanishing pivot takes one per solve."""
    calls = {"solve": 0, "apply": 0}
    for name in calls:
        method = getattr(fd_oracle._Bordered, name)

        def counting(self, y, name=name, method=method):
            calls[name] += 1
            return method(self, y)

        monkeypatch.setattr(fd_oracle._Bordered, name, counting)
    assert lambda_isolation_probe(_probed_mode(3.0, drude_problem), 3.0, drude_problem).isolated
    assert calls["solve"] > 0 and calls["apply"] == 0

    calls.update(solve=0, apply=0)
    grid, omega = make_grid(2.0, 1 / 100), _probed_mode(3.0, drude_problem)
    n, h = grid.i_zero_minus - 1, grid.h
    t = 9.0 + 2.0 / h**2 * (1.0 - math.cos(math.pi / (n + 1)))   # j = 1 on the constant side
    block = discretize(omega, 3.0, drude_problem, grid=grid,
                       lam=t / w_values(drude_problem, omega)[2]).block3
    smallest_singular_value(block)
    block.solve(np.ones(grid.x.size))
    assert calls["solve"] > 0 and calls["apply"] == calls["solve"]


def test_start_vector_is_fixed_and_read_only():
    """The Lanczos start vector is splitmix64's, the same in every process, and shared
    read-only."""
    def splitmix64(i):
        z = i * 0x9E3779B97F4A7C15 % 2**64
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        return ((z ^ z >> 31) >> 11) * 2.0**-52 - 1.0

    v = fd_oracle._start_vector(1001)
    assert v[:3].tolist() == [complex(splitmix64(i), splitmix64(1001 + i)) for i in (1, 2, 3)]
    assert not v.flags.writeable and fd_oracle._start_vector(1001) is v
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 0.0
    code = ("import hashlib\n"
            "from pencil_spectra.fd_oracle import _start_vector\n"
            "print(hashlib.sha256(_start_vector(1001).tobytes()).hexdigest())\n")
    digests = {_python("-c", code).stdout for _ in range(2)}
    assert digests == {hashlib.sha256(v.tobytes()).hexdigest() + "\n"}


def _backward_error(A, x, b):
    return np.linalg.norm(A @ x - b, np.inf) / (
        np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf))


@pytest.mark.parametrize("k, half_length, h", [(0.5, 10.0, 1 / 25), (3.0, 2.5, 1 / 100),
                                               (50.0, 2.0, 1 / 200)])
def test_natural_order_lu_is_accurate(k, half_length, h, drude_problem):
    """The structured solve against LAPACK's partially pivoted LU of the assembled block,
    at lambda = 1 and on the outer ring: its solves stay backward stable, and sigma_min
    matches dense SVD."""
    grid = make_grid(half_length, h)   # 500-800 nodes: a cheap dense SVD
    omega = _probed_mode(k, drude_problem)
    b = np.random.default_rng(0).standard_normal((2, grid.x.size)).T @ [1, 1j]
    for lam in (1.0, RING):
        disc = discretize(omega, k, drude_problem, grid=grid, lam=lam)
        for block in (disc.block2, disc.block3):
            A = block.toarray()
            structured = _backward_error(A, block.solve(b), b)
            dense_lu = _backward_error(A, np.linalg.solve(A, b), b)
            assert structured <= 10 * dense_lu
            dense = np.linalg.svd(A, compute_uv=False)[-1]
            assert smallest_singular_value(block) == pytest.approx(dense, rel=1e-8)


def test_probe_lu_solve_count(drude_problem, monkeypatch):
    """A count, not a timing: structured solves in the lossy-Drude k = 3 probe on the
    default grid."""
    solves = []
    solve = fd_oracle._Bordered.solve

    def counting(self, y):
        solves.append(1)
        return solve(self, y)

    monkeypatch.setattr(fd_oracle._Bordered, "solve", counting)
    rep = lambda_isolation_probe(_probed_mode(3.0, drude_problem), 3.0, drude_problem)
    assert rep.isolated
    assert 0 < len(solves) <= 1200


def test_non_convergence_is_an_error_line(drude_problem, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fd_oracle, "_LANCZOS_STEPS", 1)
    with pytest.raises(PencilSpectraError, match="did not converge"):
        lambda_isolation_probe(_probed_mode(3.0, drude_problem), 3.0, drude_problem)

    path = tmp_path / "drude.cfg"
    path.write_text(DRUDE_CFG)
    assert main(["check", "--config", str(path), "--k", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    line = next(ln for ln in lines if "lambda-isolation" in ln)
    assert line.startswith("FAIL lambda-isolation") and "error: sigma_min" in line
    assert sum(ln.startswith("PASS") for ln in lines) == 3
