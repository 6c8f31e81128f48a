"""Exact symmetries of the interface pencil as a standing oracle (ROADMAP item 25).

Each relation maps a problem and its omega to another whose answer is known
exactly from the first, so it needs no reference solution and reaches k and
|omega| up to 1e150:

* R1, side swap: InterfaceProblem(minus, plus) swaps the M+ and M- bits of
  every reduced code, keeps N and POINTWISE, and keeps every eigen_sweep mode.
* R2, conjugation: both media have W-tilde(-conj(omega)) = conj(W-tilde(omega)),
  so omega -> -conj(omega) keeps every code, and the modes mirror.
* R3, frequency scaling: coefficient j of a degree-d polynomial times
  c^-(d - j) and scale / c^2 give W-tilde_c(omega) = W-tilde(omega / c) / c^2,
  so W_c(c omega) = W(omega): the code of c omega in the scaled media is the
  code of omega, and the modes scale by c. For c a power of two every scaling
  is exact in floating point.

The media are the benchmark's lossy Drude and three-pole-pair (tools/smoke.sh).
The omega are seeded points of a box, which almost never fall on a ray, plus the
sampled sets of the portrait's overlays (M+, M- and N at the case's k), so that
every bit of the code is exercised. The cases that fail today are strict
xfails: a fix shows as an XPASS.
"""

import dataclasses

import numpy as np
import pytest

from pencil_spectra import DielectricModel, InterfaceProblem, omega0_set, singular_points
from pencil_spectra.classify1d import M_MINUS, M_PLUS, POINTWISE, classify_array
from pencil_spectra.complex_numerics import DEFAULT_TOL
from pencil_spectra.dielectric import _near_any
from pencil_spectra.modes import eigen_sweep
from pencil_spectra.trace_cli import _n_points, _ray_points

MEDIA = {
    "drude": InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
    "three-pole-pair": InterfaceProblem(
        DielectricModel.constant(2.0),
        DielectricModel.rational(
            [1, 1.2j, -14.93, -10.916j, 52.0786, 17.29544j, -38.147584],
            [1, 1.2j, -10.43, -7.416j, 24.5936, 7.74144j, -11.075584])),
}
N_OMEGA = 20_000
KS = (3.0, 1000.0, None)                 # None: the 2D pencil
HUGE_KS = (1e4, 1e52, 1e150)            # R1 and R2 only, omega scaled by k
CASES = [(k, 1.0, N_OMEGA) for k in KS] + [(k, k, N_OMEGA) for k in HUGE_KS]
EIGEN_KS = [0.5, 3.0, 1e3, 1e32]
SCALES = (2.0**20, 2.0**-20, 2.0**100)
ITEM_22 = "ROADMAP item 22: "


def _omegas(seed: int, problem, k, stretch: float = 1.0, n: int = N_OMEGA) -> np.ndarray:
    """n seeded points of stretch ([-4, 4] x [-1.2, 0.4]), then the sampled sets of
    problem at k: the points of M+, M- and N that the portrait overlays mark."""
    rng = np.random.default_rng(seed)
    box = stretch * (rng.uniform(-4.0, 4.0, n) + 1j * rng.uniform(-1.2, 0.4, n))
    sets = (_ray_points(problem, "+", k, DEFAULT_TOL) + _ray_points(problem, "-", k, DEFAULT_TOL)
            + _n_points(problem, k, DEFAULT_TOL))
    return np.concatenate([box, np.array(sets, dtype=complex)])


def _codes(omega, k, problem) -> list:
    """Per point: its record's flags and branch note, without the '@location' of a pole."""
    ac = classify_array(omega, k, problem)
    return [(rec.flags(), rec.branch_note.split("@")[0])
            for rec in map(ac.record, range(ac.codes.size))]


def _swap_bits(codes: np.ndarray) -> np.ndarray:
    """The M+ and M- bits exchanged; POINTWISE stays."""
    swapped = (codes & ~(M_PLUS | M_MINUS) | (codes & M_PLUS) * M_MINUS
               | (codes & M_MINUS) // M_MINUS)
    return np.where(codes == POINTWISE, POINTWISE, swapped)


def _swapped(problem: InterfaceProblem) -> InterfaceProblem:
    return InterfaceProblem(problem.minus, problem.plus)


def _scaled_model(model: DielectricModel, c: float) -> DielectricModel:
    def scale(coeffs):
        d = len(coeffs) - 1
        return tuple(a * c ** -(d - j) for j, a in enumerate(coeffs))
    return dataclasses.replace(model, numerator=scale(model.numerator),
                               denominator=scale(model.denominator), scale=model.scale / c**2)


def _scaled(problem: InterfaceProblem, c: float) -> InterfaceProblem:
    return InterfaceProblem(_scaled_model(problem.plus, c), _scaled_model(problem.minus, c))


def _mode_omegas(problem, ks=EIGEN_KS) -> list:
    return [np.array([m.omega for m in modes]) for modes in eigen_sweep(ks, problem)]


def _same_modes(got, want) -> bool:
    """Equal mode sets, each within 1e-12 |omega| (sorted by (Re, Im), as eigen_sweep)."""
    return all(g.size == w.size and np.all(np.abs(g - w) <= 1e-12 * np.abs(w))
               for g, w in zip(got, want))


def _sorted(zs: np.ndarray) -> np.ndarray:
    return zs[np.lexsort((zs.imag, zs.real))]


# ---------------------------------------------------------------------------
# R1: side swap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MEDIA)
@pytest.mark.parametrize("k, stretch, n", CASES)
def test_r1_side_swap_swaps_the_ray_bits(name, k, stretch, n):
    problem = MEDIA[name]
    omega = _omegas(1, problem, k, stretch, n)
    codes = classify_array(omega, k, problem).codes
    swapped = classify_array(omega, k, _swapped(problem)).codes
    assert np.array_equal(swapped, _swap_bits(codes))


@pytest.mark.parametrize("name", MEDIA)
def test_r1_side_swap_keeps_the_modes(name):
    problem = MEDIA[name]
    got, want = _mode_omegas(_swapped(problem)), _mode_omegas(problem)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# R2: omega -> -conj(omega)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MEDIA)
@pytest.mark.parametrize("k, stretch, n", CASES)
def test_r2_conjugation_keeps_every_code(name, k, stretch, n):
    problem = MEDIA[name]
    omega = _omegas(2, problem, k, stretch, n)
    assert _codes(-omega.conj(), k, problem) == _codes(omega, k, problem)


@pytest.mark.parametrize("name", MEDIA)
def test_r2_conjugation_mirrors_the_modes(name):
    modes = _mode_omegas(MEDIA[name])
    assert sum(z.size for z in modes) > 0
    assert _same_modes([_sorted(-z.conj()) for z in modes], modes)


# ---------------------------------------------------------------------------
# R3: exact frequency scaling
# ---------------------------------------------------------------------------

def _special(problem) -> list:
    """The poles and the Omega_0 points."""
    return list(singular_points(problem)) + [p.omega for p in omega0_set(problem)]


def _within_scaled_reach(omega, problem, c) -> np.ndarray:
    """Mask of the omega within ray_imag_tol / min(c, 1) of a pole or an Omega_0 point.
    The reach of S and Omega_0 is ray_imag_tol in omega, so for c < 1 these points
    fall within it in the scaled media alone; test_r3_near_a_special_point takes them."""
    return _near_any(omega, _special(problem), DEFAULT_TOL.ray_imag_tol / min(c, 1.0))


@pytest.mark.parametrize("name", MEDIA)
@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("k", KS)
def test_r3_frequency_scaling_keeps_every_code(name, c, k):
    problem = MEDIA[name]
    omega = _omegas(3, problem, k)
    omega = omega[~_within_scaled_reach(omega, problem, c)]
    assert _codes(c * omega, k, _scaled(problem, c)) == _codes(omega, k, problem)


@pytest.mark.parametrize("name", MEDIA)
@pytest.mark.parametrize("c", SCALES)
def test_r3_frequency_scaling_scales_the_modes(name, c):
    problem = MEDIA[name]
    modes = _mode_omegas(problem)
    assert _same_modes(_mode_omegas(_scaled(problem, c)), [c * z for z in modes])


@pytest.mark.xfail(strict=True, reason=ITEM_22 + "the S and Omega_0 reach is absolute in "
                   "omega, so at c = 2^-20 a point 1e-6 from a pole or an Omega_0 point "
                   "falls within it")
@pytest.mark.parametrize("name", MEDIA)
@pytest.mark.parametrize("k", KS)
def test_r3_near_a_special_point(name, k):
    """Three points 1e-6 from each pole and each Omega_0 point, and the omega of
    test_r3_frequency_scaling_keeps_every_code within the scaled reach."""
    problem, c = MEDIA[name], 2.0**-20
    offsets = 1e-6 * np.exp(2j * np.pi * (np.arange(3) / 3 + 0.1))
    drawn = _omegas(3, problem, k)
    omega = np.concatenate([(np.array(_special(problem))[:, None] + offsets).ravel(),
                            drawn[_within_scaled_reach(drawn, problem, c)]])
    assert _codes(c * omega, k, _scaled(problem, c)) == _codes(omega, k, problem)


@pytest.mark.xfail(strict=True, reason=ITEM_22 + "(c omega)^2 overflows at omega = 1e150 "
                   "and c = 2^100")
@pytest.mark.parametrize("name", MEDIA)
def test_r3_real_omega_1e150_scaled_up(name):
    problem, c = MEDIA[name], 2.0**100
    omega = np.array([1e150 + 0j])
    assert _codes(c * omega, 3.0, _scaled(problem, c)) == _codes(omega, 3.0, problem)


@pytest.mark.xfail(strict=True, reason=ITEM_22 + "at real omega = 1e150 the M- bit of lossy "
                   "Drude rests on rounding, and c = 2^-20 turns M+- into M+")
def test_r3_real_omega_1e150_scaled_down_on_drude():
    problem, c = MEDIA["drude"], 2.0**-20
    omega = np.array([1e150 + 0j])
    assert _codes(c * omega, 3.0, _scaled(problem, c)) == _codes(omega, 3.0, problem)
