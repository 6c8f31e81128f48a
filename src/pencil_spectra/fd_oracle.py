"""Independent finite-difference cross-check of the 1D pencil.

Three probes, all independent of the closed-form representations:

* a second-order FD discretization on [-L, L] with the interface imposed as
  constraint rows at a doubled node - direct linear solves cross-validate the
  variation-of-parameters resolvent;
* a shooting detector: the two decaying half-line solutions are propagated
  to the interface by the flow map of the constant-coefficient first-order
  system (a generic matrix exponential, not the closed-form eigenfunctions)
  and matched there; its determinant vanishes exactly at eigenvalues;
* a lambda-plane probe: smallest singular values of T_k - lambda W on rings
  around lambda = 1, numerical evidence for isolation of discrete eigenvalues.
  Singular values (not eigenvalue routines) are used on purpose: the
  discretized pencil is non-normal. sigma_min comes from inverse Lanczos
  (ARPACK) on (A^H A)^(-1) applied through one sparse LU of A.

Every LU goes through _lu: SuperLU in natural column order, no relaxed supernodes.
On these tridiagonal-plus-four-rows blocks COLAMD saves no fill, at 2-4x the time.

The (u1, u2) block is assembled in Schur-reduced form: the first equation
slaves u1 = (r1 - i k u2')/(k^2 - lambda W) exactly, leaving a scalar
three-point system for u2 with the [Wt u1] jump rewritten as a one-sided
derivative constraint. A collocated first-order form would carry parasitic
oscillatory characteristic roots whenever lambda W lies in (0, k^2), which
would flood the sigma_min landscape; the reduced form has none.

Dirichlet truncation at +-L is justified only for exponentially decaying
targets: default_grid (direct solves) tightens L = 20 until exp(-Re mu L) < 1e-12. The
lambda probe's grid follows the mode: L = 27.7/min Re mu, h = min(1/200, 0.02/max |mu|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from .complex_numerics import DEFAULT_TOL, Tolerances, principal_sqrt
from .dielectric import InterfaceProblem, w, w_values
from .errors import PencilSpectraError, PreconditionError
from .resolvent import Grid, RhsField, make_grid

DEFAULT_L = 20.0
DEFAULT_H = 1.0 / 200.0
_SECANT_STEPS, _SECANT_TARGET = 60, 1e-12   # shoot_refine: step limit, |det| to stop at
_LANCZOS_NCV, _LANCZOS_TOL, _LANCZOS_STEPS = 4, 1e-10, 300   # smallest_singular_value
PROBE_RADII = (0.05, 0.1, 0.2)   # the lambda probe's rings around lambda = 1
PROBE_ANGLES = 8                 # points on each ring


@dataclass(frozen=True)
class DiscretizedPencil:
    """Sparse FD assembly of T_k - lambda W on a Grid with interface rows.

    block2 is the Schur-reduced (u1, u2) block acting on u2 alone; block3
    acts on u3. Both share one row layout: row i < interior.size is the equation
    of node interior[i] and takes its right-hand side. The constraint rows after
    them (boundary, interface) take zero, except block2's [Wt u1] row.
    """

    grid: Grid
    block2: sp.csc_matrix
    block3: sp.csc_matrix
    interior: np.ndarray       # the interior nodes, in equation-row order
    wu1_row: int               # index of the [Wt u1] constraint row (-1 if k = 0)
    wu1_rhs_factor: complex    # rhs of that row = factor * r1(0)
    denom_plus: complex        # k^2 - lam W_+
    denom_minus: complex


def discretize(omega: complex, k: float, problem: InterfaceProblem,
               grid: Grid, lam: complex = 1.0,
               tol: Tolerances = DEFAULT_TOL) -> DiscretizedPencil:
    """Assemble the FD pencil with the five interface conditions as constraint rows."""
    omega = complex(omega)
    lam = complex(lam)
    N = grid.x.size
    h = grid.h
    im, ip = grid.i_zero_minus, grid.i_zero_plus
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    den_p = k * k - lam * w_p
    den_m = k * k - lam * w_m
    if k != 0.0 and min(abs(den_p), abs(den_m)) < 1e-12 * max(1.0, abs(lam)):
        raise PreconditionError(
            "k^2 - lambda W vanishes on one side; the u1 elimination degenerates")
    fwd = np.array([-1.5, 2.0, -0.5]) / h   # one-sided derivative, second order
    bwd = np.array([1.5, -2.0, 0.5]) / h

    # interior three-point rows first, then the boundary, [u2] and derivative rows
    interior = np.r_[1:im, ip + 1:N - 1]
    n_int = interior.size
    wu1_row = n_int + 3
    # one diagonal scalar per side: each entry rounds as a per-node sum would
    diag = np.where(interior >= ip, 2.0 / h**2 + k * k - lam * w_p, 2.0 / h**2 + k * k - lam * w_m)
    off = np.full(n_int, -1.0 / h**2)
    rows = np.concatenate([np.repeat(np.arange(n_int), 3),
                           [n_int, n_int + 1, n_int + 2, n_int + 2], np.full(6, wu1_row)])
    cols = np.concatenate([(interior[:, None] + np.array([-1, 0, 1])).ravel(),
                           [0, N - 1, ip, im], [ip, ip + 1, ip + 2, im, im - 1, im - 2]])
    stencil = np.concatenate([np.column_stack([off, diag, off]).ravel(),
                              [1.0, 1.0, 1.0, -1.0]])

    def scalar_block(cp, cm):
        # derivative row cp u2'(0+) - cm u2'(0-), one-sided stencils on each side
        vals = np.concatenate([stencil, cp * fwd, -cm * bwd])
        return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(N, N)))

    block3 = scalar_block(1.0, 1.0)   # u3: the derivative itself is continuous
    if k != 0.0:
        # [Wt u1] = 0 with u1 = (r1 - i k u2')/(k^2 - lam W):
        # (Wt+/den+) u2'(0+) - (Wt-/den-) u2'(0-) = r1(0)(Wt+/den+ - Wt-/den-)/(i k)
        block2 = scalar_block(wt_p / den_p, wt_m / den_m)
        factor = (wt_p / den_p - wt_m / den_m) / (1j * k)
    else:
        # k = 0: u2 has the same interface rows as u3
        block2, factor, wu1_row = block3, 0.0, -1

    return DiscretizedPencil(
        grid=grid, block2=block2, block3=block3, interior=interior,
        wu1_row=wu1_row, wu1_rhs_factor=complex(factor),
        denom_plus=complex(den_p), denom_minus=complex(den_m),
    )


def _decay_rates(omega: complex, k: float, problem: InterfaceProblem, tol: Tolerances):
    """(min Re mu, max |mu|) over mu_pm = principal_sqrt(k^2 - W_pm) at omega."""
    mus = [principal_sqrt(k * k - wv) for wv in w_values(problem, omega, tol)[2:]]
    return min(mu.real for mu in mus), max(map(abs, mus))


def default_grid(omega: complex, k: float, problem: InterfaceProblem,
                 h: float = DEFAULT_H, tol: Tolerances = DEFAULT_TOL) -> Grid:
    """L = 20 tightened until exp(-Re mu L) < 1e-12 on both sides."""
    alpha, _ = _decay_rates(omega, k, problem, tol)
    return make_grid(max(DEFAULT_L, 27.7 / alpha) if alpha > 0 else DEFAULT_L, h)


def _d1_grid(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order first derivative, np.gradient on each half-line (never across x1 = 0):
    central inside, the assembly's one-sided (-3/2, 2, -1/2)/h at the two ends."""
    halves = np.split(u, [grid.i_zero_plus])   # x1 = 0 ends the left one and starts the right
    return np.concatenate([np.gradient(half, grid.h, edge_order=2) for half in halves])


def _lu(A: sp.csc_matrix):
    """SuperLU of one FD block in its natural column order (see the module docstring)."""
    return spla.splu(A, permc_spec="NATURAL", relax=1, panel_size=1)


def direct_solve(omega: complex, k: float, r: RhsField,
                 disc: DiscretizedPencil) -> np.ndarray:
    """Banded sparse solve of the discretized system; returns u of shape (3, N).

    u2 and u3 come from the two scalar blocks, each factored by one _lu (natural
    column order); u1 is recovered from the first equation of the system,
    u1 = (r1 - i k u2')/(k^2 - lam W), with the same second-order stencils
    used in the assembly.
    """
    if r.grid.x.size != disc.grid.x.size or abs(r.grid.h - disc.grid.h) > 1e-15:
        raise PreconditionError("rhs grid does not match the discretization grid")
    N = disc.grid.x.size
    ip = disc.grid.i_zero_plus

    rows = slice(disc.interior.size)   # equation row i takes node interior[i]
    b2 = np.zeros(N, dtype=complex)
    b2[rows] = r.r2[disc.interior]
    if disc.wu1_row >= 0:
        b2[disc.wu1_row] = disc.wu1_rhs_factor * r.r1[ip]
    b3 = np.zeros(N, dtype=complex)
    b3[rows] = r.r3[disc.interior]

    # the pencil is block diagonal: solving the blocks separately IS the
    # full solve, and keeps the u3 block bitwise identical either way
    u2 = _lu(disc.block2).solve(b2)
    u3 = _lu(disc.block3).solve(b3)

    u = np.zeros((3, N), dtype=complex)
    u[1] = u2
    u[2] = u3
    denom = np.where(np.arange(N) >= ip, disc.denom_plus, disc.denom_minus)
    u[0] = (r.r1 - 1j * k * _d1_grid(u2, disc.grid)) / denom   # at k = 0: r1 / denom, bitwise
    return u


# ---------------------------------------------------------------------------
# shooting detector
# ---------------------------------------------------------------------------


def _integrate_decaying(omega, k, problem, side, tol):
    """Propagate the decaying half-line solution of the (psi1, psi2) system to 0.

    The system is psi' = M_pm psi with M = [[0, -ik], [(W - k^2)/(ik), 0]],
    constant on each half-line, so the flow from x0 to 0 is exp(-x0 M),
    taken as a generic matrix exponential (scaling and squaring with Pade
    approximants) rather than from the closed-form mu. The start value is
    the exact decaying eigenvector at distance X from the interface; X is
    sized from the decay rate so the growth toward 0 stays comfortably inside
    floating-point range, and the backward flow damps any error in the start
    direction by exp(-2 Re mu X).
    """
    wv = w(problem.side(side), omega, tol)
    mu = principal_sqrt(k * k - wv)
    if mu.real <= 0:
        raise PreconditionError(f"side {side}: Re mu <= 0, no decaying solution")
    X = 25.0 / mu.real

    if side in ("+", "plus"):
        x0, v0 = X, np.array([1j * k, mu], dtype=complex)      # eigenvalue -mu branch
    else:
        x0, v0 = -X, np.array([-1j * k, mu], dtype=complex)    # eigenvalue +mu branch
    M = np.array([[0.0, -1j * k], [(wv - k * k) / (1j * k), 0.0]])
    return expm(-x0 * M) @ v0


def shoot_determinant(omega: complex, k: float, problem: InterfaceProblem,
                      tol: Tolerances = DEFAULT_TOL) -> complex:
    """Normalized interface-matching determinant; zero exactly at eigenvalues.

    Built from the decaying solutions propagated by each side's flow map, not
    from the closed-form eigenfunctions. Requires k != 0 and Re mu_pm > 0.
    """
    omega = complex(omega)
    if k == 0.0:
        raise PreconditionError("the (u1, u2) matching system degenerates at k = 0")
    wt_p, wt_m = w_values(problem, omega, tol)[:2]
    phi_p = _integrate_decaying(omega, k, problem, "+", tol)
    phi_m = _integrate_decaying(omega, k, problem, "-", tol)
    det = wt_p * phi_p[0] * phi_m[1] - wt_m * phi_m[0] * phi_p[1]
    scale = (abs(wt_p * phi_p[0] * phi_m[1]) + abs(wt_m * phi_m[0] * phi_p[1]))
    return det / scale if scale > 0 else det


def shoot_refine(omega0: complex, k: float, problem: InterfaceProblem,
                 tol: Tolerances = DEFAULT_TOL) -> complex:
    """Secant refinement of a shooting-determinant root from a nearby guess."""
    z0 = complex(omega0)
    z1 = z0 * (1 + 1e-6) + 1e-8
    f0 = shoot_determinant(z0, k, problem, tol)
    f1 = shoot_determinant(z1, k, problem, tol)
    for _ in range(_SECANT_STEPS):
        if f1 == f0:
            break
        z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
        z0, f0 = z1, f1
        z1 = z2
        f1 = shoot_determinant(z1, k, problem, tol)
        if abs(f1) < _SECANT_TARGET or abs(z1 - z0) < 1e-14 * (1 + abs(z1)):
            break
    return z1


# ---------------------------------------------------------------------------
# lambda-plane isolation probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaProbeReport:
    """Smallest singular values of T_k - lambda W at lambda = 1 and on rings."""

    omega: complex
    k: float
    sigma_at_one: float
    ring_radii: tuple
    ring_minima: tuple           # per-radius minimum of sigma_min over the ring
    separation_factor: float     # min over all rings / sigma_at_one

    @property
    def isolated(self) -> bool:
        return self.separation_factor >= 100.0


def smallest_singular_value(A: sp.csc_matrix) -> float:
    """sigma_min by inverse Lanczos: the largest eigenvalue of (A^H A)^(-1), one _lu."""
    n = A.shape[0]
    lu = _lu(A)
    op = spla.LinearOperator((n, n), dtype=complex,
                             matvec=lambda y: lu.solve(lu.solve(y, trans="H")))
    rng = np.random.default_rng(12345)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        top = spla.eigsh(op, k=1, which="LM", v0=v0, ncv=_LANCZOS_NCV,
                         tol=_LANCZOS_TOL, maxiter=_LANCZOS_STEPS,
                         return_eigenvectors=False)[0]
    except spla.ArpackNoConvergence as exc:
        raise PencilSpectraError(f"sigma_min did not converge: {exc}") from None
    return 1.0 / math.sqrt(top)


def ring_meets_essential(omega: complex, k: float, problem: InterfaceProblem, tol: Tolerances):
    """(side, distance, radius) if the ray {t / W : t >= k^2}, a side's lambda-plane essential
    spectrum, enters the innermost ring, else None; outer rings crossing it only lower ring min."""
    dists = [(side, (abs(wv.imag) if wv.real >= k * k else abs(wv - k * k)) / abs(wv))
             for side, wv in zip("+-", w_values(problem, complex(omega), tol)[2:])]
    return next(((s, d, PROBE_RADII[0]) for s, d in dists if d < PROBE_RADII[0]), None)


def lambda_isolation_probe(omega: complex, k: float, problem: InterfaceProblem,
                           grid: Grid | None = None,
                           tol: Tolerances = DEFAULT_TOL) -> LambdaProbeReport:
    """sigma_min map of the lambda-pencil near lambda = 1 at fixed omega."""
    omega = complex(omega)
    if grid is None:   # sized by the mode, see the module docstring
        alpha, mu_max = _decay_rates(omega, k, problem, tol)
        grid = (make_grid(27.7 / alpha, min(DEFAULT_H, 0.02 / mu_max))
                if alpha > 0 else default_grid(omega, k, problem, tol=tol))

    def sigma(lam):
        disc = discretize(omega, k, problem, grid=grid, lam=lam, tol=tol)
        s2 = smallest_singular_value(disc.block2)
        s3 = smallest_singular_value(disc.block3)
        return float(np.minimum(s2, s3))

    # np.min, not min: a NaN sigma makes the ring minimum and the factor NaN, which fails
    s1 = sigma(1.0)
    minima = [float(np.min([sigma(1.0 + rad * np.exp(2j * math.pi * j / PROBE_ANGLES))
                            for j in range(PROBE_ANGLES)])) for rad in PROBE_RADII]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = float(np.divide(np.min(minima), s1))
    return LambdaProbeReport(
        omega=omega, k=k, sigma_at_one=s1,
        ring_radii=PROBE_RADII, ring_minima=tuple(minima),
        separation_factor=factor,
    )
