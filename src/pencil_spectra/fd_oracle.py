"""Independent finite-difference cross-check of the 1D pencil.

Three probes, all independent of the closed-form representations:

* a second-order FD discretization on [-L, L] with the interface imposed as
  constraint rows at a doubled node - direct linear solves cross-validate the
  variation-of-parameters resolvent;
* a shooting detector: the two decaying half-line solutions are propagated
  to the interface by the flow map of the constant-coefficient first-order
  system (exact by Cayley-Hamilton, not from the closed-form eigenfunctions)
  and matched there; its determinant vanishes exactly at eigenvalues;
* a lambda-plane probe: smallest singular values of T_k - lambda W on rings
  around lambda = 1, numerical evidence for isolation of discrete eigenvalues.
  Singular values (not eigenvalue routines) are used on purpose: the
  discretized pencil is non-normal. sigma_min comes from restarted Lanczos
  on (A^H A)^(-1).

Each scalar block is kept in structured form (FDBlock): on each side a
tridiagonal Toeplitz stencil over the n interior nodes, and four constraint
rows. The orthonormal DST-I S diagonalises each side's stencil (Strang, "The
discrete cosine transform", SIAM Rev. 41, 1999), so in DST coordinates a block
is diag(Lambda) bordered by 4 rows and 4 columns, all in closed form (_Bordered).
A solve eliminates the diagonal and solves the 4x4 Schur complement; where the Lambda_j
spread, min |Lambda_j| < sqrt(eps) max |Lambda_j|, that alone loses digits, and one step
of iterative refinement against the exactly applied block follows (Higham 2002, ch. 12).
sigma_min runs wholly in DST coordinates, which keep the singular values; direct_solve
maps in and out through _dst, one FFT of length 2(n + 1) per side.

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

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .complex_numerics import DEFAULT_TOL, Tolerances, principal_sqrt
from .dielectric import InterfaceProblem, w, w_values
from .errors import PencilSpectraError, PreconditionError
from .resolvent import Grid, RhsField, make_grid

DEFAULT_L = 20.0
DEFAULT_H = 1.0 / 200.0
_SECANT_STEPS, _SECANT_TARGET = 60, 1e-12   # shoot_refine: step limit, |det| to stop at
# smallest_singular_value: basis size, Ritz vectors kept at a restart, tolerance, step limit
_LANCZOS_NCV, _LANCZOS_KEEP, _LANCZOS_TOL, _LANCZOS_STEPS = 8, 3, 1e-10, 300
PROBE_RADII = (0.05, 0.1, 0.2)   # the lambda probe's rings around lambda = 1
PROBE_ANGLES = 8                 # points on each ring


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis, its own inverse: one FFT of length 2(n + 1)
    of the odd extension (0, x, 0, -x reversed)."""
    n = x.shape[-1]
    z = np.zeros(x.shape[:-1] + (2 * n + 2,), dtype=complex)
    z[..., 1:n + 1] = x
    z[..., n + 2:] = -x[..., ::-1]
    return (0.5j * math.sqrt(2.0 / (n + 1))) * np.fft.fft(z)[..., 1:n + 1]


class _Bordered:
    """An FD block in DST coordinates: diag(lam) bordered by 4 rows and 4 columns.

    The interior unknowns x (2, n) hold one row per side. The border meets them
    only through the node values at each side's ends, nodes 0, 1, n - 2 and
    n - 1: in DST coordinates those are dot products with the rows of Z, that is
    S e_0, S e_1, S e_(n-2) and S e_(n-1). Rt (4 x 8) takes the 8 end values to the
    constraint rows, Ct (8 x 4) puts the 4 boundary unknowns into the interior
    rows of the end nodes, and E (4 x 4) is the rest. The Schur complement of
    diag(lam) is K = E - Rt G Ct, G holding S diag(lam)^-1 S at the end nodes.
    """

    def __init__(self, Z, lam, Ct, Rt, E):
        self.Z, self.lam, self.Ct, self.Rt, self.E = Z, lam, Ct, Rt, E
        # static pivoting (Li & Demmel, SC 1998): a pivot below eps max|lam|, exactly 0 on
        # a real ray, becomes eps max|lam|, and the refinement step in solve absorbs it
        mag = np.abs(lam)
        eps, top = np.finfo(float).eps, mag.max()
        self.inv_lam = 1.0 / np.where(mag < eps * top, eps * top, lam)   # products stream faster
        # the Schur solve alone can lose digits only where the pivots spread past 1/sqrt(eps)
        self.refine = bool(mag.min() < math.sqrt(eps) * top)
        G = np.zeros((8, 8), dtype=complex)
        for side in range(2):
            G[4 * side:4 * side + 4, 4 * side:4 * side + 4] = (Z * self.inv_lam[side]) @ Z.T
        try:
            self.Kinv = np.linalg.inv(E - Rt @ G @ Ct)
        except np.linalg.LinAlgError:   # |k| ~ 1e150: the k^2 diagonal swamps the interface rows
            raise PencilSpectraError("the FD block's 4x4 Schur complement is singular in "
                                     "floating point; no structured solve") from None

    @property
    def H(self) -> _Bordered:
        """The conjugate transpose from these factors: Z is real and G symmetric, so K^H."""
        adj = object.__new__(_Bordered)
        vars(adj).update(vars(self), lam=self.lam.conj(), inv_lam=self.inv_lam.conj(),
                         Ct=self.Rt.conj().T, Rt=self.Ct.conj().T, E=self.E.conj().T,
                         Kinv=self.Kinv.conj().T)
        return adj

    def _ends(self, xi: np.ndarray) -> np.ndarray:
        return (xi @ self.Z.T).ravel()

    def _spread(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(2, 4) @ self.Z

    def apply(self, x: np.ndarray) -> np.ndarray:
        xi, xb = x[:-4].reshape(2, -1), x[-4:]
        y = np.empty_like(x)
        yi = np.multiply(self.lam, xi, out=y[:-4].reshape(2, -1))
        yi += self._spread(self.Ct @ xb)
        y[-4:] = self.Rt @ self._ends(xi) + self.E @ xb
        return y

    def _schur_solve(self, y: np.ndarray) -> np.ndarray:
        # in place where it can: these vectors are long, and each pass over one costs
        x = np.empty_like(y)
        z = np.multiply(y[:-4].reshape(2, -1), self.inv_lam, out=x[:-4].reshape(2, -1))
        x[-4:] = xb = self.Kinv @ (y[-4:] - self.Rt @ self._ends(z))
        correction = self._spread(self.Ct @ xb)
        correction *= self.inv_lam
        z -= correction
        return x

    def solve(self, y: np.ndarray) -> np.ndarray:
        """The Schur-complement solve, refined by one step where the pivots spread."""
        x = self._schur_solve(y)
        if self.refine:
            residual = self.apply(x)
            np.subtract(y, residual, out=residual)
            x += self._schur_solve(residual)
        return x


@lru_cache(maxsize=1)
def _dst_ends(n: int):
    """cos(pi j / (n + 1)), j = 1..n, and Z: the rows S e_0, S e_1, S e_(n-2), S e_(n-1)
    of the orthonormal DST-I S of size n, sine vectors up to the sign (-1)^(j+1).
    Read-only: every block on one grid shares them."""
    theta = math.pi * np.arange(1, n + 1) / (n + 1)
    s0, s1 = math.sqrt(2.0 / (n + 1)) * np.sin([theta, 2.0 * theta])
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    out = np.cos(theta), np.array([s0, s1, alt * s1, alt * s0], dtype=complex)
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class FDBlock:
    """One scalar block of T_k - lambda W in structured form.

    The unknowns are the grid's N = 2n + 4 nodes. Row i < 2n is the three-point
    equation (off, diag[side], off) of the i-th interior node, the left side's n
    first; the four rows after them are u(-L) = 0, u(L) = 0, [u] = 0 and the
    derivative row cp u'(0+) - cm u'(0-) by one-sided second-order stencils.
    Those four rows act on the 8 nodes (0, 0- - 2h, 0- - h, 0-, 0+, 0+ + h,
    0+ + 2h, N - 1), and `rows` holds them there.
    """

    n: int          # interior nodes per side
    h: float
    diag: tuple     # (d_-, d_+): the stencil's diagonal on each side
    rows: np.ndarray

    @property
    def off(self) -> float:
        return -1.0 / self.h**2

    def toarray(self) -> np.ndarray:
        """The assembled N x N matrix, for dense references."""
        n = self.n
        A = np.zeros((2 * n + 4, 2 * n + 4), dtype=complex)
        i = np.arange(n)
        for side, first in enumerate((1, n + 3)):   # the first interior node of each side
            A[side * n + i, first + i - 1] = self.off
            A[side * n + i, first + i] = self.diag[side]
            A[side * n + i, first + i + 1] = self.off
        A[2 * n:, [0, n - 1, n, n + 1, n + 2, n + 3, n + 4, 2 * n + 3]] = self.rows
        return A

    @cached_property
    def hat(self) -> _Bordered:
        """The block in DST coordinates: S on each side's interior nodes, the identity on
        the four boundary nodes u(-L), u(0-), u(0+), u(L)."""
        cos, Z = _dst_ends(self.n)
        lam = np.array([d + 2.0 * self.off * cos for d in self.diag])
        Ct = np.zeros((8, 4), dtype=complex)   # end nodes (0, 1, n-2, n-1) of each side
        Ct[[0, 3, 4, 7], [0, 1, 2, 3]] = self.off
        Rt = np.zeros((4, 8), dtype=complex)
        Rt[:, [2, 3, 4, 5]] = self.rows[:, [1, 2, 5, 6]]
        return _Bordered(Z, lam, Ct, Rt, self.rows[:, [0, 3, 4, 7]])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """u with A u = b: b in the row layout, u in node order."""
        n = self.n
        x = self.hat.solve(np.concatenate([_dst(b[:2 * n].reshape(2, n)).ravel(), b[2 * n:]]))
        u = np.empty(2 * n + 4, dtype=complex)
        u[np.r_[1:n + 1, n + 3:2 * n + 3]] = _dst(x[:2 * n].reshape(2, n)).ravel()
        u[[0, n + 1, n + 2, 2 * n + 3]] = x[2 * n:]
        return u


@dataclass(frozen=True)
class DiscretizedPencil:
    """FD discretization of T_k - lambda W on a Grid with interface rows.

    block2 is the Schur-reduced (u1, u2) block acting on u2 alone; block3
    acts on u3. Both share one row layout: row i < interior.size is the equation
    of node interior[i] and takes its right-hand side. The constraint rows after
    them (boundary, interface) take zero, except block2's [Wt u1] row.
    """

    grid: Grid
    block2: FDBlock
    block3: FDBlock
    interior: np.ndarray       # the interior nodes, in equation-row order
    wu1_row: int               # index of the [Wt u1] constraint row (-1 if k = 0)
    wu1_rhs_factor: complex    # rhs of that row = factor * r1(0)
    denom_plus: complex        # k^2 - lam W_+
    denom_minus: complex


def discretize(omega: complex, k: float, problem: InterfaceProblem,
               grid: Grid, lam: complex = 1.0,
               tol: Tolerances = DEFAULT_TOL) -> DiscretizedPencil:
    """The FD pencil's two blocks, with the five interface conditions as constraint rows."""
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
    # one diagonal scalar per side: each entry rounds as a per-node sum would
    diag = (2.0 / h**2 + k * k - lam * w_m, 2.0 / h**2 + k * k - lam * w_p)

    def scalar_block(cp, cm):
        # u(-L), u(L), u(0+) - u(0-), and cp u'(0+) - cm u'(0-) on the row nodes
        rows = np.zeros((4, 8), dtype=complex)
        rows[0, 0] = rows[1, 7] = rows[2, 4] = 1.0
        rows[2, 3] = -1.0
        rows[3, 3:0:-1] = -cm * bwd
        rows[3, 4:7] = cp * fwd
        return FDBlock(n=im - 1, h=h, diag=diag, rows=rows)

    block3 = scalar_block(1.0, 1.0)   # u3: the derivative itself is continuous
    if k != 0.0:
        # [Wt u1] = 0 with u1 = (r1 - i k u2')/(k^2 - lam W):
        # (Wt+/den+) u2'(0+) - (Wt-/den-) u2'(0-) = r1(0)(Wt+/den+ - Wt-/den-)/(i k)
        block2 = scalar_block(wt_p / den_p, wt_m / den_m)
        factor = (wt_p / den_p - wt_m / den_m) / (1j * k)
        wu1_row = N - 1
    else:
        # k = 0: u2 has the same interface rows as u3
        block2, factor, wu1_row = block3, 0.0, -1

    return DiscretizedPencil(
        grid=grid, block2=block2, block3=block3, interior=np.r_[1:im, ip + 1:N - 1],
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


def direct_solve(k: float, r: RhsField, disc: DiscretizedPencil) -> np.ndarray:
    """Structured solve of the discretized system; returns u of shape (3, N).

    u2 and u3 come from the two scalar blocks, each solved in DST coordinates;
    u1 is recovered from the first equation of the system,
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
    u = np.zeros((3, N), dtype=complex)
    u[1] = disc.block2.solve(b2)
    u[2] = disc.block3.solve(b3)
    denom = np.where(np.arange(N) >= ip, disc.denom_plus, disc.denom_minus)
    u[0] = (r.r1 - 1j * k * _d1_grid(u[1], disc.grid)) / denom   # at k = 0: r1 / denom, bitwise
    return u


# ---------------------------------------------------------------------------
# shooting detector
# ---------------------------------------------------------------------------


def _integrate_decaying(omega, k, problem, side, tol):
    """Propagate the decaying half-line solution of the (psi1, psi2) system to 0.

    The system is psi' = M_pm psi with M = [[0, -ik], [(W - k^2)/(ik), 0]],
    constant on each half-line, so the flow from x0 to 0 is exp(A), A = -x0 M.
    A is traceless, so A^2 = bc I with b, c its off-diagonal entries, and
    exp(A) = cosh(s) I + sinh(s)/s A for either root s of bc (Cayley-Hamilton;
    Moler & Van Loan, SIAM Rev. 45, 2003), built from M, not from the closed-form
    mu; |s| = X |mu| >= 25. The start value is the exact decaying eigenvector at
    distance X from the interface; X is sized from the decay rate so the growth
    toward 0 stays comfortably inside floating-point range, and the backward flow
    damps any error in the start direction by exp(-2 Re mu X).
    """
    wv = w(problem.side(side), omega, tol)
    mu = principal_sqrt(k * k - wv)
    if mu.real <= 0:
        raise PreconditionError(f"side {side}: Re mu <= 0, no decaying solution")
    X = 25.0 / mu.real
    sign = 1.0 if side in ("+", "plus") else -1.0   # the eigenvalue -sign mu branch
    x0, v0 = sign * X, (sign * 1j * k, mu)
    b, c = x0 * 1j * k, -x0 * (wv - k * k) / (1j * k)
    s = cmath.sqrt(b * c)
    cosh, sinhc = cmath.cosh(s), cmath.sinh(s) / s
    return cosh * v0[0] + sinhc * b * v0[1], sinhc * c * v0[0] + cosh * v0[1]


def _pow2_scaled(phi):
    """phi times the power of two that puts |phi[1]| in [1/2, 1), exactly."""
    e = -math.frexp(abs(phi[1]))[1]
    return [complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) for c in phi]


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
    # exactly scaled, det / scale keeps its bits and its products stay in range at any k
    phi_p, phi_m = (_pow2_scaled(_integrate_decaying(omega, k, problem, side, tol))
                    for side in "+-")
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
    ring_minima: tuple           # per-radius minimum of sigma_min over PROBE_RADII's rings

    @property
    def separation_factor(self) -> float:
        """min over all rings / sigma_at_one; np.min and np.divide keep a NaN sigma NaN."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(np.min(self.ring_minima), self.sigma_at_one))

    @property
    def isolated(self) -> bool:
        return self.separation_factor >= 100.0


@lru_cache(maxsize=1)
def _start_vector(size: int) -> np.ndarray:
    """Lanczos's start vector, the same in every process and shared read-only: real and
    imaginary parts uniform in [-1, 1), the top 53 bits of splitmix64 at 1..2 size."""
    z = np.arange(1, 2 * size + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15   # wraps mod 2^64
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    u = ((z ^ (z >> 31)) >> 11).astype(float) * 2.0**-52 - 1.0
    v = u[:size] + 1j * u[size:]
    v.flags.writeable = False
    return v


def smallest_singular_value(block: FDBlock) -> float:
    """sigma_min as 1/sqrt of the largest eigenvalue of (A^H A)^(-1), applied in DST
    coordinates as y -> A^-1 A^-H y.

    Thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000) with full
    reorthogonalisation, from _start_vector. The basis V and the projection H keep
    (A^H A)^-1 V = V H + f e_m^T; a full basis restarts from its top _LANCZOS_KEEP
    Ritz vectors. Converged when the top Ritz pair's residual ||f|| |y_m| is at most
    _LANCZOS_TOL times its Ritz value; _LANCZOS_STEPS bounds the applications.
    """
    a = block.hat
    ah = a.H
    v = _start_vector(a.lam.size + 4)
    V = np.empty((_LANCZOS_NCV, v.size), dtype=complex)        # orthonormal rows
    H = np.zeros((_LANCZOS_NCV, _LANCZOS_NCV), dtype=complex)  # (A^H A)^-1 projected on them
    V[0] = v * (1.0 / np.linalg.norm(v))
    m = 1
    for _ in range(_LANCZOS_STEPS):
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite f fails below
            f = a.solve(ah.solve(V[m - 1]))
            c = (f.conj() @ V[:m].T).conj()
            f = f - c @ V[:m]
            f = f - (f.conj() @ V[:m].T).conj() @ V[:m]   # full reorthogonalisation
            e = -math.frexp(np.max(np.abs(f)))[1]   # ||f|| from 2^e f, exactly: no square overflows
            beta = np.ldexp(np.linalg.norm(np.ldexp(f.view(float), e).view(complex)), -e)
        H[m - 1, m - 1] = c[m - 1].real
        if not math.isfinite(beta):   # nor is f: an ill-conditioned Schur complement at huge |k|
            raise PencilSpectraError("sigma_min: the structured solve overflows; the FD "
                                     "block is singular to working precision")
        theta, Y = np.linalg.eigh(H[:m, :m])
        if beta * abs(Y[m - 1, -1]) <= _LANCZOS_TOL * theta[-1]:
            return 1.0 / math.sqrt(theta[-1])
        if m == _LANCZOS_NCV:   # restart from the top Ritz vectors
            keep = Y[:, -_LANCZOS_KEEP:]
            m = _LANCZOS_KEEP
            V[:m] = keep.T @ V
            H[:] = 0.0
            H[:m, :m] = np.diag(theta[-m:])
            H[m, :m] = beta * keep[-1]
        else:
            H[m, m - 1] = beta
        H[:m, m] = H[m, :m].conj()
        V[m] = f * (1.0 / beta)
        m += 1
    raise PencilSpectraError(f"sigma_min did not converge in {_LANCZOS_STEPS} Lanczos steps")


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
    return LambdaProbeReport(omega=omega, k=k, sigma_at_one=s1, ring_minima=tuple(minima))
