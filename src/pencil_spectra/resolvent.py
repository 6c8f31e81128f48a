"""Resolvent solves for the 1D pencil by variation of parameters.

For omega in the resolvent set, the solution of (T_k - W(omega)) u = r with a
divergence-free right-hand side is written explicitly: u2 and u3 come from the
half-line Green kernels e^(-+ mu_pm x1) glued by the interface conditions
(the constants C2 and C3), u1 is slaved algebraically to u2'. One kernel,
_exp_kernels, computes both exponential integrals of a half-line in a single
array pass: the right-hand side is evaluated once on every Gauss-Legendre node
of the half-line, the per-cell moments (exponential weight folded in per
panel) come from two weighted row sums, and stable one-sided recursions
accumulate them (every propagation factor has modulus < 1 in the recursion
direction). The moments entering C2 and C3 are read off the kernel arrays at
the interface node, so each (side, component) pair is integrated once.

The interface x1 = 0 is stored as a double node (0-, 0+), so jumps are
first-class data. r components live on the grid together with generating
callables; a solve is linear in r by construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .complex_numerics import DEFAULT_TOL, Tolerances, principal_sqrt
from .classify1d import classify
from .dielectric import InterfaceProblem, w_values
from .errors import PreconditionError, SpectralPointError

_CELL_GL = 8
# make_grid's largest node count. A resolve's peak memory grows by about 480
# bytes per node (measured: 43.8 MB at 22k nodes, 134 MB at 220k), so the cap
# is about 5 GB.
MAX_GRID_NODES = 10_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L] with the interface stored as the node pair (0-, 0+)."""

    L: float
    h: float
    x: np.ndarray
    i_zero_minus: int
    i_zero_plus: int

    def left(self) -> np.ndarray:
        return self.x[: self.i_zero_minus + 1]

    def right(self) -> np.ndarray:
        return self.x[self.i_zero_plus:]


def make_grid(L: float, h: float) -> Grid:
    """Spacing h on [-L, L], L rounded to a multiple of h. ValueError for fewer than
    4 cells per side or more than MAX_GRID_NODES nodes, before anything is allocated."""
    cells = L / h
    if not 2 * cells + 2 <= MAX_GRID_NODES:
        raise ValueError(f"grid needs {2 * cells + 2:.3g} nodes, above {MAX_GRID_NODES}")
    m = int(round(cells))
    if m < 4:
        raise ValueError("grid needs at least 4 cells per side")
    L = m * h
    xl = np.linspace(-L, 0.0, m + 1)
    xr = np.linspace(0.0, L, m + 1)
    x = np.concatenate([xl, xr])
    return Grid(L=L, h=h, x=x, i_zero_minus=m, i_zero_plus=m + 1)


def suggest_half_length(omega: complex, k: float, problem: InterfaceProblem,
                        support_edge: float, h: float,
                        tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest L (multiple of h) with exp(-Re mu (L - edge)) < 1e-12 on both sides."""
    _, _, w_p, w_m = w_values(problem, omega, tol)
    alpha = min(principal_sqrt(k * k - w_p).real, principal_sqrt(k * k - w_m).real)
    if alpha <= 0:
        raise PreconditionError("decay rates are not positive at this omega")
    L = abs(support_edge) + 27.7 / alpha
    if not math.isfinite(L / h):
        raise PreconditionError(f"h = {h:g} is too small: L / h overflows (L = {L:g})")
    return math.ceil(L / h) * h


@lru_cache(maxsize=8)
def _gl_cell(n=_CELL_GL):
    xi, wq = np.polynomial.legendre.leggauss(n)
    return 0.5 * (xi + 1.0), 0.5 * wq  # nodes/weights on [0, 1]


@dataclass(frozen=True)
class RhsField:
    """Divergence-free right-hand side sampled on a Grid.

    r2 and r3 are free compactly supported profiles; r1 is slaved to the
    divergence condition r1' = -i k r2 with r1(-L) = 0 (for k = 0, r1 is the
    constant 0). For k != 0 the sampled r is genuinely compactly supported
    only when r2 has zero mean; the solve itself is local and does not
    require that, but L2-membership of r on the line does.
    """

    grid: Grid
    k: float
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    support: tuple
    r2_fn: Optional[Callable] = None
    r3_fn: Optional[Callable] = None

    def norm(self) -> float:
        h = self.grid.h
        total = 0.0
        for comp in (self.r1, self.r2, self.r3):
            total += float(np.trapezoid(np.abs(comp) ** 2, dx=h))
        return math.sqrt(total)

    @staticmethod
    def from_callables(grid: Grid, k: float, r2_fn=None, r3_fn=None,
                       support=None) -> "RhsField":
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
        f2 = r2_fn if r2_fn is not None else zero
        f3 = r3_fn if r3_fn is not None else zero
        if support is None:
            support = (-grid.L, grid.L)
        lo, hi = support
        if lo < -grid.L or hi > grid.L:
            raise PreconditionError("rhs support must sit inside [-L, L]")
        x = grid.x
        r2 = np.asarray(f2(x), dtype=complex)
        r3 = np.asarray(f3(x), dtype=complex)
        r1 = np.zeros_like(r2)
        if k != 0.0:
            r1 = -1j * k * _cumulative_integral(grid, f2)
        return RhsField(grid=grid, k=k, r1=r1, r2=r2, r3=r3,
                        support=(float(lo), float(hi)), r2_fn=f2, r3_fn=f3)


def _node_values(starts: np.ndarray, widths, fn) -> np.ndarray:
    """fn at the Gauss-Legendre nodes of the cells [starts, starts + widths].

    One call of fn on all nodes; returns shape (cells, _CELL_GL).
    """
    offs, _ = _gl_cell()
    t = starts[:, None] + np.asarray(widths)[..., None] * offs
    return np.asarray(fn(t.ravel()), dtype=complex).reshape(t.shape)


def _cumulative_integral(grid: Grid, fn) -> np.ndarray:
    """int_{-L}^{x_j} fn(t) dt at every node, per-cell Gauss-Legendre."""
    x = grid.x
    _, wq = _gl_cell()
    widths = np.diff(x)
    cells = widths > 0  # the interface cell (0-, 0+) has zero width
    vals = _node_values(x[:-1][cells], widths[cells], fn)
    cell_int = np.zeros(x.size - 1, dtype=complex)
    cell_int[cells] = widths[cells] * (vals * wq).sum(axis=1)
    return np.concatenate([[0j], np.cumsum(cell_int)])


def _exp_kernels(xs: np.ndarray, fn, mu: complex):
    """Stable weighted cumulative integrals against e^(+- mu t) on one half-line.

    Returns (S, T) with
        S_j = e^(mu x_j)  int_{x_j}^{x_end} e^(-mu t) f dt
        T_j = e^(-mu x_j) int_{x_0}^{x_j}   e^(mu t)  f dt
    Every recursion factor e^(-mu h) has modulus < 1, so no overflow occurs
    regardless of Re(mu) * L.
    """
    n = xs.size
    if n < 2:
        return np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    offs, wq = _gl_cell()
    h = xs[1] - xs[0]
    vals = _node_values(xs[:-1], h, fn)
    tloc = h * offs
    # m_j = int_{x_j}^{x_{j+1}} e^(-mu (t - x_j)) f dt and e^(mu (t - x_{j+1})) f dt;
    # row sums rather than @ keep numpy's per-cell summation order
    m_s = (vals * (wq * np.exp(-mu * tloc) * h)).sum(axis=1).tolist()
    m_t = (vals * (wq * np.exp(mu * (tloc - h)) * h)).sum(axis=1).tolist()
    decay = complex(np.exp(-mu * h))
    S = [0j] * n
    T = [0j] * n
    acc = 0j
    for j in range(n - 2, -1, -1):
        acc = m_s[j] + decay * acc
        S[j] = acc
    acc = 0j
    for j in range(n - 1):
        acc = decay * acc + m_t[j]
        T[j + 1] = acc
    return np.array(S), np.array(T)


@dataclass(frozen=True)
class VerifyReport:
    """Independent checks of a resolvent solution against the defining equations."""

    ode_residuals: tuple       # per-equation max |lhs - r| via 4th-order FD
    ode_residual_max: float
    jumps: tuple               # |[Wt u1]|, |[u2]|, |[u3]|, |[u2'-ik u1]|, |[u3']|
    divergence_max: float      # max |u1' + i k u2| per half-line (FD)
    norm_ratio: float
    r_norm: float


@dataclass(frozen=True)
class ResolventSolution:
    """Sampled resolvent solution with its glue constants and verification report."""

    grid: Grid
    omega: complex
    k: float
    u: np.ndarray          # shape (3, N)
    u2_prime: np.ndarray   # closed-form derivative of u2 on the grid
    u3_prime: np.ndarray
    C2: complex
    C3: complex
    report: VerifyReport   # verify() of this solution, computed by solve

    @property
    def norm_ratio(self) -> float:
        return self.report.norm_ratio


def _half_line_solution(xs, S, T, mu, const, sign):
    """u = const*e^(-+mu x) + (1/(2 mu)) (S + T) and its derivative on one side.

    (S, T) are _exp_kernels(xs, f, mu). sign +1 is the right half-line (decay
    e^(-mu x)); -1 the left (e^(mu x)). The interface x = 0 is an end of xs.
    """
    env = np.exp(-sign * mu * xs)
    u = const * env + (S + T) / (2.0 * mu)
    du = -sign * mu * const * env + 0.5 * (S - T)
    return u, du


def solve(omega: complex, k: float, r: RhsField, problem: InterfaceProblem,
          tol: Tolerances = DEFAULT_TOL) -> ResolventSolution:
    """Solve (T_k - W(omega)) u = r on r's grid via the explicit representation."""
    omega = complex(omega)
    record = classify(omega, k, problem, tol)
    if not record.resolvent:
        raise SpectralPointError(
            f"omega={omega} is not in the resolvent set ({record.branch_note})")
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    mu_p = principal_sqrt(k * k - w_p)
    mu_m = principal_sqrt(k * k - w_m)
    if mu_p.real <= 0 or mu_m.real <= 0:
        raise PreconditionError("non-decaying branch: Re mu_pm <= 0 (unreachable in rho)")

    grid = r.grid
    xl = grid.left()
    xr = grid.right()
    nl = xl.size

    f2 = r.r2_fn
    f3 = r.r3_fn
    if f2 is None or f3 is None:
        raise PreconditionError("RhsField must carry generating callables (use from_callables)")

    (S2r, T2r), (S2l, T2l), (S3r, T3r), (S3l, T3l) = (
        _exp_kernels(xs, fn, mu) for fn in (f2, f3) for xs, mu in ((xr, mu_p), (xl, mu_m)))

    # exponential moments entering the constants, read at the interface node
    I_p2 = S2r[0]     # int_0^inf e^(-mu+ t) r2
    I_m2 = T2l[-1]    # int_-inf^0 e^(mu- t) r2
    I_p3 = S3r[0]
    I_m3 = T3l[-1]

    r1_at_0 = complex(r.r1[grid.i_zero_plus])

    if k != 0.0:
        denom = mu_p * mu_m * (wt_p * mu_m + wt_m * mu_p)
        C2 = (1j * k * (wt_p - wt_m) * r1_at_0
              + wt_p * mu_m**2 * I_p2 + wt_m * mu_p**2 * I_m2) / denom
    else:
        C2 = (I_p2 + I_m2) / (mu_p + mu_m)
    C3 = (I_p3 + I_m3) / (mu_p + mu_m)

    # u2, u3 on both sides
    a2_p = C2 - I_p2 / (2.0 * mu_p)
    a2_m = C2 - I_m2 / (2.0 * mu_m)
    a3_p = C3 - I_p3 / (2.0 * mu_p)
    a3_m = C3 - I_m3 / (2.0 * mu_m)

    u2r, du2r = _half_line_solution(xr, S2r, T2r, mu_p, a2_p, +1)
    u2l, du2l = _half_line_solution(xl, S2l, T2l, mu_m, a2_m, -1)
    u3r, du3r = _half_line_solution(xr, S3r, T3r, mu_p, a3_p, +1)
    u3l, du3l = _half_line_solution(xl, S3l, T3l, mu_m, a3_m, -1)

    N = grid.x.size
    u = np.zeros((3, N), dtype=complex)
    du2 = np.zeros(N, dtype=complex)
    du3 = np.zeros(N, dtype=complex)
    u[1, :nl] = u2l; u[1, nl:] = u2r
    u[2, :nl] = u3l; u[2, nl:] = u3r
    du2[:nl] = du2l; du2[nl:] = du2r
    du3[:nl] = du3l; du3[nl:] = du3r

    # u1 slaved to u2' (first equation of the system)
    u[0, :nl] = (r.r1[:nl] - 1j * k * du2l) / (k * k - w_m)
    u[0, nl:] = (r.r1[nl:] - 1j * k * du2r) / (k * k - w_p)

    rep = _verify_fields(grid, u, du2, du3, r, omega, k, problem, tol)
    return ResolventSolution(grid=grid, omega=omega, k=k, u=u, u2_prime=du2, u3_prime=du3,
                             C2=complex(C2), C3=complex(C3), report=rep)


def _fd_first(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative on a uniform grid, one-sided at the ends."""
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    # 4th-order one-sided stencils at the four boundary nodes
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    d[0] = np.dot(c, y[:5])
    d[1] = np.dot(c, y[1:6])
    d[-1] = -np.dot(c, y[-1:-6:-1])
    d[-2] = -np.dot(c, y[-2:-7:-1])
    return d


def _fd_second(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order second derivative on a uniform grid, one-sided at the ends."""
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h * h)
    c = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12 * h * h)
    d[0] = np.dot(c, y[:6])
    d[1] = np.dot(c, y[1:7])
    d[-1] = np.dot(c, y[-1:-7:-1])
    d[-2] = np.dot(c, y[-2:-8:-1])
    return d


def verify(sol: ResolventSolution, r: RhsField, omega: complex, k: float,
           problem: InterfaceProblem, tol: Tolerances = DEFAULT_TOL) -> VerifyReport:
    """Check the ODEs (4th-order FD), the five jumps, the divergence, and the norm."""
    return _verify_fields(sol.grid, sol.u, sol.u2_prime, sol.u3_prime, r, omega, k,
                          problem, tol)


def _verify_fields(grid: Grid, u: np.ndarray, u2_prime: np.ndarray, u3_prime: np.ndarray,
                   r: RhsField, omega: complex, k: float, problem: InterfaceProblem,
                   tol: Tolerances) -> VerifyReport:
    h = grid.h
    nl = grid.i_zero_minus + 1
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    r_norm = r.norm()
    scale = max(r_norm, 1e-300)

    res = [0.0, 0.0, 0.0]
    div_max = 0.0
    for sl, wval in ((slice(0, nl), w_m), (slice(nl, None), w_p)):
        u1 = u[0, sl]; u2 = u[1, sl]; u3 = u[2, sl]
        du1 = _fd_first(u1, h)
        du2 = _fd_first(u2, h)
        d2u2 = _fd_second(u2, h)
        d2u3 = _fd_second(u3, h)
        interior = slice(2, -2)
        eq1 = (k * k - wval) * u1 + 1j * k * du2 - r.r1[sl]
        eq2 = 1j * k * du1 - d2u2 - wval * u2 - r.r2[sl]
        eq3 = -d2u3 + (k * k - wval) * u3 - r.r3[sl]
        res[0] = max(res[0], float(np.abs(eq1[interior]).max()))
        res[1] = max(res[1], float(np.abs(eq2[interior]).max()))
        res[2] = max(res[2], float(np.abs(eq3[interior]).max()))
        div = du1 + 1j * k * u2
        div_max = max(div_max, float(np.abs(div[interior]).max()))

    im, ip = grid.i_zero_minus, grid.i_zero_plus
    jump_wu1 = abs(wt_p * u[0, ip] - wt_m * u[0, im])
    jump_u2 = abs(u[1, ip] - u[1, im])
    jump_u3 = abs(u[2, ip] - u[2, im])
    comb_p = u2_prime[ip] - 1j * k * u[0, ip]
    comb_m = u2_prime[im] - 1j * k * u[0, im]
    jump_comb = abs(comb_p - comb_m)
    jump_du3 = abs(u3_prime[ip] - u3_prime[im])

    u_norm = math.sqrt(sum(float(np.trapezoid(np.abs(u[j]) ** 2, dx=h))
                           for j in range(3)))
    return VerifyReport(
        ode_residuals=tuple(x / scale for x in res),
        ode_residual_max=max(res) / scale,
        jumps=(jump_wu1 / scale, jump_u2 / scale, jump_u3 / scale,
               jump_comb / scale, jump_du3 / scale),
        divergence_max=div_max / scale,
        norm_ratio=u_norm / scale,
        r_norm=r_norm,
    )


def save_field_csv(path, x: np.ndarray, u: np.ndarray) -> None:
    """CSV columns: x1, re_u1, im_u1, re_u2, im_u2, re_u3, im_u3 (csv.writer's dialect)."""
    cols = np.column_stack([x] + [part for c in u for part in (c.real, c.imag)])
    row = ",".join(["%.17g"] * 7) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("x1,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3\r\n")
        for lo in range(0, x.size, 4096):   # chunks bound the memory of the text
            chunk = cols[lo:lo + 4096]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def load_field_csv(path):
    """Inverse of save_field_csv; returns (x, u)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    x = data[:, 0]
    u = np.empty((3, x.size), dtype=complex)
    # part by part: re + 1j * im would turn 1 + inf i into nan + inf i
    u.real = data[:, 1::2].T
    u.imag = data[:, 2::2].T
    return x, u
