"""Resolvent solves for the 1D pencil by variation of parameters.

For omega in the resolvent set, the solution of (T_k - W(omega)) u = r with a
divergence-free right-hand side is written explicitly: u2 and u3 come from the
half-line Green kernels e^(-+ mu_pm x1) glued by the interface conditions
(the constants C2 and C3), u1 is slaved algebraically to u2'. One kernel,
_exp_kernels, computes both exponential integrals of a half-line in a single
array pass: the right-hand side is evaluated once on every Gauss-Legendre node
of the half-line, the per-cell moments (exponential weight folded in per
panel) come from two weighted row sums, and a blocked one-sided scan
accumulates them: one triangular product with the powers of the decay factor
per block of cells, then one carry per block (every factor has modulus < 1 in
the recursion direction). The moments entering C2 and C3 are read off the
kernel arrays at the interface node, so each (side, component) pair is
integrated once.

The interface x1 = 0 is stored as a double node (0-, 0+), so jumps are
first-class data. r components live on the grid together with generating
callables; a solve is linear in r by construction.

save_field_csv writes a solution as Python's '%.17g' text of every value, with
the 17 digits computed in array passes (a double-double scaling by a power of
ten) rather than formatted one float at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from .complex_numerics import DEFAULT_TOL, Tolerances, principal_sqrt
from .classify1d import classify
from .dielectric import InterfaceProblem, w_values
from .errors import PreconditionError, SpectralPointError

_SCAN_BLOCK = 64   # cells per block of _decay_scan
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


def _decaying_mus(k: float, values) -> tuple:
    """mu_pm = sqrt(k^2 - W_pm) of w_values' values; PreconditionError unless Re mu_pm > 0."""
    mu_p, mu_m = (principal_sqrt(k * k - wv) for wv in values[2:])
    if not (mu_p.real > 0 and mu_m.real > 0):   # a NaN rate (W overflowed) fails too
        raise PreconditionError(
            f"decay rates Re mu_pm = {mu_p.real:g}, {mu_m.real:g} are not positive")
    return mu_p, mu_m


def suggest_half_length(omega: complex, k: float, problem: InterfaceProblem,
                        support_edge: float, h: float,
                        tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest L (multiple of h) with exp(-Re mu (L - edge)) < 1e-12 on both sides."""
    mu_p, mu_m = _decaying_mus(k, w_values(problem, omega, tol))
    L = abs(support_edge) + 27.7 / min(mu_p.real, mu_m.real)
    if not math.isfinite(L / h):
        raise PreconditionError(f"h = {h:g} is too small: L / h overflows (L = {L:g})")
    return math.ceil(L / h) * h


@lru_cache(maxsize=1)
def _gl_cell():
    """Nodes and weights of the 8-point Gauss-Legendre rule on [0, 1].

    The values of 0.5 * (xi + 1) and 0.5 * w for (xi, w) = leggauss(8),
    stored so that no process imports numpy.polynomial for them;
    tests/test_resolvent.py recomputes them bitwise.
    """
    nodes = (0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
             0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
             0.8983332387068134, 0.9801449282487681)
    weights = (0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
               0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
               0.11119051722668721, 0.05061426814518853)
    return np.array(nodes), np.array(weights)


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
    r2_fn: Callable
    r3_fn: Callable

    def norm(self) -> float:
        """L2 norm by the trapezoid rule on the grid nodes; the pair (0-, 0+) has zero width."""
        return math.sqrt(sum(float(np.trapezoid(np.abs(comp) ** 2, x=self.grid.x))
                             for comp in (self.r1, self.r2, self.r3)))

    @staticmethod
    def from_callables(grid: Grid, k: float, r2_fn=None, r3_fn=None,
                       support=None) -> "RhsField":
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
        f2 = r2_fn if r2_fn is not None else zero
        f3 = r3_fn if r3_fn is not None else zero
        lo, hi = (-grid.L, grid.L) if support is None else support
        if lo < -grid.L or hi > grid.L:
            raise PreconditionError("rhs support must sit inside [-L, L]")
        x = grid.x
        r2 = np.asarray(f2(x), dtype=complex)
        r3 = np.asarray(f3(x), dtype=complex)
        r1 = np.zeros_like(r2)
        if k != 0.0:
            r1 = -1j * k * _cumulative_integral(grid, f2)
        return RhsField(grid=grid, k=k, r1=r1, r2=r2, r3=r3, r2_fn=f2, r3_fn=f3)


def _node_values(starts: np.ndarray, widths, fn) -> np.ndarray:
    """fn at the Gauss-Legendre nodes of the cells [starts, starts + widths].

    One call of fn on all nodes; returns shape (cells, 8).
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


def _decay_scan(m: np.ndarray, decay: complex) -> np.ndarray:
    """a_0 = 0, a_(j+1) = decay a_j + m_j: all m.size + 1 values, in blocks of _SCAN_BLOCK.

    Within a block the partial sums are one product with the lower-triangular
    Toeplitz matrix of the powers decay^(i-l); one carry per block, propagated
    by decay^_SCAN_BLOCK, enters the block's values through decay^(i+1). With
    |decay| <= 1 no factor exceeds 1 in modulus.
    """
    nb = -(-m.size // _SCAN_BLOCK)
    blocks = np.zeros(nb * _SCAN_BLOCK, dtype=complex)
    blocks[:m.size] = m
    powers = decay ** np.arange(_SCAN_BLOCK + 1)
    lag = np.subtract.outer(np.arange(_SCAN_BLOCK), np.arange(_SCAN_BLOCK))
    local = blocks.reshape(nb, _SCAN_BLOCK) @ np.where(lag >= 0, powers[lag], 0).T
    # the value before each block: carry_(b+1) = decay^_SCAN_BLOCK carry_b + last of block b
    carry = accumulate(local[:-1, -1].tolist(), lambda c, last: powers[-1] * c + last,
                       initial=0j)
    local += np.fromiter(carry, complex, nb)[:, None] * powers[1:]
    return np.concatenate(([0j], local.ravel()[:m.size]))


def _exp_kernels(xs: np.ndarray, fn, mu: complex):
    """Stable weighted cumulative integrals against e^(+- mu t) on one half-line xs.

    Returns (S, T) with
        S_j = e^(mu x_j)  int_{x_j}^{x_end} e^(-mu t) f dt
        T_j = e^(-mu x_j) int_{x_0}^{x_j}   e^(mu t)  f dt
    Every recursion factor e^(-mu h) has modulus < 1, so no overflow occurs
    regardless of Re(mu) * L.
    """
    offs, wq = _gl_cell()
    h = xs[1] - xs[0]
    vals = _node_values(xs[:-1], h, fn)
    tloc = h * offs
    # m_j = int_{x_j}^{x_{j+1}} e^(-mu (t - x_j)) f dt and e^(mu (t - x_{j+1})) f dt
    m_s = (vals * (wq * np.exp(-mu * tloc) * h)).sum(axis=1)
    m_t = (vals * (wq * np.exp(mu * (tloc - h)) * h)).sum(axis=1)
    decay = complex(np.exp(-mu * h))
    # S_j = m_s[j] + decay S_(j+1) from S_end = 0, T_(j+1) = decay T_j + m_t[j] from T_0 = 0
    return _decay_scan(m_s[::-1], decay)[::-1], _decay_scan(m_t, decay)


@dataclass(frozen=True)
class VerifyReport:
    """Independent checks of a resolvent solution against the defining equations."""

    ode_residuals: tuple       # per-equation max |lhs - r| via 4th-order FD
    jumps: tuple               # |[Wt u1]|, |[u2]|, |[u3]|, |[u2'-ik u1]|, |[u3']|
    divergence_max: float      # max |u1' + i k u2| per half-line (FD)
    norm_ratio: float
    r_norm: float

    @property
    def ode_residual_max(self) -> float:
        return float(np.max(self.ode_residuals))


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
    wt_p, wt_m, w_p, w_m = values = w_values(problem, omega, tol)
    mu_p, mu_m = _decaying_mus(k, values)

    grid = r.grid
    xl, xr = grid.left(), grid.right()
    nl = xl.size
    r1_at_0 = complex(r.r1[grid.i_zero_plus])

    N = grid.x.size
    u = np.zeros((3, N), dtype=complex)
    du2 = np.zeros(N, dtype=complex)
    du3 = np.zeros(N, dtype=complex)
    consts = []
    for row, fn, du in ((1, r.r2_fn, du2), (2, r.r3_fn, du3)):
        (S_p, T_p), (S_m, T_m) = _exp_kernels(xr, fn, mu_p), _exp_kernels(xl, fn, mu_m)
        # exponential moments entering the constant, read at the interface node:
        # I_p = int_0^inf e^(-mu+ t) r, I_m = int_-inf^0 e^(mu- t) r
        I_p, I_m = S_p[0], T_m[-1]
        if row == 1 and k != 0.0:
            denom = mu_p * mu_m * (wt_p * mu_m + wt_m * mu_p)
            C = (1j * k * (wt_p - wt_m) * r1_at_0
                 + wt_p * mu_m**2 * I_p + wt_m * mu_p**2 * I_m) / denom
        else:
            C = (I_p + I_m) / (mu_p + mu_m)
        consts.append(complex(C))
        u[row, nl:], du[nl:] = _half_line_solution(xr, S_p, T_p, mu_p, C - I_p / (2.0 * mu_p), +1)
        u[row, :nl], du[:nl] = _half_line_solution(xl, S_m, T_m, mu_m, C - I_m / (2.0 * mu_m), -1)

    # u1 slaved to u2' (first equation of the system)
    u[0, :nl] = (r.r1[:nl] - 1j * k * du2[:nl]) / (k * k - w_m)
    u[0, nl:] = (r.r1[nl:] - 1j * k * du2[nl:]) / (k * k - w_p)

    sol = ResolventSolution(grid=grid, omega=omega, k=k, u=u, u2_prime=du2, u3_prime=du3,
                            C2=consts[0], C3=consts[1], report=None)
    return replace(sol, report=verify(sol, r, omega, k, problem, tol))


def _fd_first(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order central first derivative on a uniform grid, at the nodes y[2:-2]."""
    return (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)


def _fd_second(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order central second derivative on a uniform grid, at the nodes y[2:-2]."""
    return (-y[4:] + 16 * y[3:-1] - 30 * y[2:-2] + 16 * y[1:-3] - y[:-4]) / (12 * h * h)


def verify(sol: ResolventSolution, r: RhsField, omega: complex, k: float,
           problem: InterfaceProblem, tol: Tolerances = DEFAULT_TOL) -> VerifyReport:
    """Check sol's fields: the ODEs (4th-order FD), the five jumps, the divergence and the
    norm, each relative to ||r||. solve attaches this report; sol.report is not read."""
    grid, u = sol.grid, sol.u
    h = grid.h
    nl = grid.i_zero_minus + 1
    wt_p, wt_m, w_p, w_m = w_values(problem, omega, tol)
    r_norm = r.norm()
    scale = max(r_norm, 1e-300)

    # per half-line maxima, reduced by np.max so that a NaN anywhere stays NaN
    res = np.zeros((2, 3))
    div = np.zeros(2)
    for n, (sl, wval) in enumerate(((slice(0, nl), w_m), (slice(nl, None), w_p))):
        du1 = _fd_first(u[0, sl], h)
        du2 = _fd_first(u[1, sl], h)
        d2u2 = _fd_second(u[1, sl], h)
        d2u3 = _fd_second(u[2, sl], h)
        u1, u2, u3 = u[:, sl][:, 2:-2]   # the stencils' nodes: two fewer at either end
        r1, r2, r3 = (rj[sl][2:-2] for rj in (r.r1, r.r2, r.r3))
        eq1 = (k * k - wval) * u1 + 1j * k * du2 - r1
        eq2 = 1j * k * du1 - d2u2 - wval * u2 - r2
        eq3 = -d2u3 + (k * k - wval) * u3 - r3
        res[n] = [np.abs(eq).max() for eq in (eq1, eq2, eq3)]
        div[n] = np.abs(du1 + 1j * k * u2).max()
    res = res.max(axis=0).tolist()

    im, ip = grid.i_zero_minus, grid.i_zero_plus
    jump_wu1 = abs(wt_p * u[0, ip] - wt_m * u[0, im])
    jump_u2 = abs(u[1, ip] - u[1, im])
    jump_u3 = abs(u[2, ip] - u[2, im])
    comb_p = sol.u2_prime[ip] - 1j * k * u[0, ip]
    comb_m = sol.u2_prime[im] - 1j * k * u[0, im]
    jump_comb = abs(comb_p - comb_m)
    jump_du3 = abs(sol.u3_prime[ip] - sol.u3_prime[im])

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


# ---------------------------------------------------------------------------
# the field CSV: Python's '%.17g' bytes from array passes
# ---------------------------------------------------------------------------

_CSV_CHUNK_ROWS = 1024
_VELTKAMP = 134217729.0            # 2^27 + 1: splits a double into two 26-bit halves
_SCALED_RANGE = (1e-270, 1e270)    # |v| whose scaling never overflows or goes subnormal
_HALF_MARGIN = 1e-9                # scaled-value error bound is about 5e-15
_SLOT = 26                         # the longest '%.17g' text (24 bytes) and '\r\n'
_ALPHABET = b"0123456789.e+-,\r\n"  # the literal bytes of a slot, after the 17 digits
_SOURCE = 40                       # 3 NULs, 17 digits, _ALPHABET; a multiple of 4 bytes
_X_OFFSET = 300                    # keeps the layout key of every exponent positive


def _veltkamp_hi(a):
    """The high half of Veltkamp's split; a - _veltkamp_hi(a) is the low half."""
    t = a * _VELTKAMP
    return t - (t - a)


@lru_cache(maxsize=None)
def _pow10(q: int) -> tuple:
    """(hi, lo, hi's Veltkamp halves): hi + lo is 10^q to about 2^-106 relative."""
    if q >= 0:
        p = 10 ** q
        hi = float(p)
        lo = float(p - int(hi))
    else:
        p = 10 ** -q
        hi = 1 / p                        # int / int is correctly rounded
        m, e = hi.as_integer_ratio()      # hi = m / e
        lo = (e - m * p) / (e * p)
    hi_hi = _veltkamp_hi(hi)
    return hi, lo, hi_hi, hi - hi_hi


def _per_key(key: np.ndarray, make):
    """(table, row): make(j) stacked once per distinct key j >= 0, and each key's row."""
    present = np.flatnonzero(np.bincount(key))
    rank = np.zeros(present[-1] + 1, dtype=np.intp)
    rank[present] = np.arange(present.size)
    return np.array([make(int(j)) for j in present]), rank.take(key)


def _scaled(a: np.ndarray, q: np.ndarray):
    """a * 10^q as the double-double (yh, yl), yh = fl(yh + yl), by Dekker's product
    against hi + lo of 10^q. The error is below 5e-32 * |a * 10^q| for a in
    _SCALED_RANGE and a * 10^q below 10^18."""
    q0 = int(q.min())
    table, row = _per_key(q - q0, lambda j: _pow10(q0 + j))
    hi, lo, hi_hi, hi_lo = table.T.take(row, axis=1)   # the (4, P) table: contiguous rows
    p = a * hi
    a_hi = _veltkamp_hi(a)
    a_lo = a - a_hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo   # a * hi - p
    t = err + a * lo
    yh = p + t
    return yh, t - (yh - p)


def _decimal17(a: np.ndarray):
    """(D, X, exact) with a rounded to 17 digits, D * 10^(X - 16), 10^16 <= D < 10^17,
    for positive a in _SCALED_RANGE. exact is False where the scaled value lies too
    near a half (or a rare log10 miss went unsettled) to round with certainty."""
    D = np.zeros(a.size, dtype=np.int64)
    X = np.zeros(a.size, dtype=np.int64)
    exact = np.zeros(a.size, dtype=bool)
    todo = np.arange(a.size)
    d = np.floor(np.log10(a)).astype(np.int64)
    for _ in range(3):    # log10 is off by at most one, so a second pass settles it
        if not todo.size:
            break
        yh, yl = _scaled(a[todo], 16 - d)
        low = (yh < 1e16) | ((yh == 1e16) & (yl < 0))
        high = (yh > 1e17) | ((yh == 1e17) & (yl >= 0))
        whole = np.floor(yl)
        frac = yl - whole
        done = ~(low | high) & (np.abs(frac - 0.5) >= _HALF_MARGIN)
        i = todo[done]
        Di = yh[done].astype(np.int64) + whole[done].astype(np.int64) + (frac[done] > 0.5)
        up = Di == 10 ** 17        # rounded up to the next power of ten
        D[i] = np.where(up, 10 ** 16, Di)
        X[i] = d[done] + up
        exact[i] = True
        todo, d = todo[low | high], (d - low + high)[low | high]
    return D, X, exact


@lru_cache(maxsize=1)
def _digit_groups():
    """For g in 0..9999: its four ASCII digits as a little-endian uint32, and its
    count of trailing zeros (4 for 0)."""
    g = np.arange(10000)
    text = np.empty((10000, 4), dtype=np.uint8)
    for j in range(4):
        text[:, j] = ord("0") + g // 10 ** (3 - j) % 10
    zeros = sum((g % 10 ** j == 0).astype(np.int64) for j in (1, 2, 3, 4))
    return text.view("<u4").ravel(), zeros


def _digit_rows(D: np.ndarray):
    """(source, nsig): per value of D (0 <= D < 10^17), a _SOURCE-byte row of 3 NULs,
    D's 17 ASCII digits and _ALPHABET, and D's count of significant digits (1 for 0)."""
    hi9, lo8 = np.divmod(D, 10 ** 8)      # D = d0 g1 g2 g3 g4: a digit, four groups of four
    d0, g12 = np.divmod(hi9.astype(np.int32), 10 ** 8)
    g1, g2 = np.divmod(g12, 10 ** 4)
    g3, g4 = np.divmod(lo8.astype(np.int32), 10 ** 4)
    four, zeros = _digit_groups()
    source = np.empty((D.size, _SOURCE), dtype=np.uint8)
    words = source.view("<u4")
    words[:, 0] = (ord("0") + d0).astype(np.uint32) << 24
    for j, g in enumerate((g1, g2, g3, g4), start=1):
        words[:, j] = four.take(g)
    source[:, 20:20 + len(_ALPHABET)] = np.frombuffer(_ALPHABET, dtype=np.uint8)
    tz = zeros.take(g4)
    for g, z in ((g3, 4), (g2, 8), (g1, 12)):
        tz = np.where(tz == z, z + zeros.take(g), tz)
    return source, 17 - tz


@lru_cache(maxsize=None)
def _layout(X: int, nsig: int, neg: bool, last: bool) -> np.ndarray:
    """Where each byte of a value's slot comes from in its source row, by C's %g rules
    at precision 17: digit j at 3 + j, a literal at 20 + its place in _ALPHABET, NUL
    padding at 0. Fixed for -4 <= X < 17, else d.ddd...e+-XX; trailing zeros and a
    bare point dropped."""
    digit = list(range(3, 20))
    lit = lambda text: [20 + _ALPHABET.index(c) for c in text.encode()]
    if 0 <= X < 17:
        body = digit[:X + 1] + (lit(".") + digit[X + 1:nsig] if nsig > X + 1 else [])
    elif -4 <= X < 0:
        body = lit("0." + "0" * (-X - 1)) + digit[:nsig]
    else:
        body = digit[:1] + (lit(".") + digit[1:nsig] if nsig > 1 else []) + lit("e%+03d" % X)
    slot = lit("-" if neg else "") + body + lit("\r\n" if last else ",")
    row = np.array(slot + [0] * (_SLOT - len(slot)), dtype=np.intp)
    row.flags.writeable = False      # shared by every later call
    return row


def _csv_rows(values: np.ndarray) -> bytes:
    """The rows of a (rows, columns) float array as '%.17g' texts joined by ',', each
    row ending in '\r\n': the bytes Python's '%.17g' % v gives, value by value.

    Each value gets a NUL-padded slot of _SLOT bytes, gathered from its source
    row by the layout of its (exponent, significant digits, sign, last column).
    The 17-digit integer comes from _decimal17; zeros print as '0' and '-0'.
    Values outside _SCALED_RANGE, non-finite ones and those _decimal17 cannot
    round with certainty go through Python's own '%.17g'.
    """
    v = values.ravel()
    a = np.abs(v)
    ready = a == 0
    fast = np.flatnonzero((a >= _SCALED_RANGE[0]) & (a < _SCALED_RANGE[1]))
    D = np.zeros(v.size, dtype=np.int64)
    X = np.zeros(v.size, dtype=np.int64)
    D[fast], X[fast], exact = _decimal17(a[fast])
    ready[fast[exact]] = True
    source, nsig = _digit_rows(D)
    key = ((X + _X_OFFSET) * 18 + nsig) * 4 + 2 * np.signbit(v)
    key.reshape(values.shape)[:, -1] += 1
    layouts, row = _per_key(key, lambda j: _layout(j // 72 - _X_OFFSET, j // 4 % 18,
                                                   bool(j & 2), bool(j & 1)))
    index = layouts.take(row, axis=0)
    index += np.arange(0, v.size * _SOURCE, _SOURCE)[:, None]
    text = source.ravel().take(index)
    ncols = values.shape[1]
    for i in np.flatnonzero(~ready):
        s = ("%.17g" % v[i]).encode() + (b"\r\n" if i % ncols == ncols - 1 else b",")
        text[i] = np.frombuffer(s.ljust(_SLOT, b"\0"), dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def save_field_csv(path, x: np.ndarray, u: np.ndarray) -> None:
    """CSV columns: x1, re_u1, im_u1, re_u2, im_u2, re_u3, im_u3 (csv.writer's dialect).

    The bytes are Python's '%.17g' % v for every value, joined by ',' and ending
    each row in '\r\n'. _csv_rows computes them in array passes over chunks of
    rows; only non-finite values, |v| outside [1e-270, 1e270) and values whose
    17-digit rounding lies within 1e-9 of a half take Python's own '%.17g'.
    """
    cols = np.column_stack([x] + [part for c in u for part in (c.real, c.imag)])
    with open(path, "wb") as fh:
        fh.write(b"x1,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3\r\n")
        for lo in range(0, x.size, _CSV_CHUNK_ROWS):   # chunks bound the memory of the text
            fh.write(_csv_rows(cols[lo:lo + _CSV_CHUNK_ROWS]))


def load_field_csv(path):
    """Inverse of save_field_csv; returns (x, u)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x = data[:, 0]
    u = np.empty((3, x.size), dtype=complex)
    # part by part: re + 1j * im would turn 1 + inf i into nan + inf i
    u.real = data[:, 1::2].T
    u.imag = data[:, 2::2].T
    return x, u
