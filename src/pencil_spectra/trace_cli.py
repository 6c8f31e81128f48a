"""Command-line front end: classify points, trace portraits, find modes,
solve resolvent problems, and run the oracle cross-check suites.

Subcommands: classify, trace, eigen, resolve, check. Outputs are plain CSV
(byte-deterministic for fixed inputs) and a minimal hand-written SVG raster
with overlay markers; no timestamps are emitted. The markers of M+, M- and N
are the roots of polynomial families that modes.roots_in_set keeps where
classify_array puts them in the set, for every rational medium and both pencils.
The environment variable PENCIL_SPECTRA_TOL ("name=value,name=value") overrides
default tolerances, for the raster and the overlays alike.
Each subparser names its handler; main reads the --config file once, before
any flag value, and passes the medium to it. Each subcommand imports only the
modules it runs, and run() skips the final garbage collection (README, "Import
and exit cost").
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classify1d import (IN_N, M_MINUS, M_PLUS, ArrayClassification, SpectrumClass, classify,
                         classify2, classify_array)
from .complex_numerics import DEFAULT_TOL, Tolerances, bump
from .config import load_problem
from .dielectric import InterfaceProblem, omega0_set, singular_points
from .errors import PencilSpectraError, PreconditionError

_SVG_WIDTH = 720   # pixels; the height follows the grid's aspect ratio
# overlay point markers, in drawing order; (x, y) is the point, x0..y1 its 8 px box
_MARKERS = (
    ("M+boundary", '<circle cx="{x:.2f}" cy="{y:.2f}" r="0.8" fill="#3465a4"/>'),
    ("M-boundary", '<circle cx="{x:.2f}" cy="{y:.2f}" r="0.8" fill="#cc0000"/>'),
    ("N", '<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#000000"/>'),
    ("Omega0", '<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" stroke="#4e9a06" '
               'stroke-width="2"/>'),
    ("S", '<path d="M {x0:.2f} {y0:.2f} L {x1:.2f} {y1:.2f} M {x0:.2f} {y1:.2f} '
          'L {x1:.2f} {y0:.2f}" stroke="#555753" stroke-width="2"/>'),
)
_COLORS = {
    "resolvent": "#ffffff",
    "M+": "#3465a4",
    "M-": "#cc0000",
    "N": "#000000",
    "Omega0": "#4e9a06",
    "S": "#555753",
}


@dataclass
class PortraitGrid:
    """Classified omega-grid plus overlay geometry for one portrait."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    cells: ArrayClassification   # row-major branch codes and pointwise records
    classes: list          # display class per cell (after marker stamping)
    overlays: dict         # name -> list of complex points


def trace_portrait(problem: InterfaceProblem, grid_spec, k: float | None,
                   tol: Tolerances, overlays: bool = True) -> PortraitGrid:
    """The classified grid and the overlays of the 1D pencil at k (k=None: the 2D one)."""
    (re0, re1, nx), (im0, im1, ny) = grid_spec
    re_axis = np.linspace(re0, re1, nx)
    im_axis = np.linspace(im0, im1, ny)
    points = np.empty((ny, nx), dtype=complex)   # row-major, one row per Im value
    points.real = re_axis
    points.imag = im_axis[:, None]

    cells = classify_array(points, k, problem, tol)
    classes = cells.raster_classes()

    ov: dict = {}
    if overlays and problem.is_rational:
        ov["S"] = list(singular_points(problem, tol))
        ov["Omega0"] = [p.omega for p in omega0_set(problem, tol)]
        ov["N"] = _n_points(problem, k, tol)
        ov["M+boundary"] = _ray_points(problem, "+", k, tol)
        ov["M-boundary"] = _m_minus_boundary(problem, k, tol)

    pg = PortraitGrid(re_axis=re_axis, im_axis=im_axis, cells=cells,
                      classes=classes, overlays=ov)
    _stamp_markers(pg, tol)
    return pg


def _stamp_markers(pg: PortraitGrid, tol: Tolerances) -> None:
    """Mark the cells containing overlay points so the CSV mirrors the marker layer.

    A point is stamped within one step of its nearest node; a one-node axis is
    a line and takes only the points within ray_imag_tol of it.
    """
    nx = pg.re_axis.size
    step_re, step_im = (a[1] - a[0] if a.size > 1 else tol.ray_imag_tol
                        for a in (pg.re_axis, pg.im_axis))
    for name in ("N", "Omega0", "S"):
        for z in pg.overlays.get(name, []):
            i = int(np.argmin(np.abs(pg.re_axis - z.real)))
            j = int(np.argmin(np.abs(pg.im_axis - z.imag)))
            if abs(pg.re_axis[i] - z.real) <= step_re and abs(pg.im_axis[j] - z.imag) <= step_im:
                pg.classes[j * nx + i] = name


# parameter grids of the sampled sets: the 2D witness a, and (t - k^2) / max(k^2, 1)
# along the ray W_side = t >= k^2
_N2_WITNESSES = np.geomspace(1e-3, 1e3, 160)
_RAY_OFFSETS = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 200)))


def _ray_points(problem: InterfaceProblem, side: str, k, tol: Tolerances,
                offsets=_RAY_OFFSETS) -> list:
    """Sampled ray set M_side^(k) of a rational medium: the omega with W_side = t,
    t = k0^2 + max(k0^2, 1) * offsets, k0 = k (k = None: the 2D pencil, k0 = 0)."""
    from .modes import ray_polynomial, roots_in_set
    k2 = 0.0 if k is None else k * k
    model, bit = (problem.plus, M_PLUS) if side == "+" else (problem.minus, M_MINUS)
    return roots_in_set(lambda o: ray_polynomial(model, k2 + max(k2, 1.0) * o),
                        offsets, k, bit, problem, tol)[0].tolist()


def _m_minus_boundary(problem: InterfaceProblem, k, tol: Tolerances = DEFAULT_TOL) -> list:
    """The M- overlay: _ray_points of the minus side (a name of its own, which
    perfbench/traced_cli.py times)."""
    return _ray_points(problem, "-", k, tol)


def _n_points(problem: InterfaceProblem, k, tol: Tolerances) -> list:
    """Sampled set N of a rational medium: the eigenvalue-polynomial roots at k, or
    (k = None: the 2D pencil) at k0 = sqrt(a) over the witnesses a."""
    from .modes import eigenvalue_polynomial, roots_in_set
    return roots_in_set(lambda k0: eigenvalue_polynomial(k0, problem),
                        np.sqrt(_N2_WITNESSES) if k is None else [k], k, IN_N, problem,
                        tol)[0].tolist()


def write_portrait_csv(path, pg: PortraitGrid) -> None:
    """One line per cell, row by row; each axis value is formatted once."""
    nx = pg.re_axis.size
    notes = pg.cells.branch_notes()
    res = [f"{re:.12g}" for re in pg.re_axis.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("re,im,class,branch_note\n")
        for j, im in enumerate(pg.im_axis.tolist()):
            row = slice(j * nx, (j + 1) * nx)
            im = f"{im:.12g}"
            fh.write("".join([f"{re},{im},{cls},{note}\n"
                              for re, cls, note in zip(res, pg.classes[row], notes[row])]))


def write_portrait_svg(path, pg: PortraitGrid) -> None:
    width, nx, ny = _SVG_WIDTH, pg.re_axis.size, pg.im_axis.size
    re0, re1 = float(pg.re_axis[0]), float(pg.re_axis[-1])
    im0, im1 = float(pg.im_axis[0]), float(pg.im_axis[-1])
    # a one-node axis takes the other axis's cell size and pixels per unit (a 1x1 grid is one
    # square, one unit wide), its node in the middle; the height is at most width * max(nx, ny)
    if nx > 1:
        sx = width / max(re1 - re0, 1e-12)
        height = int(round(min((im1 - im0) * sx, width * max(nx, ny))
                           if ny > 1 else width / nx)) or 1
        sy = height / max(im1 - im0, 1e-12) if ny > 1 else sx
    else:
        height = width * ny
        sx = sy = height / max(im1 - im0, 1e-12) if ny > 1 else width
    left = re0 if nx > 1 else re0 - 0.5 * width / sx
    top = im1 if ny > 1 else im1 + 0.5 * height / sy

    def px(z):
        return ((z.real - left) * sx, (top - z.imag) * sy)

    cw = width / nx
    ch = height / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for j in range(ny):
        row = np.array(pg.classes[j * nx:(j + 1) * nx], dtype=object)
        cuts = (np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()   # where a run of one class starts
        for i, end in zip([0] + cuts, cuts + [nx]):
            cls = row[i]
            if cls != "resolvent":
                x0 = i * cw
                y0 = (ny - 1 - j) * ch
                parts.append(
                    f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{(end - i) * cw:.2f}" '
                    f'height="{ch:.2f}" fill="{_COLORS.get(cls, "#888888")}"/>')
    for name, mark in _MARKERS:
        for z in pg.overlays.get(name, []):
            x, y = px(z)
            if -4 <= x <= width + 4 and -4 <= y <= height + 4:   # 8-px box meets the picture
                parts.append(mark.format(x=x, y=y, x0=x - 4, y0=y - 4, x1=x + 4, y1=y + 4))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _parse_omega(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    try:
        re, im = float(re_s), float(im_s or 0.0)
    except ValueError:
        raise PencilSpectraError(f"--omega must be re,im, got {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise PencilSpectraError(f"--omega must be finite, got {text!r}")
    return complex(re, im)


def _parse_fields(text: str, flag: str, form: str, counts) -> list:
    """The colon-separated numbers of a flag: finite floats, then an integer
    count >= 1 when there are three fields; the field count must be in counts."""
    fields = text.split(":")
    try:
        if len(fields) not in counts:
            raise ValueError
        values = [float(f) for f in fields[:2]] + [int(f) for f in fields[2:]]
    except ValueError:
        raise PencilSpectraError(f"{flag} must be {form}, got {text!r}") from None
    if not all(math.isfinite(v) for v in values[:2]):
        raise PencilSpectraError(f"{flag} must be finite, got {text!r}")
    if len(values) == 3 and values[2] < 1:
        raise PencilSpectraError(f"{flag} count must be at least 1, got {text!r}")
    return values


# caps near 5 GB of peak memory, as MAX_GRID_NODES: ~210 B per trace cell, ~30 KB per eigen k
MAX_TRACE_CELLS = 20_000_000
MAX_EIGEN_KS = 100_000


def _parse_grid(text: str):
    """((re0, re1, nx), (im0, im1, ny)) from re0:re1:nx,im0:im1:ny; an axis of
    more than one node runs from lo up to hi > lo, with a finite span hi - lo."""
    re_part, _, im_part = text.partition(",")
    axes = tuple(tuple(_parse_fields(part, "--grid axis", "lo:hi:count", (3,)))
                 for part in (re_part, im_part))
    for (lo, hi, n), part in zip(axes, (re_part, im_part)):
        if n > 1 and not lo < hi:
            raise PencilSpectraError(f"--grid axis with count > 1 needs lo < hi, got {part!r}")
        if n > 1 and not math.isfinite(hi - lo):
            raise PencilSpectraError(f"--grid axis span hi - lo must be finite, got {part!r}")
    if axes[0][2] * axes[1][2] > MAX_TRACE_CELLS:
        raise PencilSpectraError(f"--grid asks for more than {MAX_TRACE_CELLS} cells, got {text!r}")
    return axes


def _parse_k(text: str, sweep: bool = False):
    """A k whose square is finite; with sweep=True, the list of k from "k" or "k0:k1:n"."""
    form = "k or k0:k1:count" if sweep else "a number"
    values = _parse_fields(text, "--k", form, (1, 3) if sweep else (1,))
    if not all(math.isfinite(v * v) for v in values[:2]):
        raise PencilSpectraError(
            f"--k must have a finite square (|k| below about 1.34e154), got {text!r}")
    if len(values) == 3:
        if values[2] > MAX_EIGEN_KS:
            raise PencilSpectraError(f"--k sweep count must be at most {MAX_EIGEN_KS}, got {text!r}")
        return list(np.linspace(*values))
    return values if sweep else values[0]


def _describe(record: SpectrumClass) -> str:
    if not record.in_domain:
        return f"outside D(W~): {record.branch_note}"
    if record.resolvent:
        return "resolvent"
    bits = []
    if record.point_finite:
        bits.append("point (finite multiplicity)")
    if record.point_infinite:
        bits.append("point (infinite multiplicity)")
    if record.discrete:
        bits.append("discrete")
    if record.weyl:
        ess = "e1-e5" if record.e1 else ("e2-e5" if record.e2 else "e5")
        bits.append(f"essential (Weyl, {ess})")
    elif record.e5:
        bits.append("e5 only")
    return ", ".join(bits) + f"  [{record.branch_note}]"


def cmd_classify(args, problem, tol) -> int:
    omega = _parse_omega(args.omega)
    if args.dim == 2:
        rec = classify2(omega, problem, tol)
    else:
        rec = classify(omega, _parse_k(args.k), problem, tol)
    print(f"omega = {omega}  ->  {_describe(rec)}")
    flags = [int(b) for b in (rec.in_domain, rec.in_omega0) + rec.flags()]
    print("csv:", ",".join(
        [f"{omega.real:.12g}", f"{omega.imag:.12g}", rec.raster_class(), rec.branch_note]
        + [str(b) for b in flags]))
    return 0


def cmd_trace(args, problem, tol) -> int:
    grid_spec = _parse_grid(args.grid)
    k = _parse_k(args.k) if args.k is not None else None
    if args.dim == 1 and k is None:
        raise PencilSpectraError("1D trace needs --k (or pass --dim 2)")
    pg = trace_portrait(problem, grid_spec, None if args.dim == 2 else k, tol,
                        overlays=not args.no_overlays)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "portrait.csv")
    svg_path = os.path.join(args.out, "portrait.svg")
    write_portrait_csv(csv_path, pg)
    write_portrait_svg(svg_path, pg)
    counts = Counter(pg.classes)
    print(f"wrote {csv_path} and {svg_path}; cell counts: "
          + ", ".join(f"{k_}={v}" for k_, v in sorted(counts.items())))
    return 0


def eigen_table(problem: InterfaceProblem, ks, tol):
    """Mode rows over a k sweep with greedy branch-continuity tracking."""
    from .modes import eigen_sweep
    rows = []
    last: dict = {}
    next_id = 0
    for k, modes in zip(ks, eigen_sweep([float(k) for k in ks], problem, tol)):
        current: dict = {}
        for m in modes:
            # the nearest branch of the last k not yet taken (the first of a tie)
            free = ((abs(m.omega - om), bid) for bid, om in last.items() if bid not in current)
            d, bid = min(free, key=lambda pair: pair[0], default=(math.inf, None))
            if not d <= 0.5 * (1.0 + abs(m.omega)):
                bid, next_id = next_id, next_id + 1
            current[bid] = m.omega
            rows.append((float(k), bid, m))
        last = current or last
    return rows


def cmd_eigen(args, problem, tol) -> int:
    from .modes import mode_residuals
    ks = _parse_k(args.k, sweep=True)
    rows = eigen_table(problem, ks, tol)
    header = ("k,branch,re_omega,im_omega,re_mu_plus,im_mu_plus,"
              "re_mu_minus,im_mu_minus,residual")
    lines = [header]
    grid = np.linspace(-8.0, 8.0, 257)
    grid = grid[grid != 0.0]
    residuals = mode_residuals([m for _, _, m in rows], grid, problem)
    for (k, bid, m), res in zip(rows, residuals.tolist()):
        lines.append(
            f"{k:.12g},{bid},{m.omega.real:.12g},{m.omega.imag:.12g},"
            f"{m.mu_plus.real:.12g},{m.mu_plus.imag:.12g},"
            f"{m.mu_minus.real:.12g},{m.mu_minus.imag:.12g},{res:.6g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "modes.csv")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path} ({len(rows)} modes)")
    else:
        sys.stdout.write(text)
    if not rows:
        if all(k == 0.0 for k in ks):
            print("note: N^(0) is empty; there are no plasmon modes at k = 0")
        else:
            print("note: no plasmon modes found for the given media and k values")
    return 0


def cmd_resolve(args, problem, tol) -> int:
    from .resolvent import RhsField, make_grid, save_field_csv, solve, suggest_half_length
    omega = _parse_omega(args.omega)
    k = _parse_k(args.k)
    lo, hi = _parse_fields(args.support, "--support", "lo:hi", (2,))
    if not lo < hi:
        raise PencilSpectraError(f"--support needs lo < hi, got {args.support!r}")
    (h,) = _parse_fields(args.h, "--h", "a number", (1,))
    if not h > 0:
        raise PencilSpectraError(f"--h must be positive, got {args.h!r}")
    L = suggest_half_length(omega, k, problem, max(abs(lo), abs(hi)), h, tol)
    try:
        grid = make_grid(L, h)
    except ValueError as exc:   # e.g. fewer cells than make_grid's minimum
        raise PencilSpectraError(f"--h {args.h!r} gives no grid: {exc} (L={L:g})") from None
    center, width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    r2 = lambda x: bump((np.asarray(x) - center) / width)
    r = RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r2, support=(lo, hi))
    sol = solve(omega, k, r, problem, tol)
    rep = sol.report
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "resolvent.csv")
    save_field_csv(path, grid.x, sol.u)
    print(f"wrote {path} (L={L:g}, h={h:g}, N={grid.x.size})")
    print(f"C2 = {sol.C2:.9g}  C3 = {sol.C3:.9g}")
    print(f"ode residual (rel) = {rep.ode_residual_max:.3e}")
    print(f"interface jumps (rel) = " + ", ".join(f"{j:.3e}" for j in rep.jumps))
    print(f"norm ratio ||u||/||r|| = {rep.norm_ratio:.6g}")
    return 0


# ---------------------------------------------------------------------------
# check suites (only these import fd_oracle)
# ---------------------------------------------------------------------------


def _find_resolvent_point(problem, k, tol):
    for om in (0.5j, 0.3 + 0.4j, 0.2j, 1e-2 + 0.7j, -0.6 + 0.25j):
        if classify(om, k, problem, tol).resolvent:
            return om
    raise PencilSpectraError("no trial resolvent point found for this configuration")


def _suite_shoot(problem, k, tol):
    from .fd_oracle import shoot_determinant, shoot_refine
    from .modes import eigen_omegas
    modes = eigen_omegas(k, problem, tol)
    if not modes:
        dets = []
        for om in np.linspace(0.1, 4.0, 9):
            try:
                dets.append(abs(shoot_determinant(complex(om), k, problem, tol)))
            except PreconditionError:
                continue
        if not dets:
            return True, "no modes; no admissible shooting points on the sample"
        low = float(np.min(dets))   # NaN if any |det| is NaN, which fails
        if not low >= 1e-6:
            return False, f"no modes expected but |det| dips to {low:.2e}"
        return True, f"no modes; determinant stays >= {low:.2e}"
    worst = float(np.max([abs(shoot_refine(m.omega * (1 + 1e-5) + 1e-7, k, problem, tol)
                                  - m.omega) for m in modes]))
    ok = worst <= 1e-6
    return ok, f"{len(modes)} mode(s); max |shoot_root - polynomial_root| = {worst:.2e}"


def _suite_lambda(problem, k, tol):
    from .fd_oracle import lambda_isolation_probe, ring_meets_essential
    from .modes import eigen_omegas
    modes = eigen_omegas(k, problem, tol)
    if not modes:
        return True, "no modes; isolation probe skipped"
    # probe the best-localized mode: weak decay rates force very long domains
    mode = max(modes, key=lambda m: min(m.mu_plus.real, m.mu_minus.real))
    if hit := ring_meets_essential(mode.omega, k, problem, tol):
        return False, (f"the {hit[0]} side's essential spectrum lies {hit[1]:.3f} from lambda"
                       f" = 1, inside the innermost ring ({hit[2]}); probe not run")
    rep = lambda_isolation_probe(mode.omega, k, problem, tol=tol)
    ok = rep.isolated
    return ok, (f"sigma(lambda=1) = {rep.sigma_at_one:.3e}, ring min = "
                f"{np.min(rep.ring_minima):.3e}, factor = {rep.separation_factor:.1f}")


def _fd_rel_error(omega, k, h, problem, tol) -> float:
    """Relative l2 gap of resolvent and FD solves; a frame per grid frees it before the next."""
    from .fd_oracle import default_grid, direct_solve, discretize
    from .resolvent import RhsField, solve
    grid = default_grid(omega, k, problem, h=h, tol=tol)
    r2 = lambda x: bump((np.asarray(x) - 1.5) / 0.5)
    r = RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))
    sol = solve(omega, k, r, problem, tol)
    u_fd = direct_solve(k, r, discretize(omega, k, problem, grid=grid, tol=tol))
    return float(np.linalg.norm(sol.u - u_fd) / np.linalg.norm(sol.u))


def _suite_resolvent(problem, k, tol):
    omega = _find_resolvent_point(problem, k, tol)
    errs = {h: _fd_rel_error(omega, k, h, problem, tol) for h in (1 / 50, 1 / 100, 1 / 200)}
    if 0.0 in errs.values():   # the solves agree bitwise (|k| ~ 1e100): log2 reads no order
        return False, ("rel err = " + ", ".join(f"{e:.2e}" for e in errs.values())
                       + " at h = 1/50, 1/100, 1/200; an error of 0 has no convergence order")
    order1 = math.log2(errs[1 / 50] / errs[1 / 100])
    order2 = math.log2(errs[1 / 100] / errs[1 / 200])
    ok = errs[1 / 200] <= 1e-3 and min(order1, order2) >= 1.9
    return ok, (f"rel err(h=1/200) = {errs[1/200]:.2e}; orders = "
                f"{order1:.2f}, {order2:.2f}")


def _suite_weyl(problem, k, tol):
    """Weyl residual slopes: 1D at the largest omega with W_+ = k^2 + max(k^2, 1)
    in M_+ (FAIL when there is none); 2D at the last point of _n_points, a root
    of the largest witness a that has one (skipped when there is none): the 2D
    residual shows its n^-1 rate only once n is large against 1/sqrt(a) (lossy
    Drude, n = 8..64: slope -2.15 at a = 1e-3, -1.02 to -1.000 for a >= 8)."""
    from .modes import fit_loglog_slope, weyl_2d_interface_report, weyl_sequence_1d
    ns = [8, 16, 32, 64]
    plane = _ray_points(problem, "+", k, tol, offsets=[1.0])
    if not plane:
        return False, "no 1D plane-wave point found in M+"
    ess = max(plane, key=lambda z: (z.real, z.imag))
    res = [weyl_sequence_1d(ess, k, n, "+", "plane_wave", problem, tol).residual_norm
           for n in ns]
    slope = fit_loglog_slope(ns, res)
    details = [f"1D slope = {slope:.3f}"]
    ok = -1.15 <= slope <= -0.85
    guided = _n_points(problem, None, tol)
    if not guided:
        details.append("no interface-guided 2D point; skipped")
    else:
        res2 = [weyl_2d_interface_report(guided[-1], n, problem, tol).residual_norm for n in ns]
        slope2 = fit_loglog_slope(ns, res2)
        details.append(f"2D slope = {slope2:.3f}")
        ok = ok and -1.15 <= slope2 <= -0.85
    return ok, "; ".join(details)


def cmd_check(args, problem, tol) -> int:
    k = _parse_k(args.k)
    suites = [
        ("shoot-vs-polynomial", _suite_shoot),
        ("lambda-isolation", _suite_lambda),
        ("resolvent-convergence", _suite_resolvent),
        ("weyl-slopes", _suite_weyl),
    ]
    all_ok = True
    for name, fn in suites:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(problem, k, tol)
        except PencilSpectraError as exc:
            ok, detail = False, f"error: {exc}"
        dt = time.perf_counter() - t0
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({dt:.1f}s): {detail}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pencil-spectra",
        description="Spectral classification of the Maxwell interface pencil")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, handler):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", required=True, help="material config file")
        sp.set_defaults(handler=handler)
        return sp

    sp = command("classify", "classify one omega", cmd_classify)
    sp.add_argument("--omega", required=True, help="re,im")
    sp.add_argument("--k", default="0.0", help="1D wavenumber")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)

    sp = command("trace", "classify an omega grid; write CSV + SVG", cmd_trace)
    sp.add_argument("--grid", required=True, help="re0:re1:nx,im0:im1:ny")
    sp.add_argument("--k", default=None, help="1D wavenumber")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--no-overlays", action="store_true")

    sp = command("eigen", "plasmon mode table over k or a k range", cmd_eigen)
    sp.add_argument("--k", required=True, help="k or k0:k1:n")
    sp.add_argument("--out", default=None, help="output directory (default: stdout)")

    sp = command("resolve", "solve (T_k - W) u = r for a bump rhs", cmd_resolve)
    sp.add_argument("--omega", required=True, help="re,im")
    sp.add_argument("--k", default="0.0")
    sp.add_argument("--support", default="1:2", help="rhs support lo:hi")
    sp.add_argument("--h", default="0.005", help="grid spacing")
    sp.add_argument("--out", default=".", help="output directory")

    sp = command("check", "run the oracle cross-check suites", cmd_check)
    sp.add_argument("--k", default="3.0")
    return p


def _join_dash_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """Rewrite "--k -2:2:5" as "--k=-2:2:5": argparse reads such a '-' value as an option."""
    flags = {o: a.nargs != 0 for sp in parser._subparsers._group_actions[0].choices.values()
             for a in sp._actions for o in a.option_strings}
    out = []
    for tok in argv:
        if out and flags.get(out[-1]) and tok[:1] == "-" != tok[1:2] and tok not in flags:
            tok = out.pop() + "=" + tok
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        tol = Tolerances.from_env()
    except ValueError as exc:
        print(f"FAIL configuration: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.handler(args, load_problem(args.config, tol), tol)
        sys.stdout.flush()
        return code
    except PencilSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (| head): no traceback; what is still buffered
        # goes to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def run() -> None:
    """Console entry point: exit with main()'s code, skipping the final collections.

    gc.freeze() leaves every object alive at exit to the normal shutdown but out
    of the garbage collector's last passes over what numpy and the run
    allocated. This relies on one condition: every file a command writes is
    closed before main returns (each writer uses a with block), so no output
    waits on a collection to be flushed.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
