"""Command-line front end: classify points, trace portraits, find modes,
solve resolvent problems, and run the oracle cross-check suites.

Subcommands: classify, trace, eigen, resolve, check. Outputs are plain CSV
(byte-deterministic for fixed inputs) and a minimal hand-written SVG raster
with overlay markers; no timestamps are emitted. The markers of M+, M- and N
are sampled preimages (_preimage_points) of one set definition for every
rational medium and both pencils, kept where classify_array puts them in the
set. The environment variable PENCIL_SPECTRA_TOL ("name=value,name=value")
overrides default tolerances, for the raster and the overlays alike.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classify1d import (IN_N, M_MINUS, M_PLUS, ArrayClassification, SpectrumClass, classify,
                         classify_array)
from .classify2d import classify2, in_N2
from .complex_numerics import DEFAULT_TOL, Tolerances, poly_roots
from .config import load_problem
from .dielectric import InterfaceProblem, omega0_set, singular_points
from .errors import PencilSpectraError, PreconditionError
from .modes import (
    bump,
    eigen_omegas,
    eigenvalue_polynomial,
    fit_loglog_slope,
    mode_residual,
    ray_polynomial,
    weyl_2d_interface_report,
    weyl_sequence_1d,
)
from .resolvent import RhsField, make_grid, save_field_csv, solve, suggest_half_length

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
    k: float | None        # None for the 2D portrait
    dim: int


def trace_portrait(problem: InterfaceProblem, grid_spec, k: float | None,
                   dim: int, tol: Tolerances, overlays: bool = True) -> PortraitGrid:
    (re0, re1, nx), (im0, im1, ny) = grid_spec
    re_axis = np.linspace(re0, re1, nx)
    im_axis = np.linspace(im0, im1, ny)
    points = np.empty((ny, nx), dtype=complex)   # row-major, one row per Im value
    points.real = re_axis
    points.imag = im_axis[:, None]

    k = k if dim == 1 else None   # the 2D pencil, for the raster and the overlays alike
    cells = classify_array(points, k, problem, tol)
    classes = cells.raster_classes()

    ov: dict = {}
    if overlays and problem.is_rational:
        ov["S"] = list(singular_points(problem, tol))
        ov["Omega0"] = [p.omega for p in omega0_set(problem, tol)]
        ov["N"] = (_n_points_2d(problem, tol) if k is None
                   else [m.omega for m in eigen_omegas(k, problem, tol)])
        ov["M+boundary"] = _ray_points(problem, "+", k, tol)
        ov["M-boundary"] = _m_minus_boundary(problem, k, tol)

    pg = PortraitGrid(re_axis=re_axis, im_axis=im_axis, cells=cells,
                      classes=classes, overlays=ov, k=k, dim=dim)
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


def _preimage_points(family, params, k, bit: int, problem: InterfaceProblem,
                     tol: Tolerances) -> list:
    """The roots of family(p), p over params, whose classify_array code has bit
    (k=None is the 2D pencil); a member raising PencilSpectraError is skipped."""
    roots = []
    for p in params:
        try:
            roots.extend(z for z, _ in poly_roots(family(p), tol))
        except PencilSpectraError:
            continue
    codes = classify_array(np.array(roots, dtype=complex), k, problem, tol).codes
    # points decided one at a time (code POINTWISE) lie on S or Omega_0, in no set
    return [z for z, c in zip(roots, codes.tolist()) if c >= 0 and c & bit]


def _ray_points(problem: InterfaceProblem, side: str, k, tol: Tolerances,
                offsets=_RAY_OFFSETS) -> list:
    """Sampled ray set M_side^(k) of a rational medium: the omega with W_side = t,
    t = k0^2 + max(k0^2, 1) * offsets, k0 = k (k = None: the 2D pencil, k0 = 0)."""
    k2 = 0.0 if k is None else k * k
    model, bit = (problem.plus, M_PLUS) if side == "+" else (problem.minus, M_MINUS)
    return _preimage_points(lambda t: ray_polynomial(model, t),
                            k2 + max(k2, 1.0) * np.asarray(offsets), k, bit, problem, tol)


def _m_minus_boundary(problem: InterfaceProblem, k, tol: Tolerances = DEFAULT_TOL) -> list:
    """The M- overlay: _ray_points of the minus side (a name of its own, which
    perfbench/traced_cli.py times)."""
    return _ray_points(problem, "-", k, tol)


def _n_points_2d(problem: InterfaceProblem, tol: Tolerances) -> list:
    """Sampled 2D interface set N: eigenvalue-polynomial roots over the witnesses a."""
    return _preimage_points(lambda a: eigenvalue_polynomial(math.sqrt(a), problem),
                            _N2_WITNESSES, None, IN_N, problem, tol)


def write_portrait_csv(path, pg: PortraitGrid) -> None:
    nx = pg.re_axis.size
    notes = pg.cells.branch_notes()
    with open(path, "w", newline="") as fh:
        fh.write("re,im,class,branch_note\n")
        for j, im in enumerate(pg.im_axis):
            for i, re in enumerate(pg.re_axis):
                fh.write(f"{re:.12g},{im:.12g},{pg.classes[j * nx + i]},{notes[j * nx + i]}\n")


def write_portrait_svg(path, pg: PortraitGrid) -> None:
    width, nx, ny = _SVG_WIDTH, pg.re_axis.size, pg.im_axis.size
    re0, re1 = float(pg.re_axis[0]), float(pg.re_axis[-1])
    im0, im1 = float(pg.im_axis[0]), float(pg.im_axis[-1])
    sx = width / max(re1 - re0, 1e-12)
    height = int(round((im1 - im0) * sx)) or 1
    sy = height / max(im1 - im0, 1e-12)

    def px(z):
        return ((z.real - re0) * sx, (im1 - z.imag) * sy)

    cw = width / nx
    ch = height / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for j in range(ny):
        i = 0
        while i < nx:
            cls = pg.classes[j * nx + i]
            i2 = i
            while i2 + 1 < nx and pg.classes[j * nx + i2 + 1] == cls:
                i2 += 1
            if cls != "resolvent":
                x0 = i * cw
                y0 = (ny - 1 - j) * ch
                parts.append(
                    f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{(i2 - i + 1) * cw:.2f}" '
                    f'height="{ch:.2f}" fill="{_COLORS.get(cls, "#888888")}"/>')
            i = i2 + 1
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


def _parse_grid(text: str):
    """((re0, re1, nx), (im0, im1, ny)) from re0:re1:nx,im0:im1:ny."""
    re_part, _, im_part = text.partition(",")
    return tuple(tuple(_parse_fields(part, "--grid axis", "lo:hi:count", (3,)))
                 for part in (re_part, im_part))


def _parse_k(text: str, sweep: bool = False):
    """A finite k; with sweep=True, the list of k from "k" or "k0:k1:n"."""
    form = "k or k0:k1:count" if sweep else "a number"
    values = _parse_fields(text, "--k", form, (1, 3) if sweep else (1,))
    if len(values) == 3:
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


def cmd_classify(args, tol) -> int:
    problem = load_problem(args.config)
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


def cmd_trace(args, tol) -> int:
    problem = load_problem(args.config)
    grid_spec = _parse_grid(args.grid)
    k = _parse_k(args.k) if args.k is not None else None
    dim = 2 if args.dim == 2 else 1
    if dim == 1 and k is None:
        raise PencilSpectraError("1D trace needs --k (or pass --dim 2)")
    pg = trace_portrait(problem, grid_spec, k, dim, tol, overlays=not args.no_overlays)
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
    rows = []
    last: dict = {}
    next_id = 0
    for k in ks:
        modes = eigen_omegas(float(k), problem, tol)
        current: dict = {}
        for m in modes:
            best = None
            for bid, om in last.items():
                if bid in current:
                    continue
                d = abs(m.omega - om)
                if best is None or d < best[1]:
                    best = (bid, d)
            if best is not None and best[1] <= 0.5 * (1.0 + abs(m.omega)):
                bid = best[0]
            else:
                bid = next_id
                next_id += 1
            current[bid] = m.omega
            rows.append((float(k), bid, m))
        last = current or last
    return rows


def cmd_eigen(args, tol) -> int:
    problem = load_problem(args.config)
    ks = _parse_k(args.k, sweep=True)
    rows = eigen_table(problem, ks, tol)
    header = ("k,branch,re_omega,im_omega,re_mu_plus,im_mu_plus,"
              "re_mu_minus,im_mu_minus,residual")
    lines = [header]
    grid = np.linspace(-8.0, 8.0, 257)
    grid = grid[grid != 0.0]
    for k, bid, m in rows:
        res = mode_residual(m, grid, problem, tol)
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


def cmd_resolve(args, tol) -> int:
    problem = load_problem(args.config)
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
# check suites (only these import fd_oracle, and with it scipy)
# ---------------------------------------------------------------------------


def _find_resolvent_point(problem, k, tol):
    for om in (0.5j, 0.3 + 0.4j, 0.2j, 1e-2 + 0.7j, -0.6 + 0.25j):
        if classify(om, k, problem, tol).resolvent:
            return om
    raise PencilSpectraError("no trial resolvent point found for this configuration")


def _suite_shoot(problem, k, tol):
    from .fd_oracle import shoot_determinant, shoot_refine
    modes = eigen_omegas(k, problem, tol)
    if not modes:
        dets = []
        for om in np.linspace(0.1, 4.0, 9):
            try:
                dets.append(abs(shoot_determinant(complex(om), k, problem, tol)))
            except PreconditionError:
                continue
        if dets and min(dets) < 1e-6:
            return False, f"no modes expected but |det| dips to {min(dets):.2e}"
        if dets:
            return True, f"no modes; determinant stays >= {min(dets):.2e}"
        return True, "no modes; no admissible shooting points on the sample"
    worst = 0.0
    for m in modes:
        root = shoot_refine(m.omega * (1 + 1e-5) + 1e-7, k, problem, tol)
        worst = max(worst, abs(root - m.omega))
    ok = worst <= 1e-6
    return ok, f"{len(modes)} mode(s); max |shoot_root - polynomial_root| = {worst:.2e}"


def _suite_lambda(problem, k, tol):
    from .fd_oracle import lambda_isolation_probe
    modes = eigen_omegas(k, problem, tol)
    if not modes:
        return True, "no modes; isolation probe skipped"
    # probe the best-localized mode: weak decay rates force very long domains
    mode = max(modes, key=lambda m: min(m.mu_plus.real, m.mu_minus.real))
    rep = lambda_isolation_probe(mode.omega, k, problem, tol=tol)
    ok = rep.separation_factor >= 100.0
    return ok, (f"sigma(lambda=1) = {rep.sigma_at_one:.3e}, ring min = "
                f"{min(rep.ring_minima):.3e}, factor = {rep.separation_factor:.1f}")


def _suite_resolvent(problem, k, tol):
    from .fd_oracle import default_grid, direct_solve, discretize
    omega = _find_resolvent_point(problem, k, tol)
    errs = {}
    for h in (1 / 50, 1 / 100, 1 / 200):
        grid = default_grid(omega, k, problem, h=h, tol=tol)
        width = 0.5
        r2 = lambda x: bump((np.asarray(x) - 1.5) / width)
        r = RhsField.from_callables(grid, k, r2_fn=r2, r3_fn=r2, support=(1.0, 2.0))
        sol = solve(omega, k, r, problem, tol)
        disc = discretize(omega, k, problem, grid=grid, tol=tol)
        u_fd = direct_solve(omega, k, r, disc)
        num = np.sqrt(sum(np.sum(np.abs(sol.u[j] - u_fd[j]) ** 2) for j in range(3)))
        den = np.sqrt(sum(np.sum(np.abs(sol.u[j]) ** 2) for j in range(3)))
        errs[h] = float(num / den)
    order1 = math.log2(errs[1 / 50] / errs[1 / 100])
    order2 = math.log2(errs[1 / 100] / errs[1 / 200])
    ok = errs[1 / 200] <= 1e-3 and min(order1, order2) >= 1.9
    return ok, (f"rel err(h=1/200) = {errs[1/200]:.2e}; orders = "
                f"{order1:.2f}, {order2:.2f}")


def _suite_weyl(problem, k, tol):
    """Weyl residual slopes: 1D at the largest omega with W_+ = k^2 + max(k^2, 1)
    in M_+ (FAIL when there is none), 2D at the first point of the 2D set N on
    the negative imaginary axis (skipped when there is none)."""
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
    axis = -1j * np.linspace(0.05, 3.0, 60)
    codes = classify_array(axis, None, problem, tol).codes
    hits = np.flatnonzero((codes >= 0) & ((codes & IN_N) != 0))
    if hits.size == 0:
        details.append("no interface-guided 2D point; skipped")
    else:
        om2 = complex(axis[hits[0]])
        _, a = in_N2(om2, problem, tol)
        res2 = [weyl_2d_interface_report(om2, a, n, problem, tol).residual_norm for n in ns]
        slope2 = fit_loglog_slope(ns, res2)
        details.append(f"2D slope = {slope2:.3f}")
        ok = ok and -1.15 <= slope2 <= -0.85
    return ok, "; ".join(details)


def cmd_check(args, tol) -> int:
    problem = load_problem(args.config)
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

    def common(sp):
        sp.add_argument("--config", required=True, help="material config file")

    sp = sub.add_parser("classify", help="classify one omega")
    common(sp)
    sp.add_argument("--omega", required=True, help="re,im")
    sp.add_argument("--k", default="0.0", help="1D wavenumber")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)

    sp = sub.add_parser("trace", help="classify an omega grid; write CSV + SVG")
    common(sp)
    sp.add_argument("--grid", required=True, help="re0:re1:nx,im0:im1:ny")
    sp.add_argument("--k", default=None, help="1D wavenumber")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--no-overlays", action="store_true")

    sp = sub.add_parser("eigen", help="plasmon mode table over k or a k range")
    common(sp)
    sp.add_argument("--k", required=True, help="k or k0:k1:n")
    sp.add_argument("--out", default=None, help="output directory (default: stdout)")

    sp = sub.add_parser("resolve", help="solve (T_k - W) u = r for a bump rhs")
    common(sp)
    sp.add_argument("--omega", required=True, help="re,im")
    sp.add_argument("--k", default="0.0")
    sp.add_argument("--support", default="1:2", help="rhs support lo:hi")
    sp.add_argument("--h", default="0.005", help="grid spacing")
    sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("check", help="run the oracle cross-check suites")
    common(sp)
    sp.add_argument("--k", default="3.0")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = Tolerances.from_env()
    except ValueError as exc:
        print(f"FAIL configuration: {exc}", file=sys.stderr)
        return 2
    try:
        handler = {
            "classify": cmd_classify,
            "trace": cmd_trace,
            "eigen": cmd_eigen,
            "resolve": cmd_resolve,
            "check": cmd_check,
        }[args.command]
        code = handler(args, tol)
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


if __name__ == "__main__":
    sys.exit(main())
