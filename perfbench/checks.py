"""Independent checks of the CLI's written outputs.

Every check works from the files and printed lines an invocation left behind
and from closed forms computed here (pole sets, exceptional sets, plasmon
roots, ray edges, the ODE itself). None of them calls the program's own
``verify``, ``classify`` or root finder. Each returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

CLASSES = {"resolvent", "M+", "M-", "N", "Omega0", "S"}
ODE_RESIDUAL_MAX = 1e-6      # printed relative ODE residual of `resolve`
JUMP_MAX = 1e-10             # printed relative interface jumps of `resolve`
U3_RESIDUAL_MAX = 1e-4       # -u3'' + (k^2 - W) u3 = r3 from the CSV, 2nd-order FD
EIGEN_IDENTITY_MAX = 1e-9    # k^2 (W+ + W-) = W+ W-, relative, at the printed omega
SUITES = 4


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _marker_cells(points, re_axis, im_axis):
    """Cells the CLI stamps for overlay points: nearest node within one step."""
    step_re = re_axis[1] - re_axis[0]
    step_im = im_axis[1] - im_axis[0]
    cells = set()
    for z in points:
        i = int(np.argmin(np.abs(re_axis - z.real)))
        j = int(np.argmin(np.abs(im_axis - z.imag)))
        if abs(re_axis[i] - z.real) <= step_re and abs(im_axis[j] - z.imag) <= step_im:
            cells.add((j, i))
    return cells


def read_portrait(path):
    """(re, im, class, note) columns of portrait.csv as lists."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",", 3) for line in fh]
    return header, rows


def check_portrait(stdout, out_dir, problem, spec, dim, k):
    (re0, re1, nx), (im0, im1, ny) = spec
    re_axis, im_axis = np.linspace(re0, re1, nx), np.linspace(im0, im1, ny)
    path = os.path.join(out_dir, "portrait.csv")
    if not os.path.exists(path):
        return ["portrait.csv missing"]
    header, rows = read_portrait(path)
    if header != "re,im,class,branch_note":
        return [f"unexpected header {header!r}"]
    if len(rows) != nx * ny:
        return [f"{len(rows)} rows, expected {nx * ny}"]
    problems = []
    try:
        re_v = np.array([float(r[0]) for r in rows]).reshape(ny, nx)
        im_v = np.array([float(r[1]) for r in rows]).reshape(ny, nx)
        cls = np.array([r[2] for r in rows], dtype=object).reshape(ny, nx)
    except (ValueError, IndexError) as exc:
        return [f"malformed row: {exc}"]
    if (np.abs(re_v - re_axis[None, :]).max() > 1e-10
            or np.abs(im_v - im_axis[:, None]).max() > 1e-10):
        problems.append("cell coordinates do not match the requested grid")
    bad = set(cls.ravel()) - CLASSES
    if bad:
        problems.append(f"unknown classes {sorted(bad)}")

    # markers: the CLI stamps N first, then Omega0, then S over it
    s_cells = _marker_cells(problem.poles(), re_axis, im_axis)
    o_cells = _marker_cells(problem.omega0(), re_axis, im_axis) - s_cells
    expected = {"S": s_cells, "Omega0": o_cells}
    if dim == 1:
        expected["N"] = _marker_cells(problem.plasmons(k), re_axis, im_axis) - s_cells - o_cells
    for name, cells in expected.items():
        got = {(int(j), int(i)) for j, i in zip(*np.nonzero(cls == name))}
        if got != cells:
            problems.append(f"{name} cells {sorted(got)} != closed form {sorted(cells)}")

    # the real-axis edge of M_+ for a constant plus side c: |omega| = sqrt(k^2 / c)
    rows0 = np.nonzero(im_axis == 0.0)[0]
    if rows0.size != 1:
        problems.append("grid has no exact real-axis row")
    else:
        j0 = int(rows0[0])
        c = problem.plus.num[0].real
        edge = math.sqrt(k * k / c) if dim == 1 else 0.0
        below = "resolvent" if dim == 1 else None
        for i, x in enumerate(re_axis):
            got = cls[j0, i]
            if got in ("N", "Omega0", "S") or abs(abs(x) - edge) <= 1e-6 * max(1.0, edge):
                continue
            want = "M+" if abs(x) > edge else below
            if want is not None and got != want:
                problems.append(f"real axis re={x:.6g}: class {got}, expected {want} "
                                f"(M+ edge at {edge:.9g})")
                break

    counts = dict(re.findall(r"([A-Za-z0-9+\-]+)=(\d+)", stdout.split("cell counts:")[-1]))
    actual = {name: int((cls == name).sum()) for name in set(cls.ravel())}
    if {k_: int(v) for k_, v in counts.items()} != actual:
        problems.append(f"printed cell counts {counts} disagree with the CSV")
    svg = os.path.join(out_dir, "portrait.svg")
    with open(svg) as fh:
        if not fh.read(5) == "<svg ":
            problems.append("portrait.svg is not an SVG document")
    return problems


# ---------------------------------------------------------------------------
# classify / resolve
# ---------------------------------------------------------------------------


def check_classify_resolvent(stdout, out_dir):
    for line in stdout.splitlines():
        if line.startswith("csv:"):
            fields = line[4:].strip().split(",")
            if len(fields) > 2 and fields[2] == "resolvent":
                return []
            return [f"drawn omega classified {fields[2:3]}, expected resolvent"]
    return ["no csv line in classify output"]


def _bump_constant():
    """Normalization c of phi(y) = c exp(1/(y^2 - 1)) with unit L2 norm on [-1, 1]."""
    y, w = np.polynomial.legendre.leggauss(400)
    return 1.0 / math.sqrt(float(np.sum(w * np.exp(2.0 / (y * y - 1.0)))))


def bump(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = _bump_constant() * np.exp(1.0 / (y[inside] ** 2 - 1.0))
    return out


def _printed(pattern, stdout):
    m = re.search(pattern, stdout)
    return m.group(1) if m else None


def check_resolve(stdout, out_dir, problem, omega, k, support, h, n_nodes):
    problems = []
    n = _printed(r"N=(\d+)\)", stdout)
    if n is None or abs(int(n) - n_nodes) > 2:
        problems.append(f"grid size N={n}, expected {n_nodes} from the decay rate")
    res = _printed(r"ode residual \(rel\) = (\S+)", stdout)
    if res is None or not float(res) <= ODE_RESIDUAL_MAX:
        problems.append(f"ode residual {res} above {ODE_RESIDUAL_MAX}")
    jumps = _printed(r"interface jumps \(rel\) = (.+)", stdout)
    jumps = [float(v) for v in jumps.split(",")] if jumps else []
    if len(jumps) != 5 or not all(j <= JUMP_MAX for j in jumps):
        problems.append(f"interface jumps {jumps} not five values under {JUMP_MAX}")

    path = os.path.join(out_dir, "resolvent.csv")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        return problems + [f"resolvent.csv unreadable: {exc}"]
    x = data[:, 0]
    u3 = data[:, 5] + 1j * data[:, 6]
    zero = np.nonzero(x == 0.0)[0]
    if zero.size != 2 or zero[1] != zero[0] + 1:
        return problems + ["interface is not a double node at x1 = 0"]
    center, width = 0.5 * (support[0] + support[1]), 0.5 * (support[1] - support[0])
    r3 = bump((x - center) / width)
    w_p, w_m = problem.w(omega)
    worst = 0.0
    for sl, wv in ((slice(0, zero[0] + 1), w_m), (slice(zero[1], None), w_p)):
        u, r, xs = u3[sl], r3[sl], x[sl]
        if np.abs(np.diff(xs) - h).max() > 1e-9:
            problems.append("grid spacing differs from h")
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        worst = max(worst, float(np.abs(-d2 + (k * k - wv) * u[1:-1] - r[1:-1]).max()))
    rel = worst / float(np.abs(r3).max())
    if not rel <= U3_RESIDUAL_MAX:
        problems.append(f"u3 equation residual {rel:.3e} above {U3_RESIDUAL_MAX}")
    return problems


# ---------------------------------------------------------------------------
# eigen / check
# ---------------------------------------------------------------------------


def check_eigen(stdout, out_dir, problem, ks):
    path = os.path.join(out_dir, "modes.csv")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"modes.csv unreadable: {exc}"]
    if not lines or not lines[0].startswith("k,branch,re_omega,im_omega"):
        return ["modes.csv has no header"]
    per_k = {}
    worst = 0.0
    for line in lines[1:]:
        f = line.split(",")
        k = float(f[0])
        z = complex(float(f[2]), float(f[3]))
        w_p, w_m = problem.w(z)
        a, b = k * k * (w_p + w_m), w_p * w_m
        worst = max(worst, abs(a - b) / (abs(a) + abs(b)))
        per_k[f[0]] = per_k.get(f[0], 0) + 1
    problems = []
    if not worst <= EIGEN_IDENTITY_MAX:
        problems.append(f"dispersion identity off by {worst:.2e} (relative) on some row")
    for k in ks:
        want = len(problem.plasmons(float(k)))
        got = per_k.get(f"{k:.12g}", 0)
        if got != want:
            problems.append(f"k={k:.12g}: {got} modes, closed form has {want}")
            break
    if len(per_k) != len(ks):
        problems.append(f"{len(per_k)} distinct k values, expected {len(ks)}")
    return problems


def check_suites(stdout, out_dir):
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        return failed
    if passed != SUITES:
        return [f"{passed} PASS lines, expected {SUITES}"]
    return []
