"""The output writers: resolvent.csv keeps csv.writer's bytes, which are Python's
'%.17g' of every value (named edge cases and arbitrary 64-bit patterns), and
reloads part by part, portrait.csv and the portrait.svg raster keep the per-cell writers' bytes,
portrait.svg draws only markers that fall on the picture, and portrait.csv
stamps a marker only in the cell that holds its point."""
import csv
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_spectra.classify1d import REDUCED, ArrayClassification
from pencil_spectra.complex_numerics import DEFAULT_TOL
from pencil_spectra.dielectric import omega0_set
from pencil_spectra.resolvent import _CSV_CHUNK_ROWS, _decimal17, load_field_csv, save_field_csv
from pencil_spectra.trace_cli import (_COLORS, _MARKERS, _SVG_WIDTH, PortraitGrid, trace_portrait,
                                      write_portrait_csv, write_portrait_svg)
from tests.conftest import OMEGA0_RE


def _csv_writer_reference(path, x, u):
    """The row-by-row csv.writer form of save_field_csv."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x1", "re_u1", "im_u1", "re_u2", "im_u2", "re_u3", "im_u3"])
        for j in range(x.size):
            row = [f"{x[j]:.17g}"]
            for c in range(3):
                row += [f"{u[c, j].real:.17g}", f"{u[c, j].imag:.17g}"]
            wr.writerow(row)


def _portrait_csv_reference(path, pg):
    """The per-cell form of write_portrait_csv: both floats formatted in every cell."""
    nx = pg.re_axis.size
    notes = pg.cells.branch_notes()
    with open(path, "w", newline="") as fh:
        fh.write("re,im,class,branch_note\n")
        for j, im in enumerate(pg.im_axis):
            for i, re in enumerate(pg.re_axis):
                fh.write(f"{re:.12g},{im:.12g},{pg.classes[j * nx + i]},{notes[j * nx + i]}\n")


def _svg_rects_reference(pg, height):
    """The raster rects of write_portrait_svg, each row's runs found cell by cell."""
    nx, ny = pg.re_axis.size, pg.im_axis.size
    cw, ch = _SVG_WIDTH / nx, height / ny
    rects = []
    for j in range(ny):
        i = 0
        while i < nx:
            cls = pg.classes[j * nx + i]
            i2 = i
            while i2 + 1 < nx and pg.classes[j * nx + i2 + 1] == cls:
                i2 += 1
            if cls != "resolvent":
                rects.append(f'<rect x="{i * cw:.2f}" y="{(ny - 1 - j) * ch:.2f}" '
                             f'width="{(i2 - i + 1) * cw:.2f}" height="{ch:.2f}" '
                             f'fill="{_COLORS.get(cls, "#888888")}"/>')
            i = i2 + 1
    return rects


def test_portrait_writers_match_the_per_cell_writers(drude_problem, guided_2d_problem, tmp_path):
    z2 = omega0_set(guided_2d_problem)[0].omega
    pgs = [trace_portrait(problem, spec, k, DEFAULT_TOL) for problem, spec, k in [
        # imaginary axes ending at -0.0; S at 0 and -i gamma, stamped N and Omega_0 markers
        (drude_problem, ((-4.0, 4.0, 81), (-1.0, -0.0, 11)), 3.0),
        (guided_2d_problem, ((-3.0, 3.0, 61), (-2.0, -0.0, 21)), None),
        # axis values of twelve significant digits
        (drude_problem, ((-4.1 + 1 / 3, 4.0, 61), (-1.2 + 1 / 7, 0.4, 23)), 3.0),
        # one-node axes through an Omega_0 point
        (drude_problem, ((OMEGA0_RE, OMEGA0_RE, 1), (-1.0, -0.0, 11)), 3.0),
        (guided_2d_problem, ((z2.real, z2.real, 1), (z2.imag, z2.imag, 1)), None),
    ]]
    for dim in (1, 2):   # a row with every reduced branch code of the pencil
        cells = ArrayClassification(np.arange(len(REDUCED[dim])), {}, dim)
        pgs.append(PortraitGrid(np.linspace(-1.0, 1.0, cells.codes.size), np.array([-0.0]), cells,
                                cells.raster_classes(), {}))
    for n, pg in enumerate(pgs):
        write_portrait_csv(tmp_path / f"fast{n}.csv", pg)
        _portrait_csv_reference(tmp_path / f"ref{n}.csv", pg)
        assert (tmp_path / f"fast{n}.csv").read_bytes() == (tmp_path / f"ref{n}.csv").read_bytes()
        write_portrait_svg(tmp_path / f"{n}.svg", pg)
        text = (tmp_path / f"{n}.svg").read_text()
        height = float(re.search(r'viewBox="0 0 \S+ (\S+)"', text).group(1))
        rects = [line for line in text.splitlines() if line.startswith("<rect x=")]
        assert rects == _svg_rects_reference(pg, height)
    assert ",-0," in (tmp_path / "fast0.csv").read_text()
    assert set().union(*(pg.classes for pg in pgs)) == {"S", "Omega0", "N", "M+", "M-", "resolvent"}
    notes = set().union(*(pg.cells.branch_notes() for pg in pgs))
    assert {rec.branch_note for dim in (1, 2) for rec in REDUCED[dim]} <= notes
    for kind in ("S/", "2D-S/", "exceptional/", "2D-exceptional/"):
        assert any(note.startswith(kind) for note in notes), kind


def test_save_field_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    n = 5000                                   # more than one 1024-row chunk
    x = np.linspace(-3.0, 3.0, n)
    u = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    u[0, :4] = [-0.0, 1e-310, 1e300 - 2e299j, complex(5e-324, -0.0)]
    u[1, :4] = [complex(1.0, np.inf), complex(-np.inf, 2.0), complex(np.nan, -np.inf),
                complex(3.0, np.nan)]
    save_field_csv(tmp_path / "fast.csv", x, u)
    _csv_writer_reference(tmp_path / "ref.csv", x, u)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    x2, u2 = load_field_csv(tmp_path / "fast.csv")
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(u2, u)


def _percent_17g_bytes(x, u):
    """resolvent.csv by its definition: '%.17g' % v joined by ',' and '\\r\\n'."""
    cols = [x] + [part for c in u for part in (c.real, c.imag)]
    lines = ["x1,re_u1,im_u1,re_u2,im_u2,re_u3,im_u3"]
    lines += [",".join("%.17g" % v for v in row) for row in zip(*cols)]
    return "".join(line + "\r\n" for line in lines).encode()


def _field(rows):
    """(x, u) holding the columns of a (n, 7) float array."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 7)
    u = np.empty((3, rows.shape[0]), dtype=complex)
    u.real, u.imag = rows[:, 1::2].T, rows[:, 2::2].T
    return rows[:, 0].copy(), u


def _assert_writes_percent_17g(path, x, u):
    save_field_csv(path, x, u)
    assert path.read_bytes() == _percent_17g_bytes(x, u)


EDGE_VALUES = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    # the edges of the scaled range [1e-270, 1e270)
    1e-270, -1e-270, math.nextafter(1e-270, 0.0), 1e270, math.nextafter(1e270, 0.0),
    -1.7976931348623157e308,
    # decimal exponents -5, -4 (fixed), 16 (fixed) and 17
    1.2345678901234567e-5, 1e-5, 0.00012345678901234567, 0.0001, -0.00010000000000000002,
    1.2345678901234567e16, 1e16, 99999999999999984.0, 1.2345678901234567e17, 1e17,
    # doubles below a power of ten whose 17 digits round up to it
    9.9999999999999999e16, 1e-14, 1e-243, 1e129, 1e220,
    # exact halves at the 18th digit: ties, rounded to even
    2.0 ** -25, 1 + 2.0 ** -17, -(1 + 2.0 ** -17),
    # trailing zeros in the integer part, short and negative values
    100.0, 20.0, 1e15, 123456789012345680.0, 1.0, -2.5, 0.5, 0.1, -41.173999999999999,
]


def test_save_field_csv_is_percent_17g_on_edge_values(tmp_path):
    n = len(EDGE_VALUES)
    rows = [[EDGE_VALUES[(i + j) % n] for j in range(7)] for i in range(n)]   # every column
    _assert_writes_percent_17g(tmp_path / "edges.csv", *_field(rows))


def test_exact_halves_take_python_formatting():
    _, _, exact = _decimal17(np.array([2.0 ** -25, 1 + 2.0 ** -17, 0.1, 1e-14]))
    assert exact.tolist() == [False, False, True, True]


def test_save_field_csv_one_row_and_many_chunks(tmp_path):
    _assert_writes_percent_17g(tmp_path / "one.csv", *_field(np.linspace(-1.0, 1.0, 7)))
    rng = np.random.default_rng(3)
    n = 2 * _CSV_CHUNK_ROWS + 3
    rows = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-25, 25, (n, 7))
    rows[::5, 1:3] = 0.0                      # the all-zero u1 columns of k = 0, in part
    _assert_writes_percent_17g(tmp_path / "chunks.csv", *_field(rows))


_ANY_DOUBLE = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.floats())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_ANY_DOUBLE, min_size=1, max_size=140))
def test_save_field_csv_is_percent_17g_for_any_double(values, tmp_path_factory):
    values += [0.5] * (-len(values) % 7)
    _assert_writes_percent_17g(tmp_path_factory.getbasetemp() / "any.csv", *_field(values))


def test_svg_draws_only_markers_on_the_picture(drude_problem, tmp_path):
    # the window cuts the imaginary-axis segment of the sampled M- overlay,
    # which also reaches far beyond it to the sides
    (re0, re1, _), (im0, im1, _) = spec = ((-4.0, 4.0, 81), (-0.9, 0.4, 14))
    pg = trace_portrait(drude_problem, spec, 3.0, DEFAULT_TOL)
    write_portrait_svg(tmp_path / "p.svg", pg)
    text = (tmp_path / "p.svg").read_text()
    width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', text).groups())
    drawn = [(float(a), float(b)) for a, b in re.findall(r'cx="(\S+)" cy="(\S+)"', text)]
    drawn += [(float(a) + 4, float(b) + 4) for a, b in re.findall(r'd="M (\S+) (\S+) ', text)]

    def meets(x, y, pad):
        return -pad <= x <= width + pad and -pad <= y <= height + pad

    centres = [((z.real - re0) * width / (re1 - re0), (im1 - z.imag) * height / (im1 - im0))
               for name, _ in _MARKERS for z in pg.overlays.get(name, [])]
    kept = [c for c in centres if meets(*c, 4)]
    assert all(meets(*c, 4) for c in drawn)                        # no marker off the picture
    assert len(drawn) == len(kept) < len(centres)                  # and no marker lost
    assert any(not meets(*c, 0) for c in kept)                     # boxes cut by the edge stay
    assert any(0 <= x <= width and not meets(x, y, 4) for x, y in centres)   # drop by y too


def test_one_node_axis_stamps_only_the_points_on_it(drude_problem):
    # on lossy Drude at k = 3 every N and Omega_0 point lies 0.09-0.5 below the
    # real axis, so a one-row trace of the axis is the raster, unstamped
    row = trace_portrait(drude_problem, ((-4, 4, 161), (0, 0, 1)), 3.0, DEFAULT_TOL)
    assert row.overlays["N"] and row.overlays["Omega0"]
    assert row.classes == row.cells.raster_classes()
    col = trace_portrait(drude_problem, ((0.95, 0.95, 1), (-1.2, 0.4, 65)), 3.0, DEFAULT_TOL)
    assert col.classes == col.cells.raster_classes()
    # a row through the plasmon pair near +-0.97 - 0.41i stamps that pair, not the
    # pair near +-4.03 - 0.09i
    z = min(row.overlays["N"], key=lambda p: abs(p - 0.97))
    through = trace_portrait(drude_problem, ((-4, 4, 161), (z.imag, z.imag, 1)), 3.0,
                             DEFAULT_TOL)
    stamped = [x for x, c in zip(through.re_axis, through.classes) if c == "N"]
    assert [round(x, 2) for x in stamped] == [-0.95, 0.95]
    # and a column through an Omega_0 point keeps it and takes no N marker
    om0 = trace_portrait(drude_problem, ((OMEGA0_RE, OMEGA0_RE, 1), (-1.2, 0.4, 65)), 3.0,
                         DEFAULT_TOL)
    assert om0.classes.count("Omega0") == 1 and "N" not in om0.classes
