"""The output writers: resolvent.csv keeps csv.writer's bytes and reloads part by
part, portrait.svg draws only markers that fall on the picture, and portrait.csv
stamps a marker only in the cell that holds its point."""
import csv
import re

import numpy as np

from pencil_spectra.complex_numerics import DEFAULT_TOL
from pencil_spectra.resolvent import load_field_csv, save_field_csv
from pencil_spectra.trace_cli import _MARKERS, trace_portrait, write_portrait_svg
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


def test_save_field_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    n = 5000                                   # more than one 4096-row chunk
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


def test_svg_draws_only_markers_on_the_picture(drude_problem, tmp_path):
    # the window cuts the imaginary-axis segment of the sampled M- overlay,
    # which also reaches far beyond it to the sides
    (re0, re1, _), (im0, im1, _) = spec = ((-4.0, 4.0, 81), (-0.9, 0.4, 14))
    pg = trace_portrait(drude_problem, spec, 3.0, 1, DEFAULT_TOL)
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
    row = trace_portrait(drude_problem, ((-4, 4, 161), (0, 0, 1)), 3.0, 1, DEFAULT_TOL)
    assert row.overlays["N"] and row.overlays["Omega0"]
    assert row.classes == row.cells.raster_classes()
    col = trace_portrait(drude_problem, ((0.95, 0.95, 1), (-1.2, 0.4, 65)), 3.0, 1, DEFAULT_TOL)
    assert col.classes == col.cells.raster_classes()
    # a row through the plasmon pair near +-0.97 - 0.41i stamps that pair, not the
    # pair near +-4.03 - 0.09i
    z = min(row.overlays["N"], key=lambda p: abs(p - 0.97))
    through = trace_portrait(drude_problem, ((-4, 4, 161), (z.imag, z.imag, 1)), 3.0, 1,
                             DEFAULT_TOL)
    stamped = [x for x, c in zip(through.re_axis, through.classes) if c == "N"]
    assert [round(x, 2) for x in stamped] == [-0.95, 0.95]
    # and a column through an Omega_0 point keeps it and takes no N marker
    om0 = trace_portrait(drude_problem, ((OMEGA0_RE, OMEGA0_RE, 1), (-1.2, 0.4, 65)), 3.0, 1,
                         DEFAULT_TOL)
    assert om0.classes.count("Omega0") == 1 and "N" not in om0.classes
