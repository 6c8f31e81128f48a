"""portrait.svg of a grid with a one-node axis: that axis takes the other axis's cell
size and pixels per unit, with its node at the middle of the picture, so the
picture has a sane height and a 1x1 grid is one square."""
import re

import pytest

from pencil_spectra.complex_numerics import DEFAULT_TOL
from pencil_spectra.trace_cli import _SVG_WIDTH, main, trace_portrait, write_portrait_svg

DRUDE_CFG = ('[plus]\nkind = "constant"\nvalue = 2.0\n'
             '[minus]\nkind = "drude"\nomega_p = 0.8\ngamma = 1.0\n')


def _size_and_circles(path):
    text = path.read_text()
    width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', text).groups())
    circles = [tuple(map(float, m)) for m in re.findall(r'<circle cx="(\S+)" cy="(\S+)"', text)]
    return width, height, circles


@pytest.mark.parametrize("grid, height", [
    (((0.5, 0.5, 1), (-1.0, 1.0, 11)), _SVG_WIDTH * 11),
    (((-4.0, 4.0, 11), (0.5, 0.5, 1)), round(_SVG_WIDTH / 11)),
    (((0.5, 0.5, 1), (0.5, 0.5, 1)), _SVG_WIDTH),
])
def test_one_node_axes_give_square_cells(grid, height, drude_problem, tmp_path):
    pg = trace_portrait(drude_problem, grid, 3.0, DEFAULT_TOL)
    write_portrait_svg(tmp_path / "p.svg", pg)
    width, got, _ = _size_and_circles(tmp_path / "p.svg")
    nx, ny = grid[0][2], grid[1][2]
    assert width == _SVG_WIDTH and 1 <= got <= _SVG_WIDTH * max(nx, ny)
    assert got == height
    assert abs(width / nx - got / ny) <= 0.5   # square cells, up to the rounded height


@pytest.mark.parametrize("re_axis", ["0:1e-6:3", "0:1e-13:3"])
def test_a_tiny_re_span_caps_the_height(re_axis, tmp_path, capsys):
    # the aspect ratio asks for a height of 1.44e9 or 1.44e15 px; the cap is 720 * 3
    path = tmp_path / "m.cfg"
    path.write_text(DRUDE_CFG)
    assert main(["trace", "--config", str(path), f"--grid={re_axis},-1:1:3", "--k", "3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, height, circles = _size_and_circles(tmp_path / "portrait.svg")
    assert height == _SVG_WIDTH * 3 == 2160
    assert all(-4 <= y <= height + 4 for _, y in circles)


def test_cli_trace_with_a_one_node_axis(tmp_path, capsys):
    path = tmp_path / "m.cfg"
    path.write_text('[plus]\nkind = "constant"\nvalue = 2.0\n'
                    '[minus]\nkind = "drude"\nomega_p = 0.8\ngamma = 1.0\n')
    assert main(["trace", "--config", str(path), "--grid=0.5:0.5:1,-1:1:11", "--k", "3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, height, _ = _size_and_circles(tmp_path / "portrait.svg")
    assert height == _SVG_WIDTH * 11


def test_markers_on_a_one_node_axis(drude_problem, tmp_path):
    # the real axis as a one-node imaginary axis: the M+ rays |Re| > sqrt(k^2 / 2) lie
    # on its middle line, at the same x as on a multi-node grid over the same Re range
    strip = trace_portrait(drude_problem, ((-4.0, 4.0, 11), (0.0, 0.0, 1)), 3.0, DEFAULT_TOL)
    plane = trace_portrait(drude_problem, ((-4.0, 4.0, 11), (-0.5, 0.5, 11)), 3.0, DEFAULT_TOL)
    write_portrait_svg(tmp_path / "strip.svg", strip)
    write_portrait_svg(tmp_path / "plane.svg", plane)
    _, height, circles = _size_and_circles(tmp_path / "strip.svg")
    on_axis = [(x, y) for x, y in circles if abs(y - height / 2) <= 0.01]
    assert len(on_axis) > 100
    assert all(-4 <= y <= height + 4 for _, y in circles)
    xs = sorted(x for x, _ in on_axis)
    plane_xs = sorted(x for x, y in _size_and_circles(tmp_path / "plane.svg")[2]
                      if abs(y - 0.5 * 90) <= 0.01)
    assert xs[0] == plane_xs[0] and xs[-1] == plane_xs[-1]
    # a single node: the picture is one unit wide, centred on it
    one = trace_portrait(drude_problem, ((3.0, 3.0, 1), (0.0, 0.0, 1)), 3.0, DEFAULT_TOL)
    write_portrait_svg(tmp_path / "one.svg", one)
    width, height, circles = _size_and_circles(tmp_path / "one.svg")
    assert width == height == _SVG_WIDTH
    assert circles and all(abs(y - height / 2) <= 0.01 for x, y in circles if 0 <= x <= width)
