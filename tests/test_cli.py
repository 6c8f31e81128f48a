import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import pencil_spectra
from pencil_spectra.config import parse_problem_config
from pencil_spectra.errors import ConfigError
from pencil_spectra.trace_cli import main
from tests.conftest import MPLUS_EDGE_3, MPLUS_EDGE_07, OMEGA0_RE, OMEGA_SP, PLASMON

DRUDE_CFG = """\
# Drude metal against a constant dielectric (eta = 1)
scale = 1.0

[plus]
kind = "constant"
value = 2.0

[minus]
kind = "drude"
omega_p = 0.8
gamma = 1.0
"""

LOSSLESS_CFG = """\
[plus]
kind = "constant"
value = 2.0

[minus]
kind = "drude"
omega_p = 0.8
gamma = 0.0
"""

GUIDED_CFG = """\
[plus]
kind = "constant"
value = 2.0

[minus]
kind = "drude"
omega_p = 0.6
gamma = 2.0
"""

EQUAL_CFG = """\
[plus]
kind = "constant"
value = 2.0

[minus]
kind = "constant"
value = 2.0
"""


@pytest.fixture
def cfg(tmp_path):
    def write(text, name="m.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_config_parsing_and_errors(cfg):
    prob = parse_problem_config(DRUDE_CFG)
    assert prob.plus.kind == "constant" and prob.minus.kind == "drude"
    assert prob.minus.omega_p == 0.8

    with pytest.raises(ConfigError, match="omega_p"):
        parse_problem_config("[plus]\nkind = \"constant\"\nvalue = 2.0\n"
                             "[minus]\nkind = \"drude\"\ngamma = 1.0\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_problem_config("[plus]\nkind = \"constant\"\nvalue = 2.0\nbogus = 1\n"
                             "[minus]\nkind = \"constant\"\nvalue = 1.0\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_problem_config("[plus]\nvalue = 2.0\n[minus]\nkind = \"constant\"\nvalue = 1\n")
    with pytest.raises(ConfigError, match="minus"):
        parse_problem_config("[plus]\nkind = \"constant\"\nvalue = 2.0\n")
    with pytest.raises(ConfigError, match="3"):
        parse_problem_config("[plus]\nkind = \"constant\"\nvalue = oops\n")


def test_classify_command(cfg, capsys):
    path = cfg(DRUDE_CFG)
    assert main(["classify", "--config", path, "--omega", "0,0.5", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "resolvent" in out

    assert main(["classify", "--config", path, "--omega", "3,0", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "essential (Weyl, e1-e5)" in out and "M+" in out

    assert main(["classify", "--config", path, "--omega", "0,-1", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "outside D(W~)" in out and "minus" in out


def test_trace_determinism_and_anchors(cfg, tmp_path, capsys):
    path = cfg(DRUDE_CFG)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["trace", "--config", path, "--grid=-4:4:161,-1.2:0.4:65", "--k", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    csv1 = (out1 / "portrait.csv").read_bytes()
    assert csv1 == (out2 / "portrait.csv").read_bytes()
    svg = (out1 / "portrait.svg").read_bytes()
    assert svg == (out2 / "portrait.svg").read_bytes()
    assert b"date" not in svg.lower() and b"time" not in svg.lower()

    rows = list(csv.DictReader((out1 / "portrait.csv").open()))
    # M+ rays: real-axis nodes beyond +-sqrt(k^2/2) are M+, inside are not
    real_axis = {float(r["re"]): r for r in rows if abs(float(r["im"])) < 1e-12}
    for re, row in real_axis.items():
        if abs(re) > MPLUS_EDGE_3 + 0.05:
            assert row["class"] == "M+"
        elif abs(re) < MPLUS_EDGE_3 - 0.05 and abs(re) > 0.05:
            assert row["class"] != "M+"
    # M- lobes live strictly below the real axis
    m_minus = [r for r in rows if r["class"] == "M-"]
    assert m_minus and all(float(r["im"]) < 0 for r in m_minus)
    # exceptional-set markers at +-1.94197 - 0.5i
    om0 = [r for r in rows if r["class"] == "Omega0"]
    assert len(om0) == 2
    for r in om0:
        assert abs(abs(float(r["re"])) - OMEGA0_RE) < 0.05
        assert abs(float(r["im"]) + 0.5) < 0.05
    # pole markers
    assert sum(1 for r in rows if r["class"] == "S") == 2
    # at most four plasmon markers
    assert sum(1 for r in rows if r["class"] == "N") <= 4
    # the sampled M+ markers are drawn even when the grid misses Im = 0, on both rays
    mplus_x = [float(line.split('"')[1]) for line in svg.decode().splitlines()
               if line.startswith("<circle") and line.endswith('r="0.8" fill="#3465a4"/>')]
    assert len(mplus_x) >= 2 and MPLUS_EDGE_3 < 4.0
    assert min(mplus_x) <= (4.0 - MPLUS_EDGE_3) * 90 and max(mplus_x) >= (4.0 + MPLUS_EDGE_3) * 90


def test_trace_overlay_consistency(cfg, tmp_path, capsys):
    from pencil_spectra.trace_cli import trace_portrait
    from pencil_spectra.config import load_problem
    from pencil_spectra.complex_numerics import Tolerances

    path = cfg(DRUDE_CFG)
    problem = load_problem(path)
    pg = trace_portrait(problem, ((-4, 4, 161), (-1.2, 0.4, 65)), 3.0, 1,
                        Tolerances())
    nx = pg.re_axis.size
    for z in pg.overlays.get("N", []):
        i = int(np.argmin(np.abs(pg.re_axis - z.real)))
        j = int(np.argmin(np.abs(pg.im_axis - z.imag)))
        neighborhood = [
            pg.classes[jj * nx + ii]
            for ii in range(max(i - 1, 0), min(i + 2, nx))
            for jj in range(max(j - 1, 0), min(j + 2, pg.im_axis.size))
        ]
        assert "N" in neighborhood


def test_m_minus_boundary_overlay(cfg):
    from pencil_spectra.trace_cli import _m_minus_boundary
    from pencil_spectra import in_M
    from pencil_spectra.errors import PreconditionError

    problem = parse_problem_config(DRUDE_CFG)
    pts = _m_minus_boundary(problem, 3.0)
    assert pts and len(pts) > 100
    assert all(z.imag < 0 for z in pts)
    hits = 0
    total = 0
    for z in pts[:: 37]:
        total += 1
        try:
            if in_M("-", z, 3.0, problem):
                hits += 1
        except PreconditionError:
            continue
    assert hits >= 0.9 * total  # the parametrized curve is the set M- itself


def test_trace_k07_endpoints(cfg, tmp_path, capsys):
    path = cfg(DRUDE_CFG)
    out = tmp_path / "k07"
    assert main(["trace", "--config", path, "--grid=-1:1:201,-0.01:0.01:3",
                 "--k", "0.7", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader((out / "portrait.csv").open()))
    axis = {float(r["re"]): r["class"] for r in rows if abs(float(r["im"])) < 1e-12}
    for re, klass in axis.items():
        if abs(re) > MPLUS_EDGE_07 + 0.02:
            assert klass == "M+"
        elif 0.05 < abs(re) < MPLUS_EDGE_07 - 0.02:
            assert klass != "M+"


def test_trace_2d_segment(cfg, tmp_path, capsys):
    path = cfg(GUIDED_CFG)
    out = tmp_path / "d2"
    assert main(["trace", "--config", path, "--grid=-3:3:121,-2.2:0.4:105",
                 "--dim", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader((out / "portrait.csv").open()))
    seg = [r for r in rows
           if abs(float(r["re"])) < 1e-12 and -1.4960 < float(r["im"]) < -0.5040]
    assert len(seg) > 30
    assert all("N" in r["branch_note"] for r in seg)


def test_trace_no_overlays_and_k0(cfg, tmp_path, capsys):
    path = cfg(DRUDE_CFG)
    out = tmp_path / "plain"
    assert main(["trace", "--config", path, "--grid=-2:2:41,-0.9:0.3:25",
                 "--k", "3", "--out", str(out), "--no-overlays"]) == 0
    rows = list(csv.DictReader((out / "portrait.csv").open()))
    # without overlays no marker stamping happens; off-axis nodes are plain
    assert all(r["class"] in ("resolvent", "M+", "M-") for r in rows
               if abs(float(r["im"])) > 1e-9 and abs(float(r["im"]) + 0.5) > 0.05)
    # the k = 0 branch classifies without aborting
    out0 = tmp_path / "k0"
    assert main(["trace", "--config", path, "--grid=-2:2:41,-0.9:0.3:25",
                 "--k", "0", "--out", str(out0)]) == 0
    capsys.readouterr()


def test_rational_config_via_cli(cfg, capsys):
    rational = cfg(
        "[plus]\nkind = \"rational\"\nnumerator = [1, -1]\ndenominator = [1]\n"
        "[minus]\nkind = \"constant\"\nvalue = 1.0\n", "rat.cfg")
    # omega = 1 is the response zero: infinite-multiplicity point spectrum
    assert main(["classify", "--config", rational, "--omega", "1,0", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "infinite multiplicity" in out


def test_eigen_command(cfg, tmp_path, capsys):
    path = cfg(LOSSLESS_CFG)
    assert main(["eigen", "--config", path, "--k", "3"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith(("k,", "note"))]
    assert len(lines) == 2  # the symmetric pair
    pos = [l for l in lines if float(l.split(",")[2]) > 0]
    assert len(pos) == 1
    fields = pos[0].split(",")
    assert abs(float(fields[2]) - PLASMON) < 1e-9
    assert float(fields[8]) < 1e-10  # residual column

    assert main(["eigen", "--config", path, "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert "N^(0) is empty" in out


def test_eigen_sweep_monotone(cfg, tmp_path, capsys):
    path = cfg(LOSSLESS_CFG)
    out = tmp_path / "sweep"
    assert main(["eigen", "--config", path, "--k", "1:50:25", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader((out / "modes.csv").open()))
    branch = [r for r in rows if float(r["re_omega"]) > 0]
    oms = [float(r["re_omega"]) for r in branch]
    ks = [float(r["k"]) for r in branch]
    assert ks == sorted(ks)
    assert all(a < b for a, b in zip(oms, oms[1:]))  # monotone toward the asymptote
    assert all(om < OMEGA_SP for om in oms)
    assert abs(oms[-1] - OMEGA_SP) < 1e-3


def test_resolve_command(cfg, tmp_path, capsys):
    path = cfg(DRUDE_CFG)
    out = tmp_path / "res"
    assert main(["resolve", "--config", path, "--omega", "0,0.5", "--k", "3",
                 "--out", str(out), "--h", "0.01"]) == 0
    printed = capsys.readouterr().out
    assert "ode residual" in printed
    assert (out / "resolvent.csv").exists()
    rows = list(csv.DictReader((out / "resolvent.csv").open()))
    assert len(rows) > 100 and "re_u2" in rows[0]


def test_check_command(cfg, capsys):
    path = cfg(LOSSLESS_CFG)
    assert main(["check", "--config", path, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out

    equal = cfg(EQUAL_CFG, "eq.cfg")
    assert main(["check", "--config", equal, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "no modes" in out and "FAIL" not in out


def test_check_k0_lossy_drude_passes(cfg, capsys):
    # at k = 0 the lossy Drude medium decays like exp(-0.71|x|): the resolvent
    # suite's grids must be sized from the decay rate, not a fixed [-8, 8]
    assert main(["check", "--config", cfg(DRUDE_CFG), "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_corrupted_tolerance_env(cfg, capsys, monkeypatch):
    path = cfg(DRUDE_CFG)
    monkeypatch.setenv("PENCIL_SPECTRA_TOL", "ray_imag_tol=-5")
    code = main(["classify", "--config", path, "--omega", "0,0.5", "--k", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "FAIL configuration" in err


def test_tolerance_env_applies(cfg, capsys, monkeypatch):
    path = cfg(DRUDE_CFG)
    # an absurdly wide ray_imag_tol turns a resolvent point into essential
    monkeypatch.setenv("PENCIL_SPECTRA_TOL", "ray_imag_tol=100,ray_real_tol=100")
    assert main(["classify", "--config", path, "--omega", "0,0.5", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "resolvent" not in out.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["trace", "--grid=-4:4,-1:1:5", "--k", "3"],          # two fields
    ["trace", "--grid=-4:4:9:2,-1:1:5", "--k", "3"],      # four fields
    ["trace", "--grid=-4:4:9,-1:1", "--k", "3"],
    ["trace", "--grid=-4:4:9", "--k", "3"],               # no imaginary axis
    ["trace", "--grid=-4:4:0,-1:1:5", "--k", "3"],        # count < 1
    ["trace", "--grid=-4:4:9,-1:1:-2", "--k", "3"],
    ["trace", "--grid=-inf:4:9,-1:1:5", "--k", "3"],      # non-finite bound
    ["trace", "--grid=-4:4:9,-1:nan:5", "--k", "3"],
    ["trace", "--grid=a:4:9,-1:1:5", "--k", "3"],
    ["trace", "--grid=-4:4:2.5,-1:1:5", "--k", "3"],
    ["classify", "--omega", "nan,0", "--k", "3"],
    ["classify", "--omega", "0,inf", "--k", "3"],
    ["classify", "--omega", "1,2,3", "--k", "3"],
    ["classify", "--omega", "x", "--k", "3"],
    ["resolve", "--omega", "nan,0", "--k", "3"],
])
def test_bad_grid_and_omega_are_usage_errors(cfg, tmp_path, capsys, argv):
    args = argv[:1] + ["--config", cfg(DRUDE_CFG)] + argv[1:]
    if argv[0] != "classify":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["eigen", "--k", "1:2"],              # two fields
    ["eigen", "--k", "1:2:3:4"],          # four fields
    ["eigen", "--k", "1:2:x"],
    ["eigen", "--k", "1:2:2.5"],
    ["eigen", "--k", "1:2:0"],            # count < 1
    ["eigen", "--k", "nan"],
    ["eigen", "--k", "0:inf:3"],
    ["eigen", "--k", ""],
    ["check", "--k", "nan"],
    ["check", "--k", "1:2:3"],            # a sweep where one k is expected
    ["classify", "--omega", "0,0.5", "--k", "x"],
    ["classify", "--omega", "0,0.5", "--k=-inf"],
    ["trace", "--grid=-4:4:9,-1:1:5", "--k", "nan"],
    ["resolve", "--omega", "0,0.5", "--k", "inf"],
])
def test_bad_k_is_a_usage_error(cfg, tmp_path, capsys, argv):
    args = argv[:1] + ["--config", cfg(DRUDE_CFG)] + argv[1:]
    if argv[0] in ("eigen", "trace", "resolve"):
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [
    "--support=1:x", "--support=1", "--support=1:2:3", "--support=1:1", "--support=2:1",
    "--support=-inf:1", "--support=1:nan",
    "--h=nan", "--h=inf", "--h=0", "--h=-0.01", "--h=x", "--h=100",
    "--h=1e-310",
])
def test_bad_resolve_support_and_h_are_usage_errors(cfg, tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["resolve", "--config", cfg(DRUDE_CFG), "--omega", "0,0.5", "--k", "3",
                 flag, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


def test_grid_count_one_is_accepted(cfg, tmp_path, capsys):
    out = tmp_path / "one"
    assert main(["trace", "--config", cfg(DRUDE_CFG), "--grid=0.5:0.5:1,0.5:0.5:1",
                 "--k", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader((out / "portrait.csv").read_text().splitlines()))
    assert len(rows) == 1 and rows[0]["branch_note"] == "reduced/resolvent"


def test_cli_commands_do_not_load_scipy(cfg, tmp_path):
    """classify, trace, resolve and eigen run without scipy; only check needs it."""
    path = cfg(DRUDE_CFG)
    out = str(tmp_path)
    runs = [
        ["classify", "--config", path, "--omega", "0,0.5", "--k", "3"],
        ["classify", "--config", path, "--omega", "0,-1.2", "--dim", "2"],
        ["trace", "--config", path, "--grid=-2:2:21,-1:0.4:8", "--k", "3", "--out", out],
        ["trace", "--config", path, "--grid=-2:2:21,-1:0.4:8", "--dim", "2", "--out", out],
        ["resolve", "--config", path, "--omega", "0,0.5", "--k", "3", "--h", "0.05",
         "--out", out],
        ["eigen", "--config", path, "--k", "1:3:3", "--out", out],
    ]
    code = (
        "import sys\n"
        "from pencil_spectra.trace_cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from pencil_spectra import shoot_determinant\n"
        "print(shoot_determinant.__module__)\n"
    )
    src = os.path.dirname(os.path.dirname(pencil_spectra.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines()[-2:] == ["[]", "pencil_spectra.fd_oracle"]


INVERSE_SQUARE_CFG = """\
[plus]
kind = "rational"
numerator = [1]
denominator = [1, 0, 0]

[minus]
kind = "constant"
value = 2.0
"""


def test_constant_eigenvalue_polynomial_is_no_error(cfg, tmp_path, capsys):
    """At k = 1 the eigenvalue polynomial of W~_+ = 1/omega^2 against 2 is the constant 1."""
    path = cfg(INVERSE_SQUARE_CFG)
    out = str(tmp_path / "eig")
    assert main(["eigen", "--config", path, "--k", "0.5:1.5:3", "--out", out]) == 0
    with open(os.path.join(out, "modes.csv")) as fh:
        rows = list(csv.DictReader(fh))
    # W_+ = 1 lies on the ray [k^2, inf) for k < 1; at k = 1.5 the two roots of 2.5 omega^2 + 2.25
    assert [row["k"] for row in rows] == ["1.5", "1.5"]
    assert main(["trace", "--config", path, "--k", "1", "--grid=-2:2:9,-1:1:5",
                 "--out", str(tmp_path / "tr")]) == 0
    assert "error" not in capsys.readouterr().err

def test_make_grid_rejects_a_node_count_above_the_cap(monkeypatch):
    from pencil_spectra import resolvent

    # a lowered cap: the grids stay small whether or not the check holds
    monkeypatch.setattr(resolvent, "MAX_GRID_NODES", 102)
    assert resolvent.make_grid(1.0, 0.02).x.size == 102
    with pytest.raises(ValueError, match="above 102"):
        resolvent.make_grid(1.0, 0.01)


def test_closed_stdout_ends_quietly(cfg):
    """check | head -1: the reader leaves after one line; no traceback follows."""
    src = os.path.dirname(os.path.dirname(pencil_spectra.__file__))
    with subprocess.Popen(
            [sys.executable, "-u", "-m", "pencil_spectra.trace_cli", "check",
             "--config", cfg(DRUDE_CFG), "--k", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src)) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()   # the reader is gone; the next print meets a closed pipe
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert first.startswith("PASS shoot-vs-polynomial")
    assert err == ""
