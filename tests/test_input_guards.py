"""Inputs refused before any work: an omega whose decay rates are NaN, and
trace grids or eigen k sweeps beyond the size caps."""

import pytest

from pencil_spectra import DielectricModel, InterfaceProblem, RhsField, solve
from pencil_spectra.errors import PencilSpectraError, PreconditionError
from pencil_spectra.resolvent import make_grid
from pencil_spectra.trace_cli import MAX_EIGEN_KS, MAX_TRACE_CELLS, _parse_grid, _parse_k, main
from tests.test_cli import DRUDE_CFG

LOSSY = InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0))


@pytest.fixture
def drude_cfg(tmp_path):
    path = tmp_path / "drude.cfg"
    path.write_text(DRUDE_CFG)
    return str(path)


def test_resolve_refuses_an_omega_whose_decay_rates_are_nan(drude_cfg, tmp_path, capsys):
    # W = omega^2 W~ overflows for |omega| from about 1.34e154
    out = tmp_path / "out"
    assert main(["resolve", "--config", drude_cfg, "--omega=1e300,1", "--k", "1",
                 "--h", "0.01", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: decay rates Re mu_pm = nan, nan are not positive\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_refuses_an_omega_whose_decay_rates_are_nan():
    grid = make_grid(1.0, 0.01)
    assert grid.x.size == 202
    r = RhsField.from_callables(grid, 1.0, r2_fn=lambda x: 0.0 * x + 1.0)
    with pytest.raises(PreconditionError, match="decay rates Re mu_pm = nan, nan"):
        solve(1e300 + 1j, 1.0, r, LOSSY)


def test_trace_grid_beyond_the_cell_cap_is_refused(drude_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["trace", "--config", drude_cfg, "--grid=0:1:100000,0:1:100000",
                 "--k", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --grid asks for more than 20000000 cells, "
                            "got '0:1:100000,0:1:100000'\n")
    assert captured.out == "" and not out.exists()


def test_eigen_sweep_beyond_the_k_cap_is_refused(drude_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["eigen", "--config", drude_cfg, "--k", "0:1:1000000000",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --k sweep count must be at most 100000, "
                            "got '0:1:1000000000'\n")
    assert captured.out == "" and not out.exists()


def test_the_caps_themselves_are_accepted():
    # parsing only: a trace or an eigen sweep of this size is not run
    assert _parse_grid(f"0:1:{MAX_TRACE_CELLS // 4},0:1:4")[0][2] * 4 == MAX_TRACE_CELLS
    with pytest.raises(PencilSpectraError):
        _parse_grid(f"0:1:{MAX_TRACE_CELLS + 1},0:0:1")
    assert len(_parse_k(f"0:1:{MAX_EIGEN_KS}", sweep=True)) == MAX_EIGEN_KS
    with pytest.raises(PencilSpectraError):
        _parse_k(f"0:1:{MAX_EIGEN_KS + 1}", sweep=True)
