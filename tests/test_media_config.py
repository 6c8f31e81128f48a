"""Media and their config: a medium with a non-finite coefficient is rejected where it
is built (the library raises ValueError, the CLI prints an ``error:`` line and exits
with 2), the top-level scale is read with a message naming its key and line, the
keys of each kind come from one table, a key given twice names both its lines, and
PENCIL_SPECTRA_TOL reaches the common-root cancellation of a rational medium read
from a config."""
import math

import pytest

from pencil_spectra import DielectricModel, InterfaceProblem, classify
from pencil_spectra.complex_numerics import Tolerances
from pencil_spectra.config import load_problem, parse_problem_config
from pencil_spectra.errors import ConfigError
from pencil_spectra.trace_cli import main

PLUS = '[plus]\nkind = "constant"\nvalue = 2.0\n'

NON_FINITE_MINUS = {
    "rational inf": 'kind = "rational"\nnumerator = [1e400, 1]\ndenominator = [1, 0.5]\n',
    "constant inf": 'kind = "constant"\nvalue = 1e400\n',
    "drude omega_p squared overflows": 'kind = "drude"\nomega_p = 1e200\ngamma = 1.0\n',
    "drude gamma inf": 'kind = "drude"\nomega_p = 0.8\ngamma = 1e400\n',
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_MINUS))
@pytest.mark.parametrize("command", [
    ["classify", "--omega", "0,0.5", "--k", "3"],
    ["resolve", "--omega", "0,0.5", "--k", "3"],
])
def test_cli_rejects_a_non_finite_medium(name, command, tmp_path, capsys):
    path = tmp_path / "m.cfg"
    path.write_text(PLUS + "[minus]\n" + NON_FINITE_MINUS[name])
    out = tmp_path / "out"
    argv = [command[0], "--config", str(path), *command[1:]]
    assert main(argv + ["--out", str(out)] if command[0] == "resolve" else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "section [minus]: coefficients must be finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("build", [
    lambda: DielectricModel.rational([1e400, 1], [1, 0.5]),
    lambda: DielectricModel.rational([1, 0.5], [1, math.nan]),
    lambda: DielectricModel.rational([complex(1, math.inf)], [1]),
    lambda: DielectricModel.constant(1e400),
    lambda: DielectricModel.constant(complex(math.nan, 0)),
    lambda: DielectricModel.drude(1e200, 1.0),
    lambda: DielectricModel.drude(0.8, 1e400),
    lambda: DielectricModel.drude(0.8, math.nan),
    lambda: DielectricModel.drude(0.8, 1.0, background=math.inf),
    lambda: DielectricModel(kind="rational", numerator=(1 + 0j,), denominator=(math.inf,)),
])
def test_library_rejects_non_finite_coefficients(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_an_integer_beyond_the_float_range_names_the_section():
    with pytest.raises(ConfigError, match=r"section \[minus\]: int too large"):
        parse_problem_config(PLUS + '[minus]\nkind = "constant"\nvalue = 1' + "0" * 400 + "\n")


def test_rational_checks_its_input_before_cancelling():
    # with an inf coefficient, inf <= inf would cancel the pole at -0.5
    with pytest.raises(ValueError, match="finite"):
        DielectricModel.rational([math.inf, math.inf], [1, 0.5])
    for num, den in (([1.0], [0.0]), ([0.0, 0.0], [1.0]), ([], [1.0]), ([1.0], [])):
        with pytest.raises(ValueError):
            DielectricModel.rational(num, den)


@pytest.mark.parametrize("literal", ['"x"', "[1]", "1+2j", "None", "1" + "0" * 400])
def test_bad_scale_names_its_key_and_line(literal, tmp_path, capsys):
    text = (f"# a comment\nscale = {literal}\n" + PLUS
            + '[minus]\nkind = "constant"\nvalue = 3.0\n')
    with pytest.raises(ConfigError, match=r"<config>:2: invalid value for key 'scale'"):
        parse_problem_config(text)
    path = tmp_path / "m.cfg"
    path.write_text(text)
    assert main(["classify", "--config", str(path), "--omega", "0,0.5"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: invalid value for key 'scale'")


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "0", "-0.0", "-2.0"])
def test_a_scale_not_finite_and_positive_names_its_key_and_line(literal, tmp_path, capsys):
    text = (f"# a comment\nscale = {literal}\n" + PLUS
            + '[minus]\nkind = "constant"\nvalue = 3.0\n')
    message = r"<config>:2: invalid value for key 'scale': must be a finite positive real"
    with pytest.raises(ConfigError, match=message):
        parse_problem_config(text)
    path = tmp_path / "m.cfg"
    path.write_text(text)
    assert main(["classify", "--config", str(path), "--omega", "0,0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: invalid value for key 'scale'")
    assert "section" not in err
    # a library caller meets the medium's own check
    with pytest.raises(ValueError, match="scale must be a positive real"):
        DielectricModel.constant(3.0, scale=float(literal))


MINUS = '[minus]\nkind = "constant"\nvalue = -3.0\n'


@pytest.mark.parametrize("text, key, first, second", [
    (PLUS + "value = -3.0\n" + MINUS, "value", 3, 4),
    (PLUS + MINUS + "[plus]\nvalue = 5.0\n", "value", 3, 8),   # a reopened section
    ("scale = 1.0\nscale = 2.0\n" + PLUS + MINUS, "scale", 1, 2),
], ids=["one section", "reopened section", "scale"])
def test_a_key_given_twice_names_it_and_both_lines(text, key, first, second, tmp_path, capsys):
    message = f"<config>:{second}: key '{key}' given twice (lines {first} and {second})"
    with pytest.raises(ConfigError) as info:
        parse_problem_config(text)
    assert str(info.value) == message
    path = tmp_path / "m.cfg"
    path.write_text(text)
    assert main(["classify", "--config", str(path), "--omega", "0,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}{message.removeprefix('<config>')}\n"


def test_each_kind_lists_its_keys():
    with pytest.raises(ConfigError, match=r"allowed: \['background', 'gamma', 'omega_p'\]"):
        parse_problem_config(PLUS + '[minus]\nkind = "drude"\nomega_p = 0.8\ngamma = 1\n'
                             'value = 1\n')
    with pytest.raises(ConfigError, match=r"allowed: \['value'\]"):
        parse_problem_config(PLUS + '[minus]\nkind = "constant"\nvalue = 1\ngamma = 1\n')
    with pytest.raises(ConfigError, match=r"allowed: \['denominator', 'numerator'\]"):
        parse_problem_config(PLUS + '[minus]\nkind = "rational"\nnumerator = [1]\nvalue = 1\n')
    with pytest.raises(ConfigError,
                       match=r"one of \['constant', 'drude', 'rational'\], got 'lorentz'"):
        parse_problem_config(PLUS + '[minus]\nkind = "lorentz"\n')
    with pytest.raises(ConfigError, match=r"kind 'rational' is missing key 'denominator'"):
        parse_problem_config(PLUS + '[minus]\nkind = "rational"\nnumerator = [1]\n')


def test_scale_and_optional_keys_reach_the_constructors():
    problem = parse_problem_config(
        "scale = 2.0\n[plus]\nkind = \"rational\"\nnumerator = [1, 0, -2.0]\n"
        "denominator = [1, 0, 3.0]\n[minus]\nkind = \"drude\"\nomega_p = 0.8\ngamma = 1.0\n"
        "background = 1.5\n")
    assert problem == InterfaceProblem(
        DielectricModel.rational([1, 0, -2.0], [1, 0, 3.0], scale=2.0),
        DielectricModel.drude(0.8, 1.0, background=1.5, scale=2.0))


RATIONAL_NEAR_COMMON_ROOT = (PLUS + '[minus]\nkind = "rational"\nnumerator = [1, -3, 2]\n'
                             'denominator = [1, -1e-6, -1.000001]\n')


def test_pencil_spectra_tol_reaches_the_rational_cancellation(tmp_path, capsys, monkeypatch):
    # num = (w - 1)(w - 2) and den = (w - 1.000001)(w + 1): the roots near 1 cancel at
    # equality_tol = 1e-3, not at the default
    tol = Tolerances(equality_tol=1e-3)
    problem = InterfaceProblem(DielectricModel.constant(2.0),
                               DielectricModel.rational([1, -3, 2], [1, -1e-6, -1.000001], tol=tol))
    assert problem == parse_problem_config(RATIONAL_NEAR_COMMON_ROOT, tol=tol)
    assert parse_problem_config(RATIONAL_NEAR_COMMON_ROOT) != problem
    record = classify(1.000001, 3.0, problem, tol)
    assert record.branch_note == "reduced/resolvent"

    path = tmp_path / "m.cfg"
    path.write_text(RATIONAL_NEAR_COMMON_ROOT)
    monkeypatch.setenv("PENCIL_SPECTRA_TOL", "equality_tol=1e-3")
    assert main(["classify", "--config", str(path), "--omega", "1.000001,0", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("->  resolvent")
    assert f",{record.raster_class()},{record.branch_note}," in out


@pytest.mark.parametrize("make, reason", [
    (lambda p: None, "No such file or directory"),
    (lambda p: p.mkdir(), "Is a directory"),
    (lambda p: p.write_bytes(b"\xff\xfe" + PLUS.encode()), "can't decode byte 0xff"),
])
@pytest.mark.parametrize("command", [
    ["classify", "--omega", "0,0.5"],
    ["trace", "--grid=0:1:3,-1:1:3", "--k", "3"],
    ["eigen", "--k", "3"],
    ["resolve", "--omega", "0,0.5", "--k", "3"],
    ["check", "--k", "3"],
    ["classify", "--omega", "x"],   # the config is read before any flag value
])
def test_an_unreadable_config_is_an_error_line(make, reason, command, tmp_path, capsys):
    path = tmp_path / "nope.cfg"
    make(path)
    out = tmp_path / "out"
    argv = [command[0], "--config", str(path), *command[1:]]
    assert main(argv + ["--out", str(out)] if command[0] in ("trace", "eigen", "resolve")
                else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cannot read the config file: ")
    assert reason in captured.err and captured.err.count("\n") == 1
    assert not out.exists()
    with pytest.raises(ConfigError, match="cannot read the config file"):
        load_problem(path)
