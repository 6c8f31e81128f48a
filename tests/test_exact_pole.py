"""A pole that poly_roots misses, where the denominator is exactly 0.

The minus side's denominator is (omega - 300000001)(omega - 300000003), its
constant rounded to 9.00000012e16. The two roots lie closer than
root_residual_tol resolves at that scale, so poly_roots gives one double root
300000002, a distance 1 away and so beyond ray_imag_tol, while
polyval(den, 300000001) is exactly 0.
"""

import pytest

from pencil_spectra import DielectricModel, InterfaceProblem, classify, classify2, wtilde
from pencil_spectra.classify1d import classify_array
from pencil_spectra.complex_numerics import polyval
from pencil_spectra.dielectric import singular_set, w_values, which_pole_side
from pencil_spectra.errors import SingularityError
from pencil_spectra.trace_cli import main

MINUS = DielectricModel.rational([1.0], [1, -600000004.0, 9.00000012e16])
PROBLEM = InterfaceProblem(DielectricModel.constant(2.0), MINUS)
POLE = 300000001.0
CFG = """\
[plus]
kind = "constant"
value = 2.0

[minus]
kind = "rational"
numerator = [1.0]
denominator = [1, -600000004.0, 9.00000012e16]
"""


def test_the_setup_misses_the_pole_by_rounding():
    assert all(abs(p - POLE) > 1e-10 for p in singular_set(MINUS))
    assert polyval(MINUS.denominator, complex(POLE)) == 0


def test_an_exact_zero_of_the_denominator_is_a_pole():
    assert which_pole_side(PROBLEM, POLE) == (POLE, "minus")
    with pytest.raises(SingularityError):
        wtilde(MINUS, POLE)
    with pytest.raises(SingularityError):
        w_values(PROBLEM, POLE)


def test_classifiers_agree_on_the_pole():
    assert classify(POLE, 1.0, PROBLEM).branch_note == "S/minus-pole@3e+08+0j"
    assert classify2(POLE, PROBLEM).branch_note == "2D-S/minus-pole@3e+08+0j"
    points = [POLE, POLE + 1.0, 0.5 + 0.5j]
    one, two = classify_array(points, 1.0, PROBLEM), classify_array(points, None, PROBLEM)
    assert [one.record(i) for i in range(3)] == [classify(z, 1.0, PROBLEM) for z in points]
    assert [two.record(i) for i in range(3)] == [classify2(z, PROBLEM) for z in points]


def test_cli_classify_and_resolve_at_the_pole(tmp_path, capsys):
    path = tmp_path / "m.cfg"
    path.write_text(CFG)
    assert main(["classify", "--config", str(path), "--omega", "300000001,0", "--k", "1"]) == 0
    assert "outside D(W~): S/minus-pole@3e+08+0j" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["resolve", "--config", str(path), "--omega", "300000001,0", "--k", "1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
