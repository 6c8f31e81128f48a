"""One reduced-branch pass per classification.

classify_array decides the reduced branch of all its points in one _reduced_codes
call, also where almost every point is decided one at a time (the three-pole-pair
medium at |omega| ~ 1e52, where Horner's W-tilde overflows, and a black box), and
classify and classify2 are one-point classify_array calls."""

import math

import numpy as np
import pytest

from pencil_spectra import DielectricModel, InterfaceProblem, classify, classify2, classify1d
from pencil_spectra.classify1d import POINTWISE, classify_array
from tests.test_classify_array import _grid
from tests.test_metamorphic import MEDIA


@pytest.fixture
def passes(monkeypatch):
    """The list of _reduced_codes calls, one entry each."""
    calls = []
    real = classify1d._reduced_codes

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(classify1d, "_reduced_codes", counting)
    return calls


def _black_box_drude():
    c = 2 * math.pi * 0.64
    black_box = DielectricModel.from_callable(lambda w: 1 - c / (w * w + 1j * w), poles=(0, -1j))
    return InterfaceProblem(DielectricModel.constant(2.0), black_box)


def test_a_grid_decided_point_by_point_takes_one_pass(passes):
    """trace's grid -2e52:2e52:81,-1e52:1e51:21 at k = 1e52 on the three-pole-pair medium."""
    res = classify_array(_grid(-2e52, 2e52, 81, -1e52, 1e51, 21), 1e52, MEDIA["three-pole-pair"])
    assert np.count_nonzero(res.codes == POINTWISE) == 1646 and res.codes.size == 1701
    assert len(passes) == 1


@pytest.mark.parametrize("k", [3.0, None], ids=["k3", "2D"])
def test_a_black_box_takes_one_pass(passes, k):
    res = classify_array(_grid(-3.0, 3.0, 10, -1.5, 0.5, 5), k, _black_box_drude())
    assert (res.codes == POINTWISE).all() and res.codes.size == 50
    assert len(passes) == 1


@pytest.mark.parametrize("name", ["rational", "black box"])
def test_classify_and_classify2_take_one_pass_each(passes, name):
    problem = MEDIA["three-pole-pair"] if name == "rational" else _black_box_drude()
    for omega in (0.3 + 0.4j, 1.2 - 0.3j, 2e52 + 1e51j):
        passes.clear()
        classify(omega, 3.0, problem)
        assert len(passes) == 1, omega
        passes.clear()
        classify2(omega, problem)
        assert len(passes) == 1, omega
