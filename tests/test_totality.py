"""classify and classify2 are total: a record, no exception and no warning,
for media whose poles or Omega_0 points sit at the ends of the float range."""

import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pencil_spectra import DielectricModel, InterfaceProblem, classify, classify2
from pencil_spectra.classify1d import SpectrumClass

CONST = DielectricModel.constant(2.0)
_OMEGA = st.sampled_from([0.5j, 0j, 1.0, -2.2 + 0.1j, 0.3 - 0.2j, 1e200, -1e300j])


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))


def _assert_total(problem, omegas):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega in omegas:
            for k in (0.0, 3.0):
                assert isinstance(classify(omega, k, problem), SpectrumClass)
            assert isinstance(classify2(omega, problem), SpectrumClass)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gamma=_log_uniform(5e-324, 2.0), minus=st.booleans(), omega=_OMEGA)
@example(gamma=1e-9, minus=True, omega=0.5j)
@example(gamma=5e-324, minus=False, omega=0.5j)
def test_drude_media_with_any_damping(gamma, minus, omega):
    metal = DielectricModel.drude(1.0, gamma)
    problem = InterfaceProblem(CONST, metal) if minus else InterfaceProblem(metal, CONST)
    # the two poles 0 and -i gamma, and the point omega itself
    _assert_total(problem, [omega, 0j, -1j * gamma])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(root=_log_uniform(1.0, 1e300), sign=st.sampled_from([1, -1, 1j]),
       minus=st.booleans(), omega=_OMEGA)
@example(root=1e200, sign=1, minus=True, omega=0.5j)
def test_rational_media_with_a_huge_numerator_root(root, sign, minus, omega):
    medium = DielectricModel.rational([1, -sign * root], [1, 1j])
    problem = InterfaceProblem(CONST, medium) if minus else InterfaceProblem(medium, CONST)
    # the point omega, the numerator root (an Omega_0 point) and the pole -i
    _assert_total(problem, [omega, sign * root, -1j])
