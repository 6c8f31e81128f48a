"""The set predicates against classify's record.

in_M / in_N / in_M2 / in_N2 must give exactly the memberships that classify
(or classify2) writes into the branch note of the record, and must raise
PreconditionError exactly where that record is S or Omega_0. The points mix
random ones with the curves where the sets live: the real and imaginary axes
(out to beyond the M+ endpoint at large k), every root of the eigenvalue
polynomial (the modes and the roots on the rays), the M+ endpoint itself,
and offsets around every point of S and Omega_0 that straddle the
proximity tolerance.
"""

import math

import numpy as np
import pytest

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    classify,
    classify2,
    in_M,
    in_M2,
    in_N,
    in_N2,
    omega0_set,
    singular_points,
)
from pencil_spectra.complex_numerics import poly_roots
from pencil_spectra.errors import PreconditionError
from pencil_spectra.modes import eigenvalue_polynomial

# the media of the invariant fuzz (acceptance criterion 10)
MEDIA = [
    InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
    InterfaceProblem(DielectricModel.constant(1.5), DielectricModel.drude(1.2, 0.4)),
    InterfaceProblem(DielectricModel.drude(0.6, 0.9), DielectricModel.drude(1.0, 1.7)),
    InterfaceProblem(DielectricModel.constant(2.5), DielectricModel.constant(-1.5)),
    InterfaceProblem(DielectricModel.rational([1, -1], [1]), DielectricModel.constant(1.0)),
]
KS = [0.0, 0.7, 3.0, 1e3, None]   # None: the 2D pencil
OFFSETS = (0.0, 1e-12, 1e-10 * (1 - 1e-6), 1e-10 * (1 + 1e-6), 1e-9)


def _points(problem, k, rng):
    reach = max(5.0, 2.0 * (k or 0.0))
    pts = [complex(rng.uniform(-5, 5), rng.uniform(-2.5, 1.0)) for _ in range(80)]
    pts += [complex(rng.uniform(-reach, reach)) for _ in range(60)]
    pts += [complex(0.0, rng.uniform(-2.5, 1.0)) for _ in range(40)]
    for kk in (0.7, 3.0) if k is None else ((k,) if k else ()):
        pts += [z for z, _ in poly_roots(eigenvalue_polynomial(kk, problem))]
        plus = problem.plus
        if plus.kind == "constant":
            pts.append(complex(math.sqrt(kk * kk / (plus.numerator[0].real * plus.scale))))
    special = list(singular_points(problem)) + [p.omega for p in omega0_set(problem)]
    pts += [s + eps * phase for s in special for eps in OFFSETS for phase in (1, 1j, -1 - 1j)]
    return pts


def _predicates(k, problem):
    """(set label, predicate of omega) for the pencil at k (None: 2D)."""
    if k is None:
        return [("M+", lambda z: in_M2("+", z, problem)), ("M-", lambda z: in_M2("-", z, problem)),
                ("N", lambda z: in_N2(z, problem)[0])]
    return [("M+", lambda z: in_M("+", z, k, problem)), ("M-", lambda z: in_M("-", z, k, problem)),
            ("N", lambda z: in_N(z, k, problem))]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("medium", range(len(MEDIA)))
def test_predicates_read_the_record(medium, k):
    problem = MEDIA[medium]
    rng = np.random.default_rng(100 * medium + KS.index(k))
    predicates = _predicates(k, problem)
    seen = {"precondition": 0, "member": 0, "resolvent": 0}
    for z in _points(problem, k, rng):
        rec = classify2(z, problem) if k is None else classify(z, k, problem)
        if not rec.in_domain or rec.in_omega0:
            for _, holds in predicates:
                with pytest.raises(PreconditionError):
                    holds(z)
            seen["precondition"] += 1
            continue
        members = {part for m in rec.memberships()
                   for part in (("M+", "M-") if m == "M+-" else (m,))}
        assert {name for name, holds in predicates if holds(z)} == members, (z, k, rec.branch_note)
        seen["member" if members else "resolvent"] += 1
    assert all(seen.values()), seen


def test_bad_side_label_is_a_value_error():
    problem = MEDIA[0]
    with pytest.raises(ValueError):
        in_M("up", 0.5j, 3.0, problem)
    with pytest.raises(ValueError):
        in_M2("left", 0.5j, problem)
    assert in_M("plus", 3.0, 3.0, problem) == in_M("+", 3.0, 3.0, problem)
    assert in_M("minus", -0.9j, 3.0, problem) == in_M("-", -0.9j, 3.0, problem)
