"""Classification invariants exactly on and around the delicate sets.

Generic random fuzz almost never lands on the exceptional set, the pole set,
or the ray endpoints; this sweep targets them directly, including offsets
that straddle the proximity tolerances.
"""

import numpy as np

from pencil_spectra import (
    DielectricModel,
    InterfaceProblem,
    classify,
    omega0_set,
    singular_points,
)
from pencil_spectra.classify1d import classify2
from tests.test_classify1d import check_flag_invariants

PROBLEMS = [
    InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 1.0)),
    InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.8, 0.0)),
    InterfaceProblem(DielectricModel.constant(2.0), DielectricModel.drude(0.6, 2.0)),
    InterfaceProblem(DielectricModel.rational([1, -1], [1]), DielectricModel.constant(1.0)),
    InterfaceProblem(DielectricModel.constant(1.0), DielectricModel.constant(-1.0)),
]
OFFSETS = (0.0, 1e-14, 1e-11, 9e-11, 1.1e-10, 1e-9, 1e-6, 1e-3)
PHASES = (1, -1, 1j, -1j, 0.6 + 0.8j)


def test_boundary_sweep():
    count = 0
    for prob in PROBLEMS:
        targets = [p.omega for p in omega0_set(prob)] + list(singular_points(prob))
        for k in (0.0, 0.7, 3.0):
            for t in targets:
                for eps in OFFSETS:
                    for phase in PHASES:
                        z = t + eps * phase
                        check_flag_invariants(classify(z, k, prob))
                        check_flag_invariants(classify2(z, prob))
                        count += 2
            for x in np.linspace(-5, 5, 201):
                check_flag_invariants(classify(complex(x), k, prob))
                count += 1
            for s in np.linspace(-2.5, 1.0, 151):
                check_flag_invariants(classify(complex(0, s), k, prob))
                count += 1
    assert count > 8000


def test_exact_ray_endpoints():
    prob = PROBLEMS[0]
    for k in (0.7, 3.0):
        edge = (k * k / 2.0) ** 0.5
        for z in (edge, edge + 1e-12, edge - 1e-12, -edge, complex(edge, 1e-12)):
            check_flag_invariants(classify(z, k, prob))
        assert classify(edge, k, prob).weyl           # endpoint belongs to the closed ray
        assert classify(edge - 1e-3, k, prob).resolvent
