"""Every record the classifier can return satisfies the flag invariants: the reduced
records of both pencils, the record of S, and every outcome of the exceptional-set
case table. SpectrumClass flags default to False, so a record that forgets a flag
would otherwise go unnoticed; the random points of the acceptance suite rarely
reach the table's rarer branches (exceptional/pt-finite)."""
import itertools

import pytest

from pencil_spectra.classify1d import OUTSIDE, REDUCED, _classify_omega0
from pencil_spectra.complex_numerics import DEFAULT_TOL
from pencil_spectra.dielectric import Omega0Point
from tests.test_classify1d import check_flag_invariants


@pytest.mark.parametrize("dim", [1, 2])
def test_every_reduced_record_keeps_the_invariants(dim):
    for rec in REDUCED[dim]:
        assert rec.in_domain and not rec.in_omega0
        check_flag_invariants(rec)


def test_the_record_of_s_keeps_the_invariants():
    assert not OUTSIDE.in_domain
    check_flag_invariants(OUTSIDE)


def test_every_exceptional_table_outcome_keeps_the_invariants():
    notes = {}
    values = [0.0, 1.0, -1.0, 2.0, 9.0]
    for k in (None, 0.0, 3.0):
        notes[k] = set()
        for tags in itertools.product([False, True], repeat=4):
            pt = Omega0Point(0j, *tags)
            for vals in itertools.product(values, repeat=4):
                for exact_hit in (False, True):
                    rec = _classify_omega0(vals, k, pt, DEFAULT_TOL, exact_hit)
                    assert rec.in_domain and rec.in_omega0, (k, tags, vals)
                    check_flag_invariants(rec)
                    notes[k].add(rec.branch_note)
    assert len(notes[3.0]) >= 6
    assert "exceptional/pt-finite" in notes[3.0]
