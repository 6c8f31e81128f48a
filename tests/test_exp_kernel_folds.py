"""_exp_kernels' two folds give the bits of the index loops they are written as."""
import numpy as np
import pytest

from pencil_spectra.modes import bump
from pencil_spectra.resolvent import _exp_kernels, _gl_cell, _node_values


def _loop_recursions(xs, fn, mu):
    """The same moments as _exp_kernels, recursed by index loops into lists."""
    offs, wq = _gl_cell()
    h = xs[1] - xs[0]
    vals = _node_values(xs[:-1], h, fn)
    tloc = h * offs
    m_s = (vals * (wq * np.exp(-mu * tloc) * h)).sum(axis=1).tolist()
    m_t = (vals * (wq * np.exp(mu * (tloc - h)) * h)).sum(axis=1).tolist()
    decay = complex(np.exp(-mu * h))
    n = xs.size
    S, T = [0j] * n, [0j] * n
    acc = 0j
    for j in range(n - 2, -1, -1):
        acc = m_s[j] + decay * acc
        S[j] = acc
    acc = 0j
    for j in range(n - 1):
        acc = decay * acc + m_t[j]
        T[j + 1] = acc
    return np.array(S), np.array(T)


@pytest.mark.parametrize("xs, mu", [
    (np.linspace(0.0, 6.0, 601), 2.1 - 0.7j),
    (np.linspace(-6.0, 0.0, 601), 0.3 + 1.9j),
    (np.linspace(0.0, 1.0, 2), 1.0 + 0j),
])
def test_folds_match_the_index_loops_bit_for_bit(xs, mu):
    fn = lambda x: (bump((np.abs(x) - 1.5) / 0.5) + np.exp(-x * x)) * (1 + 0.3j * x)
    S, T = _exp_kernels(xs, fn, mu)
    S_ref, T_ref = _loop_recursions(xs, fn, mu)
    assert S.tobytes() == S_ref.tobytes() and T.tobytes() == T_ref.tobytes()
