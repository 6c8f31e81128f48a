"""_exp_kernels' blocked scan gives the index-loop recursions up to a stated rounding bound."""
import numpy as np
import pytest

from pencil_spectra.modes import bump
from pencil_spectra.resolvent import _SCAN_BLOCK, _exp_kernels, _gl_cell, _node_values


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
    (np.linspace(0.0, 11.0, 11001), 0.05 + 3j),   # Re mu h = 5e-5: |decay| near 1
])
def test_scan_matches_the_index_loops_to_rounding(xs, mu):
    """First-order bound: each rounded step of either recursion errs by a few eps of
    max |S| (|T|), the scan's block sums add up to _SCAN_BLOCK terms, and an error
    decays by |decay| per cell, so it persists over min(N, 1/(1 - |decay|)) cells.
    The largest measured ratio to the bound is below 0.1 (776 eps max |T| at 11,001
    nodes, Re mu h = 5e-5, f = e^(7ix), mu = 0.05 + 300i)."""
    fn = lambda x: (bump((np.abs(x) - 1.5) / 0.5) + np.exp(-x * x)) * (1 + 0.3j * x)
    S, T = _exp_kernels(xs, fn, mu)
    S_ref, T_ref = _loop_recursions(xs, fn, mu)
    decay = abs(np.exp(-mu * (xs[1] - xs[0])))
    reach = _SCAN_BLOCK + min(xs.size, 1.0 / (1.0 - decay))
    eps = np.finfo(float).eps
    assert np.abs(S - S_ref).max() <= 4.0 * eps * reach * np.abs(S_ref).max()
    assert np.abs(T - T_ref).max() <= 4.0 * eps * reach * np.abs(T_ref).max()
    assert S[-1] == 0 and T[0] == 0
