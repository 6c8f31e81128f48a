"""Seeded workload generator for the pencil-spectra benchmark.

Each workload is a list of CLI invocations (argv after
``python -m pencil_spectra.trace_cli``) plus the config files they read and an
independent check for each invocation's output. The seed moves the inputs
(window offsets under one cell, k, omega, rhs supports, sweep endpoints); it
never moves the amount of work: grid sizes, h and the sweep length are fixed,
and every resolvent solve's node count is held inside a narrow band computed
from the closed-form decay rate.

The media are described here a second time, in closed form, so that the
checks in ``checks.py`` never go through the program's own classification or
root finding.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import checks

TWO_PI = 2.0 * math.pi

# resolve: fixed spacing and a node-count band (about +-1%) around 21.2k nodes
RESOLVE_H = 1.0 / 1000.0
RESOLVE_N_BAND = (21000, 21400)
EIGEN_SWEEP_LEN = 400
CHECK_K = 3.0


# ---------------------------------------------------------------------------
# closed-form media
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Medium:
    """W~(omega) = num/den (descending coefficients) and its pole set."""

    section: str        # body of the config section
    num: tuple
    den: tuple
    poles: tuple

    def wt(self, z):
        return np.polyval(self.num, z) / np.polyval(self.den, z)


def constant(value: float) -> Medium:
    return Medium(f'kind = "constant"\nvalue = {value!r}\n', (complex(value),), (1 + 0j,), ())


def drude(omega_p: float, gamma: float) -> Medium:
    """background 1: W~ = 1 - 2 pi omega_p^2 / (omega^2 + i gamma omega); poles 0, -i gamma."""
    num = (1 + 0j, 1j * gamma, complex(-TWO_PI * omega_p**2))
    den = (1 + 0j, 1j * gamma, 0j)
    poles = (0j, -1j * gamma) if gamma > 0 else (0j,)
    return Medium(f'kind = "drude"\nomega_p = {omega_p!r}\ngamma = {gamma!r}\n', num, den, poles)


def lorentz(oscillators) -> Medium:
    """W~ = 1 - sum_j f_j / (omega^2 + i g_j omega - w_j^2), written as one rational."""
    quads = [np.array([1.0, 1j * g, -w0 * w0], dtype=complex) for w0, g, _ in oscillators]
    den = np.array([1 + 0j])
    for q in quads:
        den = np.polymul(den, q)
    num = den.copy()
    for j, (_, _, f) in enumerate(oscillators):
        rest = np.array([1 + 0j])
        for i, q in enumerate(quads):
            if i != j:
                rest = np.polymul(rest, q)
        num = np.polysub(num, f * rest)
    poles = []
    for w0, g, _ in oscillators:
        disc = cmath.sqrt(4 * w0 * w0 - g * g)
        poles += [(-1j * g + disc) / 2, (-1j * g - disc) / 2]
    num_t, den_t = tuple(complex(c) for c in num), tuple(complex(c) for c in den)
    section = (f'kind = "rational"\nnumerator = {list(num_t)!r}\n'
               f'denominator = {list(den_t)!r}\n')
    return Medium(section, num_t, den_t, tuple(poles))


@dataclass(frozen=True)
class Problem:
    """The (plus, minus) pair with its finite sets computed in closed form."""

    plus: Medium
    minus: Medium

    def config_text(self) -> str:
        return f"[plus]\n{self.plus.section}\n[minus]\n{self.minus.section}"

    def w(self, z):
        return z * z * self.plus.wt(z), z * z * self.minus.wt(z)

    def poles(self) -> list:
        return _dedupe(list(self.plus.poles) + list(self.minus.poles))

    def omega0(self) -> list:
        """Zeros of W_+ or W_- off the pole set: omega = 0 and the numerator roots."""
        poles = self.poles()
        cands = [0j]
        for m in (self.plus, self.minus):
            if len(m.num) > 1:
                cands += [complex(z) for z in np.roots(m.num)]
        return [z for z in _dedupe(cands) if _dist(z, poles) > 1e-8]

    def mu(self, z, k):
        """Principal decay rates sqrt(k^2 - W_pm) with Re >= 0."""
        return tuple(_principal_sqrt(k * k - wv) for wv in self.w(z))

    def plasmons(self, k: float) -> list:
        """N^(k): roots of k^2 (n+ d- + n- d+) - omega^2 n+ n- that decay on both
        sides and satisfy the unsquared identity W~+ mu- + W~- mu+ = 0."""
        p, m = self.plus, self.minus
        cross = np.polyadd(np.polymul(p.num, m.den), np.polymul(m.num, p.den))
        q = np.polysub(k * k * cross, np.polymul([1, 0, 0], np.polymul(p.num, m.num)))
        avoid = self.poles() + self.omega0()
        out = []
        for z in np.roots(q):
            z = complex(z)
            if _dist(z, avoid) <= 1e-7:
                continue
            mu_p, mu_m = self.mu(z, k)
            if min(mu_p.real, mu_m.real) <= 1e-9:
                continue
            a, b = p.wt(z) * mu_m, m.wt(z) * mu_p
            if abs(a + b) <= 1e-6 * (abs(a) + abs(b)):
                out.append(z)
        return out


def _principal_sqrt(z: complex) -> complex:
    a = cmath.sqrt(complex(z))
    return -a if (a.real < 0 or (a.real == 0 and a.imag < 0)) else a


def _dist(z, points) -> float:
    return min((abs(z - p) for p in points), default=math.inf)


def _dedupe(points, eps=1e-8) -> list:
    out = []
    for z in points:
        if _dist(z, out) > eps:
            out.append(z)
    return out


DRUDE_LOSSY = Problem(constant(2.0), drude(0.8, 1.0))
GUIDED_2D = Problem(constant(2.0), drude(0.6, 2.0))
THREE_POLE_PAIRS = Problem(constant(2.0), lorentz([(0.8, 0.3, 1.0), (1.6, 0.4, 1.5),
                                                   (2.6, 0.5, 2.0)]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """One CLI run: argv after the module name, and a check of its output.

    ``check(stdout, out_dir)`` returns a list of problems (empty when correct).
    ``out`` names the output directory passed with --out, if any.
    """

    name: str
    argv: list
    check: object
    out: str | None = None


@dataclass
class Workload:
    name: str
    configs: dict                      # file name -> text
    invocations: list
    setup_config: str                  # config loaded by the setup_s cold starts
    notes: dict = field(default_factory=dict)


def _portrait_case(rng, name, cfg, problem, dim, k, nx, dx, ny, dy, j_zero):
    """A trace whose imaginary axis holds the real-axis row exactly (dyadic steps),
    with its real window shifted by a seeded fraction of one cell."""
    re0, im0 = -(nx // 2 + rng.random()) * dx, -j_zero * dy
    spec = ((re0, re0 + (nx - 1) * dx, nx), (im0, im0 + (ny - 1) * dy, ny))
    grid = ",".join(f"{a!r}:{b!r}:{n}" for a, b, n in spec)
    argv = ["trace", "--config", cfg, f"--grid={grid}", "--out", name]
    argv += ["--k", repr(k)] if dim == 1 else ["--dim", "2"]
    check = partial(checks.check_portrait, problem=problem, spec=spec, dim=dim, k=k)
    return Invocation(name, argv, check, out=name)


def portrait(seed: int) -> Workload:
    rng = random.Random(1000 + seed)
    k_c = round(rng.uniform(2.5, 3.5), 6)
    invs = [
        _portrait_case(rng, "trace_drude", "drude.cfg", DRUDE_LOSSY, 1, 3.0,
                       400, 5 / 256, 200, 1 / 128, 150),
        _portrait_case(rng, "trace_guided2d", "guided.cfg", GUIDED_2D, 2, None,
                       121, 3 / 64, 105, 3 / 128, 88),
        _portrait_case(rng, "trace_rational", "rational.cfg", THREE_POLE_PAIRS, 1, k_c,
                       200, 5 / 128, 100, 1 / 64, 75),
    ]
    configs = {"drude.cfg": DRUDE_LOSSY.config_text(),
               "guided.cfg": GUIDED_2D.config_text(),
               "rational.cfg": THREE_POLE_PAIRS.config_text()}
    return Workload("portrait", configs, invs, "drude.cfg", {"k_rational": k_c})


def resolve_node_count(problem: Problem, omega, k, edge, h=RESOLVE_H) -> int:
    """Grid size the CLI will pick: L = edge + 27.7/min Re mu, rounded up to h."""
    alpha = min(m.real for m in problem.mu(omega, k))
    m = round(math.ceil((edge + 27.7 / alpha) / h) * h / h)
    return 2 * m + 2


def draw_resolve_case(rng, problem: Problem = DRUDE_LOSSY, max_tries: int = 100000):
    """(k, omega, support, N): omega well inside the resolvent set, N in the band."""
    for _ in range(max_tries):
        k = round(rng.uniform(2.5, 3.6), 6)
        omega = complex(round(rng.uniform(-0.6, 0.6), 6), round(rng.uniform(0.3, 0.9), 6))
        a, width = round(rng.uniform(0.5, 1.5), 4), round(rng.uniform(0.5, 1.0), 4)
        support = (a, a + width) if rng.random() < 0.5 else (-a - width, -a)
        if min(m.real for m in problem.mu(omega, k)) < 0.05:
            continue            # on or near an essential ray
        if _dist(omega, problem.poles() + problem.omega0() + problem.plasmons(k)) < 0.05:
            continue            # on or near S, Omega_0 or N
        n = resolve_node_count(problem, omega, k, max(abs(support[0]), abs(support[1])))
        if RESOLVE_N_BAND[0] <= n <= RESOLVE_N_BAND[1]:
            return k, omega, support, n
    raise RuntimeError("no resolve case inside the node-count band")


def resolve(seed: int) -> Workload:
    rng = random.Random(2000 + seed)
    invs = []
    notes = {}
    for i in range(3):
        k, omega, support, n = draw_resolve_case(rng)
        om = f"{omega.real!r},{omega.imag!r}"
        invs.append(Invocation(f"classify_{i}", ["classify", "--config", "drude.cfg",
                                                 f"--omega={om}", "--k", repr(k)],
                               checks.check_classify_resolvent))
        name = f"resolve_{i}"
        argv = ["resolve", "--config", "drude.cfg", f"--omega={om}", "--k", repr(k),
                f"--support={support[0]!r}:{support[1]!r}", "--h", repr(RESOLVE_H),
                "--out", name]
        check = partial(checks.check_resolve, problem=DRUDE_LOSSY, omega=omega, k=k,
                        support=support, h=RESOLVE_H, n_nodes=n)
        invs.append(Invocation(name, argv, check, out=name))
        notes[name] = {"k": k, "omega": [omega.real, omega.imag], "support": support, "N": n}
    return Workload("resolve", {"drude.cfg": DRUDE_LOSSY.config_text()}, invs,
                    "drude.cfg", notes)


def modes(seed: int) -> Workload:
    rng = random.Random(3000 + seed)
    k0, k1 = round(rng.uniform(0.4, 0.8), 6), round(rng.uniform(5.5, 6.5), 6)
    ks = np.linspace(k0, k1, EIGEN_SWEEP_LEN)
    invs = [
        Invocation("eigen_rational", ["eigen", "--config", "rational.cfg",
                                      "--k", f"{k0!r}:{k1!r}:{EIGEN_SWEEP_LEN}",
                                      "--out", "eigen_rational"],
                   partial(checks.check_eigen, problem=THREE_POLE_PAIRS, ks=ks),
                   out="eigen_rational"),
        Invocation("check_drude", ["check", "--config", "drude.cfg", "--k", repr(CHECK_K)],
                   checks.check_suites),
    ]
    configs = {"rational.cfg": THREE_POLE_PAIRS.config_text(),
               "drude.cfg": DRUDE_LOSSY.config_text()}
    return Workload("modes", configs, invs, "rational.cfg", {"k_sweep": [k0, k1]})


WORKLOADS = {"portrait": portrait, "resolve": resolve, "modes": modes}
