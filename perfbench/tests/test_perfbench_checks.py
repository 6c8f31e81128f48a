"""The benchmark's own tests: no output check passes by default, the generator
holds the work fixed, and the traced run survives a removed function.

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def cli(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pencil_spectra.trace_cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def drude_cfg(tmp_path):
    (tmp_path / "drude.cfg").write_text(workloads.DRUDE_LOSSY.config_text())
    return tmp_path


def small_portrait(tmp_path):
    inv = workloads._portrait_case(random.Random(7), "p", "drude.cfg", workloads.DRUDE_LOSSY,
                                   1, 3.0, 41, 0.2, 21, 1 / 16, 16)
    return inv, cli(inv.argv, tmp_path)


def test_portrait_check_passes_then_fails_on_corruption(drude_cfg):
    inv, stdout = small_portrait(drude_cfg)
    out = str(drude_cfg / "p")
    assert inv.check(stdout, out) == []

    csv_path = drude_cfg / "p" / "portrait.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    j0 = 16 * 41                               # first cell of the real-axis row
    m_plus = next(i for i in range(j0, j0 + 41) if ",M+," in lines[1 + i])
    corrupted = list(lines)
    corrupted[1 + m_plus] = corrupted[1 + m_plus].replace(",M+,", ",resolvent,")
    csv_path.write_text("".join(corrupted))
    assert inv.check(stdout, out)

    csv_path.write_text("".join(lines[:-1]))   # a missing row
    assert inv.check(stdout, out)

    s_row = next(i for i, line in enumerate(lines) if ",S," in line)
    moved = list(lines)
    moved[s_row] = moved[s_row].replace(",S,", ",resolvent,")
    csv_path.write_text("".join(moved))
    assert inv.check(stdout, out)


def test_shifted_plasmon_root_fails(tmp_path):
    (tmp_path / "rational.cfg").write_text(workloads.THREE_POLE_PAIRS.config_text())
    cli(["eigen", "--config", "rational.cfg", "--k", "1:2:3", "--out", "e"], tmp_path)
    ks = np.linspace(1.0, 2.0, 3)
    problem = workloads.THREE_POLE_PAIRS
    assert checks.check_eigen("", str(tmp_path / "e"), problem, ks) == []

    path = tmp_path / "e" / "modes.csv"
    lines = path.read_text().splitlines(keepends=True)
    f = lines[1].split(",")
    f[2] = repr(float(f[2]) + 1e-6)
    path.write_text("".join([lines[0], ",".join(f)] + lines[2:]))
    assert checks.check_eigen("", str(tmp_path / "e"), problem, ks)

    path.write_text("".join(lines[:1] + lines[2:]))   # a dropped mode
    assert checks.check_eigen("", str(tmp_path / "e"), problem, ks)


def test_fail_line_fails():
    good = "\n".join(f"PASS suite-{i} (1.0s): ok" for i in range(4)) + "\n"
    assert checks.check_suites(good, ".") == []
    assert checks.check_suites(good.replace("PASS suite-2", "FAIL suite-2"), ".")
    assert checks.check_suites("\n".join(good.splitlines()[:3]), ".")
    assert checks.check_suites("", ".")


def test_resolve_checks_fail_on_a_perturbed_field(drude_cfg):
    omega, k, support, h = 0.5j, 3.0, (1.0, 2.0), 0.002
    n = workloads.resolve_node_count(workloads.DRUDE_LOSSY, omega, k, 2.0, h)
    stdout = cli(["resolve", "--config", "drude.cfg", "--omega=0,0.5", "--k", "3",
                  "--support=1:2", "--h", repr(h), "--out", "r"], drude_cfg)
    args = dict(problem=workloads.DRUDE_LOSSY, omega=omega, k=k, support=support, h=h,
                n_nodes=n)
    assert checks.check_resolve(stdout, str(drude_cfg / "r"), **args) == []
    worse = re.sub(r"ode residual \(rel\) = \S+", "ode residual (rel) = 1.0e-02", stdout)
    assert checks.check_resolve(worse, str(drude_cfg / "r"), **args)

    path = drude_cfg / "r" / "resolvent.csv"
    lines = path.read_text().splitlines(keepends=True)
    mid = len(lines) * 3 // 4                  # a node inside the rhs support
    f = lines[mid].rstrip("\n").split(",")
    f[5] = repr(float(f[5]) * 1.01 + 1e-6)
    lines[mid] = ",".join(f) + "\n"
    path.write_text("".join(lines))
    assert checks.check_resolve(stdout, str(drude_cfg / "r"), **args)


def test_classify_check_requires_resolvent():
    line = "csv: 0,0.5,{},reduced/{},1,0\n"
    assert checks.check_classify_resolvent(line.format("resolvent", "resolvent"), ".") == []
    assert checks.check_classify_resolvent(line.format("M+", "M+"), ".")
    assert checks.check_classify_resolvent("", ".")


def test_generator_holds_work_fixed():
    for seed in range(6):
        wl = workloads.resolve(seed)
        for name, note in wl.notes.items():
            lo, hi = workloads.RESOLVE_N_BAND
            assert lo <= note["N"] <= hi
        assert [inv.argv for inv in wl.invocations] == \
            [inv.argv for inv in workloads.resolve(seed).invocations]
        grids = [a for inv in workloads.portrait(seed).invocations for a in inv.argv
                 if a.startswith("--grid=")]
        assert [g.count(":") for g in grids] == [4, 4, 4]
        assert [g.rsplit(":", 1)[1] for g in grids] == ["200", "105", "100"]
        sweep = workloads.modes(seed).invocations[0].argv
        assert sweep[sweep.index("--k") + 1].endswith(f":{workloads.EIGEN_SWEEP_LEN}")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_a_removed_function_as_missing():
    code = ("import traced_cli, pencil_spectra.trace_cli as c; del c._m_minus_boundary; "
            "t = traced_cli.Tracer(0); traced_cli.install(t); print(t.missing)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "trace_cli._m_minus_boundary" in proc.stdout

    doc = {"agg": [], "counts": {}, "cache": {"hits": 0, "misses": 0},
           "missing": ["trace_cli._m_minus_boundary"], "spans": [],
           "import": {"s": 0.1, "modules": 1, "scipy_loaded": False}}
    metrics, missing = layers.per_layer([doc], layers.cell_counts([]), 0, 1.0, 1.0)
    assert missing == ["trace_cli.m_minus_boundary.self_s"]
    assert metrics["trace.missing"] == 1
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
