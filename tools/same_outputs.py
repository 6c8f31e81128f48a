"""Check that the working tree writes what a parent commit writes, on every benchmark invocation.

Usage (from the repository root):

    python3 tools/same_outputs.py --parent c608c1e

The parent and the working tree are exported as ``tools/bench_pairs.py``
exports them. Every invocation of every workload in ``perfbench/workloads.py``,
for seeds 1 and 2, runs once in each copy, as ``python -m
pencil_spectra.trace_cli ...`` with that copy's ``src`` on PYTHONPATH. The exit
codes, standard output and standard error are compared, with the timings
stripped from ``check`` lines, and so is every output file, byte for byte.
``check`` also runs at k away from the benchmark's (``EXTRA_CHECKS``, on the
``modes`` workload's configs; k = 0 runs the k = 0 paths of the resolvent and
the FD solve, k = 1e100 the FAIL lines of oracles that break down, k = 1e32 on
drude.cfg a Lanczos vector whose squares overflow), so that a rounding change in
an oracle there shows as well.
``eigen`` also runs at k up to 1e33 (``EXTRA_EIGENS``, on the same configs),
where the roots of the eigenvalue polynomial differ by some 30 orders of
magnitude, so that a change in the large-k root path shows as well.
``trace`` also runs on rational.cfg over a grid of |omega| ~ 1e52 at k = 1e52
(``EXTRA_TRACES``), where W-tilde overflows and almost every cell is decided
one at a time, so that a change in that per-point path shows as well.
``resolve`` also runs beyond the drawn cases (``EXTRA_RESOLVES``): at k = 0,
where the u1 columns of resolvent.csv are all zero, on the rational medium, at
h = 1e-4 (about 200k nodes, many chunks of the CSV writer), and with
``--support 2:1``, which ends in an ``error:`` line and exit 2. ``classify``,
a small ``trace``, a short ``eigen`` sweep and ``resolve`` also run on
``EXTRA_CONFIG``, whose top-level ``scale`` and Drude ``background`` beside a
rational side no benchmark config uses. ``--help`` and ``<command> --help`` of the
five subcommands also run (``HELP_RUNS``), so that a change to the parser shows as
well. Each difference is named, a differing
stdout or stderr with the count of its differing lines and then every differing
line pair, one per line; the exit status is 1 if there is any, else 0.
Temporary copies go under $TMPDIR.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))
from bench_pairs import export_parent, export_worktree  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
CHECK_TIMING = re.compile(r"^((?:PASS|FAIL) \S+) \(\d+(?:\.\d+)?s\)", re.MULTILINE)
EXTRA_CHECKS = (("drude.cfg", 0.0), ("drude.cfg", 0.5), ("drude.cfg", 1.0), ("drude.cfg", 10.0),
                ("drude.cfg", 1000.0), ("rational.cfg", 0.5), ("rational.cfg", 3.0),
                ("rational.cfg", 1000.0), ("rational.cfg", 1e100),
                ("drude.cfg", 1e32))   # (config of modes, k)
EXTRA_EIGENS = (("drude.cfg", "1e30:1e33:4"), ("rational.cfg", "1e30:1e33:4"))   # (config, --k)
EXTRA_TRACES = (("rational.cfg", "-2e52:2e52:81,-1e52:1e51:21", 1e52),)   # (config, --grid, k)
EXTRA_RESOLVES = (("drude.cfg", "0.2,0.7", 0.0, "1.0:2.0", 1e-3),
                  ("rational.cfg", "0.3,0.6", 3.0, "1.0:2.0", 1e-3),
                  ("drude.cfg", "0.0,0.75", 2.9, "-1.6:-0.8", 1e-4),
                  ("drude.cfg", "0.2,0.7", 3.0, "2:1", 1e-3))   # (config, omega, k, support, h)
EXTRA_CONFIG = """\
# a lossy Lorentz-type rational side against a Drude side with a background, both scaled
scale = 2.0

[plus]
kind = "rational"
numerator = [1, 0.3j, -4.0]
denominator = [1, 0.3j, -1.0]

[minus]
kind = "drude"
omega_p = 0.8
gamma = 1.0
background = 1.5
"""
EXTRA_CONFIG_RUNS = (["classify", "--omega=0.3,0.6", "--k", "2.0"],
                     ["trace", "--grid=-3:3:61,-1.5:0.5:21", "--k", "2.0", "--out", "trace"],
                     ["eigen", "--k", "0.5:4:8"],
                     ["resolve", "--omega=0.3,0.6", "--k", "2.0", "--support=1:2", "--h", "0.002",
                      "--out", "resolve"])
HELP_RUNS = (["--help"], *([command, "--help"]
                           for command in ("classify", "trace", "eigen", "resolve", "check")))


def run_all(copy: Path, work: Path) -> dict:
    """Run every invocation with copy's program, each workload and seed in its own
    directory under work, then EXTRA_CHECKS, EXTRA_EIGENS, EXTRA_TRACES and EXTRA_RESOLVES
    in one more, EXTRA_CONFIG_RUNS in another and HELP_RUNS in a last one; returns
    {label: (exit code, stdout without timings, stderr)}."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    results = {}

    def run(label, cwd, configs, argv):
        if not cwd.exists():
            cwd.mkdir(parents=True)
            for cfg, text in configs.items():
                (cwd / cfg).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "pencil_spectra.trace_cli", *argv],
                              cwd=cwd, env=env, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
        results[label] = (proc.returncode, CHECK_TIMING.sub(r"\1", proc.stdout), proc.stderr)

    for name, make in workloads.WORKLOADS.items():
        for seed in SEEDS:
            wl = make(seed)
            for inv in wl.invocations:
                run(f"{name} seed {seed} {inv.name}", work / f"{name}-seed{seed}",
                    wl.configs, inv.argv)
    configs = workloads.modes(SEEDS[0]).configs
    for cfg, k in EXTRA_CHECKS:
        run(f"check {cfg} k = {k!r}", work / "extra-checks", configs,
            ["check", "--config", cfg, "--k", repr(k)])
    for cfg, ks in EXTRA_EIGENS:
        run(f"eigen {cfg} k = {ks}", work / "extra-checks", configs,
            ["eigen", "--config", cfg, "--k", ks, "--out", f"eigen_{cfg[:-4]}"])
    for n, (cfg, grid, k) in enumerate(EXTRA_TRACES):
        run(f"trace {cfg} grid = {grid} k = {k!r}", work / "extra-checks", configs,
            ["trace", "--config", cfg, f"--grid={grid}", "--k", repr(k), "--out", f"trace_{n}"])
    for n, (cfg, omega, k, support, h) in enumerate(EXTRA_RESOLVES):
        run(f"resolve {cfg} omega = {omega} k = {k!r} h = {h!r}", work / "extra-checks",
            configs, ["resolve", "--config", cfg, f"--omega={omega}", "--k", repr(k),
                      f"--support={support}", "--h", repr(h), "--out", f"resolve_{n}"])
    for argv in EXTRA_CONFIG_RUNS:
        run(f"extra config {argv[0]}", work / "extra-config", {"extra.cfg": EXTRA_CONFIG},
            [argv[0], "--config", "extra.cfg", *argv[1:]])
    for argv in HELP_RUNS:
        run(" ".join(argv), work / "help", {}, argv)
    return results


def _line_differences(parent: str, change: str) -> str:
    """How many lines differ, then each as 'parent line' -> 'change line', one per line
    (<none> past the end)."""
    pairs = itertools.zip_longest(parent.splitlines(), change.splitlines(), fillvalue="<none>")
    lines = [f"    {a!r} -> {b!r}" for a, b in pairs if a != b]
    return "\n".join([f"{len(lines)} line(s)" if lines else "line endings", *lines])


def differences(parent: Path, change: Path, runs: dict) -> list:
    """Each exit code, stdout, stderr or output file that is not the same on both sides."""
    old, new = runs["parent"], runs["change"]
    out = [f"{label}: exit code {old[label][0]} -> {new[label][0]}"
           for label in old if old[label][0] != new[label][0]]
    for i, stream in ((1, "stdout"), (2, "stderr")):
        out += [f"{label}: {stream}: {_line_differences(old[label][i], new[label][i])}"
                for label in old if old[label][i] != new[label][i]]
    files = {side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    for rel in sorted(files["parent"] ^ files["change"]):
        out.append(f"{rel}: written only by the {'parent' if rel in files['parent'] else 'change'}")
    for rel in sorted(files["parent"] & files["change"]):
        if (parent / rel).read_bytes() != (change / rel).read_bytes():
            out.append(f"{rel}: bytes")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        copies = {"parent": tmp / "parent", "change": tmp / "change"}
        for copy in copies.values():
            copy.mkdir()
        export_parent(args.parent, copies["parent"])
        export_worktree(copies["change"])
        runs = {side: run_all(copy, tmp / f"out-{side}") for side, copy in copies.items()}
        diffs = differences(tmp / "out-parent", tmp / "out-change", runs)
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(runs['parent'])} invocations (seeds {', '.join(map(str, SEEDS))}, "
          f"{len(EXTRA_CHECKS)} extra checks, {len(EXTRA_EIGENS)} extra eigen sweeps, "
          f"{len(EXTRA_TRACES)} extra traces, "
          f"{len(EXTRA_RESOLVES)} extra resolves, "
          f"{len(EXTRA_CONFIG_RUNS)} runs on the extra config, "
          f"{len(HELP_RUNS)} help texts): "
          + (f"{len(diffs)} difference(s)" if diffs else "no difference"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
