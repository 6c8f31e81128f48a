"""pencil-spectra benchmark: CLI wall time on three workloads, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each invocation is a real ``python -m pencil_spectra.trace_cli ...`` in a fresh
interpreter, run one at a time from this process (a closed loop with one
client). ``--trace 0`` repeats the workload's invocation sequence for about
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1`` runs
the sequence once plain and once under ``traced_cli.py`` and reports the
per-layer metrics. Every output is checked independently (``checks.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_STARTS = 5           # cold starts per run for setup_s (after one warm-up)
INVOCATION_TIMEOUT = 150.0
SETUP_CODE = ("import sys, pencil_spectra.trace_cli; "
              "from pencil_spectra.config import load_problem; load_problem(sys.argv[1])")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Proc:
    """One finished child process as the closed loop saw it."""

    wall: float
    cpu: float
    rss_mb: float
    rc: int
    timed_out: bool
    stdout: str
    stderr: str


def spawn(argv, cwd: Path, env: dict, timeout: float = INVOCATION_TIMEOUT) -> Proc:
    """Run argv to completion; wall from spawn to reap, CPU and max RSS from wait4."""
    out, err = cwd / ".stdout", cwd / ".stderr"
    fired = threading.Event()
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
                rc=proc.returncode, timed_out=fired.is_set(),
                stdout=out.read_text(), stderr=err.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _hash_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class Runner:
    """Runs one workload's invocation sequences and keeps the tallies of a run."""

    def __init__(self, wl: workloads.Workload, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = {}
        self.rss_mb = 0.0
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in wl.configs.items():
            (workdir / name).write_text(text)

    def _record(self, label: str, proc: Proc, problems: list) -> None:
        self.attempted += 1
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        if proc.timed_out:
            problems = [f"timed out after {INVOCATION_TIMEOUT:.0f} s"] + problems
        elif proc.rc != 0:
            problems = [f"exit code {proc.rc}: {proc.stderr.strip()[-300:]}"] + problems
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def cold_start(self) -> float:
        """Wall of a fresh interpreter up to import + load_problem, no computation."""
        argv = [sys.executable, "-c", SETUP_CODE, self.wl.setup_config]
        proc = spawn(argv, self.workdir, self.env)
        self._record("setup", proc, [])
        return proc.wall

    def setup_time(self) -> float:
        """Median of SETUP_STARTS cold starts, after one that warms caches and byte code."""
        self.cold_start()
        return statistics.median(self.cold_start() for _ in range(SETUP_STARTS))

    def sequence(self, traced_dir: Path | None = None):
        """Run every invocation once; returns (sum of walls, sum of CPU, trace docs)."""
        wall = cpu = 0.0
        docs = []
        for idx, inv in enumerate(self.wl.invocations):
            if inv.out:
                shutil.rmtree(self.workdir / inv.out, ignore_errors=True)
            if traced_dir is None:
                argv = [sys.executable, "-m", "pencil_spectra.trace_cli", *inv.argv]
            else:
                trace_file = traced_dir / f"{idx}.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file),
                        str(idx), *inv.argv]
            proc = spawn(argv, self.workdir, self.env)
            wall += proc.wall
            cpu += proc.cpu
            problems = []
            if proc.rc == 0 and not proc.timed_out:
                problems = self._check(inv, proc)
            if traced_dir is not None and trace_file.exists():
                docs.append(json.loads(trace_file.read_text()))
            self._record(inv.name, proc, problems)
        return wall, cpu, docs

    def _check(self, inv, proc: Proc) -> list:
        out_dir = self.workdir / inv.out if inv.out else self.workdir
        try:
            problems = list(inv.check(proc.stdout, str(out_dir)))
        except Exception as exc:   # a malformed output is a failed invocation
            return [f"check raised {type(exc).__name__}: {exc}"]
        if inv.out and (self.workdir / inv.out).is_dir():
            digest = _hash_dir(self.workdir / inv.out)
            first = self.hashes.setdefault(inv.name, digest)
            if digest != first:
                problems.append("outputs differ from an earlier repeat of the same seed")
        return problems


def environment() -> dict:
    """Machine and versions recorded with every result."""
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or the environment's setting."""
    import numpy  # noqa: F401  (loads the BLAS library whose setting is read)
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(wl, workdir)
    try:
        result = _traced(runner) if trace else _timed(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=name, seed=seed, notes=wl.notes, env=environment(),
                  attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    return result


def _timed(runner: Runner, seconds: float) -> dict:
    setup = runner.setup_time()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, cpu, _ = runner.sequence()
        walls.append(wall)
        cpus.append(cpu)
        cost = time.perf_counter() - t0
        if time.perf_counter() - start + cost > seconds:
            break
    q1, med, q3 = quartiles(walls)
    return {
        "metrics": {"wall_s": med, "setup_s": setup, "peak_rss_mb": runner.rss_mb},
        "sequences": len(walls),
        "wall_quartiles": [q1, med, q3],
        "sequence_walls": walls,
        "cpu_s": statistics.median(cpus),
    }


def _traced(runner: Runner) -> dict:
    runner.cold_start()
    plain_wall, _, _ = runner.sequence()
    traced_dir = runner.workdir / "_trace"
    traced_dir.mkdir()
    traced_wall, _, docs = runner.sequence(traced_dir)
    notes, out_bytes = [], 0
    for inv in runner.wl.invocations:
        if not inv.out:
            continue
        out_dir = runner.workdir / inv.out
        out_bytes += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        csv_path = out_dir / "portrait.csv"
        if csv_path.exists():
            notes += [row[3] for row in checks.read_portrait(csv_path)[1]]
    metrics, missing = layers.per_layer(docs, layers.cell_counts(notes), out_bytes,
                                        traced_wall, plain_wall)
    spans = [span for doc in docs for span in doc["spans"]]
    return {"metrics": metrics, "missing": missing, "spans": spans,
            "top_self_s": layers.top_self_times(docs)}


def report(result: dict, trace: bool) -> None:
    """Human-readable lines for one workload (everything before the JSON line)."""
    name, m = result["workload"], result["metrics"]
    fail_frac = result["failed"] / max(result["attempted"], 1)
    print(f"== {name} (seed {result['seed']}): closed loop, one client, "
          f"{result['attempted']} invocations")
    if trace:
        units = dict(layers.PER_LAYER)
        for key, value in m.items():
            print(f"  {key:42s} {value:.6g} {units[key]}")
        print("  largest self times: " + ", ".join(f"{n} {s:.3f} s"
                                                   for n, s in result["top_self_s"]))
        if result["missing"]:
            print(f"  missing (wrapped function no longer exists): {result['missing']}")
    else:
        q1, _, q3 = result["wall_quartiles"]
        print(f"  wall_s      {m['wall_s']:.4f} s   median of {result['sequences']} "
              f"sequences (q1 {q1:.4f}, q3 {q3:.4f}); with 22 runs per workload the "
              f"median is the only percentile with ten samples beyond it")
        print(f"  setup_s     {m['setup_s']:.4f} s   median of {SETUP_STARTS} cold starts")
        print(f"  peak_rss_mb {m['peak_rss_mb']:.1f} MB  largest child max-RSS")
        print(f"  fail_frac   {fail_frac:.4g} frac ({result['failed']}/{result['attempted']})")
        print(f"  proc.cpu_s  {result['cpu_s']:.4f} s   child CPU per sequence "
              f"(diagnostic, not gated)")
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")
    print(f"  env {json.dumps(result['env'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pencil_spectra" / "trace_cli.py").is_file():
        print(f"error: no pencil_spectra sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(res, bool(args.trace))
        results.append(res)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(res, indent=1, default=str))

    units = dict(layers.PER_LAYER) if args.trace else dict(END_TO_END)
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + key: {"value": value,
                                                               "unit": units[key]}
               for r in results for key, value in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
