"""Benchmark a parent commit against the working tree in alternating pairs; write BENCH_*.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent e9bfa21 --out BENCH_pr12.json --claim modes:wall_s

The parent is exported with ``git archive`` into a temporary directory, and the
change is a copy of the files git would commit from the working tree (tracked
and untracked, not ignored), so both sides run from fresh directories with the
same layout. For every workload in ``BENCHMARK.json`` and every seed 1..10,
``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` runs once in
each copy, the parent first on odd seeds and the change first on even ones.
Then ``--workload all --seed 1 --trace 1`` runs once in each copy for the
per-layer numbers. The output file holds every pair, and per workload and
end-to-end metric the medians and quartiles of both sides (as
``perfbench/summarize.py`` computes them), the pairs the change won, the
parent's interquartile range and the median gap. A markdown table of the
summary is printed at the end. Temporary copies go under $TMPDIR.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.summarize import summarize as perfbench_summary  # noqa: E402

PAIRS, SECONDS = 10, 30.0   # the protocol: ten alternating pairs of 30 s runs per workload


def git(*args, binary=False):
    out = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout
    return out if binary else out.decode().strip()


def export_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, binary=True))) as tar:
        tar.extractall(dest, filter="data")


def export_worktree(dest: Path) -> None:
    listing = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", binary=True)
    for name in filter(None, listing.decode().split("\0")):
        src = ROOT / name
        if src.is_file():   # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run(copy: Path, workload: str, seed: int, trace: int) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
                   cwd=copy, env=env, check=True, stdout=subprocess.DEVNULL)


def results_dir(copy: Path) -> Path:
    return copy / ".perfbench_out" / "results"


def result(copy: Path, workload: str, seed: int, trace: int) -> dict:
    return json.loads((results_dir(copy) / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summarize(pairs: list, metrics: dict, sides: dict) -> dict:
    """Per metric: both sides' quartiles (from perfbench/summarize.py), pairs the change
    won, relative median change."""
    out = {}
    for name, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
        ties = sum(p["parent"][name] == p["change"][name] for p in pairs)
        parent, change = ({q: sides[s][name][q] for q in ("median", "q1", "q3")}
                          for s in ("parent", "change"))
        out[name] = {
            "parent": parent, "change": change,
            "change_better_pairs": won, "ties": ties,
            "median_change_frac": change["median"] / parent["median"] - 1.0,
            "parent_iqr": parent["q3"] - parent["q1"],
            "median_gap": abs(change["median"] - parent["median"]),
        }
    out["attempted"] = {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")}
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
    return out


def table(workloads: dict, units: dict) -> str:
    rows = ["| workload | metric | parent | change | change | change better |",
            "|---|---|---|---|---|---|"]
    for wl, doc in workloads.items():
        for name, s in doc["summary"].items():
            if name in units:
                p, c, u = s["parent"], s["change"], units[name]
                rows.append(f"| {wl} | {name} | {p['median']:.3f} ({p['q1']:.3f}-{p['q3']:.3f})"
                            f" {u} | {c['median']:.3f} ({c['q1']:.3f}-{c['q3']:.3f}) {u} | "
                            f"{100 * s['median_change_frac']:+.1f}% | "
                            f"{s['change_better_pairs']}/{len(doc['pairs'])} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--out", required=True, help="output JSON file, e.g. BENCH_pr12.json")
    ap.add_argument("--claim", default=None, help="workload:metric the change claims to improve")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    doc = {
        "what": ("perfbench/run.py end-to-end results for the parent commit and this change, "
                 "run in alternating pairs on the same machine (parent first on odd seeds), "
                 "plus one traced run each"),
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} "
                    f"--trace 0 (S = 1..{PAIRS}); python3 perfbench/run.py --workload all "
                    f"--seed 1 --trace 1"),
        "parent": git("rev-parse", args.parent),
        "change": "working tree " + git("describe", "--always", "--dirty"),
    }
    if args.claim:
        wl, metric = args.claim.split(":")
        doc["claim"] = {"workload": wl, "metric": metric, "better": metrics[metric]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for copy in copies.values():
            copy.mkdir()
        export_parent(args.parent, copies["parent"])
        export_worktree(copies["change"])

        runs = {}
        for wl in names:
            pairs = []
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run(copies[side], wl, seed, 0)
                    res = result(copies[side], wl, seed, 0)
                    pair[side] = {**res["metrics"], "sequences": res["sequences"],
                                  "attempted": res["attempted"], "failed": res["failed"],
                                  "sequence_walls": res["sequence_walls"]}
                    print(f"{wl} seed {seed} {side}: wall_s {res['metrics']['wall_s']:.4f}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            runs[wl] = pairs
        sides = {side: perfbench_summary(results_dir(copy)) for side, copy in copies.items()}
        doc["workloads"] = {}
        for wl, pairs in runs.items():
            quartiles = {side: sides[side][wl]["end_to_end"] for side in copies}
            doc["workloads"][wl] = {"summary": summarize(pairs, metrics, quartiles), "pairs": pairs}

        doc["traced_seed1"] = {}
        for side, copy in copies.items():
            run(copy, "all", 1, 1)
            doc["traced_seed1"][side] = {wl: result(copy, wl, 1, 1)["metrics"] for wl in names}
        env = result(copies["change"], names[0], 1, 0)["env"]
        doc["machine"] = {k: env[k] for k in ("python", "numpy", "scipy", "nproc", "cpu_model",
                                              "blas_threads")}

    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(table(doc["workloads"], units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
