"""Summarize the result files that run.py leaves in .perfbench_out/results/.

For each workload and end-to-end metric: the median and quartiles over the
runs found (one per seed), and the spread (q3 - q1) / median that the
acceptance check computes with statistics.quantiles(values, n=4). With
--json, also writes those figures, the environment and the traced runs'
per-layer metrics to one file (the form of the committed baseline).

Usage: python3 perfbench/summarize.py [--results DIR] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(results: Path) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for w in spec["workloads"]:
        timed = [json.loads(p.read_text())
                 for p in sorted(results.glob(f"{w['name']}-seed*-trace0.json"))]
        traced = [json.loads(p.read_text())
                  for p in sorted(results.glob(f"{w['name']}-seed*-trace1.json"))]
        entry = {"runs": len(timed), "seeds": [r["seed"] for r in timed],
                 "failed": sum(r["failed"] for r in timed + traced),
                 "attempted": sum(r["attempted"] for r in timed + traced),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in timed]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / med, "bound": bound,
                                         "values": values}
        if timed:
            entry["env"] = timed[0]["env"]
        if traced:
            entry["traced"] = {"seed": traced[0]["seed"], "metrics": traced[0]["metrics"],
                               "top_self_s": traced[0]["top_self_s"],
                               "missing": traced[0]["missing"]}
        out[w["name"]] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", type=Path, default=HERE.parent / ".perfbench_out" / "results")
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args(argv)
    summary = summarize(args.results)
    for name, entry in summary.items():
        print(f"{name}: {entry['runs']} runs, {entry['failed']}/{entry['attempted']} failed")
        for metric, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {metric:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.3f} (bound {s['bound']}) {flag}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
