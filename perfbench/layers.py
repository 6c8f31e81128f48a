"""Per-layer metrics of a traced run, merged over a workload's invocations.

The layers are the package's modules (``config`` and ``errors`` do
microseconds of work and are left out). ``*.calls`` counts calls, ``*.self_s``
is time in those calls minus their wrapped children, ``trace_cli.check.*.s``
is the inclusive time of each check suite. See README.md for which
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

from traced_cli import WRAPS

PER_LAYER = [
    ("import.s", "s"),
    ("import.modules", "count"),
    ("import.scipy_loaded", "frac"),
    ("classify1d.classify.calls", "count"),
    ("classify1d.classify.self_s", "s"),
    ("classify2d.classify2.calls", "count"),
    ("classify2d.classify2.self_s", "s"),
    ("dielectric.wtilde.calls", "count"),
    ("dielectric.wtilde.self_s", "s"),
    ("dielectric.which_pole_side.calls", "count"),
    ("dielectric.which_pole_side.self_s", "s"),
    ("dielectric.near_omega0.calls", "count"),
    ("dielectric.near_omega0.self_s", "s"),
    ("dielectric.sets.self_s", "s"),
    ("dielectric.sets.cache_hit_ratio", "frac"),
    ("complex_numerics.in_ray.calls", "count"),
    ("complex_numerics.principal_sqrt.calls", "count"),
    ("complex_numerics.poly_roots.calls", "count"),
    ("complex_numerics.poly_roots.self_s", "s"),
    ("modes.eigen_omegas.calls", "count"),
    ("modes.eigen_omegas.self_s", "s"),
    ("modes.eigen_omegas.accept_ratio", "frac"),
    ("modes.mode_residual.calls", "count"),
    ("modes.mode_residual.self_s", "s"),
    ("trace_cli.eigen_table.self_s", "s"),
    ("resolvent.solve.calls", "count"),
    ("resolvent.solve.self_s", "s"),
    ("resolvent.verify.self_s", "s"),
    ("resolvent.from_callables.self_s", "s"),
    ("resolvent.kernels.self_s", "s"),
    ("resolvent.rhs_evals", "count"),
    ("resolvent.rhs.self_s", "s"),
    ("resolvent.grid_nodes", "count"),
    ("resolvent.save_field_csv.self_s", "s"),
    ("trace_cli.write_portrait_csv.self_s", "s"),
    ("trace_cli.write_portrait_svg.self_s", "s"),
    ("trace_cli.out_bytes", "bytes"),
    ("fd_oracle.shoot_determinant.calls", "count"),
    ("fd_oracle.shoot_determinant.self_s", "s"),
    ("fd_oracle.solve_ivp.self_s", "s"),
    ("fd_oracle.ivp_nfev", "count"),
    ("fd_oracle.discretize.calls", "count"),
    ("fd_oracle.discretize.self_s", "s"),
    ("fd_oracle.smallest_singular_value.calls", "count"),
    ("fd_oracle.smallest_singular_value.self_s", "s"),
    ("fd_oracle.direct_solve.self_s", "s"),
    ("fd_oracle.splu.calls", "count"),
    ("trace_cli.trace_portrait.self_s", "s"),
    ("trace_cli.m_minus_boundary.self_s", "s"),
    ("trace_cli.cells", "count"),
    ("trace_cli.cells.reduced", "count"),
    ("trace_cli.cells.exceptional", "count"),
    ("trace_cli.cells.pole", "count"),
    ("trace_cli.check.shoot.s", "s"),
    ("trace_cli.check.lambda.s", "s"),
    ("trace_cli.check.resolvent.s", "s"),
    ("trace_cli.check.weyl.s", "s"),
    ("trace_cli.invocation.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.missing", "count"),
]

# wrapped bases and the metrics read from extra counters rather than from them
_BASES = {name for name, _, _, _ in WRAPS} | {"resolvent.rhs", "resolvent.from_callables",
                                             "fd_oracle.splu", "dielectric.sets.cache_info"}
_DERIVED_FROM = {"resolvent.rhs_evals": "resolvent.rhs",
                 "resolvent.grid_nodes": "resolvent.solve",
                 "fd_oracle.ivp_nfev": "fd_oracle.solve_ivp",
                 "modes.eigen_omegas.accept_ratio": "modes.eigen_omegas",
                 "dielectric.sets.cache_hit_ratio": "dielectric.sets.cache_info"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def cell_counts(notes) -> dict:
    """Portrait cells per branch kind, from the CSV branch_note column."""
    out = {"trace_cli.cells": 0, "trace_cli.cells.reduced": 0,
           "trace_cli.cells.exceptional": 0, "trace_cli.cells.pole": 0}
    for note in notes:
        out["trace_cli.cells"] += 1
        if note.startswith(("reduced/", "2D-reduced/")):
            out["trace_cli.cells.reduced"] += 1
        elif note.startswith(("S/", "2D-S/")):
            out["trace_cli.cells.pole"] += 1
        elif "exceptional" in note:
            out["trace_cli.cells.exceptional"] += 1
    return out


def per_layer(docs, cells: dict, out_bytes: int, traced_wall: float,
              untraced_wall: float):
    """(metrics {name: value}, names of metrics whose wrapped function is gone)."""
    agg = {}
    counts = {}
    hits = misses = 0
    missing_fns = set()
    for doc in docs:
        for name, _parent, calls, total, self_s in doc["agg"]:
            rec = agg.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, n in doc["counts"].items():
            counts[key] = counts.get(key, 0) + n
        hits += doc["cache"]["hits"]
        misses += doc["cache"]["misses"]
        missing_fns.update(doc["missing"])

    present = {name for name, mod, attr, _ in WRAPS if f"{mod}.{attr}" not in missing_fns}
    if "resolvent.RhsField.from_callables" not in missing_fns:
        present |= {"resolvent.rhs", "resolvent.from_callables"}
    if "scipy.sparse.linalg.splu" not in missing_fns:
        present.add("fd_oracle.splu")
    if not any(name.endswith(".cache_info") for name in missing_fns):
        present.add("dielectric.sets.cache_info")

    empty = [0, 0.0, 0.0]
    special = {
        "import.s": sum(d["import"]["s"] for d in docs),
        "import.modules": max((d["import"]["modules"] for d in docs), default=0),
        "import.scipy_loaded": _ratio(sum(d["import"]["scipy_loaded"] for d in docs), len(docs)),
        "dielectric.sets.cache_hit_ratio": _ratio(hits, hits + misses),
        "modes.eigen_omegas.accept_ratio": _ratio(counts.get("modes.eigen_omegas.accepted", 0),
                                                  counts.get("modes.eigen_omegas.candidates", 0)),
        "resolvent.rhs_evals": agg.get("resolvent.rhs", empty)[0],
        "resolvent.grid_nodes": counts.get("resolvent.grid_nodes", 0),
        "fd_oracle.ivp_nfev": counts.get("fd_oracle.ivp_nfev", 0),
        "trace_cli.out_bytes": out_bytes,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        **cells,
    }
    metrics, missing = {}, []
    for metric, _unit in PER_LAYER:
        base, _, field = metric.rpartition(".")
        source = _DERIVED_FROM.get(metric, base)
        if source in _BASES and source not in present:
            missing.append(metric)
        if metric in special:
            metrics[metric] = special[metric]
        elif field == "calls":
            metrics[metric] = agg.get(base, empty)[0]
        elif field == "self_s":
            metrics[metric] = agg.get(base, empty)[2]
        elif field == "s":
            metrics[metric] = agg.get(base, empty)[1]
    metrics["trace.missing"] = len(missing)
    return metrics, missing


def top_self_times(docs, n: int = 6):
    """The n largest self times over all wrapped names, for a quick read of the trace."""
    totals = {}
    for doc in docs:
        for name, _parent, _calls, _total, self_s in doc["agg"]:
            totals[name] = totals.get(name, 0.0) + self_s
    return sorted(totals.items(), key=lambda kv: -kv[1])[:n]
