"""Run one pencil-spectra CLI invocation with timing wrappers installed.

Usage: python traced_cli.py <trace.json> <invocation-id> <cli arguments...>

The wrappers sit around each module's functions, from outside the program:
the name is rebound in every ``pencil_spectra`` module that holds the same
function object (``from .dielectric import wtilde`` copies the name, so one
patch is not enough). Coarse boundaries (the invocation, the import,
``trace_portrait``, ``solve``, the check suites, the writers) are kept as
spans ``[name, start, end, parent, invocation]``. Hot per-point callees are
only aggregated per (name, parent): calls, total time and self time, where
self time is the call's time minus that of its wrapped children. A name that
no longer exists is listed under "missing" instead of failing the run. The
record is kept in memory and written as JSON when the invocation ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

clock = time.perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (metric base name, module under pencil_spectra, attribute, kind)
WRAPS = [
    ("trace_cli.invocation", "trace_cli", "main", SPAN),
    ("trace_cli.trace_portrait", "trace_cli", "trace_portrait", SPAN),
    ("trace_cli.write_portrait_csv", "trace_cli", "write_portrait_csv", SPAN),
    ("trace_cli.write_portrait_svg", "trace_cli", "write_portrait_svg", SPAN),
    ("trace_cli.m_minus_boundary", "trace_cli", "_m_minus_boundary", TIMED),
    ("trace_cli.eigen_table", "trace_cli", "eigen_table", TIMED),
    ("trace_cli.check.shoot", "trace_cli", "_suite_shoot", SPAN),
    ("trace_cli.check.lambda", "trace_cli", "_suite_lambda", SPAN),
    ("trace_cli.check.resolvent", "trace_cli", "_suite_resolvent", SPAN),
    ("trace_cli.check.weyl", "trace_cli", "_suite_weyl", SPAN),
    ("classify1d.classify", "classify1d", "classify", TIMED),
    ("classify2d.classify2", "classify2d", "classify2", TIMED),
    ("dielectric.wtilde", "dielectric", "wtilde", TIMED),
    ("dielectric.which_pole_side", "dielectric", "which_pole_side", TIMED),
    ("dielectric.near_omega0", "dielectric", "near_omega0", TIMED),
    ("dielectric.sets", "dielectric", "singular_set", TIMED),
    ("dielectric.sets", "dielectric", "singular_points", TIMED),
    ("dielectric.sets", "dielectric", "omega0_set", TIMED),
    ("complex_numerics.in_ray", "complex_numerics", "in_ray", COUNT),
    ("complex_numerics.principal_sqrt", "complex_numerics", "principal_sqrt", COUNT),
    ("complex_numerics.poly_roots", "complex_numerics", "poly_roots", TIMED),
    ("modes.eigen_omegas", "modes", "eigen_omegas", TIMED),
    ("modes.mode_residual", "modes", "mode_residual", TIMED),
    ("resolvent.solve", "resolvent", "solve", SPAN),
    ("resolvent.verify", "resolvent", "verify", TIMED),
    ("resolvent.save_field_csv", "resolvent", "save_field_csv", SPAN),
    ("resolvent.kernels", "resolvent", "_exp_kernels", TIMED),
    ("resolvent.kernels", "resolvent", "_exp_kernels_left_suffix", TIMED),
    ("resolvent.kernels", "resolvent", "_exp_kernels_left_prefix", TIMED),
    ("resolvent.kernels", "resolvent", "_cumulative_integral", TIMED),
    ("fd_oracle.shoot_determinant", "fd_oracle", "shoot_determinant", TIMED),
    ("fd_oracle.discretize", "fd_oracle", "discretize", TIMED),
    ("fd_oracle.smallest_singular_value", "fd_oracle", "smallest_singular_value", TIMED),
    ("fd_oracle.direct_solve", "fd_oracle", "direct_solve", TIMED),
    ("fd_oracle.solve_ivp", "fd_oracle", "solve_ivp", TIMED),
]
# lru_cache objects whose cache_info() gives dielectric.sets.cache_hit_ratio
CACHED = [("dielectric", "singular_set"), ("dielectric", "singular_points"),
          ("dielectric", "omega0_set")]


class Tracer:
    """Call stack, per-(name, parent) aggregates, spans and counters of one process."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.stack = []          # frames [name, time spent in wrapped children]
        self.agg = {}            # (name, parent) -> [calls, total_s, self_s]
        self.spans = []
        self.counts = {}
        self.missing = []

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def timed(self, name, fn, span=False, post=None):
        stack, agg, spans, inv = self.stack, self.agg, self.spans, self.invocation

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                pname = None
                if parent is not None:
                    parent[1] += dur
                    pname = parent[0]
                rec = agg.get((name, pname))
                if rec is None:
                    rec = agg[(name, pname)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if span:
                    spans.append([name, t0, t1, pname, inv])
            if post is not None:
                post(result, pname)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        stack, agg = self.stack, self.agg

        def wrapper(*args, **kwargs):
            key = (name, stack[-1][0] if stack else None)
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0.0, 0.0]
            rec[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _lookup(modname: str, attr: str):
    """pencil_spectra.<modname>.<attr>, or None when a refactor removed it."""
    try:
        mod = importlib.import_module(f"pencil_spectra.{modname}")
    except ImportError:
        return None
    return getattr(mod, attr, None)


def _rebind(orig, wrapper) -> None:
    """Replace orig by wrapper wherever a pencil_spectra module binds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "pencil_spectra"
                               or modname.startswith("pencil_spectra.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    posts = {
        "complex_numerics.poly_roots": lambda res, parent: (
            tracer.count("modes.eigen_omegas.candidates", len(res))
            if parent == "modes.eigen_omegas" else None),
        "modes.eigen_omegas": lambda res, parent: tracer.count(
            "modes.eigen_omegas.accepted", len(res)),
        "resolvent.solve": lambda res, parent: tracer.count(
            "resolvent.grid_nodes", len(getattr(getattr(res, "grid", None), "x", ()))),
        "fd_oracle.solve_ivp": lambda res, parent: tracer.count(
            "fd_oracle.ivp_nfev", int(getattr(res, "nfev", 0))),
    }
    for name, modname, attr, kind in WRAPS:
        orig = _lookup(modname, attr)
        if orig is None:
            tracer.missing.append(f"{modname}.{attr}")
            continue
        if kind == COUNT:
            wrapper = tracer.counted(name, orig)
        else:
            wrapper = tracer.timed(name, orig, span=(kind == SPAN), post=posts.get(name))
        _rebind(orig, wrapper)

    # the rhs callables are built inside the CLI; wrap them where they enter
    rhs_field = _lookup("resolvent", "RhsField")
    build = getattr(rhs_field, "from_callables", None)
    if build is None:
        tracer.missing.append("resolvent.RhsField.from_callables")
    else:
        def wrap(value):
            return tracer.timed("resolvent.rhs", value) if callable(value) else value

        def from_callables(*args, **kwargs):
            return build(*map(wrap, args), **{k: wrap(v) for k, v in kwargs.items()})
        rhs_field.from_callables = staticmethod(
            tracer.timed("resolvent.from_callables", from_callables))

    # LU factorizations go through scipy.sparse.linalg.splu; patch it only if
    # the import already loaded scipy, so tracing never adds that import
    spla = sys.modules.get("scipy.sparse.linalg")
    if spla is None:
        tracer.missing.append("scipy.sparse.linalg.splu")
    else:
        spla.splu = tracer.counted("fd_oracle.splu", spla.splu)


def main() -> int:
    out_path, invocation, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(invocation)
    before = set(sys.modules)
    t0 = clock()
    import pencil_spectra.trace_cli  # noqa: F401  (the import is what is timed)
    t1 = clock()
    tracer.spans.append(["import", t0, t1, None, invocation])
    record = {
        "invocation": invocation,
        "argv": argv,
        "import": {"s": t1 - t0, "modules": len(set(sys.modules) - before),
                   "scipy_loaded": "scipy" in sys.modules},
    }
    # resolve cache objects before wrapping, so cache_info() is read from them
    originals = {f"{m}.{attr}": _lookup(m, attr) for m, attr in CACHED}
    install(tracer)
    rc = 1
    try:
        rc = sys.modules["pencil_spectra.trace_cli"].main(argv)
    finally:
        hits = misses = 0
        for name, fn in originals.items():
            info = getattr(fn, "cache_info", None)
            if info is None:
                tracer.missing.append(f"{name}.cache_info")
                continue
            hits += info().hits
            misses += info().misses
        record.update(
            rc=rc,
            agg=[[n, p, c, tot, slf] for (n, p), (c, tot, slf) in tracer.agg.items()],
            spans=tracer.spans,
            counts=tracer.counts,
            cache={"hits": hits, "misses": misses},
            missing=tracer.missing,
        )
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
