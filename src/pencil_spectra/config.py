"""Material config files: a flat key-value text format with two sections.

Example::

    # Drude metal against a constant dielectric
    scale = 1.0            # optional, applies to both sides (default 1.0)

    [plus]
    kind = "constant"
    value = 2.0

    [minus]
    kind = "drude"
    omega_p = 0.8
    gamma = 1.0
    background = 1.0       # optional (default 1.0)

Values are finite Python literals (floats, complex like ``1+2j``, coefficient
lists in descending powers for the rational kind). The table _KINDS names each
kind's keys and constructor.

Every fault raises ConfigError: a file that cannot be read names its path;
unknown keys, missing keys, bad literals and a scale that is not finite and
positive name the offending key and line, a key given twice (a reopened section
is the same one) both its lines, and a value the constructor rejects (a
non-finite one, say) names the section. The CLI prints it as an ``error:`` line
and exits with 2. A rational medium's common roots are cancelled under
the run's Tolerances, so PENCIL_SPECTRA_TOL applies there too.
"""

from __future__ import annotations

import ast
import math

from .complex_numerics import DEFAULT_TOL, Tolerances
from .dielectric import DielectricModel, InterfaceProblem
from .errors import ConfigError

# kind -> (constructor, required keys, optional keys, whether it takes the run's tol)
_KINDS = {
    "constant": (DielectricModel.constant, ("value",), (), False),
    "drude": (DielectricModel.drude, ("omega_p", "gamma"), ("background",), False),
    "rational": (DielectricModel.rational, ("numerator", "denominator"), (), True),
}


def _parse_literal(value, key, lineno, source):
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(
            f"{source}:{lineno}: invalid value for key {key!r}: {value!r}") from exc


def parse_problem_config(text: str, source: str = "<config>",
                         tol: Tolerances = DEFAULT_TOL) -> InterfaceProblem:
    """The problem a config text describes, its rational media reduced under tol."""
    sections: dict = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("plus", "minus"):
                raise ConfigError(f"{source}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        body = sections.setdefault(current, {})
        if key in body:   # a reopened section is the same section
            raise ConfigError(f"{source}:{lineno}: key {key!r} given twice "
                              f"(lines {body[key][1]} and {lineno})")
        body[key] = (_parse_literal(value.strip(), key, lineno, source), lineno)

    top = sections.get("", {})
    for key in top:
        if key != "scale":
            raise ConfigError(f"{source}: unknown top-level key {key!r} "
                              f"(line {top[key][1]}); only 'scale' is allowed")
    scale, scale_line = top.get("scale", (1.0, 0))
    try:
        scale = float(scale)
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"must be a finite positive real, got {scale!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{source}:{scale_line}: invalid value for key 'scale': {exc}") from exc

    models = {}
    for side in ("plus", "minus"):
        if side not in sections:
            raise ConfigError(f"{source}: missing [{side}] section")
        body = dict(sections[side])
        if "kind" not in body:
            raise ConfigError(f"{source}: section [{side}] is missing key 'kind'")
        kind, kind_line = body.pop("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigError(
                f"{source}:{kind_line}: key 'kind' must be one of "
                f"{sorted(_KINDS)}, got {kind!r}")
        constructor, required, optional, takes_tol = _KINDS[kind]
        for key, (_, lineno) in body.items():
            if key not in required + optional:
                raise ConfigError(
                    f"{source}:{lineno}: key {key!r} is not valid for kind {kind!r} "
                    f"(allowed: {sorted(required + optional)})")
        for key in required:
            if key not in body:
                raise ConfigError(
                    f"{source}: section [{side}] with kind {kind!r} is missing key {key!r}")
        keys = {key: v for key, (v, _) in body.items()}
        try:
            models[side] = constructor(**keys, scale=scale, **({"tol": tol} if takes_tol else {}))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{source}: section [{side}]: {exc}") from exc

    return InterfaceProblem(plus=models["plus"], minus=models["minus"])


def load_problem(path, tol: Tolerances = DEFAULT_TOL) -> InterfaceProblem:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:   # missing, a directory, not UTF-8
        raise ConfigError(f"{path}: cannot read the config file: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    return parse_problem_config(text, source=str(path), tol=tol)
