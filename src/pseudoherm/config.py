"""Model specification files: one reader that checks each field as it types it.

A spec names exactly one model variant (explicit matrix, split matrix, or a
discretized Schroedinger problem), an optional parity, a task list, and
tolerance overrides. Complex numbers are two-element [re, im] arrays.
Unknown fields anywhere are rejected. Every rejection is a SpecError whose
message starts with the JSON path of the offending node ($.tasks[1].order).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SpecError
from .operators import DEFAULT_TOL, IndexReversal, Operator, Tolerance
from .report import MAX_FILE_NAME_BYTES, longest_file_name_bytes
from .wavekernel import PiecewisePotential, discretize_schroedinger

# Largest Schroedinger grid, and largest explicit matrix, a spec may ask for.
# The spectral, perturbative and scaling tasks hold dense complex N x N arrays
# (16 N^2 bytes each: 268 MB at 4097), so a larger N is refused at load time,
# before anything is allocated. The wave task reads its kernel matrix in row
# blocks and holds no N x N array.
MAX_GRID_POINTS = 4097
# Longest scaling eps_list a spec may ask for. Each value costs one N^3 eigh
# and a residual (about 0.28 s at N = 1025), so the limit keeps the scaling
# task to seconds; the shipped list has 4 values.
MAX_EPS_VALUES = 16

_MODEL_VARIANTS = ("matrix", "split_matrix", "schroedinger")
# each task kind and the fields it requires besides "kind"
_TASK_FIELDS = {"spectral": (), "perturbative": ("order",), "wave": (), "scaling": ("eps_list",)}


@dataclass(frozen=True)
class MatrixModel:
    H: Operator


@dataclass(frozen=True)
class SplitMatrixModel:
    H0: Operator
    H1: Operator
    epsilon: float


@dataclass(frozen=True)
class SchroedingerModel:
    L: float
    N: int
    potential: PiecewisePotential
    epsilon: float


@dataclass(frozen=True)
class SpectralTask:
    kind: str = field(default="spectral", init=False)


@dataclass(frozen=True)
class PerturbativeTask:
    order: int
    kind: str = field(default="perturbative", init=False)


@dataclass(frozen=True)
class WaveTask:
    kind: str = field(default="wave", init=False)


@dataclass(frozen=True)
class ScalingTask:
    eps_list: tuple
    kind: str = field(default="scaling", init=False)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    model: object
    tasks: tuple
    parity: object = None  # None | Operator | IndexReversal(N) for "grid_reflection"
    tolerance: Tolerance = Tolerance()
    sha256: str = ""


def _to_matrix(rows, path: str) -> Operator:
    """n rows of n [re, im] pairs of JSON numbers, 1 <= n <= MAX_GRID_POINTS, as an Operator."""
    if not isinstance(rows, list) or not rows:
        raise SpecError(f"{path}: must be a non-empty array of rows")
    n = len(rows)
    if n > MAX_GRID_POINTS:
        raise SpecError(f"{path}: {n} rows exceed the limit of {MAX_GRID_POINTS}")
    entries = np.array(rows, dtype=object)
    if entries.shape != (n, n, 2):
        raise SpecError(f"{path}: need {n} x {n} [re, im] pairs, got shape {entries.shape}")
    kinds = np.frompyfunc(type, 1, 1)(entries)
    bad = np.argwhere((kinds != float) & (kinds != int))
    if bad.size:
        i, j, k = bad[0]
        raise SpecError(f"{path}[{i}][{j}][{k}]: {_show(entries[i, j, k])} is not a number")
    return Operator(entries.astype(float).view(complex)[..., 0])


def spec_tolerance(abs_tol: float, rel_tol: float, where: str) -> Tolerance:
    """Tolerance(abs_tol, rel_tol); a pair it refuses raises SpecError naming where."""
    try:
        return Tolerance(abs_tol, rel_tol)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def _token(text: str) -> str:
    return text if len(text) <= 24 else f"{text[:12]}...({len(text)} characters)"


def _show(value) -> str:
    return _token(json.dumps(value))


def _fields(node, path: str, required: tuple, optional: tuple = ()) -> dict:
    """node, if it is an object with every required field and no field outside the two lists."""
    if not isinstance(node, dict):
        raise SpecError(f"{path}: must be an object, got {_show(node)}")
    for key in required:
        if key not in node:
            raise SpecError(f"{path}: missing required field '{key}'")
    for key in node:
        if key not in required and key not in optional:
            raise SpecError(f"{path}: unknown field {_show(key)}")
    return node


def _number(value, path: str, low=None, high=None, *, strict=False, integer=False):
    """value as a float, if it is a JSON number (never a bool) in [low, high].

    strict excludes low itself. integer returns an int and admits an integral
    float such as 33.0, as JSON Schema's "integer" does.
    """
    ok = type(value) in (int, float) and (not integer or float(value).is_integer())
    if ok and low is not None:
        ok = value > low if strict else value >= low
    if ok and high is not None:
        ok = value <= high
    if not ok:
        rule = "an integer" if integer else "a number"
        if low is not None:
            rule += f" {'>' if strict else '>='} {low}"
        if high is not None:
            rule += f" and <= {high}"
        raise SpecError(f"{path}: must be {rule}, got {_show(value)}")
    return int(value) if integer else float(value)


def _numbers(node, path: str, min_items: int, max_items: float = math.inf, **bounds) -> tuple:
    """node as a tuple of floats, if it is an array of min_items to max_items numbers (see _number)."""
    if not isinstance(node, list) or len(node) < min_items:
        raise SpecError(f"{path}: must be an array of at least {min_items} numbers")
    if len(node) > max_items:
        raise SpecError(f"{path}: {len(node)} values exceed the limit of {max_items}")
    return tuple(_number(x, f"{path}[{i}]", **bounds) for i, x in enumerate(node))


def _non_finite(text: str):
    raise SpecError(f"non-finite number {_token(text)} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SpecError(f"number {_token(text)} is out of the finite float range")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)
    return int(text)


def load_spec(source) -> ModelSpec:
    """Parse, check and type a model spec from a path or stream.

    Every number must be a finite float. json.loads alone would admit NaN,
    Infinity and -Infinity and round 1e400 to inf; these, and integers beyond
    the float range, raise SpecError naming the token. A file that is not
    UTF-8 text, and arrays or objects nested deeper than the parser (or a
    message quoting the node) can recurse, raise SpecError too.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise SpecError(f"not UTF-8 text: byte {exc.start} ({exc.reason})") from None
    try:
        raw = json.loads(text, parse_constant=_non_finite, parse_float=_finite_float,
                         parse_int=_finite_int)
        return _build(raw, hashlib.sha256(text.encode("utf-8")).hexdigest())
    except json.JSONDecodeError as exc:
        raise SpecError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise SpecError("$: arrays or objects are nested too deeply") from None


def _build(raw, digest: str) -> ModelSpec:
    _fields(raw, "$", ("name", "model", "tasks"), ("parity", "tolerances"))
    name = raw["name"]
    # the report files are named after the spec, so the name must be a file-name stem
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise SpecError("$.name: must be a non-empty string without '/', '\\' or NUL, "
                        "and not '.' or '..'")
    try:
        longest = longest_file_name_bytes(name)
    except UnicodeEncodeError:
        raise SpecError("$.name: must be encodable as UTF-8 (no lone surrogates)") from None
    if longest > MAX_FILE_NAME_BYTES:
        raise SpecError(f"$.name: the longest report file name would be {longest} bytes, "
                        f"over the limit of {MAX_FILE_NAME_BYTES}")
    variants = _fields(raw["model"], "$.model", (), _MODEL_VARIANTS)
    if len(variants) != 1:
        raise SpecError(f"$.model: must hold exactly one of {', '.join(_MODEL_VARIANTS)}")
    (variant, payload), = variants.items()
    path = f"$.model.{variant}"
    if variant == "matrix":
        model = MatrixModel(_to_matrix(payload, path))
        dim = model.H.dim
    elif variant == "split_matrix":
        _fields(payload, path, ("H0", "H1", "epsilon"))
        h0 = _to_matrix(payload["H0"], f"{path}.H0")
        h1 = _to_matrix(payload["H1"], f"{path}.H1")
        if h0.dim != h1.dim:
            raise SpecError(f"{path}: H0 ({h0.dim}) and H1 ({h1.dim}) dimensions differ")
        model = SplitMatrixModel(h0, h1, _number(payload["epsilon"], f"{path}.epsilon"))
        dim = h0.dim
    else:
        _fields(payload, path, ("L", "N", "breakpoints", "values", "epsilon"))
        L = _number(payload["L"], f"{path}.L", 0, strict=True)
        N = _number(payload["N"], f"{path}.N", 16, MAX_GRID_POINTS, integer=True)
        breakpoints = _numbers(payload["breakpoints"], f"{path}.breakpoints", 1)
        values = _numbers(payload["values"], f"{path}.values", 2)
        epsilon = _number(payload["epsilon"], f"{path}.epsilon")
        try:
            potential = PiecewisePotential(breakpoints, values)
            discretize_schroedinger(potential, L, N)  # its grid rule; the run builds its own
        except DomainError as exc:
            raise SpecError(f"{path}: {exc}") from None
        model = SchroedingerModel(L, N, potential, epsilon)
        dim = N

    parity = raw.get("parity")
    if parity == "grid_reflection":
        if variant != "schroedinger":
            raise SpecError("$.parity: 'grid_reflection' applies only to schroedinger models")
        parity = IndexReversal(dim)
    elif "parity" in raw:  # a matrix; an explicit null is refused here too
        parity = _to_matrix(parity, "$.parity")
        if parity.dim != dim:
            raise SpecError(f"$.parity: dimension {parity.dim} does not match model dimension {dim}")

    if not isinstance(raw["tasks"], list) or not raw["tasks"]:
        raise SpecError("$.tasks: must be a non-empty array of tasks")
    tasks = []
    seen = set()
    for i, t in enumerate(raw["tasks"]):
        path = f"$.tasks[{i}]"
        kind = t.get("kind") if isinstance(t, dict) else None
        if not isinstance(kind, str) or kind not in _TASK_FIELDS:
            raise SpecError(f"{path}: must be an object whose kind is one of "
                            f"{', '.join(_TASK_FIELDS)}")
        _fields(t, path, ("kind", *_TASK_FIELDS[kind]))
        if kind in seen:
            raise SpecError(f"{path}: duplicate task kind '{kind}'")
        seen.add(kind)
        if kind == "spectral":
            tasks.append(SpectralTask())
        elif kind == "perturbative":
            tasks.append(PerturbativeTask(_number(t["order"], f"{path}.order", 1, 5, integer=True)))
        elif kind == "wave":
            tasks.append(WaveTask())
        else:
            eps = _numbers(t["eps_list"], f"{path}.eps_list", 3, MAX_EPS_VALUES, low=0, strict=True)
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise SpecError(f"{path}.eps_list: must be strictly decreasing")
            tasks.append(ScalingTask(eps))

    tol_raw = _fields(raw.get("tolerances", {}), "$.tolerances", (), ("abs_tol", "rel_tol"))
    tol = spec_tolerance(
        _number(tol_raw.get("abs_tol", DEFAULT_TOL.abs_tol), "$.tolerances.abs_tol", 0),
        _number(tol_raw.get("rel_tol", DEFAULT_TOL.rel_tol), "$.tolerances.rel_tol", 0),
        "$.tolerances",
    )
    return ModelSpec(name, model, tuple(tasks), parity, tol, digest)
