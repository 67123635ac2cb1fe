"""Model specification files: strict JSON schema plus typed loading.

A spec names exactly one model variant (explicit matrix, split matrix, or a
discretized Schroedinger problem), an optional parity, a task list, and
tolerance overrides. Complex numbers are two-element [re, im] arrays.
Unknown fields anywhere are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

try:
    from jsonschema import Draft202012Validator
except ImportError as exc:  # pragma: no cover
    raise ImportError("the 'jsonschema' package is required to load model specs") from exc

from .errors import SpecError
from .operators import Operator, Tolerance
from .wavekernel import PiecewisePotential

# Largest Schroedinger grid a spec may ask for. Every task holds dense complex
# N x N arrays (16 N^2 bytes each: 268 MB at 4097), so a larger N is refused
# at load time, before anything is allocated.
MAX_GRID_POINTS = 4097

_COMPLEX = {
    "type": "array",
    "prefixItems": [{"type": "number"}, {"type": "number"}],
    "items": False,
    "minItems": 2,
}
_CMATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _COMPLEX},
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "model", "tasks"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "matrix": _CMATRIX,
                "split_matrix": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["H0", "H1", "epsilon"],
                    "properties": {
                        "H0": _CMATRIX,
                        "H1": _CMATRIX,
                        "epsilon": {"type": "number"},
                    },
                },
                "schroedinger": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["L", "N", "breakpoints", "values", "epsilon"],
                    "properties": {
                        "L": {"type": "number", "exclusiveMinimum": 0},
                        "N": {"type": "integer", "minimum": 16, "maximum": MAX_GRID_POINTS},
                        "breakpoints": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "number"},
                        },
                        "values": {"type": "array", "minItems": 2, "items": {"type": "number"}},
                        "epsilon": {"type": "number"},
                    },
                },
            },
        },
        "parity": {
            "anyOf": [{"const": "grid_reflection"}, _CMATRIX],
        },
        "tasks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["kind"],
                "oneOf": [
                    {
                        "additionalProperties": False,
                        "properties": {"kind": {"const": "spectral"}},
                    },
                    {
                        "additionalProperties": False,
                        "required": ["order"],
                        "properties": {
                            "kind": {"const": "perturbative"},
                            "order": {"type": "integer", "minimum": 1, "maximum": 5},
                        },
                    },
                    {
                        "additionalProperties": False,
                        "properties": {"kind": {"const": "wave"}},
                    },
                    {
                        "additionalProperties": False,
                        "required": ["eps_list"],
                        "properties": {
                            "kind": {"const": "scaling"},
                            "eps_list": {
                                "type": "array",
                                "minItems": 3,
                                "items": {"type": "number", "exclusiveMinimum": 0},
                            },
                        },
                    },
                ],
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "abs_tol": {"type": "number", "minimum": 0},
                "rel_tol": {"type": "number", "minimum": 0},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(SCHEMA)


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
    parity: object = None  # None | "grid_reflection" | Operator
    tolerance: Tolerance = Tolerance()
    sha256: str = ""


def _to_matrix(rows, path: str) -> Operator:
    m = np.array([[complex(a, b) for a, b in row] for row in rows])
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecError(f"{path}: matrix must be square, got shape {m.shape}")
    return Operator(m)


def spec_tolerance(abs_tol: float, rel_tol: float, where: str) -> Tolerance:
    """Tolerance(abs_tol, rel_tol); a pair it refuses raises SpecError naming where."""
    try:
        return Tolerance(abs_tol, rel_tol)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def _token(text: str) -> str:
    return text if len(text) <= 24 else f"{text[:12]}...({len(text)} characters)"


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
    """Parse, schema-validate, and type a model spec from a path or stream.

    Every number must be a finite float. json.loads alone would admit NaN,
    Infinity and -Infinity and round 1e400 to inf; these, and integers beyond
    the float range, raise SpecError naming the token.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text, parse_constant=_non_finite, parse_float=_finite_float,
                         parse_int=_finite_int)
    except json.JSONDecodeError as exc:
        raise SpecError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    errors = sorted(_VALIDATOR.iter_errors(raw), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise SpecError(f"{e.json_path}: {e.message}") from None
    return _build(raw, hashlib.sha256(text.encode("utf-8")).hexdigest())


def _build(raw: dict, digest: str) -> ModelSpec:
    (variant, payload), = raw["model"].items()
    if variant == "matrix":
        model = MatrixModel(_to_matrix(payload, "$.model.matrix"))
        dim = model.H.dim
    elif variant == "split_matrix":
        h0 = _to_matrix(payload["H0"], "$.model.split_matrix.H0")
        h1 = _to_matrix(payload["H1"], "$.model.split_matrix.H1")
        if h0.dim != h1.dim:
            raise SpecError(
                f"$.model.split_matrix: H0 ({h0.dim}) and H1 ({h1.dim}) dimensions differ"
            )
        model = SplitMatrixModel(h0, h1, float(payload["epsilon"]))
        dim = h0.dim
    else:
        b = np.asarray(payload["breakpoints"], dtype=float)
        v = np.asarray(payload["values"], dtype=float)
        if v.size != b.size + 1:
            raise SpecError(
                f"$.model.schroedinger.values: need {b.size + 1} interval values "
                f"for {b.size} breakpoints, got {v.size}"
            )
        if not np.all(np.diff(b) > 0):
            raise SpecError("$.model.schroedinger.breakpoints: must be strictly increasing")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise SpecError("$.model.schroedinger.values: outermost values must be 0")
        L = float(payload["L"])
        if not (-L < b[0] and b[-1] < L):
            raise SpecError(
                f"$.model.schroedinger: support [{b[0]}, {b[-1]}] must lie inside (-{L}, {L})"
            )
        model = SchroedingerModel(L, int(payload["N"]), PiecewisePotential(b, v),
                                  float(payload["epsilon"]))
        dim = int(payload["N"])

    parity = raw.get("parity")
    if parity == "grid_reflection":
        if variant != "schroedinger":
            raise SpecError("$.parity: 'grid_reflection' applies only to schroedinger models")
    elif parity is not None:
        parity = _to_matrix(parity, "$.parity")
        if parity.dim != dim:
            raise SpecError(f"$.parity: dimension {parity.dim} does not match model dimension {dim}")

    tasks = []
    seen = set()
    for i, t in enumerate(raw["tasks"]):
        kind = t["kind"]
        if kind in seen:
            raise SpecError(f"$.tasks[{i}]: duplicate task kind '{kind}'")
        seen.add(kind)
        if kind == "spectral":
            tasks.append(SpectralTask())
        elif kind == "perturbative":
            tasks.append(PerturbativeTask(int(t["order"])))
        elif kind == "wave":
            tasks.append(WaveTask())
        else:
            eps = tuple(float(x) for x in t["eps_list"])
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise SpecError(f"$.tasks[{i}].eps_list: must be strictly decreasing")
            tasks.append(ScalingTask(eps))

    tol_raw = raw.get("tolerances", {})
    tol = spec_tolerance(
        float(tol_raw.get("abs_tol", Tolerance().abs_tol)),
        float(tol_raw.get("rel_tol", Tolerance().rel_tol)),
        "$.tolerances",
    )
    return ModelSpec(raw["name"], model, tuple(tasks), parity, tol, digest)
