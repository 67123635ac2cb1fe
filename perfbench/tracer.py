"""In-process span recorder that wraps pseudoherm's layers from the outside.

`install` replaces every public function of the pseudoherm modules in
MODULES (plus pipeline's per-task functions), in every pseudoherm module
namespace that binds it (so `from .x import y` call sites are covered), and
the numpy.linalg primitives in LINALG, with a wrapper that records a span
(name, start, end, parent) and counts the exceptions it lets through, by
class. Nothing under src/ changes.
Spans stay in memory until `dump` writes them, once, when the process ends.

numpy.linalg is patched at the package attribute, so numpy's own internal
calls (the SVD inside `cond`, the solver inside `polyfit`) are not seen.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("cli", "config", "pipeline", "spectral", "perturbation", "wavekernel", "operators", "report")
# The per-task functions of pipeline are private; their spans carry the task name.
TASK_SPANS = {"_spectral_task": "spectral", "_perturbative_task": "perturbative",
              "_scaling_task": "scaling", "_wave_task": "wave"}
# Operator.__post_init__ copies and validates every matrix an Operator wraps.
OPERATOR_INIT = "operators.operator_init"
LINALG = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "cond", "inv", "solve", "cholesky")
HASH_SPAN = "trace.input_hash"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Span and count store for one process of one operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.inputs: set[bytes] = set()

    def _open(self, name: str) -> list:
        rec = [name, _now(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _now()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(rec)

        return _label(traced, fn, name)

    def wrap_linalg(self, name: str, fn):
        """Like wrap, and also remember a digest of the input matrix.

        Hashing runs in its own span so that it is not charged to the
        primitive or to the caller.
        """
        inner = self.wrap(name, fn)
        tracer = self

        def traced(a, *args, **kwargs):
            rec = tracer._open(HASH_SPAN)
            arr = np.asarray(a)
            h = hashlib.blake2b(arr.tobytes(), digest_size=16)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            tracer.inputs.add(h.digest())
            tracer._close(rec)
            return inner(a, *args, **kwargs)

        return _label(traced, fn, name)

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra, spans=self.spans, counts=dict(self.counts),
                   distinct_inputs=len(self.inputs))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _label(traced, fn, name: str):
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    traced.perfbench_span = name
    return traced


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pseudoherm" or name.startswith("pseudoherm."))]


def targets() -> list[tuple]:
    """(home module, function name, span name) for every function to wrap."""
    out = []
    for mod in MODULES:
        home = importlib.import_module(f"pseudoherm.{mod}")
        names = {n: n for n, f in vars(home).items()
                 if inspect.isfunction(f) and f.__module__ == home.__name__ and not n.startswith("_")}
        if mod == "pipeline":
            names.update(TASK_SPANS)
        out += [(home, fname, f"{mod}.{span}") for fname, span in sorted(names.items())]
    return out


def install(tracer: Tracer):
    """Wrap every target everywhere it is bound; return an undo callable."""
    from pseudoherm.operators import Operator

    modules = _package_modules()
    undo = []

    for home, fname, span in targets():
        orig = getattr(home, fname)
        new = tracer.wrap(span, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
                    undo.append((m, key, orig))

    orig_init = Operator.__post_init__
    Operator.__post_init__ = tracer.wrap(OPERATOR_INIT, orig_init)
    undo.append((Operator, "__post_init__", orig_init))

    for p in LINALG:
        orig = getattr(np.linalg, p)
        setattr(np.linalg, p, tracer.wrap_linalg(f"linalg.{p}", orig))
        undo.append((np.linalg, p, orig))

    def uninstall():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return uninstall
