"""Hostile specs end in SpecError or a written report, never in another exception.

Each example takes one of the shipped specs, or a 2x2 split, and applies a
few mutations: a number becomes one of EXTREMES, or an array is truncated or
extended with copies of its last element (of an EXTREMES number if it is
empty). The examples are derandomized, so the suite runs the same ones
every time.
"""

import copy
import io
import json
import tempfile
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudoherm import SpecError, emit, load_spec, run_model_spec

EXTREMES = (0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, 1)
MAX_FUZZ_N = 64


def _shipped(name):
    doc = json.loads((resources.files("pseudoherm") / "specs" / f"{name}.json").read_text())
    for model in doc["model"].values():
        if "N" in model:
            model["N"] = min(model["N"], MAX_FUZZ_N)
    return doc


SPLIT_2X2 = {
    "name": "split_2x2",
    "model": {"split_matrix": {
        "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        "H1": [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
        "epsilon": 0.1,
    }},
    "tasks": [
        {"kind": "spectral"},
        {"kind": "perturbative", "order": 2},
        {"kind": "scaling", "eps_list": [0.1, 0.05, 0.025]},
    ],
}
BASES = [_shipped(n) for n in ("pt_toy_2x2", "random_real_spectrum", "step_potential")]
BASES.append(SPLIT_2X2)


def _nodes(node, path=()):
    """(path, node) for every number and every array in the document."""
    if isinstance(node, list):
        yield path, node
        for i, item in enumerate(node):
            yield from _nodes(item, path + (i,))
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


@st.composite
def hostile_specs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(doc))))
        if isinstance(node, list):
            size = draw(st.integers(0, len(node) + 2))
            if size <= len(node):
                del node[size:]
            else:
                last = node[-1] if node else draw(st.sampled_from(EXTREMES))
                node.extend(copy.deepcopy(last) for _ in range(size - len(node)))
        else:
            holder = doc
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = draw(st.sampled_from(EXTREMES))
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hostile_specs())
def test_hostile_spec_ends_in_spec_error_or_report(doc):
    try:
        spec = load_spec(io.StringIO(json.dumps(doc)))
    except SpecError:
        return
    report = run_model_spec(spec)
    with tempfile.TemporaryDirectory() as out:
        (path,) = emit(report, out)
        assert json.loads(path.read_text())["name"] == doc["name"]
