import csv
import json
from importlib import resources

import numpy as np
import pytest

from pseudoherm import canonical_json, emit, load_spec, run_model_spec
from pseudoherm.report import format_float, longest_file_name_bytes


def test_format_float_roundtrip():
    for x in (0.0, -0.0, 1.0, -3.0, 1e16, 1e17, -1.5, 1e-300, 0.1 + 0.2, np.pi, 2.3675289159696966e-14):
        text = format_float(x)
        assert float(text) == x
        loaded = json.loads(text)  # a float literal, sign included, never an int
        assert type(loaded) is float and loaded == x and np.signbit(loaded) == np.signbit(x)
    assert format_float(0.0) == "0.0" and format_float(-0.0) == "-0.0"
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1.5, "a": [True, 2, "x"]})
    b = canonical_json({"a": [True, 2, "x"], "b": 1.5})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_canonical_json_bool_vs_int():
    out = canonical_json({"flag": True, "count": 1})
    doc = json.loads(out)
    assert doc["flag"] is True
    assert doc["count"] == 1
    assert "true" in out


def test_canonical_json_numpy_scalars():
    out = canonical_json(
        {
            "f": np.float64(0.5),
            "i": np.int64(3),
            "b": np.bool_(False),
            "arr_ok": [np.float64(1.0)],
        }
    )
    doc = json.loads(out)
    assert doc == {"f": 0.5, "i": 3, "b": False, "arr_ok": [1.0]}


def test_canonical_json_rejects_complex():
    with pytest.raises(TypeError):
        canonical_json({"z": 1j})


def sample_report():
    return {
        "name": "demo",
        "provenance": {"seed": 0},
        "all_passed": True,
        "tasks": [
            {
                "task": "spectral",
                "ok": True,
                "error": None,
                "verdicts": [],
                "data": {"spectrum": [[1.0, 0.0], [2.0, -1e-15]]},
            },
            {
                "task": "scaling",
                "ok": True,
                "error": None,
                "verdicts": [],
                "data": {"curve": [[0.1, 1e-5], [0.05, 1.2e-6]]},
            },
            {
                "task": "wave",
                "ok": True,
                "error": None,
                "verdicts": [],
                "data": {
                    "kernel_slice": {
                        "y0": 0.0,
                        "rows": [[0.0, 0.0, -0.1], [0.5, 0.0, -0.2]],
                    }
                },
            },
        ],
    }


def test_emit_json(tmp_path):
    paths = emit(sample_report(), tmp_path, "json")
    assert [p.name for p in paths] == ["demo_report.json"]
    text = paths[0].read_text()
    assert text == canonical_json(sample_report())


def test_emit_json_deterministic(tmp_path):
    a = emit(sample_report(), tmp_path / "x", "json")[0].read_bytes()
    b = emit(sample_report(), tmp_path / "y", "json")[0].read_bytes()
    assert a == b


def test_emit_csv(tmp_path):
    paths = emit(sample_report(), tmp_path, "csv")
    names = sorted(p.name for p in paths)
    assert names == [
        "demo_scaling_curve.csv",
        "demo_spectral_spectrum.csv",
        "demo_wave_kernel_slice.csv",
    ]
    with open(tmp_path / "demo_spectral_spectrum.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "re", "im"]
    assert float(rows[1][1]) == 1.0
    with open(tmp_path / "demo_scaling_curve.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epsilon", "residual"]
    assert float(rows[2][0]) == 0.05


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit(sample_report(), tmp_path, "xml")


def test_emit_file_names_fit_the_longest_file_name_bound(tmp_path):
    # $.name's length rule reads longest_file_name_bytes: every file emit writes
    # for a report with all four task kinds fits it, and the longest meets it
    spec = load_spec(str(resources.files("pseudoherm") / "specs" / "step_potential.json"))
    report = run_model_spec(spec)
    names = [p.name for fmt in ("json", "csv") for p in emit(report, tmp_path, fmt)]
    assert len(names) == 4
    lengths = [len(n.encode("utf-8")) for n in names]
    assert max(lengths) == longest_file_name_bytes(report["name"])


# each raise site as (call, error class, message); none is on a run's path
ERROR_SITES = {
    "non_string_key": (lambda: canonical_json({1: 0.5}), TypeError, "report keys must be strings"),
    "unsupported_value": (
        lambda: canonical_json({"s": {1, 2}}), TypeError, "unsupported report value type"),
}


@pytest.mark.parametrize("case", sorted(ERROR_SITES))
def test_report_raise_sites(case):
    call, error, message = ERROR_SITES[case]
    with pytest.raises(error, match=message):
        call()
