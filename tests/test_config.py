import io
import json
import time
from importlib import resources

import numpy as np
import pytest

from pseudoherm import (
    MatrixModel,
    SchroedingerModel,
    SpecError,
    SplitMatrixModel,
    load_spec,
)
from pseudoherm.cli import main
from pseudoherm.config import MAX_GRID_POINTS


def shipped(name):
    return resources.files("pseudoherm") / "specs" / name


def minimal_spec(**overrides):
    doc = {
        "name": "t",
        "model": {"matrix": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
        "tasks": [{"kind": "spectral"}],
    }
    doc.update(overrides)
    return doc


def load_doc(doc):
    return load_spec(io.StringIO(json.dumps(doc)))


def test_shipped_specs_load():
    step = load_spec(shipped("step_potential.json"))
    assert isinstance(step.model, SchroedingerModel)
    assert step.model.N == 129
    assert step.model.potential.support == (-1.0, 1.0)
    assert [t.kind for t in step.tasks] == ["spectral", "perturbative", "scaling", "wave"]
    assert step.parity == "grid_reflection"
    assert len(step.sha256) == 64

    toy = load_spec(shipped("pt_toy_2x2.json"))
    assert isinstance(toy.model, MatrixModel)
    assert toy.model.H.dim == 2
    assert np.array_equal(toy.parity.mat, [[0.0, 1.0], [1.0, 0.0]])

    rnd = load_spec(shipped("random_real_spectrum.json"))
    assert isinstance(rnd.model, MatrixModel)
    assert rnd.parity is None


def test_matrix_model_roundtrip():
    spec = load_doc(minimal_spec())
    h = spec.model.H.mat
    assert h[0, 0] == 1.0 and h[0, 1] == 1.0 and h[1, 1] == 2.0
    assert spec.tolerance.abs_tol == 1e-10  # defaults apply


def test_split_matrix_model():
    doc = minimal_spec(
        model={
            "split_matrix": {
                "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
                "epsilon": 0.2,
            }
        },
        tasks=[{"kind": "perturbative", "order": 2}],
    )
    spec = load_doc(doc)
    assert isinstance(spec.model, SplitMatrixModel)
    assert spec.model.epsilon == 0.2


def test_tolerance_override():
    spec = load_doc(minimal_spec(tolerances={"abs_tol": 1e-9, "rel_tol": 1e-7}))
    assert spec.tolerance.abs_tol == 1e-9
    assert spec.tolerance.rel_tol == 1e-7


def test_sha256_tracks_bytes():
    a = load_doc(minimal_spec())
    b = load_doc(minimal_spec())
    assert a.sha256 == b.sha256
    c = load_doc(minimal_spec(name="other"))
    assert c.sha256 != a.sha256


def test_parse_error_reports_position():
    with pytest.raises(SpecError) as err:
        load_spec(io.StringIO('{"name": }'))
    msg = str(err.value)
    assert "line 1" in msg and "column" in msg


def test_schema_rejections():
    cases = [
        ({}, "required"),
        (minimal_spec(model={}), "non-empty"),
        (
            minimal_spec(
                model={
                    "matrix": [[[1.0, 0.0]]],
                    "schroedinger": {
                        "L": 4.0,
                        "N": 33,
                        "breakpoints": [0.0],
                        "values": [0.0, 0.0],
                        "epsilon": 0.1,
                    },
                }
            ),
            "has too many properties",
        ),
        (minimal_spec(extra=1), "extra"),
        (minimal_spec(tasks=[]), "non-empty"),
        (minimal_spec(tasks=[{"kind": "unknown"}]), "is not valid"),
        (minimal_spec(tasks=[{"kind": "perturbative"}]), "is not valid"),
        (minimal_spec(tasks=[{"kind": "perturbative", "order": 9}]), "is not valid"),
        (minimal_spec(model={"matrix": [[[1.0, 0.0, 0.0]]]}),
         "$.model.matrix: need 1 x 1 [re, im] pairs"),
        (minimal_spec(tolerances={"abs_tol": -1.0}), "minimum"),
    ]
    for doc, fragment in cases:
        with pytest.raises(SpecError) as err:
            load_doc(doc)
        assert fragment in str(err.value), (doc, str(err.value))


def test_schema_error_includes_json_path():
    with pytest.raises(SpecError) as err:
        load_doc(minimal_spec(tolerances={"abs_tol": -1.0}))
    assert "tolerances" in str(err.value)


def test_post_validation_square_matrix():
    with pytest.raises(SpecError):
        load_doc(minimal_spec(model={"matrix": [[[1.0, 0.0], [0.0, 0.0]]]}))


def test_post_validation_split_dims():
    doc = minimal_spec(
        model={
            "split_matrix": {
                "H0": [[[1.0, 0.0]]],
                "H1": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
                "epsilon": 0.1,
            }
        }
    )
    with pytest.raises(SpecError):
        load_doc(doc)


def schro(**kw):
    base = {
        "L": 4.0,
        "N": 33,
        "breakpoints": [-1.0, 0.0, 1.0],
        "values": [0.0, 1.0, -1.0, 0.0],
        "epsilon": 0.1,
    }
    base.update(kw)
    return minimal_spec(model={"schroedinger": base})


def test_post_validation_schroedinger():
    load_doc(schro())  # baseline valid
    with pytest.raises(SpecError):
        load_doc(schro(values=[0.0, 1.0, 0.0]))  # wrong count
    with pytest.raises(SpecError):
        load_doc(schro(breakpoints=[1.0, 0.0, -1.0]))  # not increasing
    with pytest.raises(SpecError):
        load_doc(schro(values=[0.5, 1.0, -1.0, 0.0]))  # outer not zero
    with pytest.raises(SpecError):
        load_doc(schro(L=0.5))  # support outside the box


SPLIT_2X2 = {
    "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "H1": [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
}


# each spec carries one number that is not a finite float, written as "@",
# which the test replaces with the raw token (json.dumps cannot write 1e400)
NON_FINITE_SPECS = {
    "nan_matrix_entry": (minimal_spec(model={"matrix": [[["@", 0.0]]]}), "NaN"),
    "infinite_epsilon": (
        minimal_spec(model={"split_matrix": {**SPLIT_2X2, "epsilon": "@"}}), "Infinity"),
    "overflowing_epsilon": (
        minimal_spec(model={"split_matrix": {**SPLIT_2X2, "epsilon": "@"}}), "1e400"),
    "nan_abs_tol": (minimal_spec(tolerances={"abs_tol": "@"}), "NaN"),
    "huge_integer_entry": (minimal_spec(model={"matrix": [[["@", 0]]]}), "9" * 401),
    "infinite_box": (schro(L="@"), "Infinity"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SPECS))
def test_non_finite_spec_number_fails_with_spec_error(case, tmp_path, capsys):
    doc, token = NON_FINITE_SPECS[case]
    text = json.dumps(doc).replace('"@"', token)
    with pytest.raises(SpecError) as err:
        load_spec(io.StringIO(text))
    assert token[:12] in str(err.value)
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["validate", str(spec)]) == 2
    assert token[:12] in capsys.readouterr().err


def test_zero_tolerances_fail_with_spec_error(tmp_path, capsys):
    doc = minimal_spec(tolerances={"abs_tol": 0, "rel_tol": 0})
    with pytest.raises(SpecError, match=r"\$\.tolerances"):
        load_doc(doc)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["validate", str(spec)]) == 2
    assert "$.tolerances" in capsys.readouterr().err


def test_oversized_grid_fails_fast(tmp_path, capsys):
    load_doc(schro(N=2049))  # the largest grid in use still loads
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(schro(N=10**6)))
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main(["run", str(spec), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 2
    assert "$.model.schroedinger.N" in capsys.readouterr().err
    assert elapsed < 1.0
    assert not out.exists()


def step_doc(**kw):
    doc = json.loads(shipped("step_potential.json").read_text())
    doc["model"]["schroedinger"].update(kw)
    return doc


# each spec breaks one rule that the program, not the schema, enforces
HOSTILE_SPECS = {
    "vanishing_grid_spacing": (
        step_doc(L=1e-160, breakpoints=[-1e-161, 0.0, 1e-161]), "$.model.schroedinger"),
    "overflowing_grid_spacing": (step_doc(L=1e300), "$.model.schroedinger"),
    "boolean_entry": (minimal_spec(model={"matrix": [[[True, 0.0]]]}), "$.model.matrix[0][0][0]"),
    "string_entry": (minimal_spec(model={"matrix": [[[0.0, "1.5"]]]}), "$.model.matrix[0][0][1]"),
    "null_entry": (
        minimal_spec(model={"split_matrix": {
            "H0": SPLIT_2X2["H0"], "H1": [[[0.0, 0.0], [1.0, 0.0]], [[None, 0.0], [0.0, 0.0]]],
            "epsilon": 0.1}}),
        "$.model.split_matrix.H1[1][0][0]"),
    "short_pair": (minimal_spec(model={"matrix": [[[1.0]]]}), "$.model.matrix"),
    "long_pair": (minimal_spec(parity=[[[1.0, 0.0, 0.0]]]), "$.parity"),
    "ragged_rows": (
        minimal_spec(model={"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}), "$.model.matrix"),
    "non_square_rows": (
        minimal_spec(model={"matrix": [[[1.0, 0.0], [0.0, 0.0]]] * 3}), "$.model.matrix"),
    "too_many_rows": (
        minimal_spec(model={"matrix": [[[1.0, 0.0]]] * (MAX_GRID_POINTS + 1)}), "$.model.matrix"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_SPECS))
def test_hostile_spec_fails_with_spec_error_naming_the_path(case, tmp_path, capsys):
    doc, path = HOSTILE_SPECS[case]
    with pytest.raises(SpecError) as err:
        load_doc(doc)
    assert str(err.value).startswith(path + ":"), str(err.value)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["validate", str(spec)]) == 2
    assert f"error: {path}:" in capsys.readouterr().err


def test_matrix_entries_keep_their_bits():
    # the reference is the entry-by-entry complex(re, im) build
    rows = [[[-0.0, 0.0], [3, -7], [2**60 + 1, -(2**70)]],
            [[5e-324, -5e-324], [1e308, -1.7976931348623157e308], [0.1, -0.0]],
            [[1, 0], [-1, -0.0], [123456789012345678901234567890, 2.5]]]
    spec = load_doc(minimal_spec(model={"matrix": rows}))
    expected = np.array([[complex(a, b) for a, b in row] for row in rows])
    assert np.array_equal(spec.model.H.mat.view(np.uint64), expected.view(np.uint64))


def test_post_validation_parity():
    with pytest.raises(SpecError):
        load_doc(minimal_spec(parity="grid_reflection"))  # only for schroedinger
    with pytest.raises(SpecError):
        load_doc(minimal_spec(parity=[[[1.0, 0.0]]]))  # dim mismatch
    spec = load_doc(minimal_spec(parity=[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    assert spec.parity.dim == 2


def test_post_validation_duplicate_tasks():
    with pytest.raises(SpecError):
        load_doc(minimal_spec(tasks=[{"kind": "spectral"}, {"kind": "spectral"}]))


def test_post_validation_eps_list():
    with pytest.raises(SpecError):
        load_doc(
            minimal_spec(
                tasks=[
                    {"kind": "perturbative", "order": 1},
                    {"kind": "scaling", "eps_list": [0.1, 0.1, 0.05]},
                ]
            )
        )


def test_load_from_path_and_stream_agree(tmp_path):
    doc = minimal_spec()
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    a = load_spec(p)
    b = load_doc(doc)
    assert a.sha256 == b.sha256
    assert a.name == b.name
