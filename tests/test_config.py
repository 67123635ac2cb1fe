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
from pseudoherm.config import MAX_EPS_VALUES, MAX_GRID_POINTS
from pseudoherm.operators import IndexReversal


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
    assert step.parity == IndexReversal(129)
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
        ({}, "$: missing required field 'name'"),
        (minimal_spec(model={}), "$.model: must hold exactly one of"),
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
            "$.model: must hold exactly one of",
        ),
        (minimal_spec(extra=1), '$: unknown field "extra"'),
        (minimal_spec(tasks=[]), "$.tasks: must be a non-empty array"),
        (minimal_spec(tasks=[{"kind": "unknown"}]), "$.tasks[0]: must be an object whose kind is"),
        (minimal_spec(tasks=[{"kind": "perturbative"}]), "$.tasks[0]: missing required field 'order'"),
        (minimal_spec(tasks=[{"kind": "perturbative", "order": 9}]),
         "$.tasks[0].order: must be an integer >= 1 and <= 5, got 9"),
        (minimal_spec(model={"matrix": [[[1.0, 0.0, 0.0]]]}),
         "$.model.matrix: need 1 x 1 [re, im] pairs"),
        (minimal_spec(tolerances={"abs_tol": -1.0}), "$.tolerances.abs_tol: must be a number >= 0"),
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


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def split(**kw):
    return minimal_spec(model={"split_matrix": {**SPLIT_2X2, "epsilon": 0.1, **kw}})


def scaling(eps_list):
    return minimal_spec(tasks=[{"kind": "perturbative", "order": 1},
                               {"kind": "scaling", "eps_list": eps_list}])


def order(value):
    return minimal_spec(tasks=[{"kind": "perturbative", "order": value}])


def schro_without(key):
    doc = schro()
    del doc["model"]["schroedinger"][key]
    return doc


# one spec per structural rule of the reader, and the path its message starts with
STRUCTURE_SPECS = {
    "top_not_object": ([minimal_spec()], "$"),
    "missing_name": (without(minimal_spec(), "name"), "$"),
    "missing_model": (without(minimal_spec(), "model"), "$"),
    "missing_tasks": (without(minimal_spec(), "tasks"), "$"),
    "unknown_top_field": (minimal_spec(extra=1), "$"),
    "name_not_string": (minimal_spec(name=7), "$.name"),
    "name_empty": (minimal_spec(name=""), "$.name"),
    "model_not_object": (minimal_spec(model=[]), "$.model"),
    "model_empty": (minimal_spec(model={}), "$.model"),
    "model_two_variants": (
        minimal_spec(model={**minimal_spec()["model"], **schro()["model"]}), "$.model"),
    "model_unknown_variant": (minimal_spec(model={"hamiltonian": [[[1.0, 0.0]]]}), "$.model"),
    "matrix_empty": (minimal_spec(model={"matrix": []}), "$.model.matrix"),
    "matrix_not_array": (minimal_spec(model={"matrix": {"0": 1.0}}), "$.model.matrix"),
    "split_missing_epsilon": (
        minimal_spec(model={"split_matrix": dict(SPLIT_2X2)}), "$.model.split_matrix"),
    "split_unknown_field": (split(extra=0.0), "$.model.split_matrix"),
    "split_h0_empty": (split(H0=[]), "$.model.split_matrix.H0"),
    "split_epsilon_bool": (split(epsilon=True), "$.model.split_matrix.epsilon"),
    "split_epsilon_string": (split(epsilon="0.1"), "$.model.split_matrix.epsilon"),
    "schroedinger_missing_N": (schro_without("N"), "$.model.schroedinger"),
    "schroedinger_unknown_field": (schro(dx=0.1), "$.model.schroedinger"),
    "L_zero": (schro(L=0), "$.model.schroedinger.L"),
    "L_negative": (schro(L=-4.0), "$.model.schroedinger.L"),
    "N_below_16": (schro(N=15), "$.model.schroedinger.N"),
    "N_above_limit": (schro(N=MAX_GRID_POINTS + 1), "$.model.schroedinger.N"),
    "N_fractional": (schro(N=33.5), "$.model.schroedinger.N"),
    "N_bool": (schro(N=True), "$.model.schroedinger.N"),
    "breakpoints_empty": (schro(breakpoints=[]), "$.model.schroedinger.breakpoints"),
    "breakpoints_not_array": (schro(breakpoints=0.0), "$.model.schroedinger.breakpoints"),
    "breakpoint_not_number": (
        schro(breakpoints=[-1.0, None, 1.0]), "$.model.schroedinger.breakpoints[1]"),
    "values_single": (schro(values=[0.0]), "$.model.schroedinger.values"),
    "value_bool": (schro(values=[0.0, True, -1.0, 0.0]), "$.model.schroedinger.values[1]"),
    "schroedinger_epsilon_null": (schro(epsilon=None), "$.model.schroedinger.epsilon"),
    "parity_null": (minimal_spec(parity=None), "$.parity"),
    "parity_other_string": (minimal_spec(parity="reflection"), "$.parity"),
    "parity_empty": (minimal_spec(parity=[]), "$.parity"),
    "parity_object": (minimal_spec(parity={}), "$.parity"),
    "tasks_not_array": (minimal_spec(tasks={"kind": "spectral"}), "$.tasks"),
    "tasks_empty": (minimal_spec(tasks=[]), "$.tasks"),
    "task_not_object": (minimal_spec(tasks=["spectral"]), "$.tasks[0]"),
    "task_missing_kind": (minimal_spec(tasks=[{}]), "$.tasks[0]"),
    "task_unknown_kind": (minimal_spec(tasks=[{"kind": "unknown"}]), "$.tasks[0]"),
    "task_kind_not_string": (minimal_spec(tasks=[{"kind": ["spectral"]}]), "$.tasks[0]"),
    "task_unknown_field": (minimal_spec(tasks=[{"kind": "spectral", "order": 1}]), "$.tasks[0]"),
    "perturbative_missing_order": (minimal_spec(tasks=[{"kind": "perturbative"}]), "$.tasks[0]"),
    "order_zero": (order(0), "$.tasks[0].order"),
    "order_six": (order(6), "$.tasks[0].order"),
    "order_fractional": (order(2.5), "$.tasks[0].order"),
    "order_bool": (order(True), "$.tasks[0].order"),
    "order_string": (order("2"), "$.tasks[0].order"),
    "scaling_missing_eps_list": (
        minimal_spec(tasks=[{"kind": "perturbative", "order": 1}, {"kind": "scaling"}]),
        "$.tasks[1]"),
    "eps_list_two_items": (scaling([0.1, 0.05]), "$.tasks[1].eps_list"),
    "eps_list_not_array": (scaling(0.1), "$.tasks[1].eps_list"),
    "eps_list_zero": (scaling([0.1, 0.05, 0]), "$.tasks[1].eps_list[2]"),
    "eps_list_negative": (scaling([0.1, -0.05, -0.1]), "$.tasks[1].eps_list[1]"),
    "eps_list_bool": (scaling([0.1, 0.05, True]), "$.tasks[1].eps_list[2]"),
    "eps_list_above_limit": (
        scaling([0.1 / (k + 1) for k in range(MAX_EPS_VALUES + 1)]), "$.tasks[1].eps_list"),
    "tolerances_not_object": (minimal_spec(tolerances=[]), "$.tolerances"),
    "tolerances_unknown_field": (minimal_spec(tolerances={"tol": 1e-9}), "$.tolerances"),
    "abs_tol_negative": (minimal_spec(tolerances={"abs_tol": -1e-9}), "$.tolerances.abs_tol"),
    "rel_tol_string": (minimal_spec(tolerances={"rel_tol": "1e-8"}), "$.tolerances.rel_tol"),
    "rel_tol_bool": (minimal_spec(tolerances={"rel_tol": False}), "$.tolerances.rel_tol"),
}


# each spec breaks one rule, of the reader or of a rule's owner, and names its path
HOSTILE_SPECS = {
    **STRUCTURE_SPECS,
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


# spec texts nested past the parser's recursion limit, and a node nested
# deep enough that quoting it in a message would recurse; json.dumps cannot
# write either, so they are spelled out
DEEP_SPEC_TEXTS = {
    "deep_top_level": "[" * 100000 + "]" * 100000,
    "deep_field": json.dumps(schro()).replace(
        '"breakpoints": [-1.0, 0.0, 1.0]', '"breakpoints": [' + "[" * 990 + "]" * 990 + "]"),
}


@pytest.mark.parametrize("case", sorted(DEEP_SPEC_TEXTS))
def test_deeply_nested_spec_fails_with_spec_error(case, tmp_path, capsys):
    text = DEEP_SPEC_TEXTS[case]
    assert "[" * 990 in text
    with pytest.raises(SpecError, match=r"^\$: arrays or objects are nested too deeply"):
        load_spec(io.StringIO(text))
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["validate", str(spec)]) == 2
    assert "error: $: arrays or objects are nested too deeply" in capsys.readouterr().err


# the longest name whose longest report file, <name>_spectral_spectrum.csv or
# <name>_wave_kernel_slice.csv, fits in 255 bytes
LONGEST_NAME_BYTES = 255 - len("_spectral_spectrum.csv")


@pytest.mark.parametrize(
    "name",
    ["n" * 300, "\ud800", "n" * (LONGEST_NAME_BYTES + 1), "\u00e9" * (LONGEST_NAME_BYTES // 2 + 1)],
    ids=["300_characters", "lone_surrogate", "one_byte_over", "one_byte_over_in_two_byte_characters"],
)
def test_spec_name_the_file_system_cannot_take_is_refused(name, tmp_path, capsys, monkeypatch):
    doc = minimal_spec(name=name)
    with pytest.raises(SpecError, match=r"^\$\.name:"):
        load_doc(doc)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    monkeypatch.setattr("pseudoherm.cli.run_model_spec", lambda *a, **k: pytest.fail("a task ran"))
    out = tmp_path / "out"
    for fmt in ("json", "csv"):
        assert main(["run", str(spec), "--out", str(out), "--format", fmt]) == 2
        assert "error: $.name:" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", str(spec)]) == 2
    assert "error: $.name:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["n" * LONGEST_NAME_BYTES, "\u00e9" * (LONGEST_NAME_BYTES // 2) + "n"],
    ids=["one_byte_characters", "two_byte_characters"],
)
def test_longest_accepted_spec_name_writes_its_report(name, tmp_path):
    assert len(name.encode("utf-8")) == LONGEST_NAME_BYTES
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(minimal_spec(name=name)))
    for fmt, suffix in (("json", "_report.json"), ("csv", "_spectral_spectrum.csv")):
        out = tmp_path / fmt
        assert main(["run", str(spec), "--out", str(out), "--format", fmt]) == 0
        assert [p.name for p in out.iterdir()] == [name + suffix]
    assert len((name + "_spectral_spectrum.csv").encode("utf-8")) == 255


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
    # the reader resolves the grid reflection to the index flip of the model's N
    assert load_doc({**schro(N=40), "parity": "grid_reflection"}).parity == IndexReversal(40)


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


# specs on the edge of each range rule, and what the reader makes of them
ACCEPTED_SPECS = {
    "N_16": (schro(N=16), lambda s: s.model.N == 16),
    "N_at_limit": (schro(N=MAX_GRID_POINTS), lambda s: s.model.N == MAX_GRID_POINTS),
    "N_integral_float": (schro(N=33.0), lambda s: type(s.model.N) is int and s.model.N == 33),
    "order_1": (order(1), lambda s: s.tasks[0].order == 1),
    "order_5": (order(5), lambda s: s.tasks[0].order == 5),
    "order_integral_float": (
        order(2.0), lambda s: type(s.tasks[0].order) is int and s.tasks[0].order == 2),
    "eps_list_three_items": (scaling([0.1, 0.05, 1e-300]),
                             lambda s: s.tasks[1].eps_list == (0.1, 0.05, 1e-300)),
    "eps_list_at_limit": (scaling([0.1 / (k + 1) for k in range(MAX_EPS_VALUES)]),
                          lambda s: len(s.tasks[1].eps_list) == MAX_EPS_VALUES),
    "zero_abs_tol": (minimal_spec(tolerances={"abs_tol": 0, "rel_tol": 1e-8}),
                     lambda s: s.tolerance.abs_tol == 0.0 and s.tolerance.rel_tol == 1e-8),
    "parity_matrix": (
        minimal_spec(parity=[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]),
        lambda s: np.array_equal(s.parity.mat, [[0, 1], [1, 0]])),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED_SPECS))
def test_boundary_spec_loads(case, tmp_path, capsys):
    doc, check = ACCEPTED_SPECS[case]
    assert check(load_doc(doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["validate", str(spec)]) == 0
    assert capsys.readouterr().out.startswith("OK: t ")


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "nul\0", ".", ".."])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spec_name_that_is_a_path_is_refused(name, fmt, tmp_path, capsys):
    doc = minimal_spec(name=name)
    with pytest.raises(SpecError, match=r"^\$\.name:"):
        load_doc(doc)
    work = tmp_path / "work"
    work.mkdir()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = work / "out"
    assert main(["run", str(spec), "--out", str(out), "--format", fmt]) == 2
    assert "error: $.name:" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    assert main(["validate", str(spec)]) == 2
    assert "error: $.name:" in capsys.readouterr().err
