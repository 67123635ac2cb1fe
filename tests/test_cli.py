import dataclasses
import io
import json
import sys
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from pseudoherm import (
    SchroedingerModel,
    SplitHamiltonian,
    Tolerance,
    biorthonormal_eigensystem,
    canonical_json,
    discretize_schroedinger,
    equivalent_hermitian,
    load_spec,
    metric_from_series,
    run_model_spec,
    solve_q_series,
    spectral_metric,
)
from pseudoherm import errors, operators, perturbation, pipeline, spectral
from pseudoherm.cli import main
from pseudoherm.config import PerturbativeTask, ScalingTask, SpectralTask, WaveTask
from pseudoherm.operators import IndexReversal
from pseudoherm.perturbation import NOISE_FLOOR

from helpers import fixed_split, positive_definite, run_cli, run_python, spectrum_is_real


def shipped(name):
    return str(resources.files("pseudoherm") / "specs" / name)


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


COMPLEX_SPECTRUM = {
    "name": "rotator",
    "model": {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]},
    "tasks": [{"kind": "spectral"}],
}


def test_run_model_spec_report_shape():
    spec = load_spec(shipped("pt_toy_2x2.json"))
    report = run_model_spec(spec, seed=3)
    assert report["name"] == "pt_toy_2x2"
    assert report["all_passed"] is True
    assert report["provenance"]["seed"] == 3
    assert report["provenance"]["spec_sha256"] == spec.sha256
    (task,) = report["tasks"]
    assert task["task"] == "spectral"
    assert task["ok"] is True
    verdict_names = {v["name"] for v in task["verdicts"]}
    assert "pseudo_hermiticity_residual" in verdict_names
    assert all(set(v) == {"name", "value", "threshold", "ok"} for v in task["verdicts"])
    # swap-parity toy: C-operator diagnostics present with the commutation verdict
    assert "c_operator" in task["data"]
    # spectrum {0, sqrt(3)}
    eigs = sorted(re for re, _ in task["data"]["spectrum"])
    assert abs(eigs[0]) < 1e-12
    assert abs(eigs[1] - np.sqrt(3)) < 1e-12


def test_run_model_spec_task_error_captured(tmp_path):
    spec = load_spec(write_spec(tmp_path, COMPLEX_SPECTRUM))
    report = run_model_spec(spec)
    (task,) = report["tasks"]
    assert task["ok"] is False
    assert "RealityError" in task["error"]
    assert report["all_passed"] is False


def test_run_model_spec_scaling_requires_perturbative(tmp_path):
    doc = {
        "name": "bad_order",
        "model": {
            "split_matrix": {
                "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
                "epsilon": 0.1,
            }
        },
        "tasks": [{"kind": "scaling", "eps_list": [0.1, 0.05, 0.025]}],
    }
    report = run_model_spec(load_spec(write_spec(tmp_path, doc)))
    (task,) = report["tasks"]
    assert task["ok"] is False
    assert "perturbative" in task["error"]


def test_scaling_names_the_failed_perturbative_task(tmp_path):
    # H1 = diag(i, -i) has weight on H0's diagonal, so Q_1 has no solution
    doc = {
        "name": "obstructed",
        "model": {
            "split_matrix": {
                "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]],
                "epsilon": 0.1,
            }
        },
        "tasks": [
            {"kind": "perturbative", "order": 2},
            {"kind": "scaling", "eps_list": [0.1, 0.05, 0.025]},
        ],
    }
    perturbative, scaling = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"]
    assert perturbative["error"].startswith("ObstructionError")
    assert scaling["error"].startswith("DomainError")
    assert "perturbative task failed with ObstructionError" in scaling["error"]


def test_scaling_on_an_exact_metric_reads_the_noise_floor(tmp_path):
    # H1 = 0 makes every Q_m zero and eta = I exact, so the residual is 0.0
    # at every eps: the slope's fit is indeterminate, the record carries
    # curve_slope's warning, and the verdict reads the residual against the
    # noise floor instead of the slope
    doc = {
        "name": "exact",
        "model": {
            "split_matrix": {
                "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "epsilon": 0.1,
            }
        },
        "tasks": [
            {"kind": "perturbative", "order": 2},
            {"kind": "scaling", "eps_list": [0.1, 0.05, 0.025]},
        ],
    }
    scaling = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"][1]
    assert scaling["data"]["curve"] == [[0.1, 0.0], [0.05, 0.0], [0.025, 0.0]]
    (verdict,) = scaling["verdicts"]
    assert verdict["name"] == "residual_order_contract"
    assert (verdict["value"], verdict["threshold"], verdict["ok"]) == (0.0, NOISE_FLOOR, True)
    (warning,) = scaling["data"]["warnings"]
    assert warning.startswith("residuals reach the noise floor")


def test_matrix_model_refuses_the_split_and_grid_tasks(tmp_path, capsys):
    # a plain matrix has no H0 + eps*H1 split and no grid: the spec loads, the
    # spectral task passes, and each task that needs more fails with its own error
    doc = json.loads(Path(shipped("pt_toy_2x2.json")).read_text())
    doc["tasks"] = [{"kind": "spectral"}, {"kind": "perturbative", "order": 2},
                    {"kind": "scaling", "eps_list": [0.1, 0.05, 0.025]}, {"kind": "wave"}]
    spec_file = write_spec(tmp_path, doc)
    assert main(["validate", spec_file]) == 0
    assert main(["run", spec_file, "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "pt_toy_2x2_report.json").read_text())
    spectral, perturbative, scaling, wave = report["tasks"]
    assert spectral["ok"] and spectral["error"] is None
    assert perturbative["error"].startswith(
        "PseudohermError: this task needs an H0 + eps*H1 split")
    assert scaling["error"] == ("DomainError: scaling needs the perturbative series, but "
                                "the perturbative task failed with PseudohermError")
    assert wave["error"] == "PseudohermError: the wave task applies only to schroedinger models"
    assert not any(r["ok"] for r in (perturbative, scaling, wave))


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_nonhermitian_split_near_the_float_limit_names_the_rule(big, tmp_path):
    # H0 - H0^dagger overflows here; the check must still report the rule
    doc = {
        "name": "huge",
        "model": {
            "split_matrix": {
                "H0": [[[1.0, 0.0], [big, 0.0]], [[-big, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
                "epsilon": 0.1,
            }
        },
        "tasks": [{"kind": "perturbative", "order": 1}],
    }
    (task,) = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"]
    assert task["error"] == "StructureError: H0 must be Hermitian"
    h1 = np.array([[0.0, big], [big, 0.0]])  # Hermitian, so H1 = h1 is not anti-Hermitian
    with pytest.raises(errors.StructureError, match="H1 must be anti-Hermitian"):
        SplitHamiltonian(operators.Operator(np.eye(2)), operators.Operator(h1), 0.1)


def test_run_model_spec_deterministic():
    spec = load_spec(shipped("step_potential.json"))
    a = canonical_json(run_model_spec(spec, seed=0))
    b = canonical_json(run_model_spec(spec, seed=0))
    assert a == b


def test_run_model_spec_factorizes_once(linalg_counter):
    # one eig (spectrum) and one svd of its real eigenvectors W = U Sigma V^T,
    # which give the conditioning, eta = S U Sigma^-2 U^T S^dagger with its
    # range, rho, h, C = eta^(-1) J and the left eigenvectors, with no inv or
    # solve; one eigh each for H0 and the four distinct e^(-Q(eps)) (the
    # scaling curve reuses the perturbative task's eps = 0.1); no second look
    # at a spectrum already computed. The grid H and Q(eps) are PT-symmetric,
    # so every factorization runs real.
    report = run_model_spec(load_spec(shipped("step_potential.json")))
    assert report["all_passed"] is True
    got = dict(linalg_counter)
    assert got.get("eig", 0) == 1
    assert linalg_counter.dtypes["svd"] == [np.dtype(float)]
    assert got.get("eigh", 0) <= 5
    assert got.get("solve", 0) == got.get("inv", 0) == 0, got
    assert got.get("eigvals", 0) == got.get("eigvalsh", 0) == got.get("cond", 0) == 0, got
    assert sum(linalg_counter.complex_calls(name) for name in got) == 0


def test_spectral_task_memory_at_n513():
    # at N = 513 a complex N x N matrix is 4.2 MB. The spectral task holds H,
    # the metric and the real factor U of the eigenvectors, drops the system
    # with its V^T once it has read the spectrum and the defects, and forms
    # no psi or phi: its traced peak stays under 39.4 MB, the peak of
    # the route that held psi and phi and took the complex inv, phi phi^dagger
    # and eigh of eta. The parity is the grid reflection J of the model's 513
    # points (19.1 MB measured)
    spec = load_spec(shipped("step_potential.json"))
    model = dataclasses.replace(spec.model, N=513)
    spec = dataclasses.replace(spec, model=model, parity=IndexReversal(513), tasks=(SpectralTask(),))
    ctx = pipeline._RunContext(spec, 0)
    verdicts = []
    tracemalloc.start()
    try:
        pipeline._spectral_task(ctx, verdicts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(v["ok"] for v in verdicts) and len(verdicts) == 4
    assert peak < 39_400_000


def test_perturbative_and_scaling_memory_at_n513():
    # at N = 513 a real N x N matrix is 2.1 MB. On the grid the perturbative
    # and scaling tasks hold Q_1, Q_2 and each R_m as real matrices, sum them
    # into the real and imaginary parts of one complex Q(eps), map it to its
    # real frame matrix, keep each metric as its frame matrix and take every
    # rule in row blocks: their traced peak (12.9 MB measured) stays under
    # 16 MB, below the spectral task's (21 MB measured). The complex route,
    # with its complex Q_m, R_m, Q(eps) and eta and whole-matrix rules,
    # peaked at 27.6 MB
    spec = load_spec(shipped("step_potential.json"))
    spec = dataclasses.replace(spec, model=dataclasses.replace(spec.model, N=513))
    pert, scaling = (next(t for t in spec.tasks if isinstance(t, kind))
                     for kind in (PerturbativeTask, ScalingTask))
    ctx = pipeline._RunContext(spec, 0)
    ctx.get_split()
    verdicts = []
    tracemalloc.start()
    try:
        pipeline._perturbative_task(ctx, pert, verdicts)
        pipeline._scaling_task(ctx, scaling, verdicts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [v["ok"] for v in verdicts] == [True] * 5
    assert peak < 16_000_000


def test_wave_task_memory_at_n2049():
    # M would be a 67 MB complex matrix at N = 2049. The whole wave task never
    # forms it: the check and the threshold's |M| both read kernel_rows' fill
    # in row blocks, real ones for the bare kernel (3.4 MB measured, 5.1 MB
    # with the complex fill; forming M made it 76 MB)
    N = 2049
    spec = load_spec(shipped("step_potential.json"))
    model = dataclasses.replace(spec.model, N=N)
    spec = dataclasses.replace(spec, model=model, tasks=(WaveTask(),))
    ctx = pipeline._RunContext(spec, 0)
    verdicts = []
    tracemalloc.start()
    try:
        pipeline._wave_task(ctx, verdicts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [v["ok"] for v in verdicts] == [True] * 3
    assert peak < 16_000_000


def _spectral_data(report):
    return next(t for t in report["tasks"] if t["task"] == "spectral")["data"]


def test_run_model_spec_builds_no_dense_h_or_j_beyond_the_eig(monkeypatch):
    # with grid_reflection nothing asks for the dense grid H: the eig and h
    # read the split's own frame matrix, |H| and the parity residual
    # H^dagger J - J H its O(N) data, every other product with H is a
    # stencil, and grid_reflection is the index flip J, which no Operator
    # holds
    totals = []
    real_total = SplitHamiltonian.total
    monkeypatch.setattr(SplitHamiltonian, "total",
                        lambda self: totals.append(self) or real_total(self))
    made = []
    real_init = operators.Operator.__post_init__
    monkeypatch.setattr(operators.Operator, "__post_init__",
                        lambda self: real_init(self) or made.append(self.mat))
    report = run_model_spec(load_spec(shipped("step_potential.json")))
    assert report["all_passed"] is True
    assert "c_operator" in _spectral_data(report)
    assert totals == []
    j = np.eye(129)[::-1]
    assert not any(m.shape == j.shape and np.array_equal(m, j) for m in made)


def test_grid_run_without_parity_builds_no_dense_h(monkeypatch):
    # without a parity nothing asks for the dense grid H: the spectral task
    # reads the split's frame matrix and norm, and the products are stencils
    totals = []
    real_total = SplitHamiltonian.total
    monkeypatch.setattr(SplitHamiltonian, "total",
                        lambda self: totals.append(self) or real_total(self))
    spec = load_spec(shipped("step_potential.json"))
    report = run_model_spec(dataclasses.replace(spec, parity=None))
    assert report["all_passed"] is True
    assert "c_operator" not in _spectral_data(report)
    assert totals == []


@pytest.mark.parametrize("parity", [False, True])
def test_dense_split_spectral_task_builds_its_h_once(parity, monkeypatch, tmp_path):
    # a split_matrix model's spectral task takes H = split.total() once and
    # reads it for the eig, the bound, the residual, h and the parity checks;
    # it was rebuilt for each, 5 times without a parity and 8 with one
    totals = []
    real_total = SplitHamiltonian.total
    monkeypatch.setattr(SplitHamiltonian, "total",
                        lambda self: totals.append(self) or real_total(self))
    split = fixed_split(16, seed=0)

    def pairs(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    doc = {
        "name": "dense_split",
        "model": {"split_matrix": {"H0": pairs(split.H0.mat), "H1": pairs(split.H1.mat),
                                   "epsilon": split.epsilon}},
        "tasks": [{"kind": "spectral"}],
    }
    if parity:
        # the pair's sign parity: [H0, P] = 0 and {H1, P} = 0, so H^dagger P = P H
        doc["parity"] = pairs(np.diag(np.where(np.arange(16) % 2, -1.0, 1.0)))
    (task,) = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"]
    assert task["ok"] is True
    assert ("c_operator" in task["data"]) is parity
    assert len(totals) == 1


@pytest.mark.parametrize("abs_tol", [None, 1.0])
def test_run_model_spec_without_parity_stays_complex(abs_tol, linalg_counter):
    # random_real_spectrum is not PT-symmetric under the index reversal, and a
    # loose --tol does not change which matrices enter the real frame. Its
    # spectral task factorizes as the frame route does, in complex
    # arithmetic: one eig, one svd of the eigenvectors, and nothing else
    spec = load_spec(shipped("random_real_spectrum.json"))
    if abs_tol is not None:
        spec = dataclasses.replace(spec, tolerance=Tolerance(abs_tol, spec.tolerance.rel_tol))
    run_model_spec(spec)
    assert linalg_counter["eig"] == linalg_counter.complex_calls("eig") == 1
    assert linalg_counter["svd"] == linalg_counter.complex_calls("svd") == 1
    assert dict(linalg_counter) == {"eig": 1, "svd": 1}


def test_scaling_reuses_the_perturbative_metric(monkeypatch):
    # step_potential's eps = 0.1 is also its eps_list[0]: e^(-Q(0.1)) is built once
    calls = []
    real = perturbation.metric_from_series
    monkeypatch.setattr(perturbation, "metric_from_series",
                        lambda q, e: calls.append(float(e)) or real(q, e))
    monkeypatch.setattr(pipeline, "metric_from_series", perturbation.metric_from_series)
    report = run_model_spec(load_spec(shipped("step_potential.json")))
    assert sorted(calls) == [0.0125, 0.025, 0.05, 0.1]
    perturbative, scaling = report["tasks"][1:3]
    assert scaling["data"]["curve"][0] == [0.1, perturbative["data"]["metric_residual_at_epsilon"]]


def test_run_model_spec_checks_each_order_once(monkeypatch):
    # order 2: R_1 needs no commutator and R_2 three; no second expansion of
    # the order sums. The grid split takes [H0, .] and [H1, .] itself (on the
    # grid's real terms, [H1, .] / i), so its entry points count too: the
    # chain sum asks for one [H0, A_1], one [H1, A_1] / i and one commutator.
    # Every [H0, .] is one pass over row blocks, counted by the function that
    # starts it, one block per 32 of the rows it takes: each order's check
    # [H0, Q_m] - R_m takes the N = 129 rows (5 blocks), and so do each of
    # the 5 residuals H^dagger eta - eta H, the one [C, H] and the wave
    # task's off-band check, which keeps rows [3, N - 3) of its blocks. Each
    # pass holds one scratch for all its blocks: 10 in all, where a scratch
    # per block of the residuals and [C, H] made 34.
    calls, blocks, scratches = Counter(), Counter(), []

    def counted(f):
        def call(*args):
            calls[sys._getframe(1).f_code.co_name] += 1
            return f(*args)
        return call

    def counted_pass(f):
        def start(*args):  # not a generator itself, so that its caller is the pass's starter
            caller = sys._getframe(1).f_code.co_name
            calls[f"{caller} pass"] += 1

            def run():
                for block in f(*args):
                    blocks[caller] += 1
                    yield block
            return run()
        return start

    for module in (operators, perturbation):
        monkeypatch.setattr(module, "commutator", counted(module.commutator))
    for name in ("h0_commutator", "h1_commutator", "h1_commutator_real"):
        monkeypatch.setattr(SplitHamiltonian, name, counted(getattr(SplitHamiltonian, name)))
    monkeypatch.setattr(SplitHamiltonian, "_h0_pass", counted_pass(SplitHamiltonian._h0_pass))
    work = operators._stencil_work
    monkeypatch.setattr(operators, "_stencil_work", lambda *args: scratches.append(1) or work(*args))
    report = run_model_spec(load_spec(shipped("step_potential.json")))
    assert report["all_passed"] is True
    assert blocks == {"adjoint_residual": 5 * 5, "total_commutator": 5, "_solved_residual": 2 * 5,
                      "h0_commutator": 5, "offdiagonal_commutator_check": 5}
    assert calls == {"_chain_sum": 3, "adjoint_residual pass": 5, "total_commutator pass": 1,
                     "_solved_residual pass": 2, "h0_commutator pass": 1,
                     "offdiagonal_commutator_check pass": 1}
    assert len(scratches) == 10


@pytest.mark.parametrize(
    "name", ["step_potential.json", "pt_toy_2x2.json", "random_real_spectrum.json"]
)
def test_report_spectrum_is_real_matches_spectrum_is_real(name):
    spec = load_spec(shipped(name))
    report = run_model_spec(spec)
    task = next(r for r in report["tasks"] if r["task"] == "spectral")
    m = spec.model
    if isinstance(m, SchroedingerModel):
        H = discretize_schroedinger(m.potential, m.L, m.N, m.epsilon).total()
    else:
        H = m.H
    assert task["data"]["spectrum_is_real"] is spectrum_is_real(H.mat, spec.tolerance)


def _nonnormal_spec(tmp_path, t):
    doc = {
        "name": "nonnormal",
        "model": {"matrix": [[[1.0, 0.0], [t, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
        "tasks": [{"kind": "spectral"}],
    }
    return load_spec(write_spec(tmp_path, doc))


def test_spectral_task_singular_metric_threshold(tmp_path):
    # H = [[1, t], [0, 2]]: eta's range is about (1/2, 2t^2). An SVD of the
    # formed eta calls it singular from t = 5000 on this grid, and the spectral
    # task, which decides from eta's known range, must fail from the same t.
    ts = [1e3, 4e3, 4.9e3, 4.99e3, 5.0e3, 5.01e3, 5.1e3, 6e3, 2e4, 1e5, 1e7]
    singular = [False] * 4 + [True] * 7
    for t, expect in zip(ts, singular):
        spec = _nonnormal_spec(tmp_path, t)
        eta = spectral_metric(biorthonormal_eigensystem(spec.model.H))
        sv = np.linalg.svd(eta.mat, compute_uv=False)
        assert bool(sv[-1] <= spec.tolerance.bound(sv[0])) is expect
        error = run_model_spec(spec)["tasks"][0]["error"]
        assert (error or "").startswith("InvertibilityError") is expect, (t, error)


def _stiff_split_spec(tmp_path, a):
    # H0 = diag(1, 2), H1 = a [[0, 1], [-1, 0]], eps = 1: Q_1 has eigenvalues
    # +-2a, so eta = e^(-Q) spans (e^(-2a), e^(2a))
    doc = {
        "name": "stiff",
        "model": {
            "split_matrix": {
                "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 0.0], [a, 0.0]], [[-a, 0.0], [0.0, 0.0]]],
                "epsilon": 1.0,
            }
        },
        "tasks": [{"kind": "perturbative", "order": 1}],
    }
    return load_spec(write_spec(tmp_path, doc))


def test_perturbative_metric_not_positive_definite_verdict(tmp_path):
    spec = _stiff_split_spec(tmp_path, 4.0)  # smallest eigenvalue e^-8 = 3.4e-4
    tol = Tolerance(1e-3, spec.tolerance.rel_tol)
    (task,) = run_model_spec(dataclasses.replace(spec, tolerance=tol))["tasks"]
    assert task["error"] is None
    verdict = next(v for v in task["verdicts"] if v["name"] == "metric_positive_definite")
    m = spec.model
    split = SplitHamiltonian(m.H0, m.H1, m.epsilon)
    eta = metric_from_series(solve_q_series(split, 1, tol=tol), m.epsilon)
    assert verdict["ok"] is False
    assert verdict["ok"] is positive_definite(eta.mat, tol)
    assert verdict["value"] == pytest.approx(np.exp(-8.0), rel=1e-12)


def test_perturbative_singular_metric_recorded(tmp_path):
    # e^-30 = 9e-14: eta is singular, and the task stops at its residual;
    # the verdicts decided before that stay in the record
    (task,) = run_model_spec(_stiff_split_spec(tmp_path, 15.0))["tasks"]
    assert task["ok"] is False
    assert task["error"].startswith("InvertibilityError")
    names = [v["name"] for v in task["verdicts"]]
    assert names == ["order_1_residual", "q_terms_hermitian", "metric_positive_definite"]
    verdict = task["verdicts"][-1]
    assert verdict["ok"] is False
    assert verdict["value"] < 1e-12


def test_spectral_verdicts_kept_when_c_operator_raises(tmp_path):
    doc = json.loads(Path(shipped("pt_toy_2x2.json")).read_text())
    doc["parity"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # P^2 != I
    (task,) = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"]
    assert task["ok"] is False
    assert task["error"].startswith("StructureError")
    assert [v["name"] for v in task["verdicts"]] == [
        "pseudo_hermiticity_residual",
        "equivalent_hermitian_defect",
        "completeness_defect",
    ]
    assert all(v["ok"] for v in task["verdicts"])
    assert task["data"] == {}


def test_spectral_task_measures_its_residual_once(monkeypatch):
    calls = []
    real = spectral.pseudo_hermiticity_residual

    def counted(H, eta):
        calls.append(1)
        return real(H, eta)

    for module in (spectral, pipeline):
        monkeypatch.setattr(module, "pseudo_hermiticity_residual", counted)
    spec = load_spec(shipped("pt_toy_2x2.json"))
    (task,) = run_model_spec(spec)["tasks"]
    assert task["ok"] is True
    assert len(calls) == 1
    # a residual over its threshold: the failing verdict is recorded first,
    # then the task ends in equivalent_hermitian's ResidualError
    for module in (spectral, pipeline):
        monkeypatch.setattr(module, "pseudo_hermiticity_threshold", lambda H, eta: -1.0)
    (task,) = run_model_spec(spec)["tasks"]
    assert [(v["name"], v["ok"]) for v in task["verdicts"]] == [
        ("pseudo_hermiticity_residual", False)
    ]
    H = spec.model.H
    with pytest.raises(errors.ResidualError) as raised:
        equivalent_hermitian(H, spectral_metric(biorthonormal_eigensystem(H)))
    assert task["error"] == f"ResidualError: {raised.value}"


def _step_case(name, tasks, **schroedinger):
    doc = json.loads(Path(shipped("step_potential.json")).read_text())
    doc["model"]["schroedinger"].update(schroedinger)
    return {**doc, "name": name, "tasks": tasks}


# schema-valid specs whose numbers overflow at run time: (spec, the failing
# task, the verdicts it decided before the overflow)
OVERFLOW_SPECS = {
    "metric_exponential": (
        _step_case("eps", [{"kind": "perturbative", "order": 1}], epsilon=1e300),
        "perturbative", ["order_1_residual", "q_terms_hermitian"]),
    "series_power": (
        {
            "name": "split",
            "model": {"split_matrix": {
                "H0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                "H1": [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
                "epsilon": 1e308,
            }},
            "tasks": [{"kind": "spectral"}, {"kind": "perturbative", "order": 2}],
        },
        "perturbative", ["order_1_residual", "order_2_residual", "q_terms_hermitian"]),
    "wave_commutator": (
        _step_case("wave", [{"kind": "wave"}], values=[0.0, 1e308, -1e308, 0.0]),
        "wave", ["kernel_hermiticity_defect", "jump_condition_defect"]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_SPECS))
def test_run_time_overflow_is_a_typed_task_error(case, tmp_path):
    # the typed error is the only report of the overflow: numpy prints no
    # RuntimeWarning on stderr
    doc, failing, kept = OVERFLOW_SPECS[case]
    out = tmp_path / "out"
    proc = run_cli(["run", write_spec(tmp_path, doc), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads((out / f"{doc['name']}_report.json").read_text())
    task = next(r for r in report["tasks"] if r["task"] == failing)
    error_class = getattr(errors, task["error"].split(":")[0])
    assert issubclass(error_class, errors.PseudohermError)
    assert error_class is not errors.PseudohermError
    assert [v["name"] for v in task["verdicts"]] == kept


def test_scaling_names_an_overflowing_epsilon_power(tmp_path):
    # the scaling task reaches metric_from_series with numpy float64s: 1e200^2
    # is named as the perturbative task names it, not as the NaN an inf power
    # leaves in Q(eps)
    tasks = [{"kind": "perturbative", "order": 2},
             {"kind": "scaling", "eps_list": [1e200, 1e190, 1e180]}]
    doc = _step_case("scale", tasks, N=33)
    perturbative, scaling = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"]
    assert perturbative["ok"] is True
    assert scaling["error"] == "NonFiniteError: epsilon^2 overflows at epsilon = 1e+200"


def test_an_overflowed_kernel_row_block_is_named(tmp_path):
    # on a box of half-width L = 1e3 at N = 64, dx is 31.7, and F dx =
    # (i/2) V dx overflows wherever |V| reaches 1e308, as it does in row 0:
    # the error names M and the row block, and the verdicts decided before
    # it stay in the record
    doc = _step_case("wide", [{"kind": "wave"}], L=1e3, N=64, values=[0.0, 1e308, -1e308, 0.0])
    (task,) = run_model_spec(load_spec(write_spec(tmp_path, doc)))["tasks"]
    assert task["error"] == (
        "NonFiniteError: max-norm of the kernel matrix M, rows 0:32 of 64, is inf: "
        "an entry overflowed"
    )
    assert [v["name"] for v in task["verdicts"]] == [
        "kernel_hermiticity_defect", "jump_condition_defect"
    ]


def test_wide_box_wave_task_samples_the_jump_on_the_kernel_box(tmp_path):
    # on a box of half-width L = 1e14, x + 1e-3 and x - 1e-3 round to one
    # float for most x in (-(L - 1), L - 1): sampled there, the jump read 0
    # and the verdict failed with value 1.0. The kernel's own box is where
    # the potential's steps lie, at every L
    spec = load_spec(write_spec(tmp_path, _step_case("wide", [{"kind": "wave"}], L=1e14)))
    report = run_model_spec(spec)
    jump = next(v for v in report["tasks"][0]["verdicts"] if v["name"] == "jump_condition_defect")
    assert jump["ok"] is True and jump["value"] <= 1e-12


def test_scaling_noise_floor_warning_goes_into_the_record(tmp_path):
    # at L = 1e14 the residuals reach the noise floor and curve_slope warns:
    # the message is in the scaling record, and nothing reaches stderr. A
    # metric exact to rounding at every eps meets the order contract, so the
    # verdict reads the largest residual against the floor and the run passes
    tasks = [{"kind": "perturbative", "order": 2},
             {"kind": "scaling", "eps_list": [0.1, 0.05, 0.025, 0.0125]}]
    doc = _step_case("wide", tasks, L=1e14)
    out = tmp_path / "out"
    proc = run_cli(["run", write_spec(tmp_path, doc), "--out", str(out)])
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    scaling = json.loads((out / "wide_report.json").read_text())["tasks"][1]
    assert scaling["verdicts"] == [
        {"name": "residual_order_contract", "ok": True, "value": 0.0, "threshold": 1e-13}
    ]
    assert scaling["data"]["warnings"] == [
        "residuals reach the noise floor (min 0.000e+00); scaling slope is indeterminate"
    ]
    # a run whose fit is determinate records no warnings
    report = run_model_spec(load_spec(shipped("step_potential.json")))
    assert "warnings" not in report["tasks"][2]["data"]


def _floats_masked(doc):
    if isinstance(doc, float):
        return float
    if isinstance(doc, dict):
        return {k: _floats_masked(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_floats_masked(v) for v in doc]
    return doc


def test_cli_report_thread_count_contract(tmp_path):
    # same spec, seed, tolerance and BLAS thread count: byte-identical reports;
    # across thread counts only numeric values may move (by rounding)
    spec = shipped("step_potential.json")
    reports = {}
    for run, threads in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / run
        proc = run_cli(["run", spec, "--out", str(out), "--seed", "0"], blas_threads=threads)
        assert proc.returncode == 0, proc.stderr
        reports[run] = (out / "step_potential_report.json").read_bytes()
    assert reports["a"] == reports["b"]
    # verdict names, ok flags, errors and all other non-float fields included
    one, two = (json.loads(reports[r]) for r in ("a", "c"))
    assert _floats_masked(one) == _floats_masked(two)


def test_cli_run_writes_report(tmp_path, capsys):
    rc = main(["run", shipped("pt_toy_2x2.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "pt_toy_2x2_report.json").exists()
    assert "task spectral: ok" in out


def test_cli_run_csv_format(tmp_path):
    rc = main(["run", shipped("random_real_spectrum.json"), "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    assert (tmp_path / "random_real_spectrum_spectral_spectrum.csv").exists()


def test_cli_run_seed_changes_provenance(tmp_path):
    main(["run", shipped("pt_toy_2x2.json"), "--out", str(tmp_path / "a"), "--seed", "7"])
    doc = json.loads((tmp_path / "a" / "pt_toy_2x2_report.json").read_text())
    assert doc["provenance"]["seed"] == 7


def test_cli_run_tol_override(tmp_path):
    rc = main(["run", shipped("pt_toy_2x2.json"), "--out", str(tmp_path), "--tol", "1e-9"])
    assert rc == 0
    doc = json.loads((tmp_path / "pt_toy_2x2_report.json").read_text())
    assert doc["provenance"]["tolerance"]["abs_tol"] == 1e-9


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "abc"])
def test_cli_run_rejects_bad_tol(tmp_path, capsys, tol):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["run", shipped("pt_toy_2x2.json"), "--out", str(out), f"--tol={tol}"])
    assert exit_.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
def test_cli_run_rejects_bad_seed(tmp_path, capsys, seed):
    # numpy's generator takes no negative seed: argparse refuses it before the run
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["run", shipped("pt_toy_2x2.json"), "--out", str(out), "--seed", seed])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_zero_tol_when_rel_tol_is_zero(tmp_path, capsys):
    # --tol 0 is a valid number, but with the spec's rel_tol 0 no tolerance is left
    doc = {**COMPLEX_SPECTRUM, "tolerances": {"rel_tol": 0}}
    spec_file = write_spec(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", spec_file, "--out", str(out), "--tol", "0"]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", spec_file, "--out", str(out), "--tol", "1e-12"]) == 1


def test_cli_run_failure_exit_code(tmp_path, capsys):
    spec_file = write_spec(tmp_path, COMPLEX_SPECTRUM)
    rc = main(["run", spec_file, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILED" in out


def test_cli_run_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PSEUDOHERM_OUT_DIR", str(tmp_path / "envout"))
    rc = main(["run", shipped("pt_toy_2x2.json")])
    assert rc == 0
    assert (tmp_path / "envout" / "pt_toy_2x2_report.json").exists()


def test_cli_run_missing_spec(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_non_utf8_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert not out.exists()
    assert "error: not UTF-8 text" in capsys.readouterr().err
    assert main(["validate", str(spec)]) == 2
    assert "error: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("under", ["", "sub"])
def test_cli_run_unusable_out_fails_before_the_run(under, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / under if under else blocker
    assert main(["run", shipped("pt_toy_2x2.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no task ran
    assert captured.err.startswith("error: ") and str(blocker) in captured.err


def test_cli_run_unwritable_report_exits_2(tmp_path, capsys):
    # the run completes, then the report path is taken by a directory
    (tmp_path / "pt_toy_2x2_report.json").mkdir()
    assert main(["run", shipped("pt_toy_2x2.json"), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "task spectral: ok (4 verdicts)\n"
    assert captured.err.startswith("error: cannot write the report: ")
    assert "pt_toy_2x2_report.json" in captured.err


def test_cli_import_loads_no_jsonschema():
    proc = run_python(["-c", "import sys, pseudoherm.cli; print('jsonschema' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_public_names_resolve_once():
    import pseudoherm

    names = pseudoherm.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(pseudoherm, n)] == []


def test_cli_validate(tmp_path, capsys):
    assert main(["validate", shipped("step_potential.json")]) == 0
    assert "OK: step_potential" in capsys.readouterr().out
    bad = write_spec(tmp_path, {"name": "x"}, "bad.json")
    assert main(["validate", bad]) == 2
    assert "required" in capsys.readouterr().err


def test_cli_orders(capsys):
    rc = main(["orders", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c_1 = -0.5" in out
    assert "order 3" in out
    assert "|R_1 + 2 H1| = 0.000e+00" in out


def test_cli_orders_rejects_out_of_range(capsys):
    assert main(["orders", "0"]) == 2
    assert main(["orders", "6"]) == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
