"""Task orchestration: model spec in, verification report out.

Tasks run sequentially in spec order; a failing task yields a failure record
and never suppresses the others. Each task appends its verdicts to the
record as soon as they are decided, so a typed error raised later in the
task keeps the verdicts that came before it. Later tasks may reference
earlier results (scaling consumes the perturbative series). Every boolean
verdict carries the numeric residual and threshold it came from.

Given the same spec, seed, tolerance and BLAS thread count the report is
byte-identical across runs: no timestamps, a fixed RNG stream, and canonical
serialization downstream. Across BLAS thread counts the noise-level residuals
may move in their last digits; verdict names, ok flags and errors do not.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import __version__
from .config import (
    MatrixModel,
    ModelSpec,
    PerturbativeTask,
    ScalingTask,
    SchroedingerModel,
    SpectralTask,
    SplitMatrixModel,
    WaveTask,
)
from .errors import DomainError, NonFiniteError, PseudohermError
from .operators import Operator, SplitHamiltonian, _max_norm_rows, max_norm
from .perturbation import (
    NOISE_FLOOR,
    curve_slope,
    metric_from_series,
    residual_curve,
    solve_q_series,
)
from .spectral import (
    RESIDUAL_REL,
    _equivalent_hermitian,
    biorthonormal_eigensystem,
    c_operator,
    parity_pseudo_hermiticity_residual,
    pseudo_hermiticity_residual,
    pseudo_hermiticity_threshold,
    spectral_metric,
)
from .wavekernel import (
    discretize_schroedinger,
    grid_points,
    hermiticity_defect,
    jump_condition_defect,
    kernel_to_matrix,
    offdiagonal_commutator_check,
    particular_kernel_q1,
)

JUMP_TOL = 1e-10
KERNEL_HERM_TOL = 1e-12


def _verdict(name: str, value: float, threshold: float, ok: bool | None = None) -> dict:
    """Every verdict's record; ok is value <= threshold unless the caller gives its own."""
    if not (np.isfinite(value) and np.isfinite(threshold)):
        raise NonFiniteError(f"{name}: value {value} and threshold {threshold} must be finite")
    return {
        "name": name,
        "ok": bool(value <= threshold if ok is None else ok),
        "value": float(value),
        "threshold": float(threshold),
    }


def _pairs(z: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in z]


class _RunContext:
    def __init__(self, spec: ModelSpec, seed: int):
        self.spec = spec
        self.tol = spec.tolerance
        self.rng = np.random.default_rng(seed)
        self.split = None  # SplitHamiltonian for split-capable models
        # (order, QSeries, {epsilon: metric residual}) from the perturbative task
        self.solved = None
        self.perturbative_error = None  # error class name of a failed perturbative task

    def hamiltonian(self) -> Operator | SplitHamiltonian:
        """The spectral task's H: a matrix model's Operator, else the model's split."""
        m = self.spec.model
        return m.H if isinstance(m, MatrixModel) else self.get_split()

    def get_split(self) -> SplitHamiltonian:
        if self.split is None:
            m = self.spec.model
            if isinstance(m, SplitMatrixModel):
                self.split = SplitHamiltonian(m.H0, m.H1, m.epsilon)
            elif isinstance(m, SchroedingerModel):
                self.split = discretize_schroedinger(m.potential, m.L, m.N, m.epsilon)
            else:
                raise PseudohermError(
                    "this task needs an H0 + eps*H1 split; the model is a plain matrix"
                )
        return self.split


def _spectral_task(ctx: _RunContext, verdicts: list) -> dict:
    H = ctx.hamiltonian()
    sys = biorthonormal_eigensystem(H)
    eta = spectral_metric(sys, ctx.tol)
    # everything the report needs from the system is read here, and the
    # system (its V^H, N x N) is dropped before the steps that set the peak
    data = {
        "spectrum": _pairs(sys.eigenvalues),
        "spectrum_is_real": sys.spectrum_is_real(ctx.tol),
        "gram_defect": float(sys.gram_defect()),
    }
    completeness = sys.completeness_defect()
    del sys
    threshold = pseudo_hermiticity_threshold(H, eta)
    residual = pseudo_hermiticity_residual(H, eta)
    verdicts.append(_verdict("pseudo_hermiticity_residual", residual, threshold))
    # h is kept only for its two norms and rho not at all: the parity block
    # below sets the task's peak memory, and each N x N array held across it
    # adds to that peak
    h = _equivalent_hermitian(H, eta, residual, threshold, ctx.tol)[0].mat
    herm_defect = max_norm(h - h.conj().T)
    h_bound = RESIDUAL_REL * max(1.0, max_norm(h))
    del h
    verdicts.append(_verdict("equivalent_hermitian_defect", herm_defect, h_bound))
    verdicts.append(_verdict("completeness_defect", completeness, threshold))
    P = ctx.spec.parity
    if P is not None:
        C, comm, invol = c_operator(eta, P, H, ctx.tol)
        p_residual = parity_pseudo_hermiticity_residual(H, P)
        data["c_operator"] = {
            "parity_pseudo_hermiticity_residual": float(p_residual),
            "commutation_residual": float(comm),
            "involution_defect": float(invol),
        }
        h_norm = H.norm()
        if p_residual <= 1e-10 * max(1.0, h_norm * P.norm()):
            verdicts.append(_verdict("c_commutes_with_H", comm, RESIDUAL_REL * max(1.0, h_norm)))
    return data


def _perturbative_task(ctx: _RunContext, task: PerturbativeTask, verdicts: list) -> dict:
    split = ctx.get_split()
    q = solve_q_series(split, task.order, tol=ctx.tol)
    residuals = {}  # filled below once the metric residual is known
    ctx.solved = (task.order, q, residuals)
    for m, (residual, bound) in enumerate(q.order_checks, start=1):
        verdicts.append(_verdict(f"order_{m}_residual", residual, bound))
    norms = [max_norm(t.mat) for t in q.terms]
    herm = max(max_norm(t.mat - t.mat.conj().T) for t in q.terms)
    verdicts.append(_verdict("q_terms_hermitian", herm, 1e-12 * max(1.0, *norms)))
    eta = metric_from_series(q, split.epsilon)
    lowest, floor = eta.eig_range[0], ctx.tol.abs_tol
    verdicts.append(_verdict("metric_positive_definite", lowest, floor, lowest > floor))
    residuals[split.epsilon] = pseudo_hermiticity_residual(split, eta)
    data = {
        "order": task.order,
        "order_residuals": [float(r) for r, _ in q.order_checks],
        "metric_residual_at_epsilon": float(residuals[split.epsilon]),
        "epsilon": float(split.epsilon),
        "gauge_log": [dict(g) for g in q.gauge_log],
        "q_term_norms": norms,
    }
    return data


def _scaling_task(ctx: _RunContext, task: ScalingTask, verdicts: list) -> dict:
    if ctx.solved is None:
        if ctx.perturbative_error is not None:
            raise DomainError(
                "scaling needs the perturbative series, but the perturbative task failed "
                f"with {ctx.perturbative_error}"
            )
        raise PseudohermError("scaling requires a perturbative task earlier in the task list")
    order, q, known = ctx.solved
    split = ctx.get_split()
    # an epsilon the perturbative task already measured reuses its residual:
    # the same series at the same float gives the same e^(-Q) and residual
    fresh = dict(residual_curve(split, q, [e for e in task.eps_list if e not in known]))
    curve = [(float(e), known[e] if e in known else fresh[e]) for e in task.eps_list]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        slope = curve_slope(curve)
    expected_min = order + 1 - 0.4
    data = {
        "order": order,
        "curve": [[float(e), float(r)] for e, r in curve],
        "slope": float(slope),
        "expected_min_slope": float(expected_min),
    }
    if caught:  # curve_slope's noise-floor warning: in the record, not on stderr
        data["warnings"] = [str(w.message) for w in caught]
    peak = max(r for _, r in curve)
    if peak < NOISE_FLOOR:
        # a metric exact to rounding at every eps meets any order contract;
        # only the fit is indeterminate, so the verdict reads the residual
        verdicts.append(_verdict("residual_order_contract", peak, NOISE_FLOOR))
    else:
        verdicts.append(_verdict("residual_order_contract", slope, expected_min, slope >= expected_min))
    return data


def _wave_task(ctx: _RunContext, verdicts: list) -> dict:
    model = ctx.spec.model
    if not isinstance(model, SchroedingerModel):
        raise PseudohermError("the wave task applies only to schroedinger models")
    v = model.potential
    split = ctx.get_split()
    K = particular_kernel_q1(v)
    grid = grid_points(model.L, model.N)
    vmax = float(np.abs(v.antiderivative(grid)).max())
    herm = hermiticity_defect(K, samples=400, rng=ctx.rng)
    verdicts.append(
        _verdict("kernel_hermiticity_defect", herm, KERNEL_HERM_TOL * max(1.0, vmax))
    )
    # the kernel's own box, where x + 1e-3 and x - 1e-3 stay two floats at any L
    xs = np.linspace(-K.domain_box, K.domain_box, 41)
    jump = jump_condition_defect(K, v, 1e-3, xs)
    verdicts.append(_verdict("jump_condition_defect", jump, JUMP_TOL))
    M = kernel_to_matrix(K, model.L, model.N)
    offdiag = offdiagonal_commutator_check(split, M, band_exclude=2)
    # |M| in row blocks, as the check takes M: a whole |M| would set the peak
    m_norm = _max_norm_rows(lambda start, stop: M.mat[start:stop], model.N)
    bound = RESIDUAL_REL * max(1.0, split.h0_norm() * m_norm)
    verdicts.append(_verdict("offdiagonal_commutator_defect", offdiag, bound))
    slice_vals = np.asarray(K(grid, 0.0))
    data = {
        "kernel_slice": {
            "y0": 0.0,
            "rows": [
                [float(x), float(z.real), float(z.imag)]
                for x, z in zip(grid, slice_vals)
            ],
        },
        "antiderivative_max": vmax,
    }
    return data


def run_model_spec(spec: ModelSpec, seed: int = 0) -> dict:
    """Execute the spec's tasks and assemble the report dict."""
    ctx = _RunContext(spec, seed)
    records = []
    for task in spec.tasks:
        record = {"task": task.kind, "ok": True, "error": None, "data": {}, "verdicts": []}
        verdicts = record["verdicts"]
        try:
            # a spec's numbers may overflow at run time; max_norm, _verdict and
            # Operator refuse the inf or NaN with a typed error, which numpy's
            # overflow warnings on stderr would only repeat
            with np.errstate(over="ignore", invalid="ignore"):
                if isinstance(task, SpectralTask):
                    record["data"] = _spectral_task(ctx, verdicts)
                elif isinstance(task, PerturbativeTask):
                    record["data"] = _perturbative_task(ctx, task, verdicts)
                elif isinstance(task, ScalingTask):
                    record["data"] = _scaling_task(ctx, task, verdicts)
                elif isinstance(task, WaveTask):
                    record["data"] = _wave_task(ctx, verdicts)
                else:  # pragma: no cover
                    raise PseudohermError(f"unknown task {task!r}")
            record["ok"] = all(v["ok"] for v in verdicts)
        except PseudohermError as exc:
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
            if isinstance(task, PerturbativeTask):
                ctx.perturbative_error = type(exc).__name__
        records.append(record)
    return {
        "name": spec.name,
        "provenance": {
            "spec_sha256": spec.sha256,
            "seed": int(seed),
            "version": __version__,
            "tolerance": {"abs_tol": ctx.tol.abs_tol, "rel_tol": ctx.tol.rel_tol},
        },
        "tasks": records,
        "all_passed": all(r["ok"] for r in records),
    }
