"""Metric operators from biorthonormal eigensystems.

For diagonalizable H with real spectrum, the right/left eigenvector families
{psi_n}, {phi_n} with <phi_m|psi_n> = delta_mn give the positive-definite
metric eta = sum_n |phi_n><phi_n|, which satisfies H^dagger eta = eta H. All
derived objects (equivalent Hermitian h, C = eta^{-1} P, Cholesky factor,
intertwiners between metrics, rescaled metric families) live here.

Normalization gauge: each psi_n has unit Euclidean norm with its first
nonzero component rotated positive real; phi_n is then fixed by the
biorthonormality condition. The metric is not unique; the remaining freedom
is exposed through symmetry_rescaled_metric instead of being hidden.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalizabilityError,
    DomainError,
    InvertibilityError,
    PositivityError,
    RealityError,
    ResidualError,
    ShapeError,
    StructureError,
)
from .operators import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    from_pt_frame_columns,
    herm_sqrt_inv,
    is_hermitian,
    max_norm,
    pt_frame,
)

log = logging.getLogger(__name__)

COND_CAP = 1e8
RESIDUAL_REL = 1e-8


@dataclass(frozen=True)
class BiorthonormalSystem:
    """Eigenvalues with right (psi) and left (phi) eigenvector columns.

    right_singular_values are the descending singular values of psi.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    right_singular_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def spectrum_is_real(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """spectrum_is_real's rule applied to the eigenvalues already computed."""
        return _is_real(self.eigenvalues, tol)

    def gram_defect(self) -> float:
        g = self.left_vectors.conj().T @ self.right_vectors
        return max_norm(g - np.eye(self.dim))

    def completeness_defect(self) -> float:
        s = self.right_vectors @ self.left_vectors.conj().T
        return max_norm(s - np.eye(self.dim))


@dataclass(frozen=True)
class Provenance:
    kind: str  # spectral | perturbative | user
    order: int | None = None
    epsilon: float | None = None


@dataclass(frozen=True)
class MetricOperator:
    """A metric operator eta with its provenance.

    eig_range is eta's (smallest, largest) eigenvalue when the constructor
    already knows it from its own factorization, else None.
    """

    op: Operator
    provenance: Provenance
    eig_range: tuple[float, float] | None = None

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat


def _metric_matrix(eta) -> np.ndarray:
    if isinstance(eta, MetricOperator):
        return eta.op.mat
    if isinstance(eta, Operator):
        return eta.mat
    return np.asarray(eta, dtype=complex)


def biorthonormal_eigensystem(H: Operator, tol: Tolerance = DEFAULT_TOL) -> BiorthonormalSystem:
    """Diagonalize H; sort by (Re E, Im E, original index); gauge-fix psi.

    The left family is phi = inv(psi)^dagger, so the Gram identity and
    completeness hold by construction, degenerate blocks included. An H with
    a PT frame (operators.pt_frame) is diagonalized there, as the real matrix
    S^dagger H S; its eigenvectors v give psi = S v.
    """
    frame = pt_frame(H.mat)
    if frame is not None:
        w, v = np.linalg.eig(frame)
        w = w.astype(complex)
        v = from_pt_frame_columns(v)  # the normalization below removes the sqrt(2)
    else:
        w, v = np.linalg.eig(H.mat)
    order = np.lexsort((np.arange(w.size), w.imag, w.real))
    w, v = w[order], v[:, order]
    v = v / np.linalg.norm(v, axis=0)
    for n in range(w.size):
        col = v[:, n]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        phase = col[nz] / abs(col[nz])
        v[:, n] = col / phase
    sv = np.linalg.svd(v, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[0] / sv[-1]
    if not np.isfinite(cond) or cond > COND_CAP:
        raise DiagonalizabilityError(
            f"eigenvector matrix condition number {cond:.3e} exceeds cap {COND_CAP:.1e}; "
            "operator treated as defective"
        )
    phi = np.linalg.inv(v).conj().T
    return BiorthonormalSystem(w, v, phi, sv)


def _is_real(w: np.ndarray, tol: Tolerance) -> bool:
    return bool(np.abs(w.imag).max() <= tol.bound(np.abs(w).max()))


def spectrum_is_real(H: Operator, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _is_real(np.linalg.eigvals(H.mat), tol)


def spectral_metric(sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOL) -> MetricOperator:
    """eta = sum_n |phi_n><phi_n|; requires a real spectrum.

    Since phi = inv(psi)^dagger, eta's eigenvalues are 1/sigma^2 over the
    singular values sigma of psi; the metric carries their range.
    """
    scale = np.abs(sys.eigenvalues).max()
    for n, e in enumerate(sys.eigenvalues):
        if abs(e.imag) > tol.bound(scale):
            raise RealityError(f"eigenvalue E_{n} = {e:.12g} is not real within tolerance")
    phi = sys.left_vectors
    eta = phi @ phi.conj().T
    sv = sys.right_singular_values
    eig_range = (float(sv[0] ** -2), float(sv[-1] ** -2))
    return MetricOperator(Operator((eta + eta.conj().T) / 2), Provenance("spectral"), eig_range)


def pseudo_hermiticity_residual(H: Operator, eta) -> float:
    """||H^dagger eta - eta H|| in max-norm (multiplied-through form).

    Raises InvertibilityError when eta is numerically singular: its smallest
    singular value is at or below DEFAULT_TOL.bound(largest). For a metric
    the package builds (spectral_metric, metric_from_series) these are the
    eig_range it carries, eta's known extreme eigenvalues, so no
    factorization runs here. For a metric a user passes in (a raw array, an
    Operator, or a MetricOperator without eig_range) they come from an SVD
    of eta.
    """
    h = H.mat
    e = _metric_matrix(eta)
    if e.shape != h.shape:
        raise ShapeError(f"dimension mismatch: {e.shape} vs {h.shape}")
    if isinstance(eta, MetricOperator) and eta.eig_range is not None:
        lo, hi = eta.eig_range
    else:
        sv = np.linalg.svd(e, compute_uv=False)
        lo, hi = sv[-1], sv[0]
    if lo <= DEFAULT_TOL.bound(hi):
        raise InvertibilityError(f"metric is numerically singular (smallest sv {lo:.3e})")
    return max_norm(h.conj().T @ e - e @ h)


def pseudo_hermiticity_threshold(H: Operator, eta) -> float:
    """Bound on pseudo_hermiticity_residual(H, eta): RESIDUAL_REL max(1, |H| |eta|)."""
    return RESIDUAL_REL * max(1.0, max_norm(H.mat) * max_norm(_metric_matrix(eta)))


def equivalent_hermitian(H: Operator, eta, tol: Tolerance = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """h = rho H rho^{-1} with rho = eta^{1/2}; Hermitian, isospectral with H.

    Raises ResidualError unless eta passes pseudo_hermiticity_residual
    within pseudo_hermiticity_threshold.
    """
    return _equivalent_hermitian(
        H, eta, pseudo_hermiticity_residual(H, eta), pseudo_hermiticity_threshold(H, eta), tol
    )


def _equivalent_hermitian(
    H: Operator, eta, residual: float, threshold: float, tol: Tolerance
) -> tuple[Operator, Operator]:
    """equivalent_hermitian given eta's residual and threshold, for a caller that has them."""
    if residual > threshold:
        raise ResidualError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds threshold {threshold:.3e}"
        )
    rho, rho_inv = herm_sqrt_inv(Operator(_metric_matrix(eta)), tol)
    h = rho.mat @ H.mat @ rho_inv.mat
    return Operator(h), rho


def c_operator(eta, P: Operator, H: Operator | None = None, tol: Tolerance = DEFAULT_TOL):
    """C = eta^{-1} P with diagnostics.

    Returns (C, commutation_residual, involution_defect). The commutation
    residual ||[C, H]|| needs H and is None when H is omitted; it is only
    meaningful when H is P-pseudo-Hermitian. The involution defect
    ||C^2 - I|| is diagnostic only: it vanishes just for restricted metric
    choices, so it is reported and never asserted.
    """
    p = P.mat
    if not is_hermitian(p, tol):
        raise StructureError("P is not Hermitian within tolerance")
    scale = max_norm(p)
    with np.errstate(over="ignore", invalid="ignore"):
        invol_defect = np.abs(p @ p - np.eye(p.shape[0])).max(initial=0.0)
    # an overflowed P^2 is no involution: inf or NaN fails the rule, which
    # an inf bound (scale^2 past the float limit) would otherwise pass
    if not (np.isfinite(invol_defect) and invol_defect <= tol.bound(scale * scale)):
        raise StructureError("P is not an involution (P^2 != I within tolerance)")
    e = _metric_matrix(eta)
    c = np.linalg.solve(e, p)
    comm = None
    if H is not None:
        comm = max_norm(c @ H.mat - H.mat @ c)
    invol = max_norm(c @ c - np.eye(c.shape[0]))
    return Operator(c), comm, invol


def metric_factorization(eta, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Upper-triangular O with O^dagger O = eta (Cholesky factor)."""
    e = _metric_matrix(eta)
    try:
        lower = np.linalg.cholesky((e + e.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise PositivityError(f"metric is not positive definite: {exc}") from exc
    return Operator(lower.conj().T)


def metric_intertwiner(eta1, eta2, H: Operator, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """A = eta1^{-1/2} M^{1/2} eta1^{1/2} with M = eta1^{-1/2} eta2 eta1^{-1/2}.

    Realizes eta2 = A^dagger eta1 A; for metrics of the same Hamiltonian the
    construction commutes with H. Both postcondition residuals are logged.
    """
    e1 = _metric_matrix(eta1)
    e2 = _metric_matrix(eta2)
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        res = pseudo_hermiticity_residual(H, eta)
        if res > pseudo_hermiticity_threshold(H, eta):
            raise ResidualError(f"{name} is not a valid metric for H: residual {res:.3e}")
    s1, is1 = herm_sqrt_inv(Operator(e1), tol)
    m = is1.mat @ e2 @ is1.mat
    ms, _ = herm_sqrt_inv(Operator((m + m.conj().T) / 2), tol)
    a = is1.mat @ ms.mat @ s1.mat
    intertwine = max_norm(a.conj().T @ e1 @ a - e2)
    commute = max_norm(a @ H.mat - H.mat @ a)
    log.info(
        "metric_intertwiner: ||A^+ eta1 A - eta2|| = %.3e, ||[A, H]|| = %.3e",
        intertwine,
        commute,
    )
    return Operator(a)


def symmetry_rescaled_metric(
    sys: BiorthonormalSystem, scales, tol: Tolerance = DEFAULT_TOL
) -> MetricOperator:
    """sum_n s_n |phi_n><phi_n| for positive s_n: another valid metric for H."""
    s = np.asarray(scales, dtype=float)
    if s.shape != (sys.dim,):
        raise DomainError(f"need {sys.dim} scales, got shape {s.shape}")
    if np.any(s <= 0):
        raise DomainError(f"scales must be positive, got min {s.min()}")
    phi = sys.left_vectors
    eta = (phi * s) @ phi.conj().T
    return MetricOperator(Operator((eta + eta.conj().T) / 2), Provenance("spectral"))
