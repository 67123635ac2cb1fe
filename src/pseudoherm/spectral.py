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
    IndexReversal,
    Operator,
    SplitHamiltonian,
    Tolerance,
    _max_norm_rows,
    from_pt_frame,
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
        """|Im E| <= tol.bound(max |E|) for every eigenvalue E already computed."""
        w = self.eigenvalues
        return bool(np.abs(w.imag).max() <= tol.bound(np.abs(w).max()))

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


def biorthonormal_eigensystem(H: Operator) -> BiorthonormalSystem:
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


def _stencil(H) -> SplitHamiltonian | None:
    """H if it is a structured grid split, whose products with H are stencils; else None."""
    return H if isinstance(H, SplitHamiltonian) and H.is_stencil else None


def _dense(H) -> np.ndarray:
    """The dense matrix of H, an Operator or a SplitHamiltonian at its epsilon."""
    return H.total().mat if isinstance(H, SplitHamiltonian) else H.mat


def pseudo_hermiticity_residual(H, eta) -> float:
    """||H^dagger eta - eta H|| in max-norm (multiplied-through form).

    H is an Operator, or a SplitHamiltonian standing for H0 + epsilon H1 at
    its epsilon. For a structured grid split the residual is
    [H0, eta] - epsilon i (v_i + v_j) eta_ij: a stencil and an elementwise
    product, reduced ROW_BLOCK rows at a time with no N x N temporary. A
    dense split, or an Operator, takes the two dense products.

    Raises InvertibilityError when eta is numerically singular: its smallest
    singular value is at or below DEFAULT_TOL.bound(largest). For a metric
    the package builds (spectral_metric, metric_from_series) these are the
    eig_range it carries, eta's known extreme eigenvalues, so no
    factorization runs here. For a metric a user passes in (a raw array, an
    Operator, or a MetricOperator without eig_range) they come from an SVD
    of eta.
    """
    e = _metric_matrix(eta)
    if e.shape != (H.dim, H.dim):
        raise ShapeError(f"dimension mismatch: {e.shape} vs {(H.dim, H.dim)}")
    if isinstance(eta, MetricOperator) and eta.eig_range is not None:
        lo, hi = eta.eig_range
    else:
        sv = np.linalg.svd(e, compute_uv=False)
        lo, hi = sv[-1], sv[0]
    if lo <= DEFAULT_TOL.bound(hi):
        raise InvertibilityError(f"metric is numerically singular (smallest sv {lo:.3e})")
    split = _stencil(H)
    if split is not None:
        return _max_norm_rows(lambda start, stop: split.adjoint_residual(e, start, stop), H.dim)
    h = _dense(H)
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
    H, eta, residual: float, threshold: float, tol: Tolerance
) -> tuple[Operator, Operator]:
    """equivalent_hermitian given eta's residual and threshold, for a caller that has them.

    H is an Operator or a SplitHamiltonian; for a structured grid split
    rho H is a column stencil, which leaves one product.
    """
    if residual > threshold:
        raise ResidualError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds threshold {threshold:.3e}"
        )
    rho, rho_inv = herm_sqrt_inv(Operator(_metric_matrix(eta)), tol)
    split = _stencil(H)
    rho_h = rho.mat @ _dense(H) if split is None else split.right_multiply(rho.mat)
    return Operator(rho_h @ rho_inv.mat), rho


def _checked_parity(P, tol: Tolerance) -> np.ndarray:
    """P's dense matrix, once P is checked to be a Hermitian involution; J is one exactly."""
    p = P.mat
    if isinstance(P, IndexReversal):
        return p
    if not is_hermitian(p, tol):
        raise StructureError("P is not Hermitian within tolerance")
    scale = max_norm(p)
    with np.errstate(over="ignore", invalid="ignore"):
        invol_defect = np.abs(p @ p - np.eye(p.shape[0])).max(initial=0.0)
    # an overflowed P^2 is no involution: inf or NaN fails the rule, which
    # an inf bound (scale^2 past the float limit) would otherwise pass
    if not (np.isfinite(invol_defect) and invol_defect <= tol.bound(scale * scale)):
        raise StructureError("P is not an involution (P^2 != I within tolerance)")
    return p


def c_operator(eta, P, H=None, tol: Tolerance = DEFAULT_TOL):
    """C = eta^{-1} P with diagnostics.

    Returns (C, commutation_residual, involution_defect). The commutation
    residual ||[C, H]|| needs H and is None when H is omitted; it is only
    meaningful when H is P-pseudo-Hermitian. The involution defect
    ||C^2 - I|| is diagnostic only: it vanishes just for restricted metric
    choices, so it is reported and never asserted.

    P is an Operator, checked to be a Hermitian involution, or the
    IndexReversal J, which is one exactly. For J and an eta with a PT frame
    (operators.pt_frame), S^dagger J S = J, so C = S (Y^{-1} J) S^dagger with
    Y = S^dagger eta S real: a real solve, and C^2 - I = S (X^2 - I) S^dagger
    for X = Y^{-1} J. H is an Operator or a SplitHamiltonian; for a
    structured grid split, [C, H] = -[H0, C] - epsilon [H1, C] is a stencil
    and an elementwise product, reduced in row blocks.
    """
    e = _metric_matrix(eta)
    n = e.shape[0]
    frame = pt_frame(e) if isinstance(P, IndexReversal) else None
    if frame is None:
        c = np.linalg.solve(e, _checked_parity(P, tol))
        invol = max_norm(c @ c - np.eye(n))
    else:
        x = np.linalg.solve(frame, np.eye(n)[::-1])
        c = from_pt_frame(x)
        invol = max_norm(from_pt_frame(x @ x - np.eye(n)))
    comm = None
    split = _stencil(H)
    if split is not None:
        comm = _max_norm_rows(lambda start, stop: split.total_commutator(c, start, stop), n)
    elif H is not None:
        h = _dense(H)
        comm = max_norm(c @ h - h @ c)
    return Operator(c), comm, invol


def parity_pseudo_hermiticity_residual(H: Operator, P) -> float:
    """||H^dagger P - P H|| in max-norm; for the IndexReversal J, H^dagger J and J H are flips of H."""
    h = H.mat
    if isinstance(P, IndexReversal):
        return max_norm(h.conj().T[:, ::-1] - h[::-1])
    return max_norm(h.conj().T @ P.mat - P.mat @ h)


def metric_factorization(eta) -> Operator:
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


def symmetry_rescaled_metric(sys: BiorthonormalSystem, scales) -> MetricOperator:
    """sum_n s_n |phi_n><phi_n| for positive s_n: another valid metric for H."""
    s = np.asarray(scales, dtype=float)
    if s.shape != (sys.dim,):
        raise DomainError(f"need {sys.dim} scales, got shape {s.shape}")
    if np.any(s <= 0):
        raise DomainError(f"scales must be positive, got min {s.min()}")
    phi = sys.left_vectors
    eta = (phi * s) @ phi.conj().T
    return MetricOperator(Operator((eta + eta.conj().T) / 2), Provenance("spectral"))
