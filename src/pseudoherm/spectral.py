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
    _from_eigenbasis,
    _max_norm_rows,
    _symmetric_product,
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


class BiorthonormalSystem:
    """Eigenvalues with right (psi) and left (phi) eigenvector columns.

    right_singular_values are the descending singular values of psi.

    A system built in the PT frame (see biorthonormal_eigensystem) holds the
    real factors of psi instead of psi and phi: psi = S W D^-1, with W real
    and D the diagonal of gauge phases, and W = U Sigma V^T its SVD, so
    phi = S W^-T D^-1 with W^-T = U Sigma^-1 V^T. frame is then (U, sigma),
    else None. right_vectors and left_vectors are formed from the factors
    when first asked for, W as U Sigma V^T; gram_defect and
    completeness_defect were taken when the system was built, on the eig's
    W and the W^-T that forms phi.
    """

    def __init__(self, eigenvalues, right_vectors, left_vectors, right_singular_values):
        self.eigenvalues = eigenvalues
        self.right_singular_values = right_singular_values
        self._vectors = (right_vectors, left_vectors)
        self.frame = None
        self._vt_phases = None  # (V^T, D) of a system built in the PT frame
        self._defects = None  # (gram, completeness) of a system built in the PT frame

    @classmethod
    def _in_frame(cls, eigenvalues, u, sv, vt, phases, defects) -> "BiorthonormalSystem":
        sys = cls(eigenvalues, None, None, sv)
        sys.frame, sys._vt_phases, sys._defects = (u, sv), (vt, phases), defects
        return sys

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def right_vectors(self) -> np.ndarray:
        return self._formed()[0]

    @property
    def left_vectors(self) -> np.ndarray:
        return self._formed()[1]

    def _formed(self) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi), formed from the frame factors on the first call and kept."""
        if self._vectors[0] is None:
            (u, sv), (vt, phases) = self.frame, self._vt_phases
            columns = [(u * sv) @ vt, (u / sv) @ vt]  # W and W^-T
            self._vectors = tuple(from_pt_frame_columns(w) / (np.sqrt(2) * phases) for w in columns)
        return self._vectors

    def spectrum_is_real(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """|Im E| <= tol.bound(max |E|) for every eigenvalue E already computed."""
        w = self.eigenvalues
        return bool(np.abs(w.imag).max() <= tol.bound(np.abs(w).max()))

    def gram_defect(self) -> float:
        if self._defects is not None:
            return self._defects[0]
        g = self.left_vectors.conj().T @ self.right_vectors
        return max_norm(g - np.eye(self.dim))

    def completeness_defect(self) -> float:
        if self._defects is not None:
            return self._defects[1]
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
    # (lam, u), real, with eta = S u diag(lam) u^T S^dagger and lam ascending,
    # when the constructor built eta that way in the PT frame; else None
    frame: tuple[np.ndarray, np.ndarray] | None = None

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
    S^dagger H S; its eigenvectors v give psi = S v. When every eigenvalue is
    real, numpy's eig returns a real v, and the system is built from the
    real factors of v (_frame_eigensystem).
    """
    frame = pt_frame(H.mat)
    if frame is not None:
        w, v = np.linalg.eig(frame)
        del frame
        if np.isrealobj(w):
            return _frame_eigensystem(w, v)
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
    _check_condition(sv)
    phi = np.linalg.inv(v).conj().T
    return BiorthonormalSystem(w, v, phi, sv)


def _check_condition(sv: np.ndarray) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[0] / sv[-1]
    if not np.isfinite(cond) or cond > COND_CAP:
        raise DiagonalizabilityError(
            f"eigenvector matrix condition number {cond:.3e} exceeds cap {COND_CAP:.1e}; "
            "operator treated as defective"
        )


def _frame_eigensystem(w: np.ndarray, v: np.ndarray) -> BiorthonormalSystem:
    """biorthonormal_eigensystem for the real eigenpairs (w, v) of the frame matrix.

    W is v sorted, with unit columns, formed in v's own buffer; S W has
    unit columns too, and its entry k has modulus
    hypot(W_k, W_{N-1-k}) / sqrt(2), so the gauge phases D come without
    forming S W. One real SVD W = U Sigma V^T gives sigma (psi = S W D^-1
    has W's singular values), and W^-T = U Sigma^-1 V^T, which forms phi.
    The Gram and completeness defects are max|D (W^-1 W - I) D^-1| =
    max|W^-1 W - I| and max|S (W W^-1 - I) S^dagger|, one real product each.
    """
    order = np.lexsort((np.arange(w.size), w))
    w = w[order].astype(complex)
    v[:] = v[:, order]
    v /= np.linalg.norm(v, axis=0)
    n = w.size
    cols = np.arange(n)
    modulus = np.hypot(v, v[::-1])  # sqrt(2) |(S W)_k|
    first = np.argmax(modulus > 1e-12 * modulus.max(axis=0), axis=0)
    phases = (v[first, cols] + 1j * v[n - 1 - first, cols]) / modulus[first, cols]
    del modulus
    u, sv, vt = np.linalg.svd(v)
    _check_condition(sv)
    inv_t = (u / sv) @ vt
    gram = max_norm(_minus_identity(inv_t.T @ v))
    completeness = max_norm(from_pt_frame(_minus_identity(v @ inv_t.T)))
    return BiorthonormalSystem._in_frame(w, u, sv, vt, phases, (gram, completeness))


def _minus_identity(x: np.ndarray) -> np.ndarray:
    """x - I, in place."""
    x.flat[:: x.shape[0] + 1] -= 1.0
    return x


def spectral_metric(sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOL) -> MetricOperator:
    """eta = sum_n |phi_n><phi_n|; requires a real spectrum.

    Since phi = inv(psi)^dagger, eta's eigenvalues are 1/sigma^2 over the
    singular values sigma of psi; the metric carries their range. For a
    system built in the PT frame, eta = phi phi^dagger = S W^-T W^-1 S^dagger
    = S U Sigma^-2 U^T S^dagger, formed from U with no complex product, and
    the metric carries that eigensystem (sigma^-2, U) as its frame.
    """
    scale = np.abs(sys.eigenvalues).max()
    for n, e in enumerate(sys.eigenvalues):
        if abs(e.imag) > tol.bound(scale):
            raise RealityError(f"eigenvalue E_{n} = {e:.12g} is not real within tolerance")
    sv = sys.right_singular_values
    eig_range = (float(sv[0] ** -2), float(sv[-1] ** -2))
    if sys.frame is not None:
        u = sys.frame[0]
        lam = sv**-2.0
        return MetricOperator(
            _from_eigenbasis(u * lam, u, True), Provenance("spectral"), eig_range, (lam, u)
        )
    phi = sys.left_vectors
    eta = phi @ phi.conj().T
    eta = Operator._own((eta + eta.conj().T) / 2)
    return MetricOperator(eta, Provenance("spectral"), eig_range)


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
    rho H is a column stencil, which leaves one product. A metric that
    carries its frame eigensystem needs no factorization
    (_frame_equivalent_hermitian).
    """
    if residual > threshold:
        raise ResidualError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds threshold {threshold:.3e}"
        )
    if isinstance(eta, MetricOperator) and eta.frame is not None:
        return _frame_equivalent_hermitian(H, eta.frame, tol)
    rho, rho_inv = herm_sqrt_inv(Operator(_metric_matrix(eta)), tol)
    return Operator._own(_right_multiply(H, rho.mat) @ rho_inv.mat), rho


def _right_multiply(H, x: np.ndarray) -> np.ndarray:
    """X H: a column stencil for a structured grid split, else the dense product."""
    split = _stencil(H)
    return x @ _dense(H) if split is None else split.right_multiply(x)


def _frame_equivalent_hermitian(H, frame, tol: Tolerance) -> tuple[Operator, Operator]:
    """(h, rho) from eta = S U diag(lam) U^T S^dagger, with no factorization.

    rho = S Y S^dagger with Y = U lam^(1/2) U^T, and rho^-1 = S Y^-1 S^dagger.
    For an H with a PT frame, F = S^dagger H S, h = S (Y F Y^-1) S^dagger,
    all real: Y F is a product with F, or for a grid split a real column
    stencil (SplitHamiltonian.frame_right_multiply). An H without a frame
    takes the complex product (rho H) rho^-1. The positivity rule is
    herm_sqrt_inv's, on lam.
    """
    lam, u = frame
    if lam[0] <= tol.abs_tol:
        raise PositivityError(f"matrix not positive definite: eigenvalue {lam[0]:.6e}")
    r = np.sqrt(lam)
    y = _symmetric_product(u * r, u)
    y_inv = _symmetric_product(u / r, u)
    if isinstance(H, SplitHamiltonian):
        yf = H.frame_right_multiply(y)
    else:
        f = pt_frame(H.mat)
        yf = None if f is None else y @ f
    if yf is None:
        rho = Operator._own(from_pt_frame(y))
        return Operator._own(_right_multiply(H, rho.mat) @ from_pt_frame(y_inv)), rho
    # h before rho, each frame matrix dropped once used: this step sets the
    # spectral task's peak memory
    x = yf @ y_inv
    del yf, y_inv
    h = Operator._own(from_pt_frame(x))
    del x
    return h, Operator._own(from_pt_frame(y))


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
    (operators.pt_frame), S^dagger J S = J, so C = S X S^dagger with
    X = Y^{-1} J and Y = S^dagger eta S real, and C^2 - I = S (X^2 - I) S^dagger.
    Y^{-1} is U lam^-1 U^T, one real product, when eta carries its frame
    eigensystem (lam, U), and a real solve otherwise. H is an Operator or a
    SplitHamiltonian; for a structured grid split, [C, H] = -[H0, C] -
    epsilon [H1, C] is a stencil and an elementwise product, reduced in row
    blocks.
    """
    e = _metric_matrix(eta)
    n = e.shape[0]
    if not isinstance(P, IndexReversal):
        x = None
    elif isinstance(eta, MetricOperator) and eta.frame is not None:
        lam, u = eta.frame
        x = _symmetric_product(u / lam, u)[:, ::-1]
    else:
        frame = pt_frame(e)
        x = None if frame is None else np.linalg.solve(frame, np.eye(n)[::-1])
    if x is None:
        c = np.linalg.solve(e, _checked_parity(P, tol))
        invol = max_norm(c @ c - np.eye(n))
    else:
        c = from_pt_frame(x)
        invol = max_norm(from_pt_frame(x @ x - np.eye(n)))
    comm = None
    split = _stencil(H)
    if split is not None:
        comm = _max_norm_rows(lambda start, stop: split.total_commutator(c, start, stop), n)
    elif H is not None:
        h = _dense(H)
        comm = max_norm(c @ h - h @ c)
    return Operator._own(c), comm, invol


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
