"""Metric operators from biorthonormal eigensystems.

For diagonalizable H with real spectrum, the right/left eigenvector families
{psi_n}, {phi_n} with <phi_m|psi_n> = delta_mn give the positive-definite
metric eta = sum_n |phi_n><phi_n|, which satisfies H^dagger eta = eta H. All
derived objects (equivalent Hermitian h, C = eta^{-1} P, Cholesky factor,
intertwiners between metrics, rescaled metric families) live here.

Normalization gauge: each psi_n has unit Euclidean norm with its first
nonzero component rotated positive real; phi_n is then fixed by the
biorthonormality condition. A psi formed from the system's factors
(BiorthonormalSystem) meets the gauge to rounding: its first component is
positive real up to the rounding of U Sigma V^H. The metric is not unique;
the remaining freedom is exposed through symmetry_rescaled_metric instead of
being hidden.
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
    _hermitian_eigensystem,
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
    """Eigenvalues with right (psi) and left (phi) eigenvector columns, held as factors.

    W is the eigenvector matrix with unit columns and W = U Sigma V^H its
    SVD (factors = (U, sigma, V^H)); D is the diagonal of gauge phases.
    Then psi = B W D^-1 and phi = B W^-H D^-1 with W^-H = U Sigma^-1 V^H,
    where B is the frame basis S for a system built in the PT frame (W
    real, in_frame) and the identity otherwise (W complex). psi has W's
    singular values, so right_singular_values are sigma, descending.
    right_vectors and left_vectors are formed from the factors when first
    asked for; gram_defect and completeness_defect were taken when the
    system was built, on the eig's W and W^-H.
    """

    def __init__(self, eigenvalues, factors, phases, in_frame: bool, defects):
        self.eigenvalues = eigenvalues
        self.factors = factors
        self.phases = phases
        self.in_frame = in_frame
        self._defects = defects  # (gram, completeness)
        self._vectors = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def right_singular_values(self) -> np.ndarray:
        return self.factors[1]

    @property
    def right_vectors(self) -> np.ndarray:
        return self._formed()[0]

    @property
    def left_vectors(self) -> np.ndarray:
        return self._formed()[1]

    def _formed(self) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi), formed from the factors on the first call and kept."""
        if self._vectors is None:
            u, sv, vh = self.factors
            columns = [(u * sv) @ vh, (u / sv) @ vh]  # W and W^-H
            if self.in_frame:
                columns = [from_pt_frame_columns(w) / np.sqrt(2) for w in columns]
            self._vectors = tuple(w / self.phases for w in columns)
        return self._vectors

    def _first_off_real(self, tol: Tolerance) -> int | None:
        """Index of the first E with |Im E| > tol.bound(max |E|), or None."""
        w = self.eigenvalues
        off = ~(np.abs(w.imag) <= tol.bound(np.abs(w).max()))
        return int(np.argmax(off)) if off.any() else None

    def spectrum_is_real(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """|Im E| <= tol.bound(max |E|) for every eigenvalue E already computed."""
        return self._first_off_real(tol) is None

    def gram_defect(self) -> float:
        return self._defects[0]

    def completeness_defect(self) -> float:
        return self._defects[1]


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
    # (lam, u, in_frame) with eta = U diag(lam) U^dagger, lam ascending, and
    # U = S u (u real) when in_frame, else u: the eigensystem the constructor
    # built eta from, or None
    eigensystem: tuple[np.ndarray, np.ndarray, bool] | None = None

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

    An H with a PT frame (operators.pt_frame) is diagonalized there, as the
    real matrix S^dagger H S. When every eigenvalue is real, numpy's eig
    returns a real v, and the system is built in the frame: W = v, psi = S W.
    Otherwise (a broken PT phase, or no frame) W is the complex eigenvector
    matrix, S v or H's own, and psi = W. Either way W is sorted and given
    unit columns in its own buffer, and one SVD W = U Sigma V^H gives sigma
    and W^-H = U Sigma^-1 V^H, so phi = inv(psi)^dagger and the Gram
    identity and completeness hold to rounding, degenerate blocks included.
    The gauge phase of column n is the first entry of B W_n over its
    modulus: |W| entrywise, or in the frame hypot(W_k, W_{N-1-k}) =
    sqrt(2) |(S W)_k|, so no S W is formed. The defects are
    max|D (W^-1 W - I) D^-1| = max|W^-1 W - I| and max|B (W W^-1 - I) B^dagger|,
    one product each on W^-H.
    """
    frame = pt_frame(H.mat)
    if frame is not None:
        w, v = np.linalg.eig(frame)
        del frame
        in_frame = np.isrealobj(w)
        if not in_frame:
            v = from_pt_frame_columns(v)  # the normalization below removes the sqrt(2)
    else:
        w, v = np.linalg.eig(H.mat)
        in_frame = False
    order = np.lexsort((np.arange(w.size), w.imag, w.real))
    w = w[order].astype(complex)
    v[:] = v[:, order]
    v /= np.linalg.norm(v, axis=0)
    n = w.size
    cols = np.arange(n)
    modulus = np.hypot(v, v[::-1]) if in_frame else np.abs(v)
    first = np.argmax(modulus > 1e-12 * modulus.max(axis=0), axis=0)
    top = v[first, cols] + 1j * v[n - 1 - first, cols] if in_frame else v[first, cols]
    phases = top / modulus[first, cols]
    del modulus
    u, sv, vh = np.linalg.svd(v)
    _check_condition(sv)
    inv_h = (u / sv) @ vh
    gram = max_norm(_minus_identity(inv_h.conj().T @ v))
    completeness = _minus_identity(v @ inv_h.conj().T)
    completeness = max_norm(from_pt_frame(completeness) if in_frame else completeness)
    return BiorthonormalSystem(w, (u, sv, vh), phases, in_frame, (gram, completeness))


def _check_condition(sv: np.ndarray) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[0] / sv[-1]
    if not np.isfinite(cond) or cond > COND_CAP:
        raise DiagonalizabilityError(
            f"eigenvector matrix condition number {cond:.3e} exceeds cap {COND_CAP:.1e}; "
            "operator treated as defective"
        )


def _minus_identity(x: np.ndarray) -> np.ndarray:
    """x - I, in place."""
    x.flat[:: x.shape[0] + 1] -= 1.0
    return x


def spectral_metric(sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOL) -> MetricOperator:
    """eta = sum_n |phi_n><phi_n|; requires a real spectrum (sys.spectrum_is_real).

    phi phi^dagger = B W^-H D^-1 D^-H W^-1 B^dagger = B U Sigma^-2 U^dagger B^dagger,
    formed from U (in the frame with no complex product), so eta's
    eigenvalues are 1/sigma^2 over the singular values sigma of psi. The
    metric carries their range and the eigensystem (sigma^-2, U, in_frame).
    """
    first = sys._first_off_real(tol)
    if first is not None:
        e = sys.eigenvalues[first]
        raise RealityError(f"eigenvalue E_{first} = {e:.12g} is not real within tolerance")
    u, sv, _ = sys.factors
    eig_range = (float(sv[0] ** -2), float(sv[-1] ** -2))
    lam = sv**-2.0
    return MetricOperator(
        _from_eigenbasis(u * lam, u, sys.in_frame), Provenance("spectral"), eig_range,
        (lam, u, sys.in_frame),
    )


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

    eta = U diag(lam) U^dagger from the eigensystem the metric carries, or,
    for a metric without one, from _hermitian_eigensystem (one eigh, in the
    frame when eta has one); the positivity rule is on lam. Then
    rho = U lam^(1/2) U^dagger and rho^-1 = U lam^(-1/2) U^dagger. With
    U = S u in the frame and an H that has one, F = S^dagger H S, h is
    S (Y F Y^-1) S^dagger with Y = u lam^(1/2) u^T, all real: Y F is a
    product with F, or for a grid split a real column stencil
    (_frame_right_multiply). Otherwise h is the complex product
    (rho H) rho^-1, where rho H is a column stencil for a grid split.
    """
    if residual > threshold:
        raise ResidualError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds threshold {threshold:.3e}"
        )
    if isinstance(eta, MetricOperator) and eta.eigensystem is not None:
        lam, u, in_frame = eta.eigensystem
    else:
        lam, u, in_frame = _hermitian_eigensystem(_metric_matrix(eta), tol, "equivalent_hermitian")
    if lam[0] <= tol.abs_tol:
        raise PositivityError(f"matrix not positive definite: eigenvalue {lam[0]:.6e}")
    r = np.sqrt(lam)
    if in_frame:
        y = _symmetric_product(u * r, u)
        yf = _frame_right_multiply(H, y)
        if yf is not None:
            # h before rho, each frame matrix dropped once used: this step
            # sets the spectral task's peak memory
            x = yf @ _symmetric_product(u / r, u)
            del yf
            h = Operator._own(from_pt_frame(x))
            del x
            return h, Operator._own(from_pt_frame(y))
    rho = _from_eigenbasis(u * r, u, in_frame)
    h = _right_multiply(H, rho.mat) @ _from_eigenbasis(u / r, u, in_frame).mat
    return Operator._own(h), rho


def _right_multiply(H, x: np.ndarray) -> np.ndarray:
    """X H: a column stencil for a structured grid split, else the dense product."""
    split = _stencil(H)
    return x @ _dense(H) if split is None else split.right_multiply(x)


def _frame_right_multiply(H, y: np.ndarray) -> np.ndarray | None:
    """Y F for a real Y and F = S^dagger H S, when H has a PT frame (pt_frame); else None.

    A real column stencil for a structured grid split
    (SplitHamiltonian.frame_right_multiply), else the product with the
    frame matrix of H's dense matrix.
    """
    split = _stencil(H)
    if split is not None:
        return split.frame_right_multiply(y)
    f = pt_frame(_dense(H))
    return None if f is None else y @ f


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
    IndexReversal J, which is one exactly. For J and an eta that carries its
    eigensystem in the PT frame, eta = S u diag(lam) u^T S^dagger, and
    S^dagger J S = J, so C = S X S^dagger with X = (u lam^-1 u^T) J real,
    one real product, and C^2 - I = S (X^2 - I) S^dagger. Any other eta or P
    takes the complex solve. H is an Operator or a SplitHamiltonian; for a
    structured grid split, [C, H] = -[H0, C] - epsilon [H1, C] is a stencil
    and an elementwise product, reduced in row blocks.
    """
    e = _metric_matrix(eta)
    n = e.shape[0]
    system = eta.eigensystem if isinstance(eta, MetricOperator) else None
    if isinstance(P, IndexReversal) and system is not None and system[2]:
        lam, u, _ = system
        x = _symmetric_product(u / lam, u)[:, ::-1]
        c = from_pt_frame(x)
        invol = max_norm(from_pt_frame(x @ x - np.eye(n)))
    else:
        c = np.linalg.solve(e, _checked_parity(P, tol))
        invol = max_norm(c @ c - np.eye(n))
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
