"""Metric operators from biorthonormal eigensystems.

For diagonalizable H with real spectrum, the right/left eigenvector families
{psi_n}, {phi_n} with <phi_m|psi_n> = delta_mn give the positive-definite
metric eta = sum_n |phi_n><phi_n|, which satisfies H^dagger eta = eta H. All
derived objects (equivalent Hermitian h, C = eta^{-1} P, Cholesky factor,
intertwiners between metrics, rescaled metric families) live here.

The system is held as the SVD W = U Sigma V^H of its eigenvector matrix W
with unit columns (BiorthonormalSystem); psi and phi are never formed. Every
metric the package builds carries its eigensystem eta = U diag(lam) U^dagger
(_metric), from which its eigenvalue range, rho, h and C follow with no
further factorization. The metric is not unique; the remaining freedom, the
scales s_n of sum_n s_n |phi_n><phi_n|, is exposed through
symmetry_rescaled_metric instead of being hidden.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalizabilityError,
    DomainError,
    InvertibilityError,
    NonFiniteError,
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
    _as_matrix,
    _from_eigenbasis,
    _hermitian_eigensystem,
    _max_norm_blocks,
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


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Eigenvalues with right (psi) and left (phi) eigenvector columns, held as factors.

    W is the eigenvector matrix with unit columns and W = U Sigma V^H its
    SVD (factors = (U, sigma, V^H)). Then psi = B W and phi = B W^-H with
    W^-H = U Sigma^-1 V^H, where B is the frame basis S for a system built
    in the PT frame (W real, in_frame) and the identity otherwise (W
    complex); psi's singular values are sigma, descending. gram_defect and
    completeness_defect were taken when the system was built, on the eig's
    W and W^-H.
    """

    eigenvalues: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    in_frame: bool
    gram_defect: float
    completeness_defect: float

    def _first_off_real(self, tol: Tolerance) -> int | None:
        """Index of the first E with |Im E| > tol.bound(max |E|), or None."""
        w = self.eigenvalues
        off = ~(np.abs(w.imag) <= tol.bound(np.abs(w).max()))
        return int(np.argmax(off)) if off.any() else None

    def spectrum_is_real(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """|Im E| <= tol.bound(max |E|) for every eigenvalue E already computed."""
        return self._first_off_real(tol) is None


class MetricOperator:
    """A metric operator eta; compared and hashed by identity.

    op is eta as an Operator. eigensystem is (lam, u, in_frame) with
    eta = U diag(lam) U^dagger and U = S u (u real) when in_frame, else u,
    for a metric the package builds (_metric); lam is in the order of the
    factorization that gave it. None for a metric built without one.

    A frame metric, which _metric builds from an eigensystem in the PT
    frame, holds eta as its real frame matrix frame = y = u diag(lam) u^T,
    with eta = S y S^dagger, and forms the complex eta (op, mat) only when
    one of them is read. rows(start, stop) gives eta's rows from y
    (from_pt_frame), bit for bit those of mat; the checks read every
    MetricOperator through rows (_metric_operands), so a check that reads
    eta in row blocks holds no complex N x N eta. frame is None for any
    other metric.
    """

    def __init__(self, op: Operator, eigensystem: tuple[np.ndarray, np.ndarray, bool] | None = None):
        self._op = op
        self.eigensystem = eigensystem
        self.frame = None

    @property
    def op(self) -> Operator:
        if self._op is None:
            self._op = Operator._own(from_pt_frame(self.frame))
        return self._op

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of eta's matrix; a frame metric forms them from its frame matrix."""
        if self.frame is None:
            return self.mat[start:stop]
        return from_pt_frame(self.frame, start, stop)

    @property
    def eig_range(self) -> tuple[float, float] | None:
        """eta's (smallest, largest) eigenvalue, read off the eigensystem; None without one."""
        if self.eigensystem is None:
            return None
        lam = self.eigensystem[0]
        return float(lam.min()), float(lam.max())


def _metric(lam: np.ndarray, u: np.ndarray, in_frame: bool) -> MetricOperator:
    """The metric U diag(lam) U^dagger (U = S u when in_frame), carrying that eigensystem.

    In the frame it is a frame metric: y = u diag(lam) u^T, the frame matrix
    from which _from_eigenbasis would form eta, is kept and eta is not
    formed. eta's entries are finite exactly when y's are, so y gets the
    check an Operator gives its entries.
    """
    if not in_frame:
        return MetricOperator(_from_eigenbasis(u * lam, u, False), (lam, u, False))
    y = _symmetric_product(u * lam, u)
    if not np.isfinite(y).all():
        raise NonFiniteError("operator entries must be finite")
    eta = MetricOperator(None, (lam, u, True))
    eta.frame = y
    return eta


def _metric_operands(eta, n: int, other: str | None = None) -> tuple:
    """(x, eigensystem): eta as the products with an n x n operator read it.

    x is a MetricOperator's row fill (MetricOperator.rows), so that a frame
    metric forms no complex eta, and any other eta's matrix; eigensystem is
    the (lam, u, in_frame) a MetricOperator carries, None for any other eta
    or one built without it. ShapeError unless eta is n x n; the message
    names the other operand (other is n x n) when other is given.
    """
    if isinstance(eta, MetricOperator):
        x, system = eta.rows, eta.eigensystem
        shape = (eta.mat if eta.frame is None else eta.frame).shape
    else:
        x, system = _as_matrix(eta), None
        shape = x.shape
    if shape != (n, n):
        if other is None:
            raise ShapeError(f"dimension mismatch: {shape} vs {(n, n)}")
        raise ShapeError(f"dimension mismatch: {other} is {n} x {n}, eta {' x '.join(map(str, shape))}")
    return x, system


def biorthonormal_eigensystem(H) -> BiorthonormalSystem:
    """Diagonalize H; sort by (Re E, Im E, original index); factor its eigenvectors.

    H is an Operator or a SplitHamiltonian. An H with a PT frame
    (operators.pt_frame) is diagonalized there, as the real matrix
    S^dagger H S (_frame, which a grid split builds with no dense H). When
    every eigenvalue is real, numpy's eig returns a real v, and the system
    is built in the frame: W = v, psi = S W. Otherwise (a broken PT phase,
    or no frame) W is the complex eigenvector matrix, S v or H's own, and
    psi = W. Either way W is sorted and given unit columns in its own
    buffer, and one SVD W = U Sigma V^H gives sigma and
    W^-H = U Sigma^-1 V^H, so phi = inv(psi)^dagger and the Gram identity
    and completeness hold to rounding, degenerate blocks included. A phase
    per column would change neither the metric nor the defects, so none is
    fixed. The defects are max|W^-1 W - I| and max|B (W W^-1 - I) B^dagger|,
    one product each on W^-H.
    """
    frame = _frame(H)
    if frame is not None:
        w, v = np.linalg.eig(frame)
        del frame
        in_frame = np.isrealobj(w)
        if not in_frame:
            v = from_pt_frame_columns(v)  # the normalization below removes the sqrt(2)
    else:
        w, v = np.linalg.eig(_dense(H))
        in_frame = False
    order = np.lexsort((np.arange(w.size), w.imag, w.real))
    w = w[order].astype(complex)
    v[:] = v[:, order]
    v /= np.linalg.norm(v, axis=0)
    u, sv, vh = np.linalg.svd(v)
    _check_condition(sv)
    inv_h = (u / sv) @ vh
    gram = max_norm(_minus_identity(inv_h.conj().T @ v))
    z = _minus_identity(v @ inv_h.conj().T)
    if in_frame:  # B (W W^-1 - I) B^dagger, formed and reduced ROW_BLOCK rows at a time
        completeness = _max_norm_rows(lambda start, stop: from_pt_frame(z, start, stop), w.size, "W W^-1 - I")
    else:
        completeness = max_norm(z)
    return BiorthonormalSystem(w, (u, sv, vh), in_frame, gram, completeness)


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

    phi phi^dagger = B W^-H W^-1 B^dagger = B U Sigma^-2 U^dagger B^dagger,
    formed from U (in the frame with no complex product), so eta's
    eigenvalues are 1/sigma^2 over the singular values sigma of psi. The
    metric carries the eigensystem (sigma^-2, U, in_frame), lam ascending.
    """
    first = sys._first_off_real(tol)
    if first is not None:
        e = sys.eigenvalues[first]
        raise RealityError(f"eigenvalue E_{first} = {e:.12g} is not real within tolerance")
    u, sv, _ = sys.factors
    return _metric(sv**-2.0, u, sys.in_frame)


def _stencil(H) -> SplitHamiltonian | None:
    """H if it is a structured grid split, whose products with H are stencils; else None."""
    return H if isinstance(H, SplitHamiltonian) and H.is_stencil else None


def _dense(H) -> np.ndarray:
    """The dense matrix of H, an Operator or a SplitHamiltonian at its epsilon."""
    return H.total().mat if isinstance(H, SplitHamiltonian) else H.mat


def _frame(H) -> np.ndarray | None:
    """pt_frame of H's matrix; a SplitHamiltonian builds its own (SplitHamiltonian.frame)."""
    return H.frame() if isinstance(H, SplitHamiltonian) else pt_frame(H.mat)


def pseudo_hermiticity_residual(H, eta) -> float:
    """||H^dagger eta - eta H|| in max-norm (multiplied-through form).

    H is an Operator, or a SplitHamiltonian standing for H0 + epsilon H1 at
    its epsilon. For a structured grid split the residual is
    [H0, eta] - epsilon i (v_i + v_j) eta_ij: a stencil and an elementwise
    product, reduced ROW_BLOCK rows at a time over one pass
    (SplitHamiltonian.adjoint_residual) with no N x N temporary. A dense
    split, or an Operator, takes the two dense products.

    Raises InvertibilityError when eta is numerically singular: its smallest
    singular value is at or below DEFAULT_TOL.bound(largest). For a metric
    the package builds (spectral_metric, metric_from_series) these are its
    eig_range, eta's extreme eigenvalues read off the eigensystem it
    carries, so no factorization runs here. For a metric a user passes in (a
    raw array, an Operator, or a MetricOperator without an eigensystem) they
    come from an SVD of eta.
    """
    x, system = _metric_operands(eta, H.dim)
    if system is not None:
        lo, hi = system[0].min(), system[0].max()
    else:
        sv = np.linalg.svd(_as_matrix(eta), compute_uv=False)
        lo, hi = sv[-1], sv[0]
    if lo <= DEFAULT_TOL.bound(hi):
        raise InvertibilityError(f"metric is numerically singular (smallest sv {lo:.3e})")
    split = _stencil(H)
    if split is not None:
        return _max_norm_blocks(split.adjoint_residual(x), H.dim, "H^dagger eta - eta H")
    h, e = _dense(H), _as_matrix(eta)
    return max_norm(h.conj().T @ e - e @ h, "H^dagger eta - eta H")


def pseudo_hermiticity_threshold(H, eta) -> float:
    """The residual's bound RESIDUAL_REL max(1, H.norm() |eta|), for an Operator or split H.

    A frame metric's |eta| is taken from its rows (MetricOperator.rows).
    """
    x, _ = _metric_operands(eta, H.dim)
    eta_norm = _max_norm_rows(x, H.dim, "eta") if callable(x) else max_norm(x)
    return RESIDUAL_REL * max(1.0, H.norm() * eta_norm)


def equivalent_hermitian(H, eta, tol: Tolerance = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """h = rho H rho^{-1} with rho = eta^{1/2}; Hermitian, isospectral with H.

    H is an Operator or a SplitHamiltonian. Raises ResidualError unless eta
    passes pseudo_hermiticity_residual within pseudo_hermiticity_threshold.
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
    frame when eta has one); the positivity rule is on lam.min(). Then
    rho = U lam^(1/2) U^dagger and rho^-1 = U lam^(-1/2) U^dagger. With
    U = S u in the frame and an H that has one, F = S^dagger H S (_frame,
    a grid split's own), h is S (Y F Y^-1) S^dagger with Y = u lam^(1/2) u^T,
    two real products. Otherwise h is the complex product (rho H) rho^-1,
    two dense products with H's dense matrix (_dense).
    """
    if residual > threshold:
        raise ResidualError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds threshold {threshold:.3e}"
        )
    _, system = _metric_operands(eta, H.dim)
    if system is None:
        system = _hermitian_eigensystem(_as_matrix(eta), tol, "equivalent_hermitian")
    lam, u, in_frame = system
    if lam.min() <= tol.abs_tol:
        raise PositivityError(f"matrix not positive definite: eigenvalue {lam.min():.6e}")
    r = np.sqrt(lam)
    if in_frame:
        f = _frame(H)
        if f is not None:
            # h before rho, each frame matrix dropped once used: this step
            # sets the spectral task's peak memory
            y = _symmetric_product(u * r, u)
            yf = y @ f
            del f
            x = yf @ _symmetric_product(u / r, u)
            del yf
            h = Operator._own(from_pt_frame(x))
            del x
            return h, Operator._own(from_pt_frame(y))
    rho = _from_eigenbasis(u * r, u, in_frame)
    h = (rho.mat @ _dense(H)) @ _from_eigenbasis(u / r, u, in_frame).mat
    return Operator._own(h), rho


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
    IndexReversal J, which is one exactly; eta, and H when given, must be
    P's size, else ShapeError. For J and an eta that carries its
    eigensystem in the PT frame, eta = S u diag(lam) u^T S^dagger, and
    S^dagger J S = J, so C = S X S^dagger with X = (u lam^-1 u^T) J real,
    one real product, and C^2 - I = S (X^2 - I) S^dagger. Any other eta or P
    takes the complex solve. H is an Operator or a SplitHamiltonian; for a
    structured grid split, [C, H] = -[H0, C] - epsilon [H1, C] is a stencil
    and an elementwise product, reduced in row blocks over one pass.
    """
    n = P.dim
    _, system = _metric_operands(eta, n, "P")
    if H is not None and H.dim != n:
        raise ShapeError(f"dimension mismatch: P is {n} x {n}, H {H.dim} x {H.dim}")
    if isinstance(P, IndexReversal) and system is not None and system[2]:
        lam, u, _ = system
        x = _symmetric_product(u / lam, u)[:, ::-1]
        c = from_pt_frame(x)
        z = _minus_identity(x @ x)
        invol = _max_norm_rows(lambda start, stop: from_pt_frame(z, start, stop), n, "C^2 - I")
    else:
        e = _as_matrix(eta)
        c = np.linalg.solve(e, _checked_parity(P, tol))
        invol = max_norm(c @ c - np.eye(n))
    comm = None
    split = _stencil(H)
    if split is not None:
        comm = _max_norm_blocks(split.total_commutator(c), n, "[C, H]")
    elif H is not None:
        h = _dense(H)
        comm = max_norm(c @ h - h @ c, "[C, H]")
    return Operator._own(c), comm, invol


def parity_pseudo_hermiticity_residual(H, P) -> float:
    """||H^dagger P - P H|| for an Operator or split H; ShapeError unless P is H's size.

    For a structured grid split and IndexReversal J it is read off the O(N)
    data: H0 is persymmetric, so H^dagger J - J H has nonzero entries only on
    the anti-diagonal, -i epsilon (v_i + v_{N-1-i}), which is the dense
    products' value bit for bit. Any other H or P takes the dense products.
    """
    if P.dim != H.dim:
        raise ShapeError(f"dimension mismatch: P is {P.dim} x {P.dim}, H {H.dim} x {H.dim}")
    split = _stencil(H)
    if split is not None and isinstance(P, IndexReversal):
        ev = split.epsilon * split._stencil[2]
        return max_norm(ev + ev[::-1], "H^dagger J - J H")
    h, p = _dense(H), P.mat
    return max_norm(h.conj().T @ p - p @ h)


def metric_factorization(eta) -> Operator:
    """Upper-triangular O with O^dagger O = eta (Cholesky factor)."""
    e = _as_matrix(eta)
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
    e1 = _as_matrix(eta1)
    e2 = _as_matrix(eta2)
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
    """sum_n s_n |phi_n><phi_n| for positive s_n: another valid metric for H.

    That is B W^-H diag(s) W^-1 B^dagger with W^-H = U Sigma^-1 V^H, formed
    from the system's factors with no factorization (in the frame, a real
    product); s = 1 gives spectral_metric's eta to rounding.
    """
    s = np.asarray(scales, dtype=float)
    n = sys.eigenvalues.size
    if s.shape != (n,):
        raise DomainError(f"need {n} scales, got shape {s.shape}")
    if np.any(s <= 0):
        raise DomainError(f"scales must be positive, got min {s.min()}")
    u, sv, vh = sys.factors
    inv_h = (u / sv) @ vh
    return MetricOperator(_from_eigenbasis(inv_h * s, inv_h, sys.in_frame))
