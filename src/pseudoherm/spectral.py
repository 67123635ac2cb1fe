"""Metric operators from biorthonormal eigensystems.

For diagonalizable H with real spectrum, the right/left eigenvector families
{psi_n}, {phi_n} with <phi_m|psi_n> = delta_mn give the positive-definite
metric eta = sum_n |phi_n><phi_n|, which satisfies H^dagger eta = eta H. All
derived objects (equivalent Hermitian h, C = eta^{-1} P, Cholesky factor,
intertwiners between metrics, rescaled metric families) live here.

The system is held as the SVD W = U Sigma V^H of its eigenvector matrix W
with unit columns (BiorthonormalSystem); psi and phi are never formed. A
structured grid split in the unbroken PT phase gets its eigenpairs in O(N^2)
from the tridiagonal H, and U Sigma V^H from one real eigh, with no eig and
no SVD (_grid_eigenpairs, _j_orthogonal_system); any other H is
diagonalized by eig and its W factored by svd. Every metric the package
builds carries its eigensystem eta = U diag(lam) U^dagger (_metric), from
which its eigenvalue range, h, C and rho = eta^{1/2} (herm_sqrt_inv(eta)[0],
which no run forms) follow with no further factorization. The metric is
not unique; the remaining freedom, the scales s_n of
sum_n s_n |phi_n><phi_n|, is exposed through symmetry_rescaled_metric
instead of being hidden.
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
    _max_norm_blocks,
    _max_norm_rows,
    _sqrt_eigensystem,
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
# The grid's O(N^2) eigenpairs (_grid_eigenpairs): Newton on det(H - lam) has
# converged when every step is within NEWTON_ULPS eps |H| (the steps' rounding
# floor is about 0.6 eps |H| from N = 129 to 1025), and gives up, leaving H to
# eig, after NEWTON_SWEEPS sweeps (the step potential needs 4 at eps = 0.1
# and 9 at eps = 1.1, the last unbroken tenth) or once its largest step grows
# (_newton_roots); an eigenpair is kept when max|H psi - lam psi| over unit
# psi is within EIGENPAIR_ULPS eps |H| (0.6 eps |H| measured).
NEWTON_ULPS = 8
NEWTON_SWEEPS = 32
EIGENPAIR_ULPS = 64


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Eigenvalues with right (psi) and left (phi) eigenvector columns, held as factors.

    W is the eigenvector matrix with unit columns and W = U Sigma V^H its
    SVD (factors = (U, sigma, V^H)). Then psi = B W and phi = B W^-H with
    W^-H = U Sigma^-1 V^H, where B is the frame basis S for a system built
    in the PT frame (W real, in_frame) and the identity otherwise (W
    complex); psi's singular values are sigma, descending. gram_defect =
    max|W^-1 W - I| and completeness_defect = max|B (W W^-1 - I) B^dagger|
    were taken when the system was built. On the eig route W^-1 is the SVD's
    inverse, so gram_defect is rounding; on a grid split's O(N^2) route it is
    diag(1/kappa) W^T J W, and gram_defect measures how far the computed W
    is from J-orthogonal (_j_orthogonal_system).
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

    H is an Operator or a SplitHamiltonian. A structured grid split whose
    O(N^2) eigenpairs are accepted (_grid_eigenpairs: real, distinct and
    ascending, so already in this order) is built in the frame from them
    with no eig and no SVD (_j_orthogonal_system). Any other H, and a grid
    split whose eigenpairs are refused, takes eig. An H with a PT frame
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
    one product each on W^-H. An inf eigenvalue raises NonFiniteError.
    """
    split = _stencil(H)
    pairs = None if split is None else _grid_eigenpairs(split)
    if pairs is not None:
        return _j_orthogonal_system(*pairs)
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
    if not np.isfinite(w).all():  # else an inf eigenvalue would reach the report
        raise NonFiniteError("an eigenvalue of H overflowed")
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


def _grid_eigenpairs(split: SplitHamiltonian) -> tuple[np.ndarray, np.ndarray] | None:
    """(E, W) of a structured grid split, in O(N^2) with no factorization; None to leave it to eig.

    W is the real frame matrix's eigenvector matrix, unit columns, and E
    strictly ascending. H = H0 + epsilon H1 is complex-symmetric tridiagonal.
    Only an H that passes pt_frame's rule on its O(N) data (_pt_half) is
    tried. Newton on det(H - lam) from H0's closed-form eigenvalues
    (_newton_roots) gives E, and two sweeps of inverse iteration on
    H - E_k, all k at once, give psi (_inverse_iteration). W = S^dagger psi
    is real up to a phase per column, which is removed. The pairs are kept
    only when Newton converged within NEWTON_SWEEPS sweeps, E is finite and
    ascends by more than Newton's tolerance, and max|F W - W diag(E)|, the
    frame's max|H psi - lam psi| read as one O(N^2) stencil pass, is within
    EIGENPAIR_ULPS eps |H|. N distinct roots are all of H's eigenvalues, so
    a broken PT phase, whose complex pairs have no real root, never passes.
    """
    half = split._pt_half()
    if half is None:
        return None
    diag, off, v = split._stencil
    a = diag + split.epsilon * (1j * v)  # H's diagonal, as total() sums it
    scale = split.norm()
    eps = np.finfo(float).eps
    tol, tiny = NEWTON_ULPS * eps * scale, eps * abs(off)
    with np.errstate(all="ignore"):  # an overflow or a zero pivot refuses the pairs below
        e = _newton_roots(a, off, split._h0_modes()[0], tol, tiny)
        if e is None or not (np.isfinite(e).all() and np.all(np.diff(e) > tol)):
            return None
        w = _frame_columns(_inverse_iteration(a, off, e, tiny))
        # F = H0's stencil plus the anti-diagonal half[::-1] - half (SplitHamiltonian.frame)
        r = w * (diag - e)
        r += (half[::-1] - half)[:, None] * w[::-1]
        r[1:] += off * w[:-1]
        r[:-1] += off * w[1:]
        residual = np.abs(r).max()
    if not residual <= EIGENPAIR_ULPS * eps * scale:
        return None
    return e, w


def _pivot(p: np.ndarray, tiny: float) -> np.ndarray:
    """p with each entry smaller than tiny in modulus replaced by tiny: a zero pivot
    guarded as LAPACK's dlagts guards the small pivots dlagtf flags."""
    return np.where(np.abs(p) < tiny, tiny, p)


def _newton_roots(
    a: np.ndarray, off: float, lam: np.ndarray, tol: float, tiny: float
) -> np.ndarray | None:
    """Newton on det(T - lam) for the tridiagonal T with diagonal a and off on both
    neighbours, from each lam at once; None unless every step is within tol by
    NEWTON_SWEEPS sweeps, and None as soon as the largest step grows.

    det(T - lam) is the product of the LDL^T pivots p_j = (a_j - lam) -
    off^2 / p_(j-1), and the Newton step its value over its derivative, 1 /
    sum_j p_j' / p_j, with r_j = p_j' / p_j = (off^2 / p_(j-1) r_(j-1) - 1) /
    p_j: N passes over O(N) arrays per sweep. Each step's real part is taken:
    for a PT-symmetric T, det(T - lam) is real at a real lam. From H0's
    eigenvalues the largest step shrank every sweep in each unbroken case
    tried (the step and a smooth odd v, N = 16 to 513, eps up to the
    break); in each broken one it grew by the 9th sweep, mostly by the 3rd,
    where a full run of NEWTON_SWEEPS would only delay eig.
    """
    o2 = off * off
    last = np.inf
    for _ in range(NEWTON_SWEEPS):
        p = _pivot(a[0] - lam, tiny)
        r = -1.0 / p
        total = r.copy()
        for aj in a[1:]:
            t = o2 / p
            p = _pivot((aj - lam) - t, tiny)
            r = (t * r - 1.0) / p
            total += r
        step = (1.0 / total).real
        lam = lam - step
        largest = np.abs(step).max()
        if largest <= tol:
            return lam
        if not largest < last:  # grown, or not finite
            return None
        last = largest
    return None


def _inverse_iteration(a: np.ndarray, off: float, lam: np.ndarray, tiny: float) -> np.ndarray:
    """Unit columns psi_k from two sweeps of inverse iteration on T - lam_k (T as in
    _newton_roots), one Thomas solve over every column at once.

    The pivots 1/p_j of each T - lam_k are taken once and serve both sweeps.
    The start 1 + j/N is neither even nor odd, so it has a component along
    every sine mode of H0, and along each psi_k of an H near it.
    """
    n = a.size
    inv_p = np.empty((n, n), dtype=complex)  # row j: 1/p_j of every T - lam_k
    p = a[0] - lam
    for j in range(n):
        if j:
            p = (a[j] - lam) - off * off * inv_p[j - 1]
        inv_p[j] = 1.0 / _pivot(p, tiny)
    x = np.empty((n, n), dtype=complex)
    x[:] = (1.0 + np.arange(n) / n)[:, None]
    for _ in range(2):
        for j in range(1, n):
            x[j] -= (off * inv_p[j - 1]) * x[j - 1]
        x[-1] *= inv_p[-1]
        for j in range(n - 2, -1, -1):
            x[j] -= off * x[j + 1]
            x[j] *= inv_p[j]
        squares = np.einsum("ij,ij->j", x.view(float), x.view(float))  # no N x N temporary
        x /= np.sqrt(squares[0::2] + squares[1::2])
    return x


def _frame_columns(psi: np.ndarray) -> np.ndarray:
    """W = S^dagger psi for psi real in the frame up to a phase per column: that phase
    removed (in psi's buffer) and unit columns.

    S^dagger psi = (psi - i J psi)/sqrt(2), whose squares sum to -i psi^T J psi:
    for S^dagger psi = e^(i theta) W with W real, that is e^(2 i theta) |W|^2.
    """
    t = np.einsum("ij,ij->j", psi, psi[::-1])
    psi *= np.sqrt(1j * t.conj() / np.abs(t))  # e^(-i theta)
    w = psi.real + psi.imag[::-1]  # Re(e^(-i theta) (psi - i J psi))
    w /= np.linalg.norm(w, axis=0)
    return w


def _j_orthogonal_system(e: np.ndarray, w: np.ndarray) -> BiorthonormalSystem:
    """The in-frame system of a grid split's eigenpairs (_grid_eigenpairs), with no SVD.

    On the grid H^T = H, so F = J F^T J and W is J-orthogonal: with
    kappa = diag(W^T J W), W^-1 = diag(1/kappa) W^T J. One real eigh of the
    frame metric y = W^-T W^-1 = J W diag(kappa^-2) W^T J gives
    (sigma^-2, U), the SVD's U and sigma, and V^H = Sigma^-1 U^T W. The
    defects take one product each: gram_defect = max|diag(1/kappa) W^T J W - I|,
    which measures the J-orthogonality of the computed W, and
    completeness_defect = max|S (W diag(1/kappa) W^T J - I) S^dagger|.
    """
    wj = w[::-1]  # J W
    kappa = np.einsum("ij,ij->j", wj, w)
    lam, u = np.linalg.eigh(_symmetric_product(wj / kappa**2, wj))
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = 1.0 / np.sqrt(lam)  # descending, as the SVD's
    _check_condition(sv)
    # each N x N product dropped once reduced, before V^H: at N = 513 this
    # keeps the step's traced peak at four real N x N arrays
    gram = w.T @ wj
    gram /= kappa[:, None]
    gram = max_norm(_minus_identity(gram))
    z = _minus_identity((w / kappa) @ wj.T)
    completeness = _max_norm_rows(lambda start, stop: from_pt_frame(z, start, stop), e.size, "W W^-1 - I")
    del z
    vh = u.T @ w
    vh /= sv[:, None]
    return BiorthonormalSystem(e.astype(complex), (u, sv, vh), True, gram, completeness)


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


def equivalent_hermitian(H, eta, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """h = rho H rho^{-1} with rho = eta^{1/2}; Hermitian, isospectral with H.

    H is an Operator or a SplitHamiltonian. Raises ResidualError unless eta
    passes pseudo_hermiticity_residual within pseudo_hermiticity_threshold.
    rho itself is herm_sqrt_inv(eta)[0].
    """
    return _equivalent_hermitian(
        H, eta, pseudo_hermiticity_residual(H, eta), pseudo_hermiticity_threshold(H, eta), tol
    )


def _equivalent_hermitian(H, eta, residual: float, threshold: float, tol: Tolerance) -> Operator:
    """equivalent_hermitian given eta's residual and threshold, for a caller that has them.

    eta = U diag(lam) U^dagger and lam^(1/2) come from _sqrt_eigensystem, as
    for herm_sqrt_inv. With U = S u in the frame and an H that has one,
    F = S^dagger H S (_frame, a grid split's own), h is S (Y F Y^-1) S^dagger
    with Y = u lam^(1/2) u^T, two real products, and no rho is formed.
    Otherwise h is the complex product (rho H) rho^-1, two dense products
    with H's dense matrix (_dense).
    """
    if residual > threshold:
        raise ResidualError(
            f"pseudo-Hermiticity residual {residual:.3e} exceeds threshold {threshold:.3e}"
        )
    r, u, in_frame = _sqrt_eigensystem(eta, tol, "equivalent_hermitian")
    if in_frame:
        f = _frame(H)
        if f is not None:
            # each frame matrix dropped once used: this step sets the
            # spectral task's peak memory
            yf = _symmetric_product(u * r, u) @ f
            del f
            x = yf @ _symmetric_product(u / r, u)
            del yf
            return Operator._own(from_pt_frame(x))
    rho = _from_eigenbasis(u * r, u, in_frame).mat
    return Operator._own((rho @ _dense(H)) @ _from_eigenbasis(u / r, u, in_frame).mat)


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
    data (SplitHamiltonian.reflection_residual). Any other H or P takes the
    dense products.
    """
    if P.dim != H.dim:
        raise ShapeError(f"dimension mismatch: P is {P.dim} x {P.dim}, H {H.dim} x {H.dim}")
    split = _stencil(H)
    if split is not None and isinstance(P, IndexReversal):
        return split.reflection_residual()
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
    s1, is1 = herm_sqrt_inv(eta1, tol)
    m = is1.mat @ e2 @ is1.mat
    r, u, in_frame = _sqrt_eigensystem((m + m.conj().T) / 2, tol, "metric_intertwiner")
    a = is1.mat @ _from_eigenbasis(u * r, u, in_frame).mat @ s1.mat
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
