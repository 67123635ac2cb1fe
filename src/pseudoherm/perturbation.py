"""Perturbative metric eta = e^(-Q) for H = H0 + eps*H1.

Two independent routes produce the order-by-order equations [H0, Q_m] = R_m:

* the verbatim master-formula triple sum (master_formula_rhs), whose
  collected scalar weights of [H0,Q]_k are exposed separately, and
* an exact multinomial expansion of e^(-Q) H e^(Q) - H^dagger
  (order_residual), which needs at most m commutator slots at order m and
  therefore carries no truncation error.

The equations are solved in the H0 eigenbasis (sylvester_solve) under the
minimal-norm gauge; H0-commuting Hermitian gauge terms may be injected per
order and are recorded in the gauge log.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    GaugeError,
    NonFiniteError,
    ObstructionError,
    ShapeError,
    StructureError,
)
from .operators import (
    DEFAULT_TOL,
    Operator,
    Tolerance,
    commutator,
    half_difference_norm,
    herm_exp_eig,
    is_hermitian,
    max_norm,
)
from .spectral import MetricOperator, Provenance, pseudo_hermiticity_residual

NOISE_FLOOR = 1e-13


def _tridiagonal_commutator(diag: float, off: float, x: np.ndarray) -> np.ndarray:
    """[T, X] for the symmetric T with diag on the diagonal and off on both neighbours.

    Rows and columns of T X and X T are summed as the dense product sums them:
    the diagonal term, then the lower and the upper neighbour. Works on the
    real view of X, where one complex column is two real ones.
    """
    xr = np.ascontiguousarray(x, dtype=complex).view(float)
    oxr = off * xr
    rows = diag * xr
    rows[1:] += oxr[:-1]
    rows[:-1] += oxr[1:]
    cols = diag * xr
    cols[:, 2:] += oxr[:, :-2]
    cols[:, :-2] += oxr[:, 2:]
    rows -= cols
    return rows.view(complex)


class SplitHamiltonian:
    """H = H0 + epsilon * H1 with Hermitian H0 and anti-Hermitian H1.

    Built from two dense Operators, or by SplitHamiltonian.tridiagonal from
    O(N) data: H0 as the real coefficients of a symmetric tridiagonal stencil
    and H1 = i diag(v) as the real vector v. Both forms answer the same
    questions: [H0, X] and [H1, X] (a stencil and an elementwise product in
    the structured form), the max-norms of H0 and H1, and X + s H1. .H0, .H1
    and total() give dense Operators, which the structured form builds only
    when they are asked for.
    """

    def __init__(self, H0: Operator, H1: Operator, epsilon: float):
        if H0.dim != H1.dim:
            raise ShapeError(f"dimension mismatch: {H0.dim} vs {H1.dim}")
        h0, h1 = H0.mat, H1.mat
        # is_hermitian cannot overflow, so an entry near the float limit still
        # names the rule; i H1 is Hermitian exactly when H1 is anti-Hermitian
        if not is_hermitian(h0):
            raise StructureError("H0 must be Hermitian")
        if not is_hermitian(1j * h1):
            raise StructureError("H1 must be anti-Hermitian")
        self._dense = (H0, H1)
        self._stencil = None
        self.epsilon = epsilon

    @classmethod
    def tridiagonal(cls, diag: float, off: float, v, epsilon: float) -> "SplitHamiltonian":
        """H0 with diag on the diagonal and off on both neighbours, H1 = i diag(v).

        A real stencil is Hermitian and i diag(v) with real v anti-Hermitian,
        so validation is the O(N) check that the coefficients and v are real
        and finite. The dense forms carry the labels of the grid Schroedinger
        split, "p^2" and "i v(x)".
        """
        v = np.array(v)
        if np.iscomplexobj(v) or np.iscomplexobj([diag, off]):
            raise StructureError("a tridiagonal split needs real stencil coefficients and real v")
        if v.ndim != 1 or v.size < 2:
            raise ShapeError(f"v must be a 1-D vector of at least 2 entries, got shape {v.shape}")
        v = v.astype(float)
        if not (np.all(np.isfinite(v)) and np.isfinite(diag) and np.isfinite(off)):
            raise NonFiniteError("operator entries must be finite")
        v.setflags(write=False)
        split = cls.__new__(cls)
        split._dense = None
        split._stencil = (float(diag), float(off), v)
        split.epsilon = epsilon
        return split

    @property
    def dim(self) -> int:
        return self._dense[0].dim if self._stencil is None else self._stencil[2].size

    def _h0_matrix(self) -> np.ndarray:
        """A fresh complex copy of H0."""
        if self._stencil is None:
            return self._dense[0].mat.copy()
        diag, off, v = self._stencil
        n = v.size
        h = np.zeros((n, n), dtype=complex)
        h.flat[:: n + 1] = diag
        h.flat[1 :: n + 1] = off
        h.flat[n :: n + 1] = off
        return h

    @property
    def H0(self) -> Operator:
        if self._stencil is None:
            return self._dense[0]
        return Operator(self._h0_matrix(), label="p^2")

    @property
    def H1(self) -> Operator:
        if self._stencil is None:
            return self._dense[1]
        return Operator(1j * np.diag(self._stencil[2]), label="i v(x)")

    def h0_norm(self) -> float:
        """max_norm of H0."""
        if self._stencil is None:
            return max_norm(self._dense[0].mat)
        diag, off, _ = self._stencil
        return max(abs(diag), abs(off))

    def h1_norm(self) -> float:
        """max_norm of H1."""
        if self._stencil is None:
            return max_norm(self._dense[1].mat)
        return max_norm(self._stencil[2])

    def h0_commutator(self, x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start:stop of [H0, X]; all of [H0, X] by default.

        In the structured form a row of [H0, X] reads only the rows of X next
        to it, so the rows come from a slab of X with one halo row on each
        side, each entry summed exactly as in the whole commutator.
        """
        n = x.shape[0]
        stop = n if stop is None else stop
        if self._stencil is None:
            h0 = self._dense[0].mat
            if start == 0 and stop == n:
                return commutator(h0, x)
            return h0[start:stop] @ x - x[start:stop] @ h0
        diag, off, _ = self._stencil
        lo, hi = max(start - 1, 0), min(stop + 1, n)
        return _tridiagonal_commutator(diag, off, x[lo:hi])[start - lo : stop - lo]

    def h1_commutator(self, x: np.ndarray) -> np.ndarray:
        """[H1, X]; for H1 = i diag(v), entry (i, j) is i v_i X_ij - X_ij i v_j."""
        if self._stencil is None:
            return commutator(self._dense[1].mat, x)
        iv = 1j * self._stencil[2]
        return iv[:, None] * x - x * iv[None, :]

    def add_h1(self, x: np.ndarray, scale: float, start: int = 0) -> np.ndarray:
        """x += scale * H1 in place; returns x.

        x is complex and holds rows start:start + len(x) of an N x N array,
        all N rows by default.
        """
        rows = slice(start, start + x.shape[0])
        if self._stencil is None:
            x += scale * self._dense[1].mat[rows]
        else:
            i = np.arange(x.shape[0])
            x[i, start + i] += scale * (1j * self._stencil[2][rows])
        return x

    def total(self, epsilon: float | None = None) -> Operator:
        e = self.epsilon if epsilon is None else epsilon
        return Operator(self.add_h1(self._h0_matrix(), e))


@dataclass(frozen=True)
class QSeries:
    """Hermitian coefficients Q_1 ... Q_l of Q = sum_j Q_j eps^j."""

    terms: tuple
    gauge_log: tuple = field(default=(), compare=False)
    # (residual, bound) per order as solve_q_series checked it; () if hand-built
    order_checks: tuple = field(default=(), compare=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        for j, q in enumerate(terms):
            if not is_hermitian(q.mat):
                raise StructureError(f"Q_{j + 1} is not Hermitian within tolerance")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "gauge_log", tuple(self.gauge_log))

    @property
    def order(self) -> int:
        return len(self.terms)

    def summed(self, epsilon: float) -> Operator:
        acc = np.zeros_like(self.terms[0].mat)
        for j, q in enumerate(self.terms):
            try:
                acc = acc + q.mat * epsilon ** (j + 1)
            except OverflowError:
                raise NonFiniteError(f"epsilon^{j + 1} overflows at epsilon = {epsilon}") from None
        return Operator(acc)


def master_formula_coefficients(ell: int) -> np.ndarray:
    """Collected scalar weight of [H0,Q]_k (k = 1..ell) in the triple sum.

    Entry k-1 is sum over m <= k <= ell and j <= m of
    (-1)^j j^k / (k! 2^m) * C(m, j).
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    c = np.zeros(ell)
    for m in range(1, ell + 1):
        for k in range(m, ell + 1):
            for j in range(1, m + 1):
                c[k - 1] += ((-1) ** j * j**k / (math.factorial(k) * 2**m)) * math.comb(m, j)
    return c


def master_formula_rhs(H0: Operator, Q: Operator, ell: int) -> Operator:
    """The triple sum sum_m sum_{k=m..ell} sum_j (-1)^j j^k/(k! 2^m) C(m,j) [H0,Q]_k.

    Evaluated term by term as written; equals eps*H1 up to O(eps^{ell+1})
    when Q solves the order equations.
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    h0, q = H0.mat, Q.mat
    if h0.shape != q.shape:
        raise ShapeError(f"dimension mismatch: {h0.shape} vs {q.shape}")
    nc = {}
    x = h0
    for k in range(1, ell + 1):
        x = commutator(x, q)
        nc[k] = x
    acc = np.zeros_like(h0)
    for m in range(1, ell + 1):
        for k in range(m, ell + 1):
            for j in range(1, m + 1):
                coef = ((-1) ** j * j**k / (math.factorial(k) * 2**m)) * math.comb(m, j)
                acc = acc + coef * nc[k]
    return Operator(acc)


def _compositions(n: int):
    """All tuples of positive integers summing to n (the empty tuple for 0)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _chain_sum(split: SplitHamiltonian, terms: list, m: int):
    """order_residual's sum over the given Q_j; chains through a missing Q_j are skipped.

    The first link of each chain, [H0, Q_j] or [H1, Q_j], goes through the split.
    """
    n = split.dim
    # H - H^dagger = 2 eps H1 enters at order 1; elsewhere 0 + array needs no zero matrix
    res = split.add_h1(np.zeros((n, n), dtype=complex), 2.0) if m == 1 else 0
    for head_commutator, budget in ((split.h0_commutator, m), (split.h1_commutator, m - 1)):
        for comp in _compositions(budget):
            if not comp or max(comp) > len(terms):
                continue
            x = head_commutator(terms[comp[0] - 1])
            for j in comp[1:]:
                x = commutator(x, terms[j - 1])
            res = res + x / math.factorial(len(comp))
    return res


def order_residual(split: SplitHamiltonian, q: QSeries, m: int) -> Operator:
    """Coefficient of eps^m in e^(-Q) H e^(Q) - H^dagger, expanded exactly.

    H - H^dagger contributes 2*H1 at m = 1; each [H,Q]_k / k! contributes
    chained commutators [..[head, Q_{j1}], ..., Q_{jk}] over compositions
    j1 + ... + jk of m (head H0) or m - 1 (head H1). Zero means the order-m
    equation holds.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m > q.order:
        raise DomainError(f"order {m} exceeds available terms ({q.order})")
    return Operator(_chain_sum(split, [t.mat for t in q.terms], m))


def order_equation_rhs(
    split: SplitHamiltonian, q_lower: QSeries | None, m: int, tol: Tolerance = DEFAULT_TOL
) -> Operator:
    """R_m with [H0, Q_m] = R_m: minus the order-m residual without Q_m.

    Q_m enters the order-m residual only through [H0, Q_m], so R_m is the
    negated chain sum over Q_1 .. Q_{m-1}. R_m must come out anti-Hermitian
    for the equation to admit a Hermitian solution.
    """
    lower = () if q_lower is None else q_lower.terms
    if len(lower) != m - 1:
        raise DomainError(f"need {m - 1} lower-order terms for order {m}, got {len(lower)}")
    r = -_chain_sum(split, [t.mat for t in lower], m)
    defect = 2 * half_difference_norm(r, -r.conj().T)
    if defect > tol.bound(max(max_norm(r), split.h1_norm())):
        raise ConsistencyError(
            f"order-{m} source fails anti-Hermiticity (defect {defect:.3e}); "
            "the equation would have no Hermitian solution"
        )
    return Operator(r)


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of h, in real arithmetic when h has no imaginary part."""
    if not h.imag.any():
        return np.linalg.eigh((h.real + h.real.T) / 2)
    return np.linalg.eigh((h + h.conj().T) / 2)


def _check_sylvester(h0: np.ndarray, r: np.ndarray, tol: Tolerance) -> None:
    if h0.shape != r.shape:
        raise ShapeError(f"dimension mismatch: {h0.shape} vs {r.shape}")
    if not is_hermitian(h0, tol):
        raise StructureError("H0 must be Hermitian")
    if not is_hermitian(1j * r, tol):
        raise StructureError("source R must be anti-Hermitian")


def sylvester_solve(H0: Operator, R: Operator, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Minimal-norm Hermitian Q with [H0, Q] = R, solved in the H0 eigenbasis.

    Q_mn = R_mn / (E_m - E_n) off the degenerate pairs; gaps at or below
    abs_tol count as degenerate and their entries are gauged to zero, which
    is only consistent when the source vanishes there (Fredholm condition).
    """
    _check_sylvester(H0.mat, R.mat, tol)
    return _sylvester_eigenbasis(_hermitian_eigh(H0.mat), R.mat, tol)


def _sylvester_eigenbasis(
    eigensystem: tuple[np.ndarray, np.ndarray], r: np.ndarray, tol: Tolerance
) -> Operator:
    """sylvester_solve given H0's (E, U); the inputs are already checked."""
    e, u = eigensystem
    rt = u.conj().T @ r @ u
    gaps = e[:, None] - e[None, :]
    degenerate = np.abs(gaps) <= tol.abs_tol
    blocked = degenerate & (np.abs(rt) > tol.bound(max_norm(r)))
    if blocked.any():
        i, j = np.argwhere(blocked)[0]
        raise ObstructionError(
            f"order equation unsolvable: source element {abs(rt[i, j]):.3e} on the "
            f"degenerate pair (m={i}, n={j}) with E_m = E_n = {e[i]:.12g}"
        )
    qt = np.where(degenerate, 0.0, rt / np.where(degenerate, 1.0, gaps))
    qm = u @ qt @ u.conj().T
    return Operator((qm + qm.conj().T) / 2)


def solve_q_series(
    split: SplitHamiltonian,
    ell: int,
    gauge: dict[int, Operator] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QSeries:
    """Iterate order_equation_rhs / sylvester_solve for m = 1..ell.

    gauge maps an order m to a Hermitian H0-commuting addition to Q_m
    (validated; recorded in the gauge log). On return every order residual
    1..ell, which is |[H0, Q_m] - R_m| once Q_m is solved, vanishes within
    tolerance; order_checks holds each (residual, bound).
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    gauge = gauge or {}
    h0 = split.H0.mat
    h0_norm = split.h0_norm()
    terms: tuple = ()
    glog = []
    residuals = []
    # one factorization of H0 serves every order; it is not kept past the
    # solve, so it adds nothing to the memory held by later tasks
    h0_eig = _hermitian_eigh(h0)
    for m in range(1, ell + 1):
        rm = order_equation_rhs(split, QSeries(terms) if terms else None, m, tol)
        _check_sylvester(h0, rm.mat, tol)
        qm = _sylvester_eigenbasis(h0_eig, rm.mat, tol)
        entry = {"order": m, "gauge": "minimal", "rhs_norm": max_norm(rm.mat)}
        if m in gauge:
            g = gauge[m].mat
            if max_norm(g - g.conj().T) > tol.bound(max_norm(g)):
                raise GaugeError(f"order-{m} gauge term is not Hermitian")
            if max_norm(split.h0_commutator(g)) > tol.bound(h0_norm * max(1.0, max_norm(g))):
                raise GaugeError(f"order-{m} gauge term does not commute with H0")
            qm = Operator(qm.mat + g)
            entry["gauge"] = "minimal+custom"
            entry["custom_norm"] = max_norm(g)
        residuals.append(max_norm(split.h0_commutator(qm.mat) - rm.mat))
        terms = terms + (qm,)
        glog.append(entry)
    scale = max(1.0, h0_norm + split.h1_norm())
    qscale = max(1.0, max(max_norm(t.mat) for t in terms))
    checks = tuple((r, tol.bound(scale * qscale**m)) for m, r in enumerate(residuals, start=1))
    for m, (res, bound) in enumerate(checks, start=1):
        if res > bound:
            raise ConsistencyError(f"order-{m} residual {res:.3e} after solve")
    return QSeries(terms, tuple(glog), checks)


def metric_from_series(q: QSeries, epsilon: float) -> MetricOperator:
    """eta = e^(-sum_j Q_j eps^j): Hermitian positive definite by construction.

    eta's eigenvalues are e^(-w) over the eigenvalues w of Q(eps), so the
    metric carries (e^(-w_max), e^(-w_min)) as its eig_range.
    """
    op, w = herm_exp_eig(q.summed(epsilon))
    return MetricOperator(
        op,
        Provenance("perturbative", order=q.order, epsilon=epsilon),
        (float(np.exp(-w[-1])), float(np.exp(-w[0]))),
    )


def _decreasing_eps(eps_list) -> np.ndarray:
    eps = np.asarray(eps_list, dtype=float)
    if eps.size < 3:
        raise DomainError(f"need at least 3 epsilon values, got {eps.size}")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise DomainError("eps_list must be strictly decreasing and positive")
    return eps


def _fit_slope(eps: np.ndarray, residuals: np.ndarray) -> float:
    """Least-squares slope of log residual vs log eps.

    Called directly by the public fitting functions: the noise-floor warning
    names their caller's line (stacklevel 3).
    """
    if np.any(residuals < NOISE_FLOOR):
        warnings.warn(
            f"residuals reach the noise floor (min {residuals.min():.3e}); "
            "scaling slope is indeterminate",
            RuntimeWarning,
            stacklevel=3,
        )
    slope, _ = np.polyfit(np.log(eps), np.log(np.maximum(residuals, 1e-300)), 1)
    return float(slope)


def curve_slope(curve) -> float:
    """scaling_exponent's fit applied to an existing residual_curve result."""
    eps = _decreasing_eps([e for e, _ in curve])
    return _fit_slope(eps, np.asarray([r for _, r in curve], dtype=float))


def scaling_exponent(split: SplitHamiltonian, q: QSeries, eps_list) -> float:
    """Least-squares slope of log residual vs log eps; expected >= order + 1.

    The bound is not always attained: for Hermitian H0 and anti-Hermitian H1
    the eps^2 coefficient [H1,Q1] + (1/2)[[H0,Q1],Q1] vanishes for every
    order-1 solution, so the order-1 slope is 3, not 2. order_residual on a
    series padded with zero terms gives the exact leading order.

    Equals curve_slope(residual_curve(split, q, eps_list)) bitwise; a caller
    that already holds the curve should fit it with curve_slope instead.
    Warns (and still returns the slope) when any residual sits at the noise
    floor, where the fit is indeterminate.
    """
    eps = _decreasing_eps(eps_list)
    residuals = np.asarray([r for _, r in residual_curve(split, q, eps)])
    return _fit_slope(eps, residuals)


def residual_curve(split: SplitHamiltonian, q: QSeries, eps_list) -> list[tuple[float, float]]:
    """(epsilon, pseudo-Hermiticity residual) pairs for reporting."""
    out = []
    for e in np.asarray(eps_list, dtype=float):
        eta = metric_from_series(q, e)
        out.append((float(e), pseudo_hermiticity_residual(split.total(e), eta)))
    return out


def random_admissible_split(
    dim: int,
    rng: np.random.Generator,
    parity: bool = False,
    epsilon: float = 0.1,
    h1_scale: float = 0.5,
) -> SplitHamiltonian:
    """Random split with the order-1 solvability condition built in.

    Default: H0 with well-separated eigenvalues in a random unitary frame and
    H1 anti-Hermitian with its H0-eigenbasis diagonal projected out (the
    Fredholm condition for Q_1). With parity=True the pair additionally
    satisfies [H0, P] = 0 and {H1, P} = 0 for a diagonal-signs P, which makes
    every odd-order equation solvable.
    """
    if dim < 2:
        raise DomainError(f"dim must be >= 2, got {dim}")
    eigs = np.linspace(1.0, float(dim), dim) + rng.uniform(-0.2, 0.2, dim)
    if parity:
        signs = np.ones(dim)
        signs[rng.choice(dim, size=dim // 2, replace=False)] = -1.0
        same = (signs[:, None] * signs[None, :]) > 0
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h0 = ((a + a.conj().T) / 2) * same * 0.3 + np.diag(eigs)
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h1 = ((b - b.conj().T) / 2) * (~same) * h1_scale
        return SplitHamiltonian(Operator(h0), Operator(h1), epsilon)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(z)
    h0 = (u * eigs) @ u.conj().T
    h0 = (h0 + h0.conj().T) / 2
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = (b - b.conj().T) / 2 * h1_scale
    h1t = u.conj().T @ h1 @ u
    np.fill_diagonal(h1t, 0.0)
    h1 = u @ h1t @ u.conj().T
    h1 = (h1 - h1.conj().T) / 2
    return SplitHamiltonian(Operator(h0), Operator(h1), epsilon)
