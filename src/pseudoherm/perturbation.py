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
    SplitHamiltonian,
    Tolerance,
    _hermitian_eigensystem,
    _hermiticity,
    commutator,
    half_difference_norm,
    is_hermitian,
    max_norm,
)
from .spectral import MetricOperator, _metric, pseudo_hermiticity_residual

NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class QSeries:
    """Hermitian coefficients Q_1 ... Q_l of Q = sum_j Q_j eps^j."""

    terms: tuple
    gauge_log: tuple = field(default=(), compare=False)
    # (residual, bound) per order as solve_q_series checked it; () if hand-built
    order_checks: tuple = field(default=(), compare=False)
    # max_norm(Q_j) and max_norm(Q_j - Q_j^dagger) per term, as the Hermiticity rule measured them
    norms: tuple = field(init=False, compare=False)
    hermiticity_defects: tuple = field(init=False, compare=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        measured = []
        for j, q in enumerate(terms):
            norm, defect = _hermiticity(q.mat)
            if defect > DEFAULT_TOL.bound(norm):
                raise StructureError(f"Q_{j + 1} is not Hermitian within tolerance")
            measured.append((norm, defect))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "gauge_log", tuple(self.gauge_log))
        object.__setattr__(self, "norms", tuple(n for n, _ in measured))
        object.__setattr__(self, "hermiticity_defects", tuple(d for _, d in measured))

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
        return Operator._own(acc)


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


def _graded(x: np.ndarray) -> tuple[np.ndarray, complex] | None:
    """(a, p) with x = p a, a real and p = 1 or 1j, if x is purely real or purely imaginary.

    On the Schroedinger grid H0 is real and H1 imaginary, so Q_m and R_m are
    i^m times a real matrix and their products can run in real arithmetic.
    """
    if not x.imag.any():
        return x.real, 1 + 0j
    if not x.real.any():
        return x.imag, 1j
    return None


def _graded_commutator(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """commutator(x, q), as one real commutator times a phase when x and q are each graded."""
    gx, gq = _graded(x), _graded(q)
    if gx is None or gq is None:
        return commutator(x, q)
    (a, p), (b, s) = gx, gq
    return (p * s) * commutator(a, b)


def _chain_sum(split: SplitHamiltonian, terms: list, m: int):
    """order_residual's sum over the given Q_j; chains through a missing Q_j are skipped.

    The first link of each chain, [H0, Q_j] or [H1, Q_j], goes through the
    split; a later link runs in real arithmetic when its operands are graded.
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
                x = _graded_commutator(x, terms[j - 1])
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
    for the equation to admit a Hermitian solution; it is judged by the
    solve's rule (_check_source), StructureError past tol.bound(|R_m|).
    """
    lower = () if q_lower is None else q_lower.terms
    if len(lower) != m - 1:
        raise DomainError(f"need {m - 1} lower-order terms for order {m}, got {len(lower)}")
    r = -_chain_sum(split, [t.mat for t in lower], m)
    _check_source(r, tol)
    return Operator._own(r)


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of h, in real arithmetic when h has no imaginary part."""
    if not h.imag.any():
        return np.linalg.eigh((h.real + h.real.T) / 2)
    return np.linalg.eigh((h + h.conj().T) / 2)


def _check_h0(h0: np.ndarray, tol: Tolerance) -> None:
    if not is_hermitian(h0, tol):
        raise StructureError("H0 must be Hermitian")


def _check_source(r: np.ndarray, tol: Tolerance) -> float:
    """|R|, once the defect |R + R^dagger| is within tol.bound(|R|): the Hermiticity rule on i R."""
    norm = max_norm(r)
    defect, bound = 2 * half_difference_norm(r, -r.conj().T), tol.bound(norm)
    if defect > bound:
        raise StructureError(f"source R must be anti-Hermitian: defect {defect:.3e} exceeds {bound:.3e}")
    return norm


def sylvester_solve(H0: Operator, R: Operator, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Minimal-norm Hermitian Q with [H0, Q] = R, solved in the H0 eigenbasis.

    Q_mn = R_mn / (E_m - E_n) off the degenerate pairs; gaps at or below
    abs_tol count as degenerate and their entries are gauged to zero, which
    is only consistent when the source vanishes there (Fredholm condition).
    A source R not anti-Hermitian within tol.bound(|R|) raises StructureError.
    """
    if H0.mat.shape != R.mat.shape:
        raise ShapeError(f"dimension mismatch: {H0.mat.shape} vs {R.mat.shape}")
    _check_h0(H0.mat, tol)
    r_norm = _check_source(R.mat, tol)
    return _sylvester_eigenbasis(_hermitian_eigh(H0.mat), R.mat, r_norm, tol)


def _sylvester_eigenbasis(
    eigensystem: tuple[np.ndarray, np.ndarray], r: np.ndarray, r_norm: float, tol: Tolerance
) -> Operator:
    """sylvester_solve given H0's (E, U) and r_norm = |R|; the inputs are already checked.

    With U real and R = p A graded (A real, p = 1 or i), both basis changes
    U^T A U and U Q~ U^T run in real arithmetic and the phase is applied once.
    """
    e, u = eigensystem
    graded = _graded(r) if np.isrealobj(u) else None
    if graded is None:
        rt = u.conj().T @ r @ u
    else:
        a, phase = graded
        rt = u.T @ a @ u
    gaps = e[:, None] - e[None, :]
    degenerate = np.abs(gaps) <= tol.abs_tol
    blocked = degenerate & (np.abs(rt) > tol.bound(r_norm))
    if blocked.any():
        i, j = np.argwhere(blocked)[0]
        raise ObstructionError(
            f"order equation unsolvable: source element {abs(rt[i, j]):.3e} on the "
            f"degenerate pair (m={i}, n={j}) with E_m = E_n = {e[i]:.12g}"
        )
    qt = np.where(degenerate, 0.0, rt / np.where(degenerate, 1.0, gaps))
    if graded is None:
        qm = u @ qt @ u.conj().T
        return Operator._own((qm + qm.conj().T) / 2)
    qm = u @ qt @ u.T
    # the Hermitian part of p A is p (A + A^T) / 2 for p = 1, p (A - A^T) / 2 for p = i
    return Operator._own(phase * ((qm + qm.T) / 2 if phase == 1 else (qm - qm.T) / 2))


def solve_q_series(
    split: SplitHamiltonian,
    ell: int,
    gauge: dict[int, Operator] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QSeries:
    """Iterate order_equation_rhs / sylvester_solve for m = 1..ell.

    Each source R_m is formed once and judged once, by sylvester_solve's rule.
    gauge maps an order m to a Hermitian H0-commuting addition to Q_m
    (validated; recorded in the gauge log). On return every order residual
    1..ell, which is |[H0, Q_m] - R_m| once Q_m is solved, vanishes within
    tolerance; order_checks holds each (residual, bound).
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    gauge = gauge or {}
    h0 = split.H0.mat
    _check_h0(h0, tol)
    h0_norm = split.h0_norm()
    terms: tuple = ()
    glog = []
    residuals = []
    # one factorization of H0 serves every order and is not kept past the
    # solve; the dense H0, held through the orders, would set the solve's peak
    h0_eig = _hermitian_eigh(h0)
    del h0
    for m in range(1, ell + 1):
        rm = -_chain_sum(split, [t.mat for t in terms], m)
        rm_norm = _check_source(rm, tol)
        qm = _sylvester_eigenbasis(h0_eig, rm, rm_norm, tol)
        entry = {"order": m, "gauge": "minimal", "rhs_norm": rm_norm}
        if m in gauge:
            g = gauge[m].mat
            if not is_hermitian(g, tol):
                raise GaugeError(f"order-{m} gauge term is not Hermitian")
            if max_norm(split.h0_commutator(g)) > tol.bound(h0_norm * max(1.0, max_norm(g))):
                raise GaugeError(f"order-{m} gauge term does not commute with H0")
            qm = Operator._own(qm.mat + g)
            entry["gauge"] = "minimal+custom"
            entry["custom_norm"] = max_norm(g)
        residuals.append(max_norm(split.h0_commutator(qm.mat) - rm))
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

    One eigh of Q(eps) = U diag(w) U^dagger (in the PT frame when Q(eps) has
    one) gives eta = U diag(e^(-w)) U^dagger, and the metric carries that
    eigensystem (e^(-w), u, in_frame) in eigh order, lam descending.
    """
    w, u, in_frame = _hermitian_eigensystem(q.summed(epsilon).mat, DEFAULT_TOL, "metric_from_series")
    return _metric(np.exp(-w), u, in_frame)


def _decreasing_eps(eps_list) -> np.ndarray:
    eps = np.asarray(eps_list, dtype=float)
    if eps.size < 3:
        raise DomainError(f"need at least 3 epsilon values, got {eps.size}")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise DomainError("eps_list must be strictly decreasing and positive")
    return eps


def curve_slope(curve) -> float:
    """Least-squares slope of log residual vs log eps over a residual_curve result.

    The truncation bound gives a slope >= order + 1, which is not always
    attained: for Hermitian H0 and anti-Hermitian H1 the eps^2 coefficient
    [H1,Q1] + (1/2)[[H0,Q1],Q1] vanishes for every order-1 solution, so the
    order-1 slope is 3, not 2. order_residual on a series padded with zero
    terms gives the exact leading order. Warns (naming the caller's line) and
    still returns the slope when any residual sits at the noise floor, where
    the fit is indeterminate.
    """
    eps = _decreasing_eps([e for e, _ in curve])
    residuals = np.asarray([r for _, r in curve], dtype=float)
    if np.any(residuals < NOISE_FLOOR):
        warnings.warn(
            f"residuals reach the noise floor (min {residuals.min():.3e}); "
            "scaling slope is indeterminate",
            RuntimeWarning,
            stacklevel=2,
        )
    slope, _ = np.polyfit(np.log(eps), np.log(np.maximum(residuals, 1e-300)), 1)
    return float(slope)


def residual_curve(split: SplitHamiltonian, q: QSeries, eps_list) -> list[tuple[float, float]]:
    """(epsilon, pseudo-Hermiticity residual) pairs for reporting."""
    out = []
    for e in np.asarray(eps_list, dtype=float):
        # one metric (and the eigensystem it carries) is held at a time
        out.append((float(e), pseudo_hermiticity_residual(split.at(e), metric_from_series(q, e))))
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
