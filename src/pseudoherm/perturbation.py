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

On the Schroedinger grid H0 is real and H1 = i diag(v), so every Q_m and
R_m is i^m times a real matrix. solve_q_series holds each as a graded pair
(real matrix, phase): the chain sums, the source rule, the real Sylvester
transforms and the post-solve check run in real arithmetic and in row
blocks, part by part as the complex route would round them, and QSeries
forms complex Operators only when .terms is read. metric_from_series sums
Q(eps)'s two real parts, takes its real frame matrix and returns a frame
metric (spectral.MetricOperator), which keeps y = u diag(lam) u^T and
forms the complex eta only when it is read. A dense split keeps complex
terms and the complex products.
"""

from __future__ import annotations

import math
import warnings

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
    _ComplexParts,
    _hermitian_eigensystem,
    _hermitian_eigh,
    _hermiticity,
    _max_norm_rows,
    _stencil_work,
    commutator,
    is_hermitian,
    max_norm,
)
from .spectral import MetricOperator, _metric, pseudo_hermiticity_residual

NOISE_FLOOR = 1e-13


class QSeries:
    """Hermitian coefficients Q_1 ... Q_l of Q = sum_j Q_j eps^j.

    Built from Operators (terms), or by solve_q_series from graded terms.
    On the grid, H0 is real and H1 imaginary, so each Q_j is p_j A_j with
    A_j real and p_j a power of i; such a series keeps the pairs (A_j, p_j)
    and forms the Operators of .terms only when they are read. Either way
    each term's Hermiticity rule runs once, here. Two series compare equal
    when their terms are the same Operators.
    """

    def __init__(self, terms: tuple, gauge_log: tuple = (), order_checks: tuple = ()):
        terms = tuple(terms)
        self._setup(tuple((t.mat, 1 + 0j) for t in terms), gauge_log, order_checks)
        self._terms = terms

    @classmethod
    def _from_graded(cls, graded: tuple, gauge_log: tuple, order_checks: tuple) -> "QSeries":
        """The series of the graded terms (A_j, p_j): A_j real (or complex with p_j = 1)."""
        q = cls.__new__(cls)
        q._setup(graded, gauge_log, order_checks)
        q._terms = None
        return q

    def _setup(self, graded: tuple, gauge_log: tuple, order_checks: tuple) -> None:
        measured = []
        for j, (a, p) in enumerate(graded):
            norm, defect = _hermiticity(a, f"Q_{j + 1}", _hermitian_sign(p))
            if defect > DEFAULT_TOL.bound(norm):
                raise StructureError(f"Q_{j + 1} is not Hermitian within tolerance")
            measured.append((norm, defect))
        self._graded = graded
        self.gauge_log = tuple(gauge_log)
        # (residual, bound) per order as solve_q_series checked it; () if hand-built
        self.order_checks = tuple(order_checks)
        # max_norm(Q_j) and max_norm(Q_j - Q_j^dagger) per term, as the Hermiticity rule measured them
        self.norms = tuple(n for n, _ in measured)
        self.hermiticity_defects = tuple(d for _, d in measured)

    @property
    def terms(self) -> tuple:
        if self._terms is None:
            self._terms = tuple(Operator._own(_value(a, p)) for a, p in self._graded)
        return self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, QSeries) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @property
    def order(self) -> int:
        return len(self._graded)

    def summed(self, epsilon: float) -> Operator:
        return Operator._own(self._summed(epsilon)[:])

    def _summed(self, epsilon: float):
        """Q(epsilon): a complex array, or for a graded series a _ComplexParts.

        The parts are summed in real arithmetic: each term goes to the real
        or the imaginary part its phase names, with its sign, in the order
        and with the rounding of the complex sum.
        """
        graded = all(np.isrealobj(a) for a, _ in self._graded)
        parts = [None, None]
        for j, (a, p) in enumerate(self._graded):
            try:
                scale = epsilon ** (j + 1)
            except OverflowError:
                raise NonFiniteError(f"epsilon^{j + 1} overflows at epsilon = {epsilon}") from None
            if graded:  # p a goes to part k with the sign of p
                k, x, sign = int(p.imag != 0), a * scale, p.real + p.imag
            else:
                k, x, sign = 0, _value(a, p) * scale, 1
            if parts[k] is None:
                parts[k] = np.zeros(a.shape, dtype=float if graded else complex)
            if sign > 0:
                parts[k] += x
            else:
                parts[k] -= x
        return _ComplexParts(*parts) if graded else parts[0]


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


# A graded pair (a, p) stands for the matrix p a: a real with p one of 1, i,
# -1, -i, or a complex with p = 1. Phases multiply exactly and a sign is
# carried in p, so the real arithmetic on a is the complex arithmetic on
# p a, part by part, with the same rounding.


def _value(a: np.ndarray, p: complex) -> np.ndarray:
    """The complex matrix p a of a graded pair."""
    return a if np.iscomplexobj(a) else p * a


def _hermitian_sign(p: complex) -> float:
    """sign with p a - (p a)^dagger = p (a - sign a^dagger), for a real a (1 when a is complex)."""
    return 1.0 if p.imag == 0 else -1.0


def _negated(x: tuple) -> tuple:
    a, p = x
    return (a, -p) if np.isrealobj(a) else (-a, p)


def _h0_head(split: SplitHamiltonian, term: tuple) -> tuple:
    """[H0, p a] = p [H0, a], through the split: on the grid the real stencil, in row blocks."""
    a, p = term
    return split.h0_commutator(a), p


def _h1_head(split: SplitHamiltonian, term: tuple) -> tuple:
    """[H1, p a] = i p (v_i a_ij - a_ij v_j) for a real a (the grid's only); else complex."""
    a, p = term
    if np.isrealobj(a):
        return split.h1_commutator_real(a), 1j * p
    return split.h1_commutator(a), 1 + 0j


def _link(x: tuple, term: tuple) -> tuple:
    """[x, p b]: one real commutator and a phase when both matrices are real."""
    (a, p), (b, s) = x, term
    if np.isrealobj(a) and np.isrealobj(b):
        return commutator(a, b), p * s
    return _graded_commutator(_value(a, p), _value(b, s)), 1 + 0j


def _accumulate(acc: tuple | None, x: tuple, f: int) -> tuple:
    """acc + x / f for graded pairs; x is fresh and is scaled in place.

    A real x is multiplied by 1 / f, which is how numpy's complex division
    by the real f rounds, so each part matches the complex sum bit for bit.
    Pairs whose phases agree up to sign add in real arithmetic.
    """
    a, p = x
    if np.isrealobj(a):
        if f != 1:
            a *= 1 / f
    else:
        a = a / f
    if acc is None:
        return a, p
    b, s = acc
    if np.isrealobj(a) and np.isrealobj(b) and p in (s, -s):
        return (b + a if p == s else b - a), s
    return _value(b, s) + _value(a, p), 1 + 0j


def _chain_sum(split: SplitHamiltonian, terms: list, m: int) -> tuple:
    """order_residual's sum over the graded terms Q_j, as a graded pair; chains through
    a missing Q_j are skipped.

    The first link of each chain, [H0, Q_j] or [H1, Q_j], goes through the
    split; a later link runs in real arithmetic when its operands are graded.
    """
    n = split.dim
    acc = None
    if m == 1:  # H - H^dagger = 2 eps H1 enters at order 1
        if split.is_stencil:
            acc = split.add_h1(np.zeros((n, n)), 2.0), 1j
        else:
            acc = split.add_h1(np.zeros((n, n), dtype=complex), 2.0), 1 + 0j
    for head, budget in ((_h0_head, m), (_h1_head, m - 1)):
        for comp in _compositions(budget):
            if not comp or max(comp) > len(terms):
                continue
            x = head(split, terms[comp[0] - 1])
            for j in comp[1:]:
                x = _link(x, terms[j - 1])
            acc = _accumulate(acc, x, math.factorial(len(comp)))
    return acc


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
    return Operator._own(_value(*_chain_sum(split, list(q._graded), m)))


def order_equation_rhs(
    split: SplitHamiltonian, q_lower: QSeries | None, m: int, tol: Tolerance = DEFAULT_TOL
) -> Operator:
    """R_m with [H0, Q_m] = R_m: minus the order-m residual without Q_m.

    Q_m enters the order-m residual only through [H0, Q_m], so R_m is the
    negated chain sum over Q_1 .. Q_{m-1}. R_m must come out anti-Hermitian
    for the equation to admit a Hermitian solution; it is judged by the
    solve's rule (_check_source), StructureError past tol.bound(|R_m|).
    """
    lower = () if q_lower is None else q_lower._graded
    if len(lower) != m - 1:
        raise DomainError(f"need {m - 1} lower-order terms for order {m}, got {len(lower)}")
    r = _negated(_chain_sum(split, list(lower), m))
    _check_source(r, tol, f"R_{m}")
    return Operator._own(_value(*r))


def _check_h0(hermiticity: tuple[float, float], tol: Tolerance) -> None:
    """H0's Hermiticity rule on its (max_norm(H0), max_norm(H0 - H0^dagger))."""
    norm, defect = hermiticity
    if defect > tol.bound(norm):
        raise StructureError("H0 must be Hermitian")


def _check_source(r: tuple, tol: Tolerance, name: str = "R") -> float:
    """|R|, once the defect |R + R^dagger| is within tol.bound(|R|): the Hermiticity rule on i R.

    r is a graded pair; the rule reads its matrix ROW_BLOCK rows at a time.
    """
    a, p = r
    norm, defect = _hermiticity(a, name, -_hermitian_sign(p))
    bound = tol.bound(norm)
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
    _check_h0(_hermiticity(H0.mat, "H0"), tol)
    r_norm = _check_source((R.mat, 1 + 0j), tol)
    return _sylvester_eigenbasis(_hermitian_eigh(H0.mat), R.mat, r_norm, tol)


def _sylvester_eigenbasis(
    eigensystem: tuple[np.ndarray, np.ndarray], r: np.ndarray, r_norm: float, tol: Tolerance
) -> Operator:
    """sylvester_solve given H0's (E, U) and r_norm = |R|; the inputs are already checked."""
    return Operator._own(_value(*_sylvester_graded(eigensystem, (r, 1 + 0j), r_norm, tol)))


def _sylvester_graded(
    eigensystem: tuple[np.ndarray, np.ndarray], r: tuple, r_norm: float, tol: Tolerance
) -> tuple:
    """Q as a graded pair, for H0's (E, U), the graded source R and r_norm = |R|.

    With U real and R = p A graded (A real; a complex R is graded when it
    is purely real or imaginary), both basis changes U^T A U and U Q~ U^T
    run in real arithmetic and Q keeps R's phase.
    """
    e, u = eigensystem
    a, phase = r
    if np.iscomplexobj(a) and np.isrealobj(u):
        a, phase = _graded(a) or (a, phase)
    real = np.isrealobj(a) and np.isrealobj(u)
    rt = u.T @ a @ u if real else u.conj().T @ _value(a, phase) @ u
    gaps = e[:, None] - e[None, :]
    degenerate = np.abs(gaps) <= tol.abs_tol
    over = np.abs(rt[degenerate]) > tol.bound(r_norm)  # the degenerate pairs in row-major order
    if over.any():
        i, j = np.argwhere(degenerate)[np.argmax(over)]
        raise ObstructionError(
            f"order equation unsolvable: source element {abs(rt[i, j]):.3e} on the "
            f"degenerate pair (m={i}, n={j}) with E_m = E_n = {e[i]:.12g}"
        )
    # Q~ = R~ / gaps off the degenerate pairs and 0 on them, formed in place in R~
    gaps[degenerate] = 1.0
    rt /= gaps
    rt[degenerate] = 0.0
    del gaps, degenerate
    qm = u @ rt
    del rt
    qm = qm @ (u.T if real else u.conj().T)
    # the Hermitian part of p A is p (A + A^T) / 2 for a real p, p (A - A^T) / 2 for
    # p = +-i, and (A + A^dagger) / 2 for a complex A
    if not real:
        h = qm + qm.conj().T
    else:
        h = qm + qm.T if phase.imag == 0 else qm - qm.T
    del qm
    h /= 2
    return h, (phase if real else 1 + 0j)


def _solved_residual(split: SplitHamiltonian, q: tuple, r: tuple, m: int) -> float:
    """|[H0, Q_m] - R_m|, the order-m residual once Q_m is solved.

    On the stencil it is reduced ROW_BLOCK rows at a time with one scratch,
    in real arithmetic when Q_m and R_m share their phase; a dense split
    takes the whole product.
    """
    (a, p), (b, s) = q, r
    if not (np.isrealobj(a) and np.isrealobj(b) and p == s):
        a, b = _value(a, p), _value(b, s)
    if not split.is_stencil:
        return max_norm(split.h0_commutator(a) - b)
    n = split.dim
    work = _stencil_work(a)

    def residual_rows(start: int, stop: int) -> np.ndarray:
        return split.h0_commutator(a, start, stop, work) - b[start:stop]

    return _max_norm_rows(residual_rows, n, f"[H0, Q_{m}] - R_{m}")


def solve_q_series(
    split: SplitHamiltonian,
    ell: int,
    gauge: dict[int, Operator] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QSeries:
    """Iterate order_equation_rhs / sylvester_solve for m = 1..ell.

    Each source R_m is formed once and judged once, by sylvester_solve's rule.
    On the grid every R_m and Q_m is a graded pair (a real matrix and a
    power of i): the sources, the solve and the checks run in real
    arithmetic, with the same rounding as the complex route, and H0's rule
    and eigh read its real stencil. A dense split's terms stay complex.
    gauge maps an order m to a Hermitian H0-commuting addition to Q_m
    (validated; recorded in the gauge log). On return every order residual
    1..ell, which is |[H0, Q_m] - R_m| once Q_m is solved, vanishes within
    tolerance; order_checks holds each (residual, bound).
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    gauge = gauge or {}
    _check_h0(split.h0_hermiticity(), tol)
    h0_norm = split.h0_norm()
    terms = []
    glog = []
    residuals = []
    # one factorization of H0 serves every order and is not kept past the solve
    h0_eig = split.h0_eigensystem()
    for m in range(1, ell + 1):
        rm = _negated(_chain_sum(split, terms, m))
        rm_norm = _check_source(rm, tol, f"R_{m}")
        qm = _sylvester_graded(h0_eig, rm, rm_norm, tol)
        if not split.is_stencil:  # the dense products run on complex terms
            qm = _value(*qm), 1 + 0j
        entry = {"order": m, "gauge": "minimal", "rhs_norm": rm_norm}
        if m in gauge:
            g = gauge[m].mat
            if not is_hermitian(g, tol):
                raise GaugeError(f"order-{m} gauge term is not Hermitian")
            if max_norm(split.h0_commutator(g)) > tol.bound(h0_norm * max(1.0, max_norm(g))):
                raise GaugeError(f"order-{m} gauge term does not commute with H0")
            qm = _value(*qm) + g, 1 + 0j
            entry["gauge"] = "minimal+custom"
            entry["custom_norm"] = max_norm(g)
        residuals.append(_solved_residual(split, qm, rm, m))
        del rm  # R_m is not held while the next source is formed
        terms.append(qm)
        glog.append(entry)
    scale = max(1.0, h0_norm + split.h1_norm())
    qscale = max(1.0, max(max_norm(a) for a, _ in terms))
    checks = tuple((r, tol.bound(scale * qscale**m)) for m, r in enumerate(residuals, start=1))
    for m, (res, bound) in enumerate(checks, start=1):
        if res > bound:
            raise ConsistencyError(f"order-{m} residual {res:.3e} after solve")
    return QSeries._from_graded(tuple(terms), tuple(glog), checks)


def metric_from_series(q: QSeries, epsilon: float) -> MetricOperator:
    """eta = e^(-sum_j Q_j eps^j): Hermitian positive definite by construction.

    One eigh of Q(eps) = U diag(w) U^dagger (in the PT frame when Q(eps) has
    one) gives eta = U diag(e^(-w)) U^dagger, and the metric carries that
    eigensystem (e^(-w), u, in_frame) in eigh order, lam descending. A
    graded series gives Q(eps) as its two real parts, which the Hermiticity
    and PT rules read in row blocks and to_pt_frame maps to the frame
    matrix; in the frame the metric is a frame metric, with no complex eta.
    """
    w, u, in_frame = _hermitian_eigensystem(q._summed(epsilon), DEFAULT_TOL, "metric_from_series")
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
