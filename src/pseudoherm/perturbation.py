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

On the Schroedinger grid H0 is real and H1 = i diag(v), so every
contribution to the order-m chain sum has the phase i^m: Q_m = i^m A_m and
R_m = i^m B_m with A_m, B_m real. The phase belongs to the order, so
solve_q_series, the one entrance to real mode, holds the real A_m on a
stencil split with no gauge term: the chain sums, the source rule, the
Sylvester transforms and the post-solve check run on real matrices, in row
blocks where they can, and each rule on i^m A becomes the same rule on A
with the sign (-1)^m (_parity). Each sum is taken in the complex route's
order, but a real matrix product need not round as the complex one does,
so the two routes agree to rounding, not bit for bit. Real mode solves the
odd orders only: H1 is anti-Hermitian, so H(eps)^dagger = H(-eps), and in
the minimal gauge every even term Q_2k is exactly zero (the odd series of
Bender, Brody and Jones, PRL 93, 251601, 2004). A solve on a dense split,
or with any gauge term, is complex and solves every order.
order_residual, order_equation_rhs and sylvester_solve take the operators
they are handed as they are and run the plain complex formula: they are
the independent complex route that real mode is checked against. QSeries
forms complex Operators only when .terms is read; metric_from_series sums
Q(eps) into one complex array, a real-mode series into its real and
imaginary parts, or, for a series whose terms after Q_1 are zero,
factorizes Q_1 once for every eps; it returns a frame metric
(spectral.MetricOperator), which keeps y = u diag(lam) u^T and forms the
complex eta only when it is read.
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
    _check_hermitian,
    _frame_eigh,
    _hermitian_eigensystem,
    _hermitian_eigh,
    _hermiticity,
    _max_norm_blocks,
    commutator,
    is_hermitian,
    max_norm,
)
from .spectral import MetricOperator, _metric, pseudo_hermiticity_residual

NOISE_FLOOR = 1e-13


class QSeries:
    """Hermitian coefficients Q_1 ... Q_l of Q = sum_j Q_j eps^j; at least one.

    terms are the Operators Q_j, or the real matrices A_j = Q_j / i^j of a
    real-mode series (as solve_q_series builds one on the grid), which forms
    the Operators i^j A_j of .terms only when they are read; square and of
    one size (else ShapeError), and not a mix of the two or a complex array
    (else StructureError). Either way each term's Hermiticity rule runs
    once, here. Series compare and hash by identity, as Operators do.
    """

    def __init__(self, terms: tuple, gauge_log: tuple = (), order_checks: tuple = ()):
        terms = tuple(terms)
        if not terms:
            raise DomainError("a QSeries needs at least one term")
        self._real = all(isinstance(t, np.ndarray) and t.dtype.kind == "f" for t in terms)
        if not (self._real or all(isinstance(t, Operator) for t in terms)):
            raise StructureError("QSeries terms must be all Operators or all real arrays A_j")
        self._terms = None if self._real else terms
        self._matrices = terms if self._real else tuple(t.mat for t in terms)
        shape = self._matrices[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in self._matrices):
            shapes = [a.shape for a in self._matrices]
            raise ShapeError(f"QSeries terms must be square and of one size, got {shapes}")
        measured = []
        for j, a in enumerate(self._matrices, start=1):
            norm, defect = _hermiticity(a, f"Q_{j}", _parity(j, self._real))
            if defect > DEFAULT_TOL.bound(norm):
                raise StructureError(f"Q_{j} is not Hermitian within tolerance")
            measured.append((norm, defect))
        self.gauge_log = tuple(gauge_log)
        # (residual, bound) per order as solve_q_series checked it; () if hand-built
        self.order_checks = tuple(order_checks)
        # max_norm(Q_j) and max_norm(Q_j - Q_j^dagger) per term, as the Hermiticity rule measured them
        self.norms = tuple(n for n, _ in measured)
        self.hermiticity_defects = tuple(d for _, d in measured)
        # (w, u, in_frame) of Q_1, once metric_from_series has factorized it
        # for a series whose later terms are all zero
        self._q1_eigensystem = None

    @property
    def terms(self) -> tuple:
        if self._terms is None:
            self._terms = tuple(Operator._own(1j**j * a) for j, a in enumerate(self._matrices, start=1))
        return self._terms

    @property
    def order(self) -> int:
        return len(self._matrices)

    def summed(self, epsilon: float) -> Operator:
        return Operator._own(self._summed(epsilon))

    def _powers(self, epsilon: float) -> list[float]:
        """eps^j for j = 1..order, each a float; NonFiniteError names the first that overflows."""
        powers = []
        for j in range(1, self.order + 1):
            try:
                powers.append(float(epsilon) ** j)
            except OverflowError:
                raise NonFiniteError(f"epsilon^{j} overflows at epsilon = {epsilon}") from None
        return powers

    def _summed(self, epsilon: float) -> np.ndarray:
        """Q(epsilon) as one complex array.

        A real-mode series sums in real arithmetic, in place in the array's
        parts: i^j A_j eps^j goes to the real part for even j and to the
        imaginary part for odd j, with the sign of i^j, in the order and
        with the rounding of the complex sum.
        """
        q = None
        for j, (a, scale) in enumerate(zip(self._matrices, self._powers(epsilon)), start=1):
            if q is None:
                q = np.zeros(a.shape, dtype=complex)
            part = (q.imag if j % 2 else q.real) if self._real else q
            if self._real and j % 4 >= 2:
                part -= a * scale
            else:
                part += a * scale
        return q


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


def _parity(m: int, real: bool) -> float:
    """(-1)^m for a real-mode term of order m, else 1.

    For a real A, (i^m A)^dagger = (-1)^m i^m A^T, so each rule on a term
    i^m A is the same rule on A with this sign: Q_m is Hermitian when
    A_m^T = (-1)^m A_m, and i^m A's Hermitian part is i^m (A + (-1)^m A^T) / 2.
    """
    return (-1.0) ** m if real else 1.0


def _chain_sum(split: SplitHamiltonian, terms: list, m: int, real: bool) -> np.ndarray:
    """order_residual's sum over the terms; chains through a missing term are skipped.

    In real mode the terms are the A_j and the sum is divided by i^m: the
    H1 head is the real split.h1_commutator_real, and 2 H1 = i 2 diag(v).
    Its even terms are exact zeros (solve_q_series), so chains through an
    even term are skipped too.
    Each chain is one matrix, scaled in place by 1/k! and added. The terms
    are checked to be split.dim square here, where the public order
    functions hand them in (a QSeries holds terms of one size).
    """
    n = split.dim
    if terms and terms[0].shape != (n, n):
        raise ShapeError(f"dimension mismatch: the series is {terms[0].shape}, the split {(n, n)}")
    acc = None
    if m == 1:  # H - H^dagger = 2 eps H1 enters at order 1
        acc = split.add_h1(np.zeros((n, n), dtype=float if real else complex), 2.0)
    h1_head = split.h1_commutator_real if real else split.h1_commutator
    for head, budget in ((split.h0_commutator, m), (h1_head, m - 1)):
        for comp in _compositions(budget):
            if not comp or max(comp) > len(terms) or (real and any(j % 2 == 0 for j in comp)):
                continue
            x = head(terms[comp[0] - 1])
            for j in comp[1:]:
                x = commutator(x, terms[j - 1])
            f = math.factorial(len(comp))
            # a real x is multiplied by 1 / f, which is how numpy's complex
            # division by the real f rounds each part
            if not real:
                x /= f
            elif f != 1:
                x *= 1 / f
            if acc is None:
                acc = x
            else:
                acc += x
    return acc


def order_residual(split: SplitHamiltonian, q: QSeries, m: int) -> Operator:
    """Coefficient of eps^m in e^(-Q) H e^(Q) - H^dagger, expanded exactly.

    H - H^dagger contributes 2*H1 at m = 1; each [H,Q]_k / k! contributes
    chained commutators [..[head, Q_{j1}], ..., Q_{jk}] over compositions
    j1 + ... + jk of m (head H0) or m - 1 (head H1). Zero means the order-m
    equation holds. The sum runs on the complex Q_j of q.terms, whatever
    form q holds them in (the complex route; see the module docstring);
    terms not split.dim square raise ShapeError.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m > q.order:
        raise DomainError(f"order {m} exceeds available terms ({q.order})")
    return Operator._own(_chain_sum(split, [t.mat for t in q.terms[:m]], m, False))


def order_equation_rhs(
    split: SplitHamiltonian, q_lower: QSeries | None, m: int, tol: Tolerance = DEFAULT_TOL
) -> Operator:
    """R_m with [H0, Q_m] = R_m: minus the order-m residual without Q_m.

    Q_m enters the order-m residual only through [H0, Q_m], so R_m is the
    negated chain sum over Q_1 .. Q_{m-1}. R_m must come out anti-Hermitian
    for the equation to admit a Hermitian solution; it is judged by the
    solve's rule (_check_source), StructureError past tol.bound(|R_m|). The
    chain sum is order_residual's, on the complex Q_j.
    """
    lower = 0 if q_lower is None else q_lower.order
    if lower != m - 1:
        raise DomainError(f"need {m - 1} lower-order terms for order {m}, got {lower}")
    terms = [] if q_lower is None else [t.mat for t in q_lower.terms]
    r = _chain_sum(split, terms, m, False)
    np.negative(r, out=r)
    _check_source(r, tol, f"R_{m}", 1.0)
    return Operator._own(r)


def _check_h0(hermiticity: tuple[float, float], tol: Tolerance) -> None:
    """H0's Hermiticity rule on its (max_norm(H0), max_norm(H0 - H0^dagger))."""
    norm, defect = hermiticity
    if defect > tol.bound(norm):
        raise StructureError("H0 must be Hermitian")


def _check_source(r: np.ndarray, tol: Tolerance, name: str, sign: float) -> float:
    """|R|, once the defect |R + R^dagger| is within tol.bound(|R|): the Hermiticity rule on i R.

    r is R, or in real mode B with R = i^m B and sign = (-1)^m (_parity);
    the rule reads it ROW_BLOCK rows at a time.
    """
    norm, defect = _hermiticity(r, name, -sign)
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
    R is taken as it is, a complex matrix: with a real H0 the eigenvectors U
    are real, and the basis changes mix them with the complex R.
    """
    if H0.mat.shape != R.mat.shape:
        raise ShapeError(f"dimension mismatch: {H0.mat.shape} vs {R.mat.shape}")
    _check_h0(_hermiticity(H0.mat, "H0"), tol)
    r_norm = _check_source(R.mat, tol, "R", 1.0)
    return Operator._own(_sylvester(_hermitian_eigh(H0.mat), R.mat, r_norm, tol, 1.0))


def _sylvester(
    eigensystem: tuple[np.ndarray, np.ndarray], r: np.ndarray, r_norm: float, tol: Tolerance, sign: float
) -> np.ndarray:
    """Q for H0's (E, U), the source R and r_norm = |R|; the inputs are already checked.

    In real mode (solve_q_series on the grid) r is B with R = i^m B, U is
    real, and the result is the real A with Q = i^m A: both basis changes
    U^T B U and U Q~ U^T run in real arithmetic, and A's Hermitian part
    takes sign = (-1)^m.
    """
    e, u = eigensystem
    ut = u.conj().T
    rt = ut @ r @ u
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
    qm = qm @ ut
    h = qm + qm.conj().T if sign > 0 else qm - qm.T
    del qm
    h /= 2
    return h


def _solved_residual(split: SplitHamiltonian, q: np.ndarray, r: np.ndarray, m: int) -> float:
    """|[H0, Q_m] - R_m|, the order-m residual once Q_m is solved (in real mode |[H0, A_m] - B_m|).

    It is reduced block by block over one pass of [H0, Q_m]
    (SplitHamiltonian._h0_pass): ROW_BLOCK rows at a time on the stencil, all
    rows at once on a dense split.
    """
    blocks = ((s, e, c - r[s:e]) for s, e, c, _ in split._h0_pass(q))
    return _max_norm_blocks(blocks, split.dim, f"[H0, Q_{m}] - R_{m}")


def solve_q_series(
    split: SplitHamiltonian,
    ell: int,
    gauge: dict[int, Operator] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QSeries:
    """Iterate order_equation_rhs / sylvester_solve for m = 1..ell.

    Each source R_m is formed once and judged once, by sylvester_solve's rule.
    On a stencil split with no gauge term the solve runs in real mode, which
    no other function enters, on the A_m = Q_m / i^m and B_m = R_m / i^m,
    and agrees with the complex route to rounding; H0's rule reads its
    stencil and H0's eigensystem is the stencil's closed form
    (SplitHamiltonian.h0_eigensystem), so H0 is never factorized. Real mode
    solves the odd orders only: H1 is anti-Hermitian, so H(eps)^dagger =
    H(-eps), and in the minimal gauge that makes every even term Q_2k exactly
    zero. Each even term is held as a zero matrix, with no source formed,
    judged or solved; its order check reads (0.0, bound) and its gauge log
    entry rhs_norm 0.0. A dense split, or any gauge term, makes the whole
    solve complex, every order solved. gauge maps an order m to a Hermitian
    H0-commuting addition to Q_m (validated, ShapeError unless split.dim
    square; recorded in the gauge log). On return every order residual
    1..ell, which is |[H0, Q_m] - R_m| once Q_m is solved, vanishes within
    tolerance; order_checks holds each (residual, bound).
    """
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    n = split.dim
    gauge = {m: g.mat for m, g in (gauge or {}).items() if 1 <= m <= ell}
    if any(g.shape != (n, n) for g in gauge.values()):
        raise ShapeError(f"dimension mismatch: a gauge term is not {n} x {n}, as the split is")
    real = split.is_stencil and not gauge
    _check_h0(split.h0_hermiticity(), tol)
    h0_norm = split.h0_norm()
    terms = []
    glog = []
    residuals = []
    # one eigensystem of H0 serves every order and is not kept past the solve
    h0_eig = split.h0_eigensystem()
    for m in range(1, ell + 1):
        if real and m % 2 == 0:
            terms.append(np.zeros((n, n)))
            glog.append({"order": m, "gauge": "minimal", "rhs_norm": 0.0})
            residuals.append(0.0)
            continue
        sign = _parity(m, real)
        rm = _chain_sum(split, terms, m, real)
        np.negative(rm, out=rm)
        rm_norm = _check_source(rm, tol, f"R_{m}", sign)
        qm = _sylvester(h0_eig, rm, rm_norm, tol, sign)
        entry = {"order": m, "gauge": "minimal", "rhs_norm": rm_norm}
        if m in gauge:
            g = gauge[m]
            if not is_hermitian(g, tol):
                raise GaugeError(f"order-{m} gauge term is not Hermitian")
            if max_norm(split.h0_commutator(g)) > tol.bound(h0_norm * max(1.0, max_norm(g))):
                raise GaugeError(f"order-{m} gauge term does not commute with H0")
            qm += g
            entry["gauge"] = "minimal+custom"
            entry["custom_norm"] = max_norm(g)
        residuals.append(_solved_residual(split, qm, rm, m))
        del rm  # R_m is not held while the next source is formed
        terms.append(qm)
        glog.append(entry)
    scale = max(1.0, h0_norm + split.h1_norm())
    qscale = max(1.0, max(max_norm(a) for a in terms))
    checks = tuple((r, tol.bound(scale * qscale**m)) for m, r in enumerate(residuals, start=1))
    for m, (res, bound) in enumerate(checks, start=1):
        if res > bound:
            raise ConsistencyError(f"order-{m} residual {res:.3e} after solve")
    if not real:
        terms = [Operator._own(q) for q in terms]
    return QSeries(terms, glog, checks)


def metric_from_series(q: QSeries, epsilon: float) -> MetricOperator:
    """eta = e^(-sum_j Q_j eps^j): Hermitian positive definite by construction.

    An eigh of Q(eps) = U diag(w) U^dagger (in the PT frame when Q(eps) has
    one) gives eta = U diag(e^(-w)) U^dagger, and the metric carries that
    eigensystem (e^(-w), u, in_frame) in eigh order. Q(eps) is one complex
    array (QSeries._summed), which the Hermiticity and PT rules read in row
    blocks and to_pt_frame maps to the frame matrix; in the frame the metric
    is a frame metric, with no complex eta.

    When every term after Q_1 is an exact zero (the odd series solve_q_series
    gives on the grid up to order 2), Q(eps) = eps Q_1: Q_1 = U diag(w) U^dagger
    is factorized once, on the first call, and kept on the series, and each
    eps gives e^(-eps w) with the same U. The eps^j overflow guard still runs
    for every j, and the Hermiticity rule runs per eps on |eps| times the
    (norm, defect) the series measured for Q_1; the PT rule, which is
    relative only, runs once, on Q_1. lam descends for eps > 0 and ascends
    for eps < 0.
    """
    if any(q.norms[1:]):
        w, u, in_frame = _hermitian_eigensystem(q._summed(epsilon), DEFAULT_TOL, "metric_from_series")
        return _metric(np.exp(-w), u, in_frame)
    eps = q._powers(epsilon)[0]
    norm = abs(eps) * q.norms[0]
    if not math.isfinite(norm):
        raise NonFiniteError(f"max-norm of Q(eps) at epsilon = {epsilon} is {norm}: an entry overflowed")
    _check_hermitian(norm, abs(eps) * q.hermiticity_defects[0], DEFAULT_TOL, "metric_from_series")
    if q._q1_eigensystem is None:
        q._q1_eigensystem = _frame_eigh(q._summed(1.0))
    w, u, in_frame = q._q1_eigensystem
    return _metric(np.exp(-eps * w), u, in_frame)


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
