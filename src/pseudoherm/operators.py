"""Dense complex operator arithmetic.

Operators are immutable wrappers around square complex ndarrays. Residuals are
reported in the max-norm (largest absolute entry) so golden values reproduce
entry-for-entry; the 2-norm is used only for conditioning diagnostics.

Matrix functions of Hermitian arguments (sqrt here, exp in
metric_from_series) go through eigh (_hermitian_eigensystem), never through
series; the truncated series lives only in bch_conjugate, where the
truncation itself is the quantity of interest.

PT frame: with J the index reversal (J^2 = I) and S = (I + iJ)/sqrt(2), a
matrix X with J conj(X) J = X (PT-symmetric) is real in the basis S:
S^dagger X S is a real matrix. to_pt_frame and from_pt_frame map between the
two bases in O(N^2), with index flips and no matrix product, so that a
PT-symmetric factorization can run in real arithmetic; pt_frame decides
which matrices do.

Grid structure: a SplitHamiltonian built by tridiagonal holds the
Schroedinger H = H0 + eps H1 as O(N) data. Every product with H that a check
needs (H^dagger X - X H and [H, X]) is a three-point stencil plus an
elementwise product, O(N^2) with no matrix product, and H's PT-frame matrix
and max-norm come from that data, with no dense H. IndexReversal holds the
grid reflection J as its dimension, so products with J are index flips.
Checks that keep only a max-norm take their rows ROW_BLOCK at a time
(_max_norm_rows). A SplitHamiltonian built from two dense Operators, and an
explicit parity matrix, keep the dense products.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, PositivityError, ShapeError, StructureError

ABS_TOL = 1e-10
REL_TOL = 1e-8
# pt_frame's rounding level, in units of n * eps * max_norm(m): the Q(eps) and
# eta of the step grids carry PT-odd parts of up to 4 (N <= 1025)
PT_FRAME_ULPS = 16
# rows per block of a max-norm taken in row blocks (_max_norm_rows): a fixed
# size that keeps the temporaries to a few rows of the N x N matrix
ROW_BLOCK = 32


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = ABS_TOL
    rel_tol: float = REL_TOL

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")

    def bound(self, scale: float) -> float:
        return self.abs_tol + self.rel_tol * abs(scale)


DEFAULT_TOL = Tolerance()


def max_norm(a: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for empty arrays; an overflowed (inf, NaN) entry raises."""
    norm = float(np.abs(a).max()) if a.size else 0.0
    if not np.isfinite(norm):  # else an overflowed residual would pass a check: inf > inf
        raise NonFiniteError(f"max-norm of a {a.shape} array is {norm}: an entry overflowed")
    return norm


def _max_norm_rows(rows, n: int) -> float:
    """max_norm of the n-row array whose rows start:stop are rows(start, stop).

    The rows are formed and reduced ROW_BLOCK at a time, so no N x N
    temporary is held; an overflowed entry raises as in max_norm.
    """
    return max(max_norm(rows(s, min(s + ROW_BLOCK, n))) for s in range(0, n, ROW_BLOCK))


class _Fresh:
    """An array the package has just built and holds nowhere else (Operator._own)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix.

    The underlying array is copied and frozen, so instances can be shared
    freely between threads and used as fixed reference values in tests. An
    array the package has just built is frozen in place instead (_own).
    Operators compare and hash by identity; compare matrices with .mat.
    """

    mat: np.ndarray

    @classmethod
    def _own(cls, m: np.ndarray) -> "Operator":
        """Operator(m) without the copy, for a fresh array no caller can reach.

        m is frozen in place when it is complex and C-ordered, and copied
        like any other array otherwise; the checks are the constructor's.
        """
        return cls(_Fresh(m))

    def __post_init__(self):
        m = self.mat
        if isinstance(m, _Fresh):
            m = np.ascontiguousarray(m.array, dtype=complex)
        else:
            m = np.array(m, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise NonFiniteError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        return max_norm(self.mat)


@dataclass(frozen=True)
class IndexReversal:
    """The index reversal J (J_ij = 1 where i + j = N - 1): the grid reflection x -> -x.

    Held as its dimension. J X and X J are flips of the rows and the columns
    of X, with no product; J is real, symmetric and J^2 = I exactly, so it
    needs none of the checks a parity matrix gets. .mat builds the dense J
    for a caller that needs one.
    """

    dim: int

    @property
    def mat(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)[::-1]

    def norm(self) -> float:
        return 1.0


def _as_matrix(x) -> np.ndarray:
    return x.mat if isinstance(x, Operator) else np.array(x, dtype=complex)


def half_difference_norm(a: np.ndarray, b: np.ndarray) -> float:
    """max_norm(a - b) / 2, taken as max_norm(a/2 - b/2) so that no entry overflows."""
    return max_norm(a / 2 - b / 2)


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """max_norm(m - m^dagger) <= tol.bound(max_norm(m)), free of overflow."""
    return half_difference_norm(m, m.conj().T) <= tol.bound(max_norm(m)) / 2


def to_pt_frame(x: np.ndarray) -> np.ndarray:
    """Re(S^dagger X S): the real matrix of X's PT-even part (X + J conj(X) J)/2.

    It is S^dagger X S itself when X is PT-symmetric. With A, B the real and
    imaginary parts of X, it is (A + JAJ)/2 + (JB - BJ)/2; each term is
    halved before the sums. The result itself can still overflow, to inf or
    NaN, which callers check for.
    """
    a = x.real / 2
    b = x.imag / 2
    with np.errstate(over="ignore", invalid="ignore"):
        r = a + a[::-1, ::-1]
        r += b[::-1]
        r -= b[:, ::-1]
    return r


def from_pt_frame(y: np.ndarray) -> np.ndarray:
    """S Y S^dagger for a real Y, the inverse of to_pt_frame on PT-symmetric matrices.

    Real part (Y + JYJ)/2 and imaginary part (JY - YJ)/2, both written into
    one complex array; a symmetric Y gives a Hermitian result.
    """
    h = y / 2
    x = np.empty(h.shape, dtype=complex)
    np.add(h, h[::-1, ::-1], out=x.real)
    np.subtract(h[::-1], h[:, ::-1], out=x.imag)
    return x


def from_pt_frame_columns(v: np.ndarray) -> np.ndarray:
    """sqrt(2) S v: the columns of v mapped back from the frame, left unnormalized."""
    return v + 1j * v[::-1]


def pt_frame(m: np.ndarray) -> np.ndarray | None:
    """to_pt_frame(m) when m is PT-symmetric to rounding and that matrix is finite, else None.

    The one rule for which matrices are factorized in the frame. Rounding
    level is max_norm(m - J conj(m) J) <= PT_FRAME_ULPS * n * eps * max_norm(m):
    relative only and independent of any caller's Tolerance, so the PT-odd
    part that to_pt_frame drops is no larger than the backward error of the
    factorization itself. Any other m keeps the complex path.
    """
    bound = PT_FRAME_ULPS * m.shape[0] * np.finfo(float).eps * max_norm(m)
    if half_difference_norm(m, m[::-1, ::-1].conj()) > bound / 2:
        return None
    r = to_pt_frame(m)
    return r if np.isfinite(r).all() else None


def _hermitian_eigensystem(
    m: np.ndarray, tol: Tolerance, caller: str
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(w, u, in_frame): eigh of the Hermitian part of m, once m is checked to be
    Hermitian within tol; caller names the rule.

    When m has a PT frame (pt_frame), the symmetric part of its frame matrix
    is factorized in real arithmetic: u is then real and m's eigenvectors
    are S u.
    """
    if not is_hermitian(m, tol):
        raise StructureError(
            f"{caller} requires a Hermitian argument, "
            f"defect {2 * half_difference_norm(m, m.conj().T):.3e}"
        )
    r = pt_frame(m)
    if r is not None:
        w, u = np.linalg.eigh(r / 2 + r.T / 2)
        return w, u, True
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    return w, u, False


def _symmetric_product(uf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symmetric part of (u F) u^T for real u and uf = u F, F diagonal."""
    x = uf @ u.T
    return x / 2 + x.T / 2


def _from_eigenbasis(uf: np.ndarray, u: np.ndarray, in_frame: bool) -> Operator:
    """The Hermitian part of (U F) U^dagger for uf = u F, F diagonal; U = S u when in_frame."""
    if in_frame:
        return Operator._own(from_pt_frame(_symmetric_product(uf, u)))
    x = uf @ u.conj().T
    return Operator._own((x + x.conj().T) / 2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


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
    the structured form), the products with H at epsilon that the checks
    need (H^dagger X - X H and [H, X]), H's real PT-frame matrix (frame),
    the max-norms of H, H0 and H1, and X + s H1; the commutators and the
    residual also row by row. .H0, .H1 and total() give dense Operators,
    which the structured form builds only when they are asked for.
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
        and finite.
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

    @property
    def is_stencil(self) -> bool:
        """True for the structured form, built by tridiagonal."""
        return self._stencil is not None

    def at(self, epsilon: float) -> "SplitHamiltonian":
        """The same H0 and H1 at another epsilon, sharing their data."""
        split = copy.copy(self)
        split.epsilon = epsilon
        return split

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
        return Operator._own(self._h0_matrix())

    @property
    def H1(self) -> Operator:
        if self._stencil is None:
            return self._dense[1]
        return Operator._own(1j * np.diag(self._stencil[2]))

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
            return h0[start:stop] @ x - x[start:stop] @ h0
        diag, off, _ = self._stencil
        lo, hi = max(start - 1, 0), min(stop + 1, n)
        return _tridiagonal_commutator(diag, off, x[lo:hi])[start - lo : stop - lo]

    def h1_commutator(self, x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start:stop of [H1, X]; for H1 = i diag(v), entry (i, j) is i v_i X_ij - X_ij i v_j."""
        return self._h1_rows(x, start, stop, -1.0)

    def _h1_rows(self, x: np.ndarray, start: int, stop: int | None, sign: float) -> np.ndarray:
        """Rows start:stop of H1 X + sign X H1, for sign -1 (commutator) or +1 (anticommutator)."""
        if self._stencil is None:
            h1 = self._dense[1].mat
            return h1[start:stop] @ x + sign * (x[start:stop] @ h1)
        iv = 1j * self._stencil[2]
        rows = x[start:stop]
        return iv[start:stop, None] * rows + sign * (rows * iv[None, :])

    def adjoint_residual(self, x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start:stop of H^dagger X - X H for H = H0 + epsilon H1.

        With H0 Hermitian and H1 anti-Hermitian that is [H0, X] - epsilon {H1, X},
        and for H1 = i diag(v), {H1, X}_ij = i (v_i + v_j) X_ij: in the
        structured form a stencil and an elementwise product, no matrix product.
        """
        r = self.h0_commutator(x, start, stop)
        r -= self.epsilon * self._h1_rows(x, start, stop, 1.0)
        return r

    def total_commutator(self, x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start:stop of [H, X] = [H0, X] + epsilon [H1, X]."""
        r = self.h0_commutator(x, start, stop)
        r += self.epsilon * self.h1_commutator(x, start, stop)
        return r

    def frame(self) -> np.ndarray | None:
        """pt_frame(total().mat): H's real PT-frame matrix S^dagger H S, or None.

        In the structured form H0 is real and persymmetric: the frame matrix
        is H0's stencil plus the anti-diagonal epsilon (v_{N-1-i} - v_i) / 2,
        summed in to_pt_frame's order so that it is the dense form's bit for
        bit, and pt_frame's rule reads H - J conj(H) J, which is
        i epsilon diag(v + v[::-1]), in O(N); no complex N x N array is made.
        """
        if self._stencil is None:
            return pt_frame(self.total().mat)
        diag, off, v = self._stencil
        n = v.size
        bound = PT_FRAME_ULPS * n * np.finfo(float).eps * self.norm()
        half = self.epsilon * v / 2
        if max_norm(half + half[::-1]) > bound / 2:
            return None
        f = np.zeros((n, n))
        f.flat[:: n + 1] = diag / 2 + diag / 2
        f.flat[1 :: n + 1] = f.flat[n :: n + 1] = off / 2 + off / 2
        i = np.arange(n)
        with np.errstate(over="ignore", invalid="ignore"):
            f[i, i[::-1]] += half[::-1]
            f[i, i[::-1]] -= half
        return f if np.isfinite(f[i, i[::-1]]).all() else None

    def norm(self) -> float:
        """max_norm of H; the structured form reads it off the stencil and v."""
        if self._stencil is None:
            return max_norm(self.total().mat)
        diag, off, v = self._stencil
        return max(abs(off), max_norm(diag + self.epsilon * (1j * v)))

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

    def total(self) -> Operator:
        return Operator._own(self.add_h1(self._h0_matrix(), self.epsilon))


def nested_commutator(H: Operator, Q: Operator, k: int) -> Operator:
    """k-fold iterated commutator: [H,Q]_1 = HQ - QH, [H,Q]_{k+1} = [[H,Q]_k, Q]."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    h, q = _as_matrix(H), _as_matrix(Q)
    if h.shape != q.shape:
        raise ShapeError(f"dimension mismatch: {h.shape} vs {q.shape}")
    x = commutator(h, q)
    for _ in range(k - 1):
        x = commutator(x, q)
    return Operator(x)


def bch_conjugate(H: Operator, Q: Operator, k_max: int) -> Operator:
    """Truncated conjugation H + sum_{k<=k_max} [H,Q]_k / k!.

    The 1/k! weight is applied by dividing the running term by k at each
    step, so no factorial is ever formed.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    h, q = _as_matrix(H), _as_matrix(Q)
    if h.shape != q.shape:
        raise ShapeError(f"dimension mismatch: {h.shape} vs {q.shape}")
    acc = h.copy()
    term = h
    for k in range(1, k_max + 1):
        term = commutator(term, q) / k
        acc += term
    return Operator(acc)


def herm_sqrt_inv(M: Operator, tol: Tolerance = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """(M^{1/2}, M^{-1/2}) for Hermitian positive-definite M."""
    w, u, in_frame = _hermitian_eigensystem(_as_matrix(M), tol, "herm_sqrt_inv")
    if w[0] <= tol.abs_tol:
        raise PositivityError(f"matrix not positive definite: eigenvalue {w[0]:.6e}")
    r = np.sqrt(w)
    return _from_eigenbasis(u * r, u, in_frame), _from_eigenbasis(u / r, u, in_frame)
