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
and max-norm come from that data, with no dense H. On a real X the stencil
runs in real arithmetic, and H0's Hermiticity rule and eigh read the real
stencil, so the grid's perturbative terms (i^m times a real matrix) never
need a complex N x N array. IndexReversal holds the grid reflection J as its
dimension, so products with J are index flips. A SplitHamiltonian built
from two dense Operators, and an explicit parity matrix, keep the dense
products.

Row blocks: checks that keep only a max-norm take their rows ROW_BLOCK at a
time (_max_norm_rows), and so do the Hermiticity rules (_hermiticity) and
pt_frame's PT-odd rule, which read each block's rows and the matching
columns; to_pt_frame and from_pt_frame write or give rows the same way.
Each reads the entries the whole-matrix form reads and takes the same
maxima, so the values are the whole matrix's bit for bit, with no N x N
temporary. Every product with the grid's H0 is one pass over all N rows
(SplitHamiltonian._h0_pass) that reads each block's rows of X with their
halo rows, from X or a row fill, into one scratch, and gives the block's
rows of [H0, X] and of X: h0_commutator gathers them, adjoint_residual and
total_commutator add the H1 term, and the order checks and the wave
kernel's off-band check reduce them as they come.
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


def max_norm(a: np.ndarray, name: str | None = None) -> float:
    """Largest absolute entry; 0.0 for empty arrays; an overflowed (inf, NaN) entry raises.

    The NonFiniteError names the array as name, or by its shape.
    """
    norm = float(np.abs(a).max()) if a.size else 0.0
    if not np.isfinite(norm):  # else an overflowed residual would pass a check: inf > inf
        name = f"a {a.shape} array" if name is None else name
        raise NonFiniteError(f"max-norm of {name} is {norm}: an entry overflowed")
    return norm


def _max_norm_rows(rows, n: int, name: str) -> float:
    """max_norm of the n-row array name whose rows start:stop are rows(start, stop).

    The rows are formed and reduced ROW_BLOCK at a time, so no N x N
    temporary is held; an overflowed entry raises as in max_norm, naming the
    array and the block's rows.
    """
    return _max_norm_blocks(((s, e, rows(s, e)) for s, e in _row_blocks(n)), n, name)


def _max_norm_blocks(blocks, n: int, name: str) -> float:
    """max_norm of the n-row array name given as its row blocks (start, stop, rows).

    Each block is reduced before the next is taken, so blocks may share
    one scratch (SplitHamiltonian._h0_pass); an overflowed entry raises as
    in _max_norm_rows.
    """
    return max(max_norm(r, f"{name}, rows {s}:{e} of {n},") for s, e, r in blocks)


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(s, e) of each block of ROW_BLOCK rows of n rows; none when n is 0."""
    return [(s, min(s + ROW_BLOCK, n)) for s in range(0, n, ROW_BLOCK)]


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
    """x.mat for an Operator or a MetricOperator, else x as a complex array (not copied)."""
    return x.mat if hasattr(x, "mat") else np.asarray(x, dtype=complex)


def _hermiticity(m: np.ndarray, name: str = "the matrix", sign: float = 1.0) -> tuple[float, float]:
    """(max_norm(m), max_norm(m - sign m^dagger)): the Hermiticity rule on m (sign 1), or
    on i m (sign -1, which makes it the anti-Hermiticity rule on m).

    Both are reduced ROW_BLOCK rows at a time, from the rows of m and the
    matching columns of m^dagger, and the defect is taken from halves,
    m/2 - sign m^dagger/2, so that no entry overflows; the maxima are the
    whole matrix's, bit for bit.
    """

    def defect_rows(start: int, stop: int) -> np.ndarray:
        half, adjoint = m[start:stop] / 2, m[:, start:stop].T.conj() / 2
        return half - adjoint if sign > 0 else half + adjoint

    n = m.shape[0]
    norm = _max_norm_rows(lambda start, stop: m[start:stop], n, name)
    return norm, 2 * _max_norm_rows(defect_rows, n, f"{name} - {name}^dagger")


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """max_norm(m - m^dagger) <= tol.bound(max_norm(m)), free of overflow."""
    norm, defect = _hermiticity(m)
    return defect <= tol.bound(norm)


def to_pt_frame(x: np.ndarray) -> np.ndarray:
    """Re(S^dagger X S): the real matrix of X's PT-even part (X + J conj(X) J)/2.

    It is S^dagger X S itself when X is PT-symmetric. With A, B the real and
    imaginary parts of X, it is (A + JAJ)/2 + (JB - BJ)/2; each term is
    halved before the sums, which are written ROW_BLOCK rows at a time. The
    result itself can still overflow, to inf or NaN, which callers check for.
    """
    a, b = x.real, x.imag
    n = x.shape[0]
    r = np.empty(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in _row_blocks(n):
            # rows start:stop of A/2 and of J A/2, J B/2 (flipped rows n - stop:n - start)
            block = r[start:stop]
            np.add(a[start:stop] / 2, (a[n - stop : n - start][::-1] / 2)[:, ::-1], out=block)
            block += b[n - stop : n - start][::-1] / 2
            block -= (b[start:stop] / 2)[:, ::-1]
    return r


def from_pt_frame(y: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start:stop of S Y S^dagger for a real Y (all rows by default), the inverse
    of to_pt_frame on PT-symmetric matrices.

    Real part (Y + JYJ)/2 and imaginary part (JY - YJ)/2, both written into
    one complex array; a symmetric Y gives a Hermitian result. Each entry
    reads Y's entries alone, so a row block is those rows of the whole, bit
    for bit.
    """
    n = y.shape[0]
    stop = n if stop is None else stop
    h, jh = y[start:stop] / 2, y[n - stop : n - start][::-1] / 2  # rows of Y/2 and J Y/2
    x = np.empty(h.shape, dtype=complex)
    np.add(h, jh[:, ::-1], out=x.real)
    np.subtract(jh, h[:, ::-1], out=x.imag)
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
    factorization itself. Any other m keeps the complex path. Both norms are
    taken ROW_BLOCK rows at a time, from halves as half of
    max_norm(m - J conj(m) J).
    """
    n = m.shape[0]
    bound = PT_FRAME_ULPS * n * np.finfo(float).eps * _max_norm_rows(lambda s, e: m[s:e], n, "the matrix")

    def odd_rows(start: int, stop: int) -> np.ndarray:
        return m[start:stop] / 2 - m[n - stop : n - start][::-1, ::-1].conj() / 2

    if _max_norm_rows(odd_rows, n, "the matrix's PT-odd part") > bound / 2:
        return None
    r = to_pt_frame(m)
    return r if np.isfinite(r).all() else None


def _hermitian_eigensystem(
    m: np.ndarray, tol: Tolerance, caller: str
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(w, u, in_frame): eigh of the Hermitian part of m, once m is checked to be
    Hermitian within tol; caller names the rule.

    When m has a PT frame (pt_frame), the symmetric part of its frame matrix
    is factorized in real arithmetic: u is then real and m's eigenvectors are
    S u.
    """
    norm, defect = _hermiticity(m, f"{caller}'s argument")
    if defect > tol.bound(norm):
        raise StructureError(f"{caller} requires a Hermitian argument, defect {defect:.3e}")
    r = pt_frame(m)
    if r is not None:
        del m  # a matrix no caller holds is not kept through the eigh
        w, u = np.linalg.eigh(_symmetric_part(r))
        return w, u, True
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    return w, u, False


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of h, in real arithmetic when h has no imaginary part."""
    if not h.imag.any():
        return np.linalg.eigh((h.real + h.real.T) / 2)
    return np.linalg.eigh((h + h.conj().T) / 2)


def _symmetric_part(x: np.ndarray) -> np.ndarray:
    """x/2 + x^T/2 for a real x that no caller holds, formed in place in x.

    Row block I gets its columns from I on as x_IJ/2 + x_JI/2 from the rows
    not yet overwritten, and the columns before I from the finished rows
    above, as the transpose; each entry is the sum of the same two halves,
    with one ROW_BLOCK-row temporary.
    """
    x /= 2
    for start, stop in _row_blocks(x.shape[0]):
        x[start:stop, start:] = x[start:stop, start:] + x[start:, start:stop].T
        x[start:stop, :start] = x[:start, start:stop].T
    return x


def _symmetric_product(uf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symmetric part of (u F) u^T for real u and uf = u F, F diagonal."""
    return _symmetric_part(uf @ u.T)


def _from_eigenbasis(uf: np.ndarray, u: np.ndarray, in_frame: bool) -> Operator:
    """The Hermitian part of (U F) U^dagger for uf = u F, F diagonal; U = S u when in_frame."""
    if in_frame:
        return Operator._own(from_pt_frame(_symmetric_product(uf, u)))
    x = uf @ u.conj().T
    return Operator._own((x + x.conj().T) / 2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = a @ b
    c -= b @ a
    return c


def _stencil_work(xr: np.ndarray, rows: int) -> np.ndarray:
    """SplitHamiltonian._h0_pass's scratch: three float arrays of rows + 2 rows (a
    block and its halo), as wide as the real view xr."""
    return np.empty((3, rows + 2, xr.shape[1]))


class SplitHamiltonian:
    """H = H0 + epsilon * H1 with Hermitian H0 and anti-Hermitian H1.

    Built from two dense Operators, or by SplitHamiltonian.tridiagonal from
    O(N) data: H0 as the real coefficients of a symmetric tridiagonal stencil
    and H1 = i diag(v) as the real vector v. Both forms answer the same
    questions: [H0, X] and [H1, X] (a stencil and an elementwise product in
    the structured form), the products with H at epsilon that the checks
    need (H^dagger X - X H and [H, X]), H's real PT-frame matrix (frame),
    the max-norms of H, H0 and H1, and X + s H1; H^dagger X - X H and
    [H, X] as the row blocks of one pass. .H0, .H1 and total() give dense
    Operators, which the structured form builds only when they are asked
    for.
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

    def _h0_matrix(self, dtype=complex) -> np.ndarray:
        """A fresh copy of H0; the structured form's H0 is real, and dtype=float builds it so."""
        if self._stencil is None:
            return self._dense[0].mat.copy()
        diag, off, v = self._stencil
        n = v.size
        h = np.zeros((n, n), dtype=dtype)
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

    def h0_hermiticity(self) -> tuple[float, float]:
        """(max_norm(H0), max_norm(H0 - H0^dagger)), the Hermiticity rule's two numbers.

        The structured form's H0 is a real symmetric stencil: its defect is
        exactly 0, read off the O(N) data with no dense H0.
        """
        if self._stencil is None:
            return _hermiticity(self._dense[0].mat, "H0")
        return self.h0_norm(), 0.0

    def h0_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, U): eigh of H0's Hermitian part, in real arithmetic when H0 is real.

        The structured form factorizes its real stencil matrix, which is its
        own Hermitian part bit for bit, so no complex H0 is built.
        """
        if self._stencil is None:
            return _hermitian_eigh(self._dense[0].mat)
        return np.linalg.eigh(self._h0_matrix(float))

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

    def _h0_pass(self, x):
        """[H0, X], as (s, e, c, xb) for each row block s:e, over all N rows in order.

        x is X, or a row fill x(lo, hi) that forms rows lo:hi of X (as
        kernel_rows returns, or MetricOperator.rows). c is rows s:e of
        [H0, X] and xb rows s:e of X. The dense form reads all of X and
        gives it as one block (0, N). X must be N x N, else ShapeError
        before the first block: a matrix is checked by its shape and a row
        fill by the width of x(0, 0).

        In the structured form a block of ROW_BLOCK rows reads the slab of X
        one halo row wider on each side (clipped to X). A real slab is taken
        as it is, a complex one on its real view (one complex column is two
        real ones), and T X and X T are summed as the dense product sums
        them, so each entry is the whole commutator's and a real X gives a
        real c. Every block's three products go into one scratch
        (_stencil_work), made for the first slab, since fresh ones per block
        made the allocator hand the heap back and fault it in again each
        time; c is a view of it, valid until the next block is taken, and xb
        a view of the slab.
        """
        n = self.dim
        fill = x if callable(x) else lambda lo, hi: x[lo:hi]
        shape = (n, x(0, 0).shape[1]) if callable(x) else x.shape
        if shape != (n, n):
            raise ShapeError(f"dimension mismatch: X is {shape}, H0 {(n, n)}")
        if self._stencil is None:
            xs, h0 = fill(0, n), self._dense[0].mat
            yield 0, n, h0 @ xs - xs @ h0, xs
            return
        diag, off, _ = self._stencil
        work = None
        for s, e in _row_blocks(n):
            lo, hi = max(s - 1, 0), min(e + 1, n)
            xs = fill(lo, hi)
            real = np.isrealobj(xs)
            xr = np.ascontiguousarray(xs, dtype=float if real else complex).view(float)
            step = 1 if real else 2  # the real view's columns per column of X
            if work is None:
                work = _stencil_work(xr, min(ROW_BLOCK, n))
            oxr, rows, cols = work[:, : hi - lo]
            np.multiply(off, xr, out=oxr)
            np.multiply(diag, xr, out=rows)
            rows[1:] += oxr[:-1]
            rows[:-1] += oxr[1:]
            np.multiply(diag, xr, out=cols)
            cols[:, step:] += oxr[:, :-step]
            cols[:, :-step] += oxr[:, step:]
            rows -= cols
            c = rows if real else rows.view(complex)
            yield s, e, c[s - lo : e - lo], xs[s - lo : e - lo]

    def h0_commutator(self, x: np.ndarray) -> np.ndarray:
        """[H0, X].

        The rows come from one pass (_h0_pass): in the structured form a
        stencil read ROW_BLOCK rows at a time, each entry summed exactly as in
        the whole commutator, and a real X gives a real result.
        """
        n = self.dim
        out = None
        for s, e, c, _ in self._h0_pass(x):
            if (s, e) == (0, n):  # one block: the pass's rows, which no one else holds
                return c
            if out is None:
                out = np.empty((n, c.shape[1]), c.dtype)
            out[s:e] = c
        return out

    def h1_commutator(self, x: np.ndarray) -> np.ndarray:
        """[H1, X]; for H1 = i diag(v), entry (i, j) is i v_i X_ij - X_ij i v_j."""
        return self._h1_rows(x, 0, self.dim, -1.0)

    def h1_commutator_real(self, a: np.ndarray) -> np.ndarray:
        """[H1, A] / i for a real A, in the structured form: the real v_i A_ij - A_ij v_j.

        That is h1_commutator's entry on i A or on A, summed in its order, so
        that [H1, p A] = i p times this matrix for a phase p is h1_commutator
        on p A bit for bit.
        """
        v = self._stencil[2]
        d = v[:, None] * a
        d -= a * v[None, :]
        return d

    def _h1_rows(self, x: np.ndarray, start: int, stop: int, sign: float) -> np.ndarray:
        """Rows start:stop of H1 X + sign X H1, for sign -1 (commutator) or +1 (anticommutator).

        x is rows start:stop of X; the dense form takes all of X, as its
        pass's one block (0, N).
        """
        if self._stencil is None:
            h1 = self._dense[1].mat
            return h1 @ x + sign * (x @ h1)
        iv = 1j * self._stencil[2]
        return iv[start:stop, None] * x + sign * (x * iv[None, :])

    def adjoint_residual(self, x):
        """H^dagger X - X H for H = H0 + epsilon H1, as (s, e, rows) per row block s:e.

        With H0 Hermitian and H1 anti-Hermitian that is [H0, X] - epsilon {H1, X},
        and for H1 = i diag(v), {H1, X}_ij = i (v_i + v_j) X_ij: in the
        structured form a stencil and an elementwise product, no matrix product.
        The blocks are those of one pass (_h0_pass), whose x is X or a row
        fill of X, and each block's rows are valid until the next is taken.
        """
        for s, e, r, xb in self._h0_pass(x):
            r -= self.epsilon * self._h1_rows(xb, s, e, 1.0)
            yield s, e, r

    def total_commutator(self, x):
        """[H, X] = [H0, X] + epsilon [H1, X], as adjoint_residual gives its rows."""
        for s, e, r, xb in self._h0_pass(x):
            r += self.epsilon * self._h1_rows(xb, s, e, -1.0)
            yield s, e, r

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

    def add_h1(self, x: np.ndarray, scale: float) -> np.ndarray:
        """x += scale * H1 in place for an N x N x; returns x.

        x is complex, or, in the structured form, real: a real x stands for
        i x, the imaginary part of a matrix whose real part is zero, and
        gets scale v on its diagonal, the imaginary part that the complex
        update adds.
        """
        if self._stencil is None:
            x += scale * self._dense[1].mat
        else:
            i = np.arange(x.shape[0])
            v = self._stencil[2]
            x[i, i] += scale * v if np.isrealobj(x) else scale * (1j * v)
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
