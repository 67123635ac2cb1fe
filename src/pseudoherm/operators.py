"""Dense complex operator arithmetic.

Operators are immutable wrappers around square complex ndarrays. Residuals are
reported in the max-norm (largest absolute entry) so golden values reproduce
entry-for-entry; the 2-norm is used only for conditioning diagnostics.

Matrix functions of Hermitian arguments (exp, sqrt) go through eigh, never
through series; the truncated series lives only in bch_conjugate, where the
truncation itself is the quantity of interest.

PT frame: with J the index reversal (J^2 = I) and S = (I + iJ)/sqrt(2), a
matrix X with J conj(X) J = X (PT-symmetric) is real in the basis S:
S^dagger X S is a real matrix. to_pt_frame and from_pt_frame map between the
two bases in O(N^2), with index flips and no matrix product, so that a
PT-symmetric factorization can run in real arithmetic; pt_frame decides
which matrices do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, PositivityError, ShapeError, StructureError

ABS_TOL = 1e-10
REL_TOL = 1e-8
# pt_frame's rounding level, in units of n * eps * max_norm(m): the Q(eps) and
# eta of the step grids carry PT-odd parts of up to 4 (N <= 1025)
PT_FRAME_ULPS = 16


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


@dataclass(frozen=True)
class Operator:
    """Square complex matrix with an optional label.

    The underlying array is copied and frozen, so instances can be shared
    freely between threads and used as fixed reference values in tests.
    """

    mat: np.ndarray
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise NonFiniteError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def adjoint(self) -> "Operator":
        return Operator(self.mat.conj().T)

    def norm(self) -> float:
        return max_norm(self.mat)

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.mat + _coerce(other, self.dim))

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.mat - _coerce(other, self.dim))

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.mat @ _coerce(other, self.dim))

    def __rmul__(self, scalar: complex) -> "Operator":
        return Operator(scalar * self.mat)


def _coerce(x, dim: int) -> np.ndarray:
    m = x.mat if isinstance(x, Operator) else np.asarray(x)
    if m.shape != (dim, dim):
        raise ShapeError(f"dimension mismatch: {m.shape} vs ({dim}, {dim})")
    return m


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


def _eigh_hermitian_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """(w, u, in_frame): eigh of the Hermitian part of m.

    When m has a PT frame (pt_frame), the symmetric part of its frame matrix
    is factorized in real arithmetic: u is then real and m's eigenvectors
    are S u.
    """
    r = pt_frame(m)
    if r is not None:
        w, u = np.linalg.eigh(r / 2 + r.T / 2)
        return w, u, True
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    return w, u, False


def _from_eigenbasis(uf: np.ndarray, u: np.ndarray, in_frame: bool) -> Operator:
    """The Hermitian part of (U F) U^dagger for uf = u F, F diagonal; U = S u when in_frame."""
    if in_frame:
        x = uf @ u.T
        return Operator(from_pt_frame(x / 2 + x.T / 2))
    x = uf @ u.conj().T
    return Operator((x + x.conj().T) / 2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


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


def herm_exp(Q: Operator, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """e^(-Q) for Hermitian Q via unitary diagonalization; Hermitian positive definite."""
    return herm_exp_eig(Q, tol)[0]


def herm_exp_eig(Q: Operator, tol: Tolerance = DEFAULT_TOL) -> tuple[Operator, np.ndarray]:
    """(e^(-Q), w) with w the ascending eigenvalues of Q, so e^(-Q) has spectrum e^(-w)."""
    q = _as_matrix(Q)
    if not is_hermitian(q, tol):
        raise StructureError(
            f"herm_exp requires a Hermitian argument, "
            f"defect {2 * half_difference_norm(q, q.conj().T):.3e}"
        )
    w, u, in_frame = _eigh_hermitian_part(q)
    return _from_eigenbasis(u * np.exp(-w), u, in_frame), w


def herm_sqrt_inv(M: Operator, tol: Tolerance = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """(M^{1/2}, M^{-1/2}) for Hermitian positive-definite M."""
    m = _as_matrix(M)
    if not is_hermitian(m, tol):
        raise StructureError(
            f"herm_sqrt_inv requires a Hermitian argument, "
            f"defect {2 * half_difference_norm(m, m.conj().T):.3e}"
        )
    w, u, in_frame = _eigh_hermitian_part(m)
    if w[0] <= tol.abs_tol:
        raise PositivityError(f"matrix not positive definite: eigenvalue {w[0]:.6e}")
    r = np.sqrt(w)
    return _from_eigenbasis(u * r, u, in_frame), _from_eigenbasis(u / r, u, in_frame)


@dataclass(frozen=True)
class StructureFlags:
    hermitian: bool
    anti_hermitian: bool
    positive_definite: bool
    invertible: bool


def classify(M: Operator, tol: Tolerance = DEFAULT_TOL) -> StructureFlags:
    """Tolerance-based structural flags; purely diagnostic, never raises."""
    m = _as_matrix(M)
    herm = is_hermitian(m, tol)
    anti = is_hermitian(1j * m, tol)
    sv = np.linalg.svd(m, compute_uv=False)
    invertible = bool(sv[-1] > tol.bound(sv[0]))
    pd = False
    if herm:
        w = np.linalg.eigvalsh(m / 2 + m.conj().T / 2)
        pd = bool(w[0] > tol.abs_tol)
    return StructureFlags(herm, anti, pd, invertible)
