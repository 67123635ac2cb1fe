"""Dense complex operator arithmetic.

Operators are immutable wrappers around square complex ndarrays. Residuals are
reported in the max-norm (largest absolute entry) so golden values reproduce
entry-for-entry; the 2-norm is used only for conditioning diagnostics.

Matrix functions of Hermitian arguments (exp, sqrt) go through eigh, never
through series; the truncated series lives only in bch_conjugate, where the
truncation itself is the quantity of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PositivityError, ShapeError, StructureError

ABS_TOL = 1e-10
REL_TOL = 1e-8


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
    """Largest absolute entry; 0.0 for empty arrays."""
    return float(np.abs(a).max()) if a.size else 0.0


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
            raise ValueError("operator entries must be finite")
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


def is_hermitian(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return max_norm(m - m.conj().T) <= tol.bound(max_norm(m))


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
            f"herm_exp requires a Hermitian argument, defect {max_norm(q - q.conj().T):.3e}"
        )
    w, u = np.linalg.eigh((q + q.conj().T) / 2)
    m = (u * np.exp(-w)) @ u.conj().T
    return Operator((m + m.conj().T) / 2), w


def herm_sqrt_inv(M: Operator, tol: Tolerance = DEFAULT_TOL) -> tuple[Operator, Operator]:
    """(M^{1/2}, M^{-1/2}) for Hermitian positive-definite M."""
    m = _as_matrix(M)
    if not is_hermitian(m, tol):
        raise StructureError(
            f"herm_sqrt_inv requires a Hermitian argument, defect {max_norm(m - m.conj().T):.3e}"
        )
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    if w[0] <= tol.abs_tol:
        raise PositivityError(f"matrix not positive definite: eigenvalue {w[0]:.6e}")
    r = np.sqrt(w)
    s = (u * r) @ u.conj().T
    si = (u / r) @ u.conj().T
    return Operator((s + s.conj().T) / 2), Operator((si + si.conj().T) / 2)


@dataclass(frozen=True)
class StructureFlags:
    hermitian: bool
    anti_hermitian: bool
    positive_definite: bool
    invertible: bool


def classify(M: Operator, tol: Tolerance = DEFAULT_TOL) -> StructureFlags:
    """Tolerance-based structural flags; purely diagnostic, never raises."""
    m = _as_matrix(M)
    scale = max_norm(m)
    herm = max_norm(m - m.conj().T) <= tol.bound(scale)
    anti = max_norm(m + m.conj().T) <= tol.bound(scale)
    sv = np.linalg.svd(m, compute_uv=False)
    invertible = bool(sv[-1] > tol.bound(sv[0]))
    pd = False
    if herm:
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        pd = bool(w[0] > tol.abs_tol)
    return StructureFlags(herm, anti, pd, invertible)
