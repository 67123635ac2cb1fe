"""Position-space constructions for H0 = p^2 and H1 = i v(x).

For a piecewise-constant real v with compact support, the first-order kernel
solves a (1+1)-dimensional wave equation with a delta source on the line
x = y. In characteristic coordinates s = x+y, t = x-y the operator
-dxx + dyy factors as -4 ds dt, which gives the closed-form particular
solution

    Q1(x, y) = (i/2) V((x+y)/2) sign(x-y),      V(x) = int_0^x v,

with the convention sign(0) = 0 on the singular line. General solutions add
f(x-y) + g(x+y); Hermiticity of the kernel pins f and g up to the constraints
enforced by HomogeneousPair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, StructureError
from .operators import Operator, SplitHamiltonian

CONSTRAINT_TOL = 1e-10
# samples of HomogeneousPair.constraint_defects on [-box, box]
CONSTRAINT_SAMPLES = 201


def _potential_values(x: np.ndarray, breaks: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """vals[i] on (breaks[i-1], breaks[i]); the two-sided average at a breakpoint."""
    left = np.searchsorted(breaks, x, side="left")
    right = np.searchsorted(breaks, x, side="right")
    avg = 0.5 * (vals[left] + vals[np.minimum(left + 1, len(vals) - 1)])
    return np.where(left != right, avg, vals[right])


def _piecewise_linear(x: np.ndarray, breaks: np.ndarray, knots: np.ndarray, vals: np.ndarray):
    """V(x) for the continuous V with V(breaks[i]) = knots[i] and slope vals[i+1] right of it."""
    idx = np.searchsorted(breaks, x, side="right") - 1
    anchored = np.maximum(idx, 0)
    return knots[anchored] + vals[anchored + (idx >= 0)] * (x - breaks[anchored])


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant v: values[i] on (breakpoints[i-1], breakpoints[i]).

    The outermost values must be 0 (compact support), which keeps the
    antiderivative bounded. At a breakpoint the two-sided average is used.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    _knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.array(self.breakpoints, dtype=float)
        v = np.array(self.values, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise DomainError("breakpoints must be a non-empty 1-D sequence")
        if v.shape != (b.size + 1,):
            raise DomainError(
                f"need {b.size + 1} interval values for {b.size} breakpoints, got {v.size}"
            )
        if not np.all(np.diff(b) > 0):
            raise DomainError("breakpoints must be strictly increasing")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise DomainError("outermost values must be 0 (compact support)")
        # V at each breakpoint, anchored so that V(0) = 0
        w = np.concatenate(([0.0], np.cumsum(v[1:-1] * np.diff(b))))
        v0 = _piecewise_linear(np.zeros(1), b, w, v)
        for name, arr in (("breakpoints", b), ("values", v), ("_knots", w - v0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = _potential_values(arr, self.breakpoints, self.values)
        return out if np.ndim(x) else float(out[0])

    def antiderivative(self, x):
        """Continuous piecewise-linear V(x) = int_0^x v(u) du with V(0) = 0."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = _piecewise_linear(arr, self.breakpoints, self._knots, self.values)
        return out if np.ndim(x) else float(out[0])


def step_potential() -> PiecewisePotential:
    """v = -sign(x) on [-1, 1], zero outside."""
    return PiecewisePotential(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, -1.0, 0.0]))


@dataclass(frozen=True)
class HomogeneousPair:
    """Additive solution f(x-y) + g(x+y) of the source-free wave equation.

    Kernel Hermiticity forces, for all x:
        Re f(-x) = Re f(x)
        Im g(x) = c
        Im f(-x) = -Im f(x) - 2c
    f and g must accept ndarray arguments.
    """

    f: Callable
    g: Callable
    c: float = 0.0

    def constraint_defects(
        self, box: float = 3.0, n: int = CONSTRAINT_SAMPLES
    ) -> tuple[float, float, float]:
        """Max violation of each Hermiticity constraint on a symmetric grid."""
        x = np.linspace(-box, box, n)
        fx = np.asarray(self.f(x), dtype=complex)
        fmx = np.asarray(self.f(-x), dtype=complex)
        gx = np.asarray(self.g(x), dtype=complex)
        d1 = float(np.abs(fmx.real - fx.real).max())
        d2 = float(np.abs(gx.imag - self.c).max())
        d3 = float(np.abs(fmx.imag + fx.imag + 2.0 * self.c).max())
        return d1, d2, d3

    def is_valid(self, tol: float = CONSTRAINT_TOL, box: float = 3.0) -> bool:
        return max(self.constraint_defects(box=box)) <= tol


@dataclass(frozen=True)
class KernelFunction:
    """K(x, y) = F((x+y)/2) sign(x-y) + f(x-y) + g(x+y), with sign(0) = 0.

    The d'Alembert form of every solution of the first-order wave equation:
    profile maps an array of s to F(s), the particular solution's part; hom
    is the homogeneous pair (f, g), or None for the particular solution
    alone. domain_box is the half-width of the box the kernel is meant to be
    sampled on. Each of F, f and g is a function of one variable, so
    kernel_rows needs each at 2N - 1 points only.
    """

    profile: Callable
    domain_box: float
    hom: HomogeneousPair | None = None

    def __call__(self, x, y):
        xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.asarray(self.profile(0.5 * (xb + yb)), dtype=complex) * np.sign(xb - yb)
        if self.hom is not None:
            out = out + np.asarray(self.hom.f(xb - yb), dtype=complex)
            out = out + np.asarray(self.hom.g(xb + yb), dtype=complex)
        return out if out.shape else complex(out)


def particular_kernel_q1(v: PiecewisePotential) -> KernelFunction:
    """(i/2) V((x+y)/2) sign(x-y); particular solution with sign(0) = 0."""
    box = max(3.0, abs(v.breakpoints[0]) + 2.0, abs(v.breakpoints[-1]) + 2.0)
    return KernelFunction(lambda s: 0.5j * v.antiderivative(s), box)


def general_kernel(particular: KernelFunction, hom: HomogeneousPair) -> KernelFunction:
    """particular(x,y) + f(x-y) + g(x+y), validated to stay Hermitian.

    On the kernel's box [-b, b], x - y and x + y range over [-2b, 2b], so
    the constraints are checked there, at constraint_defects' default
    sample spacing. Raises StructureError if hom breaks one, or if
    particular already carries a pair. A kernel with an unchecked pair, e.g.
    to measure the hermiticity_defect a broken pair actually produces, is
    KernelFunction(profile, domain_box, hom).
    """
    if particular.hom is not None:
        raise StructureError("kernel already carries a homogeneous pair")
    box = 2 * particular.domain_box
    d1, d2, d3 = hom.constraint_defects(box=box, n=2 * CONSTRAINT_SAMPLES - 1)
    if max(d1, d2, d3) > CONSTRAINT_TOL:
        raise StructureError(
            "homogeneous pair breaks kernel Hermiticity: "
            f"Re-f-even defect {d1:.3e}, Im-g-const defect {d2:.3e}, "
            f"Im-f-reflection defect {d3:.3e}"
        )
    return KernelFunction(particular.profile, particular.domain_box, hom)


def hermiticity_defect(K: KernelFunction, samples: int, rng=None) -> float:
    """Max |K(x,y)* - K(y,x)| over random off-diagonal sample pairs."""
    if samples < 100:
        raise DomainError(f"samples must be >= 100, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    b = K.domain_box
    x = rng.uniform(-b, b, samples)
    y = rng.uniform(-b, b, samples)
    keep = x != y
    x, y = x[keep], y[keep]
    return float(np.abs(np.conj(K(x, y)) - K(y, x)).max())


def jump_condition_defect(
    K: KernelFunction, v: PiecewisePotential, delta: float, xs: np.ndarray
) -> float:
    """Max over xs of |[K(x+d, x-d) - K(x-d, x+d)] - i V(x)|.

    The antisymmetric difference across the line x = y must reproduce the
    jump i V(x) that encodes the -2i v(x) delta(x-y) source.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    xs = np.asarray(xs, dtype=float)
    jump = K(xs + delta, xs - delta) - K(xs - delta, xs + delta)
    return float(np.abs(jump - 1j * np.asarray(v.antiderivative(xs))).max())


def discretize_schroedinger(
    v: PiecewisePotential, L: float, N: int, epsilon: float = 1.0
) -> SplitHamiltonian:
    """Uniform Dirichlet grid: H0 = -dxx (central differences), H1 = i diag(v).

    The split is stored as O(N) data, with no N x N array: H0 as the stencil
    coefficients 2/dx^2 on the diagonal and -1/dx^2 on both neighbours, H1 as
    the grid values v(x_i). split.H0, split.H1 and split.total() build the
    dense matrices on request. Raises DomainError unless N >= 16, v's support
    lies inside (-L, L), and dx < 1e154 has a non-zero dx^2 with 2/dx^2 and
    -1/dx^2 finite.
    """
    if N < 16:
        raise DomainError(f"N must be >= 16, got {N}")
    lo, hi = v.support
    if not (-L < lo and hi < L):
        raise DomainError(f"potential support [{lo}, {hi}] must lie inside (-{L}, {L})")
    x = grid_points(L, N)
    dx = 2.0 * L / (N - 1)
    dx2 = dx**2 if dx < 1e154 else np.inf  # dx**2 raises OverflowError past 1.34e154
    if not (0.0 < dx2 < np.inf and np.isfinite(2.0 / dx2)):
        raise DomainError(f"grid spacing dx = {dx:.6e} (L = {L}, N = {N}) gives no finite 2/dx^2")
    return SplitHamiltonian.tridiagonal(2.0 / dx2, -1.0 / dx2, v(x), epsilon)


def grid_points(L: float, N: int) -> np.ndarray:
    return np.linspace(-L, L, N)


def kernel_rows(
    K: KernelFunction, L: float, N: int, graded: bool = False
) -> Callable[[int, int], np.ndarray]:
    """The row fill of M_ij = K(x_i, x_j) dx on the discretization grid.

    Returns rows, where rows(start, stop) is a fresh complex array holding
    rows start:stop of M, so that a reader of M in row blocks never forms
    the N x N matrix.
    On the uniform grid x_i + x_j depends only on i + j and x_i - x_j only
    on i - j, so K's d'Alembert form fills M from 2N - 1 samples of each of
    F, f and g, taken once here, with no N x N argument, sign or value array:
    F at the midpoints 0.5 (x[k//2] + x[(k+1)//2]) gives the Hankel part
    F_{i+j} sign(i - j) dx, and a pair adds the Toeplitz part f_{i-j} dx and
    the Hankel part g_{i+j} dx. Where N - 1 is a power of two the grid sums
    and differences are exact and M equals K(x_i, x_j) dx bit for bit;
    elsewhere the two agree to rounding.
    With graded=True, a fill whose samples all have zero real part (the
    bare kernel's, (i/2) V, do) is real: rows(start, stop) then holds the
    imaginary parts of those rows of M, M = i rows, each entry the complex
    fill's imaginary part bit for bit. Any other fill stays complex.
    """
    xs = grid_points(L, N)
    dx = 2.0 * L / (N - 1)
    k = np.arange(2 * N - 1)
    sums = xs[k // 2] + xs[(k + 1) // 2]  # x_i + x_j for i + j = k
    samples = [np.asarray(K.profile(0.5 * sums), dtype=complex) * dx]
    if K.hom is not None:
        d = k - (N - 1)
        diffs = xs[np.maximum(d, 0)] - xs[np.maximum(-d, 0)]  # x_i - x_j for i - j = d
        samples.append(np.asarray(K.hom.f(diffs), dtype=complex)[::-1] * dx)
        samples.append(np.asarray(K.hom.g(sums), dtype=complex) * dx)
    if graded and not any(s.real.any() for s in samples):
        samples = [s.imag for s in samples]
    window = np.lib.stride_tricks.sliding_window_view
    hankel, *pair = (window(s, N) for s in samples)  # hankel[i, j] = samples[0][i + j]

    def rows(start: int, stop: int) -> np.ndarray:
        m = np.empty((stop - start, N), dtype=hankel.dtype)
        for r, i in enumerate(range(start, stop)):
            m[r, :i] = hankel[i, :i]
            m[r, i] = 0.0
            np.negative(hankel[i, i + 1 :], out=m[r, i + 1 :])
        if pair:
            toeplitz, g_hankel = pair
            m += toeplitz[::-1][start:stop]  # toeplitz[::-1][i, j] = f_{i-j} dx
            m += g_hankel[start:stop]
        return m

    return rows


def kernel_to_matrix(K: KernelFunction, L: float, N: int) -> Operator:
    """Quadrature bridge M_ij = K(x_i, x_j) dx: every row of kernel_rows' fill, as an Operator."""
    return Operator._own(kernel_rows(K, L, N)(0, N))


def offdiagonal_commutator_check(
    split: SplitHamiltonian, M: Operator | Callable[[int, int], np.ndarray], band_exclude: int
) -> float:
    """Max-norm of [H0, M] away from the singular band and boundary rows.

    That is the first-order defect [H0, M] + 2 H1 there: the grid's
    H1 = i diag(v) lies on the diagonal, inside the band (band_exclude >= 2),
    so H1 drops out and the check never reads it. M is an Operator or a row
    fill rows(start, stop), such as kernel_rows returns, which the check
    reads without ever forming M; a real fill (kernel_rows with
    graded=True) stands for M = i rows, and as [H0, .] is real-linear,
    |[H0, i rows]| = |[H0, rows]| entry by entry, so the check reads the
    fill as it is, in real arithmetic on a grid split. Entries with
    |i-j| <= band_exclude, min(i,j) <= 2 or max(i,j) >= N-3 are excluded:
    the delta source lives on the diagonal band and Dirichlet truncation
    pollutes the outermost rows. DomainError when that leaves no entry
    (N < band_exclude + 8).

    The check is one pass of [H0, M] over all rows (SplitHamiltonian._h0_pass):
    each block's rows in [3, N - 3) have their band entries zeroed and their
    maximum over columns [3, N - 3) is kept. A grid split's blocks are 32
    rows, each read from a slab of M with its halo rows, so the check holds
    a few rows of M and one scratch, not N x N arrays (at N = 2049, where M
    would be 67 MB, it peaks at 3.4 MB with kernel_rows' real fill and
    6.2 MB with the complex one; tracemalloc); a dense split's one block
    reads all of M. The block maxima are combined so that a NaN an overflow
    leaves off the band is returned, not dropped; the overflow itself raises
    no warning.

    For a grid split, [H0, M] is the three-point stencil applied along the
    rows of M minus the same along its columns, O(N^2) with no matrix
    product. On the uniform grid any fill F(x+y) sign(x-y) + f(x-y) + g(x+y)
    makes the stencil entries cancel in pairs (the discrete d'Alembert
    identity), so the defect is identically zero up to rounding at every N.
    kernel_rows' fill of a kernel with no pair has entries that depend on
    i + j alone, so its row and column passes round alike and the pipeline's
    defect is exactly 0 at every N. It guards the grid fill (a kernel not of
    that form leaves an O(1) defect) and does not measure convergence; the
    discretization error lives on the band.
    The pipeline's offdiagonal_commutator_defect verdict reports this value.
    """
    if band_exclude < 2:
        raise DomainError(f"band_exclude must be >= 2, got {band_exclude}")
    n = split.dim
    if n < band_exclude + 8:
        raise DomainError(f"no entry of an N = {n} split lies off the band |i - j| <= "
                          f"{band_exclude} and inside [3, N - 3)")
    lo, hi = 3, n - 3
    offsets = np.arange(-band_exclude, band_exclude + 1)
    peaks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e, comm, _ in split._h0_pass(M if callable(M) else M.mat):
            start, stop = max(s, lo), min(e, hi)
            if start >= stop:
                continue
            block = np.abs(comm[start - s : stop - s])
            kept = np.arange(start, stop)[:, None]
            # band columns past either edge clip to columns 0 and N - 1, which are not kept
            block[kept - start, np.clip(kept + offsets, 0, n - 1)] = 0.0
            peaks.append(block[:, lo:hi].max())
    return float(np.max(peaks))
