import tracemalloc

import numpy as np
import pytest

from pseudoherm import (
    DomainError,
    HomogeneousPair,
    KernelFunction,
    Operator,
    StructureError,
    commutator,
    discretize_schroedinger,
    general_kernel,
    grid_points,
    hermiticity_defect,
    jump_condition_defect,
    kernel_rows,
    kernel_to_matrix,
    max_norm,
    offdiagonal_commutator_check,
    particular_kernel_q1,
    step_potential,
    PiecewisePotential,
    ShapeError,
    SplitHamiltonian,
)
from pseudoherm.operators import _max_norm_rows


def closed_form_step_q1(x, y):
    # (i/8) (|s+2| + |s-2| - 2|s| - 4) sign(t), s = x+y, t = x-y
    s = np.asarray(x) + np.asarray(y)
    t = np.asarray(x) - np.asarray(y)
    return 0.125j * (np.abs(s + 2) + np.abs(s - 2) - 2 * np.abs(s) - 4) * np.sign(t)


def sin_gauge_pair():
    # f(t) = i sin t: Re f = 0 (even), Im f odd with c = 0
    return HomogeneousPair(
        f=lambda t: 1j * np.sin(t),
        g=lambda s: np.zeros_like(np.asarray(s, dtype=float), dtype=complex),
        c=0.0,
    )


def test_piecewise_potential_validation():
    with pytest.raises(DomainError):
        PiecewisePotential(np.array([0.0, -1.0]), np.array([0.0, 1.0, 0.0]))  # not increasing
    with pytest.raises(DomainError):
        PiecewisePotential(np.array([-1.0, 1.0]), np.array([0.0, 1.0]))  # wrong count
    with pytest.raises(DomainError):
        PiecewisePotential(np.array([-1.0, 1.0]), np.array([0.5, 1.0, 0.0]))  # outer not zero


def test_step_potential_values():
    v = step_potential()
    assert v(np.array([0.5]))[0] == -1.0
    assert v(np.array([-0.5]))[0] == 1.0
    assert v(np.array([2.0]))[0] == 0.0
    assert v(np.array([-2.0]))[0] == 0.0
    # breakpoints take the midpoint value of the adjacent pieces
    assert v(np.array([0.0]))[0] == 0.0
    assert v(np.array([1.0]))[0] == -0.5
    assert v(np.array([-1.0]))[0] == 0.5
    assert v.support == (-1.0, 1.0)
    assert v.antiderivative(0.0) == 0.0  # the anchor is exact


def test_antiderivative_of_step():
    v = step_potential()
    V = v.antiderivative
    xs = np.array([0.0, 0.5, 1.0, 3.0, -0.5, -1.0, -3.0])
    expected = np.array([0.0, -0.5, -1.0, -1.0, -0.5, -1.0, -1.0])
    assert np.allclose(V(xs), expected, rtol=0, atol=1e-15)
    # V' = v away from the breakpoints
    h = 1e-6
    for x0 in (-0.7, -0.2, 0.3, 0.8, 1.5):
        num = (V(np.array([x0 + h]))[0] - V(np.array([x0 - h]))[0]) / (2 * h)
        assert abs(num - v(np.array([x0]))[0]) < 1e-8


def test_antiderivative_of_a_potential_right_of_zero():
    # support [0.5, 2]: V is anchored at the left end of the support, where
    # v has been 0 since x = 0, so V(0) = 0 and V = int_0^x v everywhere
    v = PiecewisePotential(np.array([0.5, 1.5, 2.0]), np.array([0.0, 2.0, -1.0, 0.0]))
    xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 1.75, 2.0, 3.0])
    expected = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 1.75, 1.5, 1.5])
    assert np.array_equal(v.antiderivative(xs), expected)
    assert v.antiderivative(0.0) == 0.0


def test_particular_kernel_matches_closed_form():
    rng = np.random.default_rng(40)
    K = particular_kernel_q1(step_potential())
    x = rng.uniform(-3, 3, 2000)
    y = rng.uniform(-3, 3, 2000)
    assert max_norm(np.asarray(K(x, y)) - closed_form_step_q1(x, y)) < 1e-14
    # spot value from the worked example
    assert abs(K(0.5, 0.3) - (-0.2j)) < 1e-15


def test_particular_kernel_scalar_and_grid_paths_agree():
    K = particular_kernel_q1(step_potential())
    xs = np.linspace(-2.5, 2.5, 21)  # step 0.25, grid-aligned spot points
    grid = K(xs[:, None], xs[None, :])
    assert grid.shape == (21, 21)
    assert np.array_equal(grid, [[K(x, y) for y in xs] for x in xs])
    val = K(1.25, -0.75)
    assert isinstance(val, complex)
    assert val == complex(grid[15, 7])


def test_kernel_hermiticity():
    K = particular_kernel_q1(step_potential())
    assert hermiticity_defect(K, samples=500) < 1e-14
    with pytest.raises(DomainError):
        hermiticity_defect(K, samples=10)


def test_homogeneous_pair_constraints():
    assert sin_gauge_pair().is_valid()
    d1, d2, d3 = sin_gauge_pair().constraint_defects()
    assert max(d1, d2, d3) < 1e-15
    # constant imaginary part of g compensated through c
    ok = HomogeneousPair(
        f=lambda t: np.cos(t) + 1j * (np.sin(t) - 0.3),
        g=lambda s: s**2 + 0.3j * np.ones_like(np.asarray(s, dtype=float)),
        c=0.3,
    )
    assert ok.is_valid()
    bad_f_even = HomogeneousPair(f=lambda t: t + 0j, g=ok.g, c=0.3)
    bad_g_const = HomogeneousPair(f=ok.f, g=lambda s: 1j * s, c=0.3)
    bad_f_imag = HomogeneousPair(f=lambda t: 1j * t**2, g=ok.g, c=0.3)
    for pair in (bad_f_even, bad_g_const, bad_f_imag):
        assert not pair.is_valid()


def test_general_kernel_validates_and_sums():
    K = particular_kernel_q1(step_potential())
    G = general_kernel(K, sin_gauge_pair())
    x, y = 0.7, -0.4
    assert abs(G(x, y) - (K(x, y) + 1j * np.sin(x - y))) < 1e-15
    assert hermiticity_defect(G, samples=500) < 1e-14
    with pytest.raises(StructureError):
        general_kernel(K, HomogeneousPair(f=lambda t: t + 0j, g=sin_gauge_pair().g, c=0.0))
    # the constructor takes a pair unchecked, to study broken pairs
    broken = KernelFunction(
        K.profile, K.domain_box, HomogeneousPair(f=lambda t: t + 0j, g=sin_gauge_pair().g, c=0.0)
    )
    assert hermiticity_defect(broken, samples=500) > 1e-3


def test_general_kernel_checks_the_pair_where_the_kernel_evaluates_it():
    # on the box [-3, 3], f(x - y) is evaluated out to |t| = 6; this f breaks
    # Re f(-t) = Re f(t) only beyond |t| > 3.5, where a check on [-3, 3]
    # never looks, and the kernel it makes is far from Hermitian
    K = particular_kernel_q1(step_potential())
    pair = HomogeneousPair(f=lambda t: np.where(np.abs(t) > 3.5, t, 0) + 0j,
                           g=lambda s: np.zeros_like(s, dtype=complex))
    assert K.domain_box == 3.0 and max(pair.constraint_defects(box=3.0)) == 0.0
    assert hermiticity_defect(KernelFunction(K.profile, K.domain_box, pair), samples=400) > 1.0
    with pytest.raises(StructureError, match="Re-f-even defect"):
        general_kernel(K, pair)


def test_general_kernel_refuses_a_kernel_that_carries_a_pair():
    # adding a second pair would replace the first, not add to it
    G = general_kernel(particular_kernel_q1(step_potential()), sin_gauge_pair())
    with pytest.raises(StructureError, match="already carries"):
        general_kernel(G, sin_gauge_pair())


def test_jump_condition_bare_kernel_exact():
    # the midpoint of (x+d, x-d) is exactly x, so the bare kernel jump
    # reproduces i V(x) with no discretization error at all
    v = step_potential()
    K = particular_kernel_q1(v)
    xs = np.linspace(-2.5, 2.5, 41)
    for delta in (1e-2, 1e-3):
        assert jump_condition_defect(K, v, delta, xs) < 1e-15


def test_jump_condition_gauged_kernel_second_order():
    v = step_potential()
    G = general_kernel(particular_kernel_q1(v), sin_gauge_pair())
    xs = np.linspace(-2.5, 2.5, 41)
    d1 = jump_condition_defect(G, v, 1e-2, xs)
    d2 = jump_condition_defect(G, v, 1e-3, xs)
    # the homogeneous term contributes 2 sin(2 delta) ~ 4 delta
    assert abs(d1 - 2 * np.sin(2e-2)) < 1e-14
    assert abs(d2 - 2 * np.sin(2e-3)) < 1e-14
    assert 8 <= d1 / d2 <= 12
    with pytest.raises(DomainError):
        jump_condition_defect(G, v, 0.0, xs)


def test_discretize_schroedinger_structure():
    v = step_potential()
    split = discretize_schroedinger(v, L=4.0, N=33)
    h0 = split.H0.mat
    assert max_norm(h0 - h0.conj().T) == 0.0
    dx = 8.0 / 32
    assert h0[0, 0] == 2.0 / dx**2
    assert h0[0, 1] == -1.0 / dx**2
    assert max_norm(np.triu(h0, 2)) == 0.0
    x = grid_points(4.0, 33)
    assert np.array_equal(split.H1.mat, 1j * np.diag(v(x)))
    with pytest.raises(DomainError):
        discretize_schroedinger(v, L=4.0, N=8)
    with pytest.raises(DomainError):
        discretize_schroedinger(v, L=0.9, N=33)  # support sticks out


def test_discrete_laplacian_eigenvalues():
    # closed-form spectrum of the Dirichlet-free tridiagonal stencil
    split = discretize_schroedinger(step_potential(), L=4.0, N=65)
    e = np.linalg.eigvalsh(split.H0.mat)
    n = 65
    dx = 8.0 / (n - 1)
    expected = np.sort(2.0 * (1.0 - np.cos(np.arange(1, n + 1) * np.pi / (n + 1))) / dx**2)
    assert max_norm(e - expected) < 1e-10 * max_norm(e)


def test_offdiagonal_commutator_annihilates_kernel():
    # the step-kernel bridge solves the interior commutator equation to
    # machine precision on the excluded-band complement
    v = step_potential()
    split = discretize_schroedinger(v, L=4.0, N=129)
    M = kernel_to_matrix(particular_kernel_q1(v), L=4.0, N=129)
    assert offdiagonal_commutator_check(split, M, band_exclude=2) < 1e-12
    with pytest.raises(DomainError):
        offdiagonal_commutator_check(split, M, band_exclude=1)


def test_offdiagonal_gauge_terms_also_annihilated():
    # any f(x-y) + g(x+y) addition is translation-structured, so the
    # discrete commutator kills it identically: the check is gauge-blind
    v = step_potential()
    split = discretize_schroedinger(v, L=4.0, N=65)
    gauged = general_kernel(particular_kernel_q1(v), sin_gauge_pair())
    M = kernel_to_matrix(gauged, L=4.0, N=65)
    assert offdiagonal_commutator_check(split, M, band_exclude=2) < 1e-12


def test_offdiagonal_commutator_negative_control():
    # a kernel that does not solve the wave equation leaves an O(1) defect
    v = step_potential()
    split = discretize_schroedinger(v, L=4.0, N=65)
    xs = grid_points(4.0, 65)
    dx = 8.0 / 64
    M = Operator((xs[:, None] ** 2 * xs[None, :]) * dx)
    assert offdiagonal_commutator_check(split, M, band_exclude=2) > 1e-1


def test_kernel_to_matrix_antisymmetric_and_matches_closed_form():
    L, N = 4.0, 129
    M = kernel_to_matrix(particular_kernel_q1(step_potential()), L, N)
    assert np.array_equal(M.mat, -M.mat.T)  # odd under (x, y) swap, bitwise
    xs = grid_points(L, N)
    dx = 2.0 * L / (N - 1)
    exact = closed_form_step_q1(xs[:, None], xs[None, :])
    assert max_norm(M.mat / dx - exact) <= 1e-14


def test_kernel_to_matrix_quadrature_factor():
    v = step_potential()
    K = particular_kernel_q1(v)
    N = 33
    M = kernel_to_matrix(K, L=4.0, N=N)
    xs = grid_points(4.0, N)
    dx = 8.0 / (N - 1)
    i, j = 20, 5
    assert M.mat[i, j] == K(xs[i], xs[j]) * dx


def dense_schroedinger_reference(v, L, N):
    """(H0, H1) as dense complex matrices, built the way the split once stored them."""
    x = np.linspace(-L, L, N)
    dx = 2.0 * L / (N - 1)
    h0 = (
        np.diag(np.full(N, 2.0)) + np.diag(np.full(N - 1, -1.0), 1) + np.diag(np.full(N - 1, -1.0), -1)
    ) / dx**2
    return Operator(h0).mat, Operator(1j * np.diag(v(x))).mat


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("N", [16, 129, 513])
def test_grid_split_dense_forms_match_dense_construction(N):
    v = step_potential()
    split = discretize_schroedinger(v, 4.0, N, epsilon=0.1)
    h0, h1 = dense_schroedinger_reference(v, 4.0, N)
    assert np.array_equal(split.H0.mat, h0)
    assert np.array_equal(split.H1.mat, h1)
    assert np.array_equal(split.total().mat, h0 + 0.1 * h1)
    assert np.array_equal(split.at(0.37).total().mat, h0 + 0.37 * h1)
    assert split.h0_norm() == max_norm(h0)
    assert split.h1_norm() == max_norm(h1)


@pytest.mark.parametrize("N", [16, 17, 129, 513])
def test_stencil_commutator_on_q1_matrix_matches_dense_product(N):
    # When N - 1 is a power of two, so are dx and the stencil coefficients:
    # every product is exact and the stencil sums in the dense product's
    # order, so [H0, M] + 2 H1 is the dense expression bit for bit. At N = 16
    # the products round, and the dense product's fused multiply-adds leave
    # ~1e-17 where the stencil gives an exact 0.
    v = step_potential()
    split = discretize_schroedinger(v, 4.0, N)
    h0, h1 = dense_schroedinger_reference(v, 4.0, N)
    m = kernel_to_matrix(particular_kernel_q1(v), 4.0, N).mat
    got = split.h0_commutator(m) + 2.0 * split.H1.mat
    expected = h0 @ m - m @ h0 + 2 * h1
    if (N - 1) & (N - 2) == 0:
        assert np.array_equal(got, expected)
    else:
        assert max_norm(got - expected) <= 1e-15 * max_norm(h0) * max_norm(m)


@pytest.mark.parametrize("N", [16, 129, 513])
def test_grid_split_commutators_match_dense_products(N):
    v = step_potential()
    split = discretize_schroedinger(v, 4.0, N)
    h0, h1 = dense_schroedinger_reference(v, 4.0, N)
    x = random_hermitian(N, seed=N)
    assert np.array_equal(split.h1_commutator(x), h1 @ x - x @ h1)
    # not bitwise: the dense product rounds its three-term sums differently
    expected = h0 @ x - x @ h0
    assert max_norm(split.h0_commutator(x) - expected) <= 1e-15 * max_norm(expected)


def old_mask(N, band):
    """The check's kept entries, as the dense version built them."""
    i, j = np.arange(N)[:, None], np.arange(N)[None, :]
    return (np.abs(i - j) > band) & (np.minimum(i, j) > 2) & (np.maximum(i, j) < N - 3)


def grid_split(N, form):
    """The step potential's grid split, in its stencil form or as two dense matrices."""
    split = discretize_schroedinger(step_potential(), 4.0, N)
    return split if form == "stencil" else SplitHamiltonian(split.H0, split.H1, split.epsilon)


def one_shot_check(split, m, band):
    """The check as one pass over the whole of [H0, M] + 2 H1: the row blocks' reference."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(split.h0_commutator(m) + 2.0 * split.H1.mat)
    return defect[old_mask(m.shape[0], band)].max()


@pytest.mark.parametrize("N", [16, 129])
@pytest.mark.parametrize("band", [2, 5])
def test_offdiagonal_check_keeps_the_entries_off_band_and_boundary(N, band):
    # a random M is no kernel, so the defect is nonzero and the check's
    # maximum depends on which entries it keeps; at N = 129 the 123 kept rows
    # [3, 126) lie in the first four of the pass's five blocks of 32 rows
    # (the last, row 128, keeps none), and in either split form each block
    # sums its entries as the one-shot pass does
    m = random_hermitian(N, seed=band) + 0.3 * np.eye(N)
    for form in ("stencil", "dense"):
        split = grid_split(N, form)
        got = offdiagonal_commutator_check(split, Operator(m), band_exclude=band)
        assert got == one_shot_check(split, m, band), form


@pytest.mark.parametrize("band", [2, 5, 8])
def test_offdiagonal_check_mask_entry_by_entry(band):
    # H0 = diag(0, 1, ..., N-1) and H1 = 0 turn the unit matrix E_pq into the
    # defect (p - q) E_pq, so the check reads |p - q| exactly where it keeps (p, q);
    # band 8 is the widest that N = 16 allows, keeping (3, 12) and (12, 3) alone
    N = 16
    split = SplitHamiltonian(
        Operator(np.diag(np.arange(N, dtype=float))), Operator(np.zeros((N, N))), 0.1
    )
    got = np.zeros((N, N))
    for p in range(N):
        for q in range(N):
            e = np.zeros((N, N))
            e[p, q] = 1.0
            got[p, q] = offdiagonal_commutator_check(split, Operator(e), band_exclude=band)
    i, j = np.arange(N)[:, None], np.arange(N)[None, :]
    assert np.array_equal(got, np.where(old_mask(N, band), np.abs(i - j), 0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_offdiagonal_check_returns_nan_off_the_band():
    # 1e308 overflows the stencil: [H0, M] holds inf - inf = NaN at (10, 4),
    # off the band and the boundary, and the check must not fold it away
    split = discretize_schroedinger(step_potential(), 4.0, 16)
    m = np.zeros((16, 16))
    m[10, 4] = 1e308
    assert np.isnan(offdiagonal_commutator_check(split, Operator(m), band_exclude=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("form", ["stencil", "dense"])
def test_offdiagonal_check_nan_in_a_later_block(form):
    # row 110 lies in the last, partial block of N = 129: the NaN there must
    # survive the blocks before it, whose maxima are finite, and the overflow
    # raises no warning
    split = grid_split(129, form)
    m = random_hermitian(129, seed=3)
    m[110, 40] = 1e308
    assert np.isnan(one_shot_check(split, m, 2))
    assert np.isnan(offdiagonal_commutator_check(split, Operator(m), band_exclude=2))


def even_gauge_pair():
    # Re f even, Im f = -c, Im g = c: a pair with all three parts nonzero
    return HomogeneousPair(
        f=lambda t: np.cos(t) - 0.3j,
        g=lambda s: 0.5 * s**2 + 0.3j,
        c=0.3,
    )


@pytest.mark.parametrize("N", [16, 17, 33, 100, 129, 513, 2049])
def test_hankel_fill_matches_the_on_grid_fill(N):
    # the O(N) fill against the pointwise fill K(x_i, x_j) dx, for the bare
    # kernel and for kernels with a pair: when N - 1 is a power of two the
    # grid sums and differences are exact and the fills agree bit for bit;
    # elsewhere they round apart. The bare kernel's M is antisymmetric bit for
    # bit and its off-band defect is exactly 0.
    v = step_potential()
    K = particular_kernel_q1(v)
    xs = grid_points(4.0, N)
    split = discretize_schroedinger(v, 4.0, N)
    for kernel in (K, general_kernel(K, sin_gauge_pair()), general_kernel(K, even_gauge_pair())):
        m = kernel_to_matrix(kernel, 4.0, N).mat
        ref = kernel(xs[:, None], xs[None, :]) * (8.0 / (N - 1))
        if (N - 1) & (N - 2) == 0:
            assert np.array_equal(m, ref)
        else:
            assert max_norm(m - ref) <= 1e-15 * max_norm(m)
        if kernel.hom is None:
            assert np.array_equal(m, -m.T)
            assert offdiagonal_commutator_check(split, Operator(m), band_exclude=2) == 0.0


def dense_fill_reference(K, L, N):
    """M as the dense fill wrote it before the row fill: all N rows into one
    array, then the pair's Toeplitz and Hankel parts added to the whole."""
    xs = grid_points(L, N)
    dx = 2.0 * L / (N - 1)
    k = np.arange(2 * N - 1)
    sums = xs[k // 2] + xs[(k + 1) // 2]
    window = np.lib.stride_tricks.sliding_window_view
    hankel = window(np.asarray(K.profile(0.5 * sums), dtype=complex) * dx, N)
    m = np.empty((N, N), dtype=complex)
    for i in range(N):
        m[i, :i] = hankel[i, :i]
        m[i, i] = 0.0
        np.negative(hankel[i, i + 1 :], out=m[i, i + 1 :])
    if K.hom is not None:
        d = k - (N - 1)
        diffs = xs[np.maximum(d, 0)] - xs[np.maximum(-d, 0)]
        m += window(np.asarray(K.hom.f(diffs), dtype=complex)[::-1] * dx, N)[::-1]
        m += window(np.asarray(K.hom.g(sums), dtype=complex) * dx, N)
    return m


@pytest.mark.parametrize("N", [16, 17, 129, 2049])
def test_row_fill_matches_the_dense_fill_bit_for_bit(N):
    # every range the wave task reads: blocks touching row 0 and row N, one
    # around the middle row, the check's halo slabs, rows(start - 1, stop + 1)
    # of each block of 32 rows clipped to [0, N), and all N rows, which
    # kernel_to_matrix takes
    v = step_potential()
    K = particular_kernel_q1(v)
    split = discretize_schroedinger(v, 4.0, N)
    mid = N // 2
    ranges = [(0, 1), (0, min(32, N)), (N - 5, N), (N - 1, N), (mid - 4, mid + 5), (0, N), (7, 7)]
    ranges += [(max(start - 1, 0), min(start + 33, N)) for start in range(0, N, 32)]
    for kernel in (K, general_kernel(K, sin_gauge_pair()), general_kernel(K, even_gauge_pair())):
        ref = dense_fill_reference(kernel, 4.0, N)
        rows = kernel_rows(kernel, 4.0, N)
        for start, stop in ranges:
            got = rows(start, stop)
            assert got.shape == (stop - start, N) and np.array_equal(got, ref[start:stop])
        assert np.array_equal(kernel_to_matrix(kernel, 4.0, N).mat, ref)
        # the check reads the same entries from the row fill as from M
        by_rows = offdiagonal_commutator_check(split, rows, band_exclude=2)
        assert by_rows == offdiagonal_commutator_check(split, Operator(ref), band_exclude=2)
        if kernel.hom is None:
            assert by_rows == 0.0
        del ref


@pytest.mark.parametrize("N", [16, 17, 129, 513])
def test_graded_fill_is_the_imaginary_part_of_the_complex_fill(N):
    # the bare kernel's samples (i/2) V dx, and those of a pair f = i sin,
    # g = 0, are purely imaginary: the graded fill is real and holds the
    # complex fill's imaginary parts bit for bit, and |M| and the off-band
    # check read the same maxima from it, on the grid split in real
    # arithmetic and on a dense split through i times it. A pair with real
    # parts keeps the complex fill
    v = step_potential()
    K = particular_kernel_q1(v)
    split = discretize_schroedinger(v, 4.0, N)
    dense = SplitHamiltonian(split.H0, split.H1, split.epsilon)
    for kernel, imaginary in ((K, True), (general_kernel(K, sin_gauge_pair()), True),
                              (general_kernel(K, even_gauge_pair()), False)):
        full, graded = kernel_rows(kernel, 4.0, N), kernel_rows(kernel, 4.0, N, graded=True)
        for start, stop in ((0, N), (0, min(32, N)), (N // 2 - 3, N // 2 + 4)):
            want = full(start, stop)
            got = graded(start, stop)
            assert np.isrealobj(got) == imaginary
            if imaginary:
                assert not want.real.any() and np.array_equal(got, want.imag)
            else:
                assert np.array_equal(got, want)
        assert _max_norm_rows(graded, N, "M") == _max_norm_rows(full, N, "M")
        for form in (split, dense):
            expected = offdiagonal_commutator_check(form, full, band_exclude=2)
            assert offdiagonal_commutator_check(form, graded, band_exclude=2) == expected


def test_kernel_to_matrix_samples_each_part_at_2n_minus_1_points():
    # F, f and g are each evaluated on at most 2N - 1 points, never on N^2
    sizes = {"F": [], "f": [], "g": []}

    def recording(name, fn):
        return lambda z: sizes[name].append(np.size(z)) or fn(z)

    K = particular_kernel_q1(step_potential())
    pair = even_gauge_pair()
    gauged = KernelFunction(
        recording("F", K.profile),
        K.domain_box,
        HomogeneousPair(recording("f", pair.f), recording("g", pair.g), pair.c),
    )
    N = 129
    kernel_to_matrix(gauged, 4.0, N)
    assert all(sizes[name] and max(sizes[name]) <= 2 * N - 1 for name in sizes), sizes


def test_wave_fill_and_check_memory_at_n2049():
    # M would be a 67 MB complex matrix at N = 2049. The wave path never forms
    # it: the row fill holds 2N - 1 samples, |M| reduces its rows a block at
    # a time, and the check holds a few rows of M per block, not N x N arrays
    # (6.2 MB for the whole path and 6.1 MB for the check, measured)
    N = 2049
    v = step_potential()
    split = discretize_schroedinger(v, 4.0, N)
    K = particular_kernel_q1(v)
    tracemalloc.start()
    try:
        rows = kernel_rows(K, 4.0, N)
        assert _max_norm_rows(rows, N, "M") == 1.953125e-3
        _, norm_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        assert offdiagonal_commutator_check(split, rows, band_exclude=2) == 0.0
        _, check_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(norm_peak, check_peak) < 16_000_000
    assert check_peak - held < 16_000_000


def test_discretize_schroedinger_allocates_no_dense_matrix():
    # a dense complex 2049 x 2049 matrix is 67 MB; the grid split is O(N)
    v = step_potential()
    tracemalloc.start()
    try:
        discretize_schroedinger(v, 4.0, 2049)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def step_q1():
    return particular_kernel_q1(step_potential())


# each raise site as (call, error class, message); none is on a run's path
ERROR_SITES = {
    "empty_breakpoints": (
        lambda: PiecewisePotential(np.array([]), np.array([0.0])),
        DomainError, "breakpoints must be a non-empty 1-D sequence"),
    "2d_breakpoints": (
        lambda: PiecewisePotential(np.array([[-1.0, 1.0]]), np.array([0.0, 1.0, 0.0])),
        DomainError, "breakpoints must be a non-empty 1-D sequence"),
    # M of 40 points on a 33-point grid: the check read 0.0 from the matrix
    # and from the fill, and a 33-point fill on a 40-point grid raised
    # IndexError from inside the fill; a dense split's matmul raised ValueError
    "offdiagonal_shape_matrix": (
        lambda: offdiagonal_commutator_check(
            grid_split(33, "stencil"), kernel_to_matrix(step_q1(), 4.0, 40), 2),
        ShapeError, r"dimension mismatch: X is \(40, 40\), H0 \(33, 33\)"),
    "offdiagonal_shape_wide_fill": (
        lambda: offdiagonal_commutator_check(
            grid_split(33, "stencil"), kernel_rows(step_q1(), 4.0, 40), 2),
        ShapeError, r"dimension mismatch: X is \(33, 40\), H0 \(33, 33\)"),
    "offdiagonal_shape_narrow_fill": (
        lambda: offdiagonal_commutator_check(
            grid_split(40, "stencil"), kernel_rows(step_q1(), 4.0, 33), 2),
        ShapeError, r"dimension mismatch: X is \(40, 33\), H0 \(40, 40\)"),
    "offdiagonal_shape_dense_split": (
        lambda: offdiagonal_commutator_check(
            grid_split(33, "dense"), kernel_rows(step_q1(), 4.0, 40, graded=True), 2),
        ShapeError, r"dimension mismatch: X is \(33, 40\), H0 \(33, 33\)"),
    # no entry lies off the band and inside [3, N - 3) when N < band_exclude + 8:
    # the check returned 0.0 for any M
    "offdiagonal_no_entry_grid_split": (
        lambda: offdiagonal_commutator_check(
            grid_split(16, "stencil"), Operator(random_hermitian(16, seed=0)), 9),
        DomainError, r"no entry of an N = 16 split lies off the band \|i - j\| <= 9"),
    "offdiagonal_no_entry_dense_split": (
        lambda: offdiagonal_commutator_check(
            SplitHamiltonian(Operator(np.diag(np.arange(6.0))), Operator(np.zeros((6, 6))), 0.1),
            Operator(random_hermitian(6, seed=0)), 2),
        DomainError, r"no entry of an N = 6 split lies off the band \|i - j\| <= 2"),
}


@pytest.mark.parametrize("case", sorted(ERROR_SITES))
def test_wavekernel_raise_sites(case):
    call, error, message = ERROR_SITES[case]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("form", ["stencil", "dense"])
@pytest.mark.parametrize("band", [2, 5])
def test_offdiagonal_check_does_not_read_h1(form, band):
    # H1 = i diag(v) lies inside the band, so the check reads [H0, M] alone:
    # the step's v, v = 0 and eps = 0 give one value, bit for bit, for a
    # random M (no kernel, so the value is not 0) and for the kernel's fill
    N = 129
    flat = PiecewisePotential(np.array([-1.0, 1.0]), np.zeros(3))
    splits = [discretize_schroedinger(step_potential(), 4.0, N),
              discretize_schroedinger(flat, 4.0, N),
              discretize_schroedinger(step_potential(), 4.0, N, epsilon=0.0)]
    if form == "dense":
        splits = [SplitHamiltonian(s.H0, s.H1, s.epsilon) for s in splits]
    m = Operator(random_hermitian(N, seed=band))
    rows = kernel_rows(particular_kernel_q1(step_potential()), 4.0, N, graded=True)
    for M in (m, rows):
        got = [offdiagonal_commutator_check(s, M, band_exclude=band) for s in splits]
        assert got[0] == got[1] == got[2]
    assert got[0] == 0.0 and offdiagonal_commutator_check(splits[0], m, band) > 1.0
