"""Products with the grid H and the grid reflection J, against the dense formulas.

The dense formulas are kept here as the reference: H^dagger X - X H, [H, X]
and X H with H = split.total(), and C = solve(eta, P) with a dense P. On the
Schroedinger grid the stencil coefficients 2/dx^2 and -1/dx^2 are powers of
two where N - 1 is one (L = 4), so the stencil's products are exact there.
"""

import numpy as np
import pytest

from pseudoherm import (
    MetricOperator,
    Operator,
    Provenance,
    SplitHamiltonian,
    biorthonormal_eigensystem,
    c_operator,
    discretize_schroedinger,
    max_norm,
    metric_from_series,
    pseudo_hermiticity_residual,
    solve_q_series,
    spectral_metric,
)
from pseudoherm.operators import DEFAULT_TOL, IndexReversal, commutator
from pseudoherm.perturbation import _graded_commutator, _sylvester_eigenbasis, order_equation_rhs
from pseudoherm.spectral import _equivalent_hermitian, parity_pseudo_hermiticity_residual
from pseudoherm.wavekernel import step_potential

from helpers import fixed_split, toy_2x2

EPS = np.finfo(float).eps


def grid_split(N, form="stencil"):
    """The step potential's grid split at eps = 0.1, as a stencil or as two dense matrices."""
    split = discretize_schroedinger(step_potential(), 4.0, N, epsilon=0.1)
    return split if form == "stencil" else SplitHamiltonian(split.H0, split.H1, split.epsilon)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_metric(n, seed):
    """A Hermitian positive-definite matrix with eigenvalues in [1, 2]."""
    q, _ = np.linalg.qr(random_hermitian(n, seed) + 1j * np.eye(n))
    return (q * np.linspace(1.0, 2.0, n)) @ q.conj().T


def dense_flip(n):
    """The index reversal J as a dense Operator, as the pipeline once built it."""
    return Operator(np.eye(n)[::-1].copy())


@pytest.mark.parametrize("form", ["stencil", "dense"])
@pytest.mark.parametrize("N", [16, 129, 513])
def test_structured_products_match_dense_formula(N, form):
    split = grid_split(N, form)
    h = split.total().mat
    x = random_hermitian(N, seed=N)
    rounding = 8 * EPS * max_norm(h) * max_norm(x)
    for got, expected in (
        (split.adjoint_residual(x), h.conj().T @ x - x @ h),
        (split.total_commutator(x), h @ x - x @ h),
        (split.right_multiply(x), x @ h),
    ):
        assert max_norm(got - expected) <= rounding
    # a row block is those rows of the whole, bit for bit
    assert np.array_equal(split.adjoint_residual(x, 5, 13), split.adjoint_residual(x)[5:13])
    assert np.array_equal(split.total_commutator(x, 5, 13), split.total_commutator(x)[5:13])


@pytest.mark.parametrize("N", [16, 129, 513])
def test_residual_and_commutator_norms_match_dense_formula(N):
    # the max-norms the checks reduce in row blocks, on a metric with no
    # structure: within rounding of |H| |X| (at N = 129 this one differs in
    # its last bit)
    split = grid_split(N)
    h = split.total().mat
    eta = random_metric(N, seed=N)
    rounding = 8 * EPS * max_norm(h) * max_norm(eta)
    got = pseudo_hermiticity_residual(split, eta)
    assert abs(got - max_norm(h.conj().T @ eta - eta @ h)) <= rounding
    got = c_operator(eta, dense_flip(N), split)[1]
    assert abs(got - c_operator(eta, dense_flip(N), Operator(h))[1]) <= rounding


@pytest.mark.parametrize("N", [129, 513])
def test_pipeline_norms_are_bitwise_dense_where_the_stencil_is_exact(N):
    # N - 1 a power of two: on the metrics the pipeline builds, the residuals
    # and [C, H] read as the dense products read them, bit for bit
    split = grid_split(N)
    H = split.total()
    eta = spectral_metric(biorthonormal_eigensystem(H))
    assert pseudo_hermiticity_residual(split, eta) == pseudo_hermiticity_residual(H, eta)
    assert c_operator(eta, dense_flip(N), split)[1] == c_operator(eta, dense_flip(N), H)[1]
    q = solve_q_series(split, 2)
    for e in (0.1, 0.0125):
        eta = metric_from_series(q, e)
        assert pseudo_hermiticity_residual(split.at(e), eta) == pseudo_hermiticity_residual(
            split.at(e).total(), eta
        )


def test_at_shares_the_split_data():
    split = grid_split(16)
    other = split.at(0.5)
    assert (other.epsilon, split.epsilon) == (0.5, 0.1)
    assert other.is_stencil and np.array_equal(other.total().mat, split.H0.mat + 0.5 * split.H1.mat)
    dense = grid_split(16, "dense").at(0.5)
    assert not dense.is_stencil and np.array_equal(dense.total().mat, split.H0.mat + 0.5 * split.H1.mat)


def test_dense_split_residual_keeps_the_dense_products():
    # a split_matrix model's residual is today's two dense products, bit for bit
    split = fixed_split(8, seed=3)
    eta = random_metric(8, seed=1)
    for e in (0.1, 0.05):
        h = split.at(e).total().mat
        assert pseudo_hermiticity_residual(split.at(e), eta) == max_norm(h.conj().T @ eta - eta @ h)


@pytest.mark.parametrize("N", [16, 129, 513])
def test_parity_residual_flips_equal_the_products(N):
    # products with a permutation are exact, so the flips agree bit for bit
    for h in (grid_split(N).total(), Operator(random_hermitian(N, seed=N) + 0.5j * np.eye(N))):
        got = parity_pseudo_hermiticity_residual(h, IndexReversal(N))
        assert got == parity_pseudo_hermiticity_residual(h, dense_flip(N))
    assert parity_pseudo_hermiticity_residual(grid_split(N).total(), IndexReversal(N)) == 0.0


def test_index_reversal_is_the_dense_flip():
    j = IndexReversal(5)
    assert np.array_equal(j.mat, dense_flip(5).mat) and j.norm() == 1.0


@pytest.mark.parametrize("N", [16, 129])
def test_c_operator_in_the_frame_matches_the_complex_solve(N, linalg_counter):
    split = grid_split(N)
    H = split.total()
    eta = spectral_metric(biorthonormal_eigensystem(H))
    linalg_counter.clear()
    linalg_counter.dtypes.clear()
    c, comm, invol = c_operator(eta, IndexReversal(N), split)
    c_ref, comm_ref, invol_ref = c_operator(eta, dense_flip(N), H)
    assert linalg_counter.dtypes["solve"] == [np.dtype(float), np.dtype(complex)]
    cond = eta.eig_range[1] / eta.eig_range[0]
    assert max_norm(c.mat - c_ref.mat) <= 64 * N * EPS * cond * max_norm(c_ref.mat)
    assert abs(invol - invol_ref) <= 64 * N * EPS * cond * max_norm(c_ref.mat) ** 2
    assert comm <= 1e-8 * max_norm(H.mat) and comm_ref <= 1e-8 * max_norm(H.mat)


def old_c_operator(e, p, h):
    """c_operator's complex path as it was written before the frame solve."""
    c = np.linalg.solve(e, p)
    return c, max_norm(c @ h - h @ c), max_norm(c @ c - np.eye(c.shape[0]))


def test_explicit_parity_and_frameless_eta_keep_the_complex_solve(linalg_counter):
    h, p = toy_2x2()
    eta = spectral_metric(biorthonormal_eigensystem(h))
    n = 12
    e_noframe = random_metric(n, seed=4)  # no PT symmetry: no frame
    h_noframe = Operator(random_hermitian(n, seed=5))
    linalg_counter.clear()
    linalg_counter.dtypes.clear()
    for args, (e, pm, hm) in (
        ((eta, p, h), (eta.mat, p.mat, h.mat)),
        ((e_noframe, IndexReversal(n), h_noframe), (e_noframe, dense_flip(n).mat, h_noframe.mat)),
    ):
        c, comm, invol = c_operator(*args)
        c_ref, comm_ref, invol_ref = old_c_operator(e, pm, hm)
        assert np.array_equal(c.mat, c_ref) and (comm, invol) == (comm_ref, invol_ref)
    assert linalg_counter.complex_calls("solve") == linalg_counter["solve"] == 4


def test_equivalent_hermitian_column_stencil_matches_the_product():
    split = grid_split(129)
    H = split.total()
    eta = spectral_metric(biorthonormal_eigensystem(H))
    h, rho = _equivalent_hermitian(split, eta, 0.0, 1.0, DEFAULT_TOL)
    h_ref, _ = _equivalent_hermitian(H, eta, 0.0, 1.0, DEFAULT_TOL)
    assert max_norm(h.mat - h_ref.mat) <= 1e-12 * max_norm(h_ref.mat)


def old_sylvester_eigenbasis(e, u, r, tol):
    """_sylvester_eigenbasis's complex transforms as they were written before the real path."""
    rt = u.conj().T @ r @ u
    gaps = e[:, None] - e[None, :]
    degenerate = np.abs(gaps) <= tol.abs_tol
    qt = np.where(degenerate, 0.0, rt / np.where(degenerate, 1.0, gaps))
    qm = u @ qt @ u.conj().T
    return (qm + qm.conj().T) / 2


def test_real_sylvester_transforms_match_the_complex_ones():
    split = grid_split(129)
    e, u = np.linalg.eigh(split.H0.mat.real)
    r1 = order_equation_rhs(split, None, 1).mat  # -2 H1: purely imaginary
    # a real and a mixed source, both anti-Hermitian with a zero diagonal in
    # H0's eigenbasis (the Fredholm condition)
    k = np.random.default_rng(6).standard_normal((129, 129))
    np.fill_diagonal(k, 0.0)
    real = u @ (k - k.T) @ u.T + 0j
    for r, graded in ((r1, True), (real, True), (real + 1j * (u @ (k + k.T) @ u.T), False)):
        q = _sylvester_eigenbasis((e, u), r, DEFAULT_TOL).mat
        expected = old_sylvester_eigenbasis(e, u, r, DEFAULT_TOL)
        if graded:
            assert not (q.real.any() and q.imag.any())
            assert max_norm(q - expected) <= 1e-13 * max_norm(expected)
        else:
            assert np.array_equal(q, expected)


def test_complex_h0_keeps_the_complex_sylvester_transforms():
    split = fixed_split(8, seed=3)
    e, u = np.linalg.eigh(split.H0.mat)
    r = order_equation_rhs(split, None, 1).mat
    q = _sylvester_eigenbasis((e, u), r, DEFAULT_TOL).mat
    assert np.array_equal(q, old_sylvester_eigenbasis(e, u, r, DEFAULT_TOL))


def test_graded_commutator_matches_the_complex_one():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 40, 40))
    for x, q in ((1j * a, 1j * b), (1j * a, b + 0j), (a + 0j, b + 0j)):
        got = _graded_commutator(x, q)
        expected = commutator(x, q)
        assert max_norm(got - expected) <= 1e-14 * max_norm(expected)
        # the product of the phases leaves the result graded
        assert not (got.real.any() and got.imag.any())
    mixed = a + 1j * b
    assert np.array_equal(_graded_commutator(mixed, 1j * a), commutator(mixed, 1j * a))


def test_metric_operator_residual_needs_no_svd(linalg_counter):
    split = grid_split(16)
    eta = MetricOperator(Operator(random_metric(16, seed=3)), Provenance("user"), (1.0, 2.0))
    pseudo_hermiticity_residual(split, eta)
    assert linalg_counter["svd"] == 0
