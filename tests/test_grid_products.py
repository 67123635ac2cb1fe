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
from pseudoherm.errors import NonFiniteError
from pseudoherm.operators import (
    DEFAULT_TOL,
    IndexReversal,
    commutator,
    from_pt_frame_columns,
    pt_frame,
)
from pseudoherm.perturbation import _graded_commutator, _sylvester_eigenbasis, order_equation_rhs
from pseudoherm.spectral import (
    _equivalent_hermitian,
    _frame,
    parity_pseudo_hermiticity_residual,
)
from pseudoherm.wavekernel import step_potential

from helpers import fixed_split, reference_phases, toy_2x2

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


def phi_phi_dagger_metric(h):
    """The spectral metric as it was built before the frame factors: the frame
    eig's complex eigenvectors psi = S v, gauge-fixed, phi = inv(psi)^dagger and
    eta = phi phi^dagger."""
    w, v = np.linalg.eig(pt_frame(h))
    v = from_pt_frame_columns(v)
    order = np.lexsort((np.arange(w.size), w.imag, w.real))
    v = v[:, order] / np.linalg.norm(v[:, order], axis=0)
    phi = np.linalg.inv(v / reference_phases(v)).conj().T
    eta = phi @ phi.conj().T
    return MetricOperator(Operator((eta + eta.conj().T) / 2), Provenance("spectral"))


@pytest.mark.parametrize("N", [129, 513])
def test_pipeline_norms_are_bitwise_dense_where_the_stencil_is_exact(N):
    # N - 1 a power of two: on the phi phi^dagger metric and the perturbative
    # metrics, the residuals and [C, H] read as the dense products read them,
    # bit for bit. On the metric formed from the frame factors they agree
    # within rounding of |H| |eta| (at N = 129 they differ in the last bits).
    split = grid_split(N)
    H = split.total()
    eta = phi_phi_dagger_metric(H.mat)
    assert pseudo_hermiticity_residual(split, eta) == pseudo_hermiticity_residual(H, eta)
    assert c_operator(eta, dense_flip(N), split)[1] == c_operator(eta, dense_flip(N), H)[1]
    eta = spectral_metric(biorthonormal_eigensystem(H))
    rounding = 8 * EPS * max_norm(H.mat) * max_norm(eta.mat)
    residuals = pseudo_hermiticity_residual(split, eta), pseudo_hermiticity_residual(H, eta)
    assert abs(residuals[0] - residuals[1]) <= rounding
    c_norm = max_norm(c_operator(eta, dense_flip(N))[0].mat)
    assert abs(c_operator(eta, dense_flip(N), split)[1] - c_operator(eta, dense_flip(N), H)[1]) <= (
        8 * EPS * max_norm(H.mat) * c_norm
    )
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
    assert linalg_counter["solve"] == 0  # no solve on the frame path
    # the same eta without its eigensystem: the complex solve
    c_solve, _, invol_solve = c_operator(MetricOperator(eta.op, eta.provenance), IndexReversal(N))
    assert linalg_counter.dtypes["solve"] == [np.dtype(complex)]
    c_ref, comm_ref, invol_ref = c_operator(eta, dense_flip(N), H)
    cond = eta.eig_range[1] / eta.eig_range[0]
    for got, got_invol in ((c, invol), (c_solve, invol_solve)):
        assert max_norm(got.mat - c_ref.mat) <= 64 * N * EPS * cond * max_norm(c_ref.mat)
        assert abs(got_invol - invol_ref) <= 64 * N * EPS * cond * max_norm(c_ref.mat) ** 2
    assert comm <= 1e-8 * max_norm(H.mat) and comm_ref <= 1e-8 * max_norm(H.mat)


@pytest.mark.parametrize("N", [16, 129])
def test_perturbative_metric_carries_its_eigensystem(N, linalg_counter):
    # the eigh of Q(eps) runs in the frame on the grid and in complex arithmetic
    # on fixed_split; either way eta's eigensystem reproduces eta and gives its
    # eig_range, and on the grid C = eta^-1 J needs no solve and no eigh
    for split, in_frame in ((grid_split(N), True), (fixed_split(N, seed=3), False)):
        eta = metric_from_series(solve_q_series(split, 2), split.epsilon)
        lam, u, frame = eta.eigensystem
        assert frame is in_frame
        basis = from_pt_frame_columns(u) / np.sqrt(2) if frame else u  # S u in the frame
        ref = (basis * lam) @ basis.conj().T
        assert max_norm(eta.mat - ref) <= 64 * N * EPS * max_norm(ref)
        w = np.linalg.eigvalsh(eta.mat)
        assert np.allclose(eta.eig_range, (w[0], w[-1]), rtol=64 * N * EPS, atol=0)
        linalg_counter.clear()
        linalg_counter.dtypes.clear()
        c, _, invol = c_operator(eta, IndexReversal(N), split)
        assert (linalg_counter["solve"], linalg_counter["eigh"]) == (0 if in_frame else 1, 0)
        # the complex solve on the same eta without its eigensystem, and on a dense J
        c_solve, _, invol_solve = c_operator(MetricOperator(eta.op, eta.provenance), IndexReversal(N))
        c_ref, _, invol_ref = c_operator(eta, dense_flip(N), split)
        cond = eta.eig_range[1] / eta.eig_range[0]
        for got, got_invol in ((c, invol), (c_solve, invol_solve)):
            assert max_norm(got.mat - c_ref.mat) <= 64 * N * EPS * cond * max_norm(c_ref.mat)
            assert abs(got_invol - invol_ref) <= 64 * N * EPS * cond * max_norm(c_ref.mat) ** 2


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


def rule_edge_splits(N):
    """Tridiagonal splits on both sides of pt_frame's rule, in both forms.

    The step grid's split; an odd v, odd only to rounding (linspace's points
    are symmetric only to rounding), at epsilon > 0, < 0 and 0, alone and
    with noise of growing size added; an even v, which has a frame only at
    epsilon = 0; and an odd v whose frame matrix overflows on the
    anti-diagonal next to off = 1.5e308 (even N).
    """
    rng = np.random.default_rng(N)
    x = np.linspace(-1.0, 1.0, N)
    odd = np.sin(3 * x) + x**3
    diag, off = rng.uniform(0.5, 2.0), rng.uniform(-1.0, -0.1)
    splits = [grid_split(N)]
    for eps in (0.1, -0.37, 0.0):
        splits.append(SplitHamiltonian.tridiagonal(diag, off, odd, eps))
        for noise in (1e-15, 1e-12, 1e-9, 1e-6):
            v = odd + noise * rng.standard_normal(N)
            splits.append(SplitHamiltonian.tridiagonal(diag, off, v, eps))
        splits.append(SplitHamiltonian.tridiagonal(diag, off, np.abs(x), eps))
    splits.append(SplitHamiltonian.tridiagonal(0.0, 1.5e308, 1e308 * np.sign(x), 0.9))
    return [s for split in splits for s in (split, SplitHamiltonian(split.H0, split.H1, split.epsilon))]


@pytest.mark.parametrize("N", [16, 128, 129])
def test_frame_is_pt_frame_of_the_dense_h_bit_for_bit(N):
    # the split's frame matrix, built from its O(N) data, is the one pt_frame
    # takes of the dense H, bit for bit, and both are None together; the
    # spectral helper asks the split itself, and an Operator's is pt_frame's
    outcomes = set()
    for split in rule_edge_splits(N):
        expected = pt_frame(split.total().mat)
        for got in (split.frame(), _frame(split), _frame(split.total())):
            if expected is None:
                assert got is None
            else:
                assert got.dtype == float and np.array_equal(got, expected)
        outcomes.add((split.is_stencil, expected is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("N", [16, 128, 129])
def test_norm_is_the_max_norm_of_the_dense_h_bit_for_bit(N):
    for split in rule_edge_splits(N):
        assert split.norm() == max_norm(split.total().mat)
    # where max_norm raises on the dense H, norm() raises too, and so do
    # pt_frame and frame(), which bound the PT-odd part by it: here
    # |diag + i eps v| overflows with every entry finite
    v = np.linspace(-1.0, 1.0, N)
    for eps in (1.5e308, -1.5e308):
        split = SplitHamiltonian.tridiagonal(1.5e308, 1.0, v, eps)
        with pytest.raises(NonFiniteError):
            max_norm(split.total().mat)
        with pytest.raises(NonFiniteError):
            pt_frame(split.total().mat)
        for H in (split, SplitHamiltonian(split.H0, split.H1, split.epsilon)):
            for method in (H.norm, H.frame):
                with pytest.raises(NonFiniteError):
                    method()
    # eps v overflows itself: the dense H cannot be built, and norm() raises
    with np.errstate(over="ignore"):
        split = SplitHamiltonian.tridiagonal(1.0, 1.0, 1e300 * v, 1e300)
        for method in (split.total, split.norm, split.frame):
            with pytest.raises(NonFiniteError):
                method()


@pytest.mark.parametrize("N", [16, 129])
def test_split_eigensystem_is_the_operators(N):
    # the eig runs on the split's own frame matrix, or off the frame on its
    # dense H: the system is the Operator's, bit for bit. The odd v at this
    # stencil is in a broken PT phase, which leaves the frame after its eig
    x = np.linspace(-1.0, 1.0, N)
    odd = SplitHamiltonian.tridiagonal(2.0, -1.0, np.sin(3 * x), 0.1)
    even = SplitHamiltonian.tridiagonal(2.0, -1.0, np.abs(x), 0.1)
    for H, has_frame, in_frame in ((grid_split(N), True, True), (odd, True, False),
                                   (even, False, False)):
        assert (H.frame() is not None) is has_frame
        got, expected = biorthonormal_eigensystem(H), biorthonormal_eigensystem(H.total())
        assert got.in_frame is expected.in_frame is in_frame
        assert np.array_equal(got.eigenvalues, expected.eigenvalues)
        assert all(np.array_equal(a, b) for a, b in zip(got.factors, expected.factors))


def test_equivalent_hermitian_of_the_split_matches_the_operator():
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
        q = _sylvester_eigenbasis((e, u), r, max_norm(r), DEFAULT_TOL).mat
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
    q = _sylvester_eigenbasis((e, u), r, max_norm(r), DEFAULT_TOL).mat
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
    # a metric that carries its eigensystem: the singular test reads its range
    split = grid_split(16)
    q, _ = np.linalg.qr(random_hermitian(16, seed=3) + 1j * np.eye(16))
    lam = np.linspace(1.0, 2.0, 16)
    eta = MetricOperator(Operator((q * lam) @ q.conj().T), Provenance("user"), (lam, q, False))
    assert eta.eig_range == (1.0, 2.0)
    pseudo_hermiticity_residual(split, eta)
    assert linalg_counter["svd"] == 0
