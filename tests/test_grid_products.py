"""Products with the grid H and the grid reflection J, against the dense formulas.

The dense formulas are kept here as the reference: H^dagger X - X H, [H, X]
and X H with H = split.total(), and C = solve(eta, P) with a dense P. On the
Schroedinger grid the stencil coefficients 2/dx^2 and -1/dx^2 are powers of
two where N - 1 is one (L = 4), so the stencil's products are exact there.
"""

import math

import numpy as np
import pytest

from pseudoherm import (
    MetricOperator,
    Operator,
    QSeries,
    SplitHamiltonian,
    biorthonormal_eigensystem,
    c_operator,
    discretize_schroedinger,
    max_norm,
    metric_from_series,
    pseudo_hermiticity_residual,
    random_admissible_split,
    solve_q_series,
    spectral_metric,
    sylvester_solve,
)
from pseudoherm import perturbation, spectral
from pseudoherm.errors import NonFiniteError
from pseudoherm.operators import (
    DEFAULT_TOL,
    IndexReversal,
    from_pt_frame_columns,
    pt_frame,
)
from pseudoherm.perturbation import order_equation_rhs, order_residual
from pseudoherm.spectral import (
    _equivalent_hermitian,
    _frame,
    parity_pseudo_hermiticity_residual,
    pseudo_hermiticity_threshold,
)
from pseudoherm.wavekernel import step_potential

from helpers import commuting_gauge, fixed_split, formed_vectors, reference_phases, toy_2x2

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


def gathered(blocks):
    """The rows of a pass's blocks (start, stop, rows) as one array, each block copied as it comes."""
    return np.concatenate([rows.copy() for _, _, rows in blocks])


@pytest.mark.parametrize("form", ["stencil", "dense"])
@pytest.mark.parametrize("N", [16, 129, 513])
def test_structured_products_match_dense_formula(N, form):
    split = grid_split(N, form)
    h = split.total().mat
    x = random_hermitian(N, seed=N)
    rounding = 8 * EPS * max_norm(h) * max_norm(x)
    for got, expected in (
        (gathered(split.adjoint_residual(x)), h.conj().T @ x - x @ h),
        (gathered(split.total_commutator(x)), h @ x - x @ h),
    ):
        assert max_norm(got - expected) <= rounding


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
    return MetricOperator(Operator((eta + eta.conj().T) / 2))


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


def parity_flips(h):
    """max_norm(H^dagger J - J H) as flips of the dense H, as the residual once took it."""
    return max_norm(h.conj().T[:, ::-1] - h[::-1])


@pytest.mark.parametrize("N", [16, 17, 128, 129, 300, 513])
def test_parity_residual_flips_equal_the_products(N, monkeypatch):
    # H0 is persymmetric, so H^dagger J - J H is the anti-diagonal
    # -i eps (v_i + v_{N-1-i}): read off v, on the step grid (where it is 0)
    # and on random stencils, it is the flips of the dense H bit for bit,
    # and nothing builds the dense H. Products with a permutation are exact,
    # so an Operator's residual is the flips too, with J held as its size or
    # dense
    rng = np.random.default_rng(N)
    splits = [grid_split(N)] + [
        SplitHamiltonian.tridiagonal(rng.uniform(0.5, 2.0), rng.uniform(-1.0, -0.1), rng.standard_normal(N), eps)
        for eps in (0.3, -1.7)
    ]
    expected = [parity_flips(split.total().mat) for split in splits]
    assert expected[0] == 0.0 and min(expected[1:]) > 0.0
    x = random_hermitian(N, seed=N) + 0.5j * np.eye(N)
    for P in (IndexReversal(N), dense_flip(N)):
        assert parity_pseudo_hermiticity_residual(Operator(x), P) == parity_flips(x)
        assert parity_pseudo_hermiticity_residual(Operator(splits[1].total().mat), P) == expected[1]
    monkeypatch.setattr(SplitHamiltonian, "total", None)  # no dense H from here on
    assert [parity_pseudo_hermiticity_residual(split, IndexReversal(N)) for split in splits] == expected


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
    c_solve, _, invol_solve = c_operator(MetricOperator(eta.op), IndexReversal(N))
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
        c_solve, _, invol_solve = c_operator(MetricOperator(eta.op), IndexReversal(N))
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


def real_heads(monkeypatch):
    """The list of the A that SplitHamiltonian.h1_commutator_real is called on, from now on."""
    calls = []
    real_head = SplitHamiltonian.h1_commutator_real
    monkeypatch.setattr(SplitHamiltonian, "h1_commutator_real",
                        lambda self, a: calls.append(a) or real_head(self, a))
    return calls


def test_public_order_functions_take_any_series_on_the_complex_route(monkeypatch):
    # order_residual and order_equation_rhs run the complex chain sum on the
    # Q_j of q.terms, whatever form the series holds them in: solve_q_series's
    # real-mode series and its terms as Operators give the same operators bit
    # for bit, and no call takes the real H1 head
    split = grid_split(129)
    solved = [solve_q_series(split, m) for m in (1, 2, 3)]
    calls = real_heads(monkeypatch)
    for m, series in enumerate(solved, start=1):
        as_operators = QSeries(series.terms)
        assert series._real and not as_operators._real
        assert np.array_equal(order_residual(split, series, m).mat,
                              order_residual(split, as_operators, m).mat)
        assert np.array_equal(order_equation_rhs(split, series, m + 1).mat,
                              order_equation_rhs(split, as_operators, m + 1).mat)
    assert calls == []


def test_row_block_checks_name_the_overflowed_rows():
    # with the stencil's neighbour coefficient at 1e308, the residual and
    # [C, H] of a large diagonal eta overflow in their first row block, and
    # the errors name the quantity and the block's rows
    N = 40
    split = SplitHamiltonian.tridiagonal(1.0, 1e308, np.zeros(N), 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"^max-norm of H\^dagger eta - eta H, rows 0:32 of 40, is "):
            pseudo_hermiticity_residual(split, 2.0 * np.eye(N))
        with pytest.raises(NonFiniteError, match=r"^max-norm of \[C, H\], rows 0:32 of 40, is "):
            c_operator(0.25 * np.eye(N), IndexReversal(N), split)


def odd_sine_split(N):
    """sin(3x) on the unit stencil: a PT-symmetric split in a broken PT phase at eps = 0.1."""
    x = np.linspace(-1.0, 1.0, N)
    return SplitHamiltonian.tridiagonal(2.0, -1.0, np.sin(3 * x), 0.1)


def smooth_odd_split(N, epsilon):
    """The smooth odd v = x exp(-x^2) on the step grid's points and stencil (L = 4)."""
    x = np.linspace(-4.0, 4.0, N)
    dx = 8.0 / (N - 1)
    return SplitHamiltonian.tridiagonal(2.0 / dx**2, -1.0 / dx**2, x * np.exp(-x * x), epsilon)


def assert_same_system(got, expected):
    """got is expected bit for bit: eigenvalues, factors, frame flag and both defects."""
    assert got.in_frame is expected.in_frame
    assert np.array_equal(got.eigenvalues, expected.eigenvalues)
    assert all(np.array_equal(a, b) for a, b in zip(got.factors, expected.factors))
    assert got.gram_defect == expected.gram_defect
    assert got.completeness_defect == expected.completeness_defect


def assert_grid_system_matches(got, expected, H):
    """got, from the O(N^2) route, against eig's system expected for the same H, to rounding.

    The eigenvalues agree within 4 N eps |H|. The eigenvectors' rounding is
    eps |H| over the smallest gap, and eta's is that times cond(W)^2: the
    frame metric, relative to its largest entry, and the phase-fixed psi and
    phi, relative to their largest column norm, agree within 16 times it.
    Over UNBROKEN_GRIDS the eigenvalue, metric and vector differences read at
    most 1.2, 1.25 and 2.7 times their unit bounds.
    """
    n, e_ref = expected.eigenvalues.size, expected.eigenvalues
    assert got.in_frame and expected.in_frame
    assert np.abs(got.eigenvalues - e_ref).max() <= 4 * n * EPS * H.norm()
    sv = expected.factors[1]
    scale = 16 * EPS * H.norm() / np.diff(e_ref.real).min() * (sv[0] / sv[-1]) ** 2
    y, y_ref = spectral_metric(got).frame, spectral_metric(expected).frame
    assert np.abs(y - y_ref).max() <= scale * np.abs(y_ref).max()
    for a, b in zip(formed_vectors(got), formed_vectors(expected)):
        assert np.abs(a - b).max() <= scale * np.linalg.norm(b, axis=0).max()


@pytest.mark.parametrize("N", [16, 129])
def test_split_eigensystem_is_the_operators(N):
    # off the O(N^2) route the eig runs on the split's own frame matrix, or
    # off the frame on its dense H: the system is the Operator's, bit for
    # bit. The odd v at this stencil is in a broken PT phase, which refuses
    # the O(N^2) route and leaves the frame after its eig; the even v has no
    # frame. The step grid is in the unbroken phase: its O(N^2) system is
    # the Operator's eig system to rounding (assert_grid_system_matches)
    odd = odd_sine_split(N)
    even = SplitHamiltonian.tridiagonal(2.0, -1.0, np.abs(np.linspace(-1.0, 1.0, N)), 0.1)
    for H, has_frame, in_frame in ((odd, True, False), (even, False, False)):
        assert (H.frame() is not None) is has_frame
        got, expected = biorthonormal_eigensystem(H), biorthonormal_eigensystem(H.total())
        assert got.in_frame is in_frame
        assert_same_system(got, expected)
    H = grid_split(N)
    assert_grid_system_matches(biorthonormal_eigensystem(H), biorthonormal_eigensystem(H.total()), H)


# every case is in the unbroken PT phase; the step grid at N = 16 breaks
# before eps = 1 (max|Im E| = 0.049 there), so it is a fallback case below
UNBROKEN_GRIDS = [("step", N, eps) for N in (16, 129, 513) for eps in (0.1, 0.5, 1.0)
                  if (N, eps) != (16, 1.0)]
UNBROKEN_GRIDS += [("smooth", N, eps) for N in (16, 129, 513) for eps in (0.1, 0.5, 1.0)]


@pytest.mark.parametrize("potential, N, epsilon", UNBROKEN_GRIDS)
def test_grid_eigensystem_needs_no_eig_and_matches_it(potential, N, epsilon, linalg_counter):
    # the O(N^2) eigenpairs and one real eigh of the frame metric, with no
    # eig and no svd: eig's system to rounding, in the (Re E, Im E, index)
    # order, every E real and strictly ascending
    H = (discretize_schroedinger(step_potential(), 4.0, N, epsilon) if potential == "step"
         else smooth_odd_split(N, epsilon))
    got = biorthonormal_eigensystem(H)
    assert dict(linalg_counter) == {"eigh": 1} and linalg_counter.dtypes["eigh"] == [np.dtype(float)]
    e = got.eigenvalues
    assert not e.imag.any() and np.all(np.diff(e.real) > 0)
    assert np.array_equal(np.lexsort((np.arange(N), e.imag, e.real)), np.arange(N))
    assert_grid_system_matches(got, biorthonormal_eigensystem(H.total()), H)


@pytest.mark.parametrize("H", [
    odd_sine_split(129),
    discretize_schroedinger(step_potential(), 4.0, 65, 50.0),
    discretize_schroedinger(step_potential(), 4.0, 16, 1.0),
], ids=["odd_sine_129", "step_65_eps50", "step_16_eps1"])
def test_a_broken_phase_falls_back_to_eig_bit_for_bit(H, linalg_counter, monkeypatch):
    # a complex pair has no real root, so Newton cannot give N distinct real
    # eigenvalues: its largest step grows within a few sweeps, where it gives
    # up (one _pivot call per row per sweep), and the split takes eig and
    # svd, its system the Operator route's bit for bit
    assert H.frame() is not None
    pivots = []
    real_pivot = spectral._pivot

    def counted(p, tiny):
        pivots.append(p.size)
        return real_pivot(p, tiny)

    monkeypatch.setattr(spectral, "_pivot", counted)
    got = biorthonormal_eigensystem(H)
    assert 1 <= len(pivots) // H.dim <= 9
    assert (linalg_counter["eig"], linalg_counter["svd"]) == (1, 1)
    assert not got.spectrum_is_real()
    assert_same_system(got, biorthonormal_eigensystem(H.total()))


def test_an_unconverged_newton_run_falls_back_to_eig(monkeypatch, linalg_counter):
    # the step grid at N = 129 and eps = 1 needs 7 Newton sweeps. After 6 its
    # eigenvalues are within rounding already (the 6th step is 4.4e-10 |H|,
    # the 7th 7e-16 |H|), so a route that ran a fixed 6 sweeps would pass the
    # ordering and residual checks and return them; capped at 6 the
    # convergence test has not been met, and the split takes eig and svd
    H = discretize_schroedinger(step_potential(), 4.0, 129, 1.0)
    biorthonormal_eigensystem(H)
    assert "eig" not in linalg_counter
    monkeypatch.setattr(spectral, "NEWTON_SWEEPS", 6)
    got = biorthonormal_eigensystem(H)
    assert (linalg_counter["eig"], linalg_counter["svd"]) == (1, 1)
    assert_same_system(got, biorthonormal_eigensystem(H.total()))


def test_equivalent_hermitian_of_the_split_matches_the_operator():
    split = grid_split(129)
    H = split.total()
    eta = spectral_metric(biorthonormal_eigensystem(H))
    h = _equivalent_hermitian(split, eta, 0.0, 1.0, DEFAULT_TOL)
    h_ref = _equivalent_hermitian(H, eta, 0.0, 1.0, DEFAULT_TOL)
    assert max_norm(h.mat - h_ref.mat) <= 1e-12 * max_norm(h_ref.mat)


def old_sylvester_eigenbasis(e, u, r, tol):
    """sylvester_solve's complex transforms as they were written before the real path."""
    rt = u.conj().T @ r @ u
    gaps = e[:, None] - e[None, :]
    degenerate = np.abs(gaps) <= tol.abs_tol
    qt = np.where(degenerate, 0.0, rt / np.where(degenerate, 1.0, gaps))
    qm = u @ qt @ u.conj().T
    return (qm + qm.conj().T) / 2


def test_real_sylvester_transforms_match_the_complex_ones():
    # sylvester_solve takes every source as it is: with the grid's real U its
    # transforms are the complex ones, bit for bit, for a purely imaginary, a
    # real and a mixed source
    split = grid_split(129)
    e, u = np.linalg.eigh(split.H0.mat.real)
    r1 = order_equation_rhs(split, None, 1).mat  # -2 H1: purely imaginary
    # a real and a mixed source, both anti-Hermitian with a zero diagonal in
    # H0's eigenbasis (the Fredholm condition)
    k = np.random.default_rng(6).standard_normal((129, 129))
    np.fill_diagonal(k, 0.0)
    real = u @ (k - k.T) @ u.T + 0j
    for r in (r1, real, real + 1j * (u @ (k + k.T) @ u.T)):
        q = sylvester_solve(split.H0, Operator(r)).mat
        assert np.array_equal(q, old_sylvester_eigenbasis(e, u, r, DEFAULT_TOL))


def test_complex_h0_keeps_the_complex_sylvester_transforms():
    split = fixed_split(8, seed=3)
    e, u = np.linalg.eigh(split.H0.mat)
    r = order_equation_rhs(split, None, 1)
    q = sylvester_solve(split.H0, r).mat
    assert np.array_equal(q, old_sylvester_eigenbasis(e, u, r.mat, DEFAULT_TOL))


def test_metric_operator_residual_needs_no_svd(linalg_counter):
    # a metric that carries its eigensystem: the singular test reads its range
    split = grid_split(16)
    q, _ = np.linalg.qr(random_hermitian(16, seed=3) + 1j * np.eye(16))
    lam = np.linspace(1.0, 2.0, 16)
    eta = MetricOperator(Operator((q * lam) @ q.conj().T), (lam, q, False))
    assert eta.eig_range == (1.0, 2.0)
    pseudo_hermiticity_residual(split, eta)
    assert linalg_counter["svd"] == 0


def test_a_metric_with_neither_frame_nor_eigensystem_reads_its_matrix(linalg_counter):
    # a MetricOperator built from an Operator alone: its rows are its
    # matrix's, the residual's pass reads them, and the singular test takes
    # an SVD for the range it does not carry; each number is the bare
    # matrix's bit for bit
    split = grid_split(16)
    e = random_metric(16, seed=5)
    eta = MetricOperator(Operator(e))
    assert eta.frame is None and eta.eig_range is None
    assert np.array_equal(eta.rows(3, 9), e[3:9])
    assert pseudo_hermiticity_residual(split, eta) == pseudo_hermiticity_residual(split, e)
    assert pseudo_hermiticity_threshold(split, eta) == pseudo_hermiticity_threshold(split, e)
    assert linalg_counter["svd"] == 2


def test_a_frame_metric_refuses_an_overflowed_frame_matrix():
    # Q = -800 I: e^(-Q) = e^800 overflows in the frame's eigh route, and the
    # frame metric refuses the inf and NaN entries as an Operator refuses them
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match="entries must be finite"):
        metric_from_series(QSeries((Operator(-800 * np.eye(16)),)), 1.0)


def complex_route(split, ell):
    """solve_q_series's orders on complex terms, through the public API.

    Each R_m is order_equation_rhs on the complex lower terms, Q_m is
    sylvester_solve's, and the check is the whole |[H0, Q_m] - R_m|: the
    route the grid took before its terms were graded. The public functions
    take the complex operators as they are, so this route shares no real
    arithmetic with the solve's real mode.
    """
    terms, residuals = [], []
    for m in range(1, ell + 1):
        r = order_equation_rhs(split, QSeries(tuple(terms)) if terms else None, m)
        q = sylvester_solve(split.H0, r)
        residuals.append(max_norm(split.h0_commutator(q.mat) - r.mat))
        terms.append(q)
    return QSeries(tuple(terms)), residuals


@pytest.mark.parametrize("ell", [2, 5])
def test_graded_series_is_the_complex_route(ell, monkeypatch):
    # on the grid every Q_m and R_m is i^m times a real matrix, and the solve
    # keeps the real matrices A_m = Q_m / i^m; its terms, checks, norms,
    # defects and metrics are the complex route's to rounding. A real matrix
    # product need not round as the complex one does: at ell = 2 Q_1 differs
    # by about 3e-17 (5e-16 relative). The solve holds the even terms as
    # exact zeros, where the complex route's Q_2, about 6e-31, is
    # cancellation noise and its order-2 check reads 2.48e-14 against 0.0
    split = discretize_schroedinger(step_potential(), 4.0, 129, epsilon=0.1)
    calls = real_heads(monkeypatch)
    graded = solve_q_series(split, ell)
    assert graded._real and all(np.isrealobj(a) for a in graded._matrices)
    # the solve takes the real H1 head from order 3 on, the first odd source
    # with an H1 chain through odd terms only ...
    assert (len(calls) > 0) == (ell >= 3)
    calls.clear()
    ref, residuals = complex_route(split, ell)
    assert calls == []  # ... and the reference never does

    def same(x, y):
        x, y = np.asarray(x), np.asarray(y)
        return bool(np.all(np.abs(x - y) <= 1e-12 * max(1.0, np.abs(y).max())))

    assert all(same(t.mat, r.mat) for t, r in zip(graded.terms, ref.terms))
    assert same([r for r, _ in graded.order_checks], residuals)
    assert same(graded.norms, ref.norms)
    assert same(graded.hermiticity_defects, ref.hermiticity_defects)
    for e in (0.1, 0.05, 0.0125):
        eta, eta_ref = metric_from_series(graded, e), metric_from_series(ref, e)
        assert eta.frame is not None and same(eta.frame, eta_ref.frame)
        assert same(pseudo_hermiticity_residual(split.at(e), eta),
                    pseudo_hermiticity_residual(split.at(e), eta_ref))


def test_a_dense_split_keeps_complex_terms():
    split = random_admissible_split(12, np.random.default_rng(8), parity=True)
    series = solve_q_series(split, 3)
    assert not series._real and all(np.iscomplexobj(a) for a in series._matrices)
    assert all(t.mat is a for t, a in zip(series.terms, series._matrices))


def test_grid_terms_have_the_phase_of_their_order():
    # on the grid every contribution to the order-m chain sum has the phase
    # i^m, so the solve holds the real A_m = Q_m / i^m: Q_m = i^m A_m
    # exactly, and Q_m Hermitian is A_m^T = (-1)^m A_m within the rule.
    # Q(eps) sums the A_j into its real and imaginary parts in real
    # arithmetic, so e^(-Q(eps)) and its residual are those of the same terms
    # held as Operators, bit for bit
    split = grid_split(129)
    series = solve_q_series(split, 5)
    assert series._real
    for m in range(1, 6):
        a = series._matrices[m - 1]
        assert np.isrealobj(a)
        assert np.array_equal(series.terms[m - 1].mat, 1j**m * a)
        assert max_norm(a.T - (-1) ** m * a) <= DEFAULT_TOL.bound(max_norm(a))
    as_operators = QSeries(series.terms)
    for e in (0.1, 0.025):
        eta, ref = metric_from_series(series, e), metric_from_series(as_operators, e)
        assert np.array_equal(eta.mat, ref.mat)
        assert pseudo_hermiticity_residual(split.at(e), eta) == pseudo_hermiticity_residual(
            split.at(e), ref
        )


@pytest.mark.parametrize("N", [65, 129])
@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_real_mode_q_of_eps_is_the_complex_sum_of_its_terms(N, ell):
    # a real-mode series sums Q(eps) into one complex array, i^j A_j eps^j
    # into its imaginary part (odd j) or its real part (even j) with the sign
    # of i^j: that is the sum of Q_j eps^j in order, in complex arithmetic,
    # bit for bit, at a small, a smaller and a large eps
    series = solve_q_series(grid_split(N), ell)
    assert series._real
    for e in (0.1, 0.0125, 3.0):
        ref = np.zeros((N, N), dtype=complex)
        for j, t in enumerate(series.terms, start=1):
            ref += t.mat * e**j
        assert np.array_equal(series.summed(e).mat, ref)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_a_gauge_runs_the_grid_solve_on_complex_terms(order, monkeypatch):
    # a gauge commutes with the real H0, so it is real symmetric (here up to
    # the rounding of its construction). Any gauge term makes the solve
    # complex from order 1 on, at an odd order (g / i not real) as at an even
    # one (g / i^2 = -g real), every order's source formed and judged, the
    # even ones too; and e^(-Q(eps)) and its residual are those of the same
    # terms held as Operators, bit for bit
    split = grid_split(33)
    g = commuting_gauge(split, np.random.default_rng(4), scale=1e-3)
    judged = []
    check = perturbation._check_source
    monkeypatch.setattr(perturbation, "_check_source",
                        lambda r, tol, name, sign: judged.append(name) or check(r, tol, name, sign))
    series = solve_q_series(split, 3, gauge={order: g})
    assert judged == ["R_1", "R_2", "R_3"]
    assert all(entry["rhs_norm"] > 0.0 for entry in series.gauge_log)
    assert not series._real and all(np.iscomplexobj(a) for a in series._matrices)
    assert series.gauge_log[order - 1]["gauge"] == "minimal+custom"
    # the complex chain sums on the stencil solve every order equation
    for m, (_, bound) in enumerate(series.order_checks, start=1):
        assert max_norm(order_residual(split, series, m).mat) <= bound
    as_operators = QSeries(series.terms)
    for e in (0.1, 0.025):
        eta, ref = metric_from_series(series, e), metric_from_series(as_operators, e)
        assert np.array_equal(eta.mat, ref.mat)
        assert pseudo_hermiticity_residual(split.at(e), eta) == pseudo_hermiticity_residual(
            split.at(e), ref
        )


@pytest.mark.parametrize("N", [16, 129])
def test_real_stencil_commutator_is_each_part_of_the_complex_one(N):
    # a real X takes the stencil on its own columns: [H0, X] is the real part
    # of the complex stencil on X and the imaginary part on i X, bit for
    # bit
    split = grid_split(N)
    x = np.random.default_rng(N).standard_normal((N, N))
    got = split.h0_commutator(x)
    assert np.isrealobj(got)
    assert np.array_equal(got, split.h0_commutator(x + 0j).real)
    assert np.array_equal(got, split.h0_commutator(1j * x).imag)
    v = split.H1.mat.diagonal().imag
    # [H1, i X] = i [H1, X] = i (i D): the same entries as h1_commutator's
    d = split.h1_commutator_real(x)
    assert np.array_equal(-d, split.h1_commutator(1j * x).real)
    assert np.array_equal(d, v[:, None] * x - x * v[None, :])


@pytest.mark.parametrize("form", ["stencil", "dense"])
@pytest.mark.parametrize("N", [16, 129])
def test_h0_pass_gives_each_row_once_in_order(N, form):
    # every product with H0 is one pass over all N rows: the blocks s:e
    # follow each other from row 0 to row N, each row once, and the pass
    # hands each block xb, rows s:e of X, from a matrix, a real row fill or
    # a complex row fill; the dense form gives all of X as one block (0, N)
    split = grid_split(N, form)
    rng = np.random.default_rng(N)
    real = rng.standard_normal((N, N))
    z = real + 1j * rng.standard_normal((N, N))
    fills = ((z, z), (lambda lo, hi: real[lo:hi].copy(), real), (lambda lo, hi: z[lo:hi].copy(), z))
    for x, xm in fills:
        bounds, rows = [], []
        for s, e, c, xb in split._h0_pass(x):
            assert c.shape == xb.shape == (e - s, N)
            assert np.array_equal(xb, xm[s:e])
            bounds.append((s, e))
            rows.append(c.copy())  # c is valid until the next block is taken
        starts, stops = zip(*bounds)
        assert starts[0] == 0 and stops[-1] == N and list(starts[1:]) == list(stops[:-1])
        assert all(s < e for s, e in bounds)
        if form == "dense":
            assert bounds == [(0, N)]
        assert np.array_equal(np.concatenate(rows), split.h0_commutator(xm))


def chain_terms(split, terms, m):
    """Each term of the complex order-m chain sum over the complex terms Q_1 .. Q_{m-1}.

    2 H1 at order 1, then [..[head, Q_j1], ..., Q_jk] / k! over the
    compositions j1 + ... + jk of m (head H0) and of m - 1 (head H1).
    """
    out = [2 * split.H1.mat] if m == 1 else []
    for head, budget in ((split.h0_commutator, m), (split.h1_commutator, m - 1)):
        for comp in perturbation._compositions(budget):
            if comp and max(comp) <= len(terms):
                x = head(terms[comp[0] - 1])
                for j in comp[1:]:
                    x = x @ terms[j - 1] - terms[j - 1] @ x
                out.append(x / math.factorial(len(comp)))
    return out


@pytest.mark.parametrize("N", [33, 129])
def test_the_grid_series_is_odd_on_the_complex_route(N):
    # H1 is anti-Hermitian, so H(eps)^dagger = H(-eps), and in the minimal
    # gauge every even term is zero: the complex route, which solves every
    # order, gives R_2, R_4 and Q_2, Q_4 at the rounding level of the sum of
    # their chain terms. The solve holds the even terms as exact zeros and
    # its odd terms are the complex route's to the rounding of the Sylvester
    # solve, whose condition is |H0| / min gap
    split = discretize_schroedinger(step_potential(), 4.0, N, epsilon=0.1)
    e, _ = split.h0_eigensystem()
    gap = np.diff(e).min()
    cond = np.abs(e).max() / gap
    terms = []
    for m in range(1, 6):
        r = order_equation_rhs(split, QSeries(tuple(Operator(t) for t in terms)) if terms else None, m)
        q = sylvester_solve(split.H0, r).mat
        if m % 2 == 0:
            chains = sum(max_norm(c) for c in chain_terms(split, terms, m))
            assert max_norm(r.mat) <= 16 * N * EPS * chains
            assert max_norm(q) <= 16 * N * EPS * chains / gap
        terms.append(q)
    for ell in range(1, 6):
        series = solve_q_series(split, ell)
        assert series._real and series.order == ell
        for m in range(1, ell + 1):
            got = series.terms[m - 1].mat
            if m % 2 == 0:
                assert not got.any() and series.order_checks[m - 1][0] == 0.0
                assert series.gauge_log[m - 1] == {"order": m, "gauge": "minimal", "rhs_norm": 0.0}
            else:
                assert max_norm(got - terms[m - 1]) <= 4 * EPS * cond * max_norm(terms[m - 1])


@pytest.mark.parametrize("dim", [64, 256])
def test_a_dense_split_solves_its_even_orders_to_rounding(dim):
    # the dense split of the benchmark's split spec keeps the full complex
    # solve; its even terms come out at the rounding level of its odd ones
    series = solve_q_series(fixed_split(dim, seed=20240), 5)
    assert not series._real
    scale = max(series.norms)
    assert series.norms[1] <= dim * EPS * scale and series.norms[3] <= dim * EPS * scale
    assert min(series.norms[0], series.norms[2], series.norms[4]) > 1.0

