import numpy as np
import pytest

from pseudoherm import (
    MetricOperator,
    NonFiniteError,
    Operator,
    PositivityError,
    QSeries,
    ShapeError,
    SplitHamiltonian,
    StructureError,
    Tolerance,
    bch_conjugate,
    commutator,
    discretize_schroedinger,
    herm_sqrt_inv,
    is_hermitian,
    max_norm,
    nested_commutator,
    step_potential,
)

from pseudoherm.operators import _max_norm_blocks, _max_norm_rows

from helpers import herm_exp


def random_hermitian(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2 * scale


def test_operator_requires_square():
    with pytest.raises(ShapeError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        Operator(np.zeros(4))


def test_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        Operator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Operator(np.array([[np.inf * 1j, 0.0], [0.0, 1.0]]))


def test_operators_and_metrics_compare_and_hash_by_identity():
    a, b = Operator(np.eye(3)), Operator(np.eye(3))
    assert a == a and a != b and len({a, a, b}) == 2
    eta = MetricOperator(a)
    assert eta == eta and eta != MetricOperator(a) and len({eta, eta}) == 1
    # and so does a series, whatever its terms
    series = QSeries((a,))
    assert series == series and series != QSeries((a,)) and len({series, series}) == 1


def test_operator_is_frozen_copy():
    # a caller's complex C-ordered array, the kind Operator._own freezes in
    # place, is still copied: the caller keeps a writeable handle on it
    src = np.eye(2, dtype=complex)
    op = Operator(src)
    src[0, 0] = 5.0
    assert op.mat[0, 0] == 1.0 and src.flags.writeable
    with pytest.raises(ValueError):
        op.mat[0, 0] = 2.0


def test_own_freezes_a_fresh_array_in_place():
    fresh = np.eye(3, dtype=complex)
    op = Operator._own(fresh)
    assert op.mat is fresh and not fresh.flags.writeable
    # any other array is copied, and every array is checked as Operator checks it
    for other in (np.eye(3), np.eye(3, dtype=complex)[:, ::-1]):
        assert Operator._own(other).mat is not other and other.flags.writeable
    with pytest.raises(ShapeError):
        Operator._own(np.zeros((2, 3), dtype=complex))
    with pytest.raises(NonFiniteError):
        Operator._own(np.full((2, 2), np.nan + 0j))


def test_max_norm_names_the_array_and_the_overflowed_rows():
    a = np.zeros((70, 3), dtype=complex)
    a[40, 1] = np.inf
    with pytest.raises(NonFiniteError, match=r"^max-norm of a \(70, 3\) array is inf: "):
        max_norm(a)
    with pytest.raises(NonFiniteError, match=r"^max-norm of X is inf: an entry overflowed$"):
        max_norm(a, "X")
    # the row blocks before the overflowed one reduce to finite maxima
    with pytest.raises(NonFiniteError, match=r"^max-norm of X, rows 32:64 of 70, is inf: "):
        _max_norm_rows(lambda start, stop: a[start:stop], 70, "X")
    a[40, 1] = np.nan
    with pytest.raises(NonFiniteError, match=r"^max-norm of X, rows 32:64 of 70, is nan: "):
        _max_norm_rows(lambda start, stop: a[start:stop], 70, "X")
    a[40, 1] = 1.0
    assert _max_norm_rows(lambda start, stop: a[start:stop], 70, "X") == 1.0


def test_operator_arithmetic_and_adjoint():
    a = Operator(np.array([[1.0, 2.0j], [0.0, 1.0]]))
    assert a.dim == 2
    assert a.norm() == 2.0


def test_tolerance_bound_and_validation():
    t = Tolerance(1e-10, 1e-8)
    assert t.bound(0.0) == 1e-10
    assert t.bound(100.0) == pytest.approx(1e-10 + 1e-6)
    with pytest.raises(ValueError):
        Tolerance(-1.0, 1e-8)
    with pytest.raises(ValueError):
        Tolerance(0.0, 0.0)


def test_max_norm_empty():
    assert max_norm(np.zeros((0, 0))) == 0.0


def test_is_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_hermitian(4, rng)
        assert is_hermitian(h)
        assert not is_hermitian(h + 1e-3 * 1j * np.eye(4))


def test_commutator_antisymmetry_and_jacobi():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        c = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert max_norm(commutator(a, b) + commutator(b, a)) < 1e-12
        jac = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert max_norm(jac) < 1e-12


def test_nested_commutator_recursion():
    rng = np.random.default_rng(4)
    h = Operator(random_hermitian(4, rng))
    q = Operator(random_hermitian(4, rng))
    prev = commutator(h.mat, q.mat)
    assert np.array_equal(nested_commutator(h, q, 1).mat, prev)
    for k in range(2, 5):
        prev = commutator(prev, q.mat)
        assert max_norm(nested_commutator(h, q, k).mat - prev) == 0.0


def test_nested_commutator_accepts_ndarray():
    rng = np.random.default_rng(5)
    h = random_hermitian(3, rng)
    q = random_hermitian(3, rng)
    out = nested_commutator(h, q, 2)
    assert isinstance(out, Operator)
    with pytest.raises(ShapeError):
        nested_commutator(h, random_hermitian(4, rng), 1)


def test_bch_conjugate_matches_exact_conjugation():
    # e^{-Q} H e^{Q} for Hermitian Q, computed exactly via eigh
    rng = np.random.default_rng(6)
    for scale in (0.05, 0.1):
        h = Operator(random_hermitian(5, rng))
        q = Operator(random_hermitian(5, rng, scale=scale))
        w, u = np.linalg.eigh(q.mat)
        em = (u * np.exp(-w)) @ u.conj().T
        ep = (u * np.exp(w)) @ u.conj().T
        exact = em @ h.mat @ ep
        for k_max in (6, 10):
            trunc = bch_conjugate(h, q, k_max).mat
            bound = max_norm(h.mat) * (2 * scale * 5) ** (k_max + 1)
            assert max_norm(trunc - exact) < max(bound, 1e-12)


def test_bch_conjugate_rejects_nonpositive_depth():
    h = Operator(np.diag([1.0, 2.0]))
    q = Operator(np.eye(2))
    with pytest.raises(ValueError):
        bch_conjugate(h, q, 0)


def test_herm_exp_diagonal_exact():
    out = herm_exp(np.diag([0.0, np.log(2.0), -1.0]))[0].mat
    assert np.allclose(np.diag(out), [1.0, 0.5, np.e], rtol=0, atol=1e-15)


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(StructureError):
        herm_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_exp_positive_definite():
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = np.linalg.eigvalsh(herm_exp(random_hermitian(4, rng))[0].mat)
        assert w.min() > 0


def test_herm_sqrt_inv_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = Operator(a @ a.conj().T + 0.5 * np.eye(4))
        s, si = herm_sqrt_inv(m)
        assert max_norm(s.mat @ s.mat - m.mat) < 1e-12 * max_norm(m.mat)
        assert max_norm(s.mat @ si.mat - np.eye(4)) < 1e-12


def test_herm_sqrt_inv_rejects_indefinite():
    with pytest.raises(PositivityError) as err:
        herm_sqrt_inv(Operator(np.diag([1.0, -2.0])))
    assert "-2" in str(err.value)


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_hermiticity_checks_near_the_float_limit(big):
    # m - m^dagger overflows here, and so does (1j m) + (1j m)^dagger; the
    # checks must still answer. m is anti-Hermitian within the relative bound.
    m = np.array([[1.0, big], [-big, 2.0]])
    assert not is_hermitian(m)
    assert is_hermitian(1j * m)


def test_an_empty_matrix_has_norm_zero_and_is_hermitian():
    # a max-norm over no row blocks is 0.0, as max_norm's of an empty array;
    # max() over the blocks raised an untyped ValueError
    empty = np.zeros((0, 0))
    assert _max_norm_blocks(iter(()), 0, "the matrix") == 0.0
    assert _max_norm_rows(lambda s, e: empty[s:e], 0, "the matrix") == 0.0
    assert is_hermitian(empty) and is_hermitian(1j * empty)


@pytest.mark.parametrize("off", [-1.3, 0.0, 0.7])
@pytest.mark.parametrize("n", [2, 3, 129, 1025])
def test_stencil_eigensystem_is_the_closed_form_eighs(n, off, linalg_counter):
    # diag + off T has E_k = diag + 2 off cos(k pi / (N + 1)) and the sine
    # basis: ascending as eigh's, with its residual and orthogonality within
    # rounding, and no factorization
    split = SplitHamiltonian.tridiagonal(0.4, off, np.ones(n), 0.1)
    e, u = split.h0_eigensystem()
    assert not linalg_counter
    h = split.H0.mat.real
    e_ref = np.linalg.eigvalsh(h)
    eps, scale = np.finfo(float).eps, max(1.0, np.abs(e_ref).max())
    assert np.isrealobj(u) and u.shape == (n, n) and np.all(np.diff(e) >= 0)
    assert np.abs(e - e_ref).max() <= 16 * eps * scale
    assert np.abs(h @ u - u * e).max() <= 4 * np.sqrt(n) * eps * scale
    assert np.abs(u.T @ u - np.eye(n)).max() <= 4 * np.sqrt(n) * eps


def grid_split(n):
    return discretize_schroedinger(step_potential(), 4.0, n)


def dense_split(split):
    return SplitHamiltonian(split.H0, split.H1, split.epsilon)


# each raise site as (call, error class, message); none is on a run's path
ERROR_SITES = {
    "split_dimensions": (
        lambda: SplitHamiltonian(Operator(np.eye(2)), Operator(np.zeros((3, 3))), 0.1),
        ShapeError, "dimension mismatch: 2 vs 3"),
    # max() over no row blocks raised "max() arg is an empty sequence"
    "split_empty": (
        lambda: SplitHamiltonian(Operator(np.zeros((0, 0))), Operator(np.zeros((0, 0))), 0.1),
        ShapeError, r"at least 1 x 1, got 0 x 0"),
    "nested_commutator_k_0": (
        lambda: nested_commutator(Operator(np.eye(2)), Operator(np.eye(2)), 0),
        ValueError, "k must be >= 1"),
    "bch_shapes": (
        lambda: bch_conjugate(Operator(np.eye(2)), Operator(np.eye(3)), 1),
        ShapeError, "dimension mismatch"),
    # every product with H0 checks X once, before the pass's first block: the
    # stencil's h0_commutator returned a (33, 40) array, and the dense one,
    # adjoint_residual and total_commutator raised numpy ValueError
    "h0_commutator_shape": (
        lambda: grid_split(33).h0_commutator(np.zeros((40, 40))),
        ShapeError, r"dimension mismatch: X is \(40, 40\), H0 \(33, 33\)"),
    "h0_commutator_rows": (
        lambda: grid_split(33).h0_commutator(np.zeros((33, 40))),
        ShapeError, r"dimension mismatch: X is \(33, 40\), H0 \(33, 33\)"),
    "h0_commutator_dense_shape": (
        lambda: dense_split(grid_split(33)).h0_commutator(np.zeros((40, 40))),
        ShapeError, r"dimension mismatch: X is \(40, 40\), H0 \(33, 33\)"),
    "adjoint_residual_shape": (
        lambda: list(grid_split(33).adjoint_residual(np.zeros((40, 40)))),
        ShapeError, r"dimension mismatch: X is \(40, 40\), H0 \(33, 33\)"),
    "total_commutator_shape": (
        lambda: list(grid_split(33).total_commutator(np.zeros((40, 40)))),
        ShapeError, r"dimension mismatch: X is \(40, 40\), H0 \(33, 33\)"),
}


@pytest.mark.parametrize("case", sorted(ERROR_SITES))
def test_operator_raise_sites(case):
    call, error, message = ERROR_SITES[case]
    with pytest.raises(error, match=message):
        call()
