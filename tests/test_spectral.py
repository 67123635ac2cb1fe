import numpy as np
import pytest

from pseudoherm import (
    DiagonalizabilityError,
    DomainError,
    InvertibilityError,
    Operator,
    PositivityError,
    RealityError,
    ResidualError,
    ShapeError,
    StructureError,
    biorthonormal_eigensystem,
    c_operator,
    discretize_schroedinger,
    equivalent_hermitian,
    max_norm,
    metric_factorization,
    metric_intertwiner,
    pseudo_hermiticity_residual,
    spectral_metric,
    step_potential,
    symmetry_rescaled_metric,
)
from pseudoherm.operators import DEFAULT_TOL, IndexReversal
from pseudoherm.spectral import (
    COND_CAP,
    _equivalent_hermitian,
    parity_pseudo_hermiticity_residual,
    pseudo_hermiticity_threshold,
)
from helpers import (
    formed_vectors,
    positive_definite,
    random_diagonalizable,
    spectrum_is_real,
    toy_2x2,
)


def test_biorthonormal_identities():
    rng = np.random.default_rng(10)
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        h, _ = random_diagonalizable(dim, rng)
        sys = biorthonormal_eigensystem(h)
        assert sys.eigenvalues.shape == (dim,)
        assert sys.gram_defect < 1e-10
        assert sys.completeness_defect < 1e-10
        # each column pair solves the right/left eigenvalue problems
        psis, phis = formed_vectors(sys)
        for n in range(dim):
            e = sys.eigenvalues[n]
            psi = psis[:, n]
            phi = phis[:, n]
            assert max_norm(h.mat @ psi - e * psi) < 1e-9
            assert max_norm(h.mat.conj().T @ phi - np.conj(e) * phi) < 1e-9


def test_biorthonormal_ordering_and_determinism():
    h = Operator(np.diag([3.0, -1.0, 2.0]))
    sys = biorthonormal_eigensystem(h)
    assert np.array_equal(sys.eigenvalues.real, [-1.0, 2.0, 3.0])
    again = biorthonormal_eigensystem(h)
    for got, ref in zip(formed_vectors(sys), formed_vectors(again)):
        assert np.array_equal(got, ref)


def test_defective_matrix_rejected():
    with pytest.raises(DiagonalizabilityError):
        biorthonormal_eigensystem(Operator(np.array([[1.0, 1.0], [0.0, 1.0]])))


def test_spectrum_is_real():
    for m, real in (([[1.0, 1.0], [0.5, 2.0]], True), ([[0.0, 1.0], [-1.0, 0.0]], False)):
        h = Operator(np.array(m))
        assert spectrum_is_real(h.mat) is real
        # the pipeline's route: the same rule on the eigenvalues eig already gave
        assert biorthonormal_eigensystem(h).spectrum_is_real() is real


def test_spectral_metric_worked_example():
    # H = [[1,1],[0,2]]: eta = [[1,-1],[-1,3]] in the unit-scale gauge
    h = Operator(np.array([[1.0, 1.0], [0.0, 2.0]]))
    sys = biorthonormal_eigensystem(h)
    eta = spectral_metric(sys).mat
    assert np.allclose(eta, [[1.0, -1.0], [-1.0, 3.0]], rtol=0, atol=1e-12)
    assert max_norm(h.mat.conj().T @ eta - eta @ h.mat) < 1e-12
    # the rescaled family reaches [[1,-1],[-1,2]] at scales (1, 1/2)
    eta2 = symmetry_rescaled_metric(sys, [1.0, 0.5]).mat
    assert np.allclose(eta2, [[1.0, -1.0], [-1.0, 2.0]], rtol=0, atol=1e-12)


def test_spectral_metric_properties():
    rng = np.random.default_rng(13)
    for _ in range(15):
        dim = int(rng.integers(2, 9))
        h, _ = random_diagonalizable(dim, rng)
        eta = spectral_metric(biorthonormal_eigensystem(h))
        assert positive_definite(eta.mat)
        w = np.linalg.eigvalsh(eta.mat)
        assert np.allclose(eta.eig_range, (w[0], w[-1]), rtol=1e-10, atol=0)
        scale = max_norm(h.mat) * max_norm(eta.mat)
        assert pseudo_hermiticity_residual(h, eta) < 1e-10 * max(1.0, scale)


def test_spectral_metric_complex_spectrum_rejected():
    h = Operator(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # eigenvalues +-i
    with pytest.raises(RealityError) as err:
        spectral_metric(biorthonormal_eigensystem(h))
    assert "E_" in str(err.value)


def test_pseudo_hermiticity_residual_singular_metric():
    h = Operator(np.eye(2))
    from pseudoherm import InvertibilityError

    with pytest.raises(InvertibilityError):
        pseudo_hermiticity_residual(h, np.diag([1.0, 0.0]))


def nonnormal(t):
    """Spectrum {1, 2}; the eigenvector condition number grows like 2t."""
    return Operator(np.array([[1.0, t], [0.0, 2.0]]))


# eta's eigenvalues are about 1/2 and 2t^2, so eta counts as singular from
# 1/2 <= 1e-10 + 1e-8 * 2t^2, i.e. t ~ 5000, long before the cond cap
# (t ~ 5e7) makes biorthonormal_eigensystem refuse H.
@pytest.mark.parametrize(
    "t, singular",
    [(1e3, False), (4.9e3, False), (4.99e3, False), (5.01e3, True), (5.1e3, True), (1e6, True)],
)
def test_singular_metric_decision_matches_svd(t, singular):
    h = nonnormal(t)
    eta = spectral_metric(biorthonormal_eigensystem(h))
    sv = np.linalg.svd(eta.mat, compute_uv=False)
    assert bool(sv[-1] <= DEFAULT_TOL.bound(sv[0])) is singular
    lo, hi = eta.eig_range
    assert bool(lo <= DEFAULT_TOL.bound(hi)) is singular
    # known range (MetricOperator) and SVD (bare matrix) routes decide alike
    for metric in (eta, eta.mat):
        if singular:
            with pytest.raises(InvertibilityError):
                pseudo_hermiticity_residual(h, metric)
        else:
            assert pseudo_hermiticity_residual(h, metric) < 1e-8 * max_norm(eta.mat) * t


# cond(psi) = 2t to rounding, so the cap refuses H from t = 5e7 on: 5e7 itself
# reads cond 1e8 exactly and is accepted, the next float up is refused
COND_FLIP = np.nextafter(5e7, np.inf)


@pytest.mark.parametrize(
    "t", [4.9e7, 5e7 - 2 * np.spacing(5e7), 5e7, COND_FLIP, COND_FLIP + np.spacing(5e7), 5.1e7]
)
def test_cond_cap_refuses_where_the_gauged_svd_refused(t):
    # the cap reads sigma from the full SVD of the ungauged eigenvectors W;
    # the reference is the call it replaces, the singular values alone of the
    # gauge-fixed psi, written out here
    h = nonnormal(t).mat
    w, v = np.linalg.eig(h)
    order = np.lexsort((np.arange(w.size), w.imag, w.real))
    v = v[:, order] / np.linalg.norm(v[:, order], axis=0)
    for n in range(w.size):
        col = v[:, n]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        v[:, n] = col / (col[nz] / abs(col[nz]))
    sv = np.linalg.svd(v, compute_uv=False)
    refused = bool(sv[0] / sv[-1] > COND_CAP)
    assert refused is bool(t >= COND_FLIP)
    try:
        biorthonormal_eigensystem(nonnormal(t))
        got = False
    except DiagonalizabilityError:
        got = True
    assert got is refused


def test_equivalent_hermitian_isospectral():
    rng = np.random.default_rng(14)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        h, eigs = random_diagonalizable(dim, rng)
        eta = spectral_metric(biorthonormal_eigensystem(h))
        herm, rho = equivalent_hermitian(h, eta)
        assert max_norm(herm.mat - herm.mat.conj().T) < 1e-8 * max(1.0, max_norm(herm.mat))
        got = np.sort(np.linalg.eigvalsh((herm.mat + herm.mat.conj().T) / 2))
        assert max_norm(got - eigs) < 1e-8 * max(1.0, np.abs(eigs).max())
        # rho is the positive square root of eta
        assert max_norm(rho.mat @ rho.mat - eta.mat) < 1e-10 * max(1.0, max_norm(eta.mat))
        # the same metric as a bare matrix carries no eigensystem: one eigh gives it
        herm_user, rho_user = equivalent_hermitian(h, eta.mat)
        assert max_norm(herm_user.mat - herm.mat) < 1e-8 * max(1.0, max_norm(herm.mat))
        assert max_norm(rho_user.mat - rho.mat) < 1e-10 * max(1.0, max_norm(rho.mat))


def test_equivalent_hermitian_rejects_wrong_metric():
    h = Operator(np.array([[1.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ResidualError):
        equivalent_hermitian(h, np.diag([1.0, 5.0]))
    # past the residual check, a metric without an eigensystem must be
    # Hermitian and positive definite
    with pytest.raises(StructureError, match="equivalent_hermitian requires a Hermitian"):
        _equivalent_hermitian(h, np.array([[1.0, 1.0], [0.0, 2.0]]), 0.0, 1.0, DEFAULT_TOL)
    with pytest.raises(PositivityError):
        _equivalent_hermitian(h, np.diag([1.0, -1.0]), 0.0, 1.0, DEFAULT_TOL)


def test_c_operator_toy_family():
    h, p = toy_2x2()
    sys = biorthonormal_eigensystem(h)
    rng = np.random.default_rng(15)
    for _ in range(5):
        eta = symmetry_rescaled_metric(sys, rng.uniform(0.5, 2.0, 2))
        c, comm, invol = c_operator(eta, p, H=h)
        assert comm is not None and comm < 1e-10
        assert invol >= 0.0  # reported, never asserted small
    c, comm, invol = c_operator(spectral_metric(sys), p)
    assert comm is None


def test_c_operator_validates_parity():
    h, _ = toy_2x2()
    eta = spectral_metric(biorthonormal_eigensystem(h))
    with pytest.raises(StructureError):
        c_operator(eta, Operator(np.array([[0.0, 2.0], [2.0, 0.0]])))  # not involutive
    with pytest.raises(StructureError):
        c_operator(eta, Operator(np.array([[0.0, 1.0], [-1.0, 0.0]])))  # not Hermitian


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [1e308, -1e308])
def test_c_operator_rules_near_the_float_limit(big):
    # P - P^dagger overflows for the first P and P^2 for the second; each
    # must still fail its own rule, with no overflow warning
    eye = Operator(np.eye(2))
    with pytest.raises(StructureError, match="not Hermitian"):
        c_operator(eye, Operator(np.array([[0.0, big], [-big, 0.0]])))
    with pytest.raises(StructureError, match="not an involution"):
        c_operator(eye, Operator(np.array([[0.0, big], [big, 0.0]])))


def test_metric_factorization():
    rng = np.random.default_rng(16)
    h, _ = random_diagonalizable(5, rng)
    eta = spectral_metric(biorthonormal_eigensystem(h))
    o = metric_factorization(eta)
    assert max_norm(np.tril(o.mat, -1)) == 0.0
    assert max_norm(o.mat.conj().T @ o.mat - eta.mat) < 1e-12 * max(1.0, max_norm(eta.mat))
    with pytest.raises(PositivityError):
        metric_factorization(np.diag([1.0, -1.0]))


def test_metric_intertwiner_relates_family_members():
    rng = np.random.default_rng(17)
    h, _ = random_diagonalizable(6, rng)
    sys = biorthonormal_eigensystem(h)
    eta1 = spectral_metric(sys)
    eta2 = symmetry_rescaled_metric(sys, rng.uniform(0.5, 2.0, 6))
    a = metric_intertwiner(eta1, eta2, h)
    assert max_norm(a.mat.conj().T @ eta1.mat @ a.mat - eta2.mat) < 1e-10
    assert max_norm(a.mat @ h.mat - h.mat @ a.mat) < 1e-10
    with pytest.raises(ResidualError):
        metric_intertwiner(np.eye(6), eta2, h)


def test_symmetry_rescaled_metric_validation():
    h, _ = toy_2x2()
    sys = biorthonormal_eigensystem(h)
    with pytest.raises(DomainError):
        symmetry_rescaled_metric(sys, [1.0, -1.0])
    with pytest.raises(DomainError):
        symmetry_rescaled_metric(sys, [1.0, 1.0, 1.0])


def test_rescaled_metric_stays_valid():
    rng = np.random.default_rng(18)
    h, _ = random_diagonalizable(5, rng)
    sys = biorthonormal_eigensystem(h)
    for _ in range(10):
        eta = symmetry_rescaled_metric(sys, rng.uniform(0.2, 5.0, 5))
        assert positive_definite(eta.mat)
        scale = max_norm(h.mat) * max_norm(eta.mat)
        assert pseudo_hermiticity_residual(h, eta) < 1e-10 * max(1.0, scale)


def grid_metric(N):
    """The spectral metric of the step grid of N points, a frame metric."""
    split = discretize_schroedinger(step_potential(), 4.0, N, epsilon=0.1)
    return spectral_metric(biorthonormal_eigensystem(split))


# each raise site as (call, error class, message); none is on a run's path
ERROR_SITES = {
    # J of 8 points on a 16-point grid: the residual read 0.0, and the frame
    # C ignored P's size
    "parity_shape_grid_j": (
        lambda: parity_pseudo_hermiticity_residual(
            discretize_schroedinger(step_potential(), 4.0, 16), IndexReversal(8)),
        ShapeError, "dimension mismatch: P is 8 x 8, H 16 x 16"),
    "c_operator_shape_frame_j": (
        lambda: c_operator(grid_metric(16), IndexReversal(8)),
        ShapeError, "dimension mismatch: P is 8 x 8, eta 16 x 16"),
    "c_operator_shape_dense_p": (
        lambda: c_operator(np.eye(3), Operator(np.eye(2))),
        ShapeError, "dimension mismatch: P is 2 x 2, eta 3 x 3"),
    # eta and J of 16 points with H of 17: numpy ValueError from the [C, H]
    # pass, and from the dense products
    "c_operator_shape_grid_h": (
        lambda: c_operator(grid_metric(16), IndexReversal(16),
                           discretize_schroedinger(step_potential(), 4.0, 17)),
        ShapeError, "dimension mismatch: P is 16 x 16, H 17 x 17"),
    "c_operator_shape_dense_h": (
        lambda: c_operator(grid_metric(16), IndexReversal(16),
                           discretize_schroedinger(step_potential(), 4.0, 17).total()),
        ShapeError, "dimension mismatch: P is 16 x 16, H 17 x 17"),
    # a non-square eta: numpy LinAlgError from solve
    "c_operator_non_square_eta": (
        lambda: c_operator(np.ones((3, 2)), Operator(np.eye(3))),
        ShapeError, "dimension mismatch: P is 3 x 3, eta 3 x 2"),
    # the threshold of an eta not H's size: it returned a number
    "threshold_shape_grid_h": (
        lambda: pseudo_hermiticity_threshold(
            discretize_schroedinger(step_potential(), 4.0, 17), grid_metric(16)),
        ShapeError, r"dimension mismatch: \(16, 16\) vs \(17, 17\)"),
    "threshold_shape_operator_h": (
        lambda: pseudo_hermiticity_threshold(Operator(np.eye(2)), np.eye(3)),
        ShapeError, r"dimension mismatch: \(3, 3\) vs \(2, 2\)"),
    "metric_shape_operator_h": (
        lambda: pseudo_hermiticity_residual(Operator(np.eye(2)), np.eye(3)),
        ShapeError, r"dimension mismatch: \(3, 3\) vs \(2, 2\)"),
    "metric_shape_grid_h": (
        lambda: pseudo_hermiticity_residual(
            discretize_schroedinger(step_potential(), 4.0, 17), Operator(np.eye(16))),
        ShapeError, r"dimension mismatch: \(16, 16\) vs \(17, 17\)"),
}


@pytest.mark.parametrize("case", sorted(ERROR_SITES))
def test_spectral_raise_sites(case):
    call, error, message = ERROR_SITES[case]
    with pytest.raises(error, match=message):
        call()
