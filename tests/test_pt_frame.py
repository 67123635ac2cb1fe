"""The real PT frame: S = (I + iJ)/sqrt(2), J the index reversal.

A PT-symmetric X (J conj(X) J == X) is real in the basis S. The maps are
checked against the dense change of basis, and the three factorizations
that use them (biorthonormal_eigensystem, the e^(-Q) of metric_from_series,
herm_sqrt_inv) against the complex path they replace, written out here as
references; so are eta, rho, h and C as the spectral task forms them from
the real SVD of the frame eigenvectors, and the rescaled metrics.
"""

import warnings

import numpy as np
import pytest

from pseudoherm import (
    DiagonalizabilityError,
    NonFiniteError,
    Operator,
    RealityError,
    biorthonormal_eigensystem,
    c_operator,
    equivalent_hermitian,
    herm_sqrt_inv,
    max_norm,
    spectral_metric,
    symmetry_rescaled_metric,
)
from pseudoherm.operators import (
    IndexReversal,
    Tolerance,
    _hermiticity,
    _symmetric_part,
    from_pt_frame,
    from_pt_frame_columns,
    pt_frame,
    to_pt_frame,
)
from pseudoherm.spectral import COND_CAP, _equivalent_hermitian

from helpers import formed_vectors, herm_exp, reference_phases

DIMS = (2, 16, 129)
EPS = np.finfo(float).eps


def frame_basis(n):
    """S = (I + iJ)/sqrt(2) as a dense matrix."""
    return (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2)


def pt_part(z):
    """(Z + J conj(Z) J)/2: PT-symmetric bit for bit, since the sum commutes."""
    return (z + z[::-1, ::-1].conj()) / 2


def random_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_pt_hermitian(n, rng):
    z = random_complex(n, rng)
    return pt_part((z + z.conj().T) / 2)


def herm_function_reference(m, f):
    """The complex path: eigh of the Hermitian part, then the Hermitian part of U f(w) U^dagger."""
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    x = (u * f(w)) @ u.conj().T
    return (x + x.conj().T) / 2, w


def eigensystem_reference(h):
    """The complex path as it was before the factored route: eig of H, sorted and
    gauge-fixed one column at a time, its complex SVD without vectors and inv."""
    return gauged_reference(*np.linalg.eig(h))


def gauged_reference(w, v):
    """eigensystem_reference from the eigenpairs (w, v)."""
    order = np.lexsort((np.arange(w.size), w.imag, w.real))
    w, v = w[order], v[:, order]
    v = v / np.linalg.norm(v, axis=0)
    v = v / reference_phases(v)
    sv = np.linalg.svd(v, compute_uv=False)
    return w, v, np.linalg.inv(v).conj().T, sv


@pytest.mark.parametrize("n", DIMS)
def test_to_pt_frame_is_the_dense_change_of_basis(n):
    rng = np.random.default_rng(n)
    s = frame_basis(n)
    x = pt_part(random_complex(n, rng))
    dense = s.conj().T @ x @ s
    scale = max_norm(x)
    assert max_norm(dense.imag) <= 8 * EPS * scale  # real for PT-symmetric input
    r = to_pt_frame(x)
    assert r.dtype == float
    assert max_norm(r - dense.real) <= 8 * EPS * scale
    # any input: the real part of the change of basis, i.e. of its PT-even part
    z = random_complex(n, rng)
    assert max_norm(to_pt_frame(z) - (s.conj().T @ z @ s).real) <= 8 * EPS * max_norm(z)
    assert max_norm(to_pt_frame(z) - to_pt_frame(pt_part(z))) <= 8 * EPS * max_norm(z)


@pytest.mark.parametrize("n", DIMS)
def test_pt_frame_round_trip(n):
    rng = np.random.default_rng(100 + n)
    s = frame_basis(n)
    x = pt_part(random_complex(n, rng))
    assert max_norm(from_pt_frame(to_pt_frame(x)) - x) <= 8 * EPS * max_norm(x)
    y = rng.standard_normal((n, n))
    back = from_pt_frame(y)
    assert max_norm(back - s @ y @ s.conj().T) <= 8 * EPS * max_norm(y)
    assert max_norm(to_pt_frame(back) - y) <= 8 * EPS * max_norm(y)
    # bit for bit: the image of a real matrix is PT-symmetric, of a symmetric one Hermitian
    assert np.array_equal(back, back[::-1, ::-1].conj())
    sym = from_pt_frame(y + y.T)
    assert np.array_equal(sym, sym.conj().T)


@pytest.mark.parametrize("n", DIMS)
def test_pt_frame_takes_rounding_level_pt_symmetry_only(n):
    rng = np.random.default_rng(3 + n)
    x = pt_part(random_complex(n, rng))
    assert np.array_equal(pt_frame(x), to_pt_frame(x))
    assert pt_frame(random_complex(n, rng)) is None
    bump = np.zeros_like(x)
    bump[0, 1] = n * EPS * max_norm(x)  # a PT-odd part of n eps |x|, rounding level
    assert np.array_equal(pt_frame(x + bump), to_pt_frame(x + bump))
    bump[0, 1] = 1e-10 * max_norm(x)  # under any caller's tolerance, but not rounding
    assert pt_frame(x + bump) is None
    # relative only: a tiny PT-odd matrix has no frame however small it is
    assert pt_frame(1e-300 * random_complex(n, rng)) is None
    assert np.array_equal(pt_frame(np.zeros((n, n), dtype=complex)), np.zeros((n, n)))


@pytest.mark.parametrize("n", DIMS)
def test_herm_functions_in_the_frame_match_the_complex_path(n, linalg_counter):
    rng = np.random.default_rng(200 + n)
    q = random_pt_hermitian(n, rng)
    m = q @ q + np.eye(n)  # Hermitian positive definite, and PT-symmetric within rounding
    e, lam = herm_exp(q)
    sqrt, inv_sqrt = herm_sqrt_inv(Operator(m))
    assert linalg_counter.dtypes["eigh"] == [np.dtype(float)] * 2
    ref_e, ref_w = herm_function_reference(q, lambda w: np.exp(-w))
    # e^(-w) moves by e^(-w) dw, so lam's error is dw's times its size
    assert max_norm(lam - np.exp(-ref_w)) <= 64 * n * EPS * max_norm(ref_w) * max_norm(lam)
    assert max_norm(e.mat - ref_e) <= 64 * n * EPS * max_norm(ref_e)
    ref_s, _ = herm_function_reference(m, np.sqrt)
    ref_si, _ = herm_function_reference(m, lambda w: 1 / np.sqrt(w))
    assert max_norm(sqrt.mat - ref_s) <= 64 * n * EPS * max_norm(ref_s)
    assert max_norm(inv_sqrt.mat - ref_si) <= 64 * n * EPS * max_norm(ref_si)
    for out in (e.mat, sqrt.mat, inv_sqrt.mat):
        assert np.array_equal(out, out.conj().T)


@pytest.mark.parametrize("n", DIMS)
def test_herm_functions_without_pt_symmetry_are_unchanged(n, linalg_counter):
    rng = np.random.default_rng(300 + n)
    z = random_complex(n, rng)
    q = (z + z.conj().T) / 2
    e, lam = herm_exp(q)
    ref_e, ref_w = herm_function_reference(q, lambda w: np.exp(-w))
    assert np.array_equal(e.mat, ref_e) and np.array_equal(lam, np.exp(-ref_w))
    m = z @ z.conj().T + np.eye(n)
    sqrt, inv_sqrt = herm_sqrt_inv(Operator(m))
    assert np.array_equal(sqrt.mat, herm_function_reference(m, np.sqrt)[0])
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    x = (u / np.sqrt(w)) @ u.conj().T  # u / r, as the complex path divides
    assert np.array_equal(inv_sqrt.mat, (x + x.conj().T) / 2)
    assert linalg_counter.complex_calls("eigh") == linalg_counter["eigh"]


@pytest.mark.parametrize("n", DIMS)
def test_eigensystem_in_the_frame_matches_the_complex_path(n, linalg_counter):
    # H = S Y S^dagger with Y real and a real, separated spectrum
    rng = np.random.default_rng(400 + n)
    p = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    y = (p * np.arange(1.0, n + 1.0)) @ np.linalg.inv(p)
    h = from_pt_frame(y)
    sys = biorthonormal_eigensystem(Operator(h))
    assert linalg_counter.dtypes["eig"] == [np.dtype(float)]
    w, v, phi, sv = eigensystem_reference(h)
    cond = sv[0] / sv[-1]
    assert np.array_equal(sys.eigenvalues.imag, np.zeros(n))
    assert max_norm(sys.eigenvalues - w) <= 64 * n * EPS * cond * max_norm(w)
    psi, phi_formed = formed_vectors(sys)
    for got, ref in ((psi, v), (phi_formed, phi)):
        assert max_norm(got - ref) <= 256 * n * EPS * cond * max_norm(ref)
    assert max_norm(sys.factors[1] - sv) <= 64 * n * EPS * cond * sv[0]
    residual = h @ psi - psi * sys.eigenvalues
    assert max_norm(residual) <= 64 * n * EPS * max_norm(w)


def random_unitary(n, rng):
    q, r = np.linalg.qr(random_complex(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def frame_and_rotated(n, rng):
    """(h_pt, h_off, V): H = S Y S^dagger with Y real and the spectrum 1..n, which
    the frame takes in real arithmetic, and its image V H V^dagger under a random
    unitary V, which has no frame and takes the same route in complex arithmetic."""
    p = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    h_pt = from_pt_frame((p * np.arange(1.0, n + 1.0)) @ np.linalg.inv(p))
    unitary = random_unitary(n, rng)
    h_off = unitary @ h_pt @ unitary.conj().T
    assert pt_frame(h_off) is None
    return h_pt, h_off, unitary


@pytest.mark.parametrize("n", DIMS)
def test_spectral_objects_from_the_frame_factors_match_the_complex_path(n, linalg_counter):
    # eta, rho, h and C from the one SVD W = U Sigma V^H of the eigenvectors,
    # against phi phi^dagger, eigh, a complex product and a complex solve on
    # the complex path's phi, written out here. Two inputs (frame_and_rotated):
    # H = S Y S^dagger with J, and its rotated image with the explicit parity
    # V J V^dagger (one complex eig and svd, and the complex solve for C)
    rng = np.random.default_rng(800 + n)
    h_pt, h_off, unitary = frame_and_rotated(n, rng)
    parity = unitary @ np.eye(n)[::-1] @ unitary.conj().T
    parity = Operator((parity + parity.conj().T) / 2)
    for h, P, dtype in ((h_pt, IndexReversal(n), float), (h_off, parity, complex)):
        H = Operator(h)
        linalg_counter.clear()
        linalg_counter.dtypes.clear()
        sys = biorthonormal_eigensystem(H)
        eta = spectral_metric(sys)
        h_eq, rho = equivalent_hermitian(H, eta)
        c, _, invol = c_operator(eta, P)
        # one eig and one SVD; no inv or eigh, and a solve only for the explicit parity
        solves = {} if dtype is float else {"solve": 1}
        assert dict(linalg_counter) == {"eig": 1, "svd": 1, **solves}
        assert linalg_counter.dtypes["eig"] == linalg_counter.dtypes["svd"] == [np.dtype(dtype)]
        assert sys.in_frame is (dtype is float)
        w, v, phi, sv = eigensystem_reference(h)
        cond = sv[0] / sv[-1]
        rounding = 256 * n * EPS * cond**2
        eta_ref = phi @ phi.conj().T
        eta_ref = (eta_ref + eta_ref.conj().T) / 2
        rho_ref, _ = herm_function_reference(eta_ref, np.sqrt)
        rho_inv_ref, _ = herm_function_reference(eta_ref, lambda w: 1 / np.sqrt(w))
        h_ref = rho_ref @ h @ rho_inv_ref
        c_ref = np.linalg.solve(eta_ref, P.mat)
        for got, ref in ((eta.mat, eta_ref), (rho.mat, rho_ref), (h_eq.mat, h_ref), (c.mat, c_ref)):
            assert max_norm(got - ref) <= rounding * max_norm(ref)
        assert abs(invol - max_norm(c_ref @ c_ref - np.eye(n))) <= rounding * max_norm(c_ref) ** 2
        assert np.array_equal(eta.mat, eta.mat.conj().T) and np.array_equal(rho.mat, rho.mat.conj().T)
        for got, ref in zip(eta.eig_range, (sv[0] ** -2, sv[-1] ** -2)):
            assert abs(got - ref) <= 64 * n * EPS * cond * ref
        # the defects were taken on the eig's W; the complex path's, and those of
        # the vectors formed from U Sigma V^H, are rounding as well
        psi_formed, phi_formed = formed_vectors(sys)
        for got, ref in ((psi_formed, v), (phi_formed, phi)):
            assert max_norm(got - ref) <= 256 * n * EPS * cond * max_norm(ref)
        gram_ref = max_norm(phi.conj().T @ v - np.eye(n))
        complete_ref = max_norm(v @ phi.conj().T - np.eye(n))
        gram_formed = max_norm(phi_formed.conj().T @ psi_formed - np.eye(n))
        complete_formed = max_norm(psi_formed @ phi_formed.conj().T - np.eye(n))
        assert abs(sys.gram_defect - gram_ref) <= rounding
        assert abs(sys.completeness_defect - complete_ref) <= rounding
        for defect in (sys.gram_defect, sys.completeness_defect, gram_ref, complete_ref,
                       gram_formed, complete_formed):
            assert defect <= 64 * n * EPS * cond


@pytest.mark.parametrize("n", DIMS)
def test_symmetry_rescaled_metric_from_the_frame_factors(n, linalg_counter):
    # sum_n s_n |phi_n><phi_n| formed from the SVD factors, on the frame route
    # and on the complex route, with no factorization: s = 1 is spectral_metric,
    # and random s is phi diag(s) phi^dagger on the complex path's phi
    rng = np.random.default_rng(900 + n)
    for h, in_frame in zip(frame_and_rotated(n, rng)[:2], (True, False)):
        sys = biorthonormal_eigensystem(Operator(h))
        assert sys.in_frame is in_frame
        eta = spectral_metric(sys)
        s = rng.uniform(0.5, 2.0, n)
        linalg_counter.clear()
        unit, scaled = symmetry_rescaled_metric(sys, np.ones(n)), symmetry_rescaled_metric(sys, s)
        assert sum(linalg_counter.values()) == 0
        assert max_norm(unit.mat - eta.mat) <= 64 * n * EPS * max_norm(eta.mat)
        _, _, phi, sv = eigensystem_reference(h)
        ref = (phi * s) @ phi.conj().T
        assert max_norm(scaled.mat - ref) <= 256 * n * EPS * (sv[0] / sv[-1]) ** 2 * max_norm(ref)
        assert np.array_equal(scaled.mat, scaled.mat.conj().T)


def test_equivalent_hermitian_of_an_h_without_a_frame_takes_the_complex_product():
    # a metric with its frame eigensystem, given an H that is not PT-symmetric:
    # h = rho H rho^-1 cannot be formed in the frame, and is formed as the product
    rng = np.random.default_rng(9)
    n = 16
    p = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    eta = spectral_metric(biorthonormal_eigensystem(
        Operator(from_pt_frame((p * np.arange(1.0, n + 1.0)) @ np.linalg.inv(p)))))
    other = random_complex(n, rng)
    assert pt_frame(other) is None
    h, rho = _equivalent_hermitian(Operator(other), eta, 0.0, 1.0, Tolerance())
    rho_inv = from_pt_frame(np.linalg.inv(to_pt_frame(rho.mat)))
    assert max_norm(h.mat - rho.mat @ other @ rho_inv) <= 1e-12 * max_norm(h.mat)


def test_cond_cap_flips_where_the_complex_svd_flips():
    # the gain/loss dimer [[i g, 1], [1, -i g]] (J = sigma_x) has the real
    # spectrum +-sqrt(1 - g^2) and eigenvector condition sqrt((1 + g)/(1 - g)),
    # which crosses COND_CAP = 1e8 between the last two floats below the
    # exceptional point g = 1. The reference is the complex path on the same
    # frame eig: the complex eigenvectors S v with unit columns, gauge-fixed,
    # and their complex SVD.
    refused = []
    for g in [0.5, 1 - 1e-12, 1 - 1e-15] + [1 - k * EPS / 2 for k in (8, 4, 3, 2, 1)]:
        h = np.array([[1j * g, 1.0], [1.0, -1j * g]])
        w, v = np.linalg.eig(pt_frame(h))
        assert np.isrealobj(w)  # the unbroken phase, up to the last float
        v = from_pt_frame_columns(v[:, np.argsort(w)])
        v = v / np.linalg.norm(v, axis=0)
        v = v / (v[0] / np.abs(v[0]))
        sv = np.linalg.svd(v, compute_uv=False)
        expect = bool(sv[0] / sv[-1] > COND_CAP)
        try:
            biorthonormal_eigensystem(Operator(h))
            got = False
        except DiagonalizabilityError:
            got = True
        assert got is expect, g
        refused.append(got)
    assert refused == [False] * 7 + [True]


def assert_matches_the_reference(sys, reference):
    """sys against gauged_reference's (w, v, phi, sv): the eig's eigenvalues bit
    for bit, the rest within 256 n eps cond^2."""
    w, v, phi, sv = reference
    n = w.size
    rounding = 256 * n * EPS * (sv[0] / sv[-1]) ** 2
    assert np.array_equal(sys.eigenvalues, w)
    for got, ref in zip(formed_vectors(sys), (v, phi)):
        assert max_norm(got - ref) <= rounding * max_norm(ref)
    assert max_norm(sys.factors[1] - sv) <= rounding * sv[0]


def assert_complex_route(linalg_counter, eig_dtype=complex):
    """One eig (of eig_dtype), one complex svd and no inv since the counter was cleared."""
    assert linalg_counter.dtypes["eig"] == [np.dtype(eig_dtype)]
    assert linalg_counter.dtypes["svd"] == [np.dtype(complex)]
    assert linalg_counter["inv"] == 0


def test_eigensystem_without_pt_symmetry_is_unchanged(linalg_counter):
    rng = np.random.default_rng(5)
    h = random_complex(16, rng)
    sys = biorthonormal_eigensystem(Operator(h))
    assert_complex_route(linalg_counter)
    assert not sys.in_frame
    assert_matches_the_reference(sys, eigensystem_reference(h))


def near_pt_inputs(n, rng):
    """Hermitian q, positive definite m and a general h, each PT-symmetric but for a
    PT-odd part of 1e-10 of its size: inside the default Tolerance, above rounding."""
    q = random_pt_hermitian(n, rng)
    z = random_complex(n, rng)
    odd = (z - z[::-1, ::-1].conj()) / 2
    odd = (odd + odd.conj().T) / 2
    q = q + 1e-10 * max_norm(q) / max_norm(odd) * odd
    h = pt_part(random_complex(n, rng)) + 1e-10 * odd
    return q, q @ q + np.eye(n), h


@pytest.mark.parametrize("n", DIMS)
def test_near_pt_inputs_keep_the_complex_path(n, linalg_counter):
    rng = np.random.default_rng(600 + n)
    q, m, h = near_pt_inputs(n, rng)
    e, _ = herm_exp(q)
    assert np.array_equal(e.mat, herm_function_reference(q, lambda w: np.exp(-w))[0])
    sqrt, _ = herm_sqrt_inv(Operator(m))
    assert np.array_equal(sqrt.mat, herm_function_reference(m, np.sqrt)[0])
    assert linalg_counter.complex_calls("eigh") == linalg_counter["eigh"]
    linalg_counter.clear()
    linalg_counter.dtypes.clear()
    sys = biorthonormal_eigensystem(Operator(h))
    assert_complex_route(linalg_counter)
    assert not sys.in_frame
    assert_matches_the_reference(sys, eigensystem_reference(h))


@pytest.mark.parametrize("n", DIMS)
def test_the_caller_tolerance_does_not_open_the_frame(n, linalg_counter):
    # a loose Tolerance (run --tol 1) passes the Hermiticity check of a matrix
    # with no parity, and a tiny PT-odd Q is under the default abs_tol outright;
    # both still take the complex path, bit for bit
    rng = np.random.default_rng(700 + n)
    z = random_complex(n, rng)
    m = z @ z.conj().T + 4 * n * np.eye(n)
    loose = Tolerance(abs_tol=1.0)
    sqrt, _ = herm_sqrt_inv(Operator(m), loose)
    assert np.array_equal(sqrt.mat, herm_function_reference(m, np.sqrt)[0])
    odd = (z - z[::-1, ::-1].conj()) / 2
    tiny = 1e-11 * (odd + odd.conj().T) / max_norm(odd + odd.conj().T)
    e, lam = herm_exp(tiny)
    ref_e, ref_w = herm_function_reference(tiny, lambda w: np.exp(-w))
    assert np.array_equal(e.mat, ref_e) and np.array_equal(lam, np.exp(-ref_w))
    assert linalg_counter.complex_calls("eigh") == linalg_counter["eigh"]


@pytest.mark.parametrize("n", (2, 16))
def test_broken_pt_phase_keeps_its_complex_spectrum(n, linalg_counter):
    # Y real with the conjugate pairs a_k +- i b_k: H = S Y S^dagger is PT-symmetric
    # but its spectrum is not real
    rng = np.random.default_rng(500 + n)
    y = np.zeros((n, n))
    for k in range(0, n, 2):
        a, b = 1.0 + k, 0.5 + 0.1 * k
        y[k : k + 2, k : k + 2] = [[a, b], [-b, a]]
    p = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
    h = from_pt_frame(p @ y @ np.linalg.inv(p))
    linalg_counter.clear()
    linalg_counter.dtypes.clear()
    sys = biorthonormal_eigensystem(Operator(h))
    # the frame eig is real; its complex eigenvalues give the complex
    # eigenvectors S v, which take the complex svd
    assert_complex_route(linalg_counter, eig_dtype=float)
    assert not sys.in_frame
    w, v = np.linalg.eig(pt_frame(h))
    assert_matches_the_reference(sys, gauged_reference(w, from_pt_frame_columns(v)))
    expect = np.linalg.eigvals(h)
    assert max(np.abs(expect - e).min() for e in sys.eigenvalues) <= 1e-12 * n
    # exact conjugate pairs, in (Re, Im) order
    assert np.array_equal(sys.eigenvalues[::2], sys.eigenvalues[1::2].conj())
    assert np.all(sys.eigenvalues[::2].imag < 0)
    assert not sys.spectrum_is_real()
    with pytest.raises(RealityError):
        spectral_metric(sys)
    # the 2x2 gain/loss dimer [[2i, 1], [1, -2i]] with J = sigma_x: E = +-i sqrt(3)
    dimer = biorthonormal_eigensystem(Operator(np.array([[2j, 1.0], [1.0, -2j]])))
    assert max_norm(dimer.eigenvalues - [-1j * np.sqrt(3), 1j * np.sqrt(3)]) <= 8 * EPS


def test_the_frame_projects_away_an_anti_hermitian_part_within_tolerance():
    # as the complex path does: a PT-symmetric anti-Hermitian term of 1e-9 |Q|
    # passes both checks and must not reach the factorization
    rng = np.random.default_rng(6)
    q = random_pt_hermitian(16, rng)
    z = random_complex(16, rng)
    k = pt_part((z - z.conj().T) / 2)
    noisy = q + 1e-9 * max_norm(q) / max_norm(k) * k
    e, lam = herm_exp(q)
    e_noisy, lam_noisy = herm_exp(noisy)
    # lam = e^(-w): its error is w's, max|log lam| = max|w|, times its size
    assert max_norm(lam_noisy - lam) <= 64 * EPS * max_norm(np.log(lam)) * max_norm(lam)
    assert max_norm(e_noisy.mat - e.mat) <= 64 * EPS * max_norm(e.mat)


def test_a_frame_matrix_that_overflows_takes_the_complex_path(linalg_counter):
    # PT-symmetric, Hermitian and finite, but its frame matrix has 1.5e308 + 1.5e308
    q = np.array([[1.5e308, -1.5e308j], [1.5e308j, 1.5e308]])
    h = np.array([[-1.5e308j, 1.5e308], [1.5e308, 1.5e308j]])
    for x in (q, h):
        assert np.array_equal(x, x[::-1, ::-1].conj())
        assert not np.isfinite(to_pt_frame(x)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the complex path's own overflow
        with pytest.raises(NonFiniteError):
            herm_exp(q)
        assert linalg_counter.complex_calls("eigh") == linalg_counter["eigh"] == 1
        # the complex eig of h is what decides: too ill-conditioned, as before
        with pytest.raises(DiagonalizabilityError, match="exceeds cap"):
            biorthonormal_eigensystem(Operator(h))
    # just under the limit the frame is finite and gives the complex path's result
    half = q / 2
    e, lam = herm_exp(half)
    ref_e, ref_w = herm_function_reference(half, lambda w: np.exp(-w))
    assert max_norm(lam - np.exp(-ref_w)) <= 8 * EPS
    assert max_norm(e.mat - ref_e) <= 8 * EPS


def whole_to_pt_frame(x):
    """to_pt_frame as one pass over the whole matrix: the row blocks' reference."""
    a, b = x.real / 2, x.imag / 2
    r = a + a[::-1, ::-1]
    r += b[::-1]
    r -= b[:, ::-1]
    return r


@pytest.mark.parametrize("n", [2, 33, 70])
def test_row_blocked_rules_read_the_whole_matrix_entries(n):
    # the Hermiticity rules, pt_frame's PT-odd rule and frame matrix and
    # from_pt_frame's rows reduce or write ROW_BLOCK rows at a time; each
    # gives the whole-matrix value bit for bit (n = 70 is two full blocks and
    # a partial one)
    rng = np.random.default_rng(n)
    z = random_complex(n, rng)
    half_norm = lambda a, b: max_norm(a / 2 - b / 2)  # noqa: E731
    assert _hermiticity(z) == (max_norm(z), 2 * half_norm(z, z.conj().T))
    assert _hermiticity(z, sign=-1.0) == (max_norm(z), 2 * half_norm(z, -z.conj().T))
    assert np.array_equal(to_pt_frame(z), whole_to_pt_frame(z))
    x = random_pt_hermitian(n, rng)
    assert np.array_equal(pt_frame(x), whole_to_pt_frame(x))
    assert pt_frame(x + 1e-3 * z) is None and pt_frame(z) is None
    y = rng.standard_normal((n, n))
    for start, stop in ((0, n), (0, 1), (n // 2, n), (n // 3, n // 3 + 5)):
        assert np.array_equal(from_pt_frame(y, start, stop), from_pt_frame(y)[start:stop])
    assert np.array_equal(_symmetric_part(y.copy()), y / 2 + y.T / 2)
