import math
import sys

import numpy as np
import pytest

from pseudoherm import (
    ConsistencyError,
    DomainError,
    GaugeError,
    NonFiniteError,
    ObstructionError,
    Operator,
    ShapeError,
    QSeries,
    SplitHamiltonian,
    StructureError,
    Tolerance,
    commutator,
    curve_slope,
    discretize_schroedinger,
    master_formula_coefficients,
    master_formula_rhs,
    max_norm,
    metric_from_series,
    nested_commutator,
    order_equation_rhs,
    order_residual,
    pseudo_hermiticity_residual,
    random_admissible_split,
    residual_curve,
    solve_q_series,
    step_potential,
    sylvester_solve,
)
from pseudoherm import operators, perturbation

from helpers import commuting_gauge, fixed_split, positive_definite


def test_split_structure_validation():
    good_h0 = np.diag([1.0, 2.0])
    good_h1 = np.array([[0.0, 1j], [1j, 0.0]])
    SplitHamiltonian(Operator(good_h0), Operator(good_h1), 0.1)
    with pytest.raises(StructureError):
        SplitHamiltonian(Operator(np.array([[1.0, 1.0], [0.0, 2.0]])), Operator(good_h1), 0.1)
    with pytest.raises(StructureError):
        SplitHamiltonian(Operator(good_h0), Operator(np.eye(2)), 0.1)


def test_tridiagonal_split_validation():
    split = SplitHamiltonian.tridiagonal(2.0, -1.0, [0.0, 1.0, -1.0], 0.1)
    assert split.dim == 3
    assert split.h0_norm() == 2.0 and split.h1_norm() == 1.0
    with pytest.raises(StructureError):  # i diag(v) is anti-Hermitian only for real v
        SplitHamiltonian.tridiagonal(2.0, -1.0, [0.0, 1j, 0.0], 0.1)
    with pytest.raises(StructureError):  # a complex stencil is not Hermitian
        SplitHamiltonian.tridiagonal(2.0, -1.0j, [0.0, 1.0, 0.0], 0.1)
    with pytest.raises(ValueError, match="finite"):
        SplitHamiltonian.tridiagonal(2.0, -1.0, [0.0, np.nan, 0.0], 0.1)
    with pytest.raises(ValueError, match="finite"):
        SplitHamiltonian.tridiagonal(np.inf, -1.0, [0.0, 1.0, 0.0], 0.1)
    with pytest.raises(ShapeError):
        SplitHamiltonian.tridiagonal(2.0, -1.0, [[0.0, 1.0]], 0.1)


def test_split_total():
    split = fixed_split(4, seed=1)
    t = split.total()
    assert np.array_equal(t.mat, split.H0.mat + split.epsilon * split.H1.mat)
    t2 = split.at(0.5).total()
    assert np.array_equal(t2.mat, split.H0.mat + 0.5 * split.H1.mat)


def test_qseries_validation_and_sum():
    q1 = Operator(np.diag([1.0, -1.0]))
    q2 = Operator(np.diag([0.5, 0.5]))
    s = QSeries((q1, q2))
    assert s.order == 2
    assert np.allclose(s.summed(0.1).mat, 0.1 * q1.mat + 0.01 * q2.mat, rtol=0, atol=1e-17)
    with pytest.raises(StructureError):
        QSeries((Operator(np.array([[0.0, 1.0], [0.0, 0.0]])),))


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_hermiticity_rules_near_the_float_limit(big):
    # m - m^dagger overflows here, and so does R + R^dagger for R = i m; each
    # check must still name its rule
    m = Operator(np.array([[1.0, big], [-big, 2.0]]))
    with pytest.raises(StructureError, match="Q_1 is not Hermitian"):
        QSeries((m,))
    with pytest.raises(StructureError, match="H0 must be Hermitian"):
        sylvester_solve(m, Operator(np.zeros((2, 2))))
    with pytest.raises(StructureError, match="source R must be anti-Hermitian"):
        sylvester_solve(Operator(np.diag([1.0, 2.0])), Operator(1j * m.mat))


def test_master_formula_collected_scalars():
    # order-by-order the triple sum collapses to -1/2, 0, 1/24
    c1 = master_formula_coefficients(1)
    assert c1[0] == -0.5
    c2 = master_formula_coefficients(2)
    assert c2[0] == -0.5 and c2[1] == 0.0
    c3 = master_formula_coefficients(3)
    assert abs(c3[2] - 1.0 / 24.0) <= 1e-15  # binary rounding in the j-sum
    assert c3[0] == -0.5 and c3[1] == 0.0


def test_master_formula_rhs_matches_collected_form():
    rng = np.random.default_rng(21)
    split = random_admissible_split(5, rng)
    q = Operator(np.diag(rng.uniform(-1, 1, 5)))
    for ell in (1, 2, 3, 4):
        coeffs = master_formula_coefficients(ell)
        expected = np.zeros((5, 5), dtype=complex)
        for k, c in enumerate(coeffs, start=1):
            expected = expected + c * nested_commutator(split.H0, q, k).mat
        got = master_formula_rhs(split.H0, q, ell).mat
        assert max_norm(got - expected) < 1e-12 * max(1.0, max_norm(expected))


def test_order_one_rhs_is_minus_two_h1_exactly():
    rng = np.random.default_rng(22)
    for _ in range(5):
        split = random_admissible_split(int(rng.integers(2, 7)), rng)
        r1 = order_equation_rhs(split, None, 1)
        assert np.array_equal(r1.mat, -2.0 * split.H1.mat)


def test_order_two_rhs_vanishes():
    rng = np.random.default_rng(23)
    split = random_admissible_split(5, rng)
    q1 = sylvester_solve(split.H0, order_equation_rhs(split, None, 1))
    r2 = order_equation_rhs(split, QSeries((q1,)), 2)
    assert max_norm(r2.mat) < 1e-12 * max(1.0, max_norm(q1.mat)) ** 2


def test_order_three_rhs_closed_form():
    # with Q2 = 0 the order-3 source collapses to (1/12) [H0, Q1]_3
    rng = np.random.default_rng(24)
    split = random_admissible_split(4, rng)
    q1 = sylvester_solve(split.H0, order_equation_rhs(split, None, 1))
    zero = Operator(np.zeros((4, 4)))
    r3 = order_equation_rhs(split, QSeries((q1, zero)), 3)
    ref = (1.0 / 12.0) * nested_commutator(split.H0, q1, 3).mat
    assert max_norm(r3.mat - ref) < 1e-10 * max(1.0, max_norm(ref))


def test_order_equation_rhs_needs_all_lower_terms():
    split = fixed_split(3, seed=2)
    with pytest.raises(DomainError):
        order_equation_rhs(split, None, 2)


def test_order_residual_definition():
    # m = 1: coefficient of eps in e^{-Q} H e^{Q} - H^dagger is 2 H1 + [H0, Q1]
    split = fixed_split(4, seed=3)
    q1 = Operator(np.diag([0.3, -0.1, 0.2, 0.0]))
    res = order_residual(split, QSeries((q1,)), 1)
    expected = 2.0 * split.H1.mat + commutator(split.H0.mat, q1.mat)
    assert max_norm(res.mat - expected) < 1e-14


def test_sylvester_solve_properties():
    rng = np.random.default_rng(25)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        split = random_admissible_split(dim, rng)
        r = order_equation_rhs(split, None, 1)
        q = sylvester_solve(split.H0, r)
        assert max_norm(q.mat - q.mat.conj().T) < 1e-14
        lhs = commutator(split.H0.mat, q.mat)
        assert max_norm(lhs - r.mat) < 1e-11 * max(1.0, max_norm(r.mat))
        # minimal gauge: no component along the H0-commutant
        e, u = np.linalg.eigh(split.H0.mat)
        qt = u.conj().T @ q.mat @ u
        assert max_norm(np.diag(qt)) < 1e-11


def test_sylvester_structure_checks():
    h0 = Operator(np.diag([1.0, 2.0]))
    with pytest.raises(StructureError):
        sylvester_solve(Operator(np.array([[1.0, 1.0], [0.0, 2.0]])), Operator(np.zeros((2, 2))))
    with pytest.raises(StructureError):
        sylvester_solve(h0, Operator(np.eye(2)))  # Hermitian source


def test_sylvester_obstruction_on_degenerate_source():
    h0 = Operator(np.diag([1.0, 1.0, 2.0]))
    r = np.zeros((3, 3), dtype=complex)
    r[0, 1], r[1, 0] = 1j, 1j  # anti-Hermitian, lives inside the degenerate block
    with pytest.raises(ObstructionError) as err:
        sylvester_solve(h0, Operator(r))
    assert "degenerate" in str(err.value)


def test_sylvester_degenerate_but_unobstructed():
    h0 = Operator(np.diag([1.0, 1.0, 2.0]))
    r = np.zeros((3, 3), dtype=complex)
    r[0, 2], r[2, 0] = 1.0, -1.0
    q = sylvester_solve(h0, Operator(r))
    assert max_norm(commutator(h0.mat, q.mat) - r) < 1e-12


def test_solve_q_series_residuals_vanish():
    rng = np.random.default_rng(26)
    split = random_admissible_split(6, rng, parity=True)
    series = solve_q_series(split, 3)
    assert series.order == 3
    scale = max(1.0, max_norm(split.H0.mat))
    for m in (1, 2, 3):
        assert max_norm(order_residual(split, series, m).mat) < 1e-9 * scale
    assert [e["gauge"] for e in series.gauge_log] == ["minimal"] * 3
    # Q2 = 0 comes out of the minimal gauge automatically
    assert max_norm(series.terms[1].mat) < 1e-12


def _random_hermitian_terms(dim, count, rng):
    terms = []
    for _ in range(count):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        terms.append(Operator((a + a.conj().T) / 2))
    return tuple(terms)


def test_q_m_enters_its_order_only_through_h0_commutator():
    # R_m and the solve's one-pass check both rest on this identity; the
    # terms are arbitrary Hermitian matrices, not a solution
    split = fixed_split(5, seed=12)
    terms = _random_hermitian_terms(5, 4, np.random.default_rng(34))
    zero = Operator(np.zeros((5, 5)))
    for m in (1, 2, 3, 4):
        full = order_residual(split, QSeries(terms[:m]), m).mat
        without = order_residual(split, QSeries(terms[: m - 1] + (zero,)), m).mat
        got = full - commutator(split.H0.mat, terms[m - 1].mat)
        assert max_norm(got - without) <= 1e-12 * max(1.0, max_norm(full))


def test_order_equation_rhs_is_the_residual_without_q_m():
    # skipping the chains through Q_m equals multiplying by a zero Q_m
    split = fixed_split(5, seed=13)
    series = solve_q_series(split, 4)
    zero = Operator(np.zeros((5, 5)))
    for m in (1, 2, 3, 4):
        lower = QSeries(series.terms[: m - 1]) if m > 1 else None
        padded = QSeries(series.terms[: m - 1] + (zero,))
        rhs = order_equation_rhs(split, lower, m).mat
        assert np.array_equal(rhs, -order_residual(split, padded, m).mat)


def test_solve_q_series_records_its_order_checks():
    split = fixed_split(5, seed=14)
    series = solve_q_series(split, 3)
    assert len(series.order_checks) == 3
    for m, (residual, bound) in enumerate(series.order_checks, start=1):
        assert residual <= bound
        assert max_norm(order_residual(split, series, m).mat) <= bound
    assert QSeries(series.terms).order_checks == ()
    assert QSeries(series.terms) == series  # not part of the series' value


@pytest.mark.parametrize("bad_order", [1, 3])
def test_solve_q_series_post_solve_check_fires(monkeypatch, bad_order):
    # a solver that misses the last order's equation by 0.1 % must be caught
    # there (a miss at a lower order would already spoil the next source)
    real = perturbation._sylvester
    calls = []

    def off_by_a_little(eigensystem, r, r_norm, tol, sign):
        q = real(eigensystem, r, r_norm, tol, sign)
        calls.append(1)
        return 1.001 * q if len(calls) == bad_order else q

    monkeypatch.setattr(perturbation, "_sylvester", off_by_a_little)
    with pytest.raises(ConsistencyError) as err:
        solve_q_series(fixed_split(5, seed=15), bad_order)
    assert f"order-{bad_order} residual" in str(err.value)
    assert "after solve" in str(err.value)


def test_solve_q_series_gauge_hook():
    rng = np.random.default_rng(27)
    split = fixed_split(5, seed=4)
    g2 = commuting_gauge(split, rng)
    series = solve_q_series(split, 3, gauge={2: g2})
    assert series.gauge_log[1]["gauge"] == "minimal+custom"
    assert series.gauge_log[1]["custom_norm"] == max_norm(g2.mat)
    # the gauged series still solves every order equation
    for m in (1, 2, 3):
        res = max_norm(order_residual(split, series, m).mat)
        assert res < 1e-9 * max(1.0, max_norm(split.H0.mat)) * max(
            1.0, max(max_norm(t.mat) for t in series.terms) ** m
        )


def test_solve_q_series_rejects_bad_gauge():
    split = fixed_split(4, seed=5)
    not_herm = Operator(np.array(np.triu(np.ones((4, 4)), 1), dtype=complex))
    with pytest.raises(GaugeError):
        solve_q_series(split, 2, gauge={2: not_herm})
    rng = np.random.default_rng(28)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    non_commuting = Operator((a + a.conj().T) / 2)
    with pytest.raises(GaugeError):
        solve_q_series(split, 2, gauge={2: non_commuting})



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gauge_check_near_the_float_limit():
    # g - g^dagger overflows at entries +-1e308; the Hermiticity check halves
    # before it subtracts, so the gauge is refused as non-Hermitian, with no
    # overflow warning and no NonFiniteError
    split = fixed_split(3, seed=5)
    g = np.zeros((3, 3), dtype=complex)
    g[0, 1] = g[1, 0] = 1e308
    g[0, 2], g[2, 0] = 1e308, -1e308
    with pytest.raises(GaugeError, match="not Hermitian"):
        solve_q_series(split, 1, gauge={1: Operator(g)})

def test_solve_q_series_rejects_bad_order():
    with pytest.raises(DomainError):
        solve_q_series(fixed_split(3, seed=6), 0)


def test_generic_split_obstructed_at_order_three():
    # without parity structure the order-3 solvability condition generically fails
    rng = np.random.default_rng(29)
    hits = 0
    for _ in range(5):
        split = random_admissible_split(5, rng, parity=False)
        try:
            solve_q_series(split, 3)
        except ObstructionError:
            hits += 1
    assert hits >= 4


def test_parity_split_solvable_to_order_five():
    rng = np.random.default_rng(30)
    split = random_admissible_split(6, rng, parity=True)
    series = solve_q_series(split, 5)
    assert series.order == 5
    # even orders stay zero in the minimal gauge
    assert max_norm(series.terms[1].mat) < 1e-12
    assert max_norm(series.terms[3].mat) < 1e-10


def test_metric_from_series_positive_definite():
    split = fixed_split(5, seed=7)
    series = solve_q_series(split, 2)
    eta = metric_from_series(series, 0.1)
    assert positive_definite(eta.mat)
    res = pseudo_hermiticity_residual(split.at(0.1).total(), eta)
    assert res < 1e-3  # truncation error, not roundoff
    w = np.linalg.eigvalsh(eta.mat)
    assert np.allclose(eta.eig_range, (w[0], w[-1]), rtol=1e-12, atol=0)


def test_residual_curve_and_scaling_exponent():
    split = fixed_split(5, seed=8)
    series = solve_q_series(split, 2)
    eps = [0.1, 0.05, 0.025, 0.0125]
    curve = residual_curve(split, series, eps)
    assert [e for e, _ in curve] == eps
    rs = [r for _, r in curve]
    assert all(rs[i] > rs[i + 1] for i in range(3))
    slope = curve_slope(curve)
    assert 2.6 < slope < 3.4  # odd-gauge series gains one extra order


def test_scaling_exponent_input_validation():
    split = fixed_split(4, seed=9)
    series = solve_q_series(split, 1)
    with pytest.raises(DomainError):
        curve_slope(residual_curve(split, series, [0.1, 0.05]))
    with pytest.raises(DomainError):
        curve_slope(residual_curve(split, series, [0.05, 0.1, 0.2]))


def test_noise_floor_warning_names_the_caller():
    # an exactly commuting pair has zero residual at every epsilon
    split = SplitHamiltonian(Operator(np.diag([1.0, 2.0])), Operator(np.zeros((2, 2))), 0.1)
    series = QSeries((Operator(np.zeros((2, 2))),))
    curve = residual_curve(split, series, [0.1, 0.05, 0.025])
    with pytest.warns(RuntimeWarning) as record:
        curve_slope(curve)
    assert record[0].filename == __file__


def test_solve_q_series_checks_h0_once_before_the_orders(monkeypatch):
    # H0 and H1 pass SplitHamiltonian's default-tolerance checks but fail a
    # tighter one: the H0 rule, checked before the order loop, reports first,
    # ahead of the order-1 source's anti-Hermiticity
    h0 = np.array([[1.0, 1e-12], [0.0, 2.0]])
    h1 = np.array([[0.0, 1.0], [-1.0 + 1e-12, 0.0]])
    split = SplitHamiltonian(Operator(h0), Operator(h1), 0.1)
    tight = Tolerance(1e-15, 1e-15)
    with pytest.raises(StructureError, match="H0 must be Hermitian"):
        solve_q_series(split, 1, tol=tight)
    seen = []
    check = perturbation._check_h0
    monkeypatch.setattr(perturbation, "_check_h0", lambda h, tol: seen.append(h) or check(h, tol))
    solve_q_series(fixed_split(5, seed=3), 3)
    assert len(seen) == 1


def test_qseries_keeps_each_terms_norm_and_defect():
    # the series measures each term once and keeps both numbers: they are
    # max_norm(Q_j) and max_norm(Q_j - Q_j^dagger) bit for bit, here on terms
    # whose defects are nonzero but within the Hermiticity rule
    rng = np.random.default_rng(5)
    terms = []
    for scale in (1.0, 1e3, 1e-6):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        noise = 1e-12 * rng.standard_normal((6, 6))
        terms.append(Operator(((a + a.conj().T) / 2 + noise) * scale))
    q = QSeries(tuple(terms))
    assert all(d > 0 for d in q.hermiticity_defects)
    assert q.norms == tuple(max_norm(t.mat) for t in terms)
    assert q.hermiticity_defects == tuple(max_norm(t.mat - t.mat.conj().T) for t in terms)


def test_solve_q_series_checks_each_term_once(monkeypatch):
    # the order sources take the lower terms as they were solved; only the
    # returned QSeries checks that Q_1 .. Q_3 are Hermitian, once each (it was
    # 1 + 2 + 3 = 6 checks when every order wrapped its lower terms in a QSeries)
    term_checks = []
    real = perturbation._hermiticity

    def counted(m, *args):
        if sys._getframe(1).f_code.co_name == "__init__":
            term_checks.append(m)
        return real(m, *args)

    monkeypatch.setattr(perturbation, "_hermiticity", counted)
    q = solve_q_series(fixed_split(6, seed=3), 3)
    assert len(term_checks) == 3
    assert all(seen is term.mat for seen, term in zip(term_checks, q.terms))


def test_solve_q_series_diagonalizes_h0_once(monkeypatch):
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.dtype) or eigh(a))
    split = fixed_split(6, seed=3)
    real = SplitHamiltonian(Operator(split.H0.mat.real), split.H1, split.epsilon)
    for s, dtype in ((split, complex), (real, float)):
        seen.clear()
        solve_q_series(s, 3)  # raises unless every order residual vanishes
        assert seen == [np.dtype(dtype)]  # real arithmetic when H0 has no imaginary part


def test_random_admissible_split_structure():
    rng = np.random.default_rng(31)
    for parity in (False, True):
        split = random_admissible_split(6, rng, parity=parity)
        h0, h1 = split.H0.mat, split.H1.mat
        assert max_norm(h0 - h0.conj().T) < 1e-12
        assert max_norm(h1 + h1.conj().T) < 1e-12
        e, u = np.linalg.eigh(h0)
        assert np.diff(e).min() > 1e-3
        assert max_norm(np.diag(u.conj().T @ h1 @ u)) < 1e-12
    with pytest.raises(DomainError):
        random_admissible_split(1, rng)


def test_parity_split_commutation_relations():
    rng = np.random.default_rng(32)
    dim = 6
    split = random_admissible_split(dim, rng, parity=True)
    # recover the sign pattern from the block structure of H0 and H1
    mask = np.abs(split.H1.mat) > 1e-12
    signs = np.ones(dim)
    reachable = mask[0]
    signs[reachable] = -1.0
    p = np.diag(signs)
    assert max_norm(commutator(split.H0.mat, p)) < 1e-12
    assert max_norm(split.H1.mat @ p + p @ split.H1.mat) < 1e-12


def test_order_residual_matches_hand_expansion():
    # coefficients of e^{-Q} H e^{Q} - H^dagger written out by hand
    split = fixed_split(4, seed=10)
    rng = np.random.default_rng(33)
    terms = []
    for _ in range(3):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        terms.append(Operator((a + a.conj().T) / 2))
    series = QSeries(tuple(terms))
    h0, h1 = split.H0.mat, split.H1.mat
    q1, q2, q3 = (t.mat for t in terms)

    def c(a, b):
        return commutator(a, b)

    m1 = 2 * h1 + c(h0, q1)
    m2 = c(h0, q2) + c(h1, q1) + 0.5 * c(c(h0, q1), q1)
    m3 = (
        c(h0, q3)
        + c(h1, q2)
        + 0.5 * (c(c(h0, q1), q2) + c(c(h0, q2), q1))
        + 0.5 * c(c(h1, q1), q1)
        + (1.0 / 6.0) * c(c(c(h0, q1), q1), q1)
    )
    for m, ref in ((1, m1), (2, m2), (3, m3)):
        got = order_residual(split, series, m).mat
        assert max_norm(got - ref) < 1e-12 * max(1.0, max_norm(ref))


def test_full_conjugation_residual_consistent_with_orders():
    # at small eps the exact conjugation residual is dominated by the
    # first unsolved order of the series
    split = fixed_split(4, seed=11)
    series = solve_q_series(split, 2)
    eps = 1e-2
    q = series.summed(eps)
    w, u = np.linalg.eigh(q.mat)
    em = (u * np.exp(-w)) @ u.conj().T
    ep = (u * np.exp(w)) @ u.conj().T
    h = split.at(eps).total().mat
    exact = max_norm(em @ h @ ep - h.conj().T)
    padded = QSeries(series.terms + (Operator(np.zeros((4, 4))),))
    r3 = max_norm(order_residual(split, padded, 3).mat)
    predicted = r3 * eps**3
    assert abs(exact - predicted) < 0.05 * predicted


def _half_broken_split():
    # H1 is anti-Hermitian within the default tolerance but not within 1e-15
    h1 = np.array([[0.0, 1.0], [-1.0 + 1e-12, 0.0]])
    return SplitHamiltonian(Operator(np.diag([1.0, 2.0])), Operator(h1), 0.1)


def _grid16():
    return discretize_schroedinger(step_potential(), 4.0, 16, epsilon=0.1)


# each raise site as (call, error class, message); none is on a run's path
ERROR_SITES = {
    "coefficients_ell_0": (lambda: master_formula_coefficients(0), DomainError, "ell must be >= 1"),
    "rhs_ell_0": (
        lambda: master_formula_rhs(Operator(np.eye(2)), Operator(np.eye(2)), 0),
        DomainError, "ell must be >= 1"),
    "rhs_shapes": (
        lambda: master_formula_rhs(Operator(np.eye(2)), Operator(np.eye(3)), 1),
        ShapeError, "dimension mismatch"),
    "order_residual_m_0": (
        lambda: order_residual(fixed_split(3, seed=0), QSeries((Operator(np.eye(3)),)), 0),
        DomainError, "m must be >= 1"),
    "order_residual_m_past_the_series": (
        lambda: order_residual(fixed_split(3, seed=0), QSeries((Operator(np.eye(3)),)), 2),
        DomainError, "order 2 exceeds available terms"),
    "order_equation_rhs_source": (
        lambda: order_equation_rhs(_half_broken_split(), None, 1, Tolerance(1e-15, 1e-15)),
        StructureError, "source R must be anti-Hermitian: defect "),
    "qseries_empty": (lambda: QSeries(()), DomainError, "a QSeries needs at least one term"),
    # i I as an array would be read as A_1, so Q_1 = i (i I) = -I; as an Operator it is refused
    "qseries_complex_array": (
        lambda: QSeries((1j * np.eye(3),)), StructureError, "all Operators or all real arrays"),
    "qseries_arrays_and_operators": (
        lambda: QSeries((np.zeros((3, 3)), Operator(np.eye(3)))),
        StructureError, "all Operators or all real arrays"),
    "qseries_operators_of_two_sizes": (
        lambda: QSeries((Operator(np.eye(3)), Operator(np.eye(4)))),
        ShapeError, "square and of one size"),
    "qseries_arrays_of_two_sizes": (
        lambda: QSeries((np.zeros((3, 3)), np.zeros((4, 4)))), ShapeError, "square and of one size"),
    "qseries_non_square_array": (lambda: QSeries((np.zeros((3, 4)),)), ShapeError, "square and of one size"),
    # 8 x 8 terms on a 16-point grid
    "order_residual_shapes": (
        lambda: order_residual(_grid16(), QSeries((Operator(np.eye(8)),)), 1),
        ShapeError, "dimension mismatch"),
    "order_equation_rhs_shapes": (
        lambda: order_equation_rhs(_grid16(), QSeries((Operator(np.eye(8)),) * 2), 3),
        ShapeError, "dimension mismatch"),
    "gauge_shapes": (
        lambda: solve_q_series(_grid16(), 2, gauge={1: Operator(np.eye(8))}),
        ShapeError, "dimension mismatch"),
    "sylvester_shapes": (
        lambda: sylvester_solve(Operator(np.eye(2)), Operator(np.zeros((3, 3)))),
        ShapeError, "dimension mismatch"),
}


@pytest.mark.parametrize("case", sorted(ERROR_SITES))
def test_perturbation_raise_sites(case):
    call, error, message = ERROR_SITES[case]
    with pytest.raises(error, match=message):
        call()


def test_solve_q_series_judges_the_source_by_the_narrower_rule():
    # the solve judges the source once, at |R_1|, and names the defect and the bound
    with pytest.raises(StructureError, match="source R must be anti-Hermitian: defect ") as err:
        solve_q_series(_half_broken_split(), 1, tol=Tolerance(1e-15, 1e-15))
    assert str(err.value).endswith(f"exceeds {Tolerance(1e-15, 1e-15).bound(2.0):.3e}")


def test_solve_q_series_measures_each_source_once(monkeypatch):
    # per order, R_m's anti-Hermiticity defect and its max-norm are each
    # taken once, wherever the rule runs; they were taken twice and four
    # times when the solve checked the source against two scales. Both are
    # row-block reductions (_max_norm_rows), each named after what it
    # reduces: R_m, and R_m - R_m^dagger for the defect of i R_m
    split = discretize_schroedinger(step_potential(), 4.0, 129, epsilon=0.1)
    sources, reduced = [], []
    check = perturbation._check_source
    monkeypatch.setattr(perturbation, "_check_source",
                        lambda r, tol, name, sign: sources.append(r) or check(r, tol, name, sign))
    rows = operators._max_norm_rows
    monkeypatch.setattr(operators, "_max_norm_rows",
                        lambda f, n, name: reduced.append(name) or rows(f, n, name))
    solve_q_series(split, 2)
    assert len(sources) == 2 and all(r.any() for r in sources)
    for m in (1, 2):
        assert reduced.count(f"R_{m}") == reduced.count(f"R_{m} - R_{m}^dagger") == 1


@pytest.mark.parametrize("epsilon", [1e200, np.float64(1e200)], ids=["float", "float64"])
def test_an_overflowing_epsilon_power_is_named_for_either_scalar(epsilon):
    # epsilon^2 overflows: a Python float's power raises OverflowError and
    # numpy's float64 returns inf with a RuntimeWarning; both are the one
    # NonFiniteError naming the order and epsilon (residual_curve hands in
    # float64s)
    q = QSeries((Operator(np.eye(2)), Operator(np.eye(2))))
    with pytest.raises(NonFiniteError, match=r"^epsilon\^2 overflows at epsilon = 1e\+200$"):
        metric_from_series(q, epsilon)
