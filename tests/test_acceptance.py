"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single PASS/FAIL line with the measured values and the
wall time, then asserts. Two of the checks assert structural facts of the
method alongside their convergence bands:

* the eps-scaling check: for Hermitian H0 and anti-Hermitian H1 the eps^2
  coefficient of e^(-Q) H e^(Q) - H^dagger at Q = eps*Q1 is
  [H1,Q1] + (1/2)[[H0,Q1],Q1] = 0, so the order-1 truncation has no eps^2
  residual term and its slope is 3. The check predicts each truncation's
  leading residual order from the exact multinomial expansion and compares
  the measured slope against that prediction;
* the grid-refinement check: on the uniform grid the discrete commutator
  annihilates the kernel bridge identically off the singular band (the
  discrete d'Alembert identity), so that defect is asserted to sit at
  rounding level. The discretization error lives on the band, and the check
  measures its refinement ratio in weak form, against a smooth test
  function, on the rows away from the steps of v.
"""

import time
from importlib import resources

import numpy as np

from pseudoherm import (
    HomogeneousPair,
    Operator,
    QSeries,
    biorthonormal_eigensystem,
    c_operator,
    curve_slope,
    discretize_schroedinger,
    equivalent_hermitian,
    general_kernel,
    grid_points,
    hermiticity_defect,
    jump_condition_defect,
    kernel_to_matrix,
    master_formula_coefficients,
    master_formula_rhs,
    max_norm,
    metric_intertwiner,
    nested_commutator,
    offdiagonal_commutator_check,
    order_equation_rhs,
    order_residual,
    particular_kernel_q1,
    pseudo_hermiticity_residual,
    random_admissible_split,
    residual_curve,
    solve_q_series,
    spectral_metric,
    step_potential,
    sylvester_solve,
    symmetry_rescaled_metric,
)
from helpers import commuting_gauge, fixed_split, random_diagonalizable, run_cli, toy_2x2


def report(label, ok, detail, elapsed, cap):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {detail} [{elapsed:.2f}s < {cap:.0f}s]")
    assert ok, f"{label}: {detail}"


def test_order_equation_sources():
    cap = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_r2, worst_r3 = 0.0, 0.0
    exact_r1 = True
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        split = random_admissible_split(dim, rng)
        r1 = order_equation_rhs(split, None, 1)
        exact_r1 &= bool(np.array_equal(r1.mat, -2.0 * split.H1.mat))
        q1 = sylvester_solve(split.H0, r1)
        zero = Operator(np.zeros((dim, dim)))
        r2 = order_equation_rhs(split, QSeries((q1,)), 2)
        worst_r2 = max(worst_r2, max_norm(r2.mat))
        r3 = order_equation_rhs(split, QSeries((q1, zero)), 3)
        ref = (1.0 / 12.0) * nested_commutator(split.H0, q1, 3).mat
        worst_r3 = max(worst_r3, max_norm(r3.mat - ref))
    elapsed = time.perf_counter() - t0
    ok = exact_r1 and worst_r2 <= 1e-12 and worst_r3 <= 1e-10 and elapsed < cap
    report(
        "order-equation sources (20 instances, dims 2-8)",
        ok,
        f"R1 = -2H1 exact: {exact_r1}, max|R2| = {worst_r2:.2e} <= 1e-12, "
        f"max|R3 - (1/12)[H0,Q1]_3| = {worst_r3:.2e} <= 1e-10",
        elapsed,
        cap,
    )


def test_master_formula_against_multinomial_expansion():
    cap = 1.0
    t0 = time.perf_counter()
    c3 = master_formula_coefficients(3)
    scalars_ok = c3[0] == -0.5 and c3[1] == 0.0 and abs(c3[2] - 1.0 / 24.0) <= 1e-15
    rng = np.random.default_rng(1002)
    ell = 3
    deg = ell * ell
    nodes = np.linspace(-1.0, 1.0, deg + 1) * 0.9 + 0.05
    vander = np.vander(nodes, deg + 1, increasing=True)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        split = random_admissible_split(dim, rng)
        q1 = sylvester_solve(split.H0, order_equation_rhs(split, None, 1))
        zero = Operator(np.zeros((dim, dim)))
        terms = (q1, zero, zero)
        for m in (1, 2, 3):
            # route A: polynomial coefficient of the collected triple sum
            slotted = tuple(zero if j + 1 == m else terms[j] for j in range(ell))
            vals = np.stack(
                [
                    master_formula_rhs(
                        split.H0,
                        Operator(sum(slotted[j].mat * e ** (j + 1) for j in range(ell))),
                        ell,
                    ).mat.ravel()
                    for e in nodes
                ]
            )
            coeff = np.linalg.solve(vander, vals)[m].reshape(dim, dim)
            seed = split.H1.mat if m == 1 else np.zeros((dim, dim))
            route_a = -2.0 * (seed - coeff)
            # route B: multinomial expansion of the conjugated pencil
            route_b = order_equation_rhs(split, QSeries(terms[: m - 1]) if m > 1 else None, m)
            worst = max(worst, max_norm(route_a - route_b.mat))
    elapsed = time.perf_counter() - t0
    ok = scalars_ok and worst <= 1e-10 and elapsed < cap
    report(
        "collected commutator weights vs multinomial expansion",
        ok,
        f"scalars (-1/2, 0, 1/24) reproduced: {scalars_ok}, "
        f"max route disagreement orders 1-3 = {worst:.2e} <= 1e-10",
        elapsed,
        cap,
    )


def test_metric_series_residual_scaling():
    cap = 5.0
    t0 = time.perf_counter()
    eps = [0.1, 0.05, 0.025, 0.0125]
    split = fixed_split(6, seed=101)
    rng = np.random.default_rng(102)
    zero = Operator(np.zeros((split.dim, split.dim), dtype=complex))
    rounding = 1e-12
    slopes, predicted = {}, {}
    eps2_coeff = None
    for ell in (1, 2, 3):
        # the order-2 gauge is what makes the eps^4 term of the order-3 truncation nonzero
        gauge = {2: commuting_gauge(split, rng, scale=0.4)} if ell == 3 else None
        series = solve_q_series(split, ell, gauge=gauge)
        slopes[ell] = curve_slope(residual_curve(split, series, eps))
        # exact residual coefficients of the truncation: pad Q with zero terms
        padded = QSeries(series.terms + (zero,) * 3)
        coeffs = {
            m: max_norm(order_residual(split, padded, m).mat) for m in range(ell + 1, ell + 4)
        }
        if ell == 1:
            eps2_coeff = coeffs[2]
        predicted[ell] = next((m for m, c in coeffs.items() if c > rounding), None)
    elapsed = time.perf_counter() - t0
    in_band = {
        ell: predicted[ell] is not None
        and predicted[ell] >= ell + 1
        and abs(s - predicted[ell]) <= 0.4
        for ell, s in slopes.items()
    }
    no_eps2 = eps2_coeff <= rounding
    ok = all(in_band.values()) and no_eps2 and elapsed < cap
    report(
        "truncated-series residual scaling",
        ok,
        f"order-1 eps^2 coefficient {eps2_coeff:.1e} <= {rounding:.0e}; "
        + ", ".join(
            f"order {ell}: slope {slopes[ell]:.3f} vs predicted {predicted[ell]} +- 0.4"
            f" ({'ok' if in_band[ell] else 'out of band'})"
            for ell in (1, 2, 3)
        ),
        elapsed,
        cap,
    )


def test_spectral_metric_construction():
    cap = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst_res, worst_herm, worst_spec = 0.0, 0.0, 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 13))
        h, eigs = random_diagonalizable(dim, rng)
        eta = spectral_metric(biorthonormal_eigensystem(h))
        res = pseudo_hermiticity_residual(h, eta)
        worst_res = max(worst_res, res / (1e-8 * max_norm(h.mat) * max_norm(eta.mat)))
        herm, _ = equivalent_hermitian(h, eta)
        hm = herm.mat
        worst_herm = max(worst_herm, max_norm(hm - hm.conj().T) / (1e-8 * max_norm(hm)))
        got = np.sort(np.linalg.eigvalsh((hm + hm.conj().T) / 2))
        worst_spec = max(worst_spec, max_norm(got - eigs))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1.0 and worst_herm <= 1.0 and worst_spec <= 1e-8 and elapsed < cap
    report(
        "biorthonormal metric construction (50 instances, dims 2-12)",
        ok,
        f"residual <= 1e-8*|H||eta| (worst fraction {worst_res:.2e}), "
        f"|h-h^+| <= 1e-8*|h| (worst fraction {worst_herm:.2e}), "
        f"spectrum drift {worst_spec:.2e} <= 1e-8",
        elapsed,
        cap,
    )


def test_step_kernel_closed_form():
    cap = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    K = particular_kernel_q1(step_potential())
    x = rng.uniform(-3, 3, 10000)
    y = rng.uniform(-3, 3, 10000)
    s, t = x + y, x - y
    closed = 0.125j * (np.abs(s + 2) + np.abs(s - 2) - 2 * np.abs(s) - 4) * np.sign(t)
    dev = max_norm(np.asarray(K(x, y)) - closed)
    spot = abs(K(0.5, 0.3) - (-0.2j))
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-12 and spot <= 1e-15 and elapsed < cap
    report(
        "step-potential kernel closed form (10^4 points)",
        ok,
        f"max deviation {dev:.2e} <= 1e-12, |Q1(0.5,0.3) + 0.2i| = {spot:.2e}",
        elapsed,
        cap,
    )


def test_discretized_kernel_consistency():
    cap = 10.0
    t0 = time.perf_counter()
    v = step_potential()
    K = particular_kernel_q1(v)
    rounding = 1e-12
    offband, smooth, steps = {}, {}, {}
    for n in (129, 257):
        split = discretize_schroedinger(v, L=4.0, N=n)
        M = kernel_to_matrix(K, L=4.0, N=n)
        offband[n] = offdiagonal_commutator_check(split, M, band_exclude=2)
        # weak form of [H0,M] + 2H1 against a smooth test function: the
        # delta source sits on the band, where the pointwise defect is O(1/dx)
        h0, h1, m = split.H0.mat, split.H1.mat, M.mat
        xs = grid_points(4.0, n)
        dx = xs[1] - xs[0]
        weak = np.abs((h0 @ m - m @ h0 + 2.0 * h1) @ np.exp(-(xs**2)))
        rows = np.arange(n)
        inner = (rows >= 3) & (rows <= n - 4)
        near_step = np.abs(xs[:, None] - v.breakpoints[None, :]).min(axis=1) <= 2.5 * dx
        smooth[n] = max_norm(weak[inner & ~near_step])
        steps[n] = max_norm(weak[inner & near_step])
    with np.errstate(divide="ignore", invalid="ignore"):
        refine_ratio = float(np.float64(smooth[129]) / np.float64(smooth[257]))
    gauged = general_kernel(
        K,
        HomogeneousPair(
            f=lambda t: 1j * np.sin(t),
            g=lambda s: np.zeros_like(np.asarray(s, dtype=float), dtype=complex),
            c=0.0,
        ),
    )
    xs = np.linspace(-2.5, 2.5, 41)
    j = {d: jump_condition_defect(gauged, v, d, xs) for d in (1e-2, 1e-3)}
    jump_ratio = j[1e-2] / j[1e-3]
    elapsed = time.perf_counter() - t0
    refine_ok = 3.0 <= refine_ratio <= 5.0
    steps_ok = steps[257] < steps[129]
    offband_ok = offband[129] <= rounding and offband[257] <= rounding
    jump_ok = 8.0 <= jump_ratio <= 12.0
    ok = refine_ok and steps_ok and offband_ok and jump_ok and elapsed < cap
    report(
        "discretized commutator and jump-condition convergence",
        ok,
        f"weak defect off the steps N=129: {smooth[129]:.2e}, N=257: {smooth[257]:.2e}, "
        f"ratio {refine_ratio:.2f} vs [3, 5] ({'ok' if refine_ok else 'out of band'}); "
        f"at the steps {steps[129]:.2e} -> {steps[257]:.2e} "
        f"({'decreasing' if steps_ok else 'not decreasing'}); "
        f"off-band defect {offband[129]:.1e}, {offband[257]:.1e} <= {rounding:.0e} "
        f"({'ok' if offband_ok else 'above rounding'}); "
        f"jump defect ratio {jump_ratio:.4f} vs [8, 12] ({'ok' if jump_ok else 'out of band'})",
        elapsed,
        cap,
    )


def test_kernel_hermiticity_classification():
    cap = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    K = particular_kernel_q1(step_potential())

    def valid_pair():
        a, b, d = rng.uniform(-1, 1, 3)
        c = float(rng.uniform(-0.5, 0.5))
        return HomogeneousPair(
            f=lambda t: a * np.cos(t) + b * t**2 + 1j * (d * np.sin(t) - c),
            g=lambda s: a * s**2 + 1j * c * np.ones_like(np.asarray(s, dtype=float)),
            c=c,
        )

    def broken_pair(mode):
        base = valid_pair()
        amp = float(rng.uniform(0.01, 0.5))
        if mode == 0:  # odd real part of f
            return HomogeneousPair(
                f=lambda t: base.f(t) + amp * t, g=base.g, c=base.c
            )
        if mode == 1:  # drifting imaginary part of g
            return HomogeneousPair(
                f=base.f, g=lambda s: base.g(s) + 1j * amp * s, c=base.c
            )
        return HomogeneousPair(  # even imaginary part of f
            f=lambda t: base.f(t) + 1j * amp * np.cos(t), g=base.g, c=base.c
        )

    correct = 0
    for i in range(100):
        expect_valid = i % 2 == 0
        pair = valid_pair() if expect_valid else broken_pair(i % 3)
        kernel = general_kernel(K, pair, validate=False)
        defect = hermiticity_defect(kernel, samples=200, rng=np.random.default_rng(i))
        if (defect <= 1e-10) == expect_valid:
            correct += 1
    elapsed = time.perf_counter() - t0
    ok = correct == 100 and elapsed < cap
    report(
        "kernel Hermiticity classification (50 valid + 50 broken pairs)",
        ok,
        f"{correct}/100 classified correctly at threshold 1e-10",
        elapsed,
        cap,
    )


def test_intertwiner_between_metrics():
    cap = 2.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    worst_rel, worst_comm = 0.0, 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 11))
        h, _ = random_diagonalizable(dim, rng)
        sys_ = biorthonormal_eigensystem(h)
        eta1 = spectral_metric(sys_)
        eta2 = symmetry_rescaled_metric(sys_, rng.uniform(0.5, 2.0, dim))
        a = metric_intertwiner(eta1, eta2, h)
        worst_rel = max(
            worst_rel, max_norm(a.mat.conj().T @ eta1.mat @ a.mat - eta2.mat)
        )
        worst_comm = max(worst_comm, max_norm(a.mat @ h.mat - h.mat @ a.mat))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_comm <= 1e-8 and elapsed < cap
    report(
        "intertwiner between rescaled metrics (20 pairs)",
        ok,
        f"max |A^+ eta1 A - eta2| = {worst_rel:.2e} <= 1e-8, "
        f"max |[A,H]| = {worst_comm:.2e} <= 1e-8",
        elapsed,
        cap,
    )


def test_c_operator_commutes_across_family():
    cap = 1.0
    t0 = time.perf_counter()
    h, p = toy_2x2(theta=np.pi / 6)
    sys_ = biorthonormal_eigensystem(h)
    rng = np.random.default_rng(1009)
    worst_comm = 0.0
    involutions = []
    for _ in range(5):
        eta = symmetry_rescaled_metric(sys_, rng.uniform(0.4, 2.5, 2))
        _, comm, invol = c_operator(eta, p, H=h)
        worst_comm = max(worst_comm, comm)
        involutions.append(invol)
    elapsed = time.perf_counter() - t0
    ok = worst_comm <= 1e-10 and elapsed < cap
    report(
        "C-operator commutation on the 2x2 family",
        ok,
        f"max |[C,H]| = {worst_comm:.2e} <= 1e-10; involution defects "
        + "/".join(f"{d:.2e}" for d in involutions)
        + " (reported only)",
        elapsed,
        cap,
    )


def test_cli_end_to_end_deterministic(tmp_path):
    cap = 30.0
    t0 = time.perf_counter()
    spec = str(resources.files("pseudoherm") / "specs" / "step_potential.json")
    outputs = []
    codes = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = run_cli(["run", spec, "--out", str(out), "--seed", "0"])
        codes.append(proc.returncode)
        outputs.append((out / "step_potential_report.json").read_bytes())
    elapsed = time.perf_counter() - t0
    identical = outputs[0] == outputs[1]
    ok = codes == [0, 0] and identical and elapsed < cap
    report(
        "configured pipeline end to end",
        ok,
        f"exit codes {codes}, byte-identical reports: {identical}",
        elapsed,
        cap,
    )
