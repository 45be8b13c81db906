"""Fixed points, free energies, and rates against independently coded oracles.

Every oracle here re-derives the quantity with its own expressions, its own
512-node quadrature, and its own root finding (dense-grid bisection or
explicit damped iteration), so agreement is a genuine cross-check rather
than a restatement of the implementation.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from onebit_bounds import replica
from onebit_bounds.numerics import LN2, QuadratureRule, gauss_hermite
from onebit_bounds.replica import (
    SolverError,
    SystemParams,
    csir_rate,
    effective_snr,
    f1_value,
    f2_onebit,
    linear_rates,
    onebit_rates,
    overlap_fixed_points,
    perfect_csi_overlap,
    reff_linear,
    reff_onebit,
    single_pair_capacity,
    solve_qh,
    solve_qh_grid,
    solve_qx_linear,
    solve_qx_onebit,
)
from onebit_bounds.replica import _fixed_points

RULE = gauss_hermite(128)


# --- oracle helpers (independent codings) -----------------------------------

def oracle_nodes(order=512):
    t, w = special.roots_hermite(order)
    return math.sqrt(2.0) * t, w / math.sqrt(math.pi)


O_NODES, O_WEIGHTS = oracle_nodes()


def o_exp_ratio(x):
    x = np.asarray(x, dtype=float)
    return 2.0 * np.exp(-0.5 * x * x) / special.erfcx(x / math.sqrt(2.0))


def o_qlnq(x):
    lq = special.log_ndtr(-np.asarray(x, dtype=float))
    return np.exp(lq) * lq


def o_rhs(q, coef, snr, nodes=O_NODES, weights=O_WEIGHTS):
    ksq = snr / (1.0 + snr * (1.0 - q))
    return coef * ksq / math.pi * float(weights @ o_exp_ratio(math.sqrt(ksq * q) * nodes))


def o_residual(q, coef, snr, nodes=O_NODES, weights=O_WEIGHTS):
    return q / (1.0 - q) - o_rhs(q, coef, snr, nodes, weights)


def o_bisect_root(coef, snr, lo=1e-11, hi=1.0 - 1e-10, n_grid=4000, *,
                  nodes=O_NODES, weights=O_WEIGHTS, width=1e-14, every=False):
    """Dense-grid scan plus bisection to ``width`` (0: adjacent floats).

    Returns the smallest root, or with ``every=True`` the list of all
    bracketed roots in increasing order.
    """
    grid = np.geomspace(lo, hi, n_grid)
    vals = np.array([o_residual(float(g), coef, snr, nodes, weights) for g in grid])
    idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    if every:
        return [o_bisect(coef, snr, float(grid[i]), float(grid[i + 1]), nodes, weights, width)
                for i in idx]
    assert idx.size >= 1, "oracle found no bracket"
    return o_bisect(coef, snr, float(grid[idx[0]]), float(grid[idx[0] + 1]), nodes, weights, width)


def o_bisect(coef, snr, a, b, nodes, weights, width):
    fa = o_residual(a, coef, snr, nodes, weights)
    while b - a > width * max(1.0, abs(a)) and a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        fm = o_residual(m, coef, snr, nodes, weights)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def o_damped(alpha, snr, rule, tol=1e-10, max_iter=10_000):
    """The damped one-bit alternation coded as a scalar loop, one start at a
    time, with the package rule's arithmetic so that it must agree to the
    bit: ``(q, q_hat, converged, last step)`` for the starts 0.01, 0.5, 0.99."""
    out = []
    for q in (0.01, 0.5, 0.99):
        q_hat, step, converged = 0.0, math.inf, False
        for _ in range(max_iter):
            q_hat = o_rhs(q, alpha, snr, rule.nodes, rule.weights)
            if q_hat < 1e-8:
                moment = 1.0 + q_hat - 3.0 * q_hat * q_hat
            else:
                r = math.sqrt(q_hat)
                moment = float(rule.weights @ (np.tanh(r * rule.nodes + q_hat)
                                               * (2.0 + rule.nodes / r)))
            step = moment - 1.0 - q
            if abs(step) <= tol:
                converged = True
                break
            q = min(max(q + 0.5 * step, 0.0), 1.0)
        out.append((q, q_hat, converged, step))
    return out


def o_f1(q, coef, snr, nodes, weights):
    q_hat = q / (1.0 - q)
    a = math.sqrt(snr * q / (1.0 + snr * (1.0 - q)))
    return (-4.0 * coef * float(weights @ o_qlnq(a * nodes))
            + q * q_hat + math.log1p(q_hat) - q_hat)


# --- training-phase overlap ---------------------------------------------------

class TestSolveQh:
    def test_no_training_degenerates(self):
        ov = solve_qh(1.0, 0.0)
        assert ov.q_h == 0.0 and ov.snr_eff == 0.0 and ov.sigma_eff_sq == 2.0

    def test_zero_snr_degenerates(self):
        ov = solve_qh(0.0, 3.0)
        assert ov.q_h == 0.0 and ov.snr_eff == 0.0

    def test_low_snr_law(self):
        ov = solve_qh(0.01, 1.0, RULE)
        assert ov.q_h == pytest.approx(2.0 * 1.0 * 0.01 / math.pi, rel=0.05)

    def test_against_bisection_oracle(self):
        for rho, beta_t in ((10.0, 1.0), (1.0, 0.5), (100.0, 2.0), (0.1, 5.0)):
            got = solve_qh(rho, beta_t, RULE).q_h
            assert got == pytest.approx(o_bisect_root(beta_t, rho), abs=1e-8)

    def test_overlap_record_is_consistent(self):
        ov = solve_qh(10.0, 1.0, RULE)
        assert 0.0 <= ov.q_h < 1.0
        assert ov.q_h_hat == pytest.approx(ov.q_h / (1.0 - ov.q_h), rel=1e-10)
        assert ov.rho_eff == pytest.approx(10.0 * ov.q_h, rel=1e-12)
        assert ov.sigma_eff_sq == pytest.approx(1.0 + 10.0 * (1.0 - ov.q_h), rel=1e-12)
        assert ov.snr_eff == pytest.approx(ov.rho_eff / ov.sigma_eff_sq, rel=1e-12)

    def test_monotone_in_training_and_snr(self):
        betas = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
        rhos = (0.01, 0.1, 1.0, 10.0, 100.0)
        for rho in rhos:
            qs = [solve_qh(rho, bt, RULE).q_h for bt in betas]
            assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        for bt in betas:
            qs = [solve_qh(rho, bt, RULE).q_h for rho in rhos]
            assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    def test_low_snr_effective_snr_band(self):
        for rho in (0.001, 0.01):
            for bt in (0.5, 1.0, 2.0):
                ov = solve_qh(rho, bt, RULE)
                assert 0.95 <= ov.q_h / (2 * bt * rho / math.pi) <= 1.05
                assert 0.9 <= ov.snr_eff / (2 * bt * rho**2 / math.pi) <= 1.1

    def test_all_roots_exposed(self):
        roots, brackets = overlap_fixed_points(1.0, 10.0, RULE)
        assert len(roots) >= 1 and len(brackets) >= 1
        for q in roots:
            assert abs(o_residual(q, 1.0, 10.0)) < 1e-7

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            solve_qh(-1.0, 1.0)
        with pytest.raises(ValueError):
            solve_qh(1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            solve_qh(1.0, 1.0, tol=math.inf)


# Gauss-Hermite rules give one root at every point tried.  This rule has a
# negative weight, which folds the right-hand side back, so at rho = 10 and
# 100 part of the grid below has three roots.
FOLD_RULE = QuadratureRule(nodes=np.array([-5.145, 3.111, -0.052]),
                           weights=np.array([0.8398, -0.5911, 0.7513]), order=3)
GRID_BETAS = np.array([0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0])


class TestBatchedSolve:
    """One batched solve over a training grid against per-point scalar oracles."""

    @pytest.mark.parametrize("rule", [RULE, FOLD_RULE], ids=["gauss-hermite", "fold"])
    @pytest.mark.parametrize("rho", [0.01, 1.0, 10.0, 100.0])
    def test_grid_roots_match_scalar_oracle(self, rule, rho):
        owner, roots, _, _ = _fixed_points(GRID_BETAS, np.full(GRID_BETAS.size, rho), rule)
        for i, bt in enumerate(GRID_BETAS):
            expected = o_bisect_root(bt, rho, nodes=rule.nodes, weights=rule.weights,
                                     width=0.0, every=True)
            assert np.count_nonzero(owner == i) == len(expected), f"beta_t={bt}"
            np.testing.assert_allclose(roots[owner == i], expected, rtol=1e-12, atol=0.0)

    def test_fold_rule_gives_several_roots(self):
        for rho in (10.0, 100.0):
            owner, _, _, _ = _fixed_points(GRID_BETAS, np.full(GRID_BETAS.size, rho), FOLD_RULE)
            assert np.bincount(owner).max() == 3

    @pytest.mark.parametrize("rho", [10.0, 100.0])
    def test_grid_picks_least_free_energy(self, rho):
        # at (10, 2.0) and (100, 1.5) the pick is the middle of three roots
        for ov in solve_qh_grid(rho, GRID_BETAS, FOLD_RULE):
            roots = o_bisect_root(ov.beta_t, rho, nodes=FOLD_RULE.nodes,
                                  weights=FOLD_RULE.weights, width=0.0, every=True)
            energy = [o_f1(q, ov.beta_t, rho, FOLD_RULE.nodes, FOLD_RULE.weights) for q in roots]
            assert ov.q_h == pytest.approx(roots[int(np.argmin(energy))], rel=1e-12)

    def test_grid_matches_pointwise_solves(self):
        grid = solve_qh_grid(10.0, GRID_BETAS, RULE)
        assert grid == [solve_qh(10.0, float(bt), RULE) for bt in GRID_BETAS]

    @pytest.mark.xfail(strict=True, reason="the 64-point scan puts both roots of a close "
                       "pair in one interval, so neither is bracketed")
    def test_close_root_pair_is_bracketed(self):
        roots, _ = overlap_fixed_points(1.75, 100.0, FOLD_RULE)
        assert len(roots) == len(o_bisect_root(1.75, 100.0, nodes=FOLD_RULE.nodes,
                                               weights=FOLD_RULE.weights, every=True))

    def test_point_without_bracket_names_its_training_length(self):
        with pytest.raises(SolverError, match=r"beta_t=1e-13\b"):
            solve_qh_grid(1.0, [1.0, 1e-13, 2.0], RULE)


class TestF1:
    def test_origin_value(self):
        for bt in (0.3, 1.0, 4.0):
            assert f1_value(0.0, 0.0, 2.0, bt, RULE) == pytest.approx(2 * bt * LN2, rel=1e-12)

    def test_stationarity_in_q_hat(self):
        q = 0.37
        h = 1e-7
        d = (f1_value(q, q / (1 - q) + h, 1.5, 1.0, RULE)
             - f1_value(q, q / (1 - q) - h, 1.5, 1.0, RULE)) / (2 * h)
        assert abs(d) < 1e-8

    def test_against_refined_quadrature_oracle(self):
        q, q_hat, rho, bt = 0.5, 1.0, 1.0, 1.0
        a = math.sqrt(rho * q / (rho * (1 - q) + 1.0))
        oracle = (-4.0 * bt * float(O_WEIGHTS @ o_qlnq(a * O_NODES))
                  + q * q_hat + math.log1p(q_hat) - q_hat)
        assert f1_value(q, q_hat, rho, bt, RULE) == pytest.approx(oracle, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            f1_value(1.0, 1.0, 1.0, 1.0, RULE)
        with pytest.raises(ValueError):
            f1_value(0.5, -0.1, 1.0, 1.0, RULE)


class TestEffectiveSnr:
    def test_perfect_and_absent_knowledge(self):
        assert effective_snr(7.0, 1.0) == 7.0
        assert effective_snr(7.0, 0.0) == 0.0

    def test_closed_form_point(self):
        assert effective_snr(10.0, 0.5) == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_monotone_in_overlap(self):
        qs = np.linspace(0, 1, 21)
        vals = [effective_snr(3.0, q) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_snr(1.0, 1.5)


# --- data-phase overlaps -------------------------------------------------------

class TestSolveQxLinear:
    def test_zero_snr(self):
        d = solve_qx_linear(0.0, 1.0, RULE)
        assert d.q_x == 0.0 and d.q_x_hat == 0.0
        assert d.f2_value == pytest.approx(2 * LN2, rel=1e-12)

    def test_low_snr_law(self):
        s = 1e-4
        d = solve_qx_linear(s, 1.0, RULE)
        assert d.q_x == pytest.approx(2 * s / math.pi, rel=0.05)

    def test_against_damped_iteration_oracle(self):
        s, alpha = 1.0, 2.0
        q = 0.1
        for _ in range(100_000):
            q_hat = o_rhs(q, alpha, s)
            q_new = q_hat / (1.0 + q_hat)
            if abs(q_new - q) < 1e-14:
                break
            q = q + 0.3 * (q_new - q)
        d = solve_qx_linear(s, alpha, RULE)
        assert d.q_x == pytest.approx(q, abs=1e-8)
        assert d.q_x_hat == pytest.approx(d.q_x / (1 - d.q_x), rel=1e-10)

    def test_a_coeff_invariant(self):
        d = solve_qx_linear(3.0, 1.5, RULE)
        assert d.a_coeff == pytest.approx(
            math.sqrt(3.0 / (1.0 + 3.0 * (1.0 - d.q_x))), rel=1e-12)


class TestSolveQxOnebit:
    def test_zero_snr(self):
        d = solve_qx_onebit(0.0, 1.0, RULE)
        assert d.q_x == 0.0 and d.q_x_hat == 0.0
        assert d.f2_value == pytest.approx(2 * LN2, rel=1e-12)

    def test_low_snr_law(self):
        s = 1e-4
        d = solve_qx_onebit(s, 1.0, RULE)
        assert d.q_x == pytest.approx(2 * s / math.pi, rel=0.05)

    def test_against_grid_refinement_oracle(self):
        # exhaustive grid on q, oracle-coded tanh moment, bisection refine
        s, alpha = 10.0, 4.0

        def o_moment(q_hat):
            if q_hat < 1e-10:
                return 1.0 + q_hat
            r = math.sqrt(q_hat)
            return float(O_WEIGHTS @ (np.tanh(r * O_NODES + q_hat) * (2.0 + O_NODES / r)))

        def o_res(q):
            return o_moment(o_rhs(q, alpha, s)) - 1.0 - q

        grid = np.linspace(1e-6, 1.0 - 1e-9, 2001)
        vals = np.array([o_res(float(g)) for g in grid])
        idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        assert idx.size >= 1
        a, b = float(grid[idx[0]]), float(grid[idx[0] + 1])
        fa = o_res(a)
        while b - a > 1e-14:
            m = 0.5 * (a + b)
            fm = o_res(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        d = solve_qx_onebit(s, alpha, RULE)
        assert d.q_x == pytest.approx(0.5 * (a + b), abs=1e-6)
        assert 0.0 <= d.q_x <= 1.0

    def test_residuals_below_tolerance(self):
        for s, alpha in ((0.05, 0.5), (1.0, 1.0), (10.0, 4.0)):
            d = solve_qx_onebit(s, alpha, RULE)
            q_hat = o_rhs(d.q_x, alpha, s)
            assert q_hat == pytest.approx(d.q_x_hat, rel=1e-6)

    def test_non_convergence_reports_every_start(self, monkeypatch):
        monkeypatch.setattr(replica, "_MAX_ITER", 1)
        with pytest.raises(SolverError) as exc:
            solve_qx_onebit(10.0, 4.0, RULE)
        residuals = exc.value.diagnostics["last_step_by_start"]
        assert set(residuals) == {0.01, 0.5, 0.99}
        assert all(abs(r) > 0 for r in residuals.values())


ONEBIT_ALPHAS = (0.5, 1.0, 8.0, 256.0)
ONEBIT_SNRS = (1e-9, 1e-4, 0.05, 1.0, 10.0, 1e3)


class TestOnebitBatch:
    """The lockstep one-bit data solve against the scalar damped loop."""

    def test_rows_match_scalar_loop_bit_for_bit(self):
        alpha = np.repeat(ONEBIT_ALPHAS, len(ONEBIT_SNRS))
        snr = np.tile(ONEBIT_SNRS, len(ONEBIT_ALPHAS))
        q, q_hat, converged, step = replica._alternate(alpha, snr, RULE, 1e-10)
        series = 0
        for i, (a, s) in enumerate(zip(alpha, snr)):
            for j, (oq, oqh, ok, ostep) in enumerate(o_damped(a, s, RULE)):
                where = f"alpha={a}, snr={s}, start {j}"
                assert converged[i, j] == ok, where
                if ok:
                    assert (q[i, j], q_hat[i, j]) == (oq, oqh), where
                    series += oqh < 1e-8
                else:
                    assert step[i, j] == ostep, where
        assert series > 0  # the q_hat < 1e-8 branch was taken
        assert not converged.all()  # snr 1e3 at alpha 8 and 256 does not converge

    def test_zero_snr_pairs_give_zero_overlap(self):
        alpha, snr = np.array([1.0, 4.0, 2.0, 8.0]), np.array([0.0, 1.0, 0.0, 10.0])
        q, q_hat, f2 = replica._onebit_overlaps(alpha, snr, RULE, 1e-10)
        assert q[0] == q[2] == q_hat[0] == q_hat[2] == 0.0
        assert f2[2] == f2_onebit(0.0, 0.0, 2.0, 0.0, RULE)
        assert q[1] > 0.0 and q[3] > 0.0
        rates = onebit_rates(alpha, snr, RULE)
        assert rates[0] == rates[2] == 0.0 and (rates[[1, 3]] > 0.0).all()

    def test_batch_matches_pointwise_solves(self, monkeypatch):
        monkeypatch.setattr(replica, "_ONEBIT_PAIRS", 5)  # several chunks, the last partial
        overlaps = solve_qh_grid(10.0, GRID_BETAS, RULE)
        alphas = (1.0, 8.0)
        snr = np.array([ov.snr_eff for ov in overlaps])
        q, q_hat, f2 = replica._onebit_overlaps(np.repeat(alphas, snr.size),
                                                np.tile(snr, len(alphas)), RULE, 1e-10)
        pointwise = [solve_qx_onebit(s, a, RULE) for a in alphas for s in snr]
        assert q.tolist() == [d.q_x for d in pointwise]
        assert q_hat.tolist() == [d.q_x_hat for d in pointwise]
        assert f2.tolist() == [d.f2_value for d in pointwise]
        rates = onebit_rates(np.array(alphas)[:, None], snr, RULE)
        assert rates.tolist() == [reff_onebit(SystemParams(a, 8.0, 10.0, "onebit"), ov, RULE)
                                  for a in alphas for ov in overlaps]

    def test_failing_point_is_named(self, monkeypatch):
        monkeypatch.setattr(replica, "_ONEBIT_PAIRS", 2)  # the failing point in chunk 2
        with pytest.raises(SolverError, match=r"snr_eff=1000, alpha=8\b") as exc:
            onebit_rates([1.0, 4.0, 8.0], [1.0, 10.0, 1e3], RULE)
        expected = {q0: row[3] for q0, row in zip((0.01, 0.5, 0.99), o_damped(8.0, 1e3, RULE))}
        assert exc.value.diagnostics["last_step_by_start"] == expected


class TestF2:
    def test_origin_values(self):
        for alpha in (0.5, 1.0, 3.0):
            assert f1_value(0.0, 0.0, 1.0, alpha, RULE) == pytest.approx(2 * alpha * LN2, rel=1e-12)
            assert f2_onebit(0.0, 0.0, alpha, 1.0, RULE) == pytest.approx(2 * alpha * LN2, rel=1e-12)

    def test_linear_against_refined_quadrature_oracle(self):
        r, r_hat, alpha, s = 0.5, 1.0, 1.0, 1.0
        a = math.sqrt(s / (1 + s * (1 - r)))
        oracle = (-4.0 * alpha * float(O_WEIGHTS @ o_qlnq(a * math.sqrt(r) * O_NODES))
                  + math.log1p(r_hat) - r_hat + r * r_hat)
        assert f1_value(r, r_hat, s, alpha, RULE) == pytest.approx(oracle, abs=1e-9)

    def test_onebit_against_refined_quadrature_oracle(self):
        r, r_hat, alpha, s = 0.6, 2.0, 2.0, 5.0
        a = math.sqrt(s / (1 + s * (1 - r)))
        lncosh = np.logaddexp(r_hat + math.sqrt(r_hat) * O_NODES,
                              -(r_hat + math.sqrt(r_hat) * O_NODES)) - LN2
        oracle = (-4.0 * alpha * float(O_WEIGHTS @ o_qlnq(a * math.sqrt(r) * O_NODES))
                  + r_hat - 2.0 * float(O_WEIGHTS @ lncosh) + r * r_hat)
        assert f2_onebit(r, r_hat, alpha, s, RULE) == pytest.approx(oracle, abs=1e-9)

    def test_stationarity_at_solutions(self):
        h = 1e-7
        for s, alpha in ((1.0, 1.0), (5.0, 4.0)):
            d = solve_qx_linear(s, alpha, RULE)
            grad_q = (f1_value(d.q_x + h, d.q_x_hat, s, alpha, RULE)
                      - f1_value(d.q_x - h, d.q_x_hat, s, alpha, RULE)) / (2 * h)
            grad_qh = (f1_value(d.q_x, d.q_x_hat + h, s, alpha, RULE)
                       - f1_value(d.q_x, d.q_x_hat - h, s, alpha, RULE)) / (2 * h)
            assert abs(grad_q) < 1e-6 and abs(grad_qh) < 1e-6
            o = solve_qx_onebit(s, alpha, RULE)
            hi = min(o.q_x + h, 1.0)
            grad_q = (f2_onebit(hi, o.q_x_hat, alpha, s, RULE)
                      - f2_onebit(o.q_x - h, o.q_x_hat, alpha, s, RULE)) / (hi - o.q_x + h)
            grad_qh = (f2_onebit(o.q_x, o.q_x_hat + h, alpha, s, RULE)
                       - f2_onebit(o.q_x, o.q_x_hat - h, alpha, s, RULE)) / (2 * h)
            assert abs(grad_q) < 1e-6 and abs(grad_qh) < 1e-6


# --- rates ---------------------------------------------------------------------

def o_reff_chain(alpha, rho, beta_t, tx):
    """Full rate chain, independently coded at 512 nodes."""
    q_h = o_bisect_root(beta_t, rho)
    s = rho * q_h / (1.0 + rho * (1.0 - q_h))
    if tx == "linear":
        q = 0.1
        for _ in range(200_000):
            q_hat = o_rhs(q, alpha, s)
            step = q_hat / (1.0 + q_hat) - q
            if abs(step) < 1e-14:
                break
            q += 0.3 * step
        q_hat = o_rhs(q, alpha, s)
        a = math.sqrt(s / (1 + s * (1 - q)))
        f2 = (-4.0 * alpha * float(O_WEIGHTS @ o_qlnq(a * math.sqrt(q) * O_NODES))
              + math.log1p(q_hat) - q_hat + q * q_hat)
    else:
        def moment(q_hat):
            if q_hat < 1e-10:
                return 1.0 + q_hat
            r = math.sqrt(q_hat)
            return float(O_WEIGHTS @ (np.tanh(r * O_NODES + q_hat) * (2.0 + O_NODES / r)))

        q = 0.5
        for _ in range(200_000):
            step = moment(o_rhs(q, alpha, s)) - 1.0 - q
            if abs(step) < 1e-13:
                break
            q = min(max(q + 0.5 * step, 0.0), 1.0)
        q_hat = o_rhs(q, alpha, s)
        a = math.sqrt(s / (1 + s * (1 - q)))
        t = q_hat + math.sqrt(q_hat) * O_NODES
        lncosh = np.logaddexp(t, -t) - LN2
        f2 = (-4.0 * alpha * float(O_WEIGHTS @ o_qlnq(a * math.sqrt(q) * O_NODES))
              + q_hat - 2.0 * float(O_WEIGHTS @ lncosh) + q * q_hat)
    ent = 4.0 * alpha * float(O_WEIGHTS @ o_qlnq(math.sqrt(s) * O_NODES))
    return (f2 + ent) / LN2


def _csir_at_each(alpha, snr_eff, rule, tol):
    """csir_rate at each rho of snr_eff, for the shared argument checks."""
    for rho in snr_eff:
        csir_rate(alpha, rho, rule, tol)


class TestRates:
    def test_no_estimate_means_no_rate(self):
        ov = solve_qh(10.0, 0.0, RULE)
        p = SystemParams(2.0, 8.0, 10.0, "linear")
        assert reff_linear(p, ov, RULE) == 0.0
        assert reff_onebit(SystemParams(2.0, 8.0, 10.0, "onebit"), ov, RULE) == 0.0

    def test_linear_against_independent_chain(self):
        p = SystemParams(1.0, 10.0, 10.0, "linear")
        ov = solve_qh(10.0, 1.0, RULE)
        assert reff_linear(p, ov, RULE) == pytest.approx(
            o_reff_chain(1.0, 10.0, 1.0, "linear"), abs=1e-7)

    def test_onebit_against_independent_chain(self):
        p = SystemParams(4.0, 8.0, 10.0, "onebit")
        ov = solve_qh(10.0, 1.0, RULE)
        assert reff_onebit(p, ov, RULE) == pytest.approx(
            o_reff_chain(4.0, 10.0, 1.0, "onebit"), abs=1e-7)

    def test_onebit_hard_cap(self):
        for alpha in (1.0, 8.0, 64.0, 256.0):
            p = SystemParams(alpha, 8.0, 10.0, "onebit")
            for bt in (0.2, 1.0, 4.0):
                ov = solve_qh(10.0, bt, RULE)
                assert reff_onebit(p, ov, RULE) <= 2.0

    def test_monotone_in_overlap_quality(self):
        p = SystemParams(2.0, 8.0, 10.0, "linear")
        rates = [reff_linear(p, solve_qh(10.0, bt, RULE), RULE)
                 for bt in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("rates", [
        linear_rates, onebit_rates, pytest.param(_csir_at_each, id="csir_rate")])
    @pytest.mark.parametrize("alpha, snr_eff, tol", [
        (1.0, [-0.5, 1.0], 1e-10),
        (-1.0, [0.5], 1e-10),
        (1.0, [0.5], 0.0),
        (1.0, [0.5], math.inf),
    ])
    def test_data_arguments_checked(self, rates, alpha, snr_eff, tol):
        with pytest.raises(ValueError):
            rates(alpha, snr_eff, RULE, tol)


class TestCsirRate:
    def test_vanishes_at_zero_snr(self):
        assert csir_rate(1.0, 0.0, RULE) == 0.0
        assert csir_rate(1.0, 1e-9, RULE) < 1e-6

    def test_against_independent_oracle(self):
        alpha, rho = 1.0, 10.0
        q = 0.1
        for _ in range(200_000):
            q_hat = o_rhs(q, alpha, rho)
            step = q_hat / (1.0 + q_hat) - q
            if abs(step) < 1e-14:
                break
            q += 0.3 * step
        q_hat = o_rhs(q, alpha, rho)
        a_hat = math.sqrt(rho / (1 + rho * (1 - q)))
        oracle = (4.0 * alpha * float(
            O_WEIGHTS @ (o_qlnq(math.sqrt(rho) * O_NODES) - o_qlnq(a_hat * math.sqrt(q) * O_NODES)))
            + math.log1p(q_hat) - q_hat + q * q_hat) / LN2
        assert csir_rate(alpha, rho, RULE) == pytest.approx(oracle, abs=1e-7)

    def test_monotone_in_receiver_ratio(self):
        assert csir_rate(2.0, 10.0, RULE) > csir_rate(1.0, 10.0, RULE)

    def test_reduction_identity_grid(self):
        for alpha in (0.5, 1.0, 4.0):
            for rho in (0.5, 2.0, 10.0):
                p = SystemParams(alpha, 10.0, rho, "linear")
                forced = reff_linear(p, perfect_csi_overlap(rho), RULE)
                assert forced == pytest.approx(csir_rate(alpha, rho, RULE), rel=1e-8)


class TestSinglePairCapacity:
    def test_zero_snr(self):
        assert single_pair_capacity(0.0, RULE) == 0.0

    def test_saturates_at_two_bits(self):
        assert single_pair_capacity(1e8, RULE) == pytest.approx(2.0, abs=1e-3)
        for rho in (0.1, 1.0, 10.0, 100.0):
            assert single_pair_capacity(rho, RULE) <= 2.0

    def test_against_adaptive_quadrature_oracle(self):
        def hb(p):
            if p <= 0.0 or p >= 1.0:
                return 0.0
            return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))

        oracle, err = integrate.quad(
            lambda z: hb(float(special.ndtr(-z))) * math.exp(-z * z / 2) / math.sqrt(2 * math.pi),
            -np.inf, np.inf)
        assert err < 1e-8
        assert single_pair_capacity(1.0, RULE) == pytest.approx(2 * (1 - oracle), abs=1e-8)

    def test_monotone_in_snr(self):
        rhos = np.geomspace(0.01, 100, 15)
        vals = [single_pair_capacity(r, RULE) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))
