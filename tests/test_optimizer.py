"""Training-length optimization, Bussgang comparison, asymptotic forms."""

import math
import re

import numpy as np
import pytest
from scipy import optimize

from onebit_bounds import replica
from onebit_bounds.numerics import LN2
from onebit_bounds.optimizer import (
    MAX_GRID_POINTS,
    _brent,
    _refine,
    bussgang_inner_rate,
    compare_sweep,
    low_snr_asymptotics,
    optimize_training,
    replica_bound,
    sweep_onebit_alpha,
    training_grid,
)
from onebit_bounds.replica import (
    SystemParams,
    csir_rate,
    reff_onebit,
    snr_from_db,
    solve_qh,
)


class TestTrainingGrid:
    def test_excludes_endpoints(self):
        g = training_grid(10.0, 0.1)
        assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(9.9)
        assert len(g) == 99

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            training_grid(0.1, 0.1)
        with pytest.raises(ValueError):
            training_grid(1.0, -0.5)

    def test_grid_longer_than_the_limit_rejected(self):
        assert training_grid(MAX_GRID_POINTS + 1.0, 1.0).size == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="exceeds the limit"):
            training_grid(MAX_GRID_POINTS + 2.0, 1.0)


class TestOptimizeTraining:
    def test_constant_rate_prefers_least_training(self):
        grid = training_grid(5.0, 0.1)
        res, curve = optimize_training(np.full(grid.size, 3.0), 5.0, 0.1, method="replica-linear")
        assert res.beta_t_opt == pytest.approx(0.1)
        assert res.c_bound == pytest.approx((5.0 - 0.1) / 5.0 * 3.0, rel=1e-12)

    def test_quadratic_vertex_on_grid(self):
        res, _ = optimize_training(training_grid(2.0, 0.1), 2.0, 0.1, method="replica-linear")
        assert res.beta_t_opt == pytest.approx(1.0)
        assert res.c_bound == pytest.approx(0.5, rel=1e-12)

    def test_result_matches_curve_point(self):
        res, curve = optimize_training(np.sin(training_grid(6.0, 0.1)) + 1.1, 6.0, 0.1,
                                       method="replica-linear")
        i = int(np.argmin(np.abs(curve.beta_t - res.beta_t_opt)))
        assert res.c_bound == pytest.approx(curve.objective[i], rel=1e-12)
        assert res.c_bound >= curve.objective.max() - 1e-15

    def test_curve_invariants(self):
        _, curve = optimize_training(training_grid(4.0, 0.1) ** 0.5, 4.0, 0.1,
                                     method="replica-linear")
        assert np.all(curve.beta_t > 0) and np.all(curve.beta_t < curve.beta)
        assert np.all(curve.objective <= curve.r_eff + 1e-15)
        assert np.all(curve.r_eff >= 0)

    @pytest.mark.parametrize("rates", [np.array([3.0]), np.full(50, 3.0), np.full((49, 1), 3.0)],
                             ids=["one", "one-too-many", "column"])
    def test_rates_must_match_the_grid(self, rates):
        # the grid {0.1, ..., 4.9} has 49 points
        message = f"rates of shape {rates.shape} for a training grid of 49 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            optimize_training(rates, 5.0, 0.1)

    def test_refinement_improves_off_grid_peak(self):
        # objective (1 - bt/4) * rate peaks off-grid for rate = bt^2 e^{-bt};
        # the refinement of _grid_bounds, driven with one job
        rate = lambda bt: bt * bt * math.exp(-bt)
        found = optimize_training([rate(bt) for bt in training_grid(4.0, 0.1)], 4.0, 0.1,
                                  method="replica-linear")
        (fine, _), = _refine([found], lambda jobs, xs: [rate(x) for x in xs])
        coarse = found[0]
        assert fine.c_bound >= coarse.c_bound
        assert abs(fine.beta_t_opt - coarse.beta_t_opt) <= 0.1 + 1e-12

    def test_onebit_bound_against_fine_grid_oracle(self):
        # exhaustive fine grid (step 0.001) as one batched solve, which
        # TestBatchedSolve checks point by point against one-point batches of
        # solve_qh and reff_onebit; the coarse run's step-0.1 grid is a
        # separate batch
        params = SystemParams(8.0, 8.0, 10.0, "onebit")
        res, _ = replica_bound(params, 0.1)
        fine_grid = training_grid(8.0, 0.001)
        _, snr_eff = solve_qh(10.0, fine_grid)
        objective = (8.0 - fine_grid) / 8.0 * reff_onebit(params.alpha, snr_eff)
        bt_fine = float(fine_grid[int(np.argmax(objective))])
        assert abs(res.beta_t_opt - bt_fine) <= 0.1 + 1e-9
        # the refinement resolves beta_t to grid_step * 1e-3, inside half a
        # fine-grid step of its argmax
        refined, _ = replica_bound(params, 0.1, refine=True)
        assert abs(refined.beta_t_opt - bt_fine) <= 0.0005 + 0.1 * 1e-3
        assert refined.c_bound >= objective.max()

    @pytest.mark.parametrize("alpha", [512.0, 4096.0, 16384.0])
    def test_optimum_below_the_first_grid_point(self, alpha):
        # the grid argmax is the first point, 0.1, and the optimum lies
        # below it; the oracle is a step-1e-4 grid on (0, 0.1], and the
        # refinement's absolute tolerance is 0.1 * 1e-3
        grid = np.arange(1, 1001) * 1e-4
        _, snr_eff = solve_qh(10.0, grid)
        objective = (8.0 - grid) / 8.0 * reff_onebit(alpha, snr_eff)
        refined, curve = replica_bound(SystemParams(alpha, 8.0, 10.0, "onebit"), 0.1, refine=True)
        assert int(np.argmax(curve.objective)) == 0
        assert abs(refined.beta_t_opt - grid[int(np.argmax(objective))]) <= 0.1 * 1e-3
        assert refined.c_bound >= objective.max()


def run_brent(f, lo, hi, xatol):
    """Drive the :func:`_brent` generator with f; returns (x, f(x), nfev)."""
    search = _brent(lo, hi, xatol)
    x = next(search)
    try:
        while True:
            x = search.send(f(x))
    except StopIteration as stop:
        return stop.value


def scipy_bounded(f, lo, hi, xatol):
    """scipy's bounded Brent search, the oracle :func:`_brent` is copied from."""
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol})
    return float(res.x), float(res.fun), int(res.nfev)


def as_hex(values):
    return [float(v).hex() for v in values]


class TestBrent:
    """The package's bounded Brent search against scipy's, bit for bit."""

    @pytest.mark.parametrize("name, f, lo, hi, xatol", [
        ("flat", lambda x: 1.0, 0.3, 0.5, 1e-4),
        ("bt^2 e^-bt", lambda x: -(4.0 - x) / 4.0 * x * x * math.exp(-x), 1.0, 1.2, 1e-4),
        # xatol 0: the last steps are sqrt(2.2e-16) |x| long
        ("bt^2 e^-bt, xatol 0", lambda x: -x * x * math.exp(-x), 0.0, 5.0, 0.0),
        # ties between new and kept points
        ("plateau", lambda x: min(abs(x - 0.7), 0.5), 0.0, 3.0, 1e-4),
        ("steps", lambda x: math.floor(8 * abs(x - 1.3)) / 8, 0.0, 3.0, 1e-4),
        ("nan past 1.1", lambda x: math.nan if x > 1.1 else (x - 1.05) ** 2, 1.0, 1.2, 1e-4),
        ("nan everywhere", lambda x: math.nan, 1.0, 1.2, 1e-4),
        # a minimum on the bound with xatol 0: the tolerance shrinks with x,
        # so the search stops at its 500-evaluation cap
        ("maxiter", lambda x: x, 0.0, 1.0, 0.0),
    ])
    def test_matches_scipy(self, name, f, lo, hi, xatol):
        assert as_hex(run_brent(f, lo, hi, xatol)) == as_hex(scipy_bounded(f, lo, hi, xatol)), name

    def test_maxiter_case_stops_at_the_cap(self):
        assert run_brent(lambda x: x, 0.0, 1.0, 0.0)[2] == 500

    @pytest.mark.parametrize("beta, rho, step, alphas", [
        (8.0, 10.0, 0.1, (1.0, 16.0, 256.0)),
        (4.0, 1.0, 0.05, (2.0, 64.0)),
    ])
    def test_lockstep_sweep_matches_scipy_per_alpha(self, beta, rho, step, alphas):
        # the oracle: scipy's search, one scalar solve per point
        swept = sweep_onebit_alpha(alphas, beta, rho, step)
        grid = training_grid(beta, step)
        _, snr_eff = solve_qh(rho, grid)
        for alpha, (res, _) in zip(alphas, swept):
            objective = (beta - grid) / beta * reff_onebit(alpha, snr_eff)
            i = int(np.argmax(objective))
            x, fun, _ = scipy_bounded(
                lambda bt: -(beta - bt) / beta * float(reff_onebit(alpha, solve_qh(rho, bt)[1])[0]),
                grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], step * 1e-3)
            assert -fun > objective[i]
            assert as_hex([res.beta_t_opt, res.c_bound]) == as_hex([x, -fun]), alpha

    @pytest.mark.parametrize("alpha", [512.0, 4096.0])
    def test_search_below_the_grid_matches_scipy(self, alpha):
        # the search of [0.1, 0.2] ends within two tolerances of 0.1, so
        # [0, 0.1] is searched as well and the better point is kept
        f = lambda bt: -(8.0 - bt) / 8.0 * float(reff_onebit(alpha, solve_qh(10.0, bt)[1])[0])
        above, below = scipy_bounded(f, 0.1, 0.2, 1e-4), scipy_bounded(f, 0.0, 0.1, 1e-4)
        assert above[0] - 0.1 <= 2e-4 and below[1] < above[1]
        res, _ = replica_bound(SystemParams(alpha, 8.0, 10.0, "onebit"), 0.1, refine=True)
        assert as_hex([res.beta_t_opt, res.c_bound]) == as_hex([below[0], -below[1]])


class TestBussgangBound:
    def test_zero_snr_gives_zero_bound(self):
        (row,) = compare_sweep(1.0, 5.0, [-math.inf], 0.1)
        assert (row.c_bound_bussgang, row.c_bound_replica, row.r_csir) == (0.0, 0.0, 0.0)

    def test_inner_rate_saturation_limit(self):
        # log2(1 + 2/pi) for alpha = 1 as snr_eff -> inf
        assert bussgang_inner_rate(1.0, 1e12) == pytest.approx(
            math.log1p(2.0 / math.pi) / LN2, rel=1e-9)
        assert bussgang_inner_rate(1.0, 1e12) == pytest.approx(0.7107191866648533, rel=1e-9)


class TestLowSnrAsymptotics:
    def test_closed_form_point(self):
        bt, c = low_snr_asymptotics(SystemParams(1.0, 10.0, 0.01, "linear"))
        assert bt == 5.0
        assert c == pytest.approx(10.0 / (math.pi**2 * LN2) * 1e-4, rel=1e-12)

    def test_quadratic_snr_scaling(self):
        _, c1 = low_snr_asymptotics(SystemParams(1.0, 10.0, 0.01, "linear"))
        _, c4 = low_snr_asymptotics(SystemParams(1.0, 10.0, 0.04, "linear"))
        assert c4 == pytest.approx(16 * c1, rel=1e-12)

    def test_matches_full_optimization_at_low_snr(self):
        params = SystemParams(1.0, 10.0, 0.01, "linear")
        res, _ = replica_bound(params, 0.1)
        _, c = low_snr_asymptotics(params)
        assert 0.9 <= res.c_bound / c <= 1.1


class TestSweeps:
    def test_alpha_sweep_shares_training_solutions(self):
        alphas = (1.0, 4.0)
        out = sweep_onebit_alpha(alphas, beta=4.0, rho=10.0)
        assert len(out) == 2
        for alpha, (res, curve) in zip(alphas, out):
            params = SystemParams(alpha, 4.0, 10.0, "onebit")
            direct, _ = replica_bound(params, 0.1, refine=True)
            assert res.c_bound == pytest.approx(direct.c_bound, rel=1e-12)
            assert res.beta_t_opt == pytest.approx(direct.beta_t_opt, rel=1e-12)

    def test_compare_rows_are_ordered_and_consistent(self):
        rows = compare_sweep(1.0, 20.0, [0.0, 10.0])
        assert [r.rho_db for r in rows] == [0.0, 10.0]
        for r in rows:
            assert r.c_bound_bussgang <= r.c_bound_replica + 1e-12
            assert r.c_bound_replica <= r.r_csir + 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.05, 16.0])
    def test_compare_rows_are_each_point_solved_alone(self, alpha):
        # compare solves the known channel's overlap as one more pair of its
        # data batch, with a fitted scan; csir_rate alone scans it exactly
        rows = compare_sweep(alpha, 5.0, [-40.0, -10.0, 5.3, 30.0, 60.0])
        for r in rows:
            rho = snr_from_db(r.rho_db)
            assert r.r_csir == csir_rate(alpha, rho)
            params = SystemParams(alpha, 5.0, rho, "linear")
            assert r.c_bound_replica == replica_bound(params)[0].c_bound

    def test_compare_point_takes_two_overlap_solves(self, monkeypatch):
        # the training grid's 49 roots, then the data grid's 49 with the
        # known channel's as the 50th
        brackets, illinois = [], replica._illinois
        monkeypatch.setattr(replica, "_illinois",
                            lambda *args: brackets.append(args[0].size) or illinois(*args))
        compare_sweep(2.0, 5.0, [5.3])
        assert brackets == [49, 50]
