"""Fixed points, free energies, and rates against independently coded oracles.

Every oracle here re-derives the quantity with its own expressions, its own
512-node quadrature, and its own root finding (dense-grid bisection or
explicit damped iteration), so agreement is a genuine cross-check rather
than a restatement of the implementation.  The Gaussian-tail oracles code
the integrand after the change of variables u = w / sqrt(1 + a^2) through
the log-CDF, where the package goes through erfcx; the known-channel rates
are also checked against adaptive ``quad`` of the original integrand, and the
one-bit moments against adaptive ``quad`` and mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, optimize, special

from onebit_bounds import numerics, replica
from onebit_bounds.numerics import LN2, QuadratureRule, gauss_hermite
from onebit_bounds.optimizer import training_grid
from onebit_bounds.replica import (
    SolverError,
    SystemParams,
    csir_rate,
    effective_snr,
    f1_value,
    f2_onebit,
    overlap_fixed_points,
    reff_linear,
    reff_onebit,
    solve_qh,
    solve_qx_linear,
    solve_qx_onebit,
)
from onebit_bounds.replica import _ONEBIT_Q, _SCAN_Q, _gaussian_g, _illinois, _onebit_g, _roots

# the package's one-bit moment rule, which the moments take as an argument
MOMENT_RULE = gauss_hermite(replica._MOMENT_ORDER)


# --- oracle helpers (independent codings) -----------------------------------

def oracle_nodes(order=512):
    t, w = special.roots_hermite(order)
    return math.sqrt(2.0) * t, w / math.sqrt(math.pi)


O_NODES, O_WEIGHTS = oracle_nodes()


def o_qlnq(x):
    lq = special.log_ndtr(-np.asarray(x, dtype=float))
    return np.exp(lq) * lq


def o_tail_mean(a, g, nodes=O_NODES, weights=O_WEIGHTS):
    """E_u[f(a u)] = E_w[g(a w / sqrt(1 + a^2))] / sqrt(1 + a^2), where g is
    f times the Gaussian factor exp(+-x^2 / 2) that moved into the weight."""
    s = math.sqrt(1.0 + a * a)
    return float(weights @ g(a / s * nodes)) / s


def o_g_exp_ratio(x):
    # exp(-x^2 / 2) / Q(x): exp(-x^2) / Q(x) with exp(-x^2 / 2) moved out
    return np.exp(-0.5 * x * x - special.log_ndtr(-x))


def o_g_qlnq(x):
    # exp(x^2 / 2) Q(x) ln Q(x): Q ln Q(x) with exp(-x^2 / 2) moved out
    lq = special.log_ndtr(-x)
    return np.exp(0.5 * x * x + lq) * lq


def o_rhs(q, coef, snr, nodes=O_NODES, weights=O_WEIGHTS):
    ksq = snr / (1.0 + snr * (1.0 - q))
    return coef * ksq / math.pi * o_tail_mean(math.sqrt(ksq * q), o_g_exp_ratio, nodes, weights)


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


def o_onebit_g(q, alpha, snr):
    """The one-bit data-phase residual g(q) = moment(q_hat(q)) - 1 - q,
    coded as a scalar.  The moment minus 1 is m = E[tanh z] = E[tanh^2 z],
    and 1 - m = E[sech^2 z], z = r u + q_hat ~ N(q_hat, q_hat) (the density
    of z has p(-z) = e^(-2z) p(z)).  m up to q_hat = 1 (where m = 0.55),
    1 - m above, is taken by adaptive quad of its positive integrand, split
    where tanh(z) = 0, so m keeps its relative accuracy as q_hat -> 0 and
    never rounds above 1."""
    q_hat = o_rhs(q, alpha, snr)
    r = math.sqrt(q_hat)

    def mean(f):
        return sum(integrate.quad(lambda u: math.exp(-0.5 * u * u) * f(r * u + q_hat), lo, hi,
                                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in ((-math.inf, -r), (-r, 0.0), (0.0, math.inf))) / math.sqrt(2.0 * math.pi)

    if q_hat <= 1.0:
        return mean(lambda z: math.tanh(z) ** 2) - q
    return 1.0 - mean(lambda z: (2.0 * math.exp(-abs(z)) / (1.0 + math.exp(-2.0 * abs(z)))) ** 2) - q


def mp_tanh_moment(q_hat):
    """E_u[tanh(sqrt(q_hat) u + q_hat) (2 + u / sqrt(q_hat))] - 1 by mpmath's
    adaptive quadrature at 30 digits."""
    with mp.workdps(30):
        q = mp.mpf(q_hat)
        r = mp.sqrt(q)
        return float(mp.quad(lambda u: mp.npdf(u) * mp.tanh(r * u + q) * (2 + u / r),
                             [-mp.inf, 0, mp.inf]) - 1)


def o_onebit_roots(alpha, snr, n_grid=400):
    """Every root in [0, 1] of :func:`o_onebit_g`: a scan at 0 and at
    log-spaced points up to 1, then bisection of each sign change down to
    adjacent floats."""
    grid = np.concatenate([[0.0], np.geomspace(1e-14, 1.0, n_grid)]).tolist()
    vals = [o_onebit_g(q, alpha, snr) for q in grid]
    roots = [q for q, v in zip(grid, vals) if v == 0.0]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa * fb < 0.0:
            while a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                fm = o_onebit_g(m, alpha, snr)
                if fm == 0.0:
                    a = b = m
                elif (fm > 0.0) == (fa > 0.0):
                    a, fa = m, fm
                else:
                    b = m
            roots.append(a)
    return sorted(roots)


def o_f1(q, coef, snr, nodes, weights):
    q_hat = q / (1.0 - q)
    a = math.sqrt(snr * q / (1.0 + snr * (1.0 - q)))
    return (-4.0 * coef * o_tail_mean(a, o_g_qlnq, nodes, weights)
            + q * q_hat + math.log1p(q_hat) - q_hat)


# --- training-phase overlap ---------------------------------------------------

class TestSolveQh:
    def test_no_training_degenerates(self):
        q_h, snr_eff = solve_qh(1.0, 0.0)
        assert q_h.tolist() == snr_eff.tolist() == [0.0]
        # in one batch with beta_t = 1e-13, whose root 2 beta_t rho / (pi (1 + rho))
        # lies below the scan's first point after q = 0
        q_h, _ = solve_qh(1.0, [0.0, 1e-13])
        assert q_h[0] == 0.0
        assert q_h[1] == pytest.approx(1e-13 / math.pi, rel=1e-3)

    def test_zero_snr_degenerates(self):
        q_h, snr_eff = solve_qh(0.0, 3.0)
        assert q_h.tolist() == snr_eff.tolist() == [0.0]

    def test_low_snr_law(self):
        q_h, _ = solve_qh(0.01, 1.0)
        assert q_h[0] == pytest.approx(2.0 * 1.0 * 0.01 / math.pi, rel=0.05)

    def test_against_bisection_oracle(self):
        for rho, beta_t in ((10.0, 1.0), (1.0, 0.5), (100.0, 2.0), (0.1, 5.0)):
            got = solve_qh(rho, beta_t)[0][0]
            assert got == pytest.approx(o_bisect_root(beta_t, rho), abs=1e-8)

    def test_overlap_record_is_consistent(self):
        (q,), (snr_eff,) = solve_qh(10.0, 1.0)
        assert 0.0 <= q < 1.0
        assert snr_eff == pytest.approx(10.0 * q / (1.0 + 10.0 * (1.0 - q)), rel=1e-12)

    def test_monotone_in_training_and_snr(self):
        betas = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
        rhos = (0.01, 0.1, 1.0, 10.0, 100.0)
        for rho in rhos:
            qs = solve_qh(rho, betas)[0].tolist()
            assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        for bt in betas:
            qs = [solve_qh(rho, bt)[0][0] for rho in rhos]
            assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    def test_low_snr_effective_snr_band(self):
        for rho in (0.001, 0.01):
            for bt in (0.5, 1.0, 2.0):
                (q,), (snr_eff,) = solve_qh(rho, bt)
                assert 0.95 <= q / (2 * bt * rho / math.pi) <= 1.05
                assert 0.9 <= snr_eff / (2 * bt * rho**2 / math.pi) <= 1.1

    def test_all_roots_exposed(self):
        roots, brackets = overlap_fixed_points(1.0, 10.0)
        assert len(roots) >= 1 and len(brackets) >= 1
        for q in roots:
            assert abs(o_residual(q, 1.0, 10.0)) < 1e-7

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            solve_qh(-1.0, 1.0)
        with pytest.raises(ValueError, match="rho must be finite"):
            solve_qh(math.inf, 1.0)
        with pytest.raises(ValueError, match="beta_t must be finite"):
            solve_qh(1.0, math.inf)
        with pytest.raises(ValueError, match="beta_t must be finite"):
            solve_qh(1.0, [1.0, math.nan])
        with pytest.raises(ValueError, match="rho must be finite"):
            effective_snr(math.inf, 0.5)
        with pytest.raises(ValueError, match="alpha must be finite"):
            solve_qx_onebit(1.0, math.inf)
        with pytest.raises(ValueError, match="beta must be finite"):
            training_grid(math.inf, 0.1)
        with pytest.raises(ValueError, match="rho must be finite"):
            f1_value(0.5, 1.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="beta_t must be finite"):
            f1_value(0.5, 1.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="q_hat must be finite"):
            f1_value(0.5, math.inf, 1.0, 1.0)
        with pytest.raises(ValueError, match="alpha must be finite"):
            f2_onebit(0.5, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="snr_eff must be finite"):
            f2_onebit(0.5, 1.0, 1.0, math.inf)
        with pytest.raises(ValueError, match="r_hat must be finite"):
            f2_onebit(0.5, math.inf, 1.0, 1.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: SystemParams(1.0, 1.0, -1.0), "rho must be finite and nonnegative, got -1.0"),
        (lambda: SystemParams(1.0, 1.0, 1.0, "qam"),
         "tx_type must be one of ('linear', 'onebit'), got 'qam'"),
        (lambda: f2_onebit(1.5, 1.0, 2.0, 1.0), "r must lie in [0, 1], got 1.5"),
    ], ids=["negative-rho", "unknown-tx", "r-above-one"])
    def test_rejection_message(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


# Gauss-Hermite rules give one root at every point tried.  As the Gaussian-tail
# rule, this signed rule folds the right-hand side back, so at rho = 10 and
# 100 part of the grid below has three roots; at rho = 100, beta_t = 1.75 two
# of the three lie closer together than the scan's spacing.
FOLD_RULE = QuadratureRule(nodes=np.array([-1.219, -5.927, 0.438]),
                           weights=np.array([-4.0584, 3.136, 1.9225]))
GRID_BETAS = np.array([0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0])


def gaussian_roots(coef, rho):
    """Every root of the Gaussian overlap equation at each coef, all at rho."""
    return _roots(coef, np.full(coef.size, rho), _gaussian_g, _SCAN_Q)


@pytest.fixture
def fold(monkeypatch):
    """FOLD_RULE in place of the package's Gaussian-tail rule, which the
    tail means look up through numerics.gauss_hermite."""
    monkeypatch.setattr(numerics, "gauss_hermite", lambda order: FOLD_RULE)
    return dict(nodes=FOLD_RULE.nodes, weights=FOLD_RULE.weights)


class TestBatchedSolve:
    """One batched solve over a training grid against per-point scalar oracles."""

    @pytest.mark.parametrize("folded", [False, True], ids=["gauss-hermite", "fold"])
    @pytest.mark.parametrize("rho", [0.01, 1.0, 10.0, 100.0])
    def test_grid_roots_match_scalar_oracle(self, folded, rho, request):
        oracle_rule = request.getfixturevalue("fold") if folded else {}
        owner, roots, _, _ = gaussian_roots(GRID_BETAS, rho)
        for i, bt in enumerate(GRID_BETAS):
            expected = o_bisect_root(bt, rho, **oracle_rule, width=0.0, every=True)
            assert np.count_nonzero(owner == i) == len(expected), f"beta_t={bt}"
            np.testing.assert_allclose(roots[owner == i], expected, rtol=1e-12, atol=0.0)

    def test_fold_rule_gives_several_roots(self, fold):
        for rho in (10.0, 100.0):
            owner, _, _, _ = gaussian_roots(GRID_BETAS, rho)
            assert np.bincount(owner).max() == 3

    @pytest.mark.parametrize("rho", [10.0, 100.0])
    def test_grid_picks_least_free_energy(self, rho, fold):
        # where there are three roots (beta_t >= 3 at rho = 10, >= 2 at
        # rho = 100) the pick is the middle one
        q_h, _ = solve_qh(rho, GRID_BETAS)
        for bt, q in zip(GRID_BETAS.tolist(), q_h.tolist()):
            roots = o_bisect_root(bt, rho, **fold, width=0.0, every=True)
            energy = [o_f1(r, bt, rho, **fold) for r in roots]
            assert q == pytest.approx(roots[int(np.argmin(energy))], rel=1e-12)

    @pytest.mark.parametrize("rho", [0.01, 1.0, 10.0, 100.0])
    def test_snr_eff_has_the_bits_of_effective_snr(self, rho):
        for bts in (GRID_BETAS, training_grid(8.0, 0.1)):
            q_h, snr_eff = solve_qh(rho, bts)
            assert [v.hex() for v in snr_eff.tolist()] == \
                   [effective_snr(rho, q).hex() for q in q_h.tolist()]

    def test_grid_matches_pointwise_solves(self):
        q_h, snr_eff = solve_qh(10.0, GRID_BETAS)
        pointwise = [solve_qh(10.0, [bt]) for bt in GRID_BETAS.tolist()]
        assert q_h.tolist() == [q[0] for q, _ in pointwise]
        assert snr_eff.tolist() == [s[0] for _, s in pointwise]

    @pytest.mark.xfail(strict=True, reason="the 64-point scan puts both roots of a close "
                       "pair in one interval, so neither is bracketed")
    def test_close_root_pair_is_bracketed(self, fold):
        roots, _ = overlap_fixed_points(1.75, 100.0)
        assert len(roots) == len(o_bisect_root(1.75, 100.0, **fold, every=True))

    def test_root_below_the_first_scan_point_is_bracketed(self):
        roots, _ = overlap_fixed_points(4.0, 6.36618e-14)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0 * 4.0 * 6.36618e-14 / math.pi, rel=1e-3)

    def test_point_without_bracket_names_its_training_length(self):
        # at beta_t rho = 1e14 the root lies above the scan's last point, 1 - 1e-9
        with pytest.raises(SolverError, match=r"^no channel overlap fixed point bracketed "
                                              r"\(beta_t=1e\+06, snr=1e\+08\)$"):
            solve_qh(1e8, [1.0, 1e6, 2.0])

    @pytest.fixture
    def unrefined(self, monkeypatch):
        """The SolverError of a grid whose brackets stay as the scan left them."""
        monkeypatch.setattr(replica, "_MAX_STEPS", 0)
        with pytest.raises(SolverError) as exc:
            solve_qh(1.0, [1.0, 2.0])
        return exc.value

    def test_open_bracket_names_its_training_length(self, unrefined):
        assert "(beta_t=1, snr=1)" in str(unrefined)

    def test_open_bracket_error_carries_the_scan_bracket(self, unrefined):
        (lo, hi), = unrefined.brackets
        j = replica._SCAN_Q.tolist().index(lo)
        assert replica._SCAN_Q[j + 1] == hi
        assert (lo, hi) == (pytest.approx(0.17302, abs=1e-5), pytest.approx(0.26827, abs=1e-5))
        assert o_residual(lo, 1.0, 1.0) < 0.0 < o_residual(hi, 1.0, 1.0)

    def test_open_bracket_error_carries_its_midpoint(self, unrefined):
        (lo, hi), = unrefined.brackets
        assert unrefined.diagnostics["roots"] == [0.5 * (lo + hi)]
        residual = unrefined.diagnostics["residual"]
        assert residual > 1e-10
        assert residual == pytest.approx(abs(o_residual(0.5 * (lo + hi), 1.0, 1.0)), rel=1e-9)

    def test_known_channel_is_checked_after_the_data_pairs(self, monkeypatch):
        # the known channel at alpha snr = 1e14 has its root above the scan, so
        # no bracket; that error comes only after every data pair's checks pass
        with pytest.raises(SolverError, match=r"^no known-channel data overlap fixed point "
                                              r"bracketed \(alpha=1e\+06, snr=1e\+08\)$"):
            replica._linear_rates(1e6, [1e-6, 2e-6], 1e8)
        monkeypatch.setattr(replica, "_MAX_STEPS", 0)  # every data bracket stays open
        with pytest.raises(SolverError, match=r"^linear data overlap fixed point residual .*"
                                              r"\(alpha=1e\+06, snr=1e-06\)$"):
            replica._linear_rates(1e6, [1e-6, 2e-6], 1e8)

    @pytest.mark.parametrize("rho", [0.01, 1.0, 10.0, 100.0])
    def test_residual_evaluations_per_root(self, rho, monkeypatch):
        # the scan takes its expectation inline, so _gaussian_rhs sees the
        # Illinois steps and the residual check of each picked root: at
        # least one of each per root
        grid = training_grid(8.0, 0.1)
        owner, _, _, _ = gaussian_roots(grid, rho)
        assert np.bincount(owner, minlength=grid.size).tolist() == [1] * grid.size
        rhs, sizes = replica._gaussian_rhs, []
        monkeypatch.setattr(replica, "_gaussian_rhs",
                            lambda q, *args: sizes.append(np.size(q)) or rhs(q, *args))
        solve_qh(rho, grid)
        assert 2 * grid.size <= sum(sizes) <= 10 * grid.size


def exact_scan(coef, snr, qs=_SCAN_Q, g=lambda q, rhs: (q / (1.0 - q) - rhs) * (1.0 - q)):
    """The residual ``g`` (by default the Gaussian one) at every (pair, q)
    sample with the exact tail mean, in _scan's operations, and its brackets
    ``(owner, j_lo, j_hi)`` found row by row."""
    ksq = snr[:, None] / (1.0 + snr[:, None] * (1.0 - qs))
    res = g(qs, coef[:, None] * ksq / np.pi * numerics.mean_exp_ratio(np.sqrt(ksq * qs)))
    brackets = []
    for i, row in enumerate(res):
        brackets += [(i, j, j) for j in np.flatnonzero(row == 0.0)]
        brackets += [(i, j, j + 1) for j in range(qs.size - 1) if row[j] * row[j + 1] < 0.0]
    owner, j_lo, j_hi = (np.array(v, dtype=int) for v in zip(*sorted(brackets)))
    return res, owner, j_lo, j_hi


class TestCertifiedScan:
    """The Gaussian scan reads its signs from numerics.tail_fit and takes the
    exact mean where the fit cannot decide a sign and at every bracket end;
    brackets, end residuals and roots must be those of an all-exact scan."""

    PAIRS = [(c, s) for c in np.geomspace(1e-3, 1e4, 8) for s in np.geomspace(1e-10, 1e9, 20)]

    def check_against_exact(self, coef, snr, monkeypatch):
        # every scan through the fit, a single-rho one too
        monkeypatch.setattr(replica, "_FIT_MIN_ROWS", 0)
        rows, mean = [], replica.mean_exp_ratio
        monkeypatch.setattr(replica, "mean_exp_ratio",
                            lambda a: rows.append(np.size(a)) or mean(a))
        res, owner, j_lo, j_hi = replica._scan(coef, snr, _SCAN_Q, _gaussian_g)
        monkeypatch.setattr(replica, "mean_exp_ratio", mean)
        assert 0 < sum(rows) < res.size  # the fit decided some signs
        e_res, e_owner, e_lo, e_hi = exact_scan(coef, snr)
        assert owner.tolist() == e_owner.tolist()
        assert (j_lo.tolist(), j_hi.tolist()) == (e_lo.tolist(), e_hi.tolist())
        for j in (j_lo, j_hi):
            assert [v.hex() for v in res[owner, j].tolist()] == \
                   [v.hex() for v in e_res[owner, j].tolist()]
        _, roots, _, _ = _roots(coef, snr, _gaussian_g, _SCAN_Q)
        c, s = coef[owner], snr[owner]
        e_roots = _illinois(_SCAN_Q[e_lo], _SCAN_Q[e_hi], e_res[e_owner, e_lo],
                            e_res[e_owner, e_hi],
                            lambda x, k: _gaussian_g(x, replica._gaussian_rhs(x, c[k], s[k])))
        assert [v.hex() for v in roots.tolist()] == [v.hex() for v in e_roots.tolist()]
        return owner

    def test_matches_exact_scan(self, monkeypatch):
        coef, snr = (np.array(v) for v in zip(*self.PAIRS))
        self.check_against_exact(coef, snr, monkeypatch)

    @pytest.mark.parametrize("rho", [10.0, 100.0])
    def test_matches_exact_scan_with_three_roots(self, rho, fold, monkeypatch):
        owner = self.check_against_exact(GRID_BETAS, np.full(GRID_BETAS.size, rho), monkeypatch)
        assert np.bincount(owner).max() == 3

    def test_margin_is_a_hundred_times_the_fit_bound(self):
        assert replica._FIT_MARGIN >= 100.0

    def test_small_scans_take_no_fit(self, monkeypatch):
        # a single-rho training grid and a standalone csir_rate scan 64 means,
        # a one-point one-bit solve 66 moments: the exact terms are faster
        # there (compare's known channel is one more pair of its data batch)
        def refuse():
            raise AssertionError("fit used")

        monkeypatch.setattr(replica, "tail_fit", refuse)
        monkeypatch.setattr(replica, "_tanh_fit", refuse)
        assert 66 < replica._FIT_MIN_ROWS
        solve_qh(10.0, GRID_BETAS)
        csir_rate(2.0, 10.0)
        solve_qx_onebit(10.0, 4.0)


class TestCertifiedOnebitScan:
    """The one-bit scan reads its signs from the tanh moment's fit and takes
    the exact moment where the fit cannot decide a sign and at every bracket
    end; brackets, end residuals and roots must be those of an all-exact
    scan, which the test codes with the exact moment at every sample."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(21)
        alpha = np.exp(rng.uniform(math.log(0.5), math.log(4096.0), 120))
        snr = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 120))
        # the ends of both ranges; 4096 at 1e4 saturates, q = 1 an exact zero
        return np.append(alpha, [0.5, 0.5, 4096.0, 4096.0]), np.append(snr, [1e-4, 1e4, 1e-4, 1e4])

    def test_matches_exact_scan(self, monkeypatch):
        alpha, snr = self.pairs()
        replica._tanh_fit()  # built first, so that only the scan's rows count
        rows, moment = [], replica._tanh_moment
        monkeypatch.setattr(replica, "_tanh_moment",
                            lambda q, rule: rows.append(np.size(q)) or moment(q, rule))
        res, owner, j_lo, j_hi = replica._scan(alpha, snr, _ONEBIT_Q, _onebit_g)
        assert 0 < sum(rows) < 0.2 * res.size  # the fit decided most signs
        monkeypatch.setattr(replica, "_tanh_moment", moment)
        e_res, e_owner, e_lo, e_hi = exact_scan(alpha, snr, _ONEBIT_Q,
                                                lambda q, rhs: moment(rhs, MOMENT_RULE) - q)
        last, end = alpha.size - 1, _ONEBIT_Q.size - 1
        assert e_res[last, end] == 0.0  # the saturated pair's q = 1 sample
        assert (e_owner[-1], e_lo[-1], e_hi[-1]) == (last, end, end)
        assert owner.tolist() == e_owner.tolist()
        assert (j_lo.tolist(), j_hi.tolist()) == (e_lo.tolist(), e_hi.tolist())
        for j in (j_lo, j_hi):
            assert [v.hex() for v in res[owner, j].tolist()] == \
                   [v.hex() for v in e_res[owner, j].tolist()]
        _, roots, _, _ = _roots(alpha, snr, _onebit_g, _ONEBIT_Q)
        a, s = alpha[owner], snr[owner]
        e_roots = _illinois(_ONEBIT_Q[e_lo], _ONEBIT_Q[e_hi], e_res[e_owner, e_lo],
                            e_res[e_owner, e_hi],
                            lambda x, k: _onebit_g(x, replica._gaussian_rhs(x, a[k], s[k])))
        assert [v.hex() for v in roots.tolist()] == [v.hex() for v in e_roots.tolist()]


def moment_ratio(s, rule=MOMENT_RULE):
    """m (1 + q_hat) / q_hat at each s = q_hat / (2 + q_hat) in (0, 1), from
    the exact moment by ``rule``, and 1 at s = 0 and s = 1."""
    out, inner = np.ones(s.shape), (s > 0.0) & (s < 1.0)
    q_hat = 2.0 * s[inner] / (1.0 - s[inner])
    out[inner] = replica._tanh_moment(q_hat, rule) * (1.0 + q_hat) / q_hat
    return out


class TestTanhFit:
    """The Chebyshev fit of the tanh moment that the one-bit scan reads its
    signs from: m (1 + q_hat) / q_hat in s = q_hat / (2 + q_hat)."""

    def test_within_its_bound_on_the_whole_interval(self):
        fit = replica._tanh_fit()
        s = np.linspace(0.0, 1.0, 100_001)  # both ends included
        assert np.abs(fit(s) - moment_ratio(s)).max() <= fit.error * fit.peak
        assert fit.error < 1e-11

    @pytest.mark.parametrize("q_hat", [0.0, 1e-12, 1e-3, 1.0, math.pi / 2, 1.6, 30.0, 1e8])
    def test_moment_within_its_bound(self, q_hat):
        m, cap = replica._tanh_fit().at(q_hat)
        exact = float(replica._tanh_moment(np.array([q_hat]), MOMENT_RULE)[0])
        assert abs(exact) <= cap
        assert abs(m - exact) <= replica._tanh_fit().error * cap

    def test_fit_follows_the_rule_in_force(self, monkeypatch):
        production = replica._tanh_fit()
        monkeypatch.setattr(replica, "gauss_hermite", lambda order: gauss_hermite(16))
        fit = replica._tanh_fit()
        assert fit is not production and fit is replica._tanh_fit()
        s = np.linspace(0.0, 1.0, 7)
        assert np.abs(fit(s) - moment_ratio(s, gauss_hermite(16))).max() <= fit.error * fit.peak
        assert np.abs(fit(s) - production(s)).max() > 1e3 * production.error * production.peak


class TestF1:
    def test_origin_value(self):
        for bt in (0.3, 1.0, 4.0):
            assert f1_value(0.0, 0.0, 2.0, bt) == pytest.approx(2 * bt * LN2, rel=1e-12)

    def test_stationarity_in_q_hat(self):
        q = 0.37
        h = 1e-7
        d = (f1_value(q, q / (1 - q) + h, 1.5, 1.0)
             - f1_value(q, q / (1 - q) - h, 1.5, 1.0)) / (2 * h)
        assert abs(d) < 1e-8

    def test_against_refined_quadrature_oracle(self):
        q, q_hat, rho, bt = 0.5, 1.0, 1.0, 1.0
        a = math.sqrt(rho * q / (rho * (1 - q) + 1.0))
        oracle = (-4.0 * bt * float(O_WEIGHTS @ o_qlnq(a * O_NODES))
                  + q * q_hat + math.log1p(q_hat) - q_hat)
        assert f1_value(q, q_hat, rho, bt) == pytest.approx(oracle, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            f1_value(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            f1_value(0.5, -0.1, 1.0, 1.0)


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

    def test_list_has_the_bits_of_an_array(self):
        qs = [0.5, 0.6, 1e-12, 0.999]
        from_list = effective_snr(2.0, qs).tolist()
        assert [v.hex() for v in from_list] == \
               [v.hex() for v in effective_snr(2.0, np.array(qs)).tolist()]
        assert [v.hex() for v in from_list] == \
               [float.hex(2.0 * q / (1.0 + 2.0 * (1.0 - q))) for q in qs]

    def test_scalar_keeps_its_value(self):
        assert float.hex(float(effective_snr(2.0, 0.6))) == \
               float.hex(2.0 * 0.6 / (1.0 + 2.0 * (1.0 - 0.6)))


# --- data-phase overlaps -------------------------------------------------------

class TestSolveQxLinear:
    def test_zero_snr(self):
        assert solve_qx_linear(0.0, 1.0).tolist() == [0.0]
        assert f1_value(0.0, 0.0, 0.0, 1.0) == pytest.approx(2 * LN2, rel=1e-12)

    def test_low_snr_law(self):
        s = 1e-4
        assert solve_qx_linear(s, 1.0)[0] == pytest.approx(2 * s / math.pi, rel=0.05)

    def test_against_damped_iteration_oracle(self):
        s, alpha = 1.0, 2.0
        q = 0.1
        for _ in range(100_000):
            q_hat = o_rhs(q, alpha, s)
            q_new = q_hat / (1.0 + q_hat)
            if abs(q_new - q) < 1e-14:
                break
            q = q + 0.3 * (q_new - q)
        assert solve_qx_linear(s, alpha)[0] == pytest.approx(q, abs=1e-8)


class TestSolveQxOnebit:
    def test_zero_snr(self):
        (q,), (q_hat,), (f2,) = solve_qx_onebit(0.0, 1.0)
        assert q == 0.0 and q_hat == 0.0
        assert f2 == pytest.approx(2 * LN2, rel=1e-12)

    def test_low_snr_law(self):
        s = 1e-4
        assert solve_qx_onebit(s, 1.0)[0][0] == pytest.approx(2 * s / math.pi, rel=0.05)

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
        q = solve_qx_onebit(s, alpha)[0][0]
        assert q == pytest.approx(0.5 * (a + b), abs=1e-6)
        assert 0.0 <= q <= 1.0

    @pytest.mark.parametrize("s", [1e-9, 1e-10, 1e-12])
    def test_series_branch_keeps_relative_accuracy(self, s):
        # q_hat < 1e-8: the direct form of the tanh moment is a sum of
        # positive terms, so q_x keeps its relative accuracy; forming 1 + m
        # and subtracting 1 would leave it 1.5e-7 off at snr_eff = 1e-9
        (q,), (q_hat,), _ = solve_qx_onebit(s, 1.0)
        assert q_hat < 1e-8
        assert q == pytest.approx(mp_tanh_moment(q_hat), rel=1e-12, abs=0.0)

    def test_residuals_below_tolerance(self):
        for s, alpha in ((0.05, 0.5), (1.0, 1.0), (10.0, 4.0)):
            (q,), (q_hat,), _ = solve_qx_onebit(s, alpha)
            assert o_rhs(q, alpha, s) == pytest.approx(q_hat, rel=1e-6)


def mp_moments(q_hat):
    """(m, 1 - m, E[ln(1 + e^(-2z))]) with m = E[tanh z], z ~ N(q_hat, q_hat):
    mpmath integrals at 30 digits of tanh(z), 2 / (1 + e^(2z)) and
    ln(1 + e^(-2z)) against the density of z, split around z = 0 and around
    q_hat.  mp.quad's tolerance is absolute, so the last two, of order
    e^(-q_hat/2), are integrated times e^(q_hat/2)."""
    with mp.workdps(30):
        q = mp.mpf(q_hat)
        a, up = mp.sqrt(q), mp.exp(q / 2)
        points = sorted({mp.mpf(z) for z in (0, 1, -1, 10, -10, 40, -40)}
                        | {q + k * a for k in (-10, -1, 0, 1, 10)})

        def mean(f, scale=1):
            return float(mp.quad(lambda z: mp.npdf(z, q, a) * f(z) * scale,
                                 [-mp.inf] + points + [mp.inf]) / scale)

        return (mean(mp.tanh), mean(lambda z: 2 / (1 + mp.exp(2 * z)), up),
                mean(lambda z: mp.log1p(mp.exp(-2 * z)), up))


def _ulps(x, k):
    return float(x + k * np.spacing(x))


# every half decade of [1e-12, 1e3], and a few ulp either side of each
# switch to the dual form (pi/2 for the tanh moment, 2.125 for the ln term)
MOMENT_Q = np.geomspace(1e-12, 1e3, 31).tolist() + [
    _ulps(x, k) for x in (math.pi / 2, 2.125) for k in (-3, 0, 1, 3)]
# mp_moments at each of MOMENT_Q; TestOnebitMoments re-derives three rows
MP_MOMENTS = [
    (9.99999999999e-13, 0.999999999999, 0.6931471805594454),  # q_hat = 1e-12
    (3.1622776601583793e-12, 0.9999999999968378, 0.6931471805583642),  # q_hat = 3.16228e-12
    (9.9999999999e-12, 0.99999999999, 0.6931471805549453),  # q_hat = 1e-11
    (3.162277660068379e-11, 0.9999999999683772, 0.6931471805441339),  # q_hat = 3.16228e-11
    (9.999999999e-11, 0.9999999999, 0.6931471805099453),  # q_hat = 1e-10
    (3.1622776591683797e-10, 0.9999999996837723, 0.6931471804018314),  # q_hat = 3.16228e-10
    (9.999999990000001e-10, 0.999999999, 0.6931471800599454),  # q_hat = 1e-09
    (3.1622776501683797e-09, 0.9999999968377223, 0.6931471789788065),  # q_hat = 3.16228e-09
    (9.999999900000002e-09, 0.9999999900000001, 0.6931471755599453),  # q_hat = 1e-08
    (3.162277560168385e-08, 0.9999999683772244, 0.6931471647485573),  # q_hat = 3.16228e-08
    (9.999999000000167e-08, 0.99999990000001, 0.6931471305599478),  # q_hat = 1e-07
    (3.162276660168906e-07, 0.999999683772334, 0.6931470224460873),  # q_hat = 3.16228e-07
    (9.999990000016667e-07, 0.999999000001, 0.6931466805601953),  # q_hat = 1e-06
    (3.1622676602210834e-06, 0.9999968377323398, 0.6931455994236152),  # q_hat = 3.16228e-06
    (9.999900001666623e-06, 0.9999900000999984, 0.6931421805849451),  # q_hat = 1e-05
    (3.162177665438409e-05, 0.9999683782233456, 0.6931313694216392),  # q_hat = 3.16228e-05
    (9.999000166623349e-05, 0.9999000099983337, 0.6930971830597786),  # q_hat = 0.0001
    (0.0003161278186781801, 0.9996838721813218, 0.6929890916716686),  # q_hat = 0.000316228
    (0.0009990016623484014, 0.9990009983376515, 0.6926474303934865),  # q_hat = 0.001
    (0.00315232993618364, 0.9968476700638164, 0.6915685364800959),  # q_hat = 0.00316228
    (0.009901624784165211, 0.9900983752158348, 0.6881720159344948),  # q_hat = 0.01
    (0.03067156981237528, 0.9693284301876247, 0.6775807175573939),  # q_hat = 0.0316228
    (0.09134060120487789, 0.9086593987951221, 0.645497946663229),  # q_hat = 0.1
    (0.2470236840526119, 0.7529763159473881, 0.5560901171177095),  # q_hat = 0.316228
    (0.5504004907933272, 0.44959950920667285, 0.3563163602131137),  # q_hat = 1
    (0.8872731308449315, 0.1127268691550685, 0.09759922385530438),  # q_hat = 3.16228
    (0.9975886852645878, 0.0024113147354122575, 0.002248342108372146),  # q_hat = 10
    (0.9999999707941085, 2.9205891490381726e-08, 2.8412053172380125e-08),  # q_hat = 31.6228
    (1.0, 2.3883834712711399e-23, 2.365713967298675e-23),  # q_hat = 100
    (1.0, 1.5079666586511986e-70, 1.503278553647313e-70),  # q_hat = 316.228
    (1.0, 2.8202299027335838e-219, 2.8174249749060894e-219),  # q_hat = 1000
    (0.6949485137975261, 0.30505148620247385, 0.25018383781154363),  # pi/2 - 3 ulp
    (0.6949485137975263, 0.30505148620247374, 0.2501838378115435),  # pi/2
    (0.6949485137975263, 0.3050514862024737, 0.2501838378115435),  # pi/2 + 1 ulp
    (0.6949485137975264, 0.30505148620247363, 0.25018383781154346),  # pi/2 + 3 ulp
    (0.7866029823922126, 0.21339701760778743, 0.1791950984156004),  # 2.125 - 3 ulp
    (0.7866029823922127, 0.21339701760778726, 0.17919509841560027),  # 2.125
    (0.7866029823922128, 0.2133970176077872, 0.17919509841560025),  # 2.125 + 1 ulp
    (0.7866029823922129, 0.21339701760778707, 0.17919509841560013),  # 2.125 + 3 ulp
]


class TestOnebitMoments:
    """Both one-bit moments, E[tanh z] and E[ln(1 + e^(-2z))], and 1 - m
    where the package forms it on its own (the dual form above pi/2),
    against mpmath.  Worst measured: m 2.6e-12, 1 - m 5.9e-12 and the ln
    term 1.5e-12 relative, each next to its switch."""

    @pytest.mark.parametrize("q_hat, expected", zip(MOMENT_Q, MP_MOMENTS), ids=map(repr, MOMENT_Q))
    def test_against_mpmath(self, q_hat, expected):
        m, gap, log1p = expected
        q = np.array([q_hat])
        got = replica._tanh_moment(q, MOMENT_RULE)[0]
        assert got == pytest.approx(m, rel=5e-12, abs=0.0)
        if q_hat > math.pi / 2:
            got = replica._dual_mean(q, MOMENT_RULE)[0]
        else:
            got = 1.0 - got
        assert got == pytest.approx(gap, rel=1e-11, abs=0.0)
        assert replica._log1p_moment(q)[0] == pytest.approx(log1p, rel=3e-12, abs=0.0)

    @pytest.mark.parametrize("i", [0, 33, 30])
    def test_table_rows_rederived(self, i):
        assert mp_moments(MOMENT_Q[i]) == pytest.approx(MP_MOMENTS[i], rel=1e-15, abs=0.0)

    def test_fold_leaves_the_moments(self, fold):
        # the fold fixture swaps the Gaussian-tail rule only
        q = np.array(MOMENT_Q)
        assert replica._tanh_moment(q, MOMENT_RULE) == \
            pytest.approx([m for m, _, _ in MP_MOMENTS], rel=5e-12)
        assert replica._log1p_moment(q) == pytest.approx([v for _, _, v in MP_MOMENTS], rel=3e-12)


ONEBIT_ALPHAS = (0.5, 1.0, 8.0, 256.0)
ONEBIT_SNRS = (1e-9, 1e-4, 0.05, 1.0, 10.0, 1e3)


class TestOnebitBatch:
    """The batched one-bit data solve against a scalar bisection oracle."""

    def test_roots_match_bisection_oracle(self):
        alpha = np.repeat(ONEBIT_ALPHAS, len(ONEBIT_SNRS))
        snr = np.tile(ONEBIT_SNRS, len(ONEBIT_ALPHAS))
        q, _, _ = solve_qx_onebit(snr, alpha)
        for i, (a, s) in enumerate(zip(alpha, snr)):
            roots = o_onebit_roots(a, s)
            assert len(roots) == 1, f"alpha={a}, snr={s}"
            assert q[i] == pytest.approx(roots[0], rel=1e-12, abs=0.0), f"alpha={a}, snr={s}"

    def test_saturated_pairs_give_unit_overlap(self):
        alpha = np.array([64.0, 64.0, 256.0, 256.0, 64.0])
        snr = np.array([10.0, 100.0, 1.0, 10.0, 1.0])
        q, _, _ = solve_qx_onebit(snr, alpha)
        assert q[:4].tolist() == [1.0] * 4
        assert all(o_onebit_roots(a, s) == [1.0] for a, s in zip(alpha[:4], snr[:4]))
        assert 0.0 < q[4] < 1.0  # alpha 64 at snr 1 is short of saturation

    def test_moment_rounded_above_two_still_saturates(self):
        # here the 128-node tanh moment at q = 1 sums to 2 + 4.4e-16, above
        # its exact bound 2, which left g > 0 on all of [0, 1] and no bracket
        q, _, _ = solve_qx_onebit(5.284161765473836, 256.0)
        assert q.tolist() == [1.0]

    def test_zero_snr_pairs_give_zero_overlap(self):
        alpha, snr = np.array([1.0, 4.0, 2.0, 8.0]), np.array([0.0, 1.0, 0.0, 10.0])
        q, q_hat, f2 = solve_qx_onebit(snr, alpha)
        assert q[0] == q[2] == q_hat[0] == q_hat[2] == 0.0
        assert f2[2] == f2_onebit(0.0, 0.0, 2.0, 0.0)
        assert q[1] > 0.0 and q[3] > 0.0
        rates = reff_onebit(alpha, snr)
        assert rates[0] == rates[2] == 0.0 and (rates[[1, 3]] > 0.0).all()

    def test_batch_matches_pointwise_solves(self, monkeypatch):
        monkeypatch.setattr(numerics, "_SLAB", 5)  # several slabs, the last partial
        _, snr = solve_qh(10.0, GRID_BETAS)
        alphas = (1.0, 8.0)
        q, q_hat, f2 = solve_qx_onebit(np.tile(snr, len(alphas)), np.repeat(alphas, snr.size))
        pointwise = [solve_qx_onebit([s], [a]) for a in alphas for s in snr.tolist()]
        assert q.tolist() == [d[0][0] for d in pointwise]
        assert q_hat.tolist() == [d[1][0] for d in pointwise]
        assert f2.tolist() == [d[2][0] for d in pointwise]
        rates = reff_onebit(np.array(alphas)[:, None], snr)
        assert rates.tolist() == [reff_onebit([a], [s])[0] for a in alphas for s in snr.tolist()]

    @pytest.fixture
    def unrefined(self, monkeypatch):
        """The SolverError of a batch whose brackets stay as the scan left
        them; the saturated pairs' roots are scan samples and pass."""
        monkeypatch.setattr(replica, "_MAX_STEPS", 0)
        monkeypatch.setattr(numerics, "_SLAB", 2)  # the failing pair in slab 2
        with pytest.raises(SolverError) as exc:
            reff_onebit([256.0, 256.0, 8.0], [1.0, 10.0, 100.0])
        return exc.value

    def test_failing_point_is_named(self, unrefined):
        assert "(snr_eff=100, alpha=8)" in str(unrefined)

    def test_error_carries_the_scan_bracket(self, unrefined):
        (lo, hi), = unrefined.brackets
        j = replica._ONEBIT_Q.tolist().index(lo)
        assert replica._ONEBIT_Q[j + 1] == hi
        assert o_onebit_g(lo, 8.0, 100.0) > 0.0 > o_onebit_g(hi, 8.0, 100.0)

    def test_error_carries_the_roots(self, unrefined):
        (lo, hi), = unrefined.brackets
        assert unrefined.diagnostics["roots"] == [0.5 * (lo + hi)]
        residual = unrefined.diagnostics["residual"]
        assert residual > 1e-10
        assert residual == pytest.approx(abs(o_onebit_g(0.5 * (lo + hi), 8.0, 100.0)), rel=1e-9)


class TestF2:
    def test_origin_values(self):
        for alpha in (0.5, 1.0, 3.0):
            assert f1_value(0.0, 0.0, 1.0, alpha) == pytest.approx(2 * alpha * LN2, rel=1e-12)
            assert f2_onebit(0.0, 0.0, alpha, 1.0) == pytest.approx(2 * alpha * LN2, rel=1e-12)

    def test_linear_against_refined_quadrature_oracle(self):
        r, r_hat, alpha, s = 0.5, 1.0, 1.0, 1.0
        a = math.sqrt(s / (1 + s * (1 - r)))
        oracle = (-4.0 * alpha * float(O_WEIGHTS @ o_qlnq(a * math.sqrt(r) * O_NODES))
                  + math.log1p(r_hat) - r_hat + r * r_hat)
        assert f1_value(r, r_hat, s, alpha) == pytest.approx(oracle, abs=1e-9)

    def test_onebit_against_refined_quadrature_oracle(self):
        r, r_hat, alpha, s = 0.6, 2.0, 2.0, 5.0
        a = math.sqrt(s / (1 + s * (1 - r)))
        lncosh = np.logaddexp(r_hat + math.sqrt(r_hat) * O_NODES,
                              -(r_hat + math.sqrt(r_hat) * O_NODES)) - LN2
        oracle = (-4.0 * alpha * float(O_WEIGHTS @ o_qlnq(a * math.sqrt(r) * O_NODES))
                  + r_hat - 2.0 * float(O_WEIGHTS @ lncosh) + r * r_hat)
        assert f2_onebit(r, r_hat, alpha, s) == pytest.approx(oracle, abs=1e-9)

    def test_stationarity_at_solutions(self):
        h = 1e-7
        for s, alpha in ((1.0, 1.0), (5.0, 4.0)):
            q = float(solve_qx_linear(s, alpha)[0])
            q_hat = q / (1.0 - q)
            grad_q = (f1_value(q + h, q_hat, s, alpha)
                      - f1_value(q - h, q_hat, s, alpha)) / (2 * h)
            grad_qh = (f1_value(q, q_hat + h, s, alpha)
                       - f1_value(q, q_hat - h, s, alpha)) / (2 * h)
            assert abs(grad_q) < 1e-6 and abs(grad_qh) < 1e-6
            q, q_hat = (float(v[0]) for v in solve_qx_onebit(s, alpha)[:2])
            hi = min(q + h, 1.0)
            grad_q = (f2_onebit(hi, q_hat, alpha, s)
                      - f2_onebit(q - h, q_hat, alpha, s)) / (hi - q + h)
            grad_qh = (f2_onebit(q, q_hat + h, alpha, s)
                       - f2_onebit(q, q_hat - h, alpha, s)) / (2 * h)
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


def _csir_at_each(alpha, snr_eff):
    """csir_rate at each rho of snr_eff, for the shared argument checks."""
    for rho in snr_eff:
        csir_rate(alpha, rho)


class TestRates:
    def test_no_estimate_means_no_rate(self):
        _, snr_eff = solve_qh(10.0, 0.0)
        assert reff_linear(2.0, snr_eff).tolist() == [0.0]
        assert reff_onebit(2.0, snr_eff).tolist() == [0.0]
        for alpha in (1e-3, 1.0, 2.0, 256.0, 1e9):
            assert reff_linear(alpha, [0.0]).tolist() == [0.0]
            assert reff_onebit(alpha, 0.0).tolist() == [0.0]
            assert csir_rate(alpha, 0.0) == 0.0
        # snr_eff = 1e-320 makes coef K^2 subnormal; the scan still brackets it
        rates = reff_linear(1.0, [0.0, 1e-320, 1e-300])
        assert (np.isfinite(rates) & (rates >= 0.0)).all()

    def test_linear_against_independent_chain(self):
        _, snr_eff = solve_qh(10.0, 1.0)
        assert reff_linear(1.0, snr_eff)[0] == pytest.approx(
            o_reff_chain(1.0, 10.0, 1.0, "linear"), abs=1e-7)

    def test_onebit_against_independent_chain(self):
        _, snr_eff = solve_qh(10.0, 1.0)
        assert reff_onebit(4.0, snr_eff)[0] == pytest.approx(
            o_reff_chain(4.0, 10.0, 1.0, "onebit"), abs=1e-7)

    def test_onebit_hard_cap(self):
        _, snr_eff = solve_qh(10.0, [0.2, 1.0, 4.0])
        for alpha in (1.0, 8.0, 64.0, 256.0):
            assert (reff_onebit(alpha, snr_eff) <= 2.0).all()

    def test_monotone_in_overlap_quality(self):
        rates = reff_linear(2.0, solve_qh(10.0, [0.1, 0.5, 1.0, 2.0, 5.0])[1]).tolist()
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("rates", [
        pytest.param(reff_linear, id="linear_rates"), pytest.param(reff_onebit, id="onebit_rates"),
        pytest.param(_csir_at_each, id="csir_rate")])
    @pytest.mark.parametrize("alpha, snr_eff", [
        (1.0, [-0.5, 1.0]),
        (-1.0, [0.5]),
        (math.inf, [0.5]),
        (1.0, [math.inf]),
        (1.0, [0.5, math.inf]),
        (math.nan, [0.5]),
    ])
    def test_data_arguments_checked(self, rates, alpha, snr_eff):
        with pytest.raises(ValueError):
            rates(alpha, snr_eff)


class TestCsirRate:
    def test_vanishes_at_zero_snr(self):
        assert csir_rate(1.0, 0.0) == 0.0
        assert csir_rate(1.0, 1e-9) < 1e-6

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
        assert csir_rate(alpha, rho) == pytest.approx(oracle, abs=1e-7)

    def test_monotone_in_receiver_ratio(self):
        assert csir_rate(2.0, 10.0) > csir_rate(1.0, 10.0)

    def test_reduction_identity_grid(self):
        for alpha in (0.5, 1.0, 4.0):
            for rho in (0.5, 2.0, 10.0):
                # q_h = 1 gives snr_eff = rho
                forced = reff_linear(alpha, rho)[0]
                assert forced == pytest.approx(csir_rate(alpha, rho), rel=1e-8)



# --- high SNR: adaptive quad of the original integrands, brentq roots -------

def q_mean(f, a):
    """E_u[f(u)], u ~ N(0, 1), by adaptive quad split at 0 and at +-1/a, the
    width of the peak of f when f depends on a u."""
    w = min(1.0, 1.0 / a)
    return sum(integrate.quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * f(u),
                              lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((-math.inf, -w), (-w, 0.0), (0.0, w), (w, math.inf)))


def q_exp_ratio(a):
    # E_u[exp(-a^2 u^2) / Q(a u)], the ratio taken in log space
    return q_mean(lambda u: math.exp(-(a * u) ** 2 - special.log_ndtr(-a * u)), a)


def q_qlnq(a):
    return q_mean(lambda u: math.exp(special.log_ndtr(-a * u)) * special.log_ndtr(-a * u), a)


def q_rhs(q, coef, snr):
    ksq = snr / (1.0 + snr * (1.0 - q))
    return coef * ksq / math.pi * q_exp_ratio(math.sqrt(ksq * q))


class TestHighSnrOracles:
    """Rates where a 128-node Gauss-Hermite rule on the raw integrand is far
    off (r_csir 5.2e-2 at 20 dB; the one-bit rate hits the 2-bit clip),
    against quad + brentq oracles of the original integrands."""

    @pytest.mark.parametrize("rho_db", [20.0, 30.0, 50.0])
    def test_csir_rate(self, rho_db):
        alpha, rho = 2.0, 10.0 ** (rho_db / 10.0)
        q = optimize.brentq(lambda q: q / (1.0 - q) - q_rhs(q, alpha, rho), 1e-12, 1.0 - 1e-12,
                            xtol=1e-15, rtol=1e-15)
        q_hat = q / (1.0 - q)
        a = math.sqrt(rho / (1.0 + rho * (1.0 - q)) * q)
        oracle = (4.0 * alpha * (q_qlnq(math.sqrt(rho)) - q_qlnq(a))
                  + math.log1p(q_hat) - q_hat + q * q_hat) / LN2
        assert csir_rate(alpha, rho) == pytest.approx(oracle, abs=1e-10)

    def test_onebit_rate_at_snr_100(self):
        # at q_hat = 14 here a 128-node rule on the raw moments is 6e-9 off
        alpha, snr = 2.0, 100.0

        def moment(q_hat):
            r = math.sqrt(q_hat)
            return q_mean(lambda u: math.tanh(r * u + q_hat) * (2.0 + u / r), 1.0 / r)

        q = optimize.brentq(lambda q: moment(q_rhs(q, alpha, snr)) - 1.0 - q, 1e-6, 1.0,
                            xtol=1e-15, rtol=1e-15)
        q_hat, r = q_rhs(q, alpha, snr), math.sqrt(q_rhs(q, alpha, snr))
        a = math.sqrt(snr / (1.0 + snr * (1.0 - q)) * q)
        ln_cosh = q_mean(lambda u: float(np.logaddexp(q_hat + r * u, -(q_hat + r * u))) - LN2,
                         1.0 / r)
        oracle = (-4.0 * alpha * (q_qlnq(a) - q_qlnq(math.sqrt(snr)))
                  + q_hat - 2.0 * ln_cosh + q * q_hat) / LN2
        assert oracle < 2.0
        assert reff_onebit(alpha, snr)[0] == pytest.approx(oracle, abs=1e-10)
        assert 1.9993 < reff_onebit(alpha, snr)[0] < 2.0  # below the clip
