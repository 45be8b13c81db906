"""Command-line contract: schemas, determinism, exit codes, config merging."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from onebit_bounds import cli, numerics, replica
from onebit_bounds.cli import build_parser, main
from onebit_bounds.optimizer import CompareRow

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBound:
    def test_emits_result_and_curve(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--tx", "onebit", "--alpha", "8", "--beta", "8", "--rho-db", "10"],
            capsys)
        assert code == 0
        blocks = out.split("\n\n")
        assert blocks[0].splitlines()[0] == "beta_t_opt,c_bound,method,alpha,beta,rho"
        row = blocks[0].splitlines()[1].split(",")
        assert row[2] == "replica-onebit"
        assert 0.0 < float(row[0]) < 8.0
        assert blocks[1].splitlines()[0] == "beta_t,r_eff,objective"
        assert len(blocks[1].splitlines()) == 1 + 79

    def test_sub_unit_training_at_large_receiver_ratio(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--tx", "onebit", "--alpha", "32", "--beta", "8",
             "--rho-db", "10", "--refine"],
            capsys)
        assert code == 0
        beta_t_opt = float(out.splitlines()[1].split(",")[0])
        assert beta_t_opt < 1.0

    def test_low_snr_training_split(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--tx", "linear", "--alpha", "1", "--beta", "10", "--rho", "0.01"],
            capsys)
        assert code == 0
        beta_t_opt = float(out.splitlines()[1].split(",")[0])
        assert abs(beta_t_opt - 5.0) <= 0.1 + 1e-9

    @pytest.mark.parametrize("tx", ["linear", "onebit"])
    def test_low_snr_law_at_minus_sixty_db(self, tx, capsys):
        # c_bound ~ alpha beta rho^2 / (pi^2 ln 2) at beta_t = beta / 2; the
        # linear data overlap, about 2 alpha snr_eff / pi, lies below q = 1e-12
        code, out, _ = run_cli(
            ["bound", "--tx", tx, "--alpha", "4", "--beta", "8", "--rho-db", "-60"], capsys)
        assert code == 0
        beta_t_opt, c_bound = (float(v) for v in out.splitlines()[1].split(",")[:2])
        assert abs(beta_t_opt - 4.0) <= 0.1 + 1e-9
        assert c_bound == pytest.approx(4.0 * 8.0 * 1e-12 / (np.pi ** 2 * np.log(2.0)), rel=1e-3)

    def test_missing_alpha_exits_one_with_usage(self, capsys):
        code, out, err = run_cli(["bound", "--beta", "8", "--rho", "1"], capsys)
        assert code == 1
        assert "alpha" in err

    def test_snr_overflowing_in_db_exits_one(self, capsys):
        code, _, err = run_cli(["bound", "--alpha", "1", "--beta", "2", "--rho-db", "4000"], capsys)
        assert code == 1
        assert "4000" in err and "out of range" in err

    def test_infinite_snr_exits_one(self, capsys):
        code, _, err = run_cli(["bound", "--alpha", "1", "--beta", "2", "--rho", "inf"], capsys)
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize("command", ["bound --alpha 1 --beta 2", "figure --which 2 --beta 8",
                                         "exact --m 1 --n 1 --t 2",
                                         "asymptotics --alpha 1 --beta 2"])
    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_non_finite_snr_is_named_by_the_system_check(self, command, rho, capsys):
        code, out, err = run_cli(f"{command} --rho {rho}".split(), capsys)
        assert (code, out, err) == (1, "", "onebit-bounds: error: rho must be finite and "
                                           f"nonnegative, got {rho}\n")

    @pytest.mark.parametrize("args", [
        "bound --alpha 1 --beta inf --rho 1",
        "bound --alpha inf --beta 2 --rho 1",
        "bound --alpha 1 --beta 2 --rho 1 --grid-step inf",
        "compare --alpha 1 --beta 5 --rho-db-min 0 --rho-db-max inf",
        # finite inputs whose grid length or closed form overflows
        "asymptotics --alpha 1 --beta 1 --rho 1e200",
        "asymptotics --alpha 1e300 --beta 1e300 --rho 1",
        "bound --alpha 1 --beta 1e308 --rho 1 --grid-step 1e-308",
        "figure --which 3 --beta 1e308 --grid-step 1e-300",
        "compare --alpha 1 --beta 5 --rho-db-min=-1e308 --rho-db-max=1e308",
    ])
    def test_non_finite_input_exits_one(self, args, capsys):
        code, _, err = run_cli(args.split(), capsys)
        assert code == 1
        assert "finite" in err

    def test_grid_longer_than_the_limit_exits_one(self, capsys):
        code, _, err = run_cli("bound --alpha 1 --beta 1e17 --rho 1 --grid-step 1".split(), capsys)
        assert code == 1
        assert err.startswith("onebit-bounds: error: training grid of 1e+17 points exceeds")

    def test_missing_snr_exits_one(self, capsys):
        code, _, err = run_cli(["bound", "--alpha", "1", "--beta", "8"], capsys)
        assert code == 1
        assert "rho" in err

    def test_deterministic_bytes(self, capsys):
        args = ["bound", "--tx", "onebit", "--alpha", "4", "--beta", "4", "--rho-db", "10"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--alpha", "1", "--beta", "4", "--rho", "1", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"result", "curve"}
        assert payload["result"][0]["method"] == "replica-linear"
        assert len(payload["curve"]) == 39

    def test_writes_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "bound.csv"
        code, out, _ = run_cli(
            ["bound", "--alpha", "1", "--beta", "4", "--rho", "1", "--out", str(out_path)],
            capsys)
        assert code == 0 and out == ""
        text = out_path.read_text()
        assert text.startswith("beta_t_opt,") and "\r" not in text


class TestCompare:
    def test_schema_and_dominance(self, capsys):
        code, out, err = run_cli(
            ["compare", "--alpha", "1", "--beta", "20",
             "--rho-db-min", "-10", "--rho-db-max", "0", "--rho-db-step", "2"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho_db,alpha,beta,c_bound_replica,c_bound_bussgang,r_csir"
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[4] <= vals[3] + 1e-12     # bussgang <= replica
            assert vals[3] <= vals[5] + 1e-12     # replica <= csir

    def test_low_snr_merge_row(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--alpha", "1", "--beta", "20",
             "--rho-db-min", "-40", "--rho-db-max", "-40", "--rho-db-step", "1"],
            capsys)
        assert code == 0
        vals = [float(v) for v in out.strip().splitlines()[1].split(",")]
        assert 0.99 <= vals[4] / vals[3] <= 1.01

    def test_low_snr_sweep_solves_every_point(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--alpha", "1", "--beta", "20", "--rho-db-min", "-56",
             "--rho-db-max", "-50", "--rho-db-step", "2"],
            capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 4

    def test_empty_sweep_exits_one(self, capsys):
        code, _, err = run_cli(
            ["compare", "--alpha", "1", "--beta", "20",
             "--rho-db-min", "10", "--rho-db-max", "0"],
            capsys)
        assert code == 1
        assert "sweep" in err

    def test_sweep_end_overflowing_in_db_exits_one(self, capsys):
        code, _, err = run_cli(
            ["compare", "--alpha", "1", "--beta", "5",
             "--rho-db-min", "0", "--rho-db-max", "4000", "--rho-db-step", "1000"],
            capsys)
        assert code == 1
        assert "out of range" in err

    def test_sweep_longer_than_the_limit_exits_one(self, capsys):
        code, _, err = run_cli(
            ["compare", "--alpha", "1", "--beta", "5",
             "--rho-db-min", "0", "--rho-db-max", "1", "--rho-db-step", "1e-300"],
            capsys)
        assert code == 1
        assert err.startswith("onebit-bounds: error: SNR sweep of 1e+300 points exceeds")

    def test_point_takes_few_exact_tail_means(self, capsys, monkeypatch):
        # the overlap scans read their signs from numerics.tail_fit; with the
        # exact mean at every scan sample this point took 4,029 rows
        rows, exact = [], numerics.mean_exp_ratio
        for module in (numerics, replica):
            monkeypatch.setattr(module, "mean_exp_ratio",
                                lambda a: rows.append(np.size(a)) or exact(a))
        code, _, _ = run_cli("compare --alpha 2 --beta 5 --rho-db-min 5.3 --rho-db-max 5.3"
                             .split(), capsys)
        assert code == 0
        assert 0 < sum(rows) <= 1300

    def test_data_overlap_fails_before_the_known_channel(self, capsys):
        # the known channel is the data batch's last pair, checked last
        # (csir_rate(1e6, 1e8) alone has no bracket)
        code, out, err = run_cli("compare --alpha 1e6 --beta 5 --rho-db-min 80 "
                                 "--rho-db-max 80".split(), capsys)
        assert (code, out) == (2, "")
        assert err == ("onebit-bounds: solver error: linear data overlap fixed point residual "
                       "1.983e-04 exceeds 1.451e-04 at q=0.9999993107204601 "
                       "(alpha=1e+06, snr=5.04178)\n")

    def test_falling_column_warns_on_stderr_only(self, capsys, monkeypatch):
        # replica falls by 0.25, Bussgang and r_csir rise
        monkeypatch.setattr(cli, "compare_sweep", lambda alpha, beta, rho_dbs, grid_step: [
            CompareRow(rho_dbs[0], alpha, beta, 0.5, 0.1, 1.0),
            CompareRow(rho_dbs[1], alpha, beta, 0.25, 0.2, 2.0)])
        code, out, err = run_cli("compare --alpha 2 --beta 5 --rho-db-min 0 --rho-db-max 1"
                                 .split(), capsys)
        assert code == 0
        assert err == "warning: column c_bound_replica is not nondecreasing in rho\n"
        assert out == ("rho_db,alpha,beta,c_bound_replica,c_bound_bussgang,r_csir\n"
                       "0,2,5,0.5,0.1,1\n"
                       "1,2,5,0.25,0.2,2\n")

    def test_missing_alpha_exits_one(self, capsys):
        code, out, err = run_cli("compare --beta 5".split(), capsys)
        assert (code, out, err) == (1, "", "onebit-bounds: error: --alpha and --beta are required\n")

    def test_workers_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--alpha", "1", "--beta", "10", "--workers", "2"])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err


class TestFigure:
    def test_figure_two_columns_and_shrinkage(self, capsys):
        code, out, _ = run_cli(["figure", "--which", "2", "--beta", "8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,beta_t_opt"
        table = {float(l.split(",")[0]): float(l.split(",")[2]) for l in lines[1:]}
        assert table[256.0] < 1.0
        for base in (16.0, 32.0, 64.0):
            assert 0.58 <= table[2 * base] / table[base] <= 0.68

    def test_figure_three_below_two_bits(self, capsys):
        code, out, _ = run_cli(["figure", "--which", "3", "--beta", "8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,c_bound_onebit"
        values = [float(l.split(",")[2]) for l in lines[1:]]
        assert max(values) < 2.0
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_figure_one_schema(self, capsys):
        code, out, _ = run_cli(["figure", "--which", "1", "--beta", "10"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho_db,alpha,beta,c_bound_replica,c_bound_bussgang,r_csir"
        assert len(lines) == 1 + 31 * 2  # -10..20 dB for alpha in {1, 2}
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[4] <= vals[3] + 1e-12

    @pytest.mark.parametrize("flag", ["--rho", "--rho-db"])
    def test_figure_one_rejects_an_snr_flag(self, flag, capsys):
        code, out, err = run_cli(["figure", "--which", "1", "--beta", "5", flag, "3"], capsys)
        assert code == 1 and out == ""
        assert "figure 1 sweeps -10 to 20 dB" in err

    def test_figure_one_accepts_a_config_file_snr(self, tmp_path, capsys):
        # every subcommand accepts every config key
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho": 3.0}))
        args = ["figure", "--which", "1", "--beta", "5", "--grid-step", "1"]
        code, out, _ = run_cli(args + ["--config", str(cfg)], capsys)
        assert code == 0
        assert out == run_cli(args, capsys)[1]

    def test_figures_regenerate_identically(self, capsys):
        _, out1, _ = run_cli(["figure", "--which", "2", "--beta", "4"], capsys)
        _, out2, _ = run_cli(["figure", "--which", "2", "--beta", "4"], capsys)
        assert out1 == out2

    def test_figure_three_takes_few_exact_tanh_moments(self, capsys, monkeypatch):
        # the one-bit scan reads its signs from the tanh moment's fit; with
        # the exact moment at every scan sample this call took 55,534 rows
        replica._tanh_fit()  # built first, so that only the call's rows count
        rows, moment = [], replica._tanh_moment
        monkeypatch.setattr(replica, "_tanh_moment",
                            lambda q, rule: rows.append(np.size(q)) or moment(q, rule))
        code, _, _ = run_cli("figure --which 3 --beta 8 --rho-db 10.2".split(), capsys)
        assert code == 0
        assert 0 < sum(rows) <= 7000


class TestExact:
    def test_pipelines_side_by_side(self, capsys):
        code, out, _ = run_cli(["exact", "--m", "1", "--n", "1", "--t", "3",
                                "--rho", "10"], capsys)
        assert code == 0
        blocks = out.split("\n\n")
        lines = blocks[0].splitlines()
        assert lines[0] == "t_t,reff_exact,mi_direct,abs_diff,objective"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.split(",")[3]) < 1e-6
        assert blocks[1].splitlines()[0] == "t_t_opt,c_bound"

    def test_zero_snr_rates_vanish(self, capsys):
        code, out, _ = run_cli(["exact", "--m", "1", "--n", "1", "--t", "3",
                                "--rho", "0"], capsys)
        assert code == 0
        for line in out.split("\n\n")[0].splitlines()[1:]:
            assert abs(float(line.split(",")[1])) < 1e-9

    def test_too_many_transmitters_exits_one(self, capsys):
        code, _, err = run_cli(["exact", "--m", "3", "--n", "1", "--t", "3",
                                "--rho", "1"], capsys)
        assert code == 1

    def test_budget_exceeded_reports_terms(self, capsys):
        code, _, err = run_cli(["exact", "--m", "2", "--n", "2", "--t", "5",
                                "--rho", "1", "--channel-order", "4"], capsys)
        assert code == 1
        assert str(4 ** 8 * 4 ** 8) in err

    def test_budget_refuses_before_any_table(self, capsys):
        # Monte Carlo keeps the tables small; the terms at T_t = 4 are refused
        # at construction, before any node is drawn
        start = time.perf_counter()
        code, out, err = run_cli(["exact", "--m", "2", "--n", "2", "--t", "5", "--rho", "1",
                                  "--mc-samples", "100"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"onebit-bounds: error: training enumeration needs "
                                           f"{4 ** 16} terms, budget is 100000000\n")

    def test_missing_block_length_exits_one(self, capsys):
        code, out, err = run_cli("exact --m 1 --n 1 --rho 1".split(), capsys)
        assert (code, out, err) == (1, "", "onebit-bounds: error: --m, --n and --t are required\n")

    def test_single_symbol_block_exits_one(self, capsys):
        code, out, err = run_cli(["exact", "--m", "1", "--n", "1", "--t", "1",
                                  "--rho", "1"], capsys)
        assert code == 1 and out == ""
        assert "--t >= 2" in err

    def test_zero_monte_carlo_samples_exits_one(self, capsys):
        code, out, err = run_cli(["exact", "--m", "1", "--n", "1", "--t", "2",
                                  "--rho", "1", "--mc-samples", "0"], capsys)
        assert code == 1 and out == ""
        assert "samples must be positive" in err

    def test_too_many_monte_carlo_samples_exit_one_before_any_table(self, capsys):
        # 10^8 nodes at m = 2 would ask for about 100 GB of tables
        code, out, err = run_cli(["exact", "--m", "2", "--n", "1", "--t", "2", "--rho", "1",
                                  "--mc-samples", "100000000"], capsys)
        assert (code, out, err) == (1, "", "onebit-bounds: error: 100000000 channel nodes of 64 "
                                           "table entries each exceed the cap of 25000000 entries; "
                                           "lower the quadrature order or use fewer Monte Carlo "
                                           "samples\n")

    def test_underflowing_quadrature_weight_prints_no_warning(self, capsys):
        # from order 199 at m = 1 a tensor Gauss-Hermite weight underflows to
        # 0; its log is -inf, which the tables already handle, and must not warn
        code, out, err = run_cli(["exact", "--m", "1", "--n", "1", "--t", "2", "--rho", "10",
                                  "--channel-order", "199"], capsys)
        assert (code, err) == (0, "") and out

    def test_negative_seed_exits_one_naming_the_seed(self, capsys):
        args = ["exact", "--m", "1", "--n", "1", "--t", "2", "--rho", "1", "--seed", "-1"]
        code, out, err = run_cli(args + ["--mc-samples", "10"], capsys)
        assert (code, out, err) == (1, "", "onebit-bounds: error: seed must be nonnegative, got -1\n")
        code, _, _ = run_cli(args, capsys)  # quadrature never reads the seed
        assert code == 0

    def test_monte_carlo_is_seeded(self, capsys):
        args = ["exact", "--m", "1", "--n", "1", "--t", "2", "--rho", "10",
                "--mc-samples", "5000", "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestAsymptotics:
    def test_closed_form_row(self, capsys):
        code, out, _ = run_cli(["asymptotics", "--alpha", "1", "--beta", "10",
                                "--rho", "0.01"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,rho,tx,beta_t_opt_approx,c_bound_approx"
        vals = lines[1].split(",")
        assert float(vals[4]) == 5.0
        assert float(vals[5]) == pytest.approx(1.461755691778e-4, rel=1e-9)


class TestSelftest:
    def test_prints_one_line_per_criterion(self, capsys, monkeypatch):
        from onebit_bounds import acceptance

        fake = [acceptance.CriterionResult(i, f"check-{i}", True, "ok", 0.01)
                for i in range(1, 10)]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake)
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:9] == [res.line() for res in fake]
        assert len(lines) == 10
        assert lines[9].startswith("selftest: 9/9")

    def test_failure_exits_nonzero(self, capsys, monkeypatch):
        from onebit_bounds import acceptance

        fake = [acceptance.CriterionResult(1, "check", False, "broken", 0.01)]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake)
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert "FAIL" in out


class TestFlagGroups:
    """Each subcommand takes only the flags it reads; any other exits 1."""

    @pytest.mark.parametrize("args", [
        "exact --m 1 --n 1 --t 2 --rho 1 --alpha 5 --tx onebit --grid-step 0.3 "
        "--quad-nodes 7 --tol 1",
        "asymptotics --alpha 1 --beta 10 --rho 0.01 --quad-nodes 3 --seed 9 --grid-step 5",
        "figure --which 1 --beta 5 --alpha 7 --tx onebit",
    ])
    def test_flags_that_did_nothing_exit_one(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args.split())
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    # a valid command line for each subcommand, and the flags it no longer takes
    DROPPED = {
        "exact --m 1 --n 1 --t 2 --rho 1":
            ["--alpha", "--beta", "--tx", "--grid-step", "--quad-nodes", "--tol"],
        "asymptotics --alpha 1 --beta 10 --rho 0.01": ["--grid-step", "--quad-nodes", "--tol", "--seed"],
        "figure --which 2 --beta 4": ["--alpha", "--tx", "--seed", "--quad-nodes", "--tol"],
        "compare --alpha 1 --beta 5": ["--tx", "--seed", "--rho", "--rho-db", "--quad-nodes",
                                       "--tol"],
        "bound --alpha 1 --beta 4 --rho 1": ["--seed", "--quad-nodes", "--tol"],
    }

    @pytest.mark.parametrize("args, flag", [
        (args, flag) for args, flags in DROPPED.items() for flag in flags
    ])
    def test_dropped_flag_exits_one(self, args, flag, capsys):
        value = "linear" if flag == "--tx" else "1"
        parser = build_parser()
        parser.parse_args(args.split())
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(args.split() + [flag, value])
        assert exc.value.code == 1
        if args.startswith("compare") and flag.startswith("--rho"):
            # prefixes of --rho-db-min, --rho-db-max and --rho-db-step
            assert f"error: ambiguous option: {flag} could match" in capsys.readouterr().err
        else:
            assert f"error: unrecognized arguments: {flag} " in capsys.readouterr().err

    def test_benchmark_jobs_parse(self):
        workloads = load_perfbench("workloads")
        parser = build_parser()
        for jobs, _ in workloads.WORKLOADS.values():
            for small in (False, True):
                for argv in jobs(0, 0, small):
                    parser.parse_args(argv)


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "beta": 4.0, "rho": 1.0,
                                   "grid_step": 0.5}))
        code, out, _ = run_cli(["bound", "--config", str(cfg), "--beta", "2"], capsys)
        assert code == 0
        header, row = out.split("\n\n")[0].splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["beta"]) == 2.0     # flag wins
        assert float(vals["alpha"]) == 1.0    # from config
        curve_lines = out.split("\n\n")[1].splitlines()[1:]
        assert len(curve_lines) == 3          # grid_step 0.5 from config

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alhpa": 1.0}))
        code, _, err = run_cli(["bound", "--config", str(cfg), "--alpha", "1",
                                "--beta", "4", "--rho", "1"], capsys)
        assert code == 1
        assert "alhpa" in err

    @pytest.mark.parametrize("text", ["{\"alpha\": 1.0,", None], ids=["not-json", "missing"])
    def test_unreadable_config_exits_one(self, text, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(["bound", "--config", str(cfg), "--alpha", "1",
                                  "--beta", "4", "--rho", "1"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("onebit-bounds: error: ")

    def test_config_file_not_an_object_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, out, err = run_cli(["bound", "--config", str(cfg), "--alpha", "1",
                                  "--beta", "2", "--rho", "1"], capsys)
        assert (code, out) == (1, "")
        assert err == f"onebit-bounds: error: config file {cfg} must hold a JSON object\n"

    @pytest.mark.parametrize("key", ["workers", "which", "quad_nodes", "tol"])
    def test_retired_key_rejected(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha": 1.0, "beta": 2.0, "rho": 1.0, key: 2}))
        code, _, err = run_cli(["bound", "--config", str(cfg)], capsys)
        assert code == 1
        assert key in err

    def test_exact_keys_match_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"m": 1, "n": 1, "t": 2, "rho": 10.0,
                                   "mc_samples": 3000, "seed": 4}))
        code, from_file, _ = run_cli(["exact", "--config", str(cfg)], capsys)
        assert code == 0
        _, from_flags, _ = run_cli(["exact", "--m", "1", "--n", "1", "--t", "2", "--rho", "10",
                                    "--mc-samples", "3000", "--seed", "4"], capsys)
        assert from_file == from_flags

        cfg.write_text(json.dumps({"alpha": 2, "beta": 4.0, "rho": 3.5, "tx": "onebit",
                                   "grid_step": 0.25}))
        code, from_file, _ = run_cli(["bound", "--config", str(cfg)], capsys)
        assert code == 0
        _, from_flags, _ = run_cli(["bound", "--alpha", "2", "--beta", "4.0", "--rho", "3.5",
                                    "--tx", "onebit", "--grid-step", "0.25"],
                                   capsys)
        assert from_file == from_flags

    @pytest.mark.parametrize("command, key, value, message", [
        ("exact --m 1 --n 1 --rho 10", "t", 2.9, "invalid int value '2.9'"),
        ("exact --m 1 --n 1 --t 2 --rho 10", "mc_samples", 1e3, "invalid int value '1000.0'"),
        ("bound --beta 4 --rho 1", "alpha", True, "invalid float value 'True'"),
        ("exact --m 1 --n 1 --t 2 --rho 10", "channel_order", 8.7, "invalid int value '8.7'"),
    ], ids=["exact-t", "exact-mc_samples", "bound-alpha", "exact-channel_order"])
    def test_config_value_read_as_its_flag(self, command, key, value, message,
                                           tmp_path, capsys):
        # the value typed as the flag exits 1 in argparse, so the file value must too
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(command.split() + ["--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert f"config key {key}: {message}" in err
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--" + key.replace("_", "-"), str(value)])
        assert exc.value.code == 1

    @pytest.mark.parametrize("key, value", [("tx", "one-bit"), ("format", "xml")])
    def test_config_value_outside_choices_rejected(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(["bound", "--config", str(cfg), "--alpha", "4", "--beta", "8",
                                  "--rho", "10"], capsys)
        assert code == 1 and out == ""
        assert key in err and repr(value) in err

    def test_rho_and_rho_db_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho": 1.0, "rho_db": 0.0}))
        code, _, err = run_cli(["bound", "--config", str(cfg), "--alpha", "1",
                                "--beta", "4"], capsys)
        assert code == 1


class TestRepeatedMain:
    """main() keeps one parser per process; each command of a sequence must
    print the bytes it prints through a freshly built parser, so no flag
    carries over from one call to the next."""

    @staticmethod
    def standalone(argv, capsys):
        args = build_parser().parse_args(argv)
        assert args.func(args) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("first, second", [
        ("bound --alpha 4 --beta 8 --rho 10 --tx onebit --refine",
         "bound --alpha 4 --beta 8 --rho 10 --tx onebit"),
        ("compare --alpha 2 --beta 5 --rho-db-min 0 --rho-db-max 2", "figure --which 3"),
    ])
    def test_back_to_back_commands_print_their_own_bytes(self, first, second, capsys):
        outs = [run_cli(args.split(), capsys)[:2] for args in (first, second)]
        assert outs == [(0, self.standalone(args.split(), capsys)) for args in (first, second)]


class TestStartup:
    @pytest.fixture(scope="class")
    def probe(self):
        """One fresh process: after the import, whether scipy.optimize is
        loaded, how many checked fits are built, and whether acceptance and
        scipy.integrate are loaded; then the exit code of a refined one-bit
        bound and whether scipy.optimize is loaded."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        probe = ("import contextlib, io, sys, onebit_bounds.cli as cli\n"
                 "print('scipy.optimize' in sys.modules)\n"
                 "fits = sys.modules['onebit_bounds.numerics'].chebyshev_fit\n"
                 "print(fits.cache_info().currsize)\n"
                 "print('onebit_bounds.acceptance' in sys.modules, "
                 "'scipy.integrate' in sys.modules)\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = cli.main('bound --alpha 4 --beta 8 --rho 10 --tx onebit --refine'"
                 ".split())\n"
                 "print(code, 'scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        return proc.stdout.split()

    def test_import_skips_scipy_optimize(self, probe):
        # the refinement is the package's own search, so neither the import
        # nor a refined bound loads scipy.optimize
        assert probe[:1] + probe[4:] == ["False", "0", "False"]

    def test_import_builds_no_fit(self, probe):
        # the tail-mean and tanh-moment fits are built on first use, so the
        # import behind the benchmark's setup_s does not pay for them
        assert probe[1] == "0"

    def test_import_skips_acceptance(self, probe):
        # selftest imports the acceptance module, and with it scipy.integrate,
        # only when it runs, so the import behind setup_s pays for neither
        assert probe[2:4] == ["False", "False"]

    def test_benchmark_tracer_finds_its_names(self):
        # perfbench/tracing.py wraps package functions by name: a renamed or
        # removed one fails here, not only in a traced benchmark run
        tracing = load_perfbench("tracing")
        before = replica.solve_qx_onebit
        with tracing.Tracer().installed():
            assert replica.solve_qx_onebit is not before
        assert replica.solve_qx_onebit is before

    # the tracer's names that these commands never call, and why
    OFF_PATH = {
        "replica.overlap_fixed_points": "lists every root of one equation; the solves pick one",
        "replica.csir_rate": "the known-channel rate, printed by compare only",
        "replica.reff_linear": "the grid path takes the linear rates and csir_rate in one batch",
        "replica.solve_qx_linear": "the linear rates solve their overlaps inside that batch",
        "numerics.exp_ratio": "mean_exp_ratio changes variables and averages 2 / erfcx",
        "numerics.q_log_q": "mean_q_log_q changes variables and averages erfcx times log_ndtr",
    }

    def test_benchmark_tracer_names_stay_on_the_cli_path(self):
        # a traced benchmark run counts calls of these names, so each must run
        # under the command that exercises its layer
        tracer = load_perfbench("tracing").Tracer()
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            for args in ("bound --alpha 4 --beta 8 --rho 10 --tx onebit --refine",
                         "bound --alpha 4 --beta 8 --rho 10 --tx linear",
                         "exact --m 1 --n 1 --t 3 --rho 10"):
                assert main(args.split()) == 0
        metrics = tracer.layer_metrics(0)
        on_path = ["replica.solve_qh", "replica.solve_qx_onebit", "replica.reff_onebit",
                   "optimizer.optimize_training", "exact.reff_exact", "exact.mi_direct",
                   "exact.receiver_tables"]
        assert [name for name in on_path if metrics[f"{name}.calls"] < 1] == []
        assert {name: metrics[f"{name}.calls"] for name in self.OFF_PATH} == \
               dict.fromkeys(self.OFF_PATH, 0)


# (command, sha256 of its stdout), pinned by TestGoldenBytes
GOLDEN = [
    ("compare --alpha 2 --beta 5",
     "f6f2a9b5021364806b729e94c56c8e1cced93ff6b50877cd84a990dead22cb44"),
    ("figure --which 3 --beta 8",
     "2d68334faed280abeaaf65e1f07f1635346c5e846c02f232702b80f9a9ee3016"),
    ("bound --alpha 4 --beta 8 --rho 10 --tx onebit --refine",
     "fc6a43b48c3943463bb3d86df05011df2ff955d0594d238c6a267c6b2962898d"),
    ("figure --which 2 --beta 4 --rho-db 0 --grid-step 0.05",
     "f79f166b50317aeb4c58e66bfadb21983ddcda1734fa2e16c405d0c4d5a912ae"),
    ("bound --alpha 256 --beta 8 --rho-db 0 --tx onebit --refine",
     "d56409f94a72073adeff71966e53f00d2c86a264a9c34f4955cf73dc26ddc413"),
    ("exact --m 1 --n 1 --t 3 --rho 10",
     "786b7ad500f2b511b69a29ee0d516bcad0628ac9e8dd5e589bf3696973facd8f"),
    ("exact --m 2 --n 2 --t 2 --rho 10 --mc-samples 2000 --seed 0",
     "2e31e8b3cb3f062699200c77f168a2f84955e72daab7c0adbb20b15c462a10f0"),
    ("exact --m 1 --n 1 --t 4 --rho 0 --format json",
     "4b51bdd2e3180fe554395d00266f32d548c5f82bb3695d0b6688a7f95c7a5935"),
    ("exact --m 2 --n 1 --t 3 --rho 5 --channel-order 8 --format json",
     "1c6fbdeea72e3b777c893ab57ff2d26b1d275abb05456b0e00ae98b8c81b2277"),
    ("exact --m 2 --n 2 --t 3 --rho 10 --mc-samples 2000 --seed 0",
     "423bdece9504a67adfb2a4ce2e8eca4f06b673221b82091ad2187b2f2da924a5"),
    ("exact --m 1 --n 2 --t 4 --rho 5",
     "9e05d74169ea463fe1ff32bbbf5972bf33de6a27967951378986384d62fae821"),
]


class TestGoldenBytes:
    """sha256 of outputs as earlier releases printed them: the replica rows
    from overlap roots within a few ulp of the residual's sign change, the
    exact rows from the likelihood table the d-pipeline coded for itself.
    Both must stay byte for byte.  A refined beta_t_opt is resolved only to
    grid_step * 1e-3, so a last-bit change in any root moves its 10th-12th
    digit: the refined rows are from the Illinois-midpoint roots of every
    overlap solve (about 1e-9 relative, far inside that tolerance).  The
    exact rows at (m, n, t) = (1, 1, 3), (2, 1, 3) and (1, 2, 4) are from
    mi_direct's receiver factorization: only their abs_diff column moved,
    since mi_direct came within 1e-15 of a long-double sum of the joint
    law where the summed joint law had been up to 2.4e-12 off.  Those three
    now print abs_diff 0, since both rates print the same 12 digits: each
    row's mi_direct is within 1e-15 of that long-double sum, and its
    difference from reff_exact (at most 9e-16 since reff_exact sums the
    joint law; up to 5e-14 while it summed d2 d4 per training output) is
    rounding noise that moves with the BLAS kernel and the summation
    order.  The four
    replica digests that read a Gaussian-tail mean at a >= 1 are from the
    exact 48-node means: compare's r_csir rows from 8 dB up came within
    1e-15 of a quad oracle (they were up to 5.2e-2 off at 20 dB), and the
    refined rows moved below their grid_step * 1e-3 resolution.  The four
    one-bit digests are from the exact one-bit moments: every moved rate and
    c_bound came within 4e-13 of a 1024-node sum of the raw moments (it was
    up to 3.5e-8 off), and every moved beta_t_opt by less than its
    grid_step * 1e-3 resolution."""

    @pytest.mark.parametrize("args, digest", GOLDEN)
    def test_output_bytes(self, args, digest, capsys):
        code, out, _ = run_cli(args.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE=Prescott names an x86-64 BLAS kernel")
    def test_exact_bytes_hold_on_a_second_blas_kernel(self):
        # OPENBLAS_CORETYPE picks the kernel of one process only; Prescott (a
        # build may name it Katmai) runs on every x86-64 CPU and rounds its
        # products unlike the AVX2 and AVX-512 kernels
        golden = [(args, digest) for args, digest in GOLDEN if args.startswith("exact")]
        probe = ("import contextlib, hashlib, io, sys\n"
                 "from onebit_bounds.cli import main\n"
                 "for args in sys.argv[1:]:\n"
                 "    out = io.StringIO()\n"
                 "    with contextlib.redirect_stdout(out):\n"
                 "        main(args.split())\n"
                 "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())")
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", probe, *(args for args, _ in golden)],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        assert len(golden) == 6
        assert proc.stdout.split() == [digest for _, digest in golden]
