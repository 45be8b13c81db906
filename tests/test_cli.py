"""Command-line contract: schemas, determinism, exit codes, config merging."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from onebit_bounds.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("args", [
        "bound --alpha 1 --beta inf --rho 1",
        "bound --alpha inf --beta 2 --rho 1",
        "bound --alpha 1 --beta 2 --rho 1 --grid-step inf",
        "bound --alpha 4 --beta 2 --rho 10 --tx onebit --grid-step 0.5 --tol inf",
        "compare --alpha 1 --beta 5 --rho-db-min 0 --rho-db-max inf",
    ])
    def test_non_finite_input_exits_one(self, args, capsys):
        code, _, err = run_cli(args.split(), capsys)
        assert code == 1
        assert "finite" in err

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

    def test_figures_regenerate_identically(self, capsys):
        _, out1, _ = run_cli(["figure", "--which", "2", "--beta", "4"], capsys)
        _, out2, _ = run_cli(["figure", "--which", "2", "--beta", "4"], capsys)
        assert out1 == out2


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
        assert len(lines) == 10
        assert all(l.startswith("criterion-") and " PASS " in l for l in lines[:9])
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
        "figure --which 2 --beta 4": ["--alpha", "--tx", "--seed"],
        "compare --alpha 1 --beta 5": ["--tx", "--seed", "--rho", "--rho-db"],
        "bound --alpha 1 --beta 4 --rho 1": ["--seed"],
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
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
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

    @pytest.mark.parametrize("key", ["workers", "which"])
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

    def test_rho_and_rho_db_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho": 1.0, "rho_db": 0.0}))
        code, _, err = run_cli(["bound", "--config", str(cfg), "--alpha", "1",
                                "--beta", "4"], capsys)
        assert code == 1


class TestGoldenBytes:
    """sha256 of outputs as earlier releases printed them: the replica rows
    from the per-point bisection solver, the exact rows from the likelihood
    table the d-pipeline coded for itself.  Both must stay byte for byte."""

    @pytest.mark.parametrize("args, digest", [
        ("compare --alpha 2 --beta 5",
         "3f672db7385178f94e62a3dca3da85e1867b6ea44bfc4b6e315cfa0dc3346e0e"),
        ("figure --which 3 --beta 8",
         "cdd3566d17e6906f7d92f0b10f4b8995034fadc95c1a6e38447943767b0e42ec"),
        ("bound --alpha 4 --beta 8 --rho 10 --tx onebit --refine",
         "f2d8f70471a7202cb87f65abde2bfffe5a677176edea70784f527908995fa14a"),
        ("figure --which 2 --beta 4 --rho-db 0 --grid-step 0.05",
         "af33a9b503ca776558de6e78fdb855f4cbeb843550987c84d82a2d488e491241"),
        ("bound --alpha 256 --beta 8 --rho-db 0 --tx onebit --refine",
         "73619cfa1ece53b172291536c86211488dce45538efd4e829ab45c9ef5ec3238"),
        ("exact --m 1 --n 1 --t 3 --rho 10",
         "066627ee8146aef8544a3416e345123507b294b2c20cd96b8bf23cef03210a6b"),
        ("exact --m 2 --n 2 --t 2 --rho 10 --mc-samples 2000 --seed 0",
         "2e31e8b3cb3f062699200c77f168a2f84955e72daab7c0adbb20b15c462a10f0"),
        ("exact --m 1 --n 1 --t 4 --rho 0 --format json",
         "4b51bdd2e3180fe554395d00266f32d548c5f82bb3695d0b6688a7f95c7a5935"),
        ("exact --m 2 --n 1 --t 3 --rho 5 --channel-order 8 --format json",
         "82cf8db8eae4d51801bab1cae306dc3c29dd8fff6345f738c60dbb9736199621"),
        ("exact --m 2 --n 2 --t 3 --rho 10 --mc-samples 2000 --seed 0",
         "423bdece9504a67adfb2a4ce2e8eca4f06b673221b82091ad2187b2f2da924a5"),
        ("exact --m 1 --n 2 --t 4 --rho 5",
         "1956b4753b25c8c7db7f243b7aad225761f56ad05867dbdca7fe997495cf6713"),
    ])
    def test_output_bytes(self, args, digest, capsys):
        code, out, _ = run_cli(args.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
