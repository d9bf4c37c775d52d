"""Config parsing, exit codes, envelopes and byte-identical reruns."""

import csv
import json
import warnings

import numpy as np
import pytest

from kolmoflow.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_RESOLUTION,
    EXIT_TYPE,
    EXIT_UNKNOWN_KEY,
    RUNNERS,
    ConfigError,
    RunConfig,
    _envelope,
    check_report,
    main,
    parse_config,
    payload_bytes,
    run_subcommand,
    write_csv_table,
    write_report,
)
from kolmoflow.dns import run_threshold_sweep

MINIMAL_PSI = """
# minimal psi configuration
nu = 0.01
gamma = 0.4
k1 = 1
k3 = 0
k_f = 1
n = 256
"""


class TestParseConfig:
    def test_minimal_psi_valid(self):
        v = parse_config(MINIMAL_PSI, "psi")
        assert v["nu"] == 0.01 and v["gamma"] == 0.4
        assert v["k_f"] == 1.0 and v["n"] == 256
        assert v["operator"] == "H"  # default

    def test_kf_range_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_PSI.replace("k_f = 1", "k_f = 1.5"), "psi")
        assert err.value.code == EXIT_RANGE
        assert "k_f" in str(err.value)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_PSI + "\nviscosty = 1e-2\n", "psi")
        assert err.value.code == EXIT_UNKNOWN_KEY
        assert "viscosty" in str(err.value)
        assert "line" in str(err.value)

    def test_type_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_PSI.replace("n = 256", "n = big"), "psi")
        assert err.value.code == EXIT_TYPE

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nu = 0.01", "psi")
        assert err.value.code == EXIT_CONFIG

    def test_list_values(self):
        v = parse_config("nu = 1e-2, 3e-3\nalpha = 10, 100\nlambda = 0, 0.5\n",
                         "resolvent-sweep")
        assert v["nu"] == [0.01, 0.003]
        assert v["kind"] == "Nlambda"
        # a list key whose default is the empty list may be left empty
        v = parse_config("nu = 0.01\nalpha = 10\nlambda = 0\nbeta =\n", "resolvent-sweep")
        assert v["beta"] == []

    def test_line_numbers_in_errors(self):
        text = "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 0\nk_f = 1\nbogus = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text, "psi")
        assert "line 6" in str(err.value)


class TestEnvelope:
    def test_report_roundtrip(self, tmp_path):
        cfg = RunConfig(subcommand="psi", values={"nu": 0.01}, out_dir=tmp_path)
        write_report(tmp_path / "r.json", _envelope(cfg), {"x": 1.5}, True)
        doc = check_report(tmp_path / "r.json")
        assert doc["summary"]["passed"] is True
        assert doc["envelope"]["config"]["subcommand"] == "psi"

    def test_payload_bytes_deterministic(self):
        a = payload_bytes({"b": np.float64(2.5), "a": [np.int64(1), 2]})
        b = payload_bytes({"a": [1, 2], "b": 2.5})
        assert a == b

    GOOD_ENVELOPE = {"tool": "kolmoflow", "version": "0.1.0", "timestamp": "t",
                     "config": {}}

    def test_check_report_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"envelope": {}}))
        with pytest.raises(ConfigError):
            check_report(p)

    @pytest.mark.parametrize("doc", [
        5,
        {"envelope": {**GOOD_ENVELOPE, "config": []}, "payload": {},
         "summary": {"passed": True}},
        {"envelope": GOOD_ENVELOPE, "payload": {}, "summary": 5},
    ], ids=["number", "config-list", "summary-number"])
    def test_check_report_rejects_malformed_json(self, tmp_path, doc):
        # a malformed report is a configuration error, not a traceback
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["check-report", "--report", str(p)]) == EXIT_CONFIG


class TestEndToEnd:
    def test_psi_subcommand(self, tmp_path):
        cfgfile = tmp_path / "psi.cfg"
        cfgfile.write_text(MINIMAL_PSI.replace("n = 256", "n = 128"))
        code = main(["psi", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        report = tmp_path / "o" / "psi_report.json"
        assert report.exists()
        doc = json.loads(report.read_text())
        assert doc["payload"]["psi"]["psi"] > 0
        scan = (tmp_path / "o" / "psi_scan.csv").read_text().splitlines()
        assert scan[0].startswith("# envelope:")
        assert scan[1] == "lam,sigma_min"

    def test_rerun_payload_bytes_identical(self, tmp_path):
        cfgfile = tmp_path / "psi.cfg"
        cfgfile.write_text(MINIMAL_PSI.replace("n = 256", "n = 128"))
        docs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["psi", "--config", str(cfgfile), "--out", str(out),
                         "--seed", "7"]) == EXIT_OK
            doc = json.loads((out / "psi_report.json").read_text())
            docs.append(payload_bytes(doc["payload"]))
        assert docs[0] == docs[1]

    def test_psi_inadequate_grid_is_a_resolution_flag(self, tmp_path):
        # the grid rule asks for n >= 128 here; the scan itself converges
        cfgfile = tmp_path / "psi.cfg"
        cfgfile.write_text("nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 1\nk_f = 0.5\n"
                           "operator = L\nn = 64\nscan_count = 96\n")
        out = tmp_path / "o"
        assert main(["psi", "--config", str(cfgfile), "--out", str(out)]) == EXIT_RESOLUTION
        psi = json.loads((out / "psi_report.json").read_text())["payload"]["psi"]
        assert psi["converged"]
        assert psi["psi"] == pytest.approx(0.7845, abs=1e-4)
        assert psi["flags"] == ["grid inadequate: n < 8/delta"]
        cfgfile.write_text(cfgfile.read_text().replace("n = 64", "n = 128"))
        assert main(["psi", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK

    def test_config_error_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_PSI.replace("k_f = 1", "k_f = 1.5"))
        assert main(["psi", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_RANGE
        bad.write_text(MINIMAL_PSI + "\nnonsense = 1\n")
        assert main(["psi", "--config", str(bad),
                     "--out", str(tmp_path)]) == EXIT_UNKNOWN_KEY
        assert main(["psi", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_evolve_method_key_is_unknown(self, tmp_path, capsys):
        # evolve has one stepper, the block exponential, and no method key
        cfgfile = tmp_path / "evolve.cfg"
        cfgfile.write_text("nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 1\nk_f = 0.5\n"
                           "n = 48\nt_end = 12\ndt = 0.1\nmethod = block\n")
        code = main(["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                     "--seed", "3"])
        assert code == EXIT_UNKNOWN_KEY
        err = capsys.readouterr().err
        assert err.startswith("configuration error: line 9: unknown key 'method'")
        assert not (tmp_path / "o").exists()

    def test_all_acceptance_fast_key_is_unknown(self, tmp_path, capsys):
        # all-acceptance runs every criterion at full size and has no keys
        cfgfile = tmp_path / "acc.cfg"
        cfgfile.write_text("fast = 1\n")
        code = main(["all-acceptance", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_UNKNOWN_KEY
        err = capsys.readouterr().err
        assert err.startswith("configuration error: line 1: unknown key 'fast'")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["Llambda", "Lu-form"])
    @pytest.mark.parametrize("betas", ["0.5", "2,1"])
    def test_nonlocal_sweep_rejects_beta_at_most_one(self, tmp_path, capsys, kind, betas):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"kind = {kind}\nnu = 0.01\nalpha = 10, 100\n"
                           f"lambda = 0, 0.75\nbeta = {betas}\n")
        out = tmp_path / "o"
        code = main(["resolvent-sweep", "--config", str(cfgfile), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "every beta > 1" in capsys.readouterr().err
        assert not out.exists()

    def test_dns_epsilon_zero_trivially_passes(self, tmp_path):
        cfgfile = tmp_path / "dns.cfg"
        cfgfile.write_text(
            "nu = 0.05\ngamma = 0.05\nk_f = 0.5\nn = 16\nepsilon = 0\nt_end = 1\n")
        code = main(["dns", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_check_report_subcommand(self, tmp_path):
        cfg = RunConfig(subcommand="psi", values={}, out_dir=tmp_path)
        write_report(tmp_path / "r.json", _envelope(cfg), {"v": 1}, True)
        assert main(["check-report", "--report", str(tmp_path / "r.json")]) == EXIT_OK
        assert main(["check-report", "--report",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_check_report_accepts_csv(self, tmp_path):
        cfgfile = tmp_path / "psi.cfg"
        cfgfile.write_text(MINIMAL_PSI.replace("n = 256", "n = 128"))
        assert main(["psi", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        csv_path = tmp_path / "o" / "psi_scan.csv"
        assert main(["check-report", "--report", str(csv_path)]) == EXIT_OK

    def test_check_report_csv_reports_no_verdict(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        envelope = _envelope(RunConfig(subcommand="psi", values={}, out_dir=tmp_path))
        write_csv_table(csv_path, ["lam", "sigma_min"], [(0.0, 1.0)], envelope)
        assert check_report(csv_path)["summary"]["passed"] is None
        capsys.readouterr()
        assert main(["check-report", "--report", str(csv_path)]) == EXIT_OK
        assert "passed=n/a (CSV tables carry no verdict)" in capsys.readouterr().out

    @pytest.mark.parametrize("foreign", ["other-tool", "empty"])
    def test_check_report_rejects_foreign_csv(self, tmp_path, capsys, foreign):
        # a CSV envelope gets the same tool and field checks as a JSON one
        envelope = _envelope(RunConfig(subcommand="psi", values={}, out_dir=tmp_path))
        envelope = {**envelope, "tool": "other"} if foreign == "other-tool" else {}
        csv_path = tmp_path / "t.csv"
        write_csv_table(csv_path, ["lam", "sigma_min"], [(0.0, 1.0)], envelope)
        assert main(["check-report", "--report", str(csv_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invalid report: ")

    def test_evolve_subcommand_and_threshold_parallel(self, tmp_path, set_cpus):
        cfgfile = tmp_path / "evolve.cfg"
        cfgfile.write_text("nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 1\nk_f = 0.5\n"
                           "n = 48\nt_end = 12\ndt = 0.1\n")
        code = main(["evolve", "--config", str(cfgfile), "--out",
                     str(tmp_path / "o"), "--seed", "3"])
        assert code == EXIT_OK
        traj = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert traj[1].startswith("t,")

        tcfg = tmp_path / "thr.cfg"
        tcfg.write_text("nu = 0.05\nepsilon = 0, 0.001\nk_f = 0.5\nn = 16\n")
        payloads = []
        for cpus in (1, 2):
            set_cpus(cpus)
            out = tmp_path / f"t{cpus}"
            code = main(["threshold", "--config", str(tcfg), "--out", str(out)])
            assert code in (EXIT_OK, EXIT_RESOLUTION)
            doc = json.loads((out / "threshold_report.json").read_text())
            assert doc["payload"]["monotone_in_nu"] is True
            payloads.append(payload_bytes(doc["payload"]))
        assert payloads[0] == payloads[1]  # the CPU count never changes output bytes


class TestSweepPoolAndSeed:
    """The sweep fans out over the CPUs in the affinity mask and stops at the
    cell count; `--seed` outside its range is a configuration error, and
    `--jobs`, which no longer exists, a usage error with the same exit code."""

    TWO_CELLS = "nu = 0.1, 0.05\nepsilon = 0\nk_f = 0.5\nn = 16\n"
    CONFIGS = {
        "evolve": "nu = 0.01\ngamma = 0.4\nk1 = 1\nk3 = 1\nk_f = 0.5\nn = 48\n"
                  "t_end = 12\ndt = 0.1\n",
        "dns": "nu = 0.05\ngamma = 0.05\nk_f = 0.5\nn = 16\nepsilon = 0\nt_end = 1\n",
        "threshold": TWO_CELLS,
    }

    def run(self, tmp_path, sub, text, *flags):
        cfgfile = tmp_path / f"{sub}.cfg"
        cfgfile.write_text(text)
        try:
            return main([sub, "--config", str(cfgfile), "--out", str(tmp_path / "o"), *flags])
        except SystemExit as exc:  # an argparse usage error
            return exc.code

    def test_pool_is_bounded_by_the_cell_count(self, tmp_path, set_cpus, forks):
        set_cpus(4)
        assert self.run(tmp_path, "threshold", self.TWO_CELLS) in (EXIT_OK, EXIT_RESOLUTION)
        assert len(forks) == 1  # two processes: this one and one child

    def test_one_cell_runs_without_a_pool(self, tmp_path, set_cpus, forks):
        set_cpus(4)
        one_cell = "nu = 0.05\nepsilon = 0\nk_f = 0.5\nn = 16\n"
        assert self.run(tmp_path, "threshold", one_cell) in (EXIT_OK, EXIT_RESOLUTION)
        assert forks == []

    @pytest.mark.parametrize("sub", ["evolve", "dns", "threshold"])
    @pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--jobs", "-2"),
                                             ("--seed", "-1"), ("--seed", str(2**64))])
    def test_out_of_range_flag_is_a_config_error(self, tmp_path, capsys, sub, flag, value):
        assert self.run(tmp_path, sub, self.CONFIGS[sub], flag, value) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert {"--seed": "configuration error: --seed",
                "--jobs": "error: unrecognized arguments: --jobs"}[flag] in err
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, tmp_path):
        assert self.run(tmp_path, "dns", self.CONFIGS["dns"],
                        "--seed", str(2**64 - 1)) == EXIT_OK

    def test_threshold_payload_is_the_sweep_record(self, tmp_path):
        assert self.run(tmp_path, "threshold", self.TWO_CELLS,
                        "--seed", "4") in (EXIT_OK, EXIT_RESOLUTION)
        doc = json.loads((tmp_path / "o" / "threshold_report.json").read_text())
        tmap = run_threshold_sweep([0.05, 0.1], [0.0],
                                   {"k_f": 0.5, "n": (16, 16, 16), "seed": 4})
        assert payload_bytes(doc["payload"]) == payload_bytes(tmap.as_record())


class TestOutputFiles:
    """Every file a subcommand writes passes check_report, and every data
    cell of its CSV tables is a number float() reads (label columns aside)."""

    LABELS = {"kind", "which", "flag"}

    def check_outputs(self, out_dir, expected):
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == sorted(expected)
        envelopes = []
        for name in files:
            path = out_dir / name
            assert main(["check-report", "--report", str(path)]) == EXIT_OK
            doc = check_report(path)
            assert doc["envelope"]["version"]
            envelopes.append(doc["envelope"])
            if name.endswith(".csv"):
                lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
                rows = list(csv.reader(lines))
                assert len(rows) > 1
                header = rows[0]
                for row in rows[1:]:
                    assert len(row) == len(header)
                    for col, cell in zip(header, row):
                        if col not in self.LABELS and cell != "":
                            float(cell)
        # one envelope per run, shared by the JSON report and every table
        assert all(env == envelopes[0] for env in envelopes)
        return out_dir

    @pytest.mark.parametrize("sub, text, table, header", [
        ("psi", MINIMAL_PSI.replace("n = 256", "n = 128"), "psi_scan.csv",
         "lam,sigma_min"),
        ("evolve", TestSweepPoolAndSeed.CONFIGS["evolve"], "trajectory.csv",
         "t,norm_f,norm_g,norm_q1f,norm_p1f,norm_dyf"),
        ("dns", TestSweepPoolAndSeed.CONFIGS["dns"], "dns_diagnostics.csv",
         "t,v2_h2,lap_v2_neq,dx_omega2,p0_v3_h1,v_h2,a1,a2,a3,liftup_residual,"
         "recovery_residual,divergence,tail_fraction,m0,m1"),
    ])
    def test_table_outputs(self, tmp_path, sub, text, table, header):
        cfgfile = tmp_path / f"{sub}.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "o"
        assert main([sub, "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        self.check_outputs(out, [table, f"{sub}_report.json"])
        assert (out / table).read_text().splitlines()[1] == header

    def test_resolvent_sweep_outputs(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("kind = Nlambda\nnu = 0.01\nalpha = 10, 100\nlambda = 0, 0.75\n")
        out = tmp_path / "o"
        assert main(["resolvent-sweep", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        self.check_outputs(out, ["resolvent_sweep.csv", "resolvent_sweep_report.json"])
        rows = list(csv.DictReader(
            l for l in (out / "resolvent_sweep.csv").read_text().splitlines()
            if not l.startswith("#")))
        assert len(rows) == 4
        assert all(float(r["sigma_min"]) > 0 and float(r["ratio"]) > 0 for r in rows)

    def test_pseudospectrum_outputs(self, tmp_path):
        cfgfile = tmp_path / "ps.cfg"
        cfgfile.write_text("nu = 0.05\ngamma = 0.3\nk_f = 1\nk1 = 1\nk3 = 0\nn = 32\n"
                           "re_lo = 0\nre_hi = 1\nim_lo = -2\nim_hi = 2\nnx = 8\nny = 8\n")
        out = tmp_path / "o"
        assert main(["pseudospectrum", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        self.check_outputs(out, ["pseudospectrum.csv", "pseudospectrum_report.json"])
        lines = (out / "pseudospectrum.csv").read_text().splitlines()
        assert lines[1] == "re,im,sigma_min"
        assert len(lines) == 2 + 64


class TestDegenerateConfigs:
    """Inputs that reach a division by zero or an empty list are refused as
    configuration errors and leave no output directory."""

    run = TestSweepPoolAndSeed.run

    @pytest.mark.parametrize("k1, k3, gamma", [(0, 1, 0.4), (1, 0, 0.0)])
    def test_psi_without_shear_is_a_config_error(self, tmp_path, capsys, k1, k3, gamma):
        text = f"nu = 0.01\ngamma = {gamma}\nk1 = {k1}\nk3 = {k3}\nk_f = 1\nn = 64\n"
        assert self.run(tmp_path, "psi", text) == EXIT_CONFIG
        assert "k1*gamma" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k1, gamma", [(1, 0), (0, 0.4)])
    def test_evolve_without_shear_is_a_config_error(self, tmp_path, capsys, k1, gamma):
        # the decay fit's default window 2/sqrt|k1*gamma| is infinite; no
        # division by zero is reached on the way to the refusal
        text = TestSweepPoolAndSeed.CONFIGS["evolve"].replace(
            "gamma = 0.4", f"gamma = {gamma}").replace("k1 = 1", f"k1 = {k1}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run(tmp_path, "evolve", text) == EXIT_CONFIG
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "infinite" in err
        assert not (tmp_path / "o").exists()

    def test_dns_zero_gamma_needs_t_end(self, tmp_path, capsys):
        text = "nu = 0.05\ngamma = 0\nk_f = 0.5\nn = 16\nepsilon = 0\n"
        assert self.run(tmp_path, "dns", text) == EXIT_CONFIG
        assert "t_end" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threshold_negative_epsilon_is_a_config_error(self, tmp_path, capsys):
        text = "nu = 0.05\nepsilon = -0.5, 0.5\nk_f = 0.5\nn = 16\n"
        assert self.run(tmp_path, "threshold", text) == EXIT_CONFIG
        assert "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("levels", ["0", "4", "-4", "64, 0"])
    def test_waveop_level_below_eight_is_a_config_error(self, tmp_path, capsys, levels):
        assert self.run(tmp_path, "waveop", f"alpha = 2\nlevels = {levels}\n") == EXIT_CONFIG
        assert "at least 8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, text, key", [
        ("waveop", "alpha =\nlevels = 64, 128\n", "alpha"),
        ("waveop", "alpha = 2\nlevels =\n", "levels"),
        ("alpha1", "nu =\ngamma = 0.1\n", "nu"),
    ])
    def test_empty_list_key_is_a_range_error(self, tmp_path, capsys, sub, text, key):
        assert self.run(tmp_path, sub, text) == EXIT_RANGE
        assert f"key {key!r} wants at least one value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub, text, line", [
        ("psi", "nu = nan\ngamma = 0.4\nk1 = 1\nk3 = 0\nk_f = 1\nn = 64\n", 1),
        ("dns", "nu = 0.05\ngamma = 0.05\nk_f = 0.5\nn = 16\nepsilon = inf\n", 5),
        ("evolve", TestSweepPoolAndSeed.CONFIGS["evolve"].replace("t_end = 12", "t_end = inf"),
         7),
        ("threshold", "nu = 0.2, nan\nepsilon = 0\n", 1),
        ("threshold", "nu = 0.2\nepsilon = 0, -inf\n", 2),
    ])
    def test_non_finite_value_is_a_range_error(self, tmp_path, capsys, sub, text, line):
        assert self.run(tmp_path, sub, text) == EXIT_RANGE
        err = capsys.readouterr().err
        assert f"line {line}: " in err and "finite" in err
        assert not (tmp_path / "o").exists()

    def test_key_set_twice_is_a_config_error(self, tmp_path, capsys):
        text = "nu = 0.05\nepsilon = 0\nnu = 0.1\n"
        assert self.run(tmp_path, "threshold", text) == EXIT_CONFIG
        assert "line 3: key 'nu' is already set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["o", "o/sub"])
    def test_out_naming_a_file_is_refused_before_running(self, tmp_path, capsys,
                                                         monkeypatch, out):
        monkeypatch.setitem(RUNNERS, "threshold", lambda cfg: pytest.fail("runner ran"))
        (tmp_path / "o").write_text("keep me\n")
        cfgfile = tmp_path / "thr.cfg"
        cfgfile.write_text(TestSweepPoolAndSeed.TWO_CELLS)
        code = main(["threshold", "--config", str(cfgfile), "--out", str(tmp_path / out)])
        assert code == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err
        assert (tmp_path / "o").read_text() == "keep me\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_waveop_node_error_keeps_its_type(self, tmp_path, capsys, set_cpus, forks,
                                              assert_no_children, cpus):
        # every c-node raises ConfigurationError in solve_phi1, in this
        # process and in the forked child alike
        set_cpus(cpus)
        assert self.run(tmp_path, "waveop", "alpha = 0.5\nlevels = 64\n") == EXIT_CONFIG
        assert "wave operators are built for alpha > 1" in capsys.readouterr().err
        assert len(forks) == cpus - 1
        assert not (tmp_path / "o").exists()
        assert_no_children()
