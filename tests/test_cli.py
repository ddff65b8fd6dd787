import hashlib
import json
import os
import subprocess
import sys

import pytest

import simojed
from simojed import cli, harness
from simojed.cli import main, parse_config_file, parse_snr_spec
from simojed.errors import ParameterError
from simojed.tuning import tune_rho
from simojed.verify import SuiteReport, VerificationReport


class TestParsers:
    def test_snr_range(self):
        assert parse_snr_spec("-4:0:2") == (-4.0, -2.0, 0.0)

    def test_snr_range_ends_at_its_stop(self):
        # The point count used to be rounded, which put 2.0 past the stop.
        assert parse_snr_spec("0:1.5:1") == (0.0, 1.0)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("-0.3:0:0.1", (-0.3, -0.2, -0.1, 0.0)),  # the division gives 2.9999999999999996
            ("0:10:3", (0.0, 3.0, 6.0, 9.0)),
            ("-6:-3.5:1", (-6.0, -5.0, -4.0)),
            ("-10:0:1", tuple(float(x) for x in range(-10, 1))),
            ("-5:0:1", tuple(float(x) for x in range(-5, 1))),
            ("-6:0:1", tuple(float(x) for x in range(-6, 1))),
        ],
    )
    def test_snr_range_keeps_its_points(self, spec, expected):
        assert parse_snr_spec(spec) == expected

    def test_snr_range_zero_step(self):
        with pytest.raises(ParameterError, match="zero step"):
            parse_snr_spec("-4:0:0")

    @pytest.mark.parametrize("spec", ["-4:0", "-4:0:1:2", "a:0:1", "-3,x"])
    def test_snr_spec_malformed(self, spec):
        with pytest.raises(ParameterError, match="SNR"):
            parse_snr_spec(spec)

    @pytest.mark.parametrize("spec", ["0:inf:1", "nan:0:1", "0:1:nan", "0:1:inf", "-inf:0:1"])
    def test_snr_range_not_finite(self, spec):
        # These used to raise OverflowError or ValueError, or ("0:1:inf")
        # give a NaN point.
        with pytest.raises(ParameterError, match="needs a finite start, stop and step"):
            parse_snr_spec(spec)

    def test_snr_list_keeps_infinity(self):
        # An infinite SNR is a noise-free point.
        assert parse_snr_spec("0,inf") == (0.0, float("inf"))

    def test_snr_list(self):
        assert parse_snr_spec("-3,-1.5,0") == (-3.0, -1.5, 0.0)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nb = 8\nsnr = -6:-4:1  # grid\ntrials=25\n")
        assert parse_config_file(path) == {"b": "8", "snr": "-6:-4:1", "trials": "25"}

    def test_config_file_rejects_garbage(self, tmp_path):
        # A line without '=' once raised SystemExit from the library call.
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ParameterError, match="config line without '='"):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("trials 5\n", "config line without '='"),
            ("bogus = 1\n", "unknown config key 'bogus'"),
        ],
        ids=["no-equals", "unknown-key"],
    )
    def test_bad_config_exits_with_the_command_prefix(self, text, message, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "draw_blocks", None)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert str(exc.value.code).startswith(f"simojed sweep: {message}")


class TestSweepCommand:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "sweep",
                "--b", "8", "--k", "4", "--constellation", "bpsk",
                "--snr=-6,-4", "--trials", "20", "--seed", "3",
                "--methods", "prox,mrc-chest", "--out", str(out),
            ]
        )
        assert rc == 0
        csv_text = (tmp_path / "run.csv").read_text()
        assert csv_text.startswith("method,snr_db,uplink_ser,downlink_ser,chest_mse,trials,errors,ci_lo,ci_hi")
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["master_seed"] == 3
        assert "config_hash" in meta
        shown = capsys.readouterr().out
        assert "prox" in shown and "mrc-chest" in shown

    def test_plot_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--plot"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --plot" in capsys.readouterr().err

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("b = 8\nk = 4\nconstellation = bpsk\nsnr = -6,-4\ntrials = 10\nseed = 2\nmethods = prox\n")
        rc = main(["sweep", "--config", str(cfg), "--trials", "5"])
        assert rc == 0
        assert "prox" in capsys.readouterr().out

    def test_non_numeric_config_value_exits_cleanly(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("trials = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert "trials" in str(exc.value.code) and "'abc'" in str(exc.value.code)

    def test_missing_config_file_exits_cleanly(self, tmp_path, monkeypatch):
        # It used to end in a FileNotFoundError traceback.
        monkeypatch.setattr(harness, "draw_blocks", None)
        path = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(path)])
        assert str(exc.value.code).startswith(f"simojed sweep: cannot read config file '{path}'")

    def test_two_field_snr_range_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--snr=-4:0", "--trials", "2"])
        assert "start:stop:step" in str(exc.value.code)

    def test_negative_seed_exits_cleanly(self, monkeypatch):
        # Rejected with the config, not by numpy inside the first draw.
        monkeypatch.setattr(harness, "draw_blocks", None)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--seed", "-1", "--trials", "2"])
        assert "master seed" in str(exc.value.code) and "-1" in str(exc.value.code)

    def test_fixed_arithmetic_rejects_gain_below_datapath_minimum(self, monkeypatch):
        # Rejected with the config, before any block is drawn; 16 once
        # failed only after the first pack was drawn and preprocessed.
        monkeypatch.setattr(harness, "draw_blocks", None)
        for gain in ("0", "16"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--arithmetic", "fixed", "--rho-log2", gain, "--trials", "2"])
            assert "rho_log2 in 1..15" in str(exc.value.code)

    def test_prox_in_approx_mode_exits_cleanly(self, monkeypatch, capsys):
        # --methods alone names the variant; there is no --mode flag.
        monkeypatch.setattr(harness, "draw_blocks", None)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--methods", "prox,aprox", "--mode", "approx", "--k", "4",
                  "--trials", "200", "--snr=-4,0", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode approx" in capsys.readouterr().err

    def test_mode_config_key_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "draw_blocks", None)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("mode = approx\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg), "--trials", "2"])
        assert "unknown config key 'mode'" in str(exc.value.code)

    def test_duplicate_snr_points_exit_cleanly(self, monkeypatch):
        # Nothing is drawn: the first -4 dB point's trials were once drawn,
        # detected and dropped.
        monkeypatch.setattr(harness, "draw_blocks", None)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--snr=-4,-4", "--trials", "2"])
        assert "each SNR point may appear once" in str(exc.value.code)

    @pytest.mark.parametrize("channel, los", [("los", True), ("rayleigh", False)])
    def test_channel_flag_picks_the_geometry(self, channel, los, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_sweep", lambda cfg: seen.append(cfg) or harness.SweepResult("", 1, ""))
        assert main(["sweep", "--channel", channel, "--trials", "2"]) == 0
        assert (seen[0].los is not None) == los

    def test_unknown_config_channel_exits_cleanly(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("channel = moon\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(cfg)])
        assert "'moon'" in str(exc.value.code)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg)])


class TestNonFiniteSnr:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["trace", "--snr=-inf"], "simojed trace: an SNR of -inf dB gives no noise variance"),
            (["trace", "--snr=nan"], "simojed trace: an SNR of nan dB gives no noise variance"),
            (["sweep", "--snr=-inf,0", "--trials", "2"],
             "simojed sweep: an SNR of -inf dB gives no noise variance"),
            (["sweep", "--snr=0:1:inf", "--trials", "2"],
             "simojed sweep: SNR range '0:1:inf' needs a finite start, stop and step"),
        ],
        ids=["trace-minus-inf", "trace-nan", "sweep-list", "sweep-range"],
    )
    def test_exits_with_message_and_no_traceback(self, argv, message, tmp_path):
        # The -inf cases used to end in a ZeroDivisionError traceback.
        src = os.path.dirname(os.path.dirname(simojed.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "simojed.cli", *argv, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode != 0
        assert proc.stderr.strip() == message
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestVerifyCommand:
    def test_exit_zero_when_suites_pass(self, capsys):
        rc = main(["verify", "--seed", "2", "--instances", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "descent: pass" in out
        assert "boundary fraction" in out

    def test_failures_exit_one_and_go_to_stderr(self, monkeypatch, capsys):
        failing = SuiteReport(name="descent")
        failing.tally(-1.0, "B=4,K=4,bpsk,attempt=1: objective increased")
        failing.tally(-2.0, "B=16,K=4,qpsk,attempt=2: objective increased")
        others = [SuiteReport(name) for name in ("boundary", "series_bound", "gradient_identity")]
        report = VerificationReport(failing, *others)
        monkeypatch.setattr(cli, "verify_theorems", lambda seed, n: report)
        assert main(["verify"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == report.lines()
        assert err.splitlines() == [
            "  descent: B=4,K=4,bpsk,attempt=1: objective increased",
            "  descent: B=16,K=4,qpsk,attempt=2: objective increased",
        ]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_instance_count_exits_nonzero(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1", "--instances", count])
        assert "n_instances must be an integer of at least 1" in str(exc.value.code)
        assert "pass" not in capsys.readouterr().out


    def test_negative_seed_exits_nonzero(self, capsys):
        # It used to end in numpy's ValueError traceback.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1", "--instances", "2"])
        assert "the seed must be a non-negative integer, not -1" in str(exc.value.code)
        assert "pass" not in capsys.readouterr().out

class TestTimingCommand:
    def test_table_values(self, capsys, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main(["timing", "--k", "4,8,16,32", "--t-max", "1",
                   "--f-clk", "358e6,341e6,297e6,240e6", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        # The matched (K, clock) diagonal reproduces the reference numbers.
        assert "4,1,358.0,8,358.0" in text
        rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
        diag = {(r[0], r[2]): (int(r[3]), float(r[4])) for r in rows}
        assert diag[("8", "341.0")][0] == 12
        assert diag[("8", "341.0")][1] == pytest.approx(454.67, abs=0.01)

    @pytest.mark.parametrize("flag", ["--k", "--t-max", "--f-clk"])
    def test_non_numeric_list_exits_cleanly(self, flag):
        # It used to end in a raw ValueError traceback.
        with pytest.raises(SystemExit) as exc:
            main(["timing", flag, "4,x"])
        assert str(exc.value.code) == f"simojed timing: {flag} '4,x' is not a comma list of " + (
            "floats" if flag == "--f-clk" else "ints"
        )


class TestTraceCommand:
    def test_trace_format(self, tmp_path):
        out = tmp_path / "trace.txt"
        rc = main(["trace", "--n", "4", "--b", "8", "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "cycle,pe,action,re_operands,im_operands,acc"
        # N + 3 cycles, one record per element per cycle
        assert len(lines) == 1 + 4 * (4 + 3)
        assert any(",mac," in ln for ln in lines)
        assert any(",project," in ln for ln in lines)

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "0e2844c2249b7480a14aa97d180a533892f100aab93b136c2fa65727869eccf8"),
            (["--constellation", "bpsk"], "c9510119ca9c14438d46c4d297d59f10e94df6e99692df2f64eb59a01ff491a4"),
        ],
        ids=["qpsk", "bpsk"],
    )
    def test_trace_pinned(self, extra, digest, capsys):
        # SHA-256 of the printed trace as the scalar-word simulator wrote it;
        # the BPSK trace runs the real-only datapath.
        assert main(["trace", "--seed", "3", *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_array_below_two_elements_by_name(self, n, monkeypatch):
        # It used to name K, which was not set: "K must be a non-negative
        # integer, not -1" at --n 0.
        monkeypatch.setattr(cli, "draw_blocks", None)
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--n", str(n)])
        assert exc.value.code == (
            f"simojed trace: the number of processing elements N must be an integer "
            f"of at least 2, not {n}"
        )

    def test_rejects_gain_below_datapath_minimum(self, tmp_path, monkeypatch):
        def no_preprocess(*args):
            raise AssertionError("preprocessed before the gain was checked")

        monkeypatch.setattr(cli, "preprocess", no_preprocess)
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--rho-log2", "0", "--out", str(tmp_path / "t.txt")])
        assert "rho_log2" in str(exc.value.code)


class TestTuneCommand:
    @staticmethod
    def printed(best) -> str:
        return (
            f"best rho_log2={best.rho_log2} alpha_scale={best.alpha_scale} "
            f"(tuning SER {best.ser:.4e})\n"
        )

    def test_prints_the_tuned_gains(self, capsys):
        rc = main(["tune", "--b", "4", "--k", "3", "--constellation", "bpsk",
                   "--snr=-4", "--trials", "20", "--seed", "6"])
        assert rc == 0
        best = tune_rho(4, 3, "bpsk", -4.0, 20, 6)
        assert capsys.readouterr().out == self.printed(best)

    @pytest.mark.parametrize(
        "method, expected",
        [("prox", (0, 1.5, 0.03475)), ("aprox", (0, 1.25, 0.05))],
        ids=["prox-exact", "aprox-approx"],
    )
    def test_method_picks_the_variant(self, method, expected, capsys):
        # The README's tune arguments, where the two variants tune apart.
        assert main(["tune", "--b", "16", "--k", "8", "--constellation", "bpsk", "--snr=-6",
                     "--trials", "1000", "--seed", "42", "--method", method]) == 0
        best = tune_rho(16, 8, "bpsk", -6.0, 1000, 42, approx=method == "aprox")
        assert (best.rho_log2, best.alpha_scale, best.ser) == expected
        assert capsys.readouterr().out == self.printed(best)

    def test_cache_flag_is_a_usage_error(self, tmp_path, capsys):
        cache = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--cache", str(cache)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --cache {cache}" in capsys.readouterr().err
        assert not cache.exists()

    def test_zero_trials_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--b", "4", "--k", "3", "--trials", "0"])
        assert "trials must be an integer of at least 1" in str(exc.value.code)


class TestHwCompareCommand:
    def test_reports_agreement(self, capsys):
        rc = main(["hw-compare", "--b", "8", "--k", "4", "--constellation", "qpsk",
                   "--snr=-6,-4", "--trials", "15", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hard-decision agreement" in out
        assert "fixed-vs-float gap" in out

    def test_out_writes_both_csvs(self, tmp_path, monkeypatch, capsys):
        reports = []
        real = cli.hw_compare

        def recording(cfg, **kw):
            reports.append(real(cfg, **kw))
            return reports[-1]

        monkeypatch.setattr(cli, "hw_compare", recording)
        out = tmp_path / "hw"
        assert main(["hw-compare", "--b", "8", "--k", "4", "--constellation", "qpsk",
                     "--snr=-6,-4", "--trials", "15", "--seed", "7", "--out", str(out)]) == 0
        (report,) = reports
        assert (tmp_path / "hw_float.csv").read_text() == report.float_result.to_csv()
        assert (tmp_path / "hw_fixed.csv").read_text() == report.fixed_result.to_csv()
        assert f"wrote {out}_float.csv and {out}_fixed.csv" in capsys.readouterr().out

    def test_rejects_gain_below_datapath_minimum(self, monkeypatch):
        # No silent clamp to rho_log2=1: the command fails and names the
        # gain, before any block is drawn.
        monkeypatch.setattr(harness, "draw_blocks", None)
        for gain in ("0", "16"):
            with pytest.raises(SystemExit) as exc:
                main(["hw-compare", "--b", "8", "--k", "4", "--snr=-6,-4", "--trials", "5",
                      "--rho-log2", gain])
            assert exc.value.code != 0
            assert "rho_log2 in 1..15" in str(exc.value.code)

    @pytest.mark.parametrize("method", ["prox", "aprox"])
    def test_method_picks_the_solver_method(self, method, monkeypatch):
        seen = []
        report = harness.HwCompareReport(1.0, None, None, {})
        monkeypatch.setattr(cli, "hw_compare", lambda cfg, **kw: seen.append(cfg) or report)
        assert main(["hw-compare", "--method", method, "--trials", "2"]) == 0
        assert [m.name for m in seen[0].methods] == [method]

    def test_rejects_methods_in_config_file(self, tmp_path):
        # hw-compare compares the solver --method names; a config file naming
        # other methods was once accepted and ignored.
        cfg = tmp_path / "hw.cfg"
        cfg.write_text("b = 8\nk = 4\nsnr = -6,-4\ntrials = 5\nmethods = mrc-chest\n")
        with pytest.raises(SystemExit) as exc:
            main(["hw-compare", "--config", str(cfg), "--rho-log2", "1"])
        assert "unknown config key 'methods'" in str(exc.value.code)
