import hashlib
import json

import pytest

from simojed import cli, harness
from simojed.cli import main, parse_config_file, parse_snr_spec
from simojed.errors import ParameterError


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

    def test_snr_list(self):
        assert parse_snr_spec("-3,-1.5,0") == (-3.0, -1.5, 0.0)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nb = 8\nsnr = -6:-4:1  # grid\ntrials=25\n")
        assert parse_config_file(path) == {"b": "8", "snr": "-6:-4:1", "trials": "25"}

    def test_config_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(SystemExit):
            parse_config_file(path)


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


class TestVerifyCommand:
    def test_exit_zero_when_suites_pass(self, capsys):
        rc = main(["verify", "--seed", "2", "--instances", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "descent: pass" in out
        assert "boundary fraction" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_instance_count_exits_nonzero(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1", "--instances", count])
        assert "n_instances must be at least 1" in str(exc.value.code)
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

    def test_rejects_gain_below_datapath_minimum(self, tmp_path, monkeypatch):
        def no_preprocess(*args):
            raise AssertionError("preprocessed before the gain was checked")

        monkeypatch.setattr(cli, "preprocess", no_preprocess)
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--rho-log2", "0", "--out", str(tmp_path / "t.txt")])
        assert "rho_log2" in str(exc.value.code)


class TestTuneCommand:
    def test_prints_and_caches(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        rc = main(["tune", "--b", "4", "--k", "3", "--constellation", "bpsk",
                   "--snr=-4", "--trials", "20", "--seed", "6",
                   "--cache", str(cache)])
        assert rc == 0
        assert "best rho_log2=" in capsys.readouterr().out
        assert cache.exists()

    @pytest.mark.parametrize("method, variant", [("prox", "exact"), ("aprox", "approx")])
    def test_method_names_the_cache_key(self, method, variant, tmp_path):
        cache = tmp_path / "cache.json"
        assert main(["tune", "--b", "4", "--k", "3", "--constellation", "bpsk", "--snr=-4",
                     "--trials", "20", "--seed", "6", "--method", method,
                     "--cache", str(cache)]) == 0
        (key,) = json.loads(cache.read_text())
        assert key.startswith(f"B4_K3_bpsk_{variant}_snr-4.0_")

    def test_zero_trials_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--b", "4", "--k", "3", "--trials", "0"])
        assert "at least one tuning trial" in str(exc.value.code)


class TestHwCompareCommand:
    def test_reports_agreement(self, capsys):
        rc = main(["hw-compare", "--b", "8", "--k", "4", "--constellation", "qpsk",
                   "--snr=-6,-4", "--trials", "15", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hard-decision agreement" in out
        assert "fixed-vs-float gap" in out

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
