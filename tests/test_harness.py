import json
import math
from dataclasses import replace

import numpy as np
import pytest

from simojed import harness, tuning
from simojed.errors import CapacityError, ParameterError
from simojed.harness import (
    MethodSpec,
    SweepConfig,
    db_at_ser,
    hw_compare,
    read_result,
    run_sweep,
    timing_csv,
    timing_report,
    wilson_interval,
)
from simojed.baselines import draw_downlink, mrc_chest, mrc_csir
from simojed.model import Constellation, ReceivedBlock, draw_block, draw_blocks, snr_to_n0
from simojed.prox import ProxParams, solve
from simojed.tuning import tune_rho

from oracles import downlink_ser_scalar


def small_config(**overrides):
    base = dict(
        B=8,
        K=4,
        constellation="bpsk",
        snr_points_db=(-8.0, -4.0),
        trials=60,
        master_seed=11,
        methods=(MethodSpec("prox"), MethodSpec("mrc-chest")),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConfig:
    def test_requires_trials(self):
        with pytest.raises(ParameterError):
            small_config(trials=0)

    def test_requires_antennas(self):
        with pytest.raises(ParameterError):
            small_config(B=0)

    def test_requires_downlink_symbols(self):
        # An explicit 0 is an error, not a request for the default of K.
        with pytest.raises(ParameterError):
            small_config(downlink_symbols=0)

    def test_fixed_arithmetic_needs_datapath_gain(self):
        for name in ("prox", "aprox"):
            with pytest.raises(ParameterError, match="rho_log2"):
                small_config(arithmetic="fixed", methods=(MethodSpec(name, ProxParams(rho_log2=0)),))
        # The float solver takes any non-negative gain.
        small_config(methods=(MethodSpec("prox", ProxParams(rho_log2=0)),))

    def test_requires_snr_points(self):
        with pytest.raises(ParameterError):
            small_config(snr_points_db=())

    def test_ml_jed_budget_checked_at_config_time(self):
        with pytest.raises(CapacityError):
            small_config(K=24, constellation="qpsk", methods=(MethodSpec("ml-jed"),))

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            MethodSpec("zf")

    def test_aprox_gets_approx_mode(self):
        spec = MethodSpec("aprox", ProxParams(t_max=3))
        assert spec.solver_params.mode == "approx"
        assert spec.solver_params.t_max == 3

    def test_hash_stable_and_sensitive(self):
        a, b = small_config(), small_config()
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != small_config(trials=61).config_hash()


class TestRunSweep:
    def test_deterministic(self):
        r1 = run_sweep(small_config())
        r2 = run_sweep(small_config())
        assert r1.to_csv() == r2.to_csv()

    def test_method_results_independent_of_method_list(self):
        # Pairing contract: each method consumes the same per-trial blocks
        # no matter which other methods run alongside.
        solo = run_sweep(small_config(methods=(MethodSpec("prox"),)))
        both = run_sweep(small_config())
        for (m, snr), cell in solo.cells.items():
            other = both.cells[(m, snr)]
            assert cell.symbol_errors == other.symbol_errors
            assert cell.downlink_errors == other.downlink_errors
            assert cell.chest_mse == other.chest_mse

    def test_noise_free_ser_zero(self):
        res = run_sweep(small_config(snr_points_db=(300.0,), trials=5))
        for cell in res.cells.values():
            assert cell.symbol_errors == 0
            assert cell.uplink_ser == 0.0
            assert cell.downlink_errors == 0

    def test_worker_count_does_not_change_result(self, monkeypatch):
        self._check_worker_independent(small_config(trials=40), monkeypatch)

    def test_worker_count_does_not_change_multi_chunk_result(self, monkeypatch):
        # Three chunks per SNR point, each keyed by its own first trial.
        cfg = small_config(
            B=4,
            K=3,
            trials=2 * harness._TRIAL_CHUNK + 3,
            methods=(MethodSpec("prox"), MethodSpec("mrc-csir"), MethodSpec("mrc-chest")),
        )
        self._check_worker_independent(cfg, monkeypatch)

    @staticmethod
    def _check_worker_independent(cfg, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "1")
        serial = run_sweep(cfg)
        serial_hw = hw_compare(cfg, agreement_snr_db=-4.0)
        monkeypatch.setenv(harness.WORKERS_ENV, "3")
        parallel = run_sweep(cfg)
        parallel_hw = hw_compare(cfg, agreement_snr_db=-4.0)
        assert serial.to_csv() == parallel.to_csv()
        for key in serial.cells:
            assert serial.cells[key].chest_mse == parallel.cells[key].chest_mse
        # The agreement count is part of the paired sweep, so it runs in
        # the pool too and must not move either.
        assert serial_hw.float_result.to_csv() == parallel_hw.float_result.to_csv()
        assert serial_hw.fixed_result.to_csv() == parallel_hw.fixed_result.to_csv()
        assert serial_hw.agreement_rate == parallel_hw.agreement_rate

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
    def test_bad_worker_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(harness.WORKERS_ENV, raw)
        with pytest.raises(ParameterError, match=harness.WORKERS_ENV):
            run_sweep(small_config(trials=2))

    def test_all_methods_run(self):
        cfg = small_config(
            methods=(
                MethodSpec("prox"),
                MethodSpec("aprox"),
                MethodSpec("mrc-csir"),
                MethodSpec("mrc-chest"),
                MethodSpec("mrc-rt"),
                MethodSpec("ml-jed"),
            ),
            trials=10,
        )
        res = run_sweep(cfg)
        assert set(res.methods()) == {"prox", "aprox", "mrc-csir", "mrc-chest", "mrc-rt", "ml-jed"}

    def test_one_downlink_call_per_chunk(self, monkeypatch):
        # Every estimate of a chunk, per arithmetic and method, is
        # evaluated in one stacked call; evaluating them one by one on the
        # same draws gives byte-identical CSVs.
        gains = ProxParams(rho_log2=1)
        cfg = small_config(
            constellation="qpsk",
            trials=520,
            methods=tuple(
                MethodSpec(name, gains if name in ("prox", "aprox") else None)
                for name in harness.METHOD_NAMES
            ),
        )
        sweep = run_sweep(cfg).to_csv()
        report = hw_compare(cfg)
        shapes = []
        stacked = harness.downlink_ser

        def one_by_one(h, h_hat, c, n0, draws):
            shapes.append(h_hat.shape)
            return np.stack([stacked(h, one, c, n0, draws) for one in h_hat])

        monkeypatch.setattr(harness, "downlink_ser", one_by_one)
        assert run_sweep(cfg).to_csv() == sweep
        assert shapes == [(6, T, cfg.B) for T in (512, 8, 512, 8)]
        shapes.clear()
        again = hw_compare(cfg)
        assert again.float_result.to_csv() == report.float_result.to_csv()
        assert again.fixed_result.to_csv() == report.fixed_result.to_csv()
        assert shapes == [(12, T, cfg.B) for T in (512, 8, 512, 8)]

    @pytest.mark.parametrize("kind", ["qpsk", "bpsk"])
    def test_chunk_counts_follow_the_stream_layout(self, kind):
        # A chunk keyed by (snr index, first trial) draws every array of
        # the stack in one call per stream, trial after trial, real parts
        # before imaginary parts. Rebuilding each trial's block and downlink
        # randoms from that layout and detecting block by block gives the
        # chunk's uplink and downlink error counts, method by method.
        cfg = small_config(
            constellation=kind,
            downlink_symbols=7,
            methods=(MethodSpec("prox"), MethodSpec("mrc-csir"), MethodSpec("mrc-chest")),
        )
        snr_index, lo, trials = 1, 3, 40
        _, _, counts, _ = harness._run_chunk(cfg, ("float",), snr_index, lo, lo + trials)
        c = Constellation.by_name(kind)
        n0 = snr_to_n0(cfg.snr_points_db[snr_index], c)
        streams = np.random.SeedSequence(cfg.master_seed, spawn_key=(snr_index, lo)).spawn(4)
        ch, data, noise, dl = (np.random.default_rng(ss) for ss in streams)
        h_parts = ch.standard_normal((trials, 2, cfg.B))
        indices = data.integers(0, len(c.points), (trials, cfg.K))
        noise_parts = noise.standard_normal((trials, 2, cfg.B, cfg.K + 1))
        ref_noise = dl.standard_normal((trials, 2))
        dl_data = dl.integers(0, len(c.points), (trials, 7))
        dl_noise = dl.standard_normal((trials, 14))
        expected = {name: [0, 0] for name in ("prox", "mrc-csir", "mrc-chest")}
        for t in range(trials):
            h = (h_parts[t, 0] + 1j * h_parts[t, 1]) / np.sqrt(2)
            s = np.concatenate([c.points[:1], c.points[indices[t]]])
            Y = np.outer(h, s.conj()) + np.sqrt(n0 / 2) * (noise_parts[t, 0] + 1j * noise_parts[t, 1])
            block = ReceivedBlock(Y)
            detections = {
                "prox": solve(block, c, ProxParams(), record_trace=False),
                "mrc-csir": mrc_csir(Y, h, c),
                "mrc-chest": mrc_chest(Y, c=c),
            }
            for name, r in detections.items():
                expected[name][0] += int(np.sum(r.s_hat[1:] != s[1:]))
                ser = downlink_ser_scalar(
                    h, r.h_hat, c.points, c.sigma, n0, ref_noise[t], dl_data[t], dl_noise[t]
                )
                expected[name][1] += round(ser * 7)
        for name, (uplink, downlink) in expected.items():
            assert counts[("float", name)][:2] == [uplink, downlink]

    @pytest.mark.parametrize("T", [1, 6])
    def test_first_trial_of_a_chunk_equals_draw_block(self, T):
        # A one-trial stack is the old per-trial draw, downlink included.
        # The first block of any longer stack is too; its downlink randoms
        # are not, because each downlink array is drawn for the whole stack.
        c = Constellation.qpsk()
        Y, G, s, h, dl_rng = draw_blocks(8, 4, c, -2.0, 11, (1, 512), T)
        block, dl_ss = draw_block(8, 4, c, -2.0, 11, (1, 512))
        assert np.array_equal(Y[0], block.Y) and np.array_equal(G[0], block.G)
        assert np.array_equal(s[0], block.truth.s_true) and np.array_equal(h[0], block.truth.h_true)
        stacked = draw_downlink(dl_rng, c, 7, T)
        flat = draw_downlink(np.random.default_rng(dl_ss), c, 7)
        same = [np.array_equal(part[0], one) for part, one in zip(stacked, flat)]
        assert same == [True, T == 1, T == 1]

    def test_ml_jed_runs_with_the_configured_budget(self):
        # 2^21 candidates pass the config's budget check, so the detector
        # must enumerate them rather than stop at its default budget.
        cfg = small_config(
            B=2, K=21, trials=1, snr_points_db=(0.0,), ml_jed_budget=2**21, methods=(MethodSpec("ml-jed"),)
        )
        assert run_sweep(cfg).cells[("ml-jed", 0.0)].trials == 1

    def test_los_channel_supported(self):
        from simojed.model import LosGeometry

        res = run_sweep(small_config(channel="los", los=LosGeometry(), trials=10))
        assert len(res.cells) == 4

    def test_approx_mode_tracks_exact_mode(self):
        # The series-approximated preprocessing trades a little accuracy for
        # cheaper setup; on a paired batch its error count stays within a
        # small factor of the exact mode at the same gains.
        cfg = small_config(
            B=16,
            K=8,
            constellation="qpsk",
            snr_points_db=(0.0,),
            trials=800,
            master_seed=31,
            methods=(
                MethodSpec("prox", ProxParams(alpha_scale=2.0, rho_log2=1, t_max=5)),
                MethodSpec("aprox", ProxParams(alpha_scale=2.0, rho_log2=1, t_max=5)),
            ),
        )
        res = run_sweep(cfg)
        exact_errs = res.cells[("prox", 0.0)].symbol_errors
        approx_errs = res.cells[("aprox", 0.0)].symbol_errors
        assert approx_errs <= 4 * exact_errs + 20

    def test_los_qualitative_behavior(self):
        # Line-of-sight blocks: error rate falls with SNR and the solver
        # does not lose to pilot-only detection at the high end.
        from simojed.model import LosGeometry

        cfg = small_config(
            B=16,
            K=8,
            constellation="qpsk",
            channel="los",
            los=LosGeometry(user_distance=30.0, user_angle=0.3),
            snr_points_db=(-8.0, -2.0),
            trials=300,
        )
        res = run_sweep(cfg)
        prox = res.curve("prox")
        chest = res.curve("mrc-chest")
        assert prox[-2.0] <= prox[-8.0]
        assert prox[-2.0] <= chest[-2.0]


class TestCsvRoundTrip:
    def test_round_trip_exact(self):
        res = run_sweep(small_config(trials=30))
        text = res.to_csv()
        back = read_result(text, res.metadata())
        assert back.to_csv() == text
        for key, cell in res.cells.items():
            other = back.cells[key]
            assert cell.symbol_errors == other.symbol_errors
            assert cell.downlink_errors == other.downlink_errors
            assert cell.trials == other.trials
            assert cell.chest_mse == other.chest_mse
            assert cell.uplink_ser == other.uplink_ser
            assert cell.downlink_ser == other.downlink_ser

    def test_header_enforced(self):
        with pytest.raises(ParameterError):
            read_result("bogus\n1,2,3", {"config_hash": "", "master_seed": 0, "version": "",
                                         "data_symbols_per_trial": 1,
                                         "downlink_symbols_per_trial": 1})


class TestStatsHelpers:
    def test_wilson_matches_direct_formula(self):
        z = 1.959963984540054
        k, n = 5, 100
        p = k / n
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(center - half)
        assert hi == pytest.approx(center + half)

    def test_wilson_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.005

    def test_wilson_contains_estimate(self):
        for k, n in ((1, 50), (17, 200), (999, 1000)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_db_at_ser_log_linear(self):
        # One decade per 2 dB: the 1e-2 crossing sits exactly midway.
        curve = {0.0: 1e-1, 2.0: 1e-3}
        assert db_at_ser(curve, 1e-2) == pytest.approx(1.0)

    def test_db_at_ser_no_crossing(self):
        assert db_at_ser({0.0: 1e-1, 2.0: 2e-2}, 1e-3) is None
        assert db_at_ser({0.0: 0.0, 2.0: 0.0}, 1e-2) is None


class TestHwCompare:
    def test_noise_free_full_agreement(self):
        cfg = small_config(
            snr_points_db=(300.0,),
            trials=10,
            methods=(MethodSpec("prox", ProxParams(rho_log2=1)),),
        )
        report = hw_compare(cfg, agreement_snr_db=300.0)
        assert report.agreement_rate == 1.0

    def test_reports_gap_and_curves(self):
        # The gap is about 0.1 dB; 1600 trials put its estimate's spread
        # (about 0.06 dB) far inside the 0.5 dB bound.
        cfg = small_config(
            K=8,
            snr_points_db=tuple(float(s) for s in range(-10, 1)),
            trials=1600,
            methods=(MethodSpec("prox", ProxParams(rho_log2=1)),),
        )
        report = hw_compare(cfg, agreement_snr_db=-6.0, gap_targets=(1e-2,))
        assert 0.9 <= report.agreement_rate <= 1.0
        gap = report.gap_at(1e-2)
        assert gap is not None
        assert abs(gap) < 0.5

    def test_needs_solver_method(self):
        with pytest.raises(ParameterError):
            hw_compare(small_config(methods=(MethodSpec("mrc-chest"),)))

    def test_rejects_gain_the_datapath_cannot_shift(self):
        cfg = small_config(methods=(MethodSpec("prox", ProxParams(rho_log2=0)),))
        with pytest.raises(ParameterError, match="rho_log2"):
            hw_compare(cfg)

    def test_agreement_snr_must_be_a_sweep_point(self):
        with pytest.raises(ParameterError, match="sweep point"):
            hw_compare(small_config(), agreement_snr_db=-6.0)

    def test_matches_one_arithmetic_sweeps(self):
        # Each arithmetic's result equals a plain sweep in that arithmetic,
        # config hash included.
        cfg = small_config(trials=20)
        report = hw_compare(cfg)
        for arithmetic, result in (("float", report.float_result), ("fixed", report.fixed_result)):
            alone = run_sweep(replace(cfg, arithmetic=arithmetic))
            assert result.to_csv() == alone.to_csv()
            assert result.config_hash == alone.config_hash


class TestTiming:
    def test_cross_product_rows(self):
        rows = timing_report([4, 8], [1, 3], [100e6], bits_per_symbol=2)
        assert len(rows) == 4
        assert {(r["K"], r["t_max"]) for r in rows} == {(4, 1), (4, 3), (8, 1), (8, 3)}

    def test_csv_shape(self):
        text = timing_csv(timing_report([4], [1], [358e6]))
        lines = text.strip().split("\n")
        assert lines[0] == "K,t_max,f_clk_mhz,latency_cycles,throughput_mbps"
        assert len(lines) == 2


class TestTuning:
    def test_noise_free_tie_breaks_smallest(self):
        best = tune_rho(4, 3, "bpsk", 300.0, trials=5, seed=3)
        assert best.ser == 0.0
        assert best.rho_log2 == 0
        assert best.alpha_scale == 1.25

    def test_preprocesses_once_per_alpha_scale(self, monkeypatch):
        calls = []
        real = tuning.preprocess

        def counting(G, params):
            calls.append(params.alpha_scale)
            return real(G, params)

        monkeypatch.setattr(tuning, "preprocess", counting)
        tune_rho(16, 8, "bpsk", -6.0, trials=4, seed=1)
        assert calls == list(tuning.ALPHA_SCALE_GRID)

    @pytest.mark.parametrize(
        "args, expected",
        [
            (("bpsk", -6.0, 1000, 42), (0, 1.5, 0.03475)),
            (("qpsk", -1.0, 1000, 43), (0, 1.25, 0.008625)),
        ],
    )
    def test_acceptance_gains_pinned(self, args, expected):
        # The acceptance fixtures' tuner calls, as the per-setting
        # preprocessing tuner returned them.
        best = tune_rho(16, 8, *args)
        assert (best.rho_log2, best.alpha_scale, best.ser) == expected

    @pytest.mark.parametrize(
        "kw", [dict(trials=0), dict(trials=-2), dict(rho_grid=()), dict(alpha_grid=())]
    )
    def test_no_trials_or_empty_grid_rejected(self, kw):
        args = dict(trials=5, seed=3) | kw
        with pytest.raises(ParameterError):
            tune_rho(4, 3, "bpsk", 0.0, **args)

    def test_tuned_never_worse_than_default_on_batch(self):
        best = tune_rho(8, 4, "bpsk", -6.0, trials=150, seed=4)
        default = tune_rho(8, 4, "bpsk", -6.0, trials=150, seed=4,
                           rho_grid=(1,), alpha_grid=(2.0,))
        assert best.ser <= default.ser

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "tuned.json"
        first = tune_rho(4, 3, "bpsk", -4.0, trials=30, seed=5, cache_path=path)
        assert path.exists()
        # A repeat of the same arguments is served from the cache alone.
        monkeypatch.setattr(tuning, "solve_stack", None)
        cached = tune_rho(4, 3, "bpsk", -4.0, trials=30, seed=5, cache_path=path)
        assert cached == first
        (key,) = json.loads(path.read_text())
        assert key.startswith("B4_K3_bpsk_exact")

    def test_cache_keyed_by_search_configuration(self, tmp_path):
        # A hit stored at -10 dB with t_max=1 once came back for +5 dB with
        # t_max=20.
        path = tmp_path / "tuned.json"
        tune_rho(4, 3, "bpsk", -10.0, trials=20, seed=5, t_max=1, cache_path=path)
        cached = tune_rho(4, 3, "bpsk", 5.0, trials=20, seed=5, t_max=20, cache_path=path)
        assert cached == tune_rho(4, 3, "bpsk", 5.0, trials=20, seed=5, t_max=20)
        assert len(json.loads(path.read_text())) == 2
