import hashlib
import math
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from simojed import harness, prox, tuning
from simojed.errors import CapacityError, ParameterError
from simojed.harness import (
    MethodSpec,
    SweepConfig,
    db_at_ser,
    hw_compare,
    run_sweep,
    timing_csv,
    timing_report,
    wilson_interval,
)
from simojed.baselines import chest_pilot, ml_jed_exhaustive, mrc
from simojed.linalg import gram, spectral_norm
from simojed.model import Constellation, LosGeometry, draw_blocks, snr_to_n0
from simojed.prox import ProxParams, channel_estimate, preprocess, solve_stack
from simojed.tuning import tune_rho

from oracles import downlink_ser_scalar, tune_rho_loop


def count_calls(monkeypatch, names) -> Counter:
    """Calls of the named functions, wherever a ``simojed`` module binds
    them, counted by name."""
    calls = Counter()
    for module in [m for name, m in sys.modules.items() if name.startswith("simojed")]:
        for name in names:
            if callable(real := getattr(module, name, None)):

                def counting(*args, _real=real, _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    return calls


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

    def test_requires_data_slot(self):
        with pytest.raises(ParameterError, match="K must be an integer of at least 1"):
            small_config(K=0)

    def test_requires_a_method(self):
        # It used to end in numpy's "need at least one array to stack".
        with pytest.raises(ParameterError, match="at least one method"):
            small_config(methods=())

    def test_unknown_arithmetic(self):
        with pytest.raises(ParameterError, match="unknown arithmetic 'double'"):
            small_config(arithmetic="double")

    @pytest.mark.parametrize("name", ["B", "K", "trials", "downlink_symbols"])
    @pytest.mark.parametrize("bad", [4.0, 2.5, True, "4"])
    def test_counts_must_be_integers(self, name, bad):
        # A float count used to end in "'float' object cannot be
        # interpreted as an integer" inside the sweep.
        with pytest.raises(ParameterError, match=f"{name} must be an integer of at least 1"):
            small_config(**{name: bad})

    def test_counts_take_numpy_integers(self):
        # numpy integers used to make config_hash fail after the sweep ran.
        gains = ProxParams(rho_log2=np.int64(1), t_max=np.int8(5))
        as_numpy = small_config(
            B=np.int64(8), K=np.int32(4), trials=np.int64(5), downlink_symbols=np.int16(3),
            master_seed=np.uint8(11), methods=(MethodSpec("prox", gains),),
        )
        as_int = small_config(trials=5, downlink_symbols=3, methods=(MethodSpec("prox"),))
        assert as_numpy.config_hash() == as_int.config_hash()
        assert run_sweep(as_numpy).to_csv() == run_sweep(as_int).to_csv()

    def test_requires_downlink_symbols(self):
        # An explicit 0 is an error, not a request for the default of K.
        with pytest.raises(ParameterError):
            small_config(downlink_symbols=0)

    def test_fixed_arithmetic_needs_datapath_gain(self):
        for name in ("prox", "aprox"):
            for gain in (0, 16):
                spec = MethodSpec(name, ProxParams(rho_log2=gain))
                with pytest.raises(ParameterError, match="rho_log2 in 1..15"):
                    small_config(arithmetic="fixed", methods=(spec,))
        # The float solver takes any non-negative gain.
        small_config(methods=(MethodSpec("prox", ProxParams(rho_log2=0)),))

    def test_duplicate_method_names_rejected(self):
        # The second prox used to replace the first one's counts silently.
        methods = (MethodSpec("prox"), MethodSpec("prox", ProxParams(rho_log2=2)))
        with pytest.raises(ParameterError, match="once per sweep"):
            small_config(methods=methods)

    @pytest.mark.parametrize("bad", [None, -1, True, 2.0, np.int64(-3)])
    def test_master_seed_must_be_a_non_negative_integer(self, bad):
        # None used to run with fresh OS entropy in every stream, so one
        # config hash gave different CSVs; -1 failed only inside numpy.
        with pytest.raises(ParameterError, match=r"master seed .* not " + re.escape(repr(bad))):
            small_config(master_seed=bad)

    def test_requires_snr_points(self):
        with pytest.raises(ParameterError):
            small_config(snr_points_db=())

    def test_ml_jed_budget_checked_at_config_time(self):
        with pytest.raises(CapacityError):
            small_config(K=24, constellation="qpsk", methods=(MethodSpec("ml-jed"),))

    def test_ml_jed_budget_message_matches_the_oracle(self):
        # The sweep used to say "ml-jed with K=24 and qpsk exceeds the
        # enumeration budget 1048576".
        with pytest.raises(CapacityError) as oracle:
            ml_jed_exhaustive(np.zeros((25, 25), dtype=complex), Constellation("qpsk"))
        assert str(oracle.value).startswith("4^24 = 281474976710656 candidates exceeds")
        with pytest.raises(CapacityError, match=f"^{re.escape(str(oracle.value))}$"):
            small_config(K=24, constellation="qpsk", methods=(MethodSpec("ml-jed"),))

    def test_unset_downlink_symbols_stored_as_k(self):
        # An unset count ran the explicit-K sweep but compared and hashed apart from it.
        unset, explicit = small_config(), small_config(downlink_symbols=4)
        assert unset.downlink_symbols == 4
        assert unset == explicit and unset.config_hash() == explicit.config_hash()

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            MethodSpec("zf")

    @pytest.mark.parametrize("name", ["mrc-csir", "mrc-chest", "mrc-rt", "ml-jed"])
    def test_baseline_given_gains_rejected(self, name):
        # Gains used to make a baseline count as a solver: its row was the
        # solver's, under the baseline's name.
        with pytest.raises(ParameterError, match=f"baseline '{name}' takes no solver gains"):
            MethodSpec(name, ProxParams())

    def test_baseline_row_is_the_baseline(self, monkeypatch):
        cfg = small_config(constellation="qpsk", snr_points_db=(-4.0,), master_seed=3)
        cells = run_sweep(cfg).cells
        c = Constellation(cfg.constellation)
        Y, _, s, *_ = draw_blocks(cfg.B, cfg.K, c, cfg.master_seed, [((0, 0), -4.0, cfg.trials)])
        errors = int(np.sum(mrc(Y, chest_pilot(Y, c), c)[:, 1:] != s[:, 1:]))
        assert cells[("mrc-chest", -4.0)].symbol_errors == errors
        assert cells[("prox", -4.0)].symbol_errors != errors
        # A gained baseline never reaches the sweep.
        monkeypatch.setattr(harness, "draw_blocks", None)
        with pytest.raises(ParameterError, match="takes no solver gains"):
            gained = MethodSpec("mrc-chest", ProxParams())
            run_sweep(replace(cfg, methods=(MethodSpec("prox"), gained)))

    def test_aprox_gets_approx_mode(self):
        # The method name alone picks the two-term series: a sweep's aprox
        # row is the stack solver on the approximate preprocessing of the
        # sweep's one chunk.
        params = ProxParams(t_max=3)
        cfg = small_config(snr_points_db=(-4.0,), methods=(MethodSpec("aprox", params),))
        cell = run_sweep(cfg).cells[("aprox", -4.0)]
        c = Constellation(cfg.constellation)
        Y, G, s, h, *_ = draw_blocks(cfg.B, cfg.K, c, cfg.master_seed, [((0, 0), -4.0, cfg.trials)])
        alpha = params.alpha_scale * spectral_norm(G)
        s_hat = solve_stack(preprocess(G, alpha, approx=True), c, params)
        assert cell.symbol_errors == int(np.sum(s_hat[:, 1:] != s[:, 1:]))
        h_hat = channel_estimate(Y, s_hat)
        mse = np.sum(np.abs(h_hat - h) ** 2, axis=1) / cfg.B
        assert cell.chest_mse == float(np.sum(mse)) / cfg.trials
        # The exact inverse gives other estimates on these blocks.
        exact = solve_stack(preprocess(G, alpha), c, params)
        assert not np.array_equal(channel_estimate(Y, exact), h_hat)

    def test_duplicate_snr_points_rejected(self, monkeypatch):
        # The first -4 dB point's trials used to be drawn, detected and
        # then dropped, since cells are keyed by (method, snr).
        monkeypatch.setattr(harness, "draw_blocks", None)
        with pytest.raises(ParameterError, match="each SNR point may appear once"):
            run_sweep(
                SweepConfig(
                    B=4, K=3, constellation="bpsk", snr_points_db=(-4.0, 0.0, -4.0), trials=50,
                    master_seed=1, methods=(MethodSpec("mrc-chest"),),
                )
            )

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_non_finite_snr_point_rejected(self, snr_db, monkeypatch):
        # A NaN point used to fail only inside the sweep's draw.
        monkeypatch.setattr(harness, "draw_blocks", None)
        with pytest.raises(ParameterError, match=f"an SNR of {snr_db} dB"):
            small_config(snr_points_db=(0.0, snr_db))

    def test_infinite_snr_point_accepted(self):
        assert small_config(snr_points_db=(0.0, float("inf"))).snr_points_db[1] == float("inf")

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

    def test_worker_count_does_not_change_multi_pack_result(self, monkeypatch):
        # 200 trials at each of six SNR points: three packs of two chunks,
        # each pack spanning two SNR points.
        cfg = small_config(trials=200, snr_points_db=(-8.0, -6.0, -4.0, -2.0, 0.0, 2.0))
        packs = harness._sweep_packs(cfg)
        assert [[chunk[0] for chunk in pack] for pack in packs] == [[0, 1], [2, 3], [4, 5]]
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
        names = ("prox", "aprox", "mrc-csir", "mrc-chest", "mrc-rt", "ml-jed")
        assert set(res.cells) == {(m, snr) for m in names for snr in cfg.snr_points_db}

    def test_one_downlink_call_per_pack(self, monkeypatch):
        # Every estimate of a pack, per arithmetic and method, is evaluated
        # in one stacked call; evaluating them one by one on the same draws
        # gives byte-identical CSVs. 520 trials per point make packs of one
        # chunk each; three 60-trial points share one pack.
        gains = ProxParams(rho_log2=1)
        methods = tuple(
            MethodSpec(name, gains if name in ("prox", "aprox") else None)
            for name in harness.METHOD_NAMES
        )
        long = small_config(constellation="qpsk", trials=520, methods=methods)
        short = replace(long, trials=60, snr_points_db=(-8.0, -6.0, -4.0))
        stacked = harness.downlink_ser
        for cfg, sizes in ((long, (512, 8, 512, 8)), (short, (180,))):
            sweep = run_sweep(cfg).to_csv()
            report = hw_compare(cfg)
            shapes = []

            def one_by_one(h, h_hat, c, n0, draws):
                shapes.append(h_hat.shape)
                return np.stack([stacked(h, one, c, n0, draws) for one in h_hat])

            with monkeypatch.context() as mp:
                mp.setattr(harness, "downlink_ser", one_by_one)
                assert run_sweep(cfg).to_csv() == sweep
                assert shapes == [(6, T, cfg.B) for T in sizes]
                shapes.clear()
                again = hw_compare(cfg)
            assert again.float_result.to_csv() == report.float_result.to_csv()
            assert again.fixed_result.to_csv() == report.fixed_result.to_csv()
            assert shapes == [(12, T, cfg.B) for T in sizes]

    def test_one_draw_per_pack(self, monkeypatch):
        # Six 100-trial points make a pack of five chunks and one of one
        # chunk; each pack is drawn by a single draw_blocks call.
        cfg = small_config(trials=100, snr_points_db=tuple(float(s) for s in range(-8, 3, 2)))
        expected = run_sweep(cfg).to_csv()
        chunk_counts = []

        def counting(B, K, c, seed, chunks, *args):
            chunk_counts.append(len(chunks))
            return draw_blocks(B, K, c, seed, chunks, *args)

        monkeypatch.setattr(harness, "draw_blocks", counting)
        assert run_sweep(cfg).to_csv() == expected
        assert chunk_counts == [5, 1]

    @pytest.mark.parametrize(
        "trials, n_snr",
        [(1, 1), (60, 2), (200, 5), (170, 7), (256, 3), (511, 3), (512, 2), (513, 2), (1100, 3)],
    )
    def test_pack_layout(self, trials, n_snr, monkeypatch):
        # Every 512-trial chunk lands in exactly one pack, in (snr, trial)
        # order; a pack holds at most 512 trials and closes only when the
        # next chunk would overfill it; the layout ignores the worker count.
        cfg = small_config(trials=trials, snr_points_db=tuple(float(s) for s in range(n_snr)))
        layouts = []
        for workers in ("1", "3"):
            monkeypatch.setenv(harness.WORKERS_ENV, workers)
            layouts.append(harness._sweep_packs(cfg))
        packs = layouts[0]
        assert layouts[1] == packs
        chunk = harness._TRIAL_CHUNK
        assert [c for pack in packs for c in pack] == [
            (snr, lo, min(lo + chunk, trials)) for snr in range(n_snr) for lo in range(0, trials, chunk)
        ]
        sizes = [sum(hi - lo for _, lo, hi in pack) for pack in packs]
        assert all(0 < size <= chunk for size in sizes)
        for size, following in zip(sizes, packs[1:]):
            _, lo, hi = following[0]
            assert size + hi - lo > chunk

    @pytest.mark.parametrize(
        "kind, digests",
        [
            (
                "qpsk",
                (
                    "5ca56c36132bfe6a437d398fb62b750c83b4d758efa61b3533aa35922756ff75",
                    "9c3c67124109ec2bdd25d04a2dfddfb814a728a5c39eef9a6640d5b98fa97627",
                    0.9525,
                ),
            ),
            (
                "bpsk",
                (
                    "89a42787476d811e461143604d45a9fd387254e7c1feac545f068111a95eaed0",
                    "f95cd0f5452a7f98cbb7e0764c6a838081f30ee8d5ead37c139588f4425a6245",
                    0.99,
                ),
            ),
        ],
    )
    def test_sweep_output_pinned(self, kind, digests):
        # SHA-256 of the CSVs as one detection stack per chunk wrote them:
        # all six methods, six SNR points of 100 trials, so packs of five
        # and one points. The run_sweep CSV equals hw_compare's float CSV.
        gains = ProxParams(rho_log2=1)
        cfg = small_config(
            K=4 if kind == "qpsk" else 6,
            constellation=kind,
            snr_points_db=tuple(float(s) for s in range(-8, 3, 2)),
            trials=100,
            methods=tuple(
                MethodSpec(name, gains if name in ("prox", "aprox") else None)
                for name in harness.METHOD_NAMES
            ),
        )
        float_digest, fixed_digest, agreement = digests
        report = hw_compare(cfg)
        texts = (run_sweep(cfg).to_csv(), report.float_result.to_csv(), report.fixed_result.to_csv())
        assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [
            float_digest,
            float_digest,
            fixed_digest,
        ]
        assert report.agreement_rate == agreement

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
        errors, _, _ = harness._run_pack(cfg, ("float",), [(snr_index, lo, lo + trials)])
        c = Constellation(kind)
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
        params = ProxParams()
        for t in range(trials):
            h = (h_parts[t, 0] + 1j * h_parts[t, 1]) / np.sqrt(2)
            s = np.concatenate([c.points[:1], c.points[indices[t]]])
            Y = np.outer(h, s.conj()) + np.sqrt(n0 / 2) * (noise_parts[t, 0] + 1j * noise_parts[t, 1])
            G = gram(Y)
            s_hat = solve_stack(preprocess(G, params.alpha_scale * spectral_norm(G)), c, params)
            detections = {
                "prox": (s_hat, channel_estimate(Y, s_hat)),
                "mrc-csir": (mrc(Y, h, c), h),
                "mrc-chest": (mrc(Y, chest_pilot(Y, c), c), chest_pilot(Y, c)),
            }
            for name, (dec, est) in detections.items():
                expected[name][0] += int(np.sum(dec[1:] != s[1:]))
                ser = downlink_ser_scalar(
                    h, est, c.points, c.sigma, n0, ref_noise[t], dl_data[t], dl_noise[t]
                )
                expected[name][1] += round(ser * 7)
        assert errors.shape == (2, len(expected), 1)
        for key, (uplink, downlink) in enumerate(expected.values()):
            assert errors[:, key, 0].tolist() == [uplink, downlink]

    def test_pack_returns_each_chunks_counts(self):
        # Detecting two chunks as one pack gives each chunk exactly the
        # counts, channel-MSE sum and agreement it gets as a pack of its own.
        cfg = small_config(
            K=3,
            methods=tuple(
                MethodSpec(name, ProxParams(rho_log2=1) if name in ("prox", "aprox") else None)
                for name in harness.METHOD_NAMES
            ),
        )
        chunks = [(0, 0, 25), (1, 3, 43)]
        packed = harness._run_pack(cfg, ("float", "fixed"), chunks)
        alone = [harness._run_pack(cfg, ("float", "fixed"), [chunk]) for chunk in chunks]
        keys = 2 * len(harness.METHOD_NAMES)
        assert [a.shape for a in packed] == [(2, keys, 2), (keys, 2), (2,)]
        for j, own in enumerate(alone):
            # Uplink and downlink counts, the chunk's MSE sum, agreement.
            for whole, part in zip(packed, own, strict=True):
                assert whole.dtype == part.dtype
                assert whole[..., j : j + 1].tobytes() == part.tobytes()

    def test_one_norm_per_pack(self, monkeypatch):
        # prox and aprox share the pack's spectral norms.
        calls = count_calls(monkeypatch, ("spectral_norm", "preprocess"))
        cfg = small_config(methods=(MethodSpec("prox"), MethodSpec("aprox"), MethodSpec("mrc-chest")))
        harness._run_pack(cfg, ("float",), [(0, 0, 30), (1, 0, 30)])
        assert calls == {"spectral_norm": 1, "preprocess": 2}

    @pytest.mark.parametrize("arithmetics", [("float",), ("float", "fixed")])
    def test_baselines_run_once_per_pack(self, monkeypatch, arithmetics):
        # A baseline ignores the arithmetic: a float-vs-fixed pack runs it
        # once, as a float pack does, and only the solvers run per
        # arithmetic. It used to run once per arithmetic.
        names = ("mrc", "ml_jed_exhaustive", "channel_estimate", "solve_stack", "solve_fixed_stack")
        calls = count_calls(monkeypatch, names)
        cfg = small_config(K=3, methods=tuple(MethodSpec(name) for name in harness.METHOD_NAMES))
        harness._run_pack(cfg, arithmetics, [(0, 0, 25), (1, 3, 43)])
        n = len(arithmetics)
        assert calls == Counter(
            mrc=2,  # mrc-csir, and one pilot combining for mrc-chest and mrc-rt
            ml_jed_exhaustive=1,
            channel_estimate=2 * n + 2,  # prox and aprox per arithmetic, mrc-rt, ml-jed
            solve_stack=2,
            solve_fixed_stack=2 * (n - 1),
        )

    def test_pack_tally_matches_a_loop_over_chunks(self, monkeypatch):
        # The pack-long segmented sums give each chunk of uneven size (one
        # trial among them) what a sum over its own slice of the per-trial
        # errors gives.
        solver = MethodSpec("prox", ProxParams(rho_log2=1))
        cfg = small_config(methods=(solver, MethodSpec("mrc-rt")))
        chunks = [(0, 0, 1), (0, 1, 12), (1, 0, 5), (1, 5, 31)]
        seen = {}
        real_draw, real_detect, real_dl = harness.draw_blocks, harness._detect, harness.downlink_ser

        def draw(*args):
            seen["blocks"] = real_draw(*args)
            return seen["blocks"]

        def detect(spec, *args):
            seen[(args[-1], spec.name)] = real_detect(spec, *args)
            return seen[(args[-1], spec.name)]

        def dl(*args):
            seen["dl"] = real_dl(*args)
            return seen["dl"]

        monkeypatch.setattr(harness, "draw_blocks", draw)
        monkeypatch.setattr(harness, "_detect", detect)
        monkeypatch.setattr(harness, "downlink_ser", dl)
        errors, mse, agree = harness._run_pack(cfg, ("float", "fixed"), chunks)
        s_true, h_true = seen["blocks"].s, seen["blocks"].h
        keys = [(a, m.name) for m in cfg.methods for a in ("float", "fixed")]
        assert errors.shape == (2, len(keys), len(chunks)) and mse.shape == errors.shape[1:]
        assert errors.dtype == agree.dtype == np.int64
        lo = 0
        for j, (_, trial_lo, hi) in enumerate(chunks):
            part = slice(lo, lo + hi - trial_lo)
            lo = part.stop
            for k, (key, ser) in enumerate(zip(keys, seen["dl"], strict=True)):
                # A baseline is detected once per pack, under the first arithmetic.
                s_hat, h_hat = seen[key if key in seen else ("float", key[1])]
                trials = range(part.start, part.stop)
                sym = sum(int(np.sum(s_hat[t, 1:] != s_true[t, 1:])) for t in trials)
                assert errors[:, k, j].tolist() == [sym, int(np.sum(np.rint(ser[part] * cfg.K)))]
                trial_mse = np.sum(np.abs(h_hat[part] - h_true[part]) ** 2, axis=1) / cfg.B
                assert mse[k, j].tobytes() == np.sum(trial_mse).tobytes()
            float_dec, fixed_dec = seen[("float", "prox")][0], seen[("fixed", "prox")][0]
            assert agree[j] == int(np.sum(float_dec[part, 1:] == fixed_dec[part, 1:]))

    @pytest.mark.parametrize("T", [1, 6])
    def test_first_trial_of_a_chunk_equals_the_one_trial_draw(self, T):
        # Trial 0 of a stack is the one-trial stack of the same key. Its
        # downlink randoms are too when T is 1; for a longer stack they are
        # not, because each downlink array is drawn for the whole stack.
        c = Constellation("qpsk")
        stack = draw_blocks(8, 4, c, 11, [((1, 512), -2.0, T)], downlink_symbols=7)
        one = draw_blocks(8, 4, c, 11, [((1, 512), -2.0, 1)], downlink_symbols=7)
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(stack[:5], one[:5]))
        same = [np.array_equal(a[0], b[0]) for a, b in zip(stack.downlink, one.downlink)]
        assert same == [True, T == 1, T == 1]

    def test_los_channel_supported(self):
        # A geometry alone switches the channel to line of sight, and the
        # same config without it is the plain Rayleigh sweep.
        from simojed.model import LosGeometry

        cfg = small_config(los=LosGeometry(), trials=10)
        rayleigh = run_sweep(small_config(trials=10)).to_csv()
        res = run_sweep(cfg)
        assert len(res.cells) == 4
        assert res.to_csv() != rayleigh
        assert run_sweep(replace(cfg, los=None)).to_csv() == rayleigh

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
            los=LosGeometry(user_distance=30.0, user_angle=0.3),
            snr_points_db=(-8.0, -2.0),
            trials=300,
        )
        res = run_sweep(cfg)
        prox = res.curve("prox")
        chest = res.curve("mrc-chest")
        assert prox[-2.0] <= prox[-8.0]
        assert prox[-2.0] <= chest[-2.0]


def in_a_new_thread(fn, *args):
    """``fn(*args)`` in a thread of its own, whose packs start from no draw
    buffers."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def sweep_csvs(cfg) -> tuple[str, str, str]:
    report = hw_compare(cfg)
    return run_sweep(cfg).to_csv(), report.float_result.to_csv(), report.fixed_result.to_csv()


# Each sweep draws packs of another shape than the one before it: B, K, the
# constellation, the downlink count, the channel, an infinite SNR point
# (whose chunk fills its noise with -0.0) and two packs of 512 and 88 trials.
BASE = dict(
    constellation="qpsk",
    trials=60,
    methods=(MethodSpec("prox", ProxParams(rho_log2=1)), MethodSpec("mrc-rt")),
)
RESHAPED = [
    {},
    {"B": 16},
    {"K": 6},
    {"constellation": "bpsk"},
    {"downlink_symbols": 9},
    {"los": LosGeometry(user_angle=0.2)},
    {"snr_points_db": (-4.0, float("inf"))},
    {},
    {"trials": 600, "snr_points_db": (-4.0,)},
    {"los": LosGeometry(user_angle=0.2)},
]


class TestDrawBuffers:
    """A thread's sweep packs draw into one set of buffers (``harness``'s
    ``_THREAD_BUFFERS``), which no output and no other caller shares."""

    def test_interleaved_sweeps_match_sweeps_run_alone(self):
        configs = [small_config(**BASE | change) for change in RESHAPED]
        alone = [in_a_new_thread(sweep_csvs, cfg) for cfg in configs]
        assert [sweep_csvs(cfg) for cfg in configs] == alone
        assert len(set(alone)) == len(set(configs))
        # This thread's packs left their draws behind for the next pack: the
        # last line-of-sight pack's blocks, and the channel normals of the
        # last Rayleigh pack, 88 trials long.
        held = harness._THREAD_BUFFERS.draws
        assert held["Y"].shape == (120, 8, 5) and held["h_normals"].shape == (88, 2, 8)

    def test_threads_running_different_sweeps_at_once_match_sequential(self):
        # The threads' sweeps differ in their seed alone, so they draw packs
        # of the same shapes at the same time. Three threads switch every
        # 10 µs, so a buffer two of them shared would mix their draws.
        configs = [small_config(**BASE | change) for change in RESHAPED[:5]] * 2
        runs = [[replace(cfg, master_seed=seed) for cfg in configs] for seed in (11, 12, 13)]
        sequential = [[sweep_csvs(cfg) for cfg in sweeps] for sweeps in runs]
        start = threading.Barrier(len(runs))

        def run_all(sweeps):
            start.wait(timeout=60)
            return [sweep_csvs(cfg) for cfg in sweeps]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(runs)) as pool:
                futures = [pool.submit(run_all, sweeps) for sweeps in runs]
                assert [f.result(timeout=120) for f in futures] == sequential
        finally:
            sys.setswitchinterval(interval)
        assert len({tuple(csvs) for csvs in sequential}) == len(runs)

    def test_a_call_of_the_same_shapes_reuses_the_buffers(self):
        c = Constellation("qpsk")

        def draw(seed, buffers=None):
            return draw_blocks(8, 4, c, seed, [((0,), -2.0, 7), ((1,), 3.0, 5)], None, 6, buffers)

        buffers = {}
        first, second = draw(1, buffers), draw(2, buffers)
        assert {name: a.shape for name, a in buffers.items()} == {
            "h_normals": (12, 2, 8), "data": (12, 4), "n0": (12,), "Y": (12, 8, 5),
            "ref_noise": (12, 2), "downlink_data": (12, 6), "downlink_noise": (12, 12),
        }
        reused = (first.Y, first.n0, *first.downlink)
        assert all(np.shares_memory(a, b) for a, b in zip(reused, (second.Y, second.n0, *second.downlink)))
        assert all(any(np.shares_memory(a, held) for held in buffers.values()) for a in reused)
        # Drawn anew, the same blocks hold the same bytes in memory of
        # their own, as does the first call's G, s and h.
        fresh = draw(2)
        for held, new in zip(second[:5] + second.downlink, fresh[:5] + fresh.downlink):
            assert held.tobytes() == new.tobytes()
            assert not any(np.shares_memory(new, b) for b in buffers.values())
            assert not np.shares_memory(held, new)
        for a, b in zip(first[1:4], second[1:4]):
            assert not np.shares_memory(a, b)

    def test_buffers_of_other_shapes_are_replaced(self):
        c = Constellation("bpsk")
        buffers = {}
        draw_blocks(4, 2, c, 5, [((0,), 0.0, 9)], None, 3, buffers)
        shapes = {name: a.shape for name, a in buffers.items()}
        blocks = draw_blocks(6, 2, c, 5, [((0,), 0.0, 4)], None, 0, buffers)
        assert buffers["Y"].shape == (4, 6, 3) and np.shares_memory(blocks.Y, buffers["Y"])
        assert buffers["ref_noise"].shape == shapes["ref_noise"]  # untouched without downlink draws
        alone = draw_blocks(6, 2, c, 5, [((0,), 0.0, 4)])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(blocks[:5], alone[:5]))

    def test_held_blocks_unchanged_after_a_later_sweep(self):
        cfg = small_config(**BASE)
        blocks = draw_blocks(8, 4, Constellation("qpsk"), 11, [((0, 0), -8.0, 60), ((1, 0), -4.0, 60)])
        kept = [a.tobytes() for a in blocks[:5]]
        run_sweep(cfg)
        assert harness._THREAD_BUFFERS.draws["Y"].shape == blocks.Y.shape
        assert [a.tobytes() for a in blocks[:5]] == kept

    def test_pack_outputs_view_no_buffer(self):
        cfg = small_config(**BASE | {"downlink_symbols": 9})
        outputs = harness._run_pack(cfg, ("float", "fixed"), [(0, 0, 30), (1, 0, 30)])
        held = harness._THREAD_BUFFERS.draws.values()
        assert not any(np.shares_memory(out, b) for out in outputs for b in held)

    def test_one_pilot_combining_per_pack(self, monkeypatch):
        # mrc-rt takes mrc-chest's decisions: one pilot estimate and one
        # pilot combining per pack, as well as mrc-csir's own combining,
        # where there used to be two. The CSV is the pinned one.
        gains = ProxParams(rho_log2=1)
        cfg = small_config(
            K=4,
            constellation="qpsk",
            snr_points_db=tuple(float(s) for s in range(-8, 3, 2)),
            trials=100,
            methods=tuple(
                MethodSpec(name, gains if name in ("prox", "aprox") else None)
                for name in harness.METHOD_NAMES
            ),
        )
        calls = count_calls(monkeypatch, ("draw_blocks", "chest_pilot", "mrc"))
        csv = run_sweep(cfg).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "5ca56c36132bfe6a437d398fb62b750c83b4d758efa61b3533aa35922756ff75"
        )
        assert calls == Counter(draw_blocks=2, chest_pilot=2, mrc=4)


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

    def test_wilson_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

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
        gap = report.gap_db_at[1e-2]
        assert gap is not None
        assert abs(gap) < 0.5

    def test_needs_solver_method(self):
        with pytest.raises(ParameterError):
            hw_compare(small_config(methods=(MethodSpec("mrc-chest"),)))

    def test_rejects_gain_the_datapath_cannot_shift(self, monkeypatch):
        # Rejected before any block is drawn, as a fixed sweep rejects it.
        monkeypatch.setattr(harness, "draw_blocks", None)
        for gain in (0, 16):
            cfg = small_config(methods=(MethodSpec("prox", ProxParams(rho_log2=gain)),))
            with pytest.raises(ParameterError, match="rho_log2 in 1..15") as fixed:
                replace(cfg, arithmetic="fixed")
            with pytest.raises(ParameterError, match=f"^{re.escape(str(fixed.value))}$"):
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
        rows = timing_report([4, 8], [1, 3], [100e6], bits=2)
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

    @pytest.mark.parametrize(
        "constellation, K, snr_db, approx",
        [
            ("bpsk", 4, -6.0, False),
            ("bpsk", 8, -4.0, True),
            ("qpsk", 4, 0.0, True),
            ("qpsk", 8, -2.0, False),
            ("bpsk", 8, 300.0, False),
            ("qpsk", 4, 300.0, True),
        ],
    )
    def test_matches_the_one_setting_at_a_time_loop(self, constellation, K, snr_db, approx):
        # The last two are noise-free: every setting ties at zero errors.
        best = tune_rho(8, K, constellation, snr_db, trials=60, seed=9, approx=approx)
        want = tune_rho_loop(8, K, constellation, snr_db, trials=60, seed=9, approx=approx)
        assert (best.rho_log2, best.alpha_scale, best.ser) == want

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    def test_one_norm_one_preprocess_per_batch(self, approx, monkeypatch):
        # Every alpha_scale is preprocessed in one stack, and every rho_log2
        # solves that whole stack once, untraced; the tuner estimates no
        # channel.
        names = (
            "spectral_norm", "invert_shifted", "neumann_two_term", "preprocess", "iterate",
            "solve_stack", "channel_estimate",
        )
        calls = count_calls(monkeypatch, names)
        counted, traced = prox.iterate, []

        def recording(*args, record_trace=True):
            traced.append(record_trace)
            return counted(*args, record_trace=record_trace)

        monkeypatch.setattr(prox, "iterate", recording)
        tune_rho(16, 8, "bpsk", -6.0, trials=4, seed=1, approx=approx)
        inverse = "neumann_two_term" if approx else "invert_shifted"
        # No channel_estimate key: it was not called.
        assert calls == {
            "spectral_norm": 1, "preprocess": 1, inverse: 1, "solve_stack": 7, "iterate": 7,
        }
        assert traced == [False] * 7

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

    @pytest.mark.parametrize("kw", [dict(trials=0), dict(trials=-2)])
    def test_no_trials_or_empty_grid_rejected(self, kw):
        args = dict(trials=5, seed=3) | kw
        with pytest.raises(ParameterError):
            tune_rho(4, 3, "bpsk", 0.0, **args)

    @pytest.mark.parametrize("K", [0, -1])
    def test_no_data_slot_rejected_before_drawing(self, K, monkeypatch):
        # K=0 used to return a NaN error rate after a divide-by-zero
        # warning, and K=-1 end in numpy's "negative dimensions" error.
        monkeypatch.setattr(tuning, "draw_blocks", None)
        with pytest.raises(ParameterError, match="K must be an integer of at least 1"):
            tune_rho(4, K, "bpsk", 0.0, trials=5, seed=1)

    @pytest.mark.parametrize("t_max", [0, 2.5])
    def test_bad_t_max_rejected_before_drawing(self, t_max, monkeypatch):
        # It used to fail only after one draw and the batch's preprocessing.
        monkeypatch.setattr(tuning, "draw_blocks", None)
        with pytest.raises(ParameterError, match="t_max"):
            tune_rho(4, 3, "bpsk", 0.0, trials=5, seed=1, t_max=t_max)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        # -inf used to end in a ZeroDivisionError.
        with pytest.raises(ParameterError, match=f"an SNR of {snr_db} dB"):
            tune_rho(4, 3, "bpsk", snr_db, trials=5, seed=3)

    def test_tuned_never_worse_than_default_on_batch(self, monkeypatch):
        best = tune_rho(8, 4, "bpsk", -6.0, trials=150, seed=4)
        monkeypatch.setattr(tuning, "RHO_LOG2_GRID", (1,))
        monkeypatch.setattr(tuning, "ALPHA_SCALE_GRID", (2.0,))
        default = tune_rho(8, 4, "bpsk", -6.0, trials=150, seed=4)
        assert (default.rho_log2, default.alpha_scale) == (1, 2.0)  # on the patched grids
        assert best.ser <= default.ser
