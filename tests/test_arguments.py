"""The one argument rule: every public entry passes each count, seed and
gain through ``model.check_int`` and each real parameter through
``model.check_real``, rejects a bad one with a ``ParameterError`` that names
it before any block is drawn, and keeps plain Python numbers."""

import re

import numpy as np
import pytest

from simojed import baselines, fxp, harness, model, tuning, verify
from simojed.errors import ParameterError
from simojed.harness import (
    MethodSpec,
    SweepConfig,
    hw_compare,
    run_sweep,
    timing_csv,
    timing_report,
)
from simojed.model import Constellation, LosGeometry
from simojed.prox import ProxParams

QPSK = Constellation("qpsk")
SWEEP = dict(
    B=4, K=2, constellation="qpsk", snr_points_db=(0.0,), trials=3, master_seed=1,
    methods=(MethodSpec("prox"),),
)
TUNE = dict(B=4, K=2, constellation="bpsk", snr_db=0.0, trials=3, seed=1)
ACC_WORDS = np.array([100, -100], dtype=np.int32)


def draw(B=4, K=2, seed=1, key=0, T=2, downlink=3):
    return model.draw_blocks(B, K, QPSK, seed, [((key,), 0.0, T)], downlink_symbols=downlink)


# (entry, call with the field set to the value, the name its message gives, least value)
INT_FIELDS = [
    ("draw_blocks.B", lambda v: draw(B=v), "B", 0),
    ("draw_blocks.K", lambda v: draw(K=v), "K", 0),
    ("draw_blocks.seed", lambda v: draw(seed=v), "the seed", 0),
    ("draw_blocks.key", lambda v: draw(key=v), "a key entry", 0),
    ("draw_blocks.T", lambda v: draw(T=v), "a chunk's trial count", 0),
    ("draw_blocks.downlink_symbols", lambda v: draw(downlink=v), "downlink_symbols", 0),
    ("gen_los_channel.B", lambda v: model.gen_los_channel(v, LosGeometry()), "B", 0),
    ("check_ml_budget.K", lambda v: baselines.check_ml_budget(QPSK, v), "K", 0),
    *[
        (f"SweepConfig.{name}", lambda v, name=name: SweepConfig(**SWEEP | {name: v}), name, 1)
        for name in ("B", "K", "trials", "downlink_symbols")
    ],
    (
        "SweepConfig.master_seed",
        lambda v: SweepConfig(**SWEEP | {"master_seed": v}),
        "the master seed",
        0,
    ),
    ("ProxParams.rho_log2", lambda v: ProxParams(rho_log2=v), "rho_log2", 0),
    ("ProxParams.t_max", lambda v: ProxParams(t_max=v), "t_max", 1),
    *[
        (f"tune_rho.{name}", lambda v, name=name: tuning.tune_rho(**TUNE | {name: v}), name, 1)
        for name in ("B", "K", "trials")
    ],
    ("tune_rho.seed", lambda v: tuning.tune_rho(**TUNE | {"seed": v}), "the seed", 0),
    ("tune_rho.t_max", lambda v: tuning.tune_rho(**TUNE, t_max=v), "t_max", 1),
    ("descent.n_instances", lambda v: verify.run_descent_and_boundary(1, v), "n_instances", 1),
    ("descent.seed", lambda v: verify.run_descent_and_boundary(v, 2), "the seed", 0),
    ("series_bound.n_matrices", lambda v: verify.run_series_bound(1, v), "n_matrices", 1),
    ("series_bound.seed", lambda v: verify.run_series_bound(v, 2), "the seed", 0),
    ("gradient.n_instances", lambda v: verify.run_gradient_identity(1, v), "n_instances", 1),
    ("gradient.seed", lambda v: verify.run_gradient_identity(v, 2), "the seed", 0),
    ("verify_theorems.n_instances", lambda v: verify.verify_theorems(1, v), "n_instances", 1),
    ("verify_theorems.seed", lambda v: verify.verify_theorems(v, 2), "the seed", 0),
    (
        "PeArrayConfig.N",
        lambda v: fxp.PeArrayConfig(N=v, t_max=1, rho_log2=1),
        "the number of processing elements N",
        2,
    ),
    ("PeArrayConfig.t_max", lambda v: fxp.PeArrayConfig(N=3, t_max=v, rho_log2=1), "t_max", 1),
    # The datapath's own range, 1..15, has its own message (TestPeArrayConfig).
    ("PeArrayConfig.rho_log2", lambda v: fxp.PeArrayConfig(3, 1, rho_log2=v), "rho_log2", 0),
    ("check_datapath_gain", fxp.check_datapath_gain, "rho_log2", 0),
    ("projection_unit.rho_log2", lambda v: fxp.projection_unit(ACC_WORDS, v), "rho_log2", 0),
    ("quantize_array.word_bits", lambda v: fxp.quantize_array(0.5, v, 3), "word_bits", 1),
    ("quantize_array.frac_bits", lambda v: fxp.quantize_array(0.5, 6, v), "frac_bits", 0),
    ("latency_cycles.K", lambda v: fxp.latency_cycles(v, 1), "K", 1),
    ("latency_cycles.t_max", lambda v: fxp.latency_cycles(4, v), "t_max", 1),
    ("throughput_bps.K", lambda v: fxp.throughput_bps(v, 1, 1e8, 2), "K", 1),
    ("throughput_bps.t_max", lambda v: fxp.throughput_bps(4, v, 1e8, 2), "t_max", 1),
    ("throughput_bps.bits", lambda v: fxp.throughput_bps(4, 1, 1e8, v), "bits", 1),
]

# (entry, call with the field set to the value, the name its message gives,
# a real value out of the entry's range and the pattern of that rejection,
# or None where every real value is in range)
REAL_FIELDS = [
    *[
        (
            f"LosGeometry.{name}",
            lambda v, name=name: LosGeometry(**{name: v}),
            name.replace("_", " "),
            np.inf,
            f"{name.replace('_', ' ')} must be finite",
        )
        for name in ("antenna_spacing", "user_distance", "user_angle")
    ],
    (
        "SweepConfig.snr_points_db",
        lambda v: SweepConfig(**SWEEP | {"snr_points_db": (0.0, v)}),
        "an SNR point",
        np.nan,
        "an SNR of nan dB",
    ),
    (
        # True used to draw the 1 dB block, and "1.5" to end in numpy's TypeError.
        "snr_to_n0",
        lambda v: model.snr_to_n0(v, QPSK),
        "snr_db",
        -np.inf,
        "an SNR of -inf dB",
    ),
    (
        "draw_blocks.snr_db",
        lambda v: model.draw_blocks(4, 2, QPSK, 1, [((0,), v, 2)]),
        "snr_db",
        np.nan,
        "an SNR of nan dB",
    ),
    (
        "tune_rho.snr_db",
        lambda v: tuning.tune_rho(**TUNE | {"snr_db": v}),
        "snr_db",
        -np.inf,
        "an SNR of -inf dB",
    ),
    (
        "ProxParams.alpha_scale",
        lambda v: ProxParams(alpha_scale=v),
        "alpha_scale",
        1.0,
        "alpha_scale must be finite and exceed 1",
    ),
    (
        "Constellation.sigma",
        lambda v: Constellation("qpsk", v),
        "sigma",
        -1.0,
        "sigma must be finite and positive",
    ),
    (
        # True used to be taken as the 1.0 dB point; None picks the midpoint.
        "hw_compare.agreement_snr_db",
        lambda v: hw_compare(SweepConfig(**SWEEP | {"snr_points_db": (0.0, 1.0)}), v),
        "agreement_snr_db",
        2.0,
        r"agreement SNR 2\.0 dB is not a sweep point",
    ),
    (
        "hw_compare.gap_targets",
        lambda v: hw_compare(SweepConfig(**SWEEP), gap_targets=(1e-2, v)),
        "a gap target",
        None,  # any real target gives a gap or None
        None,
    ),
    (
        "throughput_bps.f_clk_hz",
        lambda v: fxp.throughput_bps(4, 1, v, 2),
        "f_clk_hz",
        0.0,
        "f_clk_hz must be finite and positive",
    ),
]


@pytest.fixture
def no_draws(monkeypatch):
    # Every rejection comes before a block or an instance shape is drawn:
    # every block's streams are seeded by model._generators, after
    # draw_blocks has checked its own arguments (the tuner's SNR among them).
    monkeypatch.setattr(model, "_generators", None)
    monkeypatch.setattr(verify, "_draw_stacks", None)


@pytest.mark.usefixtures("no_draws")
@pytest.mark.parametrize(
    ("call", "what", "least", "bad"),
    [
        pytest.param(call, what, least, bad, id=f"{entry}={bad!r}")
        for entry, call, what, least in INT_FIELDS
        for bad in (float(least + 2), True, "4", None, least - 1)
        # downlink_symbols=None asks for as many downlink symbols as K
        if not (entry == "SweepConfig.downlink_symbols" and bad is None)
    ],
)
def test_bad_count_seed_or_gain_rejected_by_name(call, what, least, bad):
    rule = "a non-negative integer" if least == 0 else f"an integer of at least {least}"
    match = f"^{re.escape(what)} must be {rule}, not {re.escape(repr(bad))}$"
    with pytest.raises(ParameterError, match=match):
        call(bad)


@pytest.mark.usefixtures("no_draws")
@pytest.mark.parametrize(
    ("call", "bad", "match"),
    [
        pytest.param(
            call, bad, f"^{re.escape(what)} must be a real number, not {re.escape(repr(bad))}$",
            id=f"{entry}={bad!r}",
        )
        for entry, call, what, _, _ in REAL_FIELDS
        for bad in (True, "1.5", None, 1j)
        if not (entry == "hw_compare.agreement_snr_db" and bad is None)
    ]
    + [
        pytest.param(call, bad, match, id=f"{entry}={bad!r}")
        for entry, call, _, bad, match in REAL_FIELDS
        if match is not None
    ],
)
def test_bad_real_rejected_by_name(call, bad, match):
    with pytest.raises(ParameterError, match=match):
        call(bad)


# Kinds as ``Constellation(kind, sigma)`` takes them, in lower and in other
# letter cases. Each id is the name of the constructor its case once went
# through, so that the test ids stay stable.
SIGMA_KINDS = {"bpsk": "bpsk", "qpsk": "qpsk", "by_name": "QPSK", "raw": "Bpsk"}


@pytest.mark.parametrize("kind", SIGMA_KINDS.values(), ids=SIGMA_KINDS)
@pytest.mark.parametrize(
    "bad, match",
    [
        pytest.param(bad, f"sigma must be {rule}, not {shown}", id=repr(bad))
        for bad, rule, shown in [
            (-1.0, "finite and positive", "-1.0"),
            (0, "finite and positive", "0.0"),
            (np.nan, "finite and positive", "nan"),
            (np.inf, "finite and positive", "inf"),
            ("a", "a real number", "'a'"),
            (True, "a real number", "True"),
            (None, "a real number", "None"),
        ]
    ],
)
def test_bad_sigma_rejected_by_every_constructor(kind, bad, match):
    # -1.0 used to give a hull of half-width -0.707, nan NaN points, "a" a
    # raw TypeError, and True a constellation of sigma 1.
    with pytest.raises(ParameterError, match=f"^{re.escape(match)}$"):
        Constellation(kind, bad)


@pytest.mark.parametrize("sigma", [2, np.int64(2), np.float32(2.0), 2.0], ids=repr)
def test_sigma_kept_as_python_float(sigma):
    for kind in SIGMA_KINDS.values():
        c, plain = Constellation(kind, sigma), Constellation(kind, 2.0)
        assert type(c.sigma) is float and repr(c) == repr(plain)
        assert c.points.tobytes() == plain.points.tobytes()


@pytest.mark.parametrize("name", [None, 3, "8psk"], ids=repr)
def test_unknown_constellation_rejected(name):
    # None used to end in an AttributeError from name.lower().
    with pytest.raises(ParameterError, match=f"^unknown constellation {re.escape(repr(name))}$"):
        Constellation(name)


def test_constellation_name_hashes_in_any_case():
    # "QPSK" ran the same sweep as "qpsk" but hashed as 9425f31b005e7d85.
    def sweep(name):
        return SweepConfig(
            B=4, K=2, constellation=name, snr_points_db=(0.0,), trials=20, master_seed=1,
            methods=(MethodSpec("prox"), MethodSpec("mrc-chest")),
        )

    # An unset downlink count is stored as K, so this is also the hash of
    # the same sweep with downlink_symbols=2 (it read 57479c7d5b2a0c53).
    assert sweep("qpsk").config_hash() == "d93c1b6fe1038051"
    for name in ("QPSK", "Qpsk"):
        assert sweep(name) == sweep("qpsk") and sweep(name).config_hash() == "d93c1b6fe1038051"


@pytest.mark.parametrize(
    ("call", "match"),
    [
        pytest.param(
            lambda gain=gain: fxp.projection_unit(ACC_WORDS, gain),
            f"the datapath needs rho_log2 in 1..15 (a 4-bit shift count above 0), not {gain}",
            id=f"projection_unit.rho_log2={gain}",
        )
        for gain in (16, 40)
    ]
    + [
        pytest.param(
            lambda: fxp.quantize_array(1e10, 33, 0),
            "word_bits must be at most 32 for int32 words, not 33",
            id="quantize_array.word_bits=33",
        ),
        pytest.param(
            lambda: fxp.quantize_array(0.5, 6, 1100),
            "frac_bits must be at most 32 for int32 words, not 1100",
            id="quantize_array.frac_bits=1100",
        ),
    ],
)
def test_datapath_formats_out_of_range_rejected(call, match):
    # At rho_log2=40 projection_unit returned [8, 0] and 16 was accepted;
    # quantize_array cast a word beyond int32 with a RuntimeWarning, and
    # at 1100 fraction bits its scale overflowed a float (OverflowError).
    with pytest.raises(ParameterError, match=f"^{re.escape(match)}$"):
        call()


@pytest.mark.parametrize(
    ("make", "match"),
    [
        (
            lambda: SweepConfig(**SWEEP | {"methods": ("prox",)}),
            "methods must be a tuple or list of MethodSpec",
        ),
        (
            lambda: SweepConfig(**SWEEP | {"methods": MethodSpec("prox")}),
            "methods must be a tuple or list of MethodSpec",
        ),
        (
            lambda: SweepConfig(**SWEEP | {"los": {"user_angle": 0.1}}),
            "los must be a LosGeometry or None",
        ),
        (
            lambda: MethodSpec("prox", params={"rho_log2": 2}),
            "params must be a ProxParams or None",
        ),
        (
            lambda: SweepConfig(**SWEEP | {"snr_points_db": 0.0}),
            "snr_points_db must be a sequence of SNR points",
        ),
        (
            lambda: SweepConfig(**SWEEP | {"snr_points_db": None}),
            "snr_points_db must be a sequence of SNR points",
        ),
        (
            lambda: model.draw_blocks(4, 2, QPSK, 1, [((0,), 0.0, 2)], los={}),
            "los must be a LosGeometry or None",
        ),
    ],
    ids=[
        "methods-of-names", "one-method", "los-dict", "params-dict", "one-snr-point", "no-snr-points",
        "draw-blocks-los-dict",
    ],
)
def test_sweep_fields_of_the_wrong_type_rejected_by_name(make, match, monkeypatch):
    # Each used to be accepted, or to end in a raw AttributeError or
    # TypeError; the sweep would fail only once it drew blocks.
    monkeypatch.setattr(harness, "draw_blocks", None)
    with pytest.raises(ParameterError, match=f"^{re.escape(match)}, not "):
        run_sweep(make())


def test_methods_kept_as_a_tuple():
    cfg = SweepConfig(**SWEEP | {"methods": [MethodSpec("prox")]})
    assert cfg == SweepConfig(**SWEEP) and cfg.config_hash() == SweepConfig(**SWEEP).config_hash()
    assert repr(cfg) == repr(SweepConfig(**SWEEP))


@pytest.mark.parametrize(
    "snr_points_db",
    [
        np.array([-3.0, 0.0, 2.0]),  # np.float64 points
        tuple(np.float32(x) for x in (-3, 0, 2)),
        (-3, 0, 2),
    ],
    ids=["float64", "float32", "int"],
)
def test_numpy_and_int_reals_hash_and_print_as_floats(snr_points_db):
    # An np.float64 point used to print as np.float64(0.0) in the CSV, an
    # int point 0 as 0, with a hash of its own, and an np.float32 point,
    # alpha_scale or angle made config_hash raise after the sweep had run.
    def sweep(points, alpha_scale, user_angle):
        return SweepConfig(
            B=4, K=2, constellation="qpsk", snr_points_db=points, trials=4, master_seed=3,
            methods=(MethodSpec("prox", ProxParams(alpha_scale)), MethodSpec("mrc-chest")),
            los=LosGeometry(user_angle=user_angle),
        )

    plain = sweep((-3.0, 0.0, 2.0), 1.5, 0.25)
    numpy = sweep(snr_points_db, np.float32(1.5), np.float32(0.25))
    assert repr(numpy) == repr(plain)
    assert numpy.config_hash() == plain.config_hash()
    assert run_sweep(numpy).to_csv() == run_sweep(plain).to_csv()


def test_timing_table_prints_numpy_inputs_as_python_numbers():
    # An np.float64 clock rate used to print as np.float64(341.0).
    plain = timing_csv(timing_report([8, 16], [1, 3], [341e6]))
    numpy = timing_report([np.int64(8), np.int8(16)], [np.int32(1), np.uint8(3)], [np.float64(341e6)])
    assert timing_csv(numpy) == plain
