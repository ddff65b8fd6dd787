"""Command-line front end.

Subcommands: ``sweep`` (Monte-Carlo error-rate sweep), ``verify``
(convergence/bound suites, nonzero exit on any violation), ``hw-compare``
(paired float-vs-fixed run), ``timing`` (latency/throughput table), ``tune``
(gain grid search), and ``trace`` (dump one cycle-accurate array iteration).

A config file of ``key = value`` lines can seed any sweep-style command;
explicit flags override it. Worker count comes from the SIMOJED_WORKERS
environment variable. A package error (a bad parameter, an unsupported size)
exits non-zero with its message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import ParameterError, SimojedError
from .fxp import PeArrayConfig, pe_array_iteration, quantize_block
from .harness import (
    SOLVER_METHODS,
    MethodSpec,
    SweepConfig,
    hw_compare,
    run_sweep,
    timing_csv,
    timing_report,
)
from .linalg import spectral_norm
from .model import Constellation, LosGeometry, draw_blocks
from .prox import ProxParams, preprocess
from .tuning import tune_rho
from .verify import verify_theorems


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` config; '#' starts a comment. A file that
    cannot be read, or a line without '=', is a ``ParameterError`` naming
    the file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {str(path)!r}: {exc}") from None
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line without '=' in {str(path)!r}: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """Either 'start:stop:step' (every point from start up to stop
    inclusive, none past it; all three finite) or a comma list."""
    is_range = ":" in spec
    try:
        values = tuple(float(x) for x in spec.split(":" if is_range else ","))
    except ValueError:
        raise ParameterError(f"SNR grid {spec!r} is not a list of numbers") from None
    if not is_range:
        return values
    if len(values) != 3:
        raise ParameterError(f"SNR range {spec!r} needs three fields, start:stop:step")
    start, stop, step = values
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"SNR range {spec!r} needs a finite start, stop and step")
    if step == 0:
        raise ParameterError(f"SNR range {spec!r} has a zero step")
    # The tolerance keeps an endpoint that the division lands just below.
    n = math.floor((stop - start) / step + 1e-9) + 1
    return tuple(round(start + i * step, 9) for i in range(n))


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--b", type=int, help="receive antennas")
    p.add_argument("--k", type=int, help="data slots per block")
    p.add_argument("--constellation", choices=["bpsk", "qpsk"])
    p.add_argument("--channel", choices=["rayleigh", "los"], default=None)
    p.add_argument("--snr", help="SNR grid: start:stop:step or comma list (dB)")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--t-max", type=int, dest="t_max")
    p.add_argument("--rho-log2", type=int, dest="rho_log2")
    p.add_argument("--alpha-scale", type=float, dest="alpha_scale")
    p.add_argument("--out", help="output path prefix (.csv and .json are added)")


# The solver's default gains, for every command that takes them.
_GAINS = ProxParams()
_SWEEP_DEFAULTS = {
    "b": 16,
    "k": 8,
    "constellation": "bpsk",
    "channel": "rayleigh",
    "snr": "-10:0:1",
    "trials": 1000,
    "seed": 1,
    "t_max": _GAINS.t_max,
    "rho_log2": _GAINS.rho_log2,
    "alpha_scale": _GAINS.alpha_scale,
}
# The keys that take numbers, each of its default's type.
_NUMERIC_KEYS = {k: type(v) for k, v in _SWEEP_DEFAULTS.items() if not isinstance(v, str)}


def _resolve(args: argparse.Namespace, extra_keys: dict | None = None) -> dict:
    """Merge defaults, config file, then explicit flags."""
    merged = dict(_SWEEP_DEFAULTS)
    if extra_keys:
        merged.update(extra_keys)
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            norm = key.replace("-", "_")
            if norm not in merged:
                raise ParameterError(f"unknown config key {key!r}")
            merged[norm] = value
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for key, kind in _NUMERIC_KEYS.items():
        try:
            merged[key] = kind(merged[key])
        except ValueError:
            raise ParameterError(f"{key} = {merged[key]!r} is not a valid {kind.__name__}") from None
    return merged


def _build_config(res: dict, methods: str, arithmetic: str = "float") -> SweepConfig:
    """The sweep of the resolved values, running the comma-listed
    ``methods``; the solver methods share one set of gains."""
    if res["channel"] not in ("rayleigh", "los"):
        raise ParameterError(f"unknown channel {res['channel']!r}; choose rayleigh or los")
    params = ProxParams(**{key: res[key] for key in asdict(_GAINS)})
    names = [name.strip() for name in methods.split(",")]
    specs = tuple(MethodSpec(n, params if n in SOLVER_METHODS else None) for n in names)
    return SweepConfig(
        B=res["b"],
        K=res["k"],
        constellation=res["constellation"],
        snr_points_db=parse_snr_spec(res["snr"]),
        trials=res["trials"],
        master_seed=res["seed"],
        methods=specs,
        los=LosGeometry() if res["channel"] == "los" else None,
        arithmetic=arithmetic,
    )


def _write_outputs(prefix: str, result) -> None:
    csv_path = Path(f"{prefix}.csv")
    csv_path.write_text(result.to_csv())
    Path(f"{prefix}.json").write_text(json.dumps(result.metadata(), indent=2) + "\n")
    print(f"wrote {csv_path} and {prefix}.json")


def cmd_sweep(args: argparse.Namespace) -> int:
    res = _resolve(args, {"methods": "prox,mrc-chest", "arithmetic": "float"})
    cfg = _build_config(res, res["methods"], res["arithmetic"])
    result = run_sweep(cfg)
    for (method, snr), cell in sorted(result.cells.items()):
        lo, hi = cell.wilson_interval()
        print(
            f"{method:9s} snr={snr:+6.1f} dB  uplink SER {cell.uplink_ser:.3e} "
            f"[{lo:.3e}, {hi:.3e}]  downlink SER {cell.downlink_ser:.3e}  "
            f"chest MSE {cell.chest_mse:.3e}"
        )
    if args.out:
        _write_outputs(args.out, result)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_theorems(args.seed, args.instances)
    for line in report.lines():
        print(line)
    if report.boundary.notes.get("mean_boundary_fraction") is not None:
        print(
            "boundary fraction (informational): "
            f"{report.boundary.notes['mean_boundary_fraction']:.4f}"
        )
    if not report.ok:
        for suite in report.suites:
            for failure in suite.failures:
                print(f"  {suite.name}: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_hw_compare(args: argparse.Namespace) -> int:
    res = _resolve(args)
    cfg = _build_config(res, args.method)
    report = hw_compare(cfg, agreement_snr_db=args.agreement_snr)
    print(f"hard-decision agreement: {report.agreement_rate:.4%}")
    for target, gap in report.gap_db_at.items():
        shown = "n/a (no crossing)" if gap is None else f"{gap:+.3f} dB"
        print(f"fixed-vs-float gap at SER {target:g}: {shown}")
    if args.out:
        Path(f"{args.out}_float.csv").write_text(report.float_result.to_csv())
        Path(f"{args.out}_fixed.csv").write_text(report.fixed_result.to_csv())
        print(f"wrote {args.out}_float.csv and {args.out}_fixed.csv")
    return 0


def _parse_list(flag: str, spec: str, kind: type) -> list:
    """A comma list of numbers of type ``kind``."""
    try:
        return [kind(x) for x in spec.split(",")]
    except ValueError:
        raise ParameterError(f"{flag} {spec!r} is not a comma list of {kind.__name__}s") from None


def cmd_timing(args: argparse.Namespace) -> int:
    rows = timing_report(
        _parse_list("--k", args.k, int),
        _parse_list("--t-max", args.t_max, int),
        _parse_list("--f-clk", args.f_clk, float),
        bits=args.bits,
    )
    text = timing_csv(rows)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    best = tune_rho(
        args.b,
        args.k,
        args.constellation,
        args.snr,
        args.trials,
        args.seed,
        approx=args.method == "aprox",
        t_max=args.t_max,
    )
    print(
        f"best rho_log2={best.rho_log2} alpha_scale={best.alpha_scale} "
        f"(tuning SER {best.ser:.4e})"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    c = Constellation(args.constellation)
    PeArrayConfig(N=args.n, t_max=1, rho_log2=args.rho_log2)  # checks N and the gain before a draw
    params = ProxParams(rho_log2=args.rho_log2, t_max=1)
    G = draw_blocks(args.b, args.n - 1, c, args.seed, [((), args.snr, 1)]).G[0]
    cfg, Gq, sq, sc = quantize_block(preprocess(G, params.alpha_scale * spectral_norm(G)), c, params)
    _, trace = pe_array_iteration(sq, Gq, cfg, sc)
    text = trace.to_text()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({trace.cycles()} cycles)")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simojed", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="Monte-Carlo error-rate sweep")
    _add_sweep_args(p)
    p.add_argument("--methods", help="comma list: prox,aprox,mrc-csir,mrc-chest,mrc-rt,ml-jed")
    p.add_argument("--arithmetic", choices=["float", "fixed"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="convergence and bound suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instances", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hw-compare", help="paired float-vs-fixed comparison")
    _add_sweep_args(p)
    p.add_argument("--method", choices=SOLVER_METHODS, default="prox")
    p.add_argument("--agreement-snr", type=float, default=None, dest="agreement_snr")
    p.set_defaults(func=cmd_hw_compare)

    p = sub.add_parser("timing", help="latency/throughput table")
    p.add_argument("--k", default="4,8,16,32")
    p.add_argument("--t-max", default="1", dest="t_max")
    p.add_argument("--f-clk", default="358e6,341e6,297e6,240e6", dest="f_clk")
    p.add_argument("--bits", type=int, default=2, help="bits per symbol (2 for QPSK)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("tune", help="grid-search the solver gains")
    p.add_argument("--b", type=int, default=16)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--constellation", choices=["bpsk", "qpsk"], default="qpsk")
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--method", choices=SOLVER_METHODS, default="prox")
    p.add_argument("--t-max", type=int, default=_GAINS.t_max, dest="t_max")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("trace", help="dump one cycle-accurate array iteration")
    p.add_argument("--n", type=int, default=5, help="array size (K+1)")
    p.add_argument("--b", type=int, default=16)
    p.add_argument("--constellation", choices=["bpsk", "qpsk"], default="qpsk")
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--rho-log2", type=int, default=_GAINS.rho_log2, dest="rho_log2")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimojedError as exc:
        raise SystemExit(f"simojed {args.command}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
