"""Command-line surface tying simulation, ingestion and analysis together.

Subcommands: simulate, coincidence, estimate, bounds, leakage, fluct,
sweep.  Every output file is written atomically and every randomized run
records its seed, so repeating a command with the same configuration and
seed reproduces each output byte for byte.  Relative output paths can be
redirected with the WCPSTATS_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .bounds import photon_number_bounds, write_bounds_json
from .coincidence import (
    DETECTORS,
    observed_coincidences,
    patterns_from_timestamps,
    read_histogram_json,
    read_summary_json,
    read_timestamps_csv,
    write_histogram_json,
    write_summary_json,
    write_timestamps_csv,
)
from .config import RunConfig
from .estimation import (
    ConvergenceError,
    InsufficientDataError,
    estimate_mu_rigorous,
    estimate_mu_single,
    intensity_from_counts,
    method_difference_sweep,
    poissonity_test,
    write_sweep_csv,
)
from .fileio import read_json, write_json_atomic
from .leakage import (
    fit_fluctuation,
    gaussian_distribution,
    info_leakage,
    leakage_difference,
    pairwise_leakage,
    pairwise_reports,
    write_leakage_json,
)
from .optics import EfficiencySet
from .simulator import (
    SimConfig,
    SourceModel,
    FluctuationModel,
    read_count_series_csv,
    simulate_count_series,
    simulate_pulses,
    simulate_timestamps,
    write_count_series_csv,
)

OUTDIR_ENV = "WCPSTATS_OUTDIR"


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _efficiency_from_args(args, config: RunConfig) -> EfficiencySet:
    if args.eff:
        return EfficiencySet.from_dict(read_json(args.eff))
    return config.efficiency_set()


def _source_from_args(args, config: RunConfig) -> SourceModel:
    label = args.label
    if args.mu is not None:
        return SourceModel(
            label=label,
            mu=args.mu,
            fluctuation=FluctuationModel(slope=args.fluct_a, intercept=args.fluct_b),
            dark_rate=args.dark_rate,
        )
    return config.source(label)


def cmd_simulate(args) -> int:
    config = RunConfig.load(args.config)
    source = _source_from_args(args, config)
    pulses = args.pulses if args.pulses is not None else config.pulses
    seed = args.seed if args.seed is not None else config.seed
    cfg = SimConfig(
        n_pulses=pulses,
        seed=seed,
        efficiency_set=config.efficiency_set(),
        rep_period_ps=config.rep_period_ps,
        emit_timestamps=args.out_timestamps is not None,
    )
    meta = {"seed": seed, "mu": source.mu, "label": source.label, "pulses": pulses}
    if args.out_timestamps:
        records, hist = simulate_timestamps(source, cfg)
        write_timestamps_csv(_out_path(args.out_timestamps), records)
    else:
        hist = simulate_pulses(source, cfg, workers=args.workers)
    write_histogram_json(_out_path(args.out_histogram), hist, meta=meta)
    clicks = hist.total_pulses - hist.counts[0]
    print(
        f"simulate: {pulses} pulses of {source.label} at mu={source.mu} "
        f"(seed {seed}); {clicks} pulses with clicks -> {args.out_histogram}"
    )
    return 0


def cmd_coincidence(args) -> int:
    if args.histogram:
        hist = read_histogram_json(args.histogram)
        discarded = 0
    else:
        if args.pulses is None:
            raise ValueError("--pulses is required when binning a timestamp stream")
        records = read_timestamps_csv(args.timestamps)
        result = patterns_from_timestamps(
            records,
            rep_period_ps=args.rep_period_ps,
            n_pulses=args.pulses,
            offset_ps=args.offset_ps,
            window_ps=args.window_ps,
        )
        hist = result.histogram
        discarded = result.discarded
    summary = observed_coincidences(hist)
    write_summary_json(_out_path(args.out), summary)
    orders = ", ".join(f"c{r}={summary.order_probability(r):.3e}" for r in (1, 2, 3, 4))
    print(f"coincidence: {hist.total_pulses} pulses ({discarded} records discarded); {orders}")
    return 0


def cmd_estimate(args) -> int:
    summary = read_summary_json(args.summary)
    config = RunConfig.load(args.config)
    eta = _efficiency_from_args(args, config).eta
    rep_rate = args.rep_rate if args.rep_rate is not None else config.rep_rate_hz
    result: dict = {"total_pulses": summary.total_pulses}
    if args.method in ("single", "both"):
        click_prob = summary.subset_probs[frozenset({args.detector})]
        single = estimate_mu_single(click_prob * rep_rate, rep_rate, eta[args.detector - 1])
        result["mu_single"] = single.mu_hat
        result["detector"] = args.detector
    if args.method in ("rigorous", "both"):
        rigorous = estimate_mu_rigorous(summary, eta)
        result["mu_rigorous"] = rigorous.mu_hat
        result["residual"] = rigorous.residual
        check = poissonity_test(summary, rigorous.mu_hat, eta)
        result["poissonity"] = {
            "statistic": check.statistic,
            "dof": check.dof,
            "threshold": check.threshold,
            "passed": check.passed,
        }
    if args.out:
        write_json_atomic(_out_path(args.out), result)
    parts = []
    if "mu_single" in result:
        parts.append(f"mu_single={result['mu_single']:.6f}")
    if "mu_rigorous" in result:
        parts.append(f"mu_rigorous={result['mu_rigorous']:.6f}")
    print("estimate: " + ", ".join(parts))
    return 0


def cmd_bounds(args) -> int:
    summary = read_summary_json(args.summary)
    eff = _efficiency_from_args(args, RunConfig.load(args.config))
    bounds = photon_number_bounds(summary, eff.eta)
    write_bounds_json(
        _out_path(args.out), bounds, meta={"eta_bar": eff.eta_bar, "total_pulses": summary.total_pulses}
    )
    lo, hi = bounds.clipped()
    print(
        "bounds: " + ", ".join(f"p{label} in [{l:.4g}, {u:.4g}]" for label, l, u in zip(("0", "1", "2", "3", ">=4"), lo, hi))
    )
    return 0


def _parse_source_spec(spec: str) -> tuple[str, float, float]:
    try:
        label, values = spec.split("=", 1)
        mean_text, sigma_text = values.split(",")
        return label.strip(), float(mean_text), float(sigma_text)
    except ValueError as exc:
        raise ValueError(f"bad source spec {spec!r}; expected LABEL=MEAN,SIGMA") from exc


def cmd_leakage(args) -> int:
    lines = []
    reports = []
    if args.pair_r:
        for value in args.pair_r:
            lines.append(f"R={value:.4f} -> I'(A:E)={pairwise_leakage(value):.4f}")
    if args.source:
        distributions = {}
        for spec in args.source:
            label, mean, sigma = _parse_source_spec(spec)
            distributions[label] = gaussian_distribution(mean, sigma)
        reports = pairwise_reports(distributions)
        for report in reports:
            lines.append(
                f"{report.pair}: R={report.correlation:.4f} I'(A:E)={report.info_leak:.4f}"
            )
    if args.mu is not None:
        lines.append(f"mu={args.mu}: I(A:E)={info_leakage(args.mu):.6g}")
    if args.mu_single is not None and args.mu_rigorous is not None:
        delta = leakage_difference(args.mu_rigorous, args.mu_single)
        lines.append(f"delta I(A:E)={delta:.6g}")
    if not lines:
        raise ValueError("nothing to compute: pass --pair-r, --source, --mu or --mu-single/--mu-rigorous")
    if args.out:
        write_leakage_json(
            _out_path(args.out),
            reports,
            mu=args.mu,
            mu_single=args.mu_single,
            mu_rigorous=args.mu_rigorous,
        )
    print("leakage: " + "; ".join(lines))
    return 0


def cmd_fluct(args) -> int:
    config = RunConfig.load(args.config)
    series_per_mu: dict[float, object] = {}
    if args.series:
        for spec in args.series:
            try:
                mu_text, path = spec.split("=", 1)
                mu = float(mu_text)
            except ValueError:
                raise ValueError(f"bad series spec {spec!r}; expected MU=PATH") from None
            series_per_mu[mu] = read_count_series_csv(path)
        meta = {"input": "series files"}
    else:
        if not args.mu_list:
            raise ValueError("pass either --series MU=PATH or --mu-list with simulation options")
        eff = config.efficiency_set()
        eta_det = eff.eta[args.detector - 1]
        mus = [float(x) for x in args.mu_list.split(",")]
        for mu in mus:
            source = SourceModel(
                label=args.label,
                mu=mu,
                fluctuation=FluctuationModel(slope=args.fluct_a, intercept=args.fluct_b),
            )
            cfg = SimConfig(
                n_pulses=args.pulses_per_cycle,
                seed=args.seed,
                efficiency_set=eff,
                rep_period_ps=config.rep_period_ps,
            )
            counts = simulate_count_series(source, args.cycles, args.pulses_per_cycle, cfg, detector=args.detector)
            if args.series_dir:
                out = _out_path(args.series_dir) / f"series_mu_{mu:g}.csv"
                write_count_series_csv(out, counts)
            series_per_mu[mu] = intensity_from_counts(counts, args.pulses_per_cycle, eta_det)
        meta = {
            "seed": args.seed,
            "cycles": args.cycles,
            "pulses_per_cycle": args.pulses_per_cycle,
            "detector": args.detector,
            "units": "per-cycle intensity estimates (counts / (pulses * eta))",
        }
    fit = fit_fluctuation(series_per_mu)
    payload = fit.to_dict()
    payload["meta"] = meta
    if args.out:
        write_json_atomic(_out_path(args.out), payload)
    print(
        f"fluct: sigma(mu) = {fit.slope:.6g} * mu + {fit.intercept:.6g} "
        f"over {len(fit.points)} points"
    )
    return 0


def cmd_sweep(args) -> int:
    config = RunConfig.load(args.config)
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    step = (args.mu_max - args.mu_min) / (args.steps - 1)
    grid = [args.mu_min + k * step for k in range(args.steps)]
    rows = method_difference_sweep(
        grid,
        config.efficiency_set(),
        pulses_per_point=args.pulses,
        seed=args.seed,
        detector=args.detector,
        rep_rate=config.rep_rate_hz,
    )
    delta_leakage = [leakage_difference(r.mu_method2, r.mu_method1) for r in rows]
    write_sweep_csv(_out_path(args.out), rows, extra_columns={"delta_I": delta_leakage})
    print(
        f"sweep: {len(rows)} points over mu {args.mu_min}..{args.mu_max}, "
        f"{args.pulses} pulses each (seed {args.seed}) -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcpstats",
        description="Photon-number statistics characterization for weak coherent pulse sources",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate click data for one source")
    p.add_argument("--config", help="run configuration JSON")
    p.add_argument("--label", default="S1")
    p.add_argument("--mu", type=float, help="mean photon number (overrides config)")
    p.add_argument("--fluct-a", type=float, default=0.0, help="fluctuation slope")
    p.add_argument("--fluct-b", type=float, default=0.0, help="fluctuation intercept")
    p.add_argument("--dark-rate", type=float, default=0.0)
    p.add_argument("--pulses", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--out-histogram", required=True)
    p.add_argument("--out-timestamps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coincidence", help="coincidence summary from click data")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--histogram", help="pattern histogram JSON")
    group.add_argument("--timestamps", help="timestamp CSV")
    p.add_argument("--pulses", type=int, help="trigger periods covered by the timestamps")
    p.add_argument("--rep-period-ps", type=int, default=800_000)
    p.add_argument("--offset-ps", type=int, default=0)
    p.add_argument("--window-ps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coincidence)

    p = sub.add_parser("estimate", help="mean photon number from a summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--eff", help="efficiency JSON (eta_b/eta_c/eta_d or eta)")
    p.add_argument("--config")
    p.add_argument("--method", choices=("single", "rigorous", "both"), default="both")
    p.add_argument("--detector", type=int, choices=DETECTORS, default=1)
    p.add_argument("--rep-rate", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="photon-number probability bounds")
    p.add_argument("--summary", required=True)
    p.add_argument("--eff")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("leakage", help="information-leakage calculators")
    p.add_argument("--pair-r", type=float, action="append", help="pair correlation R")
    p.add_argument("--source", action="append", help="LABEL=MEAN,SIGMA (repeatable)")
    p.add_argument("--mu", type=float, help="multi-photon leakage at this mu")
    p.add_argument("--mu-single", type=float)
    p.add_argument("--mu-rigorous", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("fluct", help="intensity-fluctuation study")
    p.add_argument("--config")
    p.add_argument("--series", action="append", help="MU=PATH count-series CSV (repeatable)")
    p.add_argument("--mu-list", help="comma-separated mu grid to simulate")
    p.add_argument("--cycles", type=int, default=50)
    p.add_argument("--pulses-per-cycle", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--detector", type=int, choices=DETECTORS, default=1)
    p.add_argument("--label", default="S1")
    p.add_argument("--fluct-a", type=float, default=0.05)
    p.add_argument("--fluct-b", type=float, default=0.0)
    p.add_argument("--series-dir", help="also write the simulated series CSVs here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fluct)

    p = sub.add_parser("sweep", help="estimator-difference sweep over mu")
    p.add_argument("--config")
    p.add_argument("--mu-min", type=float, default=0.1)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--pulses", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--detector", type=int, choices=DETECTORS, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InsufficientDataError, ConvergenceError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
