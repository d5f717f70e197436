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
from .config import FluctuationModel, RunConfig, SourceModel
from .fileio import write_json_atomic
from .stats import ConvergenceError, InsufficientDataError

# Every CLI call runs (and, without a bytecode cache, compiles) each module
# it imports, so the module level holds only what ``main`` and the parser
# need, with ``fileio``, which ``coincidence`` and ``config`` load anyway;
# each command imports the rest itself.  numpy loads only in the commands
# that work on arrays: the ones that import ``estimation`` or ``simulator``,
# or bin a timestamp stream.

OUTDIR_ENV = "WCPSTATS_OUTDIR"


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _source_from_args(args, config: RunConfig) -> SourceModel:
    """The config's source for --label, with each source flag that is given in place of its field."""
    new_label = args.mu is not None and args.label not in config.sources
    source = SourceModel(args.label, args.mu) if new_label else config.source(args.label)
    given = lambda flag, value: value if flag is None else flag
    fluct = source.fluctuation
    fluct = FluctuationModel(given(args.fluct_a, fluct.slope), given(args.fluct_b, fluct.intercept))
    return SourceModel(args.label, given(args.mu, source.mu), fluct, given(args.dark_rate, source.dark_rate))


def _given_flags(args, names) -> str:
    """The flags among ``names`` (argparse dests) that the command line set, spelled as typed."""
    return ", ".join("--" + name.replace("_", "-") for name in names if getattr(args, name) is not None)


def cmd_simulate(args) -> int:
    from .simulator import SimConfig, simulate_pulses, simulate_timestamps

    config = RunConfig.load(args.config)
    source = _source_from_args(args, config)
    pulses = args.pulses if args.pulses is not None else config.pulses
    seed = args.seed if args.seed is not None else config.seed
    cfg = SimConfig(
        n_pulses=pulses,
        seed=seed,
        efficiency_set=config.efficiency_set,
        rep_period_ps=config.rep_period_ps,
        emit_timestamps=args.out_timestamps is not None,
    )
    meta = {"seed": seed, "mu": source.mu, "label": source.label, "pulses": pulses, "dark_rate": source.dark_rate}
    meta.update(fluct_a=source.fluctuation.slope, fluct_b=source.fluctuation.intercept)
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
    # Read in both routes, so that a bad --config fails whichever route is taken.
    config = RunConfig.load(args.config)
    if args.histogram:
        flags = _given_flags(args, ("pulses", "offset_ps", "window_ps"))
        if flags:
            raise ValueError(f"--histogram is already binned per pulse; {flags} only apply to --timestamps")
        hist = read_histogram_json(args.histogram)
        discarded = 0
    else:
        if args.pulses is None:
            raise ValueError("--pulses is required when binning a timestamp stream")
        result = patterns_from_timestamps(
            read_timestamps_csv(args.timestamps),
            rep_period_ps=config.rep_period_ps,
            n_pulses=args.pulses,
            offset_ps=args.offset_ps or 0,
            window_ps=args.window_ps,
        )
        hist = result.histogram
        discarded = result.discarded
    summary = observed_coincidences(hist)
    write_summary_json(_out_path(args.out), summary)
    orders = ", ".join(f"c{r}={c:.3e}" for r, c in enumerate(summary.order_probs, start=1))
    print(f"coincidence: {hist.total_pulses} pulses ({discarded} records discarded); {orders}")
    return 0


def cmd_estimate(args) -> int:
    from .estimation import estimate_mu_rigorous, estimate_mu_single, poissonity_test

    summary = read_summary_json(args.summary)
    eta = RunConfig.load(args.config).efficiency_set.eta
    # Clicks per trigger, one trigger per unit time: the repetition rate cancels.
    click_prob = summary.subset_probs[frozenset({args.detector})]
    single = estimate_mu_single(click_prob, 1.0, eta[args.detector - 1])
    rigorous = estimate_mu_rigorous(summary, eta)
    result: dict = {
        "total_pulses": summary.total_pulses,
        "detector": args.detector,
        "mu_single": single.mu_hat,
        "mu_rigorous": rigorous.mu_hat,
        "mu_rigorous_se": rigorous.std_error,
        "residual": rigorous.residual,
    }
    try:
        check = poissonity_test(summary, rigorous.mu_hat, eta)
    except InsufficientDataError as exc:
        # Too few counts for a verdict leaves the fit standing.
        print(f"warning: no Poissonity verdict: {exc}", file=sys.stderr)
    else:
        result["poissonity"] = {key: value for key, value in check._asdict().items() if key != "orders_used"}
    if args.out:
        write_json_atomic(_out_path(args.out), result)
    print(f"estimate: mu_single={single.mu_hat:.6f}, mu_rigorous={rigorous.mu_hat:.6f}")
    return 0


def cmd_bounds(args) -> int:
    from .bounds import photon_number_bounds, write_bounds_json

    summary = read_summary_json(args.summary)
    eff = RunConfig.load(args.config).efficiency_set
    bounds = photon_number_bounds(summary, eff.eta)
    write_bounds_json(
        _out_path(args.out), bounds, meta={"eta_bar": eff.eta_bar, "total_pulses": summary.total_pulses}
    )
    lo, hi = bounds.clipped()
    print(
        "bounds: " + ", ".join(f"p{label} in [{l:.4g}, {u:.4g}]" for label, l, u in zip(("0", "1", "2", "3", ">=4"), lo, hi))
    )
    if summary.order_probs[3] == 0.0:
        # Each lower formula differs from its upper one only in its c_4 term.
        print(
            "warning: no four-fold coincidence was observed (c4=0), so every interval has zero width; "
            "sampling noise can place these points beside the true p_n",
            file=sys.stderr,
        )
    return 0


def _count(text: str) -> int:
    """An argparse type for a count flag, which must be > 0 and fit in int64, so that a usage error names the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    if value >= 2**63:
        raise argparse.ArgumentTypeError(f"must be below 2**63, got {value}")
    return value


def _parse_source_spec(spec: str) -> tuple[str, float, float]:
    try:
        label, values = spec.split("=", 1)
        mean_text, sigma_text = values.split(",")
        return label.strip(), float(mean_text), float(sigma_text)
    except ValueError as exc:
        raise ValueError(f"bad source spec {spec!r}; expected LABEL=MEAN,SIGMA") from exc


def cmd_leakage(args) -> int:
    from .leakage import SourceDistribution, leakage_payload, pairwise_reports

    if (args.mu_single is None) != (args.mu_rigorous is None):
        missing = "--mu-rigorous" if args.mu_rigorous is None else "--mu-single"
        raise ValueError(f"delta I(A:E) needs both --mu-single and --mu-rigorous; {missing} is missing")
    distributions = {}
    for spec in args.source or ():
        label, mean, sigma = _parse_source_spec(spec)
        if label in distributions:
            raise ValueError(f"source {label} given twice")
        distributions[label] = SourceDistribution(mean=mean, sigma=sigma)
    payload = leakage_payload(
        pairwise_reports(distributions) if distributions else (),
        pair_r=args.pair_r,
        mu=args.mu,
        mu_single=args.mu_single,
        mu_rigorous=args.mu_rigorous,
    )
    lines = [f"R={entry['R']:.4f} -> I'(A:E)={entry['I_prime']:.4f}" for entry in payload.get("pair_r", ())]
    lines += [f"{entry['pair']}: R={entry['R']:.4f} I'(A:E)={entry['I_prime']:.4f}" for entry in payload["pairs"]]
    if "multi_photon" in payload:
        lines.append(f"mu={args.mu}: I(A:E)={payload['multi_photon']['I_AE']:.6g}")
    if "estimate_gap" in payload:
        lines.append(f"delta I(A:E)={payload['estimate_gap']['delta_I']:.6g}")
    if not lines:
        raise ValueError("nothing to compute: pass --pair-r, --source, --mu or --mu-single/--mu-rigorous")
    if args.out:
        write_json_atomic(_out_path(args.out), payload)
    print("leakage: " + "; ".join(lines))
    return 0


# The flags of ``fluct`` that only the simulated route reads, with their defaults.
_FLUCT_SIMULATION_FLAGS = {
    "mu_list": None, "cycles": 50, "seed": 1, "fluct_a": 0.05, "fluct_b": 0.0, "series_dir": None,
}


def cmd_fluct(args) -> int:
    from .estimation import intensity_from_counts, point_seed
    from .leakage import fit_fluctuation
    from .simulator import SimConfig, read_count_series_csv, simulate_count_series, write_count_series_csv

    eff = RunConfig.load(args.config).efficiency_set
    series_per_mu: dict[float, object] = {}
    if args.series:
        flags = _given_flags(args, _FLUCT_SIMULATION_FLAGS)
        if flags:
            raise ValueError(f"--series fits the given files; {flags} only apply to a simulated run")
        for spec in args.series:
            try:
                mu_text, path = spec.split("=", 1)
                mu = float(mu_text)
            except ValueError:
                raise ValueError(f"bad series spec {spec!r}; expected MU=PATH") from None
            if mu in series_per_mu:
                raise ValueError(f"series for mu={mu:g} given twice")
            series_per_mu[mu] = read_count_series_csv(path)
        meta = {"input": "series files"}
    else:
        if not args.mu_list:
            raise ValueError("pass either --series MU=PATH or --mu-list with simulation options")
        for name, default in _FLUCT_SIMULATION_FLAGS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        mus = [float(x) for x in args.mu_list.split(",")]
        repeats = [mu for k, mu in enumerate(mus) if mu in mus[:k]]
        if repeats:
            raise ValueError(f"mu={repeats[0]:g} given twice in --mu-list")
        for k, mu in enumerate(mus):
            source = SourceModel("S1", mu, FluctuationModel(slope=args.fluct_a, intercept=args.fluct_b))
            cfg = SimConfig(n_pulses=args.pulses_per_cycle, seed=point_seed(args.seed, k), efficiency_set=eff)
            counts = simulate_count_series(source, args.cycles, args.pulses_per_cycle, cfg, detector=args.detector)
            if args.series_dir:
                write_count_series_csv(_out_path(args.series_dir) / f"series_mu_{mu:g}.csv", counts)
            series_per_mu[mu] = counts
        meta = {"seed": args.seed, "cycles": args.cycles}
    eta_det = eff.eta[args.detector - 1]
    fit = fit_fluctuation({mu: intensity_from_counts(c, args.pulses_per_cycle, eta_det) for mu, c in series_per_mu.items()})
    payload = fit.to_dict()
    units = "per-cycle intensity estimates (counts / (pulses * eta))"
    payload["meta"] = {**meta, "pulses_per_cycle": args.pulses_per_cycle, "detector": args.detector, "units": units}
    if args.out:
        write_json_atomic(_out_path(args.out), payload)
    print(
        f"fluct: sigma(mu) = {fit.slope:.6g} * mu + {fit.intercept:.6g} "
        f"over {len(fit.points)} points"
    )
    if fit.slope < 0:
        print(
            f"warning: fitted slope {fit.slope:.6g} is negative: counting noise dominates these series, "
            "and the fit cannot be passed back as --fluct-a",
            file=sys.stderr,
        )
    return 0


def cmd_sweep(args) -> int:
    from .estimation import method_difference_sweep, write_sweep_csv

    config = RunConfig.load(args.config)
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    step = (args.mu_max - args.mu_min) / (args.steps - 1)
    grid = [args.mu_min + k * step for k in range(args.steps)]
    rows = method_difference_sweep(
        grid,
        config.efficiency_set,
        pulses_per_point=args.pulses,
        seed=args.seed,
        detector=args.detector,
    )
    write_sweep_csv(_out_path(args.out), rows)
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
    p.add_argument("--fluct-a", type=float, help="fluctuation slope (overrides config)")
    p.add_argument("--fluct-b", type=float, help="fluctuation intercept (overrides config)")
    p.add_argument("--dark-rate", type=float, help="dark-click probability per detector and pulse (overrides config)")
    p.add_argument("--pulses", type=_count)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; no effect")
    p.add_argument("--out-histogram", required=True)
    p.add_argument("--out-timestamps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coincidence", help="coincidence summary from click data")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--histogram", help="pattern histogram JSON")
    group.add_argument("--timestamps", help="timestamp CSV")
    p.add_argument("--config", help="run configuration JSON; its rep_rate_hz sets the binning period")
    p.add_argument("--pulses", type=_count, help="trigger periods covered by the timestamps")
    p.add_argument("--offset-ps", type=int, help="default 0")
    p.add_argument("--window-ps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coincidence)

    p = sub.add_parser("estimate", help="mean photon number from a summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--config", help="run configuration JSON; its efficiencies enter the fit")
    p.add_argument("--detector", type=int, choices=DETECTORS, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="photon-number probability bounds")
    p.add_argument("--summary", required=True)
    p.add_argument("--config", help="run configuration JSON; its efficiencies enter the bounds")
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
    p.add_argument("--cycles", type=int, help="default 50")
    p.add_argument("--pulses-per-cycle", type=_count, default=100_000)
    p.add_argument("--seed", type=int, help="default 1")
    p.add_argument("--detector", type=int, choices=DETECTORS, default=1)
    p.add_argument("--fluct-a", type=float, help="default 0.05")
    p.add_argument("--fluct-b", type=float, help="default 0")
    p.add_argument("--series-dir", help="also write the simulated series CSVs here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fluct)

    p = sub.add_parser("sweep", help="estimator-difference sweep over mu")
    p.add_argument("--config")
    p.add_argument("--mu-min", type=float, default=0.1)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--pulses", type=_count, default=1_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--detector", type=int, choices=DETECTORS, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    # numpy's bundled OpenBLAS starts a worker thread per extra core as it
    # loads, about 40% of a fresh ``import numpy`` on a 2-core host.  wcpstats
    # makes no BLAS call (tests/test_cli.py scans the package for one), so one
    # thread gives the same results; a value the user has set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InsufficientDataError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
