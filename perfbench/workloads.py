"""The three benchmark workloads.

Each workload function turns the run seed into a fixed list of items (one
pass); the harness repeats whole passes.  Inputs come from ``inputs``, and
ground truth never comes from the package under test.  Every call into the
package goes through ``Recorder.call``, which counts it and, in a traced
pass, records its span.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import wcpstats as wcp
from wcpstats.coincidence import read_timestamps_csv, write_timestamps_csv
from wcpstats.optics import EfficiencySet

from harness import Item, Outcome, Recorder, Workload
from inputs import (
    DETECTOR_QE,
    MIN_EXPECTED,
    REP_PERIOD_PS,
    REP_RATE_HZ,
    SPLITTERS,
    Truth,
    default_branching,
    default_eta,
    draw_pattern_counts,
    order_probabilities,
    rng_for,
    seed_for,
    subset_probabilities,
    tag,
)

CLI_TIMEOUT_S = 120
FLUCT_SLOPE = 0.05


def default_efficiency_set() -> EfficiencySet:
    return EfficiencySet(eta_b=default_branching(), eta_d=DETECTOR_QE)


def analyse(rec: Recorder, summary, eta, truth: Truth) -> float:
    """Estimate, Poissonity check, bounds and leakage of one summary; returns its wall time."""
    start = perf_counter()
    click = summary.subset_probs[frozenset({1})]
    single = rec.call(
        "estimation.estimate_mu_single",
        wcp.estimate_mu_single,
        click * REP_RATE_HZ,
        REP_RATE_HZ,
        eta[0],
    )
    rec.count("estimation.estimate_mu_rigorous.calls")
    try:
        rigorous = rec.call(
            "estimation.estimate_mu_rigorous",
            wcp.estimate_mu_rigorous,
            summary,
            eta,
            expect=wcp.ConvergenceError,
        )
        rec.count("estimation.converged")
    except wcp.ConvergenceError as exc:
        rigorous = exc.best  # not converged; its best iterate must still pass the check
    rec.check(
        "estimation",
        truth.mu_ok(rigorous.mu_hat),
        f"mu_hat {rigorous.mu_hat!r} too far from mu {truth.mu!r}",
    )

    insufficient = truth.poissonity_insufficient()
    try:
        check = rec.call(
            "estimation.poissonity_test",
            wcp.poissonity_test,
            summary,
            rigorous.mu_hat,
            eta,
            min_expected=MIN_EXPECTED,
            expect=wcp.InsufficientDataError if insufficient else (),
        )
        if insufficient:
            rec.check("estimation", False, "poissonity_test ran on data too thin for it")
        elif truth.noise_free:
            rec.check("estimation", check.passed, "poissonity_test rejected exact Poisson input")
    except wcp.InsufficientDataError:
        pass  # the expected outcome on thin data

    bounds = rec.call("bounds.photon_number_bounds", wcp.photon_number_bounds, summary, eta)
    if truth.poisson:
        inside = truth.sandwiched(bounds.lower, bounds.upper)
        if truth.noise_free:
            rec.check("bounds", inside, "bounds miss the true p_n")
        else:
            rec.count("bounds.noisy")
            rec.count("bounds.noisy_sandwiched", inside)

    rec.call("leakage.info_leakage", wcp.info_leakage, rigorous.mu_hat)
    rec.call("leakage.leakage_difference", wcp.leakage_difference, rigorous.mu_hat, single.mu_hat)
    return perf_counter() - start


# ---------------------------------------------------------------------------
# simulate: the histogram path and the per-record timestamp path


# Items are kept small, so that each repeats many times in a run.  No grid
# point leaves the Poissonity test's data-sufficiency decision borderline.
SIM_GRID = (1e-3, 3e-3, 1e-2, 5e-2, 0.1, 0.3, 0.5, 1.0, 2.0)
SIM_FLUCT_MUS = (0.1, 0.5)
SIM_PULSES = 400_000
SIM_FLUCT_CYCLES = 8
SWEEP_GRID = (0.05, 0.2, 0.8, 1.6)
SWEEP_PULSES = 50_000
DENSE = (2.0, 10_000)  # (mu, pulses): about one record per pulse
SPARSE = (0.02, 250_000)  # about 0.01 records per pulse


def _source_item(source, cfg, truth: Truth):
    def run(rec: Recorder) -> Outcome:
        hist = rec.call("simulator.simulate_pulses", wcp.simulate_pulses, source, cfg)
        rec.count("simulator.pulses", cfg.n_pulses)
        summary = rec.call("coincidence.observed_coincidences", wcp.observed_coincidences, hist)
        return Outcome(cfg.n_pulses, 1, analyse(rec, summary, truth.eta, truth))

    return run


def _stream_item(source, cfg, truth: Truth, csv_path: Path):
    def run(rec: Recorder) -> Outcome:
        records, expected = rec.call(
            "simulator.simulate_timestamps", wcp.simulate_timestamps, source, cfg
        )
        rec.count("simulator.pulses", cfg.n_pulses)
        rec.count("simulator.records", len(records))
        rec.call("coincidence.write_timestamps_csv", write_timestamps_csv, csv_path, records)
        del records
        rec.count("coincidence.csv_bytes", os.path.getsize(csv_path))
        records = rec.call("coincidence.read_timestamps_csv", read_timestamps_csv, csv_path)
        binned = rec.call(
            "coincidence.patterns_from_timestamps",
            wcp.patterns_from_timestamps,
            records,
            cfg.rep_period_ps,
            cfg.n_pulses,
        )
        rec.count("coincidence.records_read", len(records))
        rec.count("coincidence.records_discarded", binned.discarded)
        del records
        rec.check(
            "coincidence",
            binned.histogram == expected and binned.discarded == 0,
            f"binned histogram differs from the simulated one ({binned.discarded} discarded)",
        )
        summary = rec.call(
            "coincidence.observed_coincidences", wcp.observed_coincidences, binned.histogram
        )
        return Outcome(cfg.n_pulses, 1, analyse(rec, summary, truth.eta, truth))

    return run


def _sweep_item(grid, eff, pulses, seed):
    truths = [Truth(mu, default_eta(), pulses) for mu in grid]

    def run(rec: Recorder) -> Outcome:
        rows = rec.call(
            "estimation.method_difference_sweep",
            wcp.method_difference_sweep,
            grid,
            eff,
            pulses,
            seed,
        )
        for row, truth in zip(rows, truths):
            rec.check(
                "estimation",
                truth.mu_ok(row.mu_method2),
                f"sweep mu_hat {row.mu_method2!r} at mu {truth.mu!r}",
            )
        return Outcome(pulses * len(grid), 0)

    return run


def simulate(seed: int, workdir: Path, small: bool = False) -> Workload:
    """Histogram sources over a mu grid, two fluctuating sources, a dense and a
    sparse timestamp stream, and one method-difference sweep."""
    key = tag("simulate")
    grid, fluct_mus = ((1e-3, 0.5, 2.0), (0.5,)) if small else (SIM_GRID, SIM_FLUCT_MUS)
    pulses = SIM_PULSES // 4 if small else SIM_PULSES
    eff = default_efficiency_set()
    eta = default_eta()
    items = []
    for mu in grid:
        seed_i = seed_for(seed, key, len(items))
        cfg = wcp.SimConfig(n_pulses=pulses, seed=seed_i, efficiency_set=eff)
        truth = Truth(mu, eta, pulses)
        _require_clear_poissonity(truth)
        items.append(Item(f"mu={mu:g}", _source_item(wcp.SourceModel("S1", mu), cfg, truth)))
    for mu in fluct_mus:
        cycle = -(-pulses // SIM_FLUCT_CYCLES)
        cfg = wcp.SimConfig(
            n_pulses=pulses,
            seed=seed_for(seed, key, len(items)),
            efficiency_set=eff,
            cycle_pulses=cycle,
        )
        source = wcp.SourceModel("S2", mu, fluctuation=wcp.FluctuationModel(slope=FLUCT_SLOPE))
        n_cycles = -(-pulses // cycle)
        truth = Truth(mu, eta, pulses, poisson=False, extra_var=(FLUCT_SLOPE * mu) ** 2 / n_cycles)
        _require_clear_poissonity(truth)
        items.append(Item(f"fluct mu={mu:g}", _source_item(source, cfg, truth)))
    for label, (mu, stream_pulses) in (("dense", DENSE), ("sparse", SPARSE)):
        stream_pulses = stream_pulses // 5 if small else stream_pulses
        cfg = wcp.SimConfig(
            n_pulses=stream_pulses,
            seed=seed_for(seed, key, len(items)),
            efficiency_set=eff,
            rep_period_ps=REP_PERIOD_PS,
            emit_timestamps=True,
        )
        truth = Truth(mu, eta, stream_pulses)
        _require_clear_poissonity(truth)
        stream = _stream_item(wcp.SourceModel("S1", mu), cfg, truth, workdir / f"{label}.csv")
        items.append(Item(f"{label} stream mu={mu:g}", stream))
    sweep_grid = SWEEP_GRID[::2] if small else SWEEP_GRID
    sweep_pulses = SWEEP_PULSES // 2 if small else SWEEP_PULSES
    sweep = _sweep_item(sweep_grid, eff, sweep_pulses, seed_for(seed, key, len(items)))
    items.append(Item("sweep", sweep, source=False))
    return Workload(items)


def _require_clear_poissonity(truth: Truth) -> None:
    if truth.poissonity_borderline():
        raise ValueError(f"input design error: Poissonity sufficiency is borderline for {truth}")


# ---------------------------------------------------------------------------
# analysis-batch

BATCH_SIZE = 32
# The batch's design (mu, eta, N) is the same for every run seed, so the work a
# run measures does not depend on it; the run seed drives the noisy counts.
DESIGN_SEED = 0
BATCH_MU = (1e-4, 2.0)
BATCH_ETA = (0.01, 0.2)
BATCH_PULSES = (1e6, 1e9)
BATCH_MIN_CLICKS = 1000  # expected order-1 counts, so the 5-sigma check is Gaussian
NONUNIFORM_SPREAD = 0.3  # non-uniform arms scatter by up to +-30% around their mean
FLUCT_STUDY_MUS = (0.1, 0.2, 0.5, 1.0)
FLUCT_STUDY_CYCLES = 40
FLUCT_STUDY_PULSES_PER_CYCLE = 100_000
FLUCT_STUDY_SOURCES = {"S1": 0.50, "S2": 0.51, "S3": 0.49, "S4": 0.52}


def _log_uniform(rng, bounds) -> float:
    lo, hi = bounds
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_design(rng, stratum: float) -> tuple[float, tuple[float, ...], int]:
    """(mu, eta, N) for one summary; ``stratum`` in [0, 1) places N on its log scale.

    N is stratified over the batch.  Efficiencies are either equal or
    scattered around their mean, always inside BATCH_ETA.  (mu, eta) is
    redrawn until the design has enough clicks for a Gaussian error and no
    borderline Poissonity decision.
    """
    lo, hi = BATCH_PULSES
    pulses = int(lo * (hi / lo) ** stratum)
    while True:
        mu = _log_uniform(rng, BATCH_MU)
        if rng.random() < 0.5:
            eta = (_log_uniform(rng, BATCH_ETA),) * 4
        else:
            low, high = BATCH_ETA
            bar = _log_uniform(rng, (low / (1 - NONUNIFORM_SPREAD), high / (1 + NONUNIFORM_SPREAD)))
            scatter = rng.uniform(1 - NONUNIFORM_SPREAD, 1 + NONUNIFORM_SPREAD, 4)
            eta = tuple(bar * float(f) for f in scatter)
        truth = Truth(mu, eta, pulses)
        if pulses * truth.orders()[0] >= BATCH_MIN_CLICKS and not truth.poissonity_borderline():
            return mu, eta, pulses


def _summary_item(summary_or_hist, truth: Truth):
    def run(rec: Recorder) -> Outcome:
        summary = summary_or_hist
        if isinstance(summary, wcp.PatternHistogram):
            summary = rec.call(
                "coincidence.observed_coincidences", wcp.observed_coincidences, summary
            )
        return Outcome(truth.n_pulses, 1, analyse(rec, summary, truth.eta, truth))

    return run


def _fluct_study_item(eff, seeds):
    eta_det = default_eta()[0]

    def run(rec: Recorder) -> Outcome:
        series = {}
        for mu, seed in zip(FLUCT_STUDY_MUS, seeds):
            source = wcp.SourceModel("S1", mu, fluctuation=wcp.FluctuationModel(slope=FLUCT_SLOPE))
            cfg = wcp.SimConfig(
                n_pulses=FLUCT_STUDY_PULSES_PER_CYCLE, seed=seed, efficiency_set=eff
            )
            counts = rec.call(
                "simulator.simulate_count_series",
                wcp.simulate_count_series,
                source,
                FLUCT_STUDY_CYCLES,
                FLUCT_STUDY_PULSES_PER_CYCLE,
                cfg,
            )
            series[mu] = counts / (FLUCT_STUDY_PULSES_PER_CYCLE * eta_det)
        fit = rec.call("leakage.fit_fluctuation", wcp.fit_fluctuation, series)
        dists = {
            label: rec.call("leakage.source_distribution_at", wcp.source_distribution_at, fit, mu)
            for label, mu in FLUCT_STUDY_SOURCES.items()
        }
        rec.call("leakage.pairwise_reports", wcp.pairwise_reports, dists)
        return Outcome()

    return run


def analysis_batch(seed: int, workdir: Path, small: bool = False) -> Workload:
    key = tag("analysis-batch")
    items = []
    size = 12 if small else BATCH_SIZE
    for index in range(size):
        design = rng_for(DESIGN_SEED, tag("analysis-batch design"), index)
        mu, eta, pulses = draw_design(design, (index + design.random()) / size)
        if index % 2:
            counts = draw_pattern_counts(rng_for(seed, key, index), mu, eta, pulses)
            data = wcp.PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=pulses)
            truth = Truth(mu, eta, pulses)
        else:
            subsets = subset_probabilities(mu, eta)
            data = wcp.CoincidenceSummary(
                subset_probs=subsets, order_probs=order_probabilities(subsets), total_pulses=pulses
            )
            truth = Truth(mu, eta, pulses, noise_free=True)
        label = "noisy" if index % 2 else "exact"
        items.append(Item(f"{label} mu={mu:.3g}", _summary_item(data, truth)))
    eff = default_efficiency_set()
    seeds = [seed_for(seed, key, len(items), k) for k in range(len(FLUCT_STUDY_MUS))]
    items.append(Item("fluctuation study", _fluct_study_item(eff, seeds), source=False))
    return Workload(items)


# ---------------------------------------------------------------------------
# cli

CLI_SOURCE = (0.5, 20_000)  # (mu, pulses)


def cli_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WCPSTATS_OUTDIR"}
    env["PYTHONPATH"] = str(src)
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], cwd: Path, env) -> int:
    """Run one command to completion and return the peak RSS of that process, in KiB.

    ``os.wait4`` reports the resources of this child alone, so set-up
    processes and earlier steps do not mix into the figure.  A SIGALRM
    bounds the wait without a helper thread.
    """
    with open(cwd / "stderr.txt", "w") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CLI_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        proc.wait()
        raise subprocess.TimeoutExpired(argv, CLI_TIMEOUT_S) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        tail = (cwd / "stderr.txt").read_text()[-500:]
        raise RuntimeError(f"exit code {proc.returncode}: {tail}")
    return usage.ru_maxrss


def _pipeline_item(workdir: Path, env, config: Path, truth: Truth, seed: int):
    n, cfg = str(truth.n_pulses), str(config)

    def run(rec: Recorder) -> Outcome:
        step_s: dict[str, float] = {}
        rss_kb: list[int] = []

        def cli(name: str, *args: str) -> None:
            start = perf_counter()
            argv = [sys.executable, "-m", "wcpstats.cli", *args]
            rss_kb.append(rec.call(f"cli.{name}", run_child, argv, workdir, env))
            step_s[name] = perf_counter() - start

        cli("simulate", "simulate", "--config", cfg, "--mu", repr(truth.mu), "--pulses", n,
            "--seed", str(seed), "--out-histogram", "hist.json", "--out-timestamps", "ts.csv")
        cli("coincidence_histogram", "coincidence", "--histogram", "hist.json",
            "--out", "sum_hist.json")
        cli("coincidence_timestamps", "coincidence", "--timestamps", "ts.csv", "--pulses", n,
            "--out", "sum_ts.json")
        rec.check(
            "cli",
            filecmp.cmp(workdir / "sum_hist.json", workdir / "sum_ts.json", shallow=False),
            "histogram and timestamp routes gave different summaries",
        )
        cli("estimate", "estimate", "--summary", "sum_hist.json", "--config", cfg,
            "--out", "estimate.json")
        cli("bounds", "bounds", "--summary", "sum_hist.json", "--config", cfg, "--out", "bounds.json")
        mu_hat = json.loads((workdir / "estimate.json").read_text())["mu_rigorous"]
        rec.check("cli", truth.mu_ok(mu_hat), f"mu_rigorous {mu_hat!r} too far from mu {truth.mu!r}")
        entries = json.loads((workdir / "bounds.json").read_text())["entries"]
        rec.count("bounds.noisy")
        rec.count(
            "bounds.noisy_sandwiched",
            truth.sandwiched([e["lower"] for e in entries], [e["upper"] for e in entries]),
        )
        return Outcome(truth.n_pulses, 1, step_s["estimate"] + step_s["bounds"], max(rss_kb))

    return run


def cli_pipeline(seed: int, workdir: Path, small: bool = False) -> Workload:
    mu, pulses = CLI_SOURCE
    pulses = pulses // 4 if small else pulses
    (root_t, root_r), (arm_t, arm_r), (refl_t, refl_r) = SPLITTERS
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "geometry": {
            "root": [root_t, root_r],
            "transmitted": [arm_t, arm_r],
            "reflected": [refl_t, refl_r],
        },
        "eta_d": DETECTOR_QE,
    }))
    truth = Truth(mu, default_eta(), pulses)
    _require_clear_poissonity(truth)
    src = Path(wcp.__file__).resolve().parent.parent
    item = _pipeline_item(workdir, cli_env(src), config, truth, seed_for(seed, tag("cli")))
    return Workload([Item(f"pipeline mu={mu:g}", item)], in_children=True)


WORKLOADS = {
    "simulate": simulate,
    "analysis-batch": analysis_batch,
    "cli": cli_pipeline,
}
