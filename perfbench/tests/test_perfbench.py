"""Tests of the benchmark itself: statistics, spans, inputs and one tiny pass per workload.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import harness
import inputs
import workloads
from harness import Recorder, Span, run_timed, self_times, tail
from wcpstats.coincidence import model_subset_probability

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    ("n", "percentile", "rank"),
    [
        (20, 50.0, 10),
        (99, 50.0, 50),
        (100, 90.0, 90),
        (999, 90.0, 900),
        (1000, 99.0, 990),
        (10000, 99.9, 9990),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, rank):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    p, value, count = tail(samples)
    assert (p, value, count) == (percentile, float(rank), n)
    assert sum(x > value for x in samples) >= 10


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert tail([]) == (100.0, 0.0, 0)


def test_upper_quartile_interpolates_within_the_samples():
    assert harness.upper_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 4.0
    assert harness.upper_quartile([1.0, 2.0]) == 1.75
    assert harness.upper_quartile([7.0]) == 7.0
    assert harness.upper_quartile([]) == 0.0


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, "a"),
        Span("child", 1.0, 3.0, 0, "a"),
        Span("overlap", 2.0, 5.0, 0, "a"),
        Span("grandchild", 1.5, 2.5, 1, "a"),
        Span("clipped", 9.0, 12.0, 0, "a"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.0, 3.0, 1.0, 3.0])


def test_recorder_nests_spans_and_counts_failures():
    rec = Recorder(tracing=True)
    with rec.span("bench.item"):
        assert rec.call("leakage.info_leakage", math.sqrt, 4.0) == 2.0
        with pytest.raises(harness.OpFailed):
            rec.call("bounds.photon_number_bounds", math.sqrt, -1.0)
        with pytest.raises(ValueError):
            rec.call("estimation.poissonity_test", math.sqrt, -1.0, expect=ValueError)
        rec.check("estimation", False, "deliberate")
    assert [s.parent for s in rec.spans] == [None, 0, 0, 0]
    assert dict(rec.attempted) == {"leakage": 1, "bounds": 1, "estimation": 1}
    assert dict(rec.failed) == {"bounds": 1, "estimation": 1}


@pytest.mark.parametrize("mu", [1e-4, 1e-2, 0.5, 2.0])
@pytest.mark.parametrize("eta", [(0.01,) * 4, (0.2, 0.15, 0.1, 0.18), inputs.default_eta()])
def test_pattern_law_matches_model_subset_probability(mu, eta):
    probs = inputs.pattern_probabilities(mu, eta)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    for r in range(1, 5):
        for w in combinations((1, 2, 3, 4), r):
            mask = sum(1 << (i - 1) for i in w)
            law = math.fsum(p for index, p in enumerate(probs) if index & mask == mask)
            assert law == pytest.approx(model_subset_probability(mu, eta, w), rel=1e-12)
            exact = inputs.subset_probabilities(mu, eta)[frozenset(w)]
            assert exact == pytest.approx(law, rel=1e-12)


def test_poisson_pn_sums_to_one_and_seeds_are_reproducible():
    for mu in (1e-4, 0.5, 2.0):
        assert math.fsum(inputs.poisson_pn(mu)) == pytest.approx(1.0, abs=1e-15)
    def draw():
        return inputs.draw_pattern_counts(inputs.rng_for(7, 1), 0.5, (0.1,) * 4, 10_000)

    assert draw().sum() == 10_000
    assert np.array_equal(draw(), draw())
    assert inputs.seed_for(7, 1) == inputs.seed_for(7, 1) != inputs.seed_for(8, 1)


def test_truth_rejects_a_wrong_estimate():
    truth = inputs.Truth(0.5, (0.1,) * 4, 1_000_000)
    assert truth.mu_ok(0.5) and not truth.mu_ok(0.5 + 6 * truth.mu_standard_error())
    exact = inputs.Truth(0.5, (0.1,) * 4, 1_000_000, noise_free=True)
    assert exact.mu_ok(0.5 * (1 + 5e-7)) and not exact.mu_ok(0.5 * (1 + 2e-6))


def test_batch_design_is_the_same_for_every_run_seed(tmp_path):
    def labels(seed):
        return [item.name for item in workloads.analysis_batch(seed, tmp_path, small=True).items]

    assert labels(1) == labels(2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_of_each_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path, small=True)
    rec = Recorder()
    passes, items = run_timed(workload, rec, 0.0, trace=name != "cli")
    assert not rec.failed, rec.failures
    assert sum(rec.attempted.values()) > 0
    assert all(sample.outcome is not None for sample in items)
    assert len(passes) == (1 if name == "cli" else 2)
    if name != "cli":
        assert {span.name.split(".")[0] for span in rec.spans} > {"bench"}


def test_run_child_reports_its_own_peak_rss_and_fails_on_a_bad_exit(tmp_path):
    big = [sys.executable, "-c", "b = b'x' * (64 << 20)"]
    assert workloads.run_child(big, tmp_path, None) >= 64 << 10
    with pytest.raises(RuntimeError, match="exit code 3"):
        workloads.run_child([sys.executable, "-c", "raise SystemExit(3)"], tmp_path, None)


def test_run_prints_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "analysis-batch", "--seed", "5",
             "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("results", ".work")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0 and not out.stdout
