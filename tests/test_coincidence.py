"""Tests for click-pattern handling and coincidence analysis."""

import math
from itertools import combinations
from math import comb

import numpy as np
import pytest

from wcpstats.coincidence import (
    CoincidenceSummary,
    PatternHistogram,
    TimestampRecord,
    conditional_coincidence,
    model_subset_probability,
    model_summary,
    observed_coincidences,
    pattern_probabilities,
    patterns_from_timestamps,
    poisson_coincidence_model,
    read_histogram_json,
    read_summary_json,
    read_timestamps_csv,
    subsets_of_order,
    write_histogram_json,
    write_summary_json,
    write_timestamps_csv,
)

from oracles import (
    coincidence_series,
    dark_count_fold,
    poisson_term,
    poisson_order_series,
    routing_order_average,
    routing_order_table,
    routing_pattern_table,
)

TABLE_ETA = (0.1522014, 0.1432106, 0.13574145, 0.1342692)


def _histogram(counts_by_pattern, total):
    counts = [0] * 16
    for pattern, count in counts_by_pattern.items():
        counts[pattern] = count
    counts[0] = total - sum(counts)
    return PatternHistogram(counts=tuple(counts), total_pulses=total)


def _random_eta(rng):
    raw = rng.uniform(0.01, 1.0, size=4)
    return tuple(raw / raw.sum() * rng.uniform(0.2, 0.99))


def test_histogram_validation_and_merge():
    with pytest.raises(ValueError):
        PatternHistogram(counts=(1,) * 16, total_pulses=15)


def test_histogram_requires_sixteen_integer_counts():
    with pytest.raises(ValueError, match="integer pattern counts"):
        PatternHistogram(counts=(1.5,) + (0,) * 15, total_pulses=1)
    with pytest.raises(ValueError, match="integer pattern counts"):
        PatternHistogram.from_dict({"total_pulses": 3, "counts": 3})
    hist = PatternHistogram(counts=np.arange(16), total_pulses=120)
    assert hist.counts == tuple(range(16))


def test_all_silent_and_all_clicking():
    silent = observed_coincidences(_histogram({}, 100))
    assert all(p == 0.0 for p in silent.subset_probs.values())
    assert silent.order_probs == (0.0, 0.0, 0.0, 0.0)

    loud = observed_coincidences(_histogram({15: 100}, 100))
    assert all(p == 1.0 for p in loud.subset_probs.values())
    assert loud.order_probs == (1.0, 1.0, 1.0, 1.0)


def test_hand_worked_order_average():
    # Half the pulses click detectors {1,2}, half click only {1}.
    total = 1000
    hist = _histogram({0b0011: 500, 0b0001: 500}, total)
    summary = observed_coincidences(hist)
    assert summary.subset_probs[frozenset({1})] == 1.0
    assert summary.subset_probs[frozenset({2})] == 0.5
    assert summary.subset_probs[frozenset({1, 2})] == 0.5
    assert summary.order_probs[0] == pytest.approx((1.0 + 0.5) / 4, abs=1e-15)
    assert summary.order_probs[1] == pytest.approx(0.5 / 6, abs=1e-15)
    assert summary.order_probs[2] == 0.0


def test_subset_monotonicity_for_random_histograms():
    rng = np.random.default_rng(7121)
    for _ in range(50):
        counts = rng.integers(0, 1000, size=16)
        hist = PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=int(counts.sum()))
        summary = observed_coincidences(hist)
        for w, p in summary.subset_probs.items():
            for v in summary.subset_probs:
                if v < w:
                    assert p <= summary.subset_probs[v] + 1e-12
        orders = summary.order_probs
        assert all(b <= a + 1e-12 for a, b in zip(orders, orders[1:]))
        for r in (1, 2, 3, 4):
            mean = math.fsum(summary.subset_probs[w] for w in subsets_of_order(r)) / comb(4, r)
            assert summary.order_probs[r - 1] == pytest.approx(mean, abs=1e-12)


def test_summary_validation_rejects_inconsistency():
    summary = model_summary(0.5, TABLE_ETA, 1000)
    broken = dict(summary.subset_probs)
    broken[frozenset({1, 2})] = 1.0  # larger than c_{1}, violates monotonicity
    with pytest.raises(ValueError):
        CoincidenceSummary(
            subset_probs=broken, order_probs=summary.order_probs, total_pulses=1000
        )
    with pytest.raises(ValueError):
        CoincidenceSummary(
            subset_probs=summary.subset_probs,
            order_probs=(0.9, 0.5, 0.1, 0.0),
            total_pulses=1000,
        )
    # Within the consistency tolerance of the all-zero subsets, yet negative.
    silent = observed_coincidences(_histogram({}, 1000))
    with pytest.raises(ValueError, match="out of range"):
        CoincidenceSummary(
            subset_probs=silent.subset_probs,
            order_probs=(0.0, 0.0, 0.0, -1e-13),
            total_pulses=1000,
        )
    with pytest.raises(ValueError, match="need 4 order probabilities"):
        CoincidenceSummary(
            subset_probs=silent.subset_probs, order_probs=(0.0,), total_pulses=1000
        )


def test_observed_coincidences_rejects_empty_run():
    empty = PatternHistogram(counts=(0,) * 16, total_pulses=0)
    with pytest.raises(ValueError):
        observed_coincidences(empty)


def test_no_photons_never_click():
    for r in (1, 2, 3, 4):
        assert conditional_coincidence(0, r, TABLE_ETA) == pytest.approx(0.0, abs=1e-15)


def test_one_photon_single_click_probability():
    eta = (0.1, 0.1, 0.1, 0.1)
    assert conditional_coincidence(1, 1, eta) == pytest.approx(0.1, abs=1e-12)
    # Non-uniform: the order average of one-photon clicks is the mean efficiency.
    assert conditional_coincidence(1, 1, TABLE_ETA) == pytest.approx(
        sum(TABLE_ETA) / 4, abs=1e-12
    )


def test_one_photon_cannot_fire_two_detectors():
    for r in (2, 3, 4):
        assert abs(conditional_coincidence(1, r, TABLE_ETA)) <= 1e-12


def test_conditional_matches_exhaustive_enumeration():
    rng = np.random.default_rng(424242)
    etas = [TABLE_ETA] + [_random_eta(rng) for _ in range(10)]
    for eta in etas:
        for n in range(6):
            for r in (1, 2, 3, 4):
                expected = routing_order_average(n, r, eta)
                assert conditional_coincidence(n, r, eta) == pytest.approx(
                    expected, abs=1e-12
                )


def test_model_zero_mean_gives_zero():
    assert poisson_coincidence_model(0.0, TABLE_ETA) == pytest.approx(
        (0.0, 0.0, 0.0, 0.0), abs=1e-15
    )


def test_model_single_order_uniform_closed_form():
    eta = (0.1, 0.1, 0.1, 0.1)
    for mu in (0.1, 0.5, 1.0, 2.0):
        model = poisson_coincidence_model(mu, eta)
        assert model[0] == pytest.approx(1 - math.exp(-mu * 0.1), abs=1e-12)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.0])
def test_model_matches_truncated_series(mu):
    rng = np.random.default_rng(99)
    for eta in (TABLE_ETA, (0.1, 0.1, 0.1, 0.1), _random_eta(rng)):
        model = poisson_coincidence_model(mu, eta)
        for r in (1, 2, 3, 4):
            series = coincidence_series(mu, r, eta, conditional_coincidence)
            assert model[r - 1] == pytest.approx(series, abs=1e-10)


@pytest.fixture(scope="module")
def table_eta_orders():
    return routing_order_table(TABLE_ETA)


@pytest.fixture(scope="module")
def table_eta_patterns():
    return routing_pattern_table(TABLE_ETA, 40)


def test_routing_table_recursion_matches_enumeration():
    enumerated = routing_pattern_table(TABLE_ETA, 8)
    recursed = routing_pattern_table(TABLE_ETA, 8, n_enumerated=1)
    np.testing.assert_allclose(recursed, enumerated, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 2.0])
def test_model_matches_routing_series_to_relative_precision(mu, table_eta_orders):
    # Vacuum and weak decoy states sit at small mu, where c_4 ~ mu^4: the
    # model must hold its relative precision there, not just 1e-10 absolute.
    expected = poisson_order_series(mu, table_eta_orders)
    model = poisson_coincidence_model(mu, TABLE_ETA)
    for r in (1, 2, 3, 4):
        assert model[r - 1] == pytest.approx(expected[r - 1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dark_rate", [0.0, 1e-3])
@pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 2.0])
def test_pattern_law_matches_routing_series_with_dark_counts(mu, dark_rate, table_eta_patterns):
    # The simulator samples this law, so it must equal the photon-routing
    # series with dark clicks folded in, pattern by pattern.
    photon_law = sum(poisson_term(mu, n) * row for n, row in enumerate(table_eta_patterns))
    expected = dark_count_fold(photon_law, dark_rate)
    law = pattern_probabilities(mu, TABLE_ETA, dark_rate)
    np.testing.assert_allclose(law, expected, rtol=1e-12, atol=0.0)


def test_model_array_rows_match_scalar_calls():
    mus = np.array([0.0, 1e-4, 0.01, 0.5, 2.0, 10.0])
    rows = poisson_coincidence_model(mus, TABLE_ETA)
    assert rows.shape == (mus.size, 4)
    for mu, row in zip(mus, rows):
        assert tuple(row) == poisson_coincidence_model(float(mu), TABLE_ETA)


def test_model_summary_consistent_with_closed_form():
    for mu in (0.05, 0.5, 2.0):
        summary = model_summary(mu, TABLE_ETA, 10**9)
        model = poisson_coincidence_model(mu, TABLE_ETA)
        for r in (1, 2, 3, 4):
            assert summary.order_probs[r - 1] == pytest.approx(model[r - 1], abs=1e-12)
        for w in summary.subset_probs:
            assert summary.subset_probs[w] == pytest.approx(
                model_subset_probability(mu, TABLE_ETA, w), abs=1e-15
            )


def test_empty_stream_bins_to_silence():
    result = patterns_from_timestamps([], rep_period_ps=800_000, n_pulses=100)
    assert result.histogram.counts[0] == 100
    assert result.discarded == 0


def test_two_records_same_period():
    records = [
        TimestampRecord(channel=1, time_ps=100_000),
        TimestampRecord(channel=3, time_ps=200_000),
    ]
    result = patterns_from_timestamps(records, rep_period_ps=800_000, n_pulses=5)
    assert result.histogram.counts[0b0101] == 1
    assert result.histogram.counts[0] == 4


def test_binning_rejects_out_of_range_records():
    records = [
        TimestampRecord(channel=1, time_ps=50),
        TimestampRecord(channel=2, time_ps=900_000),
        TimestampRecord(channel=1, time_ps=10_000_000),
    ]
    result = patterns_from_timestamps(
        records, rep_period_ps=800_000, n_pulses=3, offset_ps=100
    )
    # First record precedes the offset, last lands beyond pulse 2.
    assert result.discarded == 2
    assert result.histogram.counts[0b0010] == 1


def test_binning_window_option():
    records = [TimestampRecord(channel=1, time_ps=700_000)]
    wide = patterns_from_timestamps(records, rep_period_ps=800_000, n_pulses=1)
    assert wide.histogram.counts[1] == 1
    narrow = patterns_from_timestamps(
        records, rep_period_ps=800_000, n_pulses=1, window_ps=500_000
    )
    assert narrow.discarded == 1
    assert narrow.histogram.counts[0] == 1


def test_unsorted_stream_rejected():
    records = [
        TimestampRecord(channel=1, time_ps=10),
        TimestampRecord(channel=1, time_ps=5),
    ]
    with pytest.raises(ValueError):
        patterns_from_timestamps(records, rep_period_ps=100, n_pulses=1)


def test_histogram_json_round_trip(tmp_path):
    hist = _histogram({3: 10, 15: 2}, 50)
    path = tmp_path / "hist.json"
    write_histogram_json(path, hist, meta={"seed": 1})
    assert read_histogram_json(path) == hist


def test_summary_json_round_trip(tmp_path):
    summary = model_summary(0.5, TABLE_ETA, 12345)
    path = tmp_path / "summary.json"
    write_summary_json(path, summary)
    again = read_summary_json(path)
    assert again.total_pulses == summary.total_pulses
    for w, p in summary.subset_probs.items():
        assert again.subset_probs[w] == p


def test_timestamp_csv_round_trip(tmp_path):
    records = [
        TimestampRecord(channel=1, time_ps=100),
        TimestampRecord(channel=4, time_ps=100),
        TimestampRecord(channel=2, time_ps=900),
    ]
    path = tmp_path / "stamps.csv"
    write_timestamps_csv(path, records)
    assert read_timestamps_csv(path) == records
    assert path.read_text().splitlines()[0] == "channel,time_ps"
