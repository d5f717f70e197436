"""Tests for click-pattern handling and coincidence analysis."""

import math
import re
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from wcpstats.coincidence import (
    CoincidenceSummary,
    PatternHistogram,
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
    write_histogram_json,
    write_summary_json,
    write_timestamps_csv,
)

from wcpstats.fileio import _BLOCK_LINES

from oracles import (
    bin_records,
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


def _stream(*rows):
    """Record stream of (channel, time_ps) rows."""
    channels, times = zip(*rows) if rows else ((), ())
    return np.rec.fromarrays(
        [np.array(channels, np.uint8), np.array(times, np.int64)], names="channel,time_ps"
    )


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
            mean = math.fsum(summary.subset_probs[frozenset(w)] for w in combinations((1, 2, 3, 4), r)) / comb(4, r)
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


def test_summary_validation_checks_every_nested_pair():
    # No one-detector step exceeds the tolerance, but c_{1,2,3} exceeds c_{1} by 1.8e-12.
    p, step = 0.5, 0.9e-12
    raised = {frozenset({1, 2}): p + step, frozenset({1, 3}): p + step, frozenset({2, 3}): p + step,
              frozenset({1, 2, 3}): p + 2 * step}
    by_order = {r: [frozenset(w) for w in combinations((1, 2, 3, 4), r)] for r in (1, 2, 3, 4)}
    subset_probs = {w: raised.get(w, p) for r in (1, 2, 3, 4) for w in by_order[r]}
    order_probs = tuple(math.fsum(subset_probs[w] for w in by_order[r]) / comb(4, r) for r in (1, 2, 3, 4))
    with pytest.raises(ValueError, match="monotonicity violated"):
        CoincidenceSummary(subset_probs=subset_probs, order_probs=order_probs, total_pulses=1000)


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


@pytest.mark.parametrize(
    "eta",
    [(1e-2,) * 4, (1e-3,) * 4, (1e-4,) * 4, (0.05, 1e-2, 1e-3, 1e-4)],
    ids=["uniform-1e-2", "uniform-1e-3", "uniform-1e-4", "skewed"],
)
def test_conditional_keeps_relative_precision_at_small_eta(eta):
    # An n-fold coincidence scales like eta^n, so a cancelling sum of O(1)
    # terms loses its relative precision as eta falls.
    for n in range(7):
        for r in (1, 2, 3, 4):
            expected = routing_order_average(n, r, eta)
            assert conditional_coincidence(n, r, eta) == pytest.approx(expected, rel=1e-12, abs=0)


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
    result = patterns_from_timestamps(_stream(), rep_period_ps=800_000, n_pulses=100)
    assert result.histogram.counts[0] == 100
    assert result.discarded == 0


def test_two_records_same_period():
    records = _stream((1, 100_000), (3, 200_000))
    result = patterns_from_timestamps(records, rep_period_ps=800_000, n_pulses=5)
    assert result.histogram.counts[0b0101] == 1
    assert result.histogram.counts[0] == 4


def test_binning_rejects_out_of_range_records():
    records = _stream((1, 50), (2, 900_000), (1, 10_000_000))
    result = patterns_from_timestamps(
        records, rep_period_ps=800_000, n_pulses=3, offset_ps=100
    )
    # First record precedes the offset, last lands beyond pulse 2.
    assert result.discarded == 2
    assert result.histogram.counts[0b0010] == 1


def test_binning_window_option():
    records = _stream((1, 700_000))
    wide = patterns_from_timestamps(records, rep_period_ps=800_000, n_pulses=1)
    assert wide.histogram.counts[1] == 1
    narrow = patterns_from_timestamps(
        records, rep_period_ps=800_000, n_pulses=1, window_ps=500_000
    )
    assert narrow.discarded == 1
    assert narrow.histogram.counts[0] == 1


def test_unsorted_stream_rejected():
    records = _stream((1, 10), (1, 5))
    with pytest.raises(ValueError):
        patterns_from_timestamps(records, rep_period_ps=100, n_pulses=1)


@pytest.mark.parametrize("channel", [0, 5, 9])
def test_binning_rejects_out_of_range_channel(channel):
    with pytest.raises(ValueError, match="channel must be in 1..4"):
        patterns_from_timestamps(_stream((1, 10), (channel, 20)), rep_period_ps=100, n_pulses=1)


def _random_stream(rng, n_records, span_ps):
    times = np.sort(rng.integers(0, span_ps, size=n_records))
    # Repeat some times so several records share a period and even a time.
    times[1::3] = times[0:-1:3][: len(times[1::3])]
    return _stream(*zip(rng.integers(1, 5, size=n_records).tolist(), times.tolist()))


@pytest.mark.parametrize("seed, n_records", [(0, 0), (1, 1), (2, 40), (3, 40), (4, 400), (5, 400)])
def test_binning_matches_record_loop_oracle(seed, n_records):
    rng = np.random.default_rng([47, seed])
    period = int(rng.integers(50, 1_000))
    n_pulses = int(rng.integers(1, 200))
    # Records run from before the offset to past the last pulse.
    records = _random_stream(rng, n_records, (n_pulses + 20) * period)
    for offset_ps in (0, int(rng.integers(1, 10 * period))):
        for window_ps in (None, period, int(rng.integers(1, period)), 1):
            result = patterns_from_timestamps(records, period, n_pulses, offset_ps, window_ps)
            counts, discarded = bin_records(records, period, n_pulses, offset_ps, window_ps)
            assert list(result.histogram.counts) == counts
            assert result.discarded == discarded


@pytest.mark.parametrize("offset_ps", [-(2**63), -(2**63) + 1, 2**63 - 1])
def test_binning_offset_at_int64_limits_matches_oracle(offset_ps):
    # time - offset exceeds int64 here; the binning must not wrap around.
    records = _stream((1, 100), (2, 300), (3, 2**62), (4, 2**63 - 1))
    for n_pulses in (10, 2 * 10**13, 10**20):
        result = patterns_from_timestamps(records, 800_000, n_pulses, offset_ps)
        counts, discarded = bin_records(records, 800_000, n_pulses, offset_ps)
        assert list(result.histogram.counts) == counts
        assert result.discarded == discarded


def test_binning_memory_does_not_scale_with_pulses():
    records = _stream((1, 100), (4, 5 * 10**17), (3, 8 * 10**17 + 5))
    result = patterns_from_timestamps(records, rep_period_ps=800_000, n_pulses=10**12)
    occupied = 2  # periods 0 and 625_000_000_000
    assert result.histogram.counts[0] == 10**12 - occupied
    assert result.histogram.counts[0b0001] == 1 and result.histogram.counts[0b1000] == 1
    assert result.discarded == 1  # 8e17 ps is period 1e12, one past the last pulse


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
    records = _stream((1, 100), (4, 100), (2, 900))
    path = tmp_path / "stamps.csv"
    write_timestamps_csv(path, records)
    assert np.array_equal(read_timestamps_csv(path), records)
    assert path.read_text().splitlines()[0] == "channel,time_ps"


def test_timestamp_csv_bytes_match_per_row_formatting(tmp_path):
    rng = np.random.default_rng(23)
    times = np.sort(rng.integers(0, 2**62, 2_000))
    times[0], times[-1] = 0, 2**62 - 1
    records = np.rec.fromarrays([rng.integers(1, 5, times.size).astype(np.uint8), times], names="channel,time_ps")
    path = tmp_path / "stamps.csv"
    for stream in (records, records[:0]):
        write_timestamps_csv(path, stream)
        rows = [f"{c},{t}" for c, t in zip(stream["channel"].tolist(), stream["time_ps"].tolist())]
        assert path.read_bytes() == ("\n".join(["channel,time_ps", *rows]) + "\n").encode()


def test_timestamp_csv_read_peaks_at_a_small_multiple_of_the_stream(tmp_path):
    rng = np.random.default_rng(29)
    times = np.sort(rng.integers(0, 10**11, 27_000))
    records = np.rec.fromarrays([rng.integers(1, 5, times.size).astype(np.uint8), times], names="channel,time_ps")
    path = tmp_path / "stamps.csv"
    write_timestamps_csv(path, records)
    tracemalloc.start()
    try:
        read = read_timestamps_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read, records)
    assert peak <= 5 * read.nbytes


@pytest.mark.parametrize(
    "line, row",
    [(_BLOCK_LINES + 2, "2,x"), (_BLOCK_LINES + 1, "9,{time}"), (_BLOCK_LINES + 2, "3,0")],
    ids=["bad-first-line-of-block", "bad-last-line-of-block", "order-break-across-blocks"],
)
def test_timestamp_csv_error_names_the_line_across_blocks(tmp_path, line, row):
    # Line 1 is the header, so block k holds lines 2 + k * B .. 1 + (k + 1) * B.
    rows = [f"1,{10 * number}" for number in range(2, 2 * _BLOCK_LINES + 2)]
    rows[line - 2] = row.format(time=10 * line)
    path = tmp_path / "stamps.csv"
    path.write_text("channel,time_ps\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: ")):
        read_timestamps_csv(path)


@pytest.mark.parametrize("body", ["", "\n\n\n"], ids=["header-only", "blank-only"])
def test_timestamp_csv_without_rows_reads_as_empty_stream(tmp_path, body):
    path = tmp_path / "stamps.csv"
    path.write_text("channel,time_ps\n" + body)
    records = read_timestamps_csv(path)
    assert len(records) == 0
    assert records.dtype.names == ("channel", "time_ps")
