"""Coincidence counting with four threshold detectors.

Threshold (on-off) detectors only report whether at least one photon
arrived, so the analysis works on per-pulse click patterns.  This module
turns raw data (patterns or time-tagger records) into subset coincidence
probabilities c_W (all detectors in a subset W click, regardless of the
rest) and their order averages c_r, and evaluates the matching theoretical
model for Poisson pulses in product form.

Conventions
-----------
Detectors are numbered 1..4.  A click pattern is a 4-bit integer with bit
i-1 set when detector i clicked.  Subset probabilities are inclusive:
c_W counts every pulse whose click set contains W.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fileio import read_int_csv, read_json, write_json_atomic, write_text_atomic
from .optics import N_DETECTORS, validate_efficiencies

DETECTORS = tuple(range(1, N_DETECTORS + 1))
N_PATTERNS = 1 << N_DETECTORS
ORDERS = (1, 2, 3, 4)

_CONSISTENCY_TOL = 1e-12

# _PATTERN_BITS[p, i] is set when pattern p has detector i + 1 clicking.
_PATTERN_BITS = ((np.arange(N_PATTERNS)[:, None] >> np.arange(N_DETECTORS)) & 1).astype(bool)

# Subsets of Z_4 grouped by cardinality; order 0 is the empty set.
_SUBSETS_BY_ORDER: tuple[tuple[frozenset[int], ...], ...] = tuple(
    tuple(frozenset(c) for c in combinations(DETECTORS, r)) for r in range(N_DETECTORS + 1)
)
_SUBSETS_PER_ORDER = np.array([comb(N_DETECTORS, r) for r in ORDERS], dtype=np.float64)


def subsets_of_order(r: int) -> tuple[frozenset[int], ...]:
    """All detector subsets of cardinality ``r`` (0 <= r <= 4)."""
    if not 0 <= r <= N_DETECTORS:
        raise ValueError(f"subset order must be in 0..{N_DETECTORS}, got {r}")
    return _SUBSETS_BY_ORDER[r]


def _order_average(subset_probs: Mapping[frozenset[int], float], r: int):
    """c_r: the mean of c_W over the C(4, r) subsets W of size r."""
    return sum(subset_probs[w] for w in subsets_of_order(r)) / comb(N_DETECTORS, r)


@dataclass(frozen=True)
class PatternHistogram:
    """Counts of the 16 click patterns over a run of trigger periods."""

    counts: tuple[int, ...]
    total_pulses: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "counts", tuple(operator.index(c) for c in self.counts))
        except TypeError:
            raise ValueError(f"need {N_PATTERNS} integer pattern counts, got {self.counts!r}") from None
        if len(self.counts) != N_PATTERNS:
            raise ValueError(f"need {N_PATTERNS} pattern counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("pattern counts must be >= 0")
        if sum(self.counts) != self.total_pulses:
            raise ValueError(
                f"pattern counts sum to {sum(self.counts)}, expected {self.total_pulses}"
            )

    def to_dict(self) -> dict:
        return {"total_pulses": self.total_pulses, "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PatternHistogram":
        try:
            return cls(counts=data["counts"], total_pulses=data["total_pulses"])
        except TypeError as exc:
            raise ValueError(f"malformed pattern histogram: {exc}") from None


@dataclass(frozen=True)
class TimestampRecord:
    """One detector event: channel index 1..4 and picoseconds since run start."""

    channel: int
    time_ps: int

    def __post_init__(self) -> None:
        if self.channel not in DETECTORS:
            raise ValueError(f"channel must be in 1..{N_DETECTORS}, got {self.channel!r}")
        if self.time_ps < 0:
            raise ValueError(f"time_ps must be >= 0, got {self.time_ps!r}")


@dataclass(frozen=True)
class BinningResult:
    """Histogram from timestamp binning plus the number of rejected records."""

    histogram: PatternHistogram
    discarded: int


@dataclass(frozen=True)
class CoincidenceSummary:
    """Observed subset and order-averaged coincidence probabilities.

    ``subset_probs`` maps every nonempty subset W of {1..4} to the fraction
    of pulses where all detectors in W clicked (inclusive of extra clicks).
    ``order_probs[r-1]`` is the mean of the subset probabilities over all
    C(4, r) subsets of size r.
    """

    subset_probs: Mapping[frozenset[int], float]
    order_probs: tuple[float, float, float, float]
    total_pulses: int

    def __post_init__(self) -> None:
        if self.total_pulses <= 0:
            raise ValueError(f"total_pulses must be > 0, got {self.total_pulses}")
        expected_keys = {w for r in ORDERS for w in subsets_of_order(r)}
        if set(self.subset_probs) != expected_keys:
            raise ValueError("subset_probs must cover every nonempty detector subset")
        for w, p in self.subset_probs.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability for subset {sorted(w)} out of range: {p!r}")
        if len(self.order_probs) != len(ORDERS):
            raise ValueError(f"need {len(ORDERS)} order probabilities, got {len(self.order_probs)}")
        for k, p in enumerate(self.order_probs):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"order_probs[{k}] out of range: {p!r}")
        # Supersets can only lose pulses: V subset of W implies c_W <= c_V.
        for w, p in self.subset_probs.items():
            for v in self.subset_probs:
                if v < w and p > self.subset_probs[v] + _CONSISTENCY_TOL:
                    raise ValueError(
                        f"monotonicity violated: c_{sorted(w)} > c_{sorted(v)}"
                    )
        for r in ORDERS:
            mean = _order_average(self.subset_probs, r)
            if abs(mean - self.order_probs[r - 1]) > _CONSISTENCY_TOL:
                raise ValueError(f"order_probs[{r - 1}] inconsistent with subset averages")
        for r in (2, 3, 4):
            if self.order_probs[r - 1] > self.order_probs[r - 2] + _CONSISTENCY_TOL:
                raise ValueError("order-averaged probabilities must be non-increasing in r")

    def order_probability(self, r: int) -> float:
        if r not in ORDERS:
            raise ValueError(f"coincidence order must be in 1..4, got {r}")
        return self.order_probs[r - 1]

    def to_dict(self) -> dict:
        subsets = {
            ",".join(str(d) for d in sorted(w)): p for w, p in self.subset_probs.items()
        }
        return {
            "total_pulses": self.total_pulses,
            "subsets": subsets,
            "orders": list(self.order_probs),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CoincidenceSummary":
        try:
            subset_probs = {
                frozenset(int(d) for d in key.split(",")): float(p)
                for key, p in data["subsets"].items()
            }
            order_probs = tuple(float(x) for x in data["orders"])
            total_pulses = int(data["total_pulses"])
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed coincidence summary: {exc}") from None
        return cls(subset_probs=subset_probs, order_probs=order_probs, total_pulses=total_pulses)


def _summary_from_patterns(weights: Sequence, total_pulses: int) -> CoincidenceSummary:
    """Summary of 16 pattern weights (counts or probabilities) over their total."""
    # Superset sums: hits[m] ends up holding the weight of the patterns that
    # contain m, so hits[0] is the total weight.
    hits = list(weights)
    for bit in (1, 2, 4, 8):
        for m in range(N_PATTERNS):
            if not m & bit:
                hits[m] += hits[m | bit]
    subset_probs = {
        w: hits[sum(1 << (i - 1) for i in w)] / hits[0] for r in ORDERS for w in subsets_of_order(r)
    }
    order_probs = tuple(_order_average(subset_probs, r) for r in ORDERS)
    return CoincidenceSummary(subset_probs=subset_probs, order_probs=order_probs, total_pulses=total_pulses)


def observed_coincidences(hist: PatternHistogram) -> CoincidenceSummary:
    """Subset and order-averaged coincidence probabilities of a histogram."""
    if hist.total_pulses <= 0:
        raise ValueError("histogram holds no pulses")
    return _summary_from_patterns(hist.counts, hist.total_pulses)


def patterns_from_timestamps(
    records: Sequence[TimestampRecord],
    rep_period_ps: int,
    n_pulses: int,
    offset_ps: int = 0,
    window_ps: int | None = None,
) -> BinningResult:
    """Bin a time-sorted record stream into per-pulse click patterns.

    Each record is assigned to pulse index floor((time - offset) / period);
    a detector's flag is set when at least one of its records lands in that
    period.  Records before the offset or at/after pulse ``n_pulses`` are
    discarded and counted.  ``window_ps`` optionally narrows the accepted
    intra-period window (default: the full repetition period).
    """
    if rep_period_ps <= 0:
        raise ValueError(f"rep_period_ps must be > 0, got {rep_period_ps}")
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    if window_ps is not None and not 0 < window_ps <= rep_period_ps:
        raise ValueError(f"window_ps must be in (0, rep_period_ps], got {window_ps}")

    channels = np.fromiter((rec.channel for rec in records), dtype=np.int64, count=len(records))
    times = np.fromiter((rec.time_ps for rec in records), dtype=np.int64, count=len(records))
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("timestamp stream must be sorted by time")

    relative = times - int(offset_ps)
    keep = relative >= 0
    pulse_index = np.zeros_like(relative)
    pulse_index[keep] = relative[keep] // rep_period_ps
    keep &= pulse_index < n_pulses
    if window_ps is not None:
        keep &= (relative % rep_period_ps) < window_ps
    discarded = int(times.size - np.count_nonzero(keep))

    patterns = np.zeros(n_pulses, dtype=np.uint8)
    bits = (1 << (channels[keep] - 1)).astype(np.uint8)
    np.bitwise_or.at(patterns, pulse_index[keep], bits)
    counts = np.bincount(patterns, minlength=N_PATTERNS)
    histogram = PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=n_pulses)
    return BinningResult(histogram=histogram, discarded=discarded)


def conditional_coincidence(n: int, r: int, eta: Sequence[float]) -> float:
    """Order-averaged r-fold coincidence probability given an n-photon pulse.

    Inclusion-exclusion over detector subsets: sum over j = 0..r of
    (-1)^j * C(4-j, r-j)/C(4, r) * sum over |W| = j of (1 - sum_{i in W} eta_i)^n.
    """
    eta = validate_efficiencies(eta)
    if n < 0 or int(n) != n:
        raise ValueError(f"photon count must be a non-negative integer, got {n!r}")
    if r not in ORDERS:
        raise ValueError(f"coincidence order must be in 1..4, got {r}")
    n = int(n)
    total = 0.0
    for j in range(r + 1):
        inner = math.fsum(
            (1.0 - math.fsum(eta[i - 1] for i in w)) ** n for w in subsets_of_order(j)
        )
        total += (-1) ** j * comb(N_DETECTORS - j, r - j) / comb(N_DETECTORS, r) * inner
    return total


def click_probabilities(mu, eta: Sequence[float], dark_rate: float = 0.0):
    """Probability that each detector clicks on one Poisson pulse of mean ``mu``.

    Poisson pulses split over passive arms give independent per-detector
    photon numbers Poisson(mu * eta_i), so detector i clicks with
    probability 1 - exp(-mu * eta_i), or by a dark event of probability
    ``dark_rate`` when no photon arrives.  ``mu`` may be a float or an
    array; the result holds one row per detector, shape ``(4,) + mu.shape``.
    """
    eta = validate_efficiencies(eta)
    mu = np.asarray(mu, dtype=np.float64)
    if not np.all(np.isfinite(mu) & (mu >= 0.0)):
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu!r}")
    exponent = -np.multiply.outer(eta, mu)
    probs = -np.expm1(exponent)
    if dark_rate:
        probs += dark_rate * np.exp(exponent)
    return probs


def pattern_probabilities(mu, eta: Sequence[float], dark_rate: float = 0.0):
    """Probability of each of the 16 click patterns; shape ``mu.shape + (16,)``.

    The detectors click independently, so each pattern's probability is a
    product of the four detectors' click or no-click probabilities.
    """
    clicks = np.moveaxis(click_probabilities(mu, eta, dark_rate), 0, -1)[..., None, :]
    return np.where(_PATTERN_BITS, clicks, 1.0 - clicks).prod(axis=-1)


def poisson_coincidence_model(mu, eta: Sequence[float]):
    """Expected order-averaged coincidences c_1..c_4 for a Poisson source.

    c_r = e_r(q) / C(4, r), with e_r the elementary symmetric polynomial of
    the click marginals q, built by a recurrence that adds only positive
    terms.  A float ``mu`` gives a tuple (c_1, c_2, c_3, c_4); an array of
    mu gives an array with one such row per value.
    """
    symmetric = np.zeros((N_DETECTORS + 1,) + np.shape(mu))
    symmetric[0] = 1.0
    for q in click_probabilities(mu, eta):
        symmetric[1:] += symmetric[:-1] * q
    orders = np.moveaxis(symmetric[1:], 0, -1) / _SUBSETS_PER_ORDER
    if orders.ndim == 1:
        return tuple(float(c) for c in orders)
    return orders


def model_subset_probability(mu: float, eta: Sequence[float], subset: Iterable[int]) -> float:
    """Exact probability that every detector in ``subset`` clicks."""
    w = frozenset(subset)
    if not w or not w <= set(DETECTORS):
        raise ValueError(f"subset must be a nonempty subset of {DETECTORS}, got {sorted(w)}")
    return model_summary(mu, eta, 1).subset_probs[w]


def model_summary(mu: float, eta: Sequence[float], total_pulses: int) -> CoincidenceSummary:
    """Noise-free CoincidenceSummary a Poisson source would produce.

    ``total_pulses`` only sizes the variance estimates of downstream
    consumers; the stored probabilities are exact model values.
    """
    return _summary_from_patterns(pattern_probabilities(mu, eta).tolist(), total_pulses)


# ---------------------------------------------------------------------------
# File formats


def write_timestamps_csv(path: str | Path, records: Sequence[TimestampRecord]) -> None:
    """CSV with header ``channel,time_ps``, rows sorted by time ascending."""
    rows = ["channel,time_ps"]
    last = -1
    for rec in records:
        if rec.time_ps < last:
            raise ValueError("records must be sorted by time_ps ascending")
        last = rec.time_ps
        rows.append(f"{rec.channel},{rec.time_ps}")
    write_text_atomic(path, "\n".join(rows) + "\n")


def read_timestamps_csv(path: str | Path) -> list[TimestampRecord]:
    return read_int_csv(path, ("channel", "time_ps"), TimestampRecord)


def write_histogram_json(path: str | Path, hist: PatternHistogram, meta: dict | None = None) -> None:
    payload = hist.to_dict()
    if meta is not None:
        payload["meta"] = meta
    write_json_atomic(path, payload)


def read_histogram_json(path: str | Path) -> PatternHistogram:
    return PatternHistogram.from_dict(read_json(path))


def write_summary_json(path: str | Path, summary: CoincidenceSummary, meta: dict | None = None) -> None:
    payload = summary.to_dict()
    if meta is not None:
        payload["meta"] = meta
    write_json_atomic(path, payload)


def read_summary_json(path: str | Path) -> CoincidenceSummary:
    return CoincidenceSummary.from_dict(read_json(path))
