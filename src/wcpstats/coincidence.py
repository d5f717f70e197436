"""Coincidence counting with four threshold detectors.

Threshold (on-off) detectors only report whether at least one photon
arrived, so the analysis works on per-pulse click patterns.  This module
turns raw data (patterns or time-tagger records) into subset coincidence
probabilities c_W (all detectors in a subset W click, regardless of the
rest) and their order averages c_r, and evaluates the matching theoretical
model for Poisson pulses in product form: c_r is the subset-product mean of
the click marginals, as the bounds' shape factor s_r is of the efficiencies.

Conventions
-----------
Detectors are numbered 1..4.  A click pattern is a 4-bit integer with bit
i-1 set when detector i clicked.  Subset probabilities are inclusive:
c_W counts every pulse whose click set contains W.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import combinations

from .fileio import json_float, json_int, json_keys, read_int_csv, read_json, write_int_csv, write_json_atomic
from .optics import N_DETECTORS, SUBSETS_PER_ORDER, subset_product_means, validate_efficiencies
from .stats import _check_count

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Iterable, Mapping, Sequence

    import numpy as np

DETECTORS = tuple(range(1, N_DETECTORS + 1))
N_PATTERNS = 1 << N_DETECTORS
ORDERS = (1, 2, 3, 4)
# A time-tagger stream is a numpy record array of this dtype, one row per
# click, sorted by time.  A plain spec, so that importing this module loads no numpy.
TIMESTAMP_DTYPE = [("channel", "u1"), ("time_ps", "i8")]
_TIMESTAMP_HEADER = tuple(name for name, _ in TIMESTAMP_DTYPE)
# _PATTERN_BITS[p][i] is True when pattern p has detector i + 1 clicking.
_PATTERN_BITS = tuple(tuple(p >> i & 1 == 1 for i in range(N_DETECTORS)) for p in range(N_PATTERNS))

_CONSISTENCY_TOL = 1e-12

# Subsets of Z_4 grouped by cardinality; order 0 is the empty set.
_SUBSETS_BY_ORDER: tuple[tuple[frozenset[int], ...], ...] = tuple(
    tuple(frozenset(c) for c in combinations(DETECTORS, r)) for r in range(N_DETECTORS + 1)
)
# Every nonempty subset, by size, with its click-pattern mask and its summary-file key.
_SUBSETS: dict[frozenset[int], tuple[int, str]] = {
    w: (sum(1 << (i - 1) for i in w), ",".join(map(str, sorted(w))))
    for r in ORDERS
    for w in _SUBSETS_BY_ORDER[r]
}
_SUBSET_OF_KEY = {key: w for w, (_, key) in _SUBSETS.items()}
# Each pair (V, W) of them with V a proper subset of W.
_NESTED_PAIRS = tuple((v, w) for w in _SUBSETS for v in _SUBSETS if v < w)


def _order_average(subset_probs: Mapping[frozenset[int], float], r: int):
    """c_r: the mean of c_W over the C(4, r) subsets W of size r."""
    return sum(subset_probs[w] for w in _SUBSETS_BY_ORDER[r]) / SUBSETS_PER_ORDER[r - 1]


class PatternHistogram:
    """Counts of the 16 click patterns over a run of trigger periods."""

    __slots__ = ("counts", "total_pulses")

    def __init__(self, counts: Sequence[int], total_pulses: int) -> None:
        try:
            self.counts = tuple(operator.index(c) for c in counts)
        except TypeError:
            raise ValueError(f"need {N_PATTERNS} integer pattern counts, got {counts!r}") from None
        if len(self.counts) != N_PATTERNS:
            raise ValueError(f"need {N_PATTERNS} pattern counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("pattern counts must be >= 0")
        if sum(self.counts) != total_pulses:
            raise ValueError(
                f"pattern counts sum to {sum(self.counts)}, expected {total_pulses}"
            )
        self.total_pulses = total_pulses

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternHistogram):
            return NotImplemented
        return self.counts == other.counts and self.total_pulses == other.total_pulses

    def to_dict(self) -> dict:
        return {"total_pulses": self.total_pulses, "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PatternHistogram":
        counts = data["counts"]
        # Counts that are not a list reach __init__, which rejects them.
        if isinstance(counts, list):
            counts = [json_int(c, "pattern counts entry") for c in counts]
        return cls(counts=counts, total_pulses=json_int(data["total_pulses"], "total_pulses"))


BinningResult = namedtuple("BinningResult", "histogram discarded")
BinningResult.__doc__ = "Histogram from timestamp binning plus the number of rejected records."


class CoincidenceSummary:
    """Observed subset and order-averaged coincidence probabilities.

    ``subset_probs`` maps every nonempty subset W of {1..4} to the fraction
    of pulses where all detectors in W clicked (inclusive of extra clicks).
    ``order_probs[r-1]`` is the mean of the subset probabilities over all
    C(4, r) subsets of size r.
    """

    __slots__ = ("subset_probs", "order_probs", "total_pulses")

    def __init__(
        self, subset_probs: Mapping[frozenset[int], float], order_probs: Sequence[float], total_pulses: int
    ) -> None:
        if total_pulses <= 0:
            raise ValueError(f"total_pulses must be > 0, got {total_pulses}")
        if subset_probs.keys() != _SUBSETS.keys():
            raise ValueError("subset_probs must cover every nonempty detector subset")
        for w, p in subset_probs.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability for subset {sorted(w)} out of range: {p!r}")
        if len(order_probs) != len(ORDERS):
            raise ValueError(f"need {len(ORDERS)} order probabilities, got {len(order_probs)}")
        for k, p in enumerate(order_probs):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"order_probs[{k}] out of range: {p!r}")
        # Supersets can only lose pulses: V subset of W implies c_W <= c_V.
        for v, w in _NESTED_PAIRS:
            if subset_probs[w] > subset_probs[v] + _CONSISTENCY_TOL:
                raise ValueError(f"monotonicity violated: c_{sorted(w)} > c_{sorted(v)}")
        for r in ORDERS:
            mean = _order_average(subset_probs, r)
            if abs(mean - order_probs[r - 1]) > _CONSISTENCY_TOL:
                raise ValueError(f"order_probs[{r - 1}] inconsistent with subset averages")
        for r in (2, 3, 4):
            if order_probs[r - 1] > order_probs[r - 2] + _CONSISTENCY_TOL:
                raise ValueError("order-averaged probabilities must be non-increasing in r")
        self.subset_probs = subset_probs
        self.order_probs = order_probs
        self.total_pulses = total_pulses

    def to_dict(self) -> dict:
        return {
            "total_pulses": self.total_pulses,
            "subsets": {key: self.subset_probs[w] for w, (_, key) in _SUBSETS.items()},
            "orders": list(self.order_probs),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CoincidenceSummary":
        subsets = json_keys(data["subsets"], tuple(_SUBSET_OF_KEY), "subset")
        return cls(
            subset_probs={w: json_float(subsets[key], f"subset {key}") for key, w in _SUBSET_OF_KEY.items()},
            order_probs=tuple(json_float(x, "order probability") for x in data["orders"]),
            total_pulses=json_int(data["total_pulses"], "total_pulses"),
        )


def _summary_from_patterns(weights: Sequence, total_pulses: int) -> CoincidenceSummary:
    """Summary of 16 pattern weights (counts or probabilities) over their total."""
    # Superset sums: hits[m] ends up holding the weight of the patterns that
    # contain m, so hits[0] is the total weight.
    hits = list(weights)
    for bit in (1, 2, 4, 8):
        for m in range(N_PATTERNS):
            if not m & bit:
                hits[m] += hits[m | bit]
    subset_probs = {w: hits[mask] / hits[0] for w, (mask, _) in _SUBSETS.items()}
    order_probs = tuple(_order_average(subset_probs, r) for r in ORDERS)
    return CoincidenceSummary(subset_probs=subset_probs, order_probs=order_probs, total_pulses=total_pulses)


def observed_coincidences(hist: PatternHistogram) -> CoincidenceSummary:
    """Subset and order-averaged coincidence probabilities of a histogram."""
    if hist.total_pulses <= 0:
        raise ValueError("histogram holds no pulses")
    return _summary_from_patterns(hist.counts, hist.total_pulses)


def _check_stream(channels: np.ndarray, times: np.ndarray) -> None:
    """Reject a channel outside 1..4, or times that are negative or out of order."""
    import numpy as np

    bad = (channels < 1) | (channels > N_DETECTORS)
    if bad.any():
        raise ValueError(f"channel must be in 1..{N_DETECTORS}, got {channels[bad][0]}")
    # Compared, not subtracted: a difference of two int64 times can wrap.
    if np.any(times < 0) or np.any(times[1:] < times[:-1]):
        raise ValueError("time_ps must be >= 0 and sorted ascending")


def patterns_from_timestamps(
    records: np.ndarray,
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
    intra-period window (default: the full repetition period).  Memory
    scales with the number of records, not with ``n_pulses``.
    """
    import numpy as np

    if not 0 < rep_period_ps < 2**63:
        raise ValueError(f"rep_period_ps must be > 0 and fit in int64, got {rep_period_ps}")
    if not -(2**63) <= offset_ps < 2**63:
        raise ValueError(f"offset_ps must fit in int64, got {offset_ps}")
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    if window_ps is not None and not 0 < window_ps <= rep_period_ps:
        raise ValueError(f"window_ps must be in (0, rep_period_ps], got {window_ps}")

    channels, times = records["channel"], records["time_ps"]
    _check_stream(channels, times)

    # The offset's whole periods are compared, not subtracted, so no int64 overflows.
    quotient, remainder = divmod(int(offset_ps), rep_period_ps)
    shifted = times - remainder
    period = shifted // rep_period_ps
    keep = (period >= quotient) & (period < quotient + n_pulses)
    if window_ps is not None:
        keep &= (shifted % rep_period_ps) < window_ps
    discarded = int(times.size - np.count_nonzero(keep))

    # The kept records are sorted, so each occupied period is one run of them.
    kept = period[keep]
    starts = np.flatnonzero(np.diff(kept, prepend=kept[:1] - 1))
    patterns = np.bitwise_or.reduceat(1 << (channels[keep] - 1), starts)
    return BinningResult(histogram=histogram_of_clicks(patterns, n_pulses), discarded=discarded)


def histogram_of_clicks(patterns: np.ndarray, n_pulses: int) -> PatternHistogram:
    """Histogram of ``n_pulses`` periods, of which those in ``patterns`` click; the rest are silent."""
    import numpy as np

    counts = np.bincount(patterns, minlength=N_PATTERNS).tolist()
    counts[0] += n_pulses - len(patterns)
    return PatternHistogram(counts=counts, total_pulses=n_pulses)


def timestamps_from_clicks(pulses: np.ndarray, patterns: np.ndarray, rep_period_ps: int) -> np.ndarray:
    """Record stream of the ascending clicking pulses: one record per click, at pulse * period + period // 8."""
    import numpy as np

    # Row-major click indices: clicking pulse = click // 4, detector = click % 4, sorted by pulse.
    clicks = np.flatnonzero(np.array(_PATTERN_BITS).take(patterns, axis=0))
    times = pulses[clicks >> 2] * rep_period_ps + rep_period_ps // 8
    return np.rec.fromarrays([(clicks & 3) + 1, times], dtype=TIMESTAMP_DTYPE)


def conditional_coincidence(n: int, r: int, eta: Sequence[float]) -> float:
    """Order-averaged r-fold coincidence probability given an n-photon pulse.

    Photons are routed one at a time over the 16 click patterns, each to
    detector i with probability eta_i or lost.  Only positive terms are
    added, so small probabilities keep their relative precision.
    """
    eta = validate_efficiencies(eta)
    n = _check_count(n)
    if r not in ORDERS:
        raise ValueError(f"coincidence order must be in 1..4, got {r}")
    lost = 1.0 - math.fsum(eta)
    weights = [1.0] + [0.0] * (N_PATTERNS - 1)
    for _ in range(n):
        routed = [lost * w for w in weights]
        for i, e in enumerate(eta):
            for m, w in enumerate(weights):
                routed[m | 1 << i] += e * w
        weights = routed
    return _summary_from_patterns(weights, 1).order_probs[r - 1]


def click_probabilities(mu, eta: Sequence[float], dark_rate: float = 0.0):
    """Probability that each detector clicks on one Poisson pulse of mean ``mu``.

    Poisson pulses split over passive arms give independent per-detector
    photon numbers Poisson(mu * eta_i), so detector i clicks with
    probability 1 - exp(-mu * eta_i), or by a dark event of probability
    ``dark_rate`` when no photon arrives.  ``mu`` may be a float or an
    array; the result holds one row per detector, shape ``(4,) + mu.shape``.
    """
    import numpy as np

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
    import numpy as np

    clicks = np.moveaxis(click_probabilities(mu, eta, dark_rate), 0, -1)[..., None, :]
    return np.where(_PATTERN_BITS, clicks, 1.0 - clicks).prod(axis=-1)


def poisson_coincidence_model(mu: float, eta: Sequence[float]) -> tuple[float, float, float, float]:
    """Expected order-averaged coincidences (c_1, c_2, c_3, c_4) for a Poisson source.

    c_r = e_r(q) / C(4, r), the subset-product mean of the click marginals
    q_i = 1 - exp(-mu * eta_i).  ``eta`` is taken as already validated
    (see :func:`optics.validate_efficiencies`); the estimator calls this
    once per point of its scan.
    """
    a, b, c, d = eta
    x, expm1 = -mu, math.expm1
    return subset_product_means((-expm1(x * a), -expm1(x * b), -expm1(x * c), -expm1(x * d)))


def model_subset_probability(mu: float, eta: Sequence[float], subset: Iterable[int]) -> float:
    """Exact probability that every detector in ``subset`` clicks."""
    w = frozenset(subset)
    if w not in _SUBSETS:
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


def write_timestamps_csv(path: str | Path, records: np.ndarray) -> None:
    """CSV with header ``channel,time_ps``, rows sorted by time ascending."""
    import numpy as np

    _check_stream(records["channel"], records["time_ps"])
    write_int_csv(path, _TIMESTAMP_HEADER, np.column_stack((records["channel"], records["time_ps"])))


def read_timestamps_csv(path: str | Path) -> np.ndarray:
    """A timestamp CSV as a record stream; a bad row's error names its line."""
    import numpy as np

    table = read_int_csv(path, _TIMESTAMP_HEADER, _check_stream)
    return np.rec.fromarrays(table.T, dtype=TIMESTAMP_DTYPE)


def write_histogram_json(path: str | Path, hist: PatternHistogram, meta: dict) -> None:
    write_json_atomic(path, {**hist.to_dict(), "meta": meta})


def read_histogram_json(path: str | Path) -> PatternHistogram:
    return read_json(path, PatternHistogram.from_dict, "pattern histogram")


def write_summary_json(path: str | Path, summary: CoincidenceSummary) -> None:
    write_json_atomic(path, summary.to_dict())


def read_summary_json(path: str | Path) -> CoincidenceSummary:
    return read_json(path, CoincidenceSummary.from_dict, "coincidence summary")
