"""The benchmark's arithmetic: percentiles, self time, goodput, KV bytes.

Pure functions over plain records, with no import of the program under
test, so ``test_perfbench.py`` can feed them synthetic data.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: A percentile counts as measured only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class Percentile(NamedTuple):
    value: float
    count: int
    valid: bool


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile (linear interpolation between ranks).

    ``valid`` says whether at least :data:`MIN_TAIL_SAMPLES` samples lie
    beyond it, i.e. ``count * (1 - q/100) >= 10``: a p99 needs 1000
    samples, a p90 100 and a median 20.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return Percentile(math.nan, 0, False)
    rank = (count - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, count - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    beyond = count * (100.0 - q) / 100.0
    return Percentile(value, count, beyond >= MIN_TAIL_SAMPLES - 1e-9)


def covered_length(intervals: Iterable[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its duration minus the part of its interval
    that its children cover; overlapping children count once.  The root
    spans have ``parent_index == -1``.
    """
    children: List[List[Tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (start, end, _parent) in enumerate(spans)
    ]


class RequestRecord:
    """What the load generator saw of one request.

    ``start`` is the time the latency clock starts: the due time in an
    open loop, the send time in a closed one.  ``token_times`` holds the
    arrival time of each output token.  ``ok`` is False for a request
    that failed, was refused or returned wrong output.
    """

    __slots__ = ("start", "token_times", "tokens", "ok", "max_new_tokens",
                 "prompt", "seed", "finish_reason")

    def __init__(self, start: float, prompt=None, max_new_tokens: int = 0,
                 seed: int = 0) -> None:
        self.start = start
        self.prompt = prompt
        self.max_new_tokens = max_new_tokens
        self.seed = seed
        self.token_times: List[float] = []
        self.tokens: List[int] = []
        self.ok = True
        self.finish_reason: Optional[str] = None

    @property
    def ttft_s(self) -> Optional[float]:
        return self.token_times[0] - self.start if self.token_times else None

    @property
    def gaps_s(self) -> List[float]:
        times = self.token_times
        return [b - a for a, b in zip(times, times[1:])]

    @property
    def mean_gap_s(self) -> float:
        times = self.token_times
        if len(times) < 2:
            return 0.0
        return (times[-1] - times[0]) / (len(times) - 1)


def goodput(records: Sequence[RequestRecord], ttft_limit_s: float,
            mean_gap_limit_s: float) -> float:
    """Share of sent requests that succeeded within both latency limits.

    A failed or refused request counts as a miss.
    """
    if not records:
        return 0.0
    good = sum(
        1 for r in records
        if r.ok and r.ttft_s is not None and r.ttft_s <= ttft_limit_s
        and r.mean_gap_s <= mean_gap_limit_s
    )
    return good / len(records)


def kv_bytes(cache) -> int:
    """Bytes held by a KV cache: every layer's key and value arrays.

    ``cache`` needs ``n_layers`` and ``layer(i)`` returning an object
    with ``k`` and ``v`` arrays (``repro.serving.DecoderKVCache``).
    A copy that produces ``cache`` writes this many bytes.
    """
    total = 0
    for index in range(cache.n_layers):
        layer = cache.layer(index)
        total += layer.k.nbytes + layer.v.nbytes
    return total


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values``: the lowest and highest
    quarter are dropped, so a stall of a few segments moves it little,
    while it still takes fractional values from every middle segment."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
