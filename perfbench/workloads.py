"""The benchmark's workloads: traffic, load loops and output checks.

Every workload drives the program through its public serving API only:
the ``Engine`` protocol (``submit``/``step``/``has_work``/``result``/
``stream``/``close``), ``start_http_server`` and ``ClusterEngine``.
Traffic comes from a ``numpy`` generator seeded by the run's ``--seed``;
the model weights are fixed (seed 0), so the seed varies inputs only.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from loadgen import load_record, sse_generate, stratified_schedule
from stats import RequestRecord, interquartile_mean

from repro.models import ModelConfig, build_butterfly_decoder
from repro.serving import SamplingParams, ServingEngine
from repro.serving.cluster import ClusterEngine
from repro.serving.scheduler import FINISH_LENGTH
from repro.serving.server import start_http_server

clock = time.perf_counter

#: Requests re-served alone after the timed phase, compared token for
#: token with what they produced inside a batch.
RESERVE_SAMPLE = 3

#: Output tokens of each warm-up request: a prefill and one decode step.
WARM_UP_TOKENS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Phase:
    """Records and wall time of one measured phase.

    ``segment_rates`` holds the output tokens per second of each closed
    batch of a phase, so that ``tok_s`` is their interquartile mean and a
    stall of a few seconds on a shared machine moves it little.
    """

    def __init__(self, records: List[RequestRecord], wall_s: float,
                 lag_s: Sequence[float] = (),
                 segment_rates: Sequence[float] = ()) -> None:
        self.records = records
        self.wall_s = wall_s
        self.lag_s = list(lag_s)
        self.segment_rates = list(segment_rates)

    @classmethod
    def merge(cls, phases: Sequence["Phase"]) -> "Phase":
        """One phase made of several measured one after another."""
        return cls([r for p in phases for r in p.records],
                   sum(p.wall_s for p in phases),
                   [lag for p in phases for lag in p.lag_s],
                   [rate for p in phases for rate in p.segment_rates])

    @property
    def output_tokens(self) -> int:
        return sum(len(r.tokens) for r in self.records)

    @property
    def tok_s(self) -> float:
        """Interquartile mean of the segment rates if segmented, else
        tokens over wall time."""
        if self.segment_rates:
            return interquartile_mean(self.segment_rates)
        return self.output_tokens / self.wall_s


def _check_length(record: RequestRecord) -> None:
    """A request must return exactly its budget, ending on ``length``."""
    if (record.finish_reason != FINISH_LENGTH
            or len(record.tokens) != record.max_new_tokens):
        record.ok = False


# ----------------------------------------------------------------------
# In-process driving through the Engine protocol
# ----------------------------------------------------------------------
class _Live:
    """Requests in flight on an engine, keyed by request id."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.records: Dict[int, RequestRecord] = {}

    def submit(self, record: RequestRecord) -> None:
        handle = self.engine.submit(record.prompt, SamplingParams(
            max_new_tokens=record.max_new_tokens, seed=record.seed))
        self.records[int(handle)] = record

    def collect(self, now: float) -> None:
        """Timestamp every token that appeared since the last call."""
        for request_id, record in list(self.records.items()):
            result = self.engine.result(request_id)
            tokens = result.tokens
            while len(record.tokens) < len(tokens):
                record.tokens.append(int(tokens[len(record.tokens)]))
                record.token_times.append(now)
            if result.finished:
                record.finish_reason = result.finish_reason
                _check_length(record)
                del self.records[request_id]

    def step(self) -> None:
        self.engine.step()
        self.collect(clock())

    def drain(self) -> None:
        while self.engine.has_work:
            self.step()
        self.collect(clock())


def reserve_in_process(engine, records: Sequence[RequestRecord]) -> int:
    """Re-serve a fixed sample alone, marking each request whose tokens
    differ as failed; returns the number of requests re-served."""
    sample = records[:RESERVE_SAMPLE]
    for record in sample:
        handle = engine.submit(record.prompt, SamplingParams(
            max_new_tokens=record.max_new_tokens, seed=record.seed))
        alone = [int(t) for t in engine.stream(handle)]
        if alone != record.tokens:
            record.ok = False
    return len(sample)


class InProcess:
    """An in-process ``ServingEngine`` behind the ``Engine`` protocol."""

    spawn_s = 0.0

    def __init__(self, config: ModelConfig, max_batch_size: int,
                 quantize: Optional[str] = None) -> None:
        model = build_butterfly_decoder(config).eval()
        self.vocab = config.vocab_size
        self.engine = ServingEngine(model, max_batch_size=max_batch_size,
                                    seed=0, quantize=quantize)

    def warm_up(self, prompt_lens: Sequence[int]) -> None:
        """Prefill each prompt length and decode once, untimed, so plan
        and bias caches are filled before timing."""
        live = _Live(self.engine)
        rng = np.random.default_rng(0)
        for prompt_len in prompt_lens:
            live.submit(RequestRecord(
                clock(), rng.integers(1, self.vocab, prompt_len),
                WARM_UP_TOKENS, seed=0))
        live.drain()

    def reserve(self, records: Sequence[RequestRecord]) -> int:
        return reserve_in_process(self.engine, records)

    def worker_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# decode_offline: closed batches of 8 on both precision tiers
# ----------------------------------------------------------------------
DECODE_CONFIG = ModelConfig(d_hidden=256, r_ffn=4, n_total=2, max_len=256,
                            seed=0)
DECODE_BATCH = 8
DECODE_PROMPT = 16
DECODE_NEW_TOKENS = (88, 104)  # about 96, so rows finish at different steps
#: The precision tiers each batch is served on, in order.
DECODE_TIERS = (None, "int8")


class Tiers:
    """The full-precision engine and its ``quantize="int8"`` replica."""

    spawn_s = 0.0

    def __init__(self) -> None:
        self.systems: List[InProcess] = []
        try:
            for quantize in DECODE_TIERS:
                system = InProcess(DECODE_CONFIG, DECODE_BATCH,
                                   quantize=quantize)
                self.systems.append(system)
                system.warm_up([DECODE_PROMPT] * DECODE_BATCH)
        except BaseException:
            self.close()
            raise
        self.vocab = DECODE_CONFIG.vocab_size

    def reserve(self, records: Sequence[RequestRecord]) -> int:
        """Re-serve the first requests alone on the tier that served them
        in their batch."""
        return sum(reserve_in_process(system.engine, records[tier::len(
            self.systems)]) for tier, system in enumerate(self.systems))

    def worker_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        for system in self.systems:
            system.close()


def decode_measure(system: Tiers, rng: np.random.Generator,
                   seconds: float) -> Phase:
    """Closed batches: each round submits 8 requests at t=0 and drains,
    on the full-precision engine and then the same 8 on the int8 one.

    Rounds repeat until ``seconds`` have passed; the last round always
    completes, so every run measures whole rounds.  Records interleave
    the tiers request by request: record ``2 * i + tier``.
    """
    records: List[RequestRecord] = []
    rates: List[float] = []
    wall = 0.0
    while wall < seconds:
        requests = [(rng.integers(1, system.vocab, DECODE_PROMPT),
                     int(rng.integers(DECODE_NEW_TOKENS[0],
                                      DECODE_NEW_TOKENS[1] + 1)),
                     int(rng.integers(2**31)))
                    for _ in range(DECODE_BATCH)]
        batches = []
        for tier in system.systems:
            live = _Live(tier.engine)
            started = clock()
            batch = [RequestRecord(started, *request) for request in requests]
            for record in batch:
                live.submit(record)
            live.drain()
            elapsed = clock() - started
            wall += elapsed
            rates.append(sum(len(r.tokens) for r in batch) / elapsed)
            batches.append(batch)
        records.extend(r for pair in zip(*batches) for r in pair)
    return Phase(records, wall, segment_rates=rates)


# ----------------------------------------------------------------------
# serve_open_loop: Poisson arrivals submitted between steps
# ----------------------------------------------------------------------
OPEN_LOOP_CONFIG = ModelConfig(d_hidden=64, max_len=256, seed=0)
OPEN_LOOP_BATCH = 8
OPEN_LOOP_MIX = ((16, 48), (64, 32), (160, 16))
#: About a quarter of the measured capacity (~25 req/s on a 2-core Xeon):
#: at half capacity a few percent of host slowdown grew the queue enough
#: to move itl_p50_ms by a quarter between two sets of runs.
OPEN_LOOP_RATE = 6


def open_loop_setup() -> InProcess:
    system = InProcess(OPEN_LOOP_CONFIG, OPEN_LOOP_BATCH)
    system.warm_up([prompt_len for prompt_len, _ in OPEN_LOOP_MIX])
    return system


def open_loop_measure(system: InProcess, rng: np.random.Generator,
                      seconds: float) -> Phase:
    """One thread: submit each due arrival, then step the engine once.

    Latency is timed from each request's due time, so a long step delays
    the clock of every request that fell due during it; the lag between
    due and submit time is recorded as the generator's own lateness.
    """
    schedule = stratified_schedule(rng, OPEN_LOOP_RATE, seconds,
                                   system.vocab, OPEN_LOOP_MIX)
    live = _Live(system.engine)
    records: List[RequestRecord] = []
    lag: List[float] = []
    started = clock()
    index = 0
    while index < len(schedule) or system.engine.has_work:
        now = clock()
        while index < len(schedule) and started + schedule[index][0] <= now:
            offset, prompt, new_tokens, seed = schedule[index]
            record = RequestRecord(started + offset, prompt, new_tokens, seed)
            records.append(record)
            live.submit(record)
            lag.append(clock() - record.start)
            index += 1
        if system.engine.has_work:
            live.step()
        elif index < len(schedule):
            time.sleep(max(0.0, started + schedule[index][0] - clock()))
    live.collect(clock())
    return Phase(records, clock() - started, lag)


# ----------------------------------------------------------------------
# http_cluster: open-loop SSE requests over real sockets
# ----------------------------------------------------------------------
HTTP_CONFIG = ModelConfig(vocab_size=28, n_classes=2, max_len=64,
                          d_hidden=32, n_heads=4, r_ffn=2, n_total=2, seed=0)
HTTP_BATCH = 4
HTTP_MIX = ((8, 8), (16, 16), (32, 24))
#: A fifth of what two back-to-back clients get served (~30 req/s on a
#: 2-core Xeon), so that few requests wait for one of the nproc
#: connections and ttft_p90_ms stays clear of that wait.
HTTP_RATE = 6
BOOT_TIMEOUT_S = 60.0
#: How long the load generator may run past its measured seconds.
LOADGEN_GRACE_S = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


class ClusterOverHTTP:
    """A 1-worker ``ClusterEngine`` (default spawn start) behind
    ``start_http_server`` with the CLI's default tiny model, as
    ``repro serve --http PORT --workers 1`` builds it."""

    def __init__(self) -> None:
        model = build_butterfly_decoder(HTTP_CONFIG).eval()
        self.vocab = HTTP_CONFIG.vocab_size
        self.server = None
        started = clock()
        self.engine = ClusterEngine(model, workers=1,
                                    max_batch_size=HTTP_BATCH, seed=0)
        try:
            while not all(w["booted"] for w in self.engine
                          .metrics_snapshot()["workers"].values()):
                if clock() - started > BOOT_TIMEOUT_S:
                    raise RuntimeError("cluster worker did not boot")
                self.engine.step()
                time.sleep(0.002)
            self.spawn_s = clock() - started
            self.server = start_http_server(self.engine)
            self.address = (self.server.host, self.server.port)
            rng = np.random.default_rng(0)
            self._serve([RequestRecord(0.0, rng.integers(1, self.vocab, p),
                                       WARM_UP_TOKENS, 0)
                         for p, _ in HTTP_MIX])
        except BaseException:
            self.close()
            raise

    def _serve(self, records: Sequence[RequestRecord]) -> None:
        """Serve ``records`` one at a time from this process."""
        async def one_by_one():
            for record in records:
                record.start = clock()
                await sse_generate(*self.address, record)
                _check_length(record)
        asyncio.run(one_by_one())

    def reserve(self, records: Sequence[RequestRecord]) -> int:
        """Re-serve a fixed sample alone over HTTP, marking each request
        whose tokens differ as failed; returns the number re-served."""
        sample = [RequestRecord(0.0, r.prompt, r.max_new_tokens, r.seed)
                  for r in records[:RESERVE_SAMPLE]]
        self._serve(sample)
        for original, alone in zip(records, sample):
            if not alone.ok or alone.tokens != original.tokens:
                original.ok = False
        return len(sample)

    def worker_rss_mb(self) -> float:
        """Peak RSS of the cluster's live workers."""
        return sum(peak_rss_kb(pid) for pid in self.engine.worker_pids()
                   .values() if pid is not None) / 1024.0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.engine.close()


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def http_measure(system: ClusterOverHTTP, rng: np.random.Generator,
                 seconds: float) -> Phase:
    """Open-loop SSE traffic from a load generator process.

    ``perfbench/loadgen.py`` sends ``HTTP_RATE`` requests a second over
    at most ``nproc`` connections, apart from the server's process; its
    schedule comes from a seed drawn from ``rng``.  Latency is timed from
    each request's due time.
    """
    params = {"host": system.address[0], "port": system.address[1],
              "seed": int(rng.integers(2**63)), "seconds": seconds,
              "rate": HTTP_RATE, "connections": nproc(),
              "vocab": system.vocab, "mix": HTTP_MIX}
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "loadgen.py")],
        input=json.dumps(params), capture_output=True, text=True,
        timeout=seconds + LOADGEN_GRACE_S, check=True)
    result = json.loads(out.stdout)
    records = [load_record(item) for item in result["records"]]
    for record in records:
        if record.ok:
            _check_length(record)
    return Phase(records, result["wall_s"], result["lag_s"])


#: ``slo_goodput`` limits on time to first token and mean token gap for
#: requests served as they arrive.
SERVING_SLO = (0.100, 0.025)
#: A closed batch submits every request at once, so its first tokens wait
#: for the whole batch's serial prefill; only the gap limit is shared.
BATCH_SLO = (1.0, 0.025)


class Workload(NamedTuple):
    name: str
    why: str
    setup: Callable
    measure: Callable
    slo: Tuple[float, float]


WORKLOADS = {w.name: w for w in (
    Workload(
        "decode_offline",
        "closed batches of 8 at d_hidden=256, each on the full-precision "
        "model then its int8 replica: butterfly decode dominates, no HTTP",
        Tiers, decode_measure, BATCH_SLO),
    Workload(
        "serve_open_loop",
        "Poisson arrivals at a quarter of capacity, in-process: queueing, "
        "serial prefill, KV merge/select and per-row sampling, no HTTP",
        open_loop_setup, open_loop_measure, SERVING_SLO),
    Workload(
        "http_cluster",
        "open-loop SSE requests from a load generator process over HTTP to a "
        "1-worker spawned ClusterEngine: HTTP work, pipe IPC and the "
        "supervisor pump",
        ClusterOverHTTP, http_measure, SERVING_SLO),
)}
