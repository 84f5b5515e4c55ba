"""Traffic schedules and the HTTP load generator.

The HTTP workload starts the generator as a process of its own with
``python3 perfbench/loadgen.py`` and a JSON object on standard input::

    {"host": "127.0.0.1", "port": 8000, "seed": 7, "seconds": 36.0,
     "rate": 6, "connections": 2, "vocab": 28,
     "mix": [[8, 8], [16, 16], [32, 24]]}

It sends an open-loop schedule of SSE requests from one asyncio thread,
with at most ``connections`` in flight, and prints one JSON object: the
records of every request and how late each was sent.  Kept apart from
the server's process so that the clients' parsing does not share the
server's interpreter lock.  Imports nothing of the program under test.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

from stats import RequestRecord

clock = time.perf_counter


def balanced_mix(rng: np.random.Generator, mix: Sequence[Tuple[int, int]],
                 count: int) -> List[Tuple[int, int]]:
    """``count`` shapes in shuffled order, each of ``mix`` equally often
    (up to the remainder), so every seed offers the same work."""
    shapes = [tuple(mix[i % len(mix)]) for i in range(count)]
    return [shapes[i] for i in rng.permutation(count)]


async def sse_generate(host: str, port: int, record: RequestRecord) -> None:
    """POST one streaming generate request; fill ``record`` from the SSE.

    ``record.ok`` stays True only with a 200 status and a terminal
    ``end`` event; the token count is checked by the caller.
    """
    body = json.dumps({
        "prompt": [int(t) for t in record.prompt],
        "max_new_tokens": record.max_new_tokens,
        "seed": record.seed, "stream": True,
    }).encode()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            b"POST /v1/generate HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b""):
            pass
        if status != 200:
            record.ok = False
            return
        buffer = b""
        ended = False
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                break
            buffer += (await reader.readexactly(size + 2))[:-2]
            while b"\n\n" in buffer:
                raw, buffer = buffer.split(b"\n\n", 1)
                event, data = None, b""
                for line in raw.split(b"\n"):
                    if line.startswith(b"event: "):
                        event = line[7:].decode()
                    elif line.startswith(b"data: "):
                        data = line[6:]
                if data == b"[DONE]":
                    continue
                payload = json.loads(data)
                if event == "end":
                    record.finish_reason = payload["finish_reason"]
                    ended = True
                elif event is None:
                    record.tokens.append(int(payload["token"]))
                    record.token_times.append(clock())
        if not ended:
            record.ok = False
    finally:
        writer.close()
        await writer.wait_closed()


def stratified_schedule(rng: np.random.Generator, rate: int,
                        seconds: float, vocab: int,
                        mix: Sequence[Tuple[int, int]]) -> List[tuple]:
    """Poisson arrivals stratified per second, as ``(due, prompt,
    max_new_tokens, seed)`` with ``due`` in seconds from the start.

    Each second holds exactly ``rate`` arrivals at uniform random times
    (a Poisson process conditioned on its count in every second), each
    shape of ``mix`` equally often, so every seed offers the same load
    second by second.
    """
    schedule = []
    for second in range(max(1, round(seconds))):
        dues = second + np.sort(rng.uniform(size=rate))
        for due, (prompt_len, new_tokens) in zip(
                dues, balanced_mix(rng, mix, rate)):
            schedule.append((float(due), rng.integers(1, vocab, prompt_len),
                             new_tokens, int(rng.integers(2**31))))
    return schedule


def open_loop(host: str, port: int, seed: int, seconds: float, rate: int,
              connections: int, vocab: int,
              mix: Sequence[Tuple[int, int]]) -> dict:
    """Send a :func:`stratified_schedule` over at most ``connections``
    connections at once.

    A request that falls due while every connection is busy waits for
    one; its latency still counts from its due time, and the wait shows
    in the lag.  Times in the result are relative to the start.
    """
    schedule = stratified_schedule(np.random.default_rng(seed), rate,
                                   seconds, vocab, mix)
    records: List[RequestRecord] = []
    lag: List[float] = []

    async def send(slots: asyncio.Semaphore, record: RequestRecord) -> None:
        async with slots:
            lag.append(clock() - record.start)
            try:
                await sse_generate(host, port, record)
            except (OSError, ValueError, IndexError, KeyError,
                    asyncio.IncompleteReadError):
                record.ok = False

    async def run() -> None:
        slots = asyncio.Semaphore(connections)
        tasks = []
        for due, prompt, new_tokens, request_seed in schedule:
            await asyncio.sleep(max(0.0, started + due - clock()))
            record = RequestRecord(started + due, prompt, new_tokens,
                                   request_seed)
            records.append(record)
            tasks.append(asyncio.create_task(send(slots, record)))
        await asyncio.gather(*tasks)

    started = clock()
    asyncio.run(run())
    return {
        "wall_s": clock() - started,
        "lag_s": lag,
        "records": [{
            "start": r.start - started,
            "prompt": [int(t) for t in r.prompt],
            "max_new_tokens": r.max_new_tokens,
            "seed": r.seed,
            "tokens": r.tokens,
            "token_times": [t - started for t in r.token_times],
            "ok": r.ok,
            "finish_reason": r.finish_reason,
        } for r in records],
    }


def load_record(item: dict) -> RequestRecord:
    """A :class:`RequestRecord` back from its JSON form."""
    record = RequestRecord(item["start"], np.array(item["prompt"]),
                           item["max_new_tokens"], item["seed"])
    record.tokens = item["tokens"]
    record.token_times = item["token_times"]
    record.ok = item["ok"]
    record.finish_reason = item["finish_reason"]
    return record


def main() -> int:
    params = json.load(sys.stdin)
    json.dump(open_loop(params["host"], params["port"], params["seed"],
                        params["seconds"], params["rate"],
                        params["connections"], params["vocab"],
                        params["mix"]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
