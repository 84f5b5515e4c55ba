"""Tracing from outside the program: spans around calls into each layer.

:class:`Tracer` rebinds a public entry point under the name its callers
look it up by, records one span per call (name, start, end, parent span,
thread, and a request id or size where the call carries one) and puts
the originals back on :meth:`Tracer.restore`.  Where the name is looked
up matters: ``repro.nn.tensor`` reads ``repro.kernels.butterfly_apply``
as a module attribute, so rebinding it on ``repro.kernels`` is enough,
while ``repro.serving.scheduler`` imported ``sample_logits`` by name and
must be rebound there.  Methods are rebound on their class.

:func:`install_layer_probes` wraps every layer boundary the per-layer
metrics need; :func:`layer_metrics` turns the spans into those metrics.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from stats import kv_bytes, self_times

#: Rows at or below this are decode-shaped butterfly calls.
SMALL_ROWS = 16


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name: str, start: float, parent: int,
                 thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "thread": self.thread}
        if self.attrs:
            out.update(self.attrs)
        return out


class Tracer:
    """In-memory span recorder over rebound entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: list = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Rebind ``owner.attr`` so every call records a span ``name``.

        ``before(args)`` runs ahead of the call and its result is passed
        to ``after(args, result, state)``, which returns the span's
        attributes (sizes, request id, usefulness).
        """
        original = inspect.getattr_static(owner, attr)
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            state = before(args) if before is not None else None
            span = Span(name, tracer.clock(),
                        stack[-1] if stack else -1, threading.get_ident())
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
            if after is not None:
                span.attrs = after(args, result, state)
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every rebound name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def _butterfly_attrs(args, result, state):
    x, coeffs, halves = args[0], args[1], args[2]
    n = x.shape[-1]
    rows = x.size // n if n else 0
    # Each stage does 4 multiplies and 2 adds per pair of n/2 pairs.
    return {"rows": rows, "ops": 3 * n * len(halves) * rows}


def _kv_attrs(args, result, state):
    return {"bytes": kv_bytes(result)}


def _tokens_total(engine) -> float:
    return engine.metrics.registry.counter("serving_tokens_total").value


def _step_before(args):
    return _tokens_total(args[0])


def _engine_step_attrs(args, result, state):
    engine = args[0]
    attrs = {"useful": _tokens_total(engine) > state}
    depth = getattr(engine, "aggregate_queue_depth", None)
    if depth is not None:  # the cluster's queues live in its workers
        attrs["queue"] = depth()
    return attrs


def _scheduler_attrs(args, result, state):
    return {"queue": args[0].queue_depth}


def _decode_attrs(args, result, state):
    return {"rows": len(args[1])}


def _prefill_attrs(args, result, state):
    return {"tokens": int(args[1].size)}


def _submit_attrs(args, result, state):
    return {"request_id": int(result)}


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring)."""
    import repro.kernels as kernels
    import repro.kernels.attention as attention
    import repro.kernels.quant as quant
    import repro.serving.scheduler as scheduler
    from repro.models.decoder import ButterflyDecoderLM
    from repro.nn.butterfly_layer import ButterflyLinear
    from repro.nn.quantized import QuantizedButterflyLinear
    from repro.serving.cluster import ClusterEngine
    from repro.serving.engine import ServingEngine
    from repro.serving.kv_cache import DecoderKVCache

    wrap = tracer.wrap
    wrap(kernels, "butterfly_apply", "kernels.butterfly_apply",
         after=_butterfly_attrs)
    wrap(attention, "attention_decode", "kernels.attention_decode")
    wrap(kernels, "attention_forward", "kernels.attention_forward")
    wrap(quant, "quantized_linear", "kernels.quant")
    wrap(quant, "quantized_butterfly_apply", "kernels.quant")
    wrap(ButterflyLinear, "forward", "nn.butterfly_linear")
    wrap(QuantizedButterflyLinear, "forward", "nn.butterfly_linear")
    wrap(ButterflyDecoderLM, "decode_step", "models.decode_step",
         after=_decode_attrs)
    wrap(ButterflyDecoderLM, "prefill", "models.prefill",
         after=_prefill_attrs)
    wrap(scheduler, "sample_logits", "serving.sample_logits")
    for method in ("merge", "select_rows", "clone"):
        wrap(DecoderKVCache, method, "serving.kv_cache", after=_kv_attrs)
    wrap(scheduler.ContinuousBatchScheduler, "step", "serving.scheduler",
         after=_scheduler_attrs)
    wrap(ServingEngine, "step", "serving.engine.step",
         before=_step_before, after=_engine_step_attrs)
    wrap(ServingEngine, "submit", "serving.engine.submit",
         after=_submit_attrs)
    wrap(ClusterEngine, "step", "serving.cluster.step",
         before=_step_before, after=_engine_step_attrs)
    wrap(ClusterEngine, "pump", "serving.cluster.pump")
    wrap(ClusterEngine, "submit", "serving.cluster.submit",
         after=_submit_attrs)


def layer_metrics(spans: List[Span], wall_s: float, output_tokens: int,
                  requests: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    A ``share`` is self time over ``wall_s``; counts are normalised by
    the output tokens or requests of the phase so that runs of
    different speed compare.
    """
    selfs = self_times([(s.start, s.end, s.parent) for s in spans])
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    sums: Dict[str, float] = defaultdict(float)
    steps = useful = queue_samples = 0
    queue_sum = 0.0
    for span, own in zip(spans, selfs):
        name = span.name
        attrs = span.attrs or {}
        if name == "kernels.butterfly_apply":
            name += (".small_rows" if attrs["rows"] <= SMALL_ROWS
                     else ".large_rows")
            sums["butterfly_ops"] += attrs["ops"]
        elif name in ("serving.engine.step", "serving.cluster.step"):
            name = "engine.step"
            steps += 1
            useful += attrs["useful"]
        for key in ("rows", "tokens", "bytes"):
            if key in attrs:
                sums[f"{name}.{key}"] += attrs[key]
        if "queue" in attrs:
            queue_sum += attrs["queue"]
            queue_samples += 1
        self_s[name] += own
        total_s[name] += span.end - span.start
        calls[name] += 1

    def share(name: str) -> float:
        return self_s[name] / wall_s

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    bfly = ("kernels.butterfly_apply.small_rows",
            "kernels.butterfly_apply.large_rows")
    return {
        "kernels.butterfly_apply.small_rows.share": share(bfly[0]),
        "kernels.butterfly_apply.large_rows.share": share(bfly[1]),
        "kernels.butterfly_apply.calls_per_token": per(
            calls[bfly[0]] + calls[bfly[1]], output_tokens),
        "kernels.butterfly_apply.ops_per_token": per(
            sums["butterfly_ops"], output_tokens),
        "kernels.attention_decode.share": share("kernels.attention_decode"),
        "kernels.attention_forward.share": share("kernels.attention_forward"),
        "kernels.quant.share": share("kernels.quant"),
        "nn.butterfly_linear.overhead_share": share("nn.butterfly_linear"),
        "models.decode_step.share": share("models.decode_step"),
        "models.decode_step.ms_per_call": 1e3 * per(
            total_s["models.decode_step"], calls["models.decode_step"]),
        "models.decode_step.rows_per_call": per(
            sums["models.decode_step.rows"], calls["models.decode_step"]),
        "models.prefill.share": share("models.prefill"),
        "models.prefill.calls_per_request": per(
            calls["models.prefill"], requests),
        "models.prefill.tokens_per_call": per(
            sums["models.prefill.tokens"], calls["models.prefill"]),
        "serving.sample_logits.share": share("serving.sample_logits"),
        "serving.sample_logits.calls_per_token": per(
            calls["serving.sample_logits"], output_tokens),
        "serving.kv_cache.copy_share": share("serving.kv_cache"),
        "serving.kv_cache.bytes_per_token": per(
            sums["serving.kv_cache.bytes"], output_tokens),
        "serving.scheduler.self_share": share("serving.scheduler"),
        "serving.scheduler.queue_depth_mean": per(queue_sum, queue_samples),
        "serving.engine.self_share": share("engine.step"),
        "serving.server.engine_busy_share": total_s["engine.step"] / wall_s,
        "serving.server.step_useful_ratio": per(useful, steps),
        "serving.cluster.pump.share": share("serving.cluster.pump"),
        "serving.cluster.submit_us": 1e6 * per(
            total_s["serving.cluster.submit"],
            calls["serving.cluster.submit"]),
        "trace.self_share_sum": sum(self_s.values()) / wall_s,
    }
