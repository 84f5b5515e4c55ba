"""Tests of the benchmark's own arithmetic, fed synthetic records.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from loadgen import balanced_mix
from metrics import END_TO_END, PER_LAYER
from stats import (
    RequestRecord,
    covered_length,
    goodput,
    interquartile_mean,
    kv_bytes,
    percentile,
    self_times,
)
from tracing import Span, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentile validity ------------------------------------------------
@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, needed):
    assert percentile(range(needed), q).valid
    assert not percentile(range(needed - 1), q).valid
    assert percentile(range(needed), q).count == needed


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50).value == 2.5
    assert percentile([4.0, 1.0, 3.0, 2.0], 100).value == 4.0
    assert percentile([7.0], 99) == (7.0, 1, False)
    empty = percentile([], 50)
    assert empty.count == 0 and not empty.valid


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_interquartile_mean_drops_the_outer_quarters():
    # Two stalled one-second windows out of eight leave it unmoved.
    assert interquartile_mean([10, 11, 12, 13, 14, 15, 0, 1]) == 11.5
    assert interquartile_mean([3.0]) == 3.0
    assert interquartile_mean([1, 2, 3]) == 2.0


# -- self time ----------------------------------------------------------
def test_self_time_counts_overlapping_children_once():
    spans = [
        (0.0, 10.0, -1),  # parent
        (1.0, 4.0, 0),    # two children overlapping on [3, 4]
        (3.0, 6.0, 0),
        (8.0, 12.0, 0),   # a child running past its parent is clipped
        (1.5, 2.0, 1),    # a grandchild counts against its own parent only
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 2.5, 3.0, 4.0,
                                               0.5])


def test_covered_length_merges_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-5, 1), (9, 15)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


# -- goodput --------------------------------------------------------------
def _record(ttft, gap, tokens=4, ok=True):
    record = RequestRecord(start=100.0)
    record.token_times = [100.0 + ttft + i * gap for i in range(tokens)]
    record.ok = ok
    return record


def test_goodput_counts_failures_as_misses():
    records = [
        _record(0.05, 0.01),            # meets both limits
        _record(0.05, 0.01, ok=False),  # fast but failed: a miss
        _record(0.20, 0.01),            # first token too late
        _record(0.05, 0.05),            # gaps too long
        _record(0.0, 0.0, tokens=0),    # refused, never produced a token
    ]
    assert goodput(records, 0.1, 0.025) == pytest.approx(1 / 5)
    assert goodput([], 0.1, 0.025) == 0.0


def test_record_gaps_and_ttft():
    record = _record(0.5, 0.25, tokens=3)
    assert record.ttft_s == pytest.approx(0.5)
    assert record.gaps_s == pytest.approx([0.25, 0.25])
    assert record.mean_gap_s == pytest.approx(0.25)


# -- KV bytes -------------------------------------------------------------
def test_kv_bytes_sums_keys_and_values_of_every_layer():
    shape = (3, 4, 16, 8)  # batch, heads, max_len, d_head
    layers = [SimpleNamespace(k=np.zeros(shape), v=np.zeros(shape))
              for _ in range(2)]
    cache = SimpleNamespace(n_layers=2, layer=layers.__getitem__)
    assert kv_bytes(cache) == 2 * 2 * 3 * 4 * 16 * 8 * 8
    half = SimpleNamespace(
        n_layers=1, layer=lambda i: SimpleNamespace(
            k=np.zeros(shape, np.float32), v=np.zeros(shape, np.float32)))
    assert kv_bytes(half) == 2 * 3 * 4 * 16 * 8 * 4


# -- tracing ------------------------------------------------------------
class _Toy:
    def method(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return x * 2


def test_tracer_rebinds_and_restores_methods_and_staticmethods():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_method = _Toy.__dict__["method"]
    tracer.wrap(_Toy, "method", "toy.method",
                after=lambda args, result, state: {"rows": result})
    tracer.wrap(_Toy, "static", "toy.static")
    assert _Toy().method(1) == 2 and _Toy.static(3) == 6
    tracer.restore()
    assert _Toy.__dict__["method"] is original_method
    assert isinstance(_Toy.__dict__["static"], staticmethod)
    assert [s.name for s in tracer.spans] == ["toy.method", "toy.static"]
    assert tracer.spans[0].attrs == {"rows": 2}
    assert all(s.parent == -1 for s in tracer.spans)


def _span(name, start, end, parent=-1, **attrs):
    span = Span(name, start, parent, thread=1)
    span.end = end
    span.attrs = attrs or None
    return span


def test_layer_metrics_shares_are_self_time_over_wall():
    spans = [
        _span("serving.engine.step", 0.0, 8.0, useful=True),
        _span("serving.scheduler", 0.5, 7.5, parent=0, queue=2),
        _span("models.decode_step", 1.0, 7.0, parent=1, rows=4),
        _span("kernels.butterfly_apply", 2.0, 5.0, parent=2, rows=4,
              ops=96),
        _span("kernels.butterfly_apply", 5.0, 6.0, parent=2, rows=64,
              ops=1536),
        _span("serving.engine.step", 8.0, 9.0, useful=False),
    ]
    values = layer_metrics(spans, wall_s=10.0, output_tokens=4, requests=1)
    assert values["kernels.butterfly_apply.small_rows.share"] == 0.3
    assert values["kernels.butterfly_apply.large_rows.share"] == 0.1
    assert values["kernels.butterfly_apply.ops_per_token"] == 408
    assert values["models.decode_step.share"] == pytest.approx(0.2)
    assert values["models.decode_step.ms_per_call"] == pytest.approx(6000)
    assert values["models.decode_step.rows_per_call"] == 4
    assert values["serving.scheduler.self_share"] == pytest.approx(0.1)
    assert values["serving.scheduler.queue_depth_mean"] == 2
    assert values["serving.engine.self_share"] == pytest.approx(0.2)
    assert values["serving.server.engine_busy_share"] == pytest.approx(0.9)
    assert values["serving.server.step_useful_ratio"] == 0.5
    assert values["trace.self_share_sum"] == pytest.approx(0.9)
    names = {name for name, *_ in PER_LAYER}
    assert set(values) <= names


# -- load generation and process hygiene ---------------------------------
def test_balanced_mix_offers_every_shape_equally_often():
    mix = ((8, 8), (16, 16), (32, 24))
    shapes = balanced_mix(np.random.default_rng(3), mix, 12)
    assert sorted(shapes) == sorted(list(mix) * 4)
    assert shapes == balanced_mix(np.random.default_rng(3), mix, 12)


def test_stop_children_ends_and_reaps_a_child_that_ignores_sigterm():
    # In a process of its own, so that no child of the test runner is hit.
    script = (
        "import subprocess, sys\n"
        "from run import child_pids, stop_children\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import signal, "
        "sys, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); "
        "print(flush=True); time.sleep(60)'], stdout=subprocess.PIPE)\n"
        "child.stdout.readline()\n"
        "assert child_pids() == [child.pid]\n"
        "stop_children(timeout_s=0.5)\n"
        "print(child_pids())\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=HERE,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# -- BENCHMARK.json agrees with the catalogue ---------------------------
def test_benchmark_json_matches_catalogue():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [tuple(m.values()) for m in doc["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert [tuple(m.values()) for m in doc["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert doc["command"] == ["python3", "perfbench/run.py"]


def test_benchmark_json_lists_every_workload_with_its_reason():
    pytest.importorskip("repro")
    from workloads import WORKLOADS

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()]
