"""Catalogue of the benchmark's metrics.

``BENCHMARK.json`` lists the same names, units, directions and bounds
(``test_perfbench.py`` checks that they agree).  Each per-layer metric also
names the end-to-end metric and workload it is predicted to move;
``BENCHMARK.json`` has no field for that, so it lives here.
"""

from __future__ import annotations

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("tok_s", "tok/s", "higher", 0.25),
    ("ttft_p50_ms", "ms", "lower", 0.25),
    ("ttft_p90_ms", "ms", "lower", 0.25),
    ("itl_p50_ms", "ms", "lower", 0.25),
    ("itl_p99_ms", "ms", "lower", 0.25),
    ("slo_goodput", "share", "higher", 0.1),
    ("ok_share", "share", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better, predicted to move).  A ``share`` is the layer's
#: self time over the traced phase's wall time.
PER_LAYER = (
    ("kernels.butterfly_apply.small_rows.share", "share", "lower",
     "tok_s on decode_offline (both tiers), itl_p50_ms on "
     "serve_open_loop; no move on http_cluster"),
    ("kernels.butterfly_apply.large_rows.share", "share", "lower",
     "ttft_p50_ms on serve_open_loop (prefill shapes)"),
    ("kernels.butterfly_apply.calls_per_token", "count", "lower",
     "tok_s on decode_offline"),
    ("kernels.butterfly_apply.ops_per_token", "count", "lower",
     "tok_s on decode_offline"),
    ("kernels.attention_decode.share", "share", "lower",
     "itl_p50_ms on serve_open_loop"),
    ("kernels.attention_forward.share", "share", "lower",
     "ttft_p50_ms on serve_open_loop"),
    ("kernels.quant.share", "share", "lower",
     "tok_s on decode_offline (its int8 batches)"),
    ("nn.butterfly_linear.overhead_share", "share", "lower",
     "tok_s on decode_offline"),
    ("models.decode_step.share", "share", "lower",
     "itl_p50_ms on serve_open_loop, tok_s on decode_offline"),
    ("models.decode_step.ms_per_call", "ms", "lower",
     "itl_p50_ms on serve_open_loop, tok_s on decode_offline"),
    ("models.decode_step.rows_per_call", "count", "higher",
     "tok_s on decode_offline"),
    ("models.prefill.share", "share", "lower",
     "ttft_p90_ms on serve_open_loop"),
    ("models.prefill.calls_per_request", "count", "lower",
     "ttft_p90_ms on serve_open_loop"),
    ("models.prefill.tokens_per_call", "count", "higher",
     "ttft_p90_ms on serve_open_loop"),
    ("serving.sample_logits.share", "share", "lower",
     "itl_p50_ms on serve_open_loop"),
    ("serving.sample_logits.calls_per_token", "count", "lower",
     "itl_p50_ms on serve_open_loop"),
    ("serving.kv_cache.copy_share", "share", "lower",
     "ttft_p90_ms and itl_p99_ms on serve_open_loop; near zero on "
     "decode_offline"),
    ("serving.kv_cache.bytes_per_token", "B", "lower",
     "ttft_p90_ms and itl_p99_ms on serve_open_loop"),
    ("serving.scheduler.self_share", "share", "lower",
     "ttft_p90_ms on serve_open_loop"),
    ("serving.scheduler.queue_depth_mean", "count", "lower",
     "ttft_p90_ms on serve_open_loop"),
    ("serving.engine.self_share", "share", "lower",
     "itl_p50_ms on serve_open_loop"),
    ("serving.server.engine_busy_share", "share", "lower",
     "ttft_p50_ms and itl_p50_ms on http_cluster"),
    ("serving.server.step_useful_ratio", "ratio", "higher",
     "ttft_p50_ms and itl_p50_ms on http_cluster"),
    ("serving.cluster.pump.share", "share", "lower",
     "ttft_p50_ms and itl_p50_ms on http_cluster"),
    ("serving.cluster.submit_us", "us", "lower",
     "ttft_p50_ms on http_cluster"),
    ("serving.cluster.spawn_s", "s", "lower",
     "setup_s on http_cluster"),
    ("serving.cluster.worker_rss_mb", "MB", "lower",
     "peak_rss_mb on http_cluster"),
    ("loadgen.lag_p99_ms", "ms", "lower",
     "none: validity check of serve_open_loop's generator"),
    ("trace.overhead.tok_s_share", "share", "higher",
     "none: traced minus untraced tok_s, over untraced"),
    ("trace.overhead.ttft_p50_share", "share", "lower",
     "none: traced minus untraced ttft_p50_ms, over untraced"),
    ("trace.self_share_sum", "share", "lower",
     "none: sum of all self shares, at most 1 on one thread"),
)
