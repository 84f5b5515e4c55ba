#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload decode_offline --seed 1 \\
        --seconds 28 --trace 0

The run sets the system up several times (the median is ``setup_s``),
measures the workload for ``--seconds``, re-serves a fixed sample of
requests alone to check the outputs, and prints one line per metric
followed by a final JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` measures the workload in quarters, untraced, traced, traced and
untraced, and reports the per-layer metrics plus the tracing overhead.  Results, the machine
fingerprint and the spans of a traced run are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

from metrics import END_TO_END, PER_LAYER
from stats import goodput, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

#: BLAS/OMP pools pinned to one thread before numpy loads.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Repository switches that must stay off: telemetry, fault injection,
#: autotune sweeps and the threaded kernel backend's worker count.
REPRO_SWITCHES = ("REPRO_TELEMETRY", "REPRO_FAULTS", "REPRO_FAULTS_SEED",
                  "REPRO_AUTOTUNE", "REPRO_KERNEL_WORKERS")
#: Set-ups per run: at least SETUPS, and more while they have taken less
#: than SETUP_BUDGET_S in all, up to MAX_SETUPS; ``setup_s`` is their
#: median, so a cheap set-up is repeated often enough to be steady.
SETUPS = 5
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 40


def pin_environment() -> None:
    for var in THREAD_PINS:
        os.environ[var] = "1"
    for var in REPRO_SWITCHES:
        os.environ.pop(var, None)
    # No machine-local autotune file: kernels use the committed defaults.
    os.environ["REPRO_AUTOTUNE_CACHE"] = os.path.join(OUT, "autotune.json")


def fingerprint() -> dict:
    import numpy

    cpu = ""
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def fingerprint_differences(current: dict) -> list:
    """Keys in which this machine differs from the reference machine."""
    with open(os.path.join(HERE, "reference_fingerprint.json")) as handle:
        reference = json.load(handle)
    return sorted(k for k in reference if reference[k] != current.get(k))


def child_pids() -> list:
    """Pids of the live or unreaped children of this process."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``ClusterEngine.close`` joins its workers, but a spawn start also
    launches multiprocessing's resource tracker, which nothing waits for
    and which would outlive the run; it stops when its pipe is closed.
    Any other child still left is terminated, then killed, and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout_s)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        break
                except ChildProcessError:
                    break
                time.sleep(0.01)
            else:
                continue
            break


def latency_profile(phase) -> dict:
    """Percentiles of time to first token and of token gaps, in ms."""
    samples = {
        "ttft": [r.ttft_s * 1e3 for r in phase.records
                 if r.ttft_s is not None],
        "itl": [g * 1e3 for r in phase.records for g in r.gaps_s],
    }
    return {f"{kind}_p{q}_ms": percentile(values, q)
            for kind, values in samples.items() for q in (50, 90, 95, 99)}


def end_to_end(phase, slo, setup_s: float, attempted: int, failed: int,
               worker_rss_mb: float) -> dict:
    profile = latency_profile(phase)
    values = {"tok_s": phase.tok_s}
    for name in ("ttft_p50_ms", "ttft_p90_ms", "itl_p50_ms", "itl_p99_ms"):
        values[name] = profile[name].value
    values["slo_goodput"] = goodput(phase.records, *slo)
    values["ok_share"] = 1.0 - failed / attempted
    # The served system's memory: this process (the load generator of the
    # HTTP workloads runs apart and is not counted) plus cluster workers.
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values["peak_rss_mb"] = own_kb / 1024.0 + worker_rss_mb
    values["setup_s"] = setup_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np

    from tracing import Tracer, install_layer_probes, layer_metrics
    from workloads import WORKLOADS, Phase, clock

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)

    system = None
    try:
        setup_times = []
        while len(setup_times) < SETUPS or (
                sum(setup_times) < SETUP_BUDGET_S
                and len(setup_times) < MAX_SETUPS):
            if system is not None:
                system.close()
                system = None
            started = clock()
            system = workload.setup()
            setup_times.append(clock() - started)
        setup_s = statistics.median(setup_times)

        rng = np.random.default_rng(args.seed)
        tracer = None
        if args.trace:
            # Untraced, traced, traced and untraced quarters: a steady drift
            # of the machine's speed, or the heap's growth early in a run,
            # cancels out of the tracing overhead.
            tracer = Tracer()
            quarters = {False: [], True: []}
            for traced in (False, True, True, False):
                if traced:
                    install_layer_probes(tracer)
                try:
                    quarters[traced].append(
                        workload.measure(system, rng, args.seconds / 4))
                finally:
                    tracer.restore()
            phases = [Phase.merge(quarters[False]),
                      Phase.merge(quarters[True])]
        else:
            phases = [workload.measure(system, rng, args.seconds)]
        records = [r for phase in phases for r in phase.records]
        reserved = system.reserve(phases[0].records)
        worker_rss_mb = system.worker_rss_mb()
        spawn_s = system.spawn_s
    finally:
        if system is not None:
            system.close()
        stop_children()
    attempted = len(records) + reserved
    failed = sum(1 for r in records if not r.ok)

    profile = latency_profile(phases[0])
    values = end_to_end(phases[0], workload.slo, setup_s, attempted,
                        failed, worker_rss_mb)
    catalogue = END_TO_END
    if args.trace:
        untraced, traced_phase = values, phases[1]
        traced = end_to_end(traced_phase, workload.slo, setup_s, attempted,
                            failed, worker_rss_mb)
        values = layer_metrics(tracer.spans, traced_phase.wall_s,
                               traced_phase.output_tokens,
                               len(traced_phase.records))
        lag = percentile([s * 1e3 for s in phases[0].lag_s], 99)
        values.update({
            "serving.cluster.spawn_s": spawn_s,
            "serving.cluster.worker_rss_mb": worker_rss_mb,
            "loadgen.lag_p99_ms": lag.value if lag.count else 0.0,
            "trace.overhead.tok_s_share":
                traced["tok_s"] / untraced["tok_s"] - 1.0,
            "trace.overhead.ttft_p50_share":
                traced["ttft_p50_ms"] / untraced["ttft_p50_ms"] - 1.0,
        })
        catalogue = PER_LAYER
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json"))

    machine = fingerprint()
    differs = fingerprint_differences(machine)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, *_ in catalogue}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests, {failed} failed, {len(setup_times)} "
          f"set-ups from {min(setup_times):.3f}s to {max(setup_times):.3f}s")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("comparable with the reference machine: "
          + ("yes" if not differs else "no, differs in " + ", ".join(differs)))
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, result in profile.items():
        print(f"  {name}: {result.value:.4g} from n={result.count} "
              f"{'valid' if result.valid else 'too few samples'}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as handle:
        json.dump({**result, "machine": machine, "comparable": not differs,
                   "latency_ms": {name: r.value for name, r in
                                  profile.items()}}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
