"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gateway_ycsb_a --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` adds the traced phases and prints the per-layer metrics
instead; the spans of the traced latency phase are written to
``.perfbench/trace-<workload>.json``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host, the workload's parameters and the sample counts.

The program under test is imported from ``src/`` next to this directory;
without it the run fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: Everything a run writes: scratch stores and trace files.
OUTPUT = os.path.join(ROOT, ".perfbench")

#: Rounds of latency and throughput phases per run.
ROUNDS = 16
#: Host steal share (CPU time the hypervisor gave other guests) at or
#: below which a round counts as quiet.
QUIET_STEAL = 0.02
#: Share of ``--seconds`` given to each kind of phase, over all rounds.
UNTRACED_SPLIT = {"latency": 0.4, "throughput": 0.6}
TRACED_SPLIT = {"latency": 0.2, "throughput": 0.3, "traced_throughput": 0.3}

END_TO_END_UNITS = {
    "ops_per_s": "ops/s", "p50_ms": "ms", "p90_ms": "ms", "setup_s": "s", "rss_mb": "MB",
}


def rss_mb() -> float:
    """Resident set size now, from ``/proc`` (peak RSS where it is absent)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_jiffies() -> List[int]:
    """The host's CPU time counters from ``/proc/stat`` (empty where absent)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after:
        return 0.0
    delta = [late - early for early, late in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def quiet(rounds: List[Tuple[float, List[float]]]) -> List[List[float]]:
    """The samples of the rounds the host left alone.

    Every round whose steal share is at most :data:`QUIET_STEAL`; when
    fewer than half are, the half with the least steal.  Other guests'
    load comes in spells of seconds to minutes, far longer than the
    program's own stalls (snapshots, thread hand-offs), which every round
    contains.
    """
    clean = [samples for steal, samples in rounds if steal <= QUIET_STEAL]
    if 2 * len(clean) >= len(rounds):
        return clean
    ranked = sorted(rounds, key=lambda item: item[0])
    return [samples for _steal, samples in ranked[:(len(rounds) + 1) // 2]]


def host() -> Dict[str, Any]:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_rev": rev}


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import_started = time.perf_counter()
    import repro.cluster  # noqa: F401 - import cost is part of set-up
    import repro.gateway  # noqa: F401
    import repro.runtime  # noqa: F401
    import_s = time.perf_counter() - import_started + (import_started - STARTED)

    from layers import UNITS, layer_metrics, median, percentile
    from tracing import Tracer
    from workloads import WORKLOADS, LatencyResult, ThroughputResult

    scratch = os.path.join(OUTPUT, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, scratch)
        attempted = failed = 0
        builds: List[float] = []
        teardowns: List[float] = []
        for index in range(workload.setups):
            began = time.perf_counter()
            stack = workload.build()
            builds.append(time.perf_counter() - began)
            if index == workload.setups - 1:
                break
            probe_attempted, probe_failed = workload.probe(stack)
            attempted += probe_attempted
            failed += probe_failed
            began = time.perf_counter()
            workload.close(stack)
            teardowns.append(time.perf_counter() - began)
            workload.discard(stack)

        split = TRACED_SPLIT if trace else UNTRACED_SPLIT
        layers: Dict[str, float] = {}
        if trace:
            # The traced latency phase runs first and has a fixed size, so
            # its counts depend on the seed alone.
            tracer = Tracer()
            before = workload.stats(stack)
            messages, message_bytes = before.total_messages, before.total_bytes
            user_bytes = getattr(stack, "user_bytes_written", 0)
            tracer.install()
            try:
                traced = workload.latency(stack, ops=workload.traced_ops, tracer=tracer)
            finally:
                tracer.restore()
            after = workload.stats(stack)
            user_bytes = getattr(stack, "user_bytes_written", 0) - user_bytes
            attempted += traced.attempted
            failed += traced.failed
        # The measured phases alternate over the rounds, each with the host's
        # steal share while it ran; the end-to-end figures come from the
        # quiet rounds (see ``quiet``).
        latency, throughput = LatencyResult(), ThroughputResult()
        traced_throughput, traced_tracers = ThroughputResult(), []
        latency_rounds: List[Tuple[float, List[float]]] = []
        throughput_rounds: List[Tuple[float, List[float]]] = []
        jiffies = cpu_jiffies()
        for _ in range(ROUNDS):
            began = cpu_jiffies()
            phase = workload.latency(stack, seconds=seconds * split["latency"] / ROUNDS)
            middle = cpu_jiffies()
            latency_rounds.append((steal_share(began, middle), phase.latencies))
            latency.absorb(phase)
            measured = workload.throughput(stack, seconds * split["throughput"] / ROUNDS)
            throughput_rounds.append((steal_share(middle, cpu_jiffies()), measured.rates))
            throughput.absorb(measured)
            if trace:
                traced_tracers.append(Tracer())
                traced_tracers[-1].install()
                try:
                    traced_throughput.absorb(workload.throughput(
                        stack, seconds * split["traced_throughput"] / ROUNDS,
                        tracer=traced_tracers[-1]))
                finally:
                    traced_tracers[-1].restore()
        resident = rss_mb()
        steal = steal_share(jiffies, cpu_jiffies())
        if trace:
            attempted += traced_throughput.attempted
            failed += traced_throughput.failed
            layers = layer_metrics(
                tracer, traced.requests, traced.attempted,
                submit_tracers=traced_tracers,
                messages=after.total_messages - messages,
                message_bytes=after.total_bytes - message_bytes,
                uses_cluster=name != "census_tcp",
                user_bytes=user_bytes,
            )
            layers["trace.overhead"] = (median(traced_throughput.rates)
                                        / median(throughput.rates))
            layers["gateway.shed"] = float(workload.shed(stack))
            write_spans(name, seed, tracer)
        began = time.perf_counter()
        workload.close(stack)
        teardowns.append(time.perf_counter() - began)
        finished = workload.finish(stack)
        workload.discard(stack)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted += latency.attempted + throughput.attempted + finished.get("attempted", 0)
    failed += latency.failed + throughput.failed + finished.get("failed", 0)
    ops_per_s = median([rate for rates in quiet(throughput_rounds) for rate in rates])
    quiet_latencies = [sample for samples in quiet(latency_rounds) for sample in samples]
    if trace:
        layers.update({
            "storage.recover_s": finished.get("recover_s", 0.0),
            "storage.disk_bytes_per_user_byte": finished.get("disk_bytes_per_user_byte", 0.0),
            "loadgen.late_p99_ms": percentile(latency.late, 0.99) * 1e3,
            "lat.p99_ms": percentile(latency.latencies, 0.99) * 1e3,
            "lat.max_ms": max(latency.latencies, default=0.0) * 1e3,
            "lat.samples": float(len(latency.latencies)),
            "proc.threads": float(throughput.threads),
            "proc.cpu_ms_per_kop": (throughput.cpu_seconds * 1e3
                                    / (throughput.completed / 1e3)),
            "error_rate": failed / attempted,
            "teardown_s": median(teardowns),
        })
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in UNITS.items()}
    else:
        values = {
            "ops_per_s": ops_per_s,
            "p50_ms": percentile(quiet_latencies, 0.50) * 1e3,
            "p90_ms": percentile(quiet_latencies, 0.90) * 1e3,
            "setup_s": import_s + median(builds),
            "rss_mb": resident,
        }
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": workload.params, "host": host(),
        "samples": {"latency": len(latency.latencies), "throughput": throughput.completed,
                    "setups": len(builds), "teardowns": len(teardowns)},
        "builds_s": builds, "teardowns_s": teardowns, "import_s": import_s,
        "quiet_latency_samples": len(quiet_latencies),
        "throughput_rates": throughput.rates, "host_steal_share": steal,
        "round_steal": {"latency": [steal for steal, _ in latency_rounds],
                        "throughput": [steal for steal, _ in throughput_rounds]},
    }
    return {"meta": meta, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }}


def write_spans(name: str, seed: int, tracer) -> None:
    """Write the traced latency phase's spans, requests resolved."""
    spans = [
        [layer, start, end, self_time, tracer.resolve(request), extra]
        for layer, start, end, self_time, request, extra in tracer.spans
    ]
    path = os.path.join(OUTPUT, f"trace-{name}.json")
    with open(path, "w") as out:
        json.dump({"workload": name, "seed": seed, "spans": spans}, out, default=repr)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SOURCE, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - a failed run prints no result
        traceback.print_exc()
        return 1
    print(json.dumps(report["meta"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
