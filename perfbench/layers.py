"""Per-layer metrics computed from the spans of one traced run.

Counts are divided by the operations of the fixed-size traced latency
phase (``*_per_op``).  Times are medians: per call at a single boundary
(parse, route, submit, encode, decode, flush, append, snapshot), per
engine instance (queue wait, run), and per request where a request's spans
are summed (gateway reply and self, cluster self, engine self, transport
receive wait, unattributed time).  ``core.census_us_per_op`` is the mean
total per operation.  A layer the workload does not touch reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from tracing import ENVELOPES

#: Every per-layer metric with its unit, in report order.
UNITS: Dict[str, str] = {
    "gateway.parse_us": "us", "gateway.reply_us": "us", "gateway.self_us": "us",
    "gateway.shed": "count",
    "cluster.route_us": "us", "cluster.routes_per_op": "count", "cluster.call_us": "us",
    "cluster.self_us": "us", "cluster.replays": "count", "cluster.msgs_per_op": "count",
    "cluster.bytes_per_op": "bytes",
    "engine.instances_per_op": "count", "engine.submit_us": "us",
    "engine.queue_wait_us": "us", "engine.run_us": "us", "engine.self_us": "us",
    "core.census_new_per_op": "count", "core.require_subset_per_op": "count",
    "core.census_us_per_op": "us",
    "wire.encodes_per_op": "count", "wire.decodes_per_op": "count", "wire.encode_us": "us",
    "wire.decode_us": "us", "wire.bytes_per_op": "bytes", "wire.pickle_share": "ratio",
    "transport.sends_per_op": "count", "transport.flushes_per_op": "count",
    "transport.flush_us": "us", "transport.recv_wait_us": "us",
    "storage.appends_per_op": "count", "storage.append_us": "us",
    "storage.fsyncs_per_op": "count", "storage.snapshots": "count",
    "storage.snapshot_ms": "ms", "storage.write_amp": "ratio", "storage.recover_s": "s",
    "storage.disk_bytes_per_user_byte": "ratio",
    "loadgen.late_p99_ms": "ms", "lat.p99_ms": "ms", "lat.max_ms": "ms",
    "lat.samples": "count", "proc.threads": "count", "proc.cpu_ms_per_kop": "ms",
    "trace.overhead": "ratio", "trace.unattributed_us": "us", "error_rate": "ratio",
    "teardown_s": "s",
}

#: Metrics that count work; with one seed they repeat exactly.
COUNTS = tuple(name for name in UNITS if name.endswith("_per_op") and not name.endswith("_us_per_op")) + (
    "storage.write_amp", "storage.snapshots",
)


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _union(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    covered, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(tracer, requests: Iterable[Tuple[Any, float, float]], ops: int,
                  *, submit_tracers: Sequence[Any] = (),
                  messages: int = 0, message_bytes: int = 0, uses_cluster: bool = True,
                  user_bytes: int = 0) -> Dict[str, float]:
    """The per-layer metrics of one traced latency phase of ``ops`` operations.

    ``requests`` gives each operation's id and its start and end as the
    load generator saw them.  ``submit_tracers`` adds the caller-side
    ``engine.submit`` spans of other traced phases (a latency phase driven
    by blocking ``run`` has none).
    """
    calls: Dict[str, List[Tuple]] = defaultdict(list)
    per_request: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    work: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        layer, start, end, self_time, request, _extra = span
        calls[layer].append(span)
        request = tracer.resolve(request)
        if request is None:
            continue
        per_request[request][layer] += end - start
        per_request[request][layer + "#self"] += self_time
        if layer not in ENVELOPES:
            work[request].append((start, end))

    def durations(layer: str, keep=lambda span: True) -> List[float]:
        return [span[2] - span[1] for span in calls[layer] if keep(span)]

    def count(layer: str) -> int:
        return len(calls[layer])

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def request_median(key) -> float:
        return median([key(layers) for layers in per_request.values() if layers])

    us = 1e6
    window = {request: (start, end) for request, start, end in requests}
    gateway = [r for r in window if isinstance(r, tuple) and r[:1] == ("gw",)]
    encodes = calls["wire.encode"]
    metrics = {
        "gateway.parse_us": median(durations("gateway.parse", lambda s: s[5])) * us,
        "gateway.reply_us": median([
            per_request[r]["gateway.render"] + per_request[r]["gateway.encode"] for r in gateway
        ]) * us,
        "gateway.self_us": median([
            (window[r][1] - window[r][0]) - per_request[r]["cluster.call"] for r in gateway
        ]) * us,
        "cluster.route_us": median(durations("cluster.route")) * us,
        "cluster.routes_per_op": per_op(count("cluster.route")),
        "cluster.call_us": median(durations("cluster.call")) * us,
        "cluster.self_us": median([
            layers["cluster.call"] - layers["engine.instance"]
            for layers in per_request.values() if layers.get("cluster.call")
        ]) * us,
        "cluster.replays": float(max(0, sum(
            1 for span in calls["engine.instance"]
            if per_request[tracer.resolve(span[4])].get("cluster.call")
        ) - count("cluster.call"))),
        "cluster.msgs_per_op": per_op(messages) if uses_cluster else 0.0,
        "cluster.bytes_per_op": per_op(message_bytes) if uses_cluster else 0.0,
        "engine.instances_per_op": per_op(count("engine.instance")),
        "engine.submit_us": median(
            durations("engine.submit")
            + [s[2] - s[1] for t in submit_tracers for s in t.spans if s[0] == "engine.submit"]
        ) * us,
        "engine.queue_wait_us": median([
            (span[2] - span[1]) - span[5] for span in calls["engine.instance"]
        ]) * us,
        "engine.run_us": median([span[5] for span in calls["engine.instance"]]) * us,
        "engine.self_us": request_median(lambda l: l["engine.location#self"]) * us,
        "core.census_new_per_op": per_op(count("core.census_new")),
        "core.require_subset_per_op": per_op(count("core.require_subset")),
        "core.census_us_per_op": per_op(sum(
            span[3] for layer in ("core.census_new", "core.require_subset")
            for span in calls[layer])) * us,
        "wire.encodes_per_op": per_op(len(encodes)),
        "wire.decodes_per_op": per_op(count("wire.decode")),
        "wire.encode_us": median(durations("wire.encode")) * us,
        "wire.decode_us": median(durations("wire.decode")) * us,
        "wire.bytes_per_op": per_op(sum(span[5][0] for span in encodes)),
        "wire.pickle_share": (sum(1 for span in encodes if span[5][1]) / len(encodes)
                              if encodes else 0.0),
        "transport.sends_per_op": per_op(sum(span[5] for span in calls["transport.send"])),
        "transport.flushes_per_op": per_op(count("transport.flush")),
        "transport.flush_us": median(durations("transport.flush")) * us,
        "transport.recv_wait_us": request_median(lambda l: l["transport.recv#self"]) * us,
        "storage.appends_per_op": per_op(count("storage.append")),
        "storage.append_us": median(durations("storage.append")) * us,
        "storage.fsyncs_per_op": per_op(count("storage.fsync")),
        "storage.snapshots": float(count("storage.snapshot")),
        "storage.snapshot_ms": median(durations("storage.snapshot")) * 1e3,
        "storage.write_amp": (sum(span[5][0] for span in calls["storage.append"])
                              + sum(span[5][0] for span in calls["storage.snapshot"])) / user_bytes
        if user_bytes else 0.0,
        "trace.unattributed_us": median([
            (end - start) - _union(work[request], start, end)
            for request, (start, end) in window.items()
        ]) * us,
    }
    return metrics
