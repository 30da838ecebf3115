"""The benchmark's three workloads, their inputs and their oracles.

Each workload builds one stack of the program, drives it from the calling
thread only, and checks every answer against a model of what the answer
must be.  A wrong answer or an error reply is a failed operation.

* ``gateway_ycsb_a`` -- the network front door: every command is its own
  choreography instance, so per-command fixed costs dominate and no disk
  is touched.
* ``cluster_durable`` -- the in-process cluster API over write-ahead-logged
  replicas: WAL, snapshots and group commit dominate; the gateway is not
  on the path.
* ``census_tcp`` -- the paper's core on sockets: census-polymorphic
  patterns with nested conclaves and builtin payloads only.
"""

from __future__ import annotations

import bisect
import os
import random
import selectors
import shutil
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

now = time.perf_counter

#: Each run is bounded so a wedged program fails the run instead of hanging.
PHASE_DEADLINE = 120.0


def zipf_sampler(rng: random.Random, count: int, theta: float):
    """A sampler of ranks in ``[0, count)`` with YCSB's zipfian skew."""
    weights = [1.0 / (rank + 1) ** theta for rank in range(count)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return lambda: bisect.bisect_left(cumulative, rng.random())


@dataclass
class LatencyResult:
    """One latency phase: per-operation latencies, in seconds."""

    latencies: List[float] = field(default_factory=list)
    #: How late the open-loop generator sent each command (open loop only).
    late: List[float] = field(default_factory=list)
    #: ``(request id, start, end)`` per operation, for joining trace spans.
    requests: List[Tuple[Any, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def absorb(self, other: "LatencyResult") -> None:
        """Add another phase's samples to these."""
        self.latencies += other.latencies
        self.late += other.late
        self.requests += other.requests
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class ThroughputResult:
    """One closed-loop throughput phase."""

    #: Operations completed per second, one figure per phase absorbed.
    rates: List[float] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    cpu_seconds: float = 0.0
    threads: int = 0

    def absorb(self, other: "ThroughputResult") -> None:
        """Add another phase's rate and counts to these."""
        self.rates += other.rates
        self.completed += other.completed
        self.attempted += other.attempted
        self.failed += other.failed
        self.cpu_seconds += other.cpu_seconds
        self.threads = max(self.threads, other.threads)


class _Rate:
    """Operations completed per second over one throughput phase.

    Completions inside the phase's window divided by the time from its
    start to the last of them, so batched completions do not quantize it.
    """

    def __init__(self, start: float, seconds: float):
        self.start, self.seconds = start, seconds
        self.done, self.last, self.threads = 0, start, 0

    def complete(self, at: float, ops: int = 1) -> None:
        if at - self.start <= self.seconds:
            self.done += ops
            self.last = at
        if not self.threads and at - self.start >= self.seconds / 2:
            self.threads = threading.active_count()

    def result(self, attempted: int, failed: int, cpu: float) -> ThroughputResult:
        elapsed = self.last - self.start
        return ThroughputResult(
            rates=[self.done / elapsed] if elapsed > 0 else [],
            completed=self.done, attempted=attempted, failed=failed,
            cpu_seconds=cpu,
            threads=self.threads or threading.active_count(),
        )


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""
    #: Operations in the fixed-size traced latency phase.
    traced_ops = 0
    #: Stacks built (and closed) per run; ``setup_s`` and ``teardown_s``
    #: are medians over them, so the cheaper the stack, the more samples.
    setups = 5
    #: Every parameter that shapes the generated inputs and the stack.
    params: Dict[str, Any] = {}
    #: Checked operations on each extra stack before it is closed.
    probe_ops = 20

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def build(self) -> Any:
        raise NotImplementedError

    def probe(self, stack: Any) -> Tuple[int, int]:
        """A few checked operations; returns ``(attempted, failed)``."""
        result = self.latency(stack, ops=self.probe_ops)
        return result.attempted, result.failed

    def latency(self, stack: Any, *, seconds: Optional[float] = None,
                ops: Optional[int] = None, tracer: Any = None) -> LatencyResult:
        raise NotImplementedError

    def throughput(self, stack: Any, seconds: float, tracer: Any = None) -> ThroughputResult:
        raise NotImplementedError

    def close(self, stack: Any) -> None:
        raise NotImplementedError

    def stats(self, stack: Any):
        """The stack's cumulative :class:`ChannelStats`."""
        raise NotImplementedError

    def finish(self, stack: Any) -> Dict[str, Any]:
        """Checks after ``close``; returns extra metrics and counts."""
        return {}

    def discard(self, stack: Any) -> None:
        """Remove what a closed stack left on disk."""

    def shed(self, stack: Any) -> int:
        """Commands the stack refused as overloaded."""
        return 0


def _stop_at(seconds: Optional[float], ops: Optional[int]) -> Tuple[float, int]:
    if (seconds is None) == (ops is None):
        raise ValueError("give exactly one of seconds= and ops=")
    if seconds is not None:
        return now() + seconds, 1 << 62
    return now() + PHASE_DEADLINE, ops  # type: ignore[return-value]


# --------------------------------------------------------------- gateway --


@dataclass
class _GatewayStack:
    kvs: Any
    server: Any
    socks: List[socket.socket]
    peers: List[str]
    models: List[Dict[str, str]]
    cursors: List[int]


class GatewayYcsbA(Workload):
    """YCSB-A through the gateway: 2 connections, keys partitioned by connection."""

    name = "gateway_ycsb_a"
    SHARDS, REPLICATION, KEYS, CONNECTIONS = 2, 2, 1000, 2
    READ_FRACTION, THETA, VALUE_BYTES = 0.5, 0.99, 16
    RATE, WINDOW = 125.0, 8
    #: Commands generated per connection; a longer run wraps around.
    GENERATED = 40000
    traced_ops = 1000
    #: The close is a steady 1.0 s, so three samples suffice.
    setups = 3
    params = {
        "shards": SHARDS, "replication": REPLICATION, "backend": "local",
        "keys": KEYS, "connections": CONNECTIONS, "read_fraction": READ_FRACTION,
        "theta": THETA, "value_bytes": VALUE_BYTES, "offered_rate_per_s": RATE,
        "window_per_connection": WINDOW, "stores": "ephemeral",
    }

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        per_connection = self.KEYS // self.CONNECTIONS
        rank = zipf_sampler(rng, per_connection, self.THETA)
        self.initial: List[Dict[str, str]] = []
        self.ops: List[List[Tuple[str, ...]]] = []
        for conn in range(self.CONNECTIONS):
            keys = [f"c{conn}:user{index:05d}" for index in range(per_connection)]
            self.initial.append({key: f"{conn}-init-{index:07d}"
                                 for index, key in enumerate(keys)})
            stream = []
            for index in range(self.GENERATED):
                key = keys[rank()]
                if rng.random() < self.READ_FRACTION:
                    stream.append(("GET", key))
                else:
                    stream.append(("PUT", key, f"{conn}-{index:0{self.VALUE_BYTES - 2}d}"))
            self.ops.append(stream)

    def build(self) -> _GatewayStack:
        from repro.cluster import ClusterClient
        from repro.gateway import GatewayServer
        from repro.protocols.kvs import Request

        kvs = ClusterClient(shards=self.SHARDS, replication=self.REPLICATION, backend="local")
        server = GatewayServer(kvs).start()
        load = [Request.put(key, value) for model in self.initial for key, value in model.items()]
        for future in kvs.cluster.submit_batch(load):
            future.result()
        socks, peers = [], []
        for _ in range(self.CONNECTIONS):
            sock = socket.create_connection(server.address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
            peers.append("%s:%d" % sock.getsockname()[:2])
        return _GatewayStack(kvs, server, socks, peers,
                             [dict(model) for model in self.initial],
                             [0] * self.CONNECTIONS)

    def latency(self, stack, *, seconds=None, ops=None, tracer=None) -> LatencyResult:
        result = LatencyResult()
        self._drive(stack, result, seconds, ops, rate=self.RATE)
        return result

    def throughput(self, stack, seconds, tracer=None) -> ThroughputResult:
        result = LatencyResult()
        cpu = time.process_time()
        rate = self._drive(stack, result, seconds, None, window=self.WINDOW)
        return rate.result(result.attempted, result.failed, time.process_time() - cpu)

    def _drive(self, stack: _GatewayStack, result: LatencyResult,
               seconds, ops, *, rate=None, window=None):
        """One selectors loop over raw sockets: open loop at ``rate`` or
        closed loop with ``window`` commands in flight per connection."""
        from repro.gateway.protocol import BulkReply, encode_command, parse_reply

        deadline, limit = _stop_at(seconds, ops)
        selector = selectors.DefaultSelector()
        for conn, sock in enumerate(stack.socks):
            selector.register(sock, selectors.EVENT_READ, conn)
        pending = [deque() for _ in stack.socks]
        buffers = [b""] * len(stack.socks)
        sent = [0] * len(stack.socks)
        start = now()
        measured = _Rate(start, seconds) if window else None
        issued = 0

        def issue(conn: int, due: float) -> None:
            nonlocal issued
            stream = self.ops[conn]
            op = stream[stack.cursors[conn] % len(stream)]
            stack.cursors[conn] += 1
            model = stack.models[conn]
            expected = BulkReply(model.get(op[1]))
            if op[0] == "PUT":
                model[op[1]] = op[2]
            frame = encode_command(op)
            sent_at = now()
            stack.socks[conn].sendall(frame)
            pending[conn].append((sent[conn], due if rate else sent_at, sent_at, expected))
            sent[conn] += 1
            issued += 1
            if rate:
                result.late.append(sent_at - due)

        def issuing() -> bool:
            return issued < limit and now() < deadline

        try:
            if window:
                for conn in range(len(stack.socks)):
                    for _ in range(window):
                        if issuing():
                            issue(conn, 0.0)
            while True:
                timeout = 0.05
                if rate and issuing():
                    due = start + issued / rate
                    while issuing() and due <= now():
                        issue(issued % len(stack.socks), due)
                        due = start + issued / rate
                    timeout = max(0.0, due - now())
                if not issuing() and not any(pending):
                    break
                if now() > deadline + PHASE_DEADLINE:
                    raise TimeoutError("gateway replies did not arrive")
                for key, _mask in selector.select(timeout):
                    conn = key.data
                    chunk = stack.socks[conn].recv(65536)
                    if not chunk:
                        raise ConnectionError("gateway closed a benchmark connection")
                    data = buffers[conn] + chunk
                    pos = 0
                    while True:
                        reply, pos = parse_reply(data, pos)
                        if reply is None:
                            break
                        done = now()
                        seq, due, sent_at, expected = pending[conn].popleft()
                        result.attempted += 1
                        if reply != expected:
                            result.failed += 1
                        result.latencies.append(done - due)
                        result.requests.append((("gw", stack.peers[conn], seq), sent_at, done))
                        if measured is not None:
                            measured.complete(done)
                        if window and issuing():
                            issue(conn, 0.0)
                    buffers[conn] = data[pos:]
        finally:
            selector.close()
        return measured

    def close(self, stack: _GatewayStack) -> None:
        for sock in stack.socks:
            sock.close()
        stack.server.close()
        stack.kvs.close()

    def stats(self, stack: _GatewayStack):
        return stack.kvs.stats

    def shed(self, stack: _GatewayStack) -> int:
        return int(stack.server.metrics()["shed_busy"])


# ------------------------------------------------------- durable cluster --


@dataclass
class _DurableStack:
    engine: Any
    client: Any
    root: str
    model: Dict[str, str]
    cursor: int = 0
    user_bytes_written: int = 0


class ClusterDurable(Workload):
    """Write-heavy YCSB over WAL-backed replicas, no gateway."""

    name = "cluster_durable"
    SHARDS, REPLICATION, KEYS, VALUE_BYTES = 4, 2, 10000, 100
    WRITE_FRACTION, THETA = 0.8, 0.99
    BATCH, BATCHES_IN_FLIGHT = 64, 2
    FSYNC, SNAPSHOT_EVERY = "batch", 256
    GENERATED = 100000
    traced_ops = 1500
    params = {
        "shards": SHARDS, "replication": REPLICATION, "backend": "local",
        "keys": KEYS, "value_bytes": VALUE_BYTES, "write_fraction": WRITE_FRACTION,
        "theta": THETA, "batch": BATCH, "batches_in_flight": BATCHES_IN_FLIGHT,
        "fsync": FSYNC, "snapshot_every": SNAPSHOT_EVERY,
    }

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        rank = zipf_sampler(rng, self.KEYS, self.THETA)
        self.keys = [f"user{index:06d}" for index in range(self.KEYS)]
        self.initial = {key: self._value(f"init{index}") for index, key in enumerate(self.keys)}
        self.ops: List[Tuple[str, ...]] = []
        for index in range(self.GENERATED):
            key = self.keys[rank()]
            if rng.random() < self.WRITE_FRACTION:
                self.ops.append(("PUT", key, self._value(f"{seed}:{index}")))
            else:
                self.ops.append(("GET", key))
        self._builds = 0

    def _value(self, tag: str) -> str:
        return (tag + ":").ljust(self.VALUE_BYTES, "x")

    def _durability(self, root: str):
        from repro.storage import Durability

        return Durability(root=root, fsync=self.FSYNC, snapshot_every=self.SNAPSHOT_EVERY)

    def _open(self, root: str):
        from repro.cluster import ClusterEngine

        return ClusterEngine(self.SHARDS, replication=self.REPLICATION, backend="local",
                             durability=self._durability(root))

    def build(self) -> _DurableStack:
        from repro.cluster import ClusterClient
        from repro.protocols.kvs import Request

        root = os.path.join(self.scratch, f"cluster{self._builds}")
        self._builds += 1
        engine = self._open(root)
        load = [Request.put(key, value) for key, value in self.initial.items()]
        for start in range(0, len(load), 1000):
            for future in engine.submit_batch(load[start:start + 1000]):
                future.result()
        return _DurableStack(engine, ClusterClient(engine), root, dict(self.initial))

    def _next(self, stack: _DurableStack):
        op = self.ops[stack.cursor % len(self.ops)]
        stack.cursor += 1
        expected = stack.model.get(op[1])
        if op[0] == "PUT":
            stack.model[op[1]] = op[2]
            stack.user_bytes_written += len(op[1]) + len(op[2])
        return op, expected

    def latency(self, stack, *, seconds=None, ops=None, tracer=None) -> LatencyResult:
        deadline, limit = _stop_at(seconds, ops)
        result = LatencyResult()
        client = stack.client
        while result.attempted < limit and now() < deadline:
            op, expected = self._next(stack)
            if tracer is not None:
                tracer.set_request(result.attempted)
            began = now()
            if op[0] == "PUT":
                answer = client.put(op[1], op[2])
            else:
                answer = client.get(op[1])
            done = now()
            result.latencies.append(done - began)
            result.requests.append((result.attempted, began, done))
            result.attempted += 1
            if answer != expected:
                result.failed += 1
        if tracer is not None:
            tracer.set_request(None)
        return result

    def throughput(self, stack, seconds, tracer=None) -> ThroughputResult:
        from repro.protocols.kvs import Request, ResponseKind

        cpu = time.process_time()
        start = now()
        measured = _Rate(start, seconds)
        in_flight: deque = deque()
        attempted = failed = 0
        while True:
            while len(in_flight) < self.BATCHES_IN_FLIGHT and now() < start + seconds:
                requests, expected = [], []
                for _ in range(self.BATCH):
                    op, answer = self._next(stack)
                    requests.append(Request.put(op[1], op[2]) if op[0] == "PUT"
                                    else Request.get(op[1]))
                    expected.append(answer)
                if tracer is not None:
                    tracer.set_request(("batch", attempted))
                in_flight.append((stack.engine.submit_batch(requests), expected))
                attempted += len(requests)
            if not in_flight:
                break
            futures, expected = in_flight.popleft()
            for future, answer in zip(futures, expected):
                response = future.result(timeout=PHASE_DEADLINE)
                value = response.value if response.kind is ResponseKind.FOUND else None
                if value != answer:
                    failed += 1
            measured.complete(now(), len(futures))
        if tracer is not None:
            tracer.set_request(None)
        return measured.result(attempted, failed, time.process_time() - cpu)

    def close(self, stack: _DurableStack) -> None:
        stack.client.close()
        stack.engine.close()

    def stats(self, stack: _DurableStack):
        return stack.engine.stats

    #: Reopens per run; ``recover_s`` is their median.
    REOPENS = 3

    def finish(self, stack: _DurableStack) -> Dict[str, Any]:
        """Reopen the closed cluster from disk and read every value back."""
        from repro.cluster import ClusterClient

        disk = sum(os.path.getsize(os.path.join(folder, name))
                   for folder, _dirs, files in os.walk(stack.root) for name in files)
        live = sum(len(key) + len(value) for key, value in stack.model.items())
        recoveries, failed = [], 0
        for attempt in range(self.REOPENS):
            began = now()
            engine = self._open(stack.root)
            recoveries.append(now() - began)
            try:
                if attempt == 0:
                    recovered = dict(ClusterClient(engine).scan(""))
                    failed = sum(1 for key, value in stack.model.items()
                                 if recovered.get(key) != value)
                    failed += sum(1 for key in recovered if key not in stack.model)
            finally:
                engine.close()
        return {
            "recover_s": sorted(recoveries)[len(recoveries) // 2],
            "disk_bytes_per_user_byte": disk / live,
            "attempted": len(stack.model),
            "failed": failed,
        }

    def discard(self, stack: _DurableStack) -> None:
        shutil.rmtree(stack.root, ignore_errors=True)


# -------------------------------------------------------------- census/tcp --


def census_round(op, parties, my_ballot=None, my_value=None, *, ballots=None, values=None):
    """Majority vote then nested-conclave maximum over every party.

    Each party knows only its own ballot and value (``my_*``, passed per
    location); the centralized cost model passes the full ``ballots`` /
    ``values`` maps instead.
    """
    from repro.protocols.patterns import majority_vote, tree_aggregate

    verdict = majority_vote(op, parties, parties[0], ballots, my_ballot=my_ballot)
    leaf = values.__getitem__ if values is not None else (lambda _party: my_value)
    return verdict, tree_aggregate(op, parties, max, leaf)


@dataclass
class _CensusStack:
    engine: Any
    cursor: int = 0


class CensusTcp(Workload):
    """A warm 4-party TCP engine running :func:`census_round` instances."""

    name = "census_tcp"
    PARTIES, IN_FLIGHT = 4, 16
    GENERATED = 20000
    traced_ops = 1000
    setups = 9
    params = {"parties": PARTIES, "backend": "tcp", "instances_in_flight": IN_FLIGHT,
              "choreography": "majority_vote + tree_aggregate(max)",
              "messages_per_instance": 14}
    probe_ops = 8

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        self.parties = [f"p{index}" for index in range(self.PARTIES)]
        self.inputs = []
        for _ in range(self.GENERATED):
            ballots = [rng.random() < 0.5 for _ in self.parties]
            values = [rng.randrange(1 << 20) for _ in self.parties]
            expected = (sum(ballots) * 2 > len(ballots), max(values))
            self.inputs.append((
                {party: (ballots[i], values[i]) for i, party in enumerate(self.parties)},
                expected,
            ))

    def build(self) -> _CensusStack:
        from repro.runtime.engine import ChoreoEngine

        stack = _CensusStack(ChoreoEngine(self.parties, backend="tcp"))
        # Connections are opened by the first sends; warm every channel.
        attempted, failed = self.probe(stack)
        if failed:
            raise RuntimeError(f"census_tcp warm-up: {failed}/{attempted} wrong")
        return stack

    def _next(self, stack: _CensusStack):
        item = self.inputs[stack.cursor % len(self.inputs)]
        stack.cursor += 1
        return item

    def _wrong(self, result, expected) -> bool:
        return any(result.value_at(party) != expected for party in self.parties)

    def latency(self, stack, *, seconds=None, ops=None, tracer=None) -> LatencyResult:
        deadline, limit = _stop_at(seconds, ops)
        result = LatencyResult()
        engine, parties = stack.engine, self.parties
        while result.attempted < limit and now() < deadline:
            location_args, expected = self._next(stack)
            if tracer is not None:
                tracer.set_request(result.attempted)
            began = now()
            outcome = engine.run(census_round, args=(parties,), location_args=location_args)
            done = now()
            result.latencies.append(done - began)
            result.requests.append((result.attempted, began, done))
            result.attempted += 1
            if self._wrong(outcome, expected):
                result.failed += 1
        if tracer is not None:
            tracer.set_request(None)
        return result

    def throughput(self, stack, seconds, tracer=None) -> ThroughputResult:
        cpu = time.process_time()
        start = now()
        measured = _Rate(start, seconds)
        in_flight: deque = deque()
        attempted = failed = 0
        engine, parties = stack.engine, self.parties
        while True:
            while len(in_flight) < self.IN_FLIGHT and now() < start + seconds:
                location_args, expected = self._next(stack)
                if tracer is not None:
                    tracer.set_request(attempted)
                in_flight.append((engine.submit(census_round, args=(parties,),
                                                location_args=location_args), expected))
                attempted += 1
            if not in_flight:
                break
            future, expected = in_flight.popleft()
            if self._wrong(future.result(timeout=PHASE_DEADLINE), expected):
                failed += 1
            measured.complete(now())
        if tracer is not None:
            tracer.set_request(None)
        return measured.result(attempted, failed, time.process_time() - cpu)

    def close(self, stack: _CensusStack) -> None:
        stack.engine.close()

    def stats(self, stack: _CensusStack):
        return stack.engine.stats


WORKLOADS = {cls.name: cls for cls in (GatewayYcsbA, ClusterDurable, CensusTcp)}
