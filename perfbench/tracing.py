"""Outside-in tracing: spans recorded around calls into each layer.

Nothing here edits the program.  :class:`Tracer.install` replaces module
and class attributes with timing wrappers, each patched where the program
looks it up (``repro.gateway.server.parse_command``, the
``InstanceScopedEndpoint`` name inside ``repro.runtime.engine``, ...), and
:meth:`Tracer.restore` puts every original back, so untraced phases run the
shipped code unchanged.

A span is ``(layer, start, end, self_seconds, request, extra)``.  Spans
that run synchronously nest through a per-thread stack: a child's duration
is subtracted from its parent's self time.  Spans that end in a Future
(``cluster.call``, ``engine.instance``) are closed by a done-callback.  The
request of a span is inherited from its parent; engine-worker spans carry
``("inst", transport_id, instance)`` and are joined to the caller's request
when the engine instance completes.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter

Span = Tuple[str, float, float, float, Any, Any]

#: Spans that envelope a whole request; they are not work on the blocking
#: path, so they are left out when measuring the attributed time.
ENVELOPES = frozenset({"cluster.call", "engine.instance", "engine.run"})


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(transport_id, instance) -> request`` for joining worker spans.
        self.instances: Dict[Tuple[int, int], Any] = {}
        self._local = threading.local()
        self._thread_counters: Dict[Tuple[str, str], int] = {}
        self._counter_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------- spans --

    def set_request(self, request: Any) -> None:
        """Tag every span opened on this thread (outside a parent) with ``request``."""
        self._local.request = request

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, request: Any = None) -> list:
        stack = self._stack()
        if request is None:
            request = stack[-1][3] if stack else getattr(self._local, "request", None)
        frame = [layer, now(), 0.0, request]
        stack.append(frame)
        return frame

    def close(self, frame: list, extra: Any = None, request: Any = None) -> None:
        end = now()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self.spans.append((
            frame[0], frame[1], end, duration - frame[2],
            frame[3] if request is None else request, extra,
        ))

    def record(self, layer: str, start: float, end: float, request: Any,
               extra: Any = None) -> None:
        """A span that did not run on one thread's stack (Future completions)."""
        self.spans.append((layer, start, end, end - start, request, extra))

    def next_on_thread(self, role: str) -> int:
        """The per-thread sequence number of the next ``role`` event."""
        key = (threading.current_thread().name, role)
        with self._counter_lock:
            value = self._thread_counters.get(key, 0)
            self._thread_counters[key] = value + 1
        return value

    def resolve(self, request: Any) -> Any:
        """Map an engine-instance request key to the caller's request."""
        if isinstance(request, tuple) and request and request[0] == "inst":
            return self.instances.get(request[1:])
        return request

    # ------------------------------------------------------------ patching --

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        inherited = isinstance(owner, type) and name not in owner.__dict__
        original = None if inherited else vars(owner)[name]
        self._patches.append((owner, name, original, inherited))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _sync(self, layer: str, func: Callable, extra: Optional[Callable] = None) -> Callable:
        """Wrap ``func`` in a synchronous span; ``extra(result)`` annotates it."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(layer)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(frame, extra(result) if extra is not None else None)

        return traced

    def install(self) -> None:
        """Patch every layer boundary the benchmark measures."""
        from repro.cluster import client as cluster_client
        from repro.cluster import engine as cluster_engine
        from repro.cluster import router
        from repro.core import epp, locations
        from repro.gateway import server as gateway_server
        from repro.runtime import engine, local, tcp, wire
        from repro.storage import snapshot, wal

        tracer = self

        # runtime.wire: the codec, called through the module by serialize().
        self._patch(wire, "encode", self._sync(
            "wire.encode", wire.encode,
            lambda data: None if data is None else (len(data), data[:1] == b"P")))
        self._patch(wire, "decode", self._sync("wire.decode", wire.decode))

        # core: census construction and the subset check behind every
        # census-polymorphic operator.
        census_cls = locations.Census
        self._patch(census_cls, "__init__", self._sync("core.census_new", census_cls.__init__))
        self._patch(census_cls, "require_subset",
                    self._sync("core.require_subset", census_cls.require_subset))

        # runtime.transport: the instance-scoped endpoint the engine builds
        # per job, plus the batch delivery each coalescing flush ends in.
        scoped_base = epp.InstanceScopedEndpoint

        class TracedScopedEndpoint(scoped_base):  # type: ignore[misc, valid-type]
            __slots__ = ()

            def send(self, receiver, payload):
                frame = tracer.open("transport.send")
                try:
                    scoped_base.send(self, receiver, payload)
                finally:
                    tracer.close(frame, 1)

            def send_many(self, receivers, payload):
                receivers = list(receivers)
                frame = tracer.open("transport.send")
                try:
                    scoped_base.send_many(self, receivers, payload)
                finally:
                    tracer.close(frame, len(receivers))

            def recv(self, sender):
                frame = tracer.open("transport.recv")
                try:
                    return scoped_base.recv(self, sender)
                finally:
                    tracer.close(frame)

        self._patch(engine, "InstanceScopedEndpoint", TracedScopedEndpoint)
        for endpoint_cls in (local._QueueEndpoint, tcp._TCPEndpoint):
            self._patch(endpoint_cls, "_deliver",
                        self._sync("transport.flush", endpoint_cls._deliver))

        # runtime.engine: one span per location per instance (the projected
        # program), and the caller's submit/run with the instance's outcome.
        original_project = engine.project

        def traced_project(choreography, census, location, endpoint):
            program = original_project(choreography, census, location, endpoint)
            key = None
            if isinstance(endpoint, scoped_base):
                inner = endpoint._inner
                key = ("inst", id(getattr(inner, "_transport", inner)), endpoint._instance)

            def traced_program(*args, **kwargs):
                frame = tracer.open("engine.location", key)
                try:
                    return program(*args, **kwargs)
                finally:
                    tracer.close(frame)

            return traced_program

        self._patch(engine, "project", traced_project)

        choreo_engine = engine.ChoreoEngine
        original_submit = choreo_engine.submit
        original_run = choreo_engine.run

        def traced_submit(self_engine, *args, **kwargs):
            frame = tracer.open("engine.submit")
            try:
                future = original_submit(self_engine, *args, **kwargs)
            finally:
                tracer.close(frame)
            start, request = frame[1], frame[3]
            transport_id = id(self_engine.transport)

            def done(finished):
                end = now()
                if finished.exception() is not None:
                    return
                result = finished.result()
                tracer.instances[(transport_id, result.instance)] = request
                tracer.record("engine.instance", start, end, request,
                              result.elapsed_seconds)

            future.add_done_callback(done)
            return future

        def traced_run(self_engine, *args, **kwargs):
            frame = tracer.open("engine.run")
            try:
                result = original_run(self_engine, *args, **kwargs)
            finally:
                tracer.close(frame)
            tracer.instances[(id(self_engine.transport), result.instance)] = frame[3]
            tracer.record("engine.instance", frame[1], now(), frame[3],
                          result.elapsed_seconds)
            return result

        self._patch(choreo_engine, "submit", traced_submit)
        self._patch(choreo_engine, "run", traced_run)

        # cluster: routing, and each call from its start to its Future's
        # completion.  On a gateway reader thread the call's request is the
        # connection's n-th command, which is how client-side latencies are
        # joined to server-side spans.
        shard_router = router.ShardRouter
        self._patch(shard_router, "shard_for",
                    self._sync("cluster.route", shard_router.shard_for))

        def traced_call(func):
            def call(*args, **kwargs):
                thread = threading.current_thread().name
                request = None
                if thread.startswith("gw-read-"):
                    request = ("gw", thread[len("gw-read-"):], tracer.next_on_thread("call"))
                frame = tracer.open("cluster.submit", request)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(frame)
                start, request = frame[1], frame[3]
                futures = result if isinstance(result, list) else [result]
                remaining = [len(futures)]
                lock = threading.Lock()

                def done(_finished):
                    with lock:
                        remaining[0] -= 1
                        last = remaining[0] == 0
                    if last:
                        tracer.record("cluster.call", start, now(), request)

                for future in futures:
                    future.add_done_callback(done)
                return result

            return call

        client_cls = cluster_client.ClusterClient
        for name in ("put_async", "get_async", "delete_async"):
            self._patch(client_cls, name, traced_call(getattr(client_cls, name)))
        engine_cls = cluster_engine.ClusterEngine
        self._patch(engine_cls, "submit_batch", traced_call(engine_cls.submit_batch))

        # storage: WAL appends, snapshots, and every fsync (the WAL's sync
        # and reset, and the snapshot's file and directory).
        wal_cls = wal.WriteAheadLog
        original_append = wal_cls.append

        def traced_append(self_wal, *args, **kwargs):
            # The frame's size is the file's growth; stat outside the span.
            grown = [os.path.getsize(self_wal.path)]
            frame = tracer.open("storage.append")
            try:
                return original_append(self_wal, *args, **kwargs)
            finally:
                tracer.close(frame, grown)
                grown[0] = os.path.getsize(self_wal.path) - grown[0]

        self._patch(wal_cls, "append", traced_append)
        snapshot_cls = snapshot.SnapshotStore
        original_save = snapshot_cls.save

        def traced_save(self_store, *args, **kwargs):
            written = [0]
            frame = tracer.open("storage.snapshot")
            try:
                return original_save(self_store, *args, **kwargs)
            finally:
                tracer.close(frame, written)
                written[0] = os.path.getsize(self_store.path)

        self._patch(snapshot_cls, "save", traced_save)
        self._patch(os, "fsync", self._sync("storage.fsync", os.fsync))

        # gateway: parsing on the reader thread, reply rendering and
        # encoding on the writer thread, each numbered per connection.
        original_parse = gateway_server.parse_command

        def traced_parse(*args, **kwargs):
            frame = tracer.open("gateway.parse")
            parsed = None
            try:
                parsed = original_parse(*args, **kwargs)
                return parsed
            finally:
                request = None
                thread = threading.current_thread().name
                if parsed is not None and parsed[0] is not None and thread.startswith("gw-read-"):
                    request = ("gw", thread[len("gw-read-"):], tracer.next_on_thread("parse"))
                tracer.close(frame, parsed is not None and parsed[0] is not None, request)

        self._patch(gateway_server, "parse_command", traced_parse)
        for name, role in (("reply_for_response", "render"), ("encode_reply", "encode")):
            self._patch(gateway_server, name, self._writer_span(
                "gateway." + role, getattr(gateway_server, name), role))

    def _writer_span(self, layer: str, func: Callable, role: str) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            thread = threading.current_thread().name
            request = None
            if thread.startswith("gw-write-"):
                request = ("gw", thread[len("gw-write-"):], tracer.next_on_thread(role))
            frame = tracer.open(layer, request)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(frame)

        return traced
