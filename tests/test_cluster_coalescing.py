"""Per-shard request coalescing in :class:`ClusterEngine`.

Single-key requests (``submit_put``, primary ``submit_get``,
``submit_delete``) run at once on an idle shard and otherwise queue behind
the shard's in-flight instance, shipping as one ``kvs_serve_batch`` group
commit when it completes.  These tests pin down what that must not change:

* per-request answers and replica contents equal one-at-a-time serving
  (a hypothesis property over random put/get/delete sequences);
* a non-coalesced submission on the same shard — a batch, a transaction, a
  quorum read, a scan — observes every request queued before it;
* a backup crash under a coalesced batch resolves every queued Future
  exactly once, with every value at the surviving replica;
* ``pending`` stays an honest quiescence signal under many threads, and
  ``close()`` still runs every request queued before it.

Queues are built deterministically with a *gate*: an instance submitted
straight to a shard engine whose client step blocks until released, so the
requests submitted behind it are guaranteed to be in flight or queued.
"""

from __future__ import annotations

import logging
import os
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterEngine, FaultPlan
from repro.cluster import ClusterClosed
from repro.protocols.kvs import Request, Response, ResponseKind

#: Upper bound on any single wait in this module.
WAIT = 30.0


class Gate:
    """Holds the client worker of every shard engine until released."""

    def __init__(self, cluster: ClusterEngine):
        self.released = threading.Event()

        def hold(op):
            op.locally(cluster.client, lambda _un: self.released.wait(WAIT))

        self.held = [
            cluster.session(shard_id).engine.submit(hold) for shard_id in cluster.shards
        ]

    def release(self) -> None:
        self.released.set()
        for future in self.held:
            future.result(timeout=WAIT)

    def __enter__(self) -> "Gate":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


def replica_stores(cluster: ClusterEngine):
    return {
        (shard_id, replica): dict(cluster.session(shard_id).state.facet_for(replica))
        for shard_id in cluster.shards
        for replica in cluster.session(shard_id).servers
    }


class TestCoalescing:
    def test_idle_shard_runs_each_request_as_its_own_instance(self):
        with ClusterEngine(shards=1, replication=2) as cluster:
            results = [cluster.submit_put(f"k{i}", "v").result(timeout=WAIT)
                       for i in range(4)]
            assert len({result.instance for result in results}) == 4

    def test_requests_queued_behind_an_instance_ship_as_one(self):
        with ClusterEngine(shards=1, replication=2) as cluster:
            with Gate(cluster):
                first = cluster.submit_put("k0", "v0")
                rest = [cluster.submit_put(f"k{i}", f"v{i}") for i in range(1, 9)]
                rest.append(cluster.submit_get("k1"))
                rest.append(cluster.submit_delete("k2"))
                # Gate + first instance, plus ten queued requests.
                assert cluster.pending == 12
                assert cluster.health()["shard0"].pending == 12
            results = [future.result(timeout=WAIT) for future in [first, *rest]]
            instances = [result.instance for result in results]
            assert len(set(instances[1:])) == 1 and instances[0] != instances[1]
            responses = [cluster.response_of(result) for result in results]
            assert responses[:9] == [Response.not_found()] * 9
            assert responses[9:] == [Response.found("v1"), Response.found("v2")]
            # Coalesced results share the batch's run accounting.
            assert results[1].stats is results[-1].stats
            assert results[1].elapsed_seconds == results[-1].elapsed_seconds
            assert cluster.pending == 0

    def test_quorum_get_is_not_coalesced(self):
        with ClusterEngine(shards=1, replication=2) as cluster:
            with Gate(cluster):
                first = cluster.submit_put("k", "a")
                quorum = cluster.submit_get("k", quorum=True)
                assert cluster.session("shard0").queued == []
            assert cluster.response_of(first.result(timeout=WAIT)) == Response.not_found()
            assert cluster.response_of(quorum.result(timeout=WAIT)) == Response.found("a")


#: One later, non-coalesced operation per kind; each returns what it saw of
#: key ``k``.
def _via_batch(cluster):
    return cluster.submit_batch([Request.get("k")])[0].result(timeout=WAIT).value


def _via_quorum_get(cluster):
    result = cluster.submit_get("k", quorum=True).result(timeout=WAIT)
    return cluster.response_of(result).value


def _via_scan(cluster):
    result = cluster.submit_scan("k")["shard0"].result(timeout=WAIT)
    return dict(cluster.response_of(result))["k"]


def _via_txn(cluster):
    # Commits only if the guard sees the queued write.
    cluster.submit_txn([Request.put("other", "x")], expects={"k": "b"}).result(timeout=WAIT)
    return "b"


class TestOrdering:
    @pytest.mark.parametrize(
        "observe", [_via_batch, _via_quorum_get, _via_scan, _via_txn],
        ids=["batch", "quorum_get", "scan", "txn"],
    )
    def test_later_operation_observes_the_queued_put(self, observe):
        with ClusterEngine(shards=1, replication=2) as cluster:
            gate = Gate(cluster)
            try:
                cluster.submit_put("k", "a")  # runs at once, held by the gate
                queued = cluster.submit_put("k", "b")
                assert len(cluster.session("shard0").queued) == 1
                seen = []
                observer = threading.Thread(target=lambda: seen.append(observe(cluster)))
                observer.start()
                # Gate, first put, queued put and the observer's operation:
                # all four are counted before anything runs, so an operation
                # that jumped the queue would run ahead of the queued put.
                deadline = time.monotonic() + WAIT
                while cluster.pending < 4:
                    assert observer.is_alive() and time.monotonic() < deadline
                    observer.join(timeout=0.001)
            finally:
                gate.release()
            observer.join(timeout=WAIT)
            assert not observer.is_alive()
            assert seen == ["b"]
            assert cluster.response_of(queued.result(timeout=WAIT)) == Response.found("a")

    def test_batch_shipped_from_a_worker_keeps_its_place(self, monkeypatch):
        # The queued put ships from an engine worker thread when the first
        # put completes.  Slow that registration down: a quorum get issued
        # meanwhile must still be enqueued behind the batch, not ahead of it.
        with ClusterEngine(shards=1, replication=2) as cluster:
            session = cluster.session("shard0")
            register = session.engine.submit
            shipping = threading.Event()

            def slow_register(chor, *args, **kwargs):
                if chor is session.serve:
                    shipping.set()
                    time.sleep(0.2)
                return register(chor, *args, **kwargs)

            monkeypatch.setattr(session.engine, "submit", slow_register)
            with Gate(cluster):
                cluster.submit_put("k", "a")
                queued = cluster.submit_put("k", "b")
            assert shipping.wait(WAIT)
            quorum = cluster.submit_get("k", quorum=True).result(timeout=WAIT)
            assert cluster.response_of(quorum) == Response.found("b")
            assert cluster.response_of(queued.result(timeout=WAIT)) == Response.found("a")


class TestCoalescedFailover:
    def test_backup_crash_under_a_batch_resolves_each_future_once(self, caplog):
        # The gated first put costs the backup two ops; it dies on the first
        # op of the coalesced batch queued behind it.
        plan = FaultPlan(seed=7).crash("shard0.r1", after_ops=2)
        with ClusterEngine(shards=1, replication=2, backend="simulated",
                           timeout=0.3, faults=plan) as cluster:
            with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
                with Gate(cluster):
                    futures = [cluster.submit_put(f"key{i}", f"value{i}") for i in range(6)]
                    assert len(cluster.session("shard0").queued) == 5
                results = [future.result(timeout=WAIT) for future in futures]
            # A second resolution would raise inside a done-callback, which
            # concurrent.futures logs instead of propagating.
            assert not [r for r in caplog.records if r.name == "concurrent.futures"]
            assert all(future.done() for future in futures)
            assert len({result.instance for result in results[1:]}) == 1
            for result in results:
                assert cluster.response_of(result).kind is ResponseKind.NOT_FOUND
            health = cluster.health()["shard0"]
            assert health.down == ("shard0.r1",)
            survivor = dict(cluster.session("shard0").state.facet_for("shard0.r0"))
            assert survivor == {f"key{i}": f"value{i}" for i in range(6)}
            assert cluster.pending == 0


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from("abcd"), st.sampled_from(["1", "2", "3"])),
        st.tuples(st.just("get"), st.sampled_from("abcd"), st.booleans()),
        st.tuples(st.just("delete"), st.sampled_from("abcd")),
    ),
    max_size=24,
)


def _submit(cluster, op):
    if op[0] == "put":
        return cluster.submit_put(op[1], op[2])
    if op[0] == "get":
        return cluster.submit_get(op[1], quorum=op[2])
    return cluster.submit_delete(op[1])


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["local", "simulated"])
    @settings(max_examples=25, deadline=None)
    @given(ops=_ops)
    def test_pipelined_equals_one_at_a_time(self, backend, ops):
        with ClusterEngine(shards=2, replication=2, backend=backend) as cluster:
            with Gate(cluster):
                futures = [_submit(cluster, op) for op in ops]
            pipelined = [cluster.response_of(f.result(timeout=WAIT)) for f in futures]
            pipelined_stores = replica_stores(cluster)
        with ClusterEngine(shards=2, replication=2, backend=backend) as cluster:
            one_at_a_time = [
                cluster.response_of(_submit(cluster, op).result(timeout=WAIT))
                for op in ops
            ]
            assert replica_stores(cluster) == pipelined_stores
        assert pipelined == one_at_a_time


class TestSharedState:
    def test_many_threads_then_quiescent(self):
        threads = max(8, 4 * (os.cpu_count() or 1))
        failures = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClusterEngine(shards=2, replication=2) as cluster:
                def work(worker: int) -> None:
                    rng = random.Random(worker)
                    model = {}
                    window = []
                    try:
                        for step in range(60):
                            key = f"w{worker}:{rng.randrange(3)}"
                            roll = rng.random()
                            if roll < 0.5:
                                value = f"{step}"
                                expected = model.get(key)
                                model[key] = value
                                future = cluster.submit_put(key, value)
                            elif roll < 0.8:
                                expected = model.get(key)
                                future = cluster.submit_get(key)
                            else:
                                expected = model.pop(key, None)
                                future = cluster.submit_delete(key)
                            window.append((future, expected))
                            if len(window) == 4 or step == 59:
                                for pending, want in window:
                                    got = cluster.response_of(pending.result(timeout=WAIT))
                                    assert got.value == want, (key, got, want)
                                window.clear()
                    except BaseException as exc:  # noqa: BLE001 - reported below
                        failures.append(exc)

                pool = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=WAIT * 4)
                assert not any(thread.is_alive() for thread in pool)
                assert failures == []
                assert cluster.pending == 0
                assert cluster.add_shard() == "shard2"
        finally:
            sys.setswitchinterval(previous)

    def test_close_runs_every_queued_request(self):
        cluster = ClusterEngine(shards=1, replication=2)
        gate = Gate(cluster)
        first = cluster.submit_put("k0", "v0")
        queued = [cluster.submit_put(f"k{i}", f"v{i}") for i in range(1, 6)]
        closer = threading.Thread(target=cluster.close)
        closer.start()
        deadline = time.monotonic() + WAIT
        while not cluster._closed:
            assert time.monotonic() < deadline
            closer.join(timeout=0.001)
        gate.release()
        closer.join(timeout=WAIT)
        assert not closer.is_alive()
        assert cluster.response_of(first.result(timeout=0)) == Response.not_found()
        for future in queued:
            assert cluster.response_of(future.result(timeout=0)) == Response.not_found()
        assert cluster.pending == 0
        assert dict(cluster.session("shard0").state.facet_for("shard0.r1")) == {
            f"k{i}": f"v{i}" for i in range(6)
        }
        with pytest.raises(ClusterClosed):
            cluster.submit_put("k9", "v9")

    def test_close_under_concurrent_submitters(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            cluster = ClusterEngine(shards=2, replication=2)
            futures = []
            started = threading.Barrier(9)

            def submitter(worker: int) -> None:
                started.wait(timeout=WAIT)
                for step in range(200):
                    try:
                        futures.append(cluster.submit_put(f"w{worker}:{step}", "v"))
                    except ClusterClosed:
                        return

            pool = [threading.Thread(target=submitter, args=(n,)) for n in range(8)]
            for thread in pool:
                thread.start()
            started.wait(timeout=WAIT)
            cluster.close()
            for thread in pool:
                thread.join(timeout=WAIT)
            assert not any(thread.is_alive() for thread in pool)
            for future in futures:
                error = future.exception(timeout=WAIT)
                if error is None:
                    assert cluster.response_of(future.result()).kind is ResponseKind.NOT_FOUND
                else:
                    assert isinstance(error, ClusterClosed)
            assert cluster.pending == 0
        finally:
            sys.setswitchinterval(previous)
