"""The live query server: correctness under concurrency, death included.

The contract ``repro query`` rides on, pinned four ways:

* **bit-identity at the watermark** — a live answer for any window
  ``w <= sealed_through`` is bit-identical to the same query against a
  finished same-seed batch run: per answer, the series is the exact
  prefix slice of the batch twin's series.  Checked on every shard
  backend (serial / processes / tcp), across the rolling
  retention boundary (most of the compared span has been evicted to
  spill), and for the wire snapshot (a client-side export from
  :class:`StoreSnapshot` is *byte-identical* to the batch export);
* **a genuinely concurrent hammer** — a client querying in a tight
  loop WHILE the clock loop ingests never sees a half-ingested block:
  every mid-run answer passes the same prefix-slice check;
* **the surface is read-only** — a mutator call ships back as the RPC
  error, and the live store is unperturbed;
* **death, not hangs** — kill the server mid-session and the next call
  raises the named :class:`ShardConnectionError` within the
  ``io_timeout`` bound.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.faults import RandomFailures
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.cluster.streaming import StreamingSimulator
from repro.telemetry.counters import Counter
from repro.telemetry.export import export_store
from repro.telemetry.query_server import (
    LiveQuerySurface,
    QueryClient,
    QueryServer,
    StoreSnapshot,
)
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import MetricStore
from repro.telemetry.workers import ShardConnectionError

WINDOWS = 96
RETAIN = 24
BLOCK = 8

#: Generous wall-clock ceiling for operations that must fail *promptly*
#: (the io_timeout used below is 2s; anything near this bound is a hang).
PROMPT_S = 20.0

#: The aggregate the hammer compares: tracked, so live answers take the
#: incrementally-sealed fast path the streaming loop maintains.
POOL, COUNTER = "B", Counter.REQUESTS.value
TRACK = (
    (POOL, COUNTER, None, "mean"),
    (POOL, Counter.LATENCY_P95.value, "DC1", "max"),
)


def _simulator(seed=41, store=None, block_windows=BLOCK):
    fleet = build_single_pool_fleet(
        POOL, n_datacenters=2, servers_per_deployment=6, seed=seed
    )
    return Simulator(
        fleet,
        store=store,
        seed=seed,
        config=SimulationConfig(
            engine="batch",
            block_windows=block_windows,
            random_failures=RandomFailures(daily_probability=0.3, seed=7),
        ),
    )


def _sharded(n_shards=3, backend="serial", server=None):
    kwargs = {}
    if backend == "tcp":
        kwargs["shard_addrs"] = [server.address] * n_shards
    return ShardedMetricStore(n_shards=n_shards, backend=backend, **kwargs)


def _assert_prefix_of(answer, reference):
    """A live answer == the batch twin's series, cut at the watermark."""
    sealed = answer["sealed_through"]
    windows = np.asarray(answer["windows"])
    values = np.asarray(answer["values"])
    # At a block boundary every ingested window is sealed, so the
    # answer covers exactly [0, sealed] — nothing half-ingested leaks.
    assert len(windows) == sealed + 1
    np.testing.assert_array_equal(windows, reference.windows[: sealed + 1])
    np.testing.assert_array_equal(values, reference.values[: sealed + 1])


@pytest.fixture(scope="module")
def batch_reference():
    """The finished same-seed batch twin (same block size: same RNG order)."""
    sim = _simulator()
    sim.run(WINDOWS)
    return sim.store


@pytest.fixture(scope="module")
def batch_series(batch_reference):
    return batch_reference.pool_window_aggregate(POOL, COUNTER, reducer="mean")


class TestLiveBitIdentity:
    """Stepped interleaving: query between every block, on every backend.

    Driving the clock loop one block per ``run`` call makes the
    interleaving deterministic — a wire query lands at every single
    block boundary, on both sides of the retention watermark — while
    still exercising the real server, the real client, and the real
    lock seam.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_boundary_matches_batch_twin(
        self, backend, shard_server, batch_reference, batch_series, tmp_path
    ):
        with _sharded(backend=backend, server=shard_server) as store:
            sim = _simulator(store=store)
            stream = StreamingSimulator(
                sim,
                retain_windows=RETAIN,
                track=TRACK,
                query_listen="127.0.0.1:0",
            )
            try:
                with QueryClient(stream.query_address, io_timeout=30) as client:
                    evictions_seen = []
                    for _ in range(WINDOWS // BLOCK):
                        stream.run(max_windows=BLOCK)
                        _assert_prefix_of(
                            client.aggregate(POOL, COUNTER), batch_series
                        )
                        status = client.status()
                        assert status["sealed_through"] == stream.sealed_window
                        evictions_seen.append(status["evicted_before"])
                    # The stepped sweep really crossed the retention
                    # boundary: early boundaries pre-eviction, late ones
                    # with most of the span already in spill.
                    assert evictions_seen[0] == 0
                    assert evictions_seen[-1] == WINDOWS - RETAIN
                    # The wire snapshot exports byte-identical to the
                    # batch twin's archive, written client-side.
                    snapshot = StoreSnapshot(client.snapshot())
                    assert snapshot.sealed_through == WINDOWS - 1
                    live_path = tmp_path / f"live-{backend}.csv"
                    batch_path = tmp_path / f"batch-{backend}.csv"
                    export_store(snapshot, live_path)
                    export_store(batch_reference, batch_path)
                    assert live_path.read_bytes() == batch_path.read_bytes()
            finally:
                stream.close()

    def test_dc_filter_and_reducers_match(self, batch_reference):
        """Filtered/re-reduced live answers match the twin too."""
        sim = _simulator()
        stream = StreamingSimulator(
            sim, retain_windows=RETAIN, track=TRACK, query_listen="127.0.0.1:0"
        )
        try:
            with QueryClient(stream.query_address) as client:
                stream.run(max_windows=WINDOWS)
                for dc, reducer in (
                    ("DC1", "max"),
                    (None, "sum"),
                    (None, "count"),
                ):
                    answer = client.aggregate(
                        POOL, Counter.LATENCY_P95.value,
                        datacenter_id=dc, reducer=reducer,
                    )
                    ref = batch_reference.pool_window_aggregate(
                        POOL, Counter.LATENCY_P95.value,
                        datacenter_id=dc, reducer=reducer,
                    )
                    _assert_prefix_of(answer, ref)
        finally:
            stream.close()


class TestConcurrentHammer:
    """A client in a tight loop WHILE the clock loop ingests."""

    HAMMER_WINDOWS = 960

    def test_hammer_during_live_run(self, batch_series):
        sim = _simulator()
        stream = StreamingSimulator(
            sim, retain_windows=RETAIN, track=TRACK, query_listen="127.0.0.1:0"
        )
        reports = []
        runner = threading.Thread(
            target=lambda: reports.append(
                stream.run(max_windows=self.HAMMER_WINDOWS)
            )
        )
        answers = []
        try:
            with QueryClient(stream.query_address, io_timeout=30) as client:
                runner.start()
                while runner.is_alive():
                    status = client.status()
                    if status["sealed_through"] < 0:
                        continue  # nothing sealed yet — keep hammering
                    answers.append(client.aggregate(POOL, COUNTER))
                runner.join()
                answers.append(client.aggregate(POOL, COUNTER))
        finally:
            if runner.is_alive():  # pragma: no cover - failure path
                runner.join()
            stream.close()
        assert reports and reports[0].windows == self.HAMMER_WINDOWS
        # The batch twin only covers WINDOWS; the hammered run is longer
        # so the loop stays busy — checkable answers are the early ones.
        checkable = [
            a for a in answers if a["sealed_through"] < len(batch_series.windows)
        ]
        for answer in checkable:
            _assert_prefix_of(answer, batch_series)
        # The race was real: answers landed mid-run (more than one
        # distinct watermark), not just after the loop finished.
        assert len({a["sealed_through"] for a in answers}) > 1
        final = answers[-1]
        assert final["sealed_through"] == self.HAMMER_WINDOWS - 1
        assert len(final["windows"]) == self.HAMMER_WINDOWS


class TestReadOnlySurface:
    """The surface has no mutators; the wire cannot perturb the store."""

    def test_mutator_call_is_an_error_reply(self):
        store = MetricStore()
        indices = store.intern_servers(["s0", "s1"])
        store.record_batch("A", "dc1", "cpu", 0, indices, np.ones(2))
        store.seal_through(0)
        before = store.sample_count()
        with QueryServer(LiveQuerySurface(store)) as server:
            with QueryClient(server.address) as client:
                with pytest.raises(AttributeError):
                    client.call(
                        "record_batch", "A", "dc1", "cpu", 1, [0, 1], [1.0, 1.0]
                    )
                with pytest.raises(AttributeError):
                    client.call("evict_windows", 1)
                # The session survives the error reply and the store
                # is untouched.
                assert client.status()["samples"] == before
        assert store.sample_count() == before

    def test_plain_finished_store_is_servable(self):
        """No streamer attached: sealed_through falls back to max_window."""
        store = MetricStore()
        indices = store.intern_servers(["s0", "s1", "s2"])
        for window in range(4):
            store.record_batch(
                "A", "dc1", "cpu", window, indices, np.arange(3.0) + window
            )
        with QueryServer(LiveQuerySurface(store)) as server:
            with QueryClient(server.address) as client:
                status = client.status()
                assert status["sealed_through"] == 3
                assert status["alerts"] == []
                answer = client.aggregate("A", "cpu", reducer="sum")
                ref = store.pool_window_aggregate("A", "cpu", reducer="sum")
                _assert_prefix_of(answer, ref)


class TestServerDeath:
    """Kill the server mid-session: named error, bounded, never a hang."""

    def test_stop_mid_session_raises_named_error_promptly(self):
        store = MetricStore()
        indices = store.intern_servers(["s0"])
        store.record_batch("A", "dc1", "cpu", 0, indices, np.ones(1))
        server = QueryServer(LiveQuerySurface(store)).start()
        address = server.address
        client = QueryClient(address, io_timeout=2)
        try:
            assert client.status()["max_window"] == 0  # healthy first
            server.stop()  # takes its sessions down with it: a crash
            start = time.monotonic()
            with pytest.raises(ShardConnectionError, match="query server") as err:
                for _ in range(5):  # first call may race the teardown
                    client.status()
                    time.sleep(0.05)  # pragma: no cover - retry path
            elapsed = time.monotonic() - start
            message = str(err.value)
            assert "connection lost" in message or "I/O timed out" in message
            assert address in message
            assert elapsed < PROMPT_S, f"death took {elapsed:.1f}s to surface"
        finally:
            client.close()
            server.stop()

    def test_dial_to_dead_server_names_the_address(self):
        server = QueryServer(LiveQuerySurface(MetricStore())).start()
        address = server.address
        server.stop()
        with pytest.raises(ConnectionError):
            QueryClient(address, connect_timeout=0.3)

    def test_streamer_close_is_idempotent(self):
        stream = StreamingSimulator(_simulator(), query_listen="127.0.0.1:0")
        address = stream.query_address
        assert address is not None
        stream.close()
        stream.close()
        with pytest.raises(ConnectionError):
            QueryClient(address, connect_timeout=0.3)
