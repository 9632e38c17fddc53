"""Lifecycle and protocol tests of the process-backed shard workers.

The equivalence guarantees (process shards answer bit-identically to a
single store) live in ``test_sharded_store.py`` /
``test_sim_equivalence.py``, which parametrize over all backends.  This
file covers what is specific to the worker actor itself: process
lifecycle (close is orderly, idempotent and fork-safe — no leaked
children), the batching/flush ingest protocol, interner replication,
and deferred ingest-error delivery.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.telemetry.sharding import ShardedMetricStore
from repro.telemetry.workers import ShardWorker


def _fill(store, n_servers=6, n_windows=4):
    rng = np.random.default_rng(3)
    ids = [f"s{i:02d}" for i in range(n_servers)]
    indices = store.intern_servers(ids)
    for window in range(n_windows):
        store.record_batch(
            "P", "dc", "cpu", window, indices, rng.uniform(0, 1, n_servers)
        )
    return store


def _assert_no_active_children():
    # active_children() also joins finished processes, so a passing
    # assertion proves the workers were reaped, not merely signalled.
    assert multiprocessing.active_children() == []


class TestLifecycle:
    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=2, backend="rayon")
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=2, backend="serial", workers=2)
        with pytest.raises(ValueError):
            # processes always runs one worker child per shard.
            ShardedMetricStore(n_shards=2, backend="processes", workers=2)
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=2, backend="processes", flush_rows=0)
        with pytest.raises(ValueError):
            # tcp cannot guess where its shard servers live ...
            ShardedMetricStore(n_shards=2, backend="tcp")
        with pytest.raises(ValueError):
            # ... runs one session per address ...
            ShardedMetricStore(
                backend="tcp", shard_addrs=["127.0.0.1:1"], workers=2
            )
        with pytest.raises(ValueError):
            # ... and owns the shard_addrs knob exclusively.
            ShardedMetricStore(n_shards=2, backend="serial",
                               shard_addrs=["127.0.0.1:1"])

    def test_tcp_shard_count_follows_addresses(self, shard_server):
        addrs = [shard_server.address] * 3
        with ShardedMetricStore(backend="tcp", shard_addrs=addrs) as store:
            assert store.backend == "tcp"
            assert store.n_shards == 3
            assert [shard.address for shard in store.shards] == addrs

    def test_backend_defaults_keep_historic_behaviour(self):
        serial = ShardedMetricStore(n_shards=2)
        assert serial.backend == "serial"
        threaded = ShardedMetricStore(n_shards=2, workers=2)
        assert threaded.backend == "threads"
        threaded.close()
        # Explicit threads backend defaults its pool to one thread per
        # shard instead of a pointless single-thread pool.
        explicit = ShardedMetricStore(n_shards=3, backend="threads")
        assert explicit.workers == 3
        explicit.close()

    def test_processes_spawn_one_worker_per_shard(self):
        with ShardedMetricStore(n_shards=3, backend="processes") as store:
            assert store.backend == "processes"
            assert all(isinstance(s, ShardWorker) for s in store.shards)
            pids = {shard.pid for shard in store.shards}
            assert len(pids) == 3 and os.getpid() not in pids
            assert len(multiprocessing.active_children()) == 3
        _assert_no_active_children()

    def test_double_close_leaks_no_children(self):
        store = ShardedMetricStore(n_shards=2, backend="processes")
        _fill(store)
        store.close()
        store.close()  # must be a no-op, not an error
        _assert_no_active_children()
        for shard in store.shards:
            assert shard.closed and shard.pid is None

    def test_close_after_fork_leaks_no_children(self):
        """A forked copy of the store must not kill the parent's workers.

        Forks inherit the proxy objects (and their pipe fds); only the
        creating process may terminate the worker children, otherwise a
        fork that exits cleanly would yank live shards out from under
        the parent.
        """
        store = ShardedMetricStore(n_shards=2, backend="processes")
        _fill(store)
        expected = store.sample_count()

        child = multiprocessing.get_context("fork").Process(
            target=ShardedMetricStore.close, args=(store,)
        )
        child.start()
        child.join(30)
        assert child.exitcode == 0

        # Parent's workers survived the fork's close() and still answer.
        assert store.sample_count() == expected
        store.close()
        _assert_no_active_children()

    def test_query_after_close_raises(self):
        store = ShardedMetricStore(n_shards=2, backend="processes")
        _fill(store)
        store.close()
        with pytest.raises(RuntimeError):
            store.sample_count()
        with pytest.raises(RuntimeError):
            store.record_batch(
                "P", "dc", "cpu", 99, np.array([0], dtype=np.int64), np.ones(1)
            )

    def test_context_manager_reaps_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with ShardedMetricStore(n_shards=2, backend="processes") as store:
                _fill(store)
                raise RuntimeError("boom")
        _assert_no_active_children()


class TestIngestProtocol:
    def test_small_parts_coalesce_until_flush(self):
        """Ingest buffers parts and ships them as one message."""
        with ShardedMetricStore(
            n_shards=2, backend="processes", flush_rows=10_000
        ) as store:
            _fill(store, n_servers=4, n_windows=5)
            # Nothing forced a flush yet: every part is still pending
            # parent-side (5 windows x 1 part per shard per window).
            assert all(shard._pending for shard in store.shards)
            assert all(shard._pending_rows == 10 for shard in store.shards)
            # The first query flushes and observes all writes.
            assert store.sample_count() == 20
            assert all(not shard._pending for shard in store.shards)

    def test_flush_rows_threshold_triggers_send(self):
        with ShardedMetricStore(
            n_shards=2, backend="processes", flush_rows=8
        ) as store:
            _fill(store, n_servers=4, n_windows=5)
            # 2 rows/shard/window with an 8-row threshold: the buffer
            # must have been shipped at least once before any query.
            assert all(shard._pending_rows < 8 for shard in store.shards)
            assert store.sample_count() == 20

    def test_facade_flush_is_explicit_barrier(self):
        with ShardedMetricStore(
            n_shards=2, backend="processes", flush_rows=10_000
        ) as store:
            _fill(store, n_servers=4, n_windows=2)
            store.flush()
            assert all(not shard._pending for shard in store.shards)
            assert store.sample_count() == 8

    def test_deferred_ingest_error_surfaces_on_next_query(self):
        """A bad ingest command fails in the child; the error is
        delivered on the next RPC instead of being dropped."""
        with ShardedMetricStore(n_shards=2, backend="processes") as store:
            worker = store.shards[0]
            empty = np.array([], dtype=np.int64)
            # values non-empty but windows empty: the child's
            # record_columns calls windows.max() and raises.
            worker.record_columns("P", "dc", "cpu", empty, empty, np.ones(1))
            with pytest.raises(ValueError):
                worker.sample_count()
            # The worker survives its own error and keeps serving.
            assert worker.sample_count() >= 0

    def test_interner_replication_names_queries(self):
        """Workers learn names via deltas, never via shared memory."""
        with ShardedMetricStore(n_shards=2, backend="processes") as store:
            _fill(store, n_servers=5, n_windows=3)
            per_server = store.per_server_values("P", "cpu")
            assert set(per_server) == {f"s{i:02d}" for i in range(5)}
            # Late-interned servers reach workers with later messages.
            late = store.intern_servers(["late0", "late1"])
            store.record_batch("P", "dc", "cpu", 7, late, np.ones(2))
            assert "late0" in store.per_server_values("P", "cpu")
            _windows, names, _matrix = store.pool_matrix("P", "cpu")
            assert "late1" in names

    def test_record_batch_and_record_many_ride_the_buffer(self):
        from repro.telemetry.counters import CounterSample

        with ShardedMetricStore(n_shards=2, backend="processes") as store:
            store.record_batch("P", "dc", "cpu", 0, ["a", "b"], np.array([1.0, 2.0]))
            store.record_many(
                [
                    CounterSample(
                        window_index=1,
                        server_id="a",
                        pool_id="P",
                        datacenter_id="dc",
                        counter="cpu",
                        value=3.0,
                    )
                ]
            )
            assert store.sample_count() == 3
            sums = store.pool_window_aggregate("P", "cpu", reducer="sum")
            np.testing.assert_array_equal(sums.windows, [0, 1])
            np.testing.assert_array_equal(sums.values, [3.0, 3.0])


class TestCloseFailoverRace:
    """Group close() racing a member retirement must not double-close.

    The regression: ``ReplicatedShardClient._retire`` closes a failed
    member on whichever thread observed the failure, *outside* the
    membership lock, while a concurrent group ``close()`` walks the
    same member list — before ``ShardClient.close`` became a
    lock-guarded test-and-set, both paths could run the full teardown
    (pipeline abort + ``stop`` + transport close) twice on one member.
    These hammers lose the race on purpose, many times in a row.
    """

    ROUNDS = 15

    def test_close_racing_failover_never_double_closes(self, shard_server):
        import threading

        from repro.telemetry.store import ServerInterner
        from repro.telemetry.workers import ReplicatedShardClient

        failures = []
        for _ in range(self.ROUNDS):
            client = ReplicatedShardClient(
                0,
                ServerInterner(),
                [shard_server.address, shard_server.address],
                pipeline_depth=2,
                io_timeout=10,
            )
            primary = client._live_members()[0]
            barrier = threading.Barrier(3)

            def crash_then_query(client=client, primary=primary, barrier=barrier):
                barrier.wait()
                # The failure the failover path reacts to: the primary's
                # socket dies under it mid-session.
                primary._transport.close()
                try:
                    client.call("sample_count")
                except RuntimeError:
                    pass  # closed under us or every member gone: clean ends
                except Exception as error:  # pragma: no cover - regression
                    failures.append(error)

            def close_group(client=client, barrier=barrier):
                barrier.wait()
                try:
                    client.close()
                except Exception as error:  # pragma: no cover - regression
                    failures.append(error)

            threads = [
                threading.Thread(target=crash_then_query),
                threading.Thread(target=close_group),
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            client.close()  # idempotent once the dust settles
            assert client.closed
        assert failures == []

    def test_many_threads_close_one_session(self, shard_server):
        """N concurrent close() calls collapse to exactly one teardown."""
        import threading

        from repro.telemetry.store import ServerInterner
        from repro.telemetry.workers import TcpShardClient

        for _ in range(self.ROUNDS):
            client = TcpShardClient(
                0, ServerInterner(), shard_server.address, pipeline_depth=2
            )
            errors = []
            barrier = threading.Barrier(5)

            def close_it(client=client, barrier=barrier, errors=errors):
                barrier.wait()
                try:
                    client.close()
                except Exception as error:  # pragma: no cover - regression
                    errors.append(error)

            threads = [threading.Thread(target=close_it) for _ in range(4)]
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert client.closed
