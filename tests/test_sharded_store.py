"""Unit tests of the hash-partitioned ShardedMetricStore facade.

The facade contract: identical answers to a single MetricStore fed the
same batches — bit-identical for every query whose accumulation order
is defined (aggregates, matrices, per-server reads, series, exports) —
with rows physically spread across shards by server index.  The
``pair`` fixture parametrizes the whole equivalence suite over all
four shard backends (serial, threads, processes, tcp), so every
assertion below — including the byte-identical export check — also
proves the worker-process and network RPC paths.
"""

import threading

import numpy as np
import pytest

from repro.telemetry.counters import CounterSample
from repro.telemetry.export import export_store, import_store
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore
from repro.telemetry.store import MetricStore

REDUCERS = ("mean", "sum", "max", "count")


def _sharded(n_shards=3, backend="serial", server=None, **kwargs):
    """A sharded store for one backend, with a sensible worker width.

    ``server`` is the loopback ``ShardServer`` the tcp backend dials
    (``n_shards`` sessions against the one listener).
    """
    workers = n_shards if backend == "threads" else 1
    if backend == "tcp":
        kwargs["shard_addrs"] = [server.address] * n_shards
    return ShardedMetricStore(
        n_shards=n_shards, workers=workers, backend=backend, **kwargs
    )


def _fill(store, n_servers=20, n_windows=30, pools=("A", "B"), dcs=("dc1", "dc2")):
    """Feed identical batches through any store's record_batch path."""
    rng = np.random.default_rng(17)
    for pool in pools:
        for dc in dcs:
            server_ids = [f"{dc}.{pool}.s{i:03d}" for i in range(n_servers)]
            indices = store.intern_servers(server_ids)
            for window in range(n_windows):
                for counter in ("cpu", "rps"):
                    values = rng.uniform(0.0, 100.0, size=n_servers)
                    store.record_batch(pool, dc, counter, window, indices, values)
    return store


@pytest.fixture(scope="module", params=BACKENDS)
def pair(request, shard_server):
    single = _fill(MetricStore())
    sharded = _fill(_sharded(backend=request.param, server=shard_server))
    yield single, sharded
    sharded.close()


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=0)
        with pytest.raises(ValueError):
            ShardedMetricStore(n_shards=2, workers=0)

    def test_workers_capped_at_shards(self):
        assert ShardedMetricStore(n_shards=2, workers=8).workers == 2

    def test_rows_actually_partitioned(self, pair):
        _single, sharded = pair
        counts = [shard.sample_count() for shard in sharded.shards]
        assert all(count > 0 for count in counts)
        assert sum(counts) == sharded.sample_count()

    def test_shard_routing_by_index(self, pair):
        _single, sharded = pair
        for shard_id, shard in enumerate(sharded.shards):
            for _key, _w, servers, _v in shard.iter_tables():
                assert np.all(servers % sharded.n_shards == shard_id)


class TestQueryEquivalence:
    def test_introspection(self, pair):
        single, sharded = pair
        assert single.pools == sharded.pools
        assert single.datacenters == sharded.datacenters
        assert single.max_window == sharded.max_window
        assert single.sample_count() == sharded.sample_count()
        for pool in single.pools:
            assert single.counters_for_pool(pool) == sharded.counters_for_pool(pool)
            assert single.datacenters_for_pool(pool) == sharded.datacenters_for_pool(
                pool
            )
            assert single.servers_in_pool(pool) == sharded.servers_in_pool(pool)
            assert single.servers_in_pool(pool, "dc1") == sharded.servers_in_pool(
                pool, "dc1"
            )

    @pytest.mark.parametrize("reducer", REDUCERS)
    def test_pool_window_aggregate_bit_identical(self, pair, reducer):
        single, sharded = pair
        for dc in (None, "dc1"):
            for start, stop in ((None, None), (5, 20)):
                a = single.pool_window_aggregate(
                    "A", "cpu", datacenter_id=dc, start=start, stop=stop,
                    reducer=reducer,
                )
                b = sharded.pool_window_aggregate(
                    "A", "cpu", datacenter_id=dc, start=start, stop=stop,
                    reducer=reducer,
                )
                np.testing.assert_array_equal(a.windows, b.windows)
                np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_reducer_raises(self, pair):
        _single, sharded = pair
        with pytest.raises(ValueError):
            sharded.pool_window_aggregate("A", "cpu", reducer="median")

    def test_empty_aggregate(self, pair):
        _single, sharded = pair
        assert len(sharded.pool_window_aggregate("A", "nope")) == 0

    def test_per_server_values(self, pair):
        single, sharded = pair
        a = single.per_server_values("B", "rps")
        b = sharded.per_server_values("B", "rps")
        assert set(a) == set(b)
        for server in a:
            np.testing.assert_array_equal(a[server], b[server])

    def test_pool_matrix(self, pair):
        single, sharded = pair
        wa, na, ma = single.pool_matrix("A", "cpu")
        wb, nb, mb = sharded.pool_matrix("A", "cpu", start=None, stop=None)
        np.testing.assert_array_equal(wa, wb)
        assert na == nb
        np.testing.assert_array_equal(ma, mb)

    def test_pool_matrix_window_slice(self, pair):
        single, sharded = pair
        wa, na, ma = single.pool_matrix("B", "rps", datacenter_id="dc2", start=3, stop=9)
        wb, nb, mb = sharded.pool_matrix("B", "rps", datacenter_id="dc2", start=3, stop=9)
        np.testing.assert_array_equal(wa, wb)
        assert na == nb
        np.testing.assert_array_equal(ma, mb)

    def test_pool_matrix_empty(self, pair):
        _single, sharded = pair
        windows, names, matrix = sharded.pool_matrix("A", "nope")
        assert windows.size == 0 and names == () and matrix.size == 0

    def test_server_series(self, pair):
        single, sharded = pair
        for server in single.servers_in_pool("A")[:5]:
            a = single.server_series("A", "cpu", server, start=2, stop=25)
            b = sharded.server_series("A", "cpu", server, start=2, stop=25)
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)
        assert len(sharded.server_series("A", "cpu", "unknown-server")) == 0

    def test_all_values_multiset(self, pair):
        single, sharded = pair
        a = np.sort(single.all_values("cpu"))
        b = np.sort(sharded.all_values("cpu"))
        np.testing.assert_array_equal(a, b)
        assert sharded.all_values("nope").size == 0

    def test_gather_columns_canonical_order(self, pair):
        single, sharded = pair
        wa, sa, va = single.gather_columns("A", "cpu")
        wb, sb, vb = sharded.gather_columns("A", "cpu")
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(va, vb)


class TestIngestPaths:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_batch_routes_to_owner_shard(self, backend, shard_server):
        with _sharded(n_shards=2, backend=backend, server=shard_server) as store:
            store.record_batch("P", "dc", "cpu", 0, ["s0", "s1"], np.array([1.0, 2.0]))
            idx0 = store.interner.index["s0"]
            idx1 = store.interner.index["s1"]
            assert store.shards[store.shard_of(idx0)].sample_count() == 1
            assert store.shards[store.shard_of(idx1)].sample_count() == 1
            series = store.pool_window_aggregate("P", "cpu", reducer="sum")
            assert series.values[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_record_and_record_many(self, backend, shard_server):
        single = MetricStore()
        samples = [
            CounterSample(
                window_index=w,
                server_id=f"s{i}",
                pool_id="P",
                datacenter_id="dc",
                counter="cpu",
                value=float(w * 10 + i),
            )
            for w in range(4)
            for i in range(7)
        ]
        with _sharded(backend=backend, server=shard_server) as sharded:
            single.record_many(samples)
            sharded.record_many(samples)
            assert single.sample_count() == sharded.sample_count()
            a = single.pool_window_aggregate("P", "cpu")
            b = sharded.pool_window_aggregate("P", "cpu")
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)
            sharded.record_many(samples[:1])
            assert sharded.sample_count() == single.sample_count() + 1

    def test_record_batch_validation(self):
        store = ShardedMetricStore(n_shards=2)
        with pytest.raises(ValueError):
            store.record_batch("P", "dc", "cpu", 0, ["a", "b"], np.ones(3))
        store.record_batch("P", "dc", "cpu", 0, [], np.array([]))
        assert store.sample_count() == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cache_invalidated_on_ingest(self, backend, shard_server):
        with _fill(
            _sharded(n_shards=2, backend=backend, server=shard_server),
            n_servers=4, n_windows=3,
        ) as store:
            before = store.pool_window_aggregate("A", "cpu")
            assert store.pool_window_aggregate("A", "cpu") is before  # memoized
            store.record_batch(
                "A", "dc1", "cpu", 99, store.intern_servers(["dc1.A.s000"]),
                np.array([1.0]),
            )
            after = store.pool_window_aggregate("A", "cpu")
            assert after is not before
            assert after.windows[-1] == 99

    def test_memoized_series_frozen(self):
        store = _fill(ShardedMetricStore(n_shards=2), n_servers=4, n_windows=3)
        series = store.pool_window_aggregate("A", "cpu")
        with pytest.raises(ValueError):
            series.values[0] = -1.0

    def test_worker_pool_ingest_identical(self):
        serial = _fill(ShardedMetricStore(n_shards=4, workers=1))
        with ShardedMetricStore(n_shards=4, workers=4) as threaded:
            _fill(threaded)
            assert serial.sample_count() == threaded.sample_count()
            for pool in serial.pools:
                a = serial.pool_window_aggregate(pool, "cpu")
                b = threaded.pool_window_aggregate(pool, "cpu")
                np.testing.assert_array_equal(a.windows, b.windows)
                np.testing.assert_array_equal(a.values, b.values)

    def test_close_is_idempotent(self):
        store = ShardedMetricStore(n_shards=2, workers=2)
        _fill(store, n_servers=4, n_windows=2)
        store.close()
        store.close()


class TestCloseRace:
    """close() must be safe against in-flight ingest (threads backend).

    The historical race: a ``_dispatch`` that passed the executor
    check could submit to a pool ``close()`` had just shut down and
    die with the executor's own ``cannot schedule new futures``
    RuntimeError — an internals leak, and on remote backends a write
    to a torn-down connection.  The fix makes ingest-after-close a
    deterministic, clearly worded ``RuntimeError`` and the racing
    window atomic under the lifecycle lock.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ingest_after_close_raises_cleanly(self, backend, shard_server):
        store = _sharded(n_shards=2, backend=backend, server=shard_server)
        ids = store.intern_servers(["a", "b"])
        store.record_batch("P", "dc", "cpu", 0, ids, np.ones(2))
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.record_batch("P", "dc", "cpu", 1, ids, np.ones(2))
        with pytest.raises(RuntimeError, match="closed"):
            store.record_many([CounterSample(1, "a", "P", "dc", "cpu", 1.0)])

    def test_close_concurrent_with_ingest_threads_backend(self):
        """Hammer ingest from one thread while close() lands on another.

        The facade's contract is one ingesting caller; the fixed race
        is that caller being mid-``_dispatch`` when a second thread
        (a ``finally:`` block, an ``atexit`` hook) calls ``close()``.
        The racing ``record_batch`` must either complete or raise the
        clean closed-store error; anything else (the executor's
        'cannot schedule new futures', a write to a torn-down handle)
        is the regression.  Several attempts widen the race window.
        """
        for _attempt in range(5):
            store = ShardedMetricStore(n_shards=4, workers=4, backend="threads")
            ids = store.intern_servers([f"s{i}" for i in range(32)])
            # Warm the executor so close() has something to drain.
            store.record_batch("P", "dc", "cpu", 0, ids, np.ones(32))
            unexpected = []
            started = threading.Event()

            def ingest():
                started.set()
                window = 1
                while True:
                    try:
                        store.record_batch(
                            "P", "dc", "cpu", window, ids, np.ones(32)
                        )
                    except RuntimeError as error:
                        if "closed" not in str(error):
                            unexpected.append(error)
                        return
                    except BaseException as error:  # noqa: BLE001
                        unexpected.append(error)
                        return
                    window += 1

            thread = threading.Thread(target=ingest)
            thread.start()
            started.wait()
            store.close()
            thread.join(30)
            assert not thread.is_alive()
            assert not unexpected, unexpected


class TestExport:
    def test_export_identical_to_single_store(self, tmp_path, pair):
        single, sharded = pair
        single_path = tmp_path / "single.csv"
        sharded_path = tmp_path / "sharded.csv"
        assert export_store(single, single_path) == export_store(
            sharded, sharded_path
        )
        assert single_path.read_text() == sharded_path.read_text()

    def test_roundtrip_queries(self, tmp_path, pair):
        _single, sharded = pair
        path = tmp_path / "archive.csv"
        export_store(sharded, path)
        loaded = import_store(path)
        assert loaded.sample_count() == sharded.sample_count()
        a = loaded.pool_window_aggregate("A", "cpu", reducer="count")
        b = sharded.pool_window_aggregate("A", "cpu", reducer="count")
        np.testing.assert_array_equal(a.windows, b.windows)
        np.testing.assert_array_equal(a.values, b.values)
