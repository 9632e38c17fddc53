"""Determinism and equivalence guarantees of the columnar engine.

Guarantees protecting the block kernel and the sharded extensions:

* a pinned scenario (outage, surge, random failures, a mid-run pool
  resize, every counter, drifting request classes) stores tables whose SHA-256
  digests match values captured before the per-window kernel was
  folded into the block kernel — at block 1 and at block 64;
* a fixed seed reproduces bit-identical store contents run over run;
* a :class:`~repro.telemetry.sharding.ShardedMetricStore` — any shard
  count, any backend (serial, thread-pool, worker-process or
  loopback-TCP ingest) — answers every query bit-identically to a
  single store fed by the same engine;
* block sizes keep identical availability masks and sample counts and
  agree statistically on noisy counters;
* the legacy per-server engine — the seed implementation — agrees
  statistically with the columnar engine (identical availability,
  matching means for the noisy counters).
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.builders import build_single_pool_fleet
from repro.cluster.faults import DatacenterOutage, RandomFailures, TrafficSurge
from repro.cluster.simulation import SimulationConfig, Simulator
from repro.telemetry.counters import Counter
from repro.telemetry.sharding import BACKENDS, ShardedMetricStore


def _sharded(n_shards=3, backend="serial", server=None):
    kwargs = {}
    if backend == "tcp":
        kwargs["shard_addrs"] = [server.address] * n_shards
    return ShardedMetricStore(n_shards=n_shards, backend=backend, **kwargs)


def _run(engine: str, seed: int = 41, windows: int = 180, store=None, **config_kwargs):
    fleet = build_single_pool_fleet(
        "B", n_datacenters=2, servers_per_deployment=6, seed=seed
    )
    sim = Simulator(
        fleet,
        store=store,
        seed=seed,
        config=SimulationConfig(
            engine=engine,
            random_failures=RandomFailures(daily_probability=0.3, seed=7),
            **config_kwargs,
        ),
    )
    sim.run(windows)
    return sim.store


def _assert_stores_identical(a, b):
    assert a.pools == b.pools
    assert a.sample_count() == b.sample_count()
    assert a.max_window == b.max_window
    for pool in a.pools:
        assert a.counters_for_pool(pool) == b.counters_for_pool(pool)
        for counter in a.counters_for_pool(pool):
            for reducer in ("mean", "sum", "max", "count"):
                sa = a.pool_window_aggregate(pool, counter, reducer=reducer)
                sb = b.pool_window_aggregate(pool, counter, reducer=reducer)
                np.testing.assert_array_equal(sa.windows, sb.windows)
                np.testing.assert_array_equal(sa.values, sb.values)
            assert a.servers_in_pool(pool) == b.servers_in_pool(pool)
            for server in a.servers_in_pool(pool):
                xa = a.server_series(pool, counter, server)
                xb = b.server_series(pool, counter, server)
                np.testing.assert_array_equal(xa.windows, xb.windows)
                np.testing.assert_array_equal(xa.values, xb.values)


#: First 16 hex digits of each table's SHA-256 over its little-endian
#: (windows, server indices, values) columns, for :func:`_golden_run`,
#: keyed by block size then "datacenter/counter".  Captured from the
#: per-window kernel before it was folded into the block kernel.
GOLDEN_DIGESTS = {
    1: {
        "DC1/Disk Queue Length": "952eabd3f97ad819",
        "DC1/Disk Read Bytes/sec": "9bff5c5fd4823fda",
        "DC1/Errors/sec": "91f76e53f9ea890a",
        "DC1/Latency 95th Percentile (ms)": "28c9f66c86f7225f",
        "DC1/Latency Median (ms)": "8897629bd67071de",
        "DC1/Memory Pages/sec": "ef4733cce8db1f74",
        "DC1/Memory Working Set Bytes": "dda69e12418cf676",
        "DC1/Network Bytes Total": "33fc26e30b774730",
        "DC1/Network Packets/sec": "9890187150887999",
        "DC1/Processor Utilization": "2d712d0d108915e6",
        "DC1/Requests/sec": "8d80b40346830a89",
        "DC1/Requests/sec[table_index]": "10eaef86f85dd24f",
        "DC1/Requests/sec[table_user]": "6843b5cee12c2e71",
        "DC1/Server Online": "f9203d1bc964e76f",
        "DC2/Disk Queue Length": "94c015d033b5aa2f",
        "DC2/Disk Read Bytes/sec": "ce0b0c434b9f49bd",
        "DC2/Errors/sec": "235aca82090daed6",
        "DC2/Latency 95th Percentile (ms)": "8b82b7b0d40c72b8",
        "DC2/Latency Median (ms)": "5c732a97f7a3a8e6",
        "DC2/Memory Pages/sec": "9921d7dc04207aa9",
        "DC2/Memory Working Set Bytes": "c10022f113a9715d",
        "DC2/Network Bytes Total": "007ef8d25a83cb76",
        "DC2/Network Packets/sec": "9bc4edb3ed290877",
        "DC2/Processor Utilization": "5620357b357c0a14",
        "DC2/Requests/sec": "d29406ea400f66d4",
        "DC2/Requests/sec[table_index]": "f468e7fc107e7c48",
        "DC2/Requests/sec[table_user]": "0baa421dcd1c1eb0",
        "DC2/Server Online": "03841275f1060b67",
    },
    64: {
        "DC1/Disk Queue Length": "52132dea884426c6",
        "DC1/Disk Read Bytes/sec": "04c3bea9dfc657ac",
        "DC1/Errors/sec": "61379d9b8d8f9f81",
        "DC1/Latency 95th Percentile (ms)": "65de9490d1c71398",
        "DC1/Latency Median (ms)": "2ddccdb20e630124",
        "DC1/Memory Pages/sec": "f81953b85e968d15",
        "DC1/Memory Working Set Bytes": "dda69e12418cf676",
        "DC1/Network Bytes Total": "75ad122c8ea9c958",
        "DC1/Network Packets/sec": "c4dcc52fbd541093",
        "DC1/Processor Utilization": "ee899c0bcb7146c7",
        "DC1/Requests/sec": "81b149e9ae4fcb6b",
        "DC1/Requests/sec[table_index]": "a45cbf0a361099a5",
        "DC1/Requests/sec[table_user]": "94d13f4eb1a7c8ce",
        "DC1/Server Online": "f9203d1bc964e76f",
        "DC2/Disk Queue Length": "f9c09b550fe94051",
        "DC2/Disk Read Bytes/sec": "f536ef57b4f51066",
        "DC2/Errors/sec": "1bb89e3c8fde8ab0",
        "DC2/Latency 95th Percentile (ms)": "1711d4dc58c3b7f0",
        "DC2/Latency Median (ms)": "8c352d62ccfc0161",
        "DC2/Memory Pages/sec": "737098a25f3bea43",
        "DC2/Memory Working Set Bytes": "c10022f113a9715d",
        "DC2/Network Bytes Total": "56a974edd24bebe9",
        "DC2/Network Packets/sec": "daeb53b7f087c489",
        "DC2/Processor Utilization": "d2dd8a08876cc483",
        "DC2/Requests/sec": "76be1cd1c993efcf",
        "DC2/Requests/sec[table_index]": "4081852a7c2a4c8a",
        "DC2/Requests/sec[table_user]": "1536dc260ffb3da1",
        "DC2/Server Online": "03841275f1060b67",
    },
}


def _golden_run(block_windows: int) -> Simulator:
    """Outage, surge, failures, a mid-run resize, every counter.

    Pool A's two request classes drift, so the share-jitter draws are
    pinned too.
    """
    fleet = build_single_pool_fleet(
        "A", n_datacenters=2, servers_per_deployment=6, seed=41
    )
    sim = Simulator(
        fleet,
        seed=41,
        config=SimulationConfig(
            counters=None,
            record_request_classes=True,
            block_windows=block_windows,
            random_failures=RandomFailures(daily_probability=0.5, seed=7),
        ),
    )
    sim.add_outage(DatacenterOutage("DC1", start_window=30, duration_windows=20))
    sim.add_surge(
        TrafficSurge("DC2", start_window=60, duration_windows=15, factor=3.0)
    )
    sim.run(100)
    sim.resize_pool("A", "DC2", 9)
    sim.run(80)
    return sim


def _table_digests(store) -> dict:
    digests = {}
    for (_pool, dc, counter), windows, servers, values in store.iter_tables():
        digest = hashlib.sha256()
        for column, dtype in ((windows, "<i8"), (servers, "<i8"), (values, "<f8")):
            digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
        digests[f"{dc}/{counter}"] = digest.hexdigest()[:16]
    return digests


class TestGoldenDigests:
    """Same seed, same bits: the tables are pinned, not just stable."""

    @pytest.mark.parametrize("block_windows", sorted(GOLDEN_DIGESTS))
    def test_tables_match_golden_digests(self, block_windows):
        store = _golden_run(block_windows).store
        assert _table_digests(store) == GOLDEN_DIGESTS[block_windows]

    def test_block_of_one_reports_stage_seconds(self):
        """Every batch run goes through the block kernel's timers."""
        stages = _golden_run(1).stage_seconds
        assert set(stages) == {"demand", "observe", "ingest"}
        assert all(seconds > 0 for seconds in stages.values())


class TestBatchedEquivalence:
    def test_deterministic_bit_identical(self):
        """Same seed => bit-identical store contents."""
        _assert_stores_identical(_run("batch"), _run("batch"))

    def test_request_class_counters_equivalent(self):
        """Pool B's one request class carries all of Requests/sec."""
        store = _run("batch", record_request_classes=True, windows=60)
        assert "Requests/sec[query]" in store.counters_for_pool("B")
        total = store.pool_matrix("B", Counter.REQUESTS.value)
        per_class = store.pool_matrix("B", "Requests/sec[query]")
        np.testing.assert_array_equal(total[0], per_class[0])
        assert total[1] == per_class[1]
        np.testing.assert_array_equal(total[2], per_class[2])

    def test_empty_counter_tuple_means_record_everything(self):
        """counters=() is falsy => all counters, matching legacy."""
        batch = _run("batch", counters=(), windows=30)
        legacy = _run("legacy", counters=(), windows=30)
        assert batch.sample_count() > 0
        assert batch.counters_for_pool("B") == legacy.counters_for_pool("B")
        assert batch.sample_count() == legacy.sample_count()


class TestShardedEquivalence:
    """Sharded batch ingest is bit-identical to the single-store engine,
    whichever backend (serial / processes / tcp) holds the
    shards."""

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_sharded_matches_single_store(self, n_shards):
        single = _run("batch")
        sharded = _run("batch", store=ShardedMetricStore(n_shards=n_shards))
        _assert_stores_identical(single, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_single_store(self, backend, shard_server):
        """Every backend stores and answers exactly like one store."""
        single = _run("batch")
        with _sharded(n_shards=4, backend=backend, server=shard_server) as store:
            sharded = _run("batch", store=store)
            _assert_stores_identical(single, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_blocked_matches_single_blocked(self, backend, shard_server):
        """Sharding composes with cross-window block emission."""
        single = _run("batch", block_windows=16)
        with _sharded(n_shards=3, backend=backend, server=shard_server) as store:
            sharded = _run("batch", store=store, block_windows=16)
            _assert_stores_identical(single, sharded)

    def test_sharded_all_counters(self):
        single = _run("batch", counters=None, windows=60)
        sharded = _run(
            "batch", counters=None, windows=60, store=ShardedMetricStore(3)
        )
        _assert_stores_identical(single, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_exports_byte_identical(self, backend, tmp_path, shard_server):
        """The archive written through any backend is byte-identical."""
        from repro.telemetry.export import export_store

        single = _run("batch", windows=60)
        single_path = tmp_path / "single.csv"
        export_store(single, single_path)
        with _sharded(n_shards=4, backend=backend, server=shard_server) as store:
            sharded = _run("batch", windows=60, store=store)
            sharded_path = tmp_path / f"{backend}.csv"
            export_store(sharded, sharded_path)
        assert single_path.read_bytes() == sharded_path.read_bytes()


class TestBlockedEquivalence:
    """Larger blocks vs the default block of one window."""

    def test_blocked_availability_and_counts_identical(self):
        """Masks are RNG-free, so any block size keeps them identical."""
        batch = _run("batch")
        blocked = _run("batch", block_windows=32)
        assert batch.sample_count() == blocked.sample_count()
        for dc in batch.datacenters_for_pool("B"):
            a = batch.pool_window_aggregate(
                "B", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            b = blocked.pool_window_aggregate(
                "B", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)

    def test_blocked_truncates_final_partial_block(self):
        """n_windows not divisible by block_windows still runs them all."""
        blocked = _run("batch", block_windows=50, windows=130)
        assert blocked.max_window == 129

    def test_blocked_deterministic(self):
        _assert_stores_identical(
            _run("batch", block_windows=16), _run("batch", block_windows=16)
        )

    @pytest.mark.parametrize(
        "counter, tolerance",
        [
            (Counter.REQUESTS.value, 0.02),
            (Counter.PROCESSOR_UTILIZATION.value, 0.02),
            (Counter.LATENCY_P95.value, 0.02),
        ],
    )
    def test_blocked_statistically_equivalent(self, counter, tolerance):
        batch = _run("batch", windows=720)
        blocked = _run("batch", block_windows=48, windows=720)
        a = batch.pool_window_aggregate("B", counter).values
        b = blocked.pool_window_aggregate("B", counter).values
        assert a.mean() == pytest.approx(b.mean(), rel=tolerance)
        assert a.std() == pytest.approx(b.std(), rel=0.15)

    def test_blocked_request_classes(self):
        batch = _run("batch", record_request_classes=True, windows=60)
        blocked = _run(
            "batch", record_request_classes=True, windows=60, block_windows=8
        )
        assert "Requests/sec[query]" in blocked.counters_for_pool("B")
        assert batch.sample_count() == blocked.sample_count()

    def test_block_requires_batch_engine(self):
        with pytest.raises(ValueError):
            SimulationConfig(engine="legacy", block_windows=8)
        with pytest.raises(ValueError):
            SimulationConfig(block_windows=0)


@pytest.mark.legacy
@pytest.mark.slow
class TestLegacyEquivalence:
    """The seed per-server engine agrees with the columnar engine.

    Opt-in (``pytest -m legacy``): the legacy engine runs ~35 windows/s,
    so these 720-window baselines cost more than the rest of the suite
    combined and are excluded from the default tier-1 run.
    """

    @pytest.fixture(scope="class")
    def stores(self):
        return _run("batch", windows=720), _run("legacy", windows=720)

    def test_availability_identical(self, stores):
        batch, legacy = stores
        for dc in batch.datacenters_for_pool("B"):
            a = batch.pool_window_aggregate(
                "B", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            b = legacy.pool_window_aggregate(
                "B", Counter.AVAILABILITY.value, datacenter_id=dc
            )
            np.testing.assert_array_equal(a.windows, b.windows)
            np.testing.assert_array_equal(a.values, b.values)

    def test_sample_counts_identical(self, stores):
        batch, legacy = stores
        assert batch.sample_count() == legacy.sample_count()

    @pytest.mark.parametrize(
        "counter, tolerance",
        [
            (Counter.REQUESTS.value, 0.02),
            (Counter.PROCESSOR_UTILIZATION.value, 0.02),
            (Counter.LATENCY_P95.value, 0.02),
        ],
    )
    def test_noisy_counters_statistically_equivalent(
        self, stores, counter, tolerance
    ):
        batch, legacy = stores
        a = batch.pool_window_aggregate("B", counter).values
        b = legacy.pool_window_aggregate("B", counter).values
        assert a.mean() == pytest.approx(b.mean(), rel=tolerance)
        assert a.std() == pytest.approx(b.std(), rel=0.15)
