"""Fault tolerance of the replicated tcp shard fleet.

The acceptance suite of the replication work (run via ``make
test-faults``, and small enough to ride in tier-1 too):

* **kill -9 a real primary mid-ingest** — a subprocess
  ``repro shard-server`` hosting both primaries is SIGKILLed halfway
  through ingest; the run completes via replica failover and the
  exported archive is *byte-identical* to an unsharded twin's,
  synchronous and pipelined alike.
* **restart/rejoin round-trip** — a shard's server is stopped, a fresh
  one started, and ``rejoin_shard`` replays the ingest journal through
  the ``resync`` RPC; every query class and the export then match a
  never-crashed twin bit-for-bit, including when the journal spilled
  to disk.
* **fault matrix** — every :mod:`repro.telemetry.faultinject` failure
  mode against an *un-replicated* shard surfaces as the named
  per-shard error within the ``io_timeout`` bound: never a hang.
* **CLI surface** — ``--replica-addrs`` / ``--inject-fault``
  validation and the end-to-end failover run through ``repro
  simulate``.

Equivalence of healthy replicated stores rides the usual parametrized
suites; this file is exclusively about runs where something dies.
"""

import time

import numpy as np
import pytest

from repro.cli import main
from repro.telemetry.export import export_store
from repro.telemetry.faultinject import (
    FaultSpec,
    FaultyTransport,
    inject_store,
    parse_fault_spec,
)
from repro.telemetry.sharding import ShardedMetricStore, ShardJournal
from repro.telemetry.store import MetricStore
from repro.telemetry.workers import ShardServer

REDUCERS = ("mean", "sum", "max", "count")

#: Generous wall-clock ceiling for operations that must fail *promptly*
#: (the io_timeout used below is 2s; anything near this bound is a hang).
PROMPT_S = 20.0


def _fill_windows(store, start, stop, n_servers=16):
    """Deterministic ingest for windows ``[start, stop)``.

    Pure function of (pool, dc, counter, window), so any two stores fed
    the same window range hold identical rows — the twin-comparison
    backbone of this file, and splittable at any window boundary to
    bracket a mid-ingest crash.
    """
    for pool in ("A", "B"):
        for dc in ("dc1", "dc2"):
            ids = [f"{dc}.{pool}.s{i:03d}" for i in range(n_servers)]
            indices = store.intern_servers(ids)
            base = float(ord(pool) * 7 + ord(dc[-1]))
            for window in range(start, stop):
                for offset, counter in enumerate(("cpu", "rps")):
                    values = (
                        np.arange(n_servers, dtype=np.float64) * 0.75
                        + window * 1.25 + offset * 10.0 + base
                    )
                    store.record_batch(pool, dc, counter, window, indices, values)
    return store


def _assert_twins(single, sharded, tmp_path, tag):
    """Every query class and the export must match bit-for-bit."""
    assert sharded.sample_count() == single.sample_count()
    assert sharded.pools == single.pools
    assert sharded.max_window == single.max_window
    for reducer in REDUCERS:
        a = single.pool_window_aggregate("A", "cpu", reducer=reducer)
        b = sharded.pool_window_aggregate("A", "cpu", reducer=reducer)
        np.testing.assert_array_equal(a.windows, b.windows)
        np.testing.assert_array_equal(a.values, b.values)
    wa, na, ma = single.pool_matrix("B", "rps")
    wb, nb, mb = sharded.pool_matrix("B", "rps")
    np.testing.assert_array_equal(wa, wb)
    assert na == nb
    np.testing.assert_array_equal(ma, mb)
    a = single.per_server_values("A", "rps")
    b = sharded.per_server_values("A", "rps")
    assert set(a) == set(b)
    for server in a:
        np.testing.assert_array_equal(a[server], b[server])
    single_path = tmp_path / f"single-{tag}.csv"
    sharded_path = tmp_path / f"sharded-{tag}.csv"
    assert export_store(single, single_path) == export_store(sharded, sharded_path)
    assert single_path.read_bytes() == sharded_path.read_bytes()


class TestKillPrimaryMidIngest:
    """The tentpole acceptance test: SIGKILL the primary, keep going."""

    @pytest.mark.slow
    @pytest.mark.parametrize("pipeline_depth", [0, 4], ids=["sync", "pipelined"])
    def test_archive_byte_identical_after_kill9(
        self, tmp_path, pipeline_depth, shard_server_processes
    ):
        primary, primary_addr = shard_server_processes.spawn()
        replica, replica_addr = shard_server_processes.spawn()
        store = None
        try:
            single = _fill_windows(MetricStore(), 0, 40)
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[primary_addr, primary_addr],
                replica_addrs=[replica_addr, replica_addr],
                flush_rows=256,
                pipeline_depth=pipeline_depth,
                io_timeout=30,
            )
            _fill_windows(store, 0, 20)
            # A query is the sync barrier: every member has consumed
            # every frame the facade flushed so far.
            assert store.sample_count() > 0
            primary.kill()  # SIGKILL — no goodbye, no FIN ordering
            primary.wait(timeout=30)
            # Ingest straight into the corpse: the dead sessions fail
            # mid-run and both shards fail over to their replicas.
            _fill_windows(store, 20, 40)
            _assert_twins(single, store, tmp_path, f"kill9-{pipeline_depth}")
            for shard in store.shards:
                assert shard.live_addresses == (replica_addr,)
                assert shard.address == primary_addr  # identity is stable
        finally:
            if store is not None:
                store.close()
            shard_server_processes.reap(primary)
            shard_server_processes.reap(replica)


class TestRestartRejoin:
    """Stop a shard's server, restart, resync — bit-identical again."""

    @pytest.mark.parametrize(
        "journal_rows", [1 << 20, 200], ids=["in-memory", "spilled"]
    )
    def test_rejoin_matches_never_crashed_twin(self, tmp_path, journal_rows):
        single = _fill_windows(MetricStore(), 0, 30)
        with ShardServer("127.0.0.1:0") as keeper:
            victim = ShardServer("127.0.0.1:0").start()
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[keeper.address, victim.address],
                journal_rows=journal_rows,
                flush_rows=128,
                io_timeout=30,
            )
            try:
                _fill_windows(store, 0, 30)
                assert store.sample_count() == single.sample_count()
                if journal_rows == 200:
                    # The small journal must actually have exercised the
                    # disk spill, or the "spilled" case proves nothing.
                    assert store._journals[1].spilled_batches > 0
                victim.stop()  # takes its sessions down with it: a crash
                with pytest.raises(RuntimeError, match="shard 1"):
                    # An uncached query that must touch the dead shard.
                    store.pool_window_aggregate("A", "cpu", reducer="sum")
                with ShardServer("127.0.0.1:0") as reborn:
                    store.rejoin_shard(1, address=reborn.address)
                    assert store.shards[1].address == reborn.address
                    _assert_twins(single, store, tmp_path, f"rejoin-{journal_rows}")
            finally:
                store.close()
                victim.stop()

    def test_rejoin_requires_journal(self, shard_server):
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address]
        ) as store:
            with pytest.raises(RuntimeError, match="journal_rows"):
                store.rejoin_shard(0)

    def test_rejoin_validation(self, shard_server):
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address], journal_rows=100
        ) as store:
            with pytest.raises(ValueError, match="out of range"):
                store.rejoin_shard(5)
        with ShardedMetricStore(n_shards=2) as store:
            with pytest.raises(ValueError, match="tcp"):
                store.rejoin_shard(0)

    def test_rejoin_failure_leaves_old_handle_and_is_retryable(self, tmp_path):
        single = _fill_windows(MetricStore(), 0, 10)
        victim = ShardServer("127.0.0.1:0").start()
        store = ShardedMetricStore(
            backend="tcp", shard_addrs=[victim.address],
            journal_rows=1 << 20, io_timeout=30, connect_timeout=0.3,
        )
        try:
            _fill_windows(store, 0, 10)
            store.flush()
            victim.stop()
            # Rejoin towards a dead address fails cleanly ...
            with pytest.raises((RuntimeError, ConnectionError)):
                store.rejoin_shard(0)
            # ... and a retry against a live server still succeeds.
            with ShardServer("127.0.0.1:0") as reborn:
                store.rejoin_shard(0, address=reborn.address)
                _assert_twins(single, store, tmp_path, "retry")
        finally:
            store.close()
            victim.stop()


class TestShardJournal:
    """The journal itself: order, spill, replay, close."""

    def test_replay_preserves_order_across_spills(self):
        journal = ShardJournal(memory_rows=3)
        for i in range(10):
            journal.append("record_columns", (i,), 1)
        assert journal.spilled_batches > 0
        replayed = [args[0] for _method, args in journal.replay()]
        assert replayed == list(range(10))
        # Replay is repeatable (rejoin may be retried).
        assert [args[0] for _m, args in journal.replay()] == list(range(10))
        journal.close()
        journal.close()  # idempotent

    def test_memory_stays_bounded(self):
        journal = ShardJournal(memory_rows=5)
        for i in range(100):
            journal.append("record_columns", (i,), 1)
        assert len(journal._commands) < 5
        journal.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardJournal(memory_rows=0)


class TestFaultMatrix:
    """Un-replicated shard + injected fault = named error, never a hang."""

    EXPECT = {
        "drop": "I/O timed out",
        "hang": "I/O timed out",
        "corrupt": "connection lost",
        "kill": "connection lost",
    }

    @pytest.mark.parametrize("mode", sorted(EXPECT))
    def test_fault_surfaces_as_named_per_shard_error(self, mode):
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address],
                flush_rows=64, pipeline_depth=0, io_timeout=2,
            )
            try:
                indices = store.intern_servers([f"s{i}" for i in range(8)])
                store.record_batch("A", "dc1", "cpu", 0, indices, np.ones(8))
                store.flush()
                assert store.sample_count() == 8  # healthy before the fault
                wrapped = inject_store(store, FaultSpec(mode))
                assert isinstance(wrapped, FaultyTransport)
                start = time.monotonic()
                with pytest.raises(RuntimeError, match=r"shard 0 \(") as err:
                    store.record_batch(
                        "A", "dc1", "cpu", 1, indices, np.ones(8)
                    )
                    store.flush()
                    store.pool_window_aggregate("A", "cpu", reducer="sum")
                elapsed = time.monotonic() - start
                assert self.EXPECT[mode] in str(err.value)
                assert server.address in str(err.value)
                assert elapsed < PROMPT_S, f"{mode} took {elapsed:.1f}s"
            finally:
                store.close()

    def test_delay_mode_is_benign(self, tmp_path):
        single = _fill_windows(MetricStore(), 0, 5, n_servers=4)
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address], io_timeout=30,
            )
            try:
                wrapped = inject_store(store, FaultSpec("delay", delay_s=0.001))
                _fill_windows(store, 0, 5, n_servers=4)
                _assert_twins(single, store, tmp_path, "delay")
                assert wrapped.frames_sent > 0
            finally:
                store.close()

    def test_after_frames_defers_the_fault(self):
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp", shard_addrs=[server.address],
                pipeline_depth=0, io_timeout=2,
            )
            try:
                wrapped = inject_store(store, FaultSpec("kill", after_frames=2))
                indices = store.intern_servers(["a", "b"])
                store.record_batch("A", "dc1", "cpu", 0, indices, np.ones(2))
                store.flush()                     # frame 1: passes
                assert store.sample_count() == 2  # frame 2: passes
                assert not wrapped.armed or wrapped.frames_sent >= 2
                with pytest.raises(RuntimeError, match="connection lost"):
                    store.record_batch(
                        "A", "dc1", "cpu", 1, indices, np.ones(2)
                    )
                    store.flush()
                    store.sample_count()
            finally:
                store.close()

    def test_replica_turns_fault_into_failover(self, tmp_path):
        """Same kill fault, but with a replica: run completes, bits equal."""
        single = _fill_windows(MetricStore(), 0, 10, n_servers=4)
        with ShardServer("127.0.0.1:0") as server:
            store = ShardedMetricStore(
                backend="tcp",
                shard_addrs=[server.address],
                replica_addrs=[server.address],
                flush_rows=32, pipeline_depth=0, io_timeout=30,
            )
            try:
                inject_store(store, FaultSpec("kill", after_frames=3))
                _fill_windows(store, 0, 10, n_servers=4)
                _assert_twins(single, store, tmp_path, "failover")
                assert len(store.shards[0].live_addresses) == 1
            finally:
                store.close()


class TestFaultSpecParsing:
    def test_modes_and_after(self):
        assert parse_fault_spec("kill") == FaultSpec("kill")
        assert parse_fault_spec("HANG:7").mode == "hang"
        assert parse_fault_spec("drop:3").after_frames == 3

    @pytest.mark.parametrize("bad", ["explode", "kill:x", "kill:-1", ""])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_transport_wrapper_validation(self):
        with pytest.raises(ValueError):
            FaultyTransport(object(), "explode")
        with pytest.raises(ValueError):
            FaultyTransport(object(), "kill", after_frames=-1)

    def test_inject_store_validation(self, shard_server):
        with ShardedMetricStore(n_shards=2) as store:
            with pytest.raises(ValueError, match="tcp"):
                inject_store(store, FaultSpec("kill"))
        with ShardedMetricStore(
            backend="tcp", shard_addrs=[shard_server.address]
        ) as store:
            with pytest.raises(ValueError, match="out of range"):
                inject_store(store, FaultSpec("kill", shard=3))


class TestCliFaultSurface:
    """--replica-addrs / --inject-fault through ``repro simulate``."""

    BASE = [
        "simulate",
        "--windows", "6",
        "--servers", "2",
        "--datacenters", "1",
        "--pools", "B",
    ]

    def test_replica_addrs_requires_tcp_backend(self):
        assert main(self.BASE + ["--replica-addrs", "127.0.0.1:9400"]) == 2

    def test_replica_addrs_must_align_with_shards(self):
        assert main(self.BASE + [
            "--shard-backend", "tcp",
            "--shard-addrs", "127.0.0.1:9400,127.0.0.1:9401",
            "--replica-addrs", "127.0.0.1:9402",
        ]) == 2

    def test_inject_fault_requires_tcp_backend(self):
        assert main(self.BASE + ["--inject-fault", "kill"]) == 2

    def test_inject_fault_rejects_unknown_mode(self):
        assert main(self.BASE + [
            "--shard-backend", "tcp",
            "--shard-addrs", "127.0.0.1:9400",
            "--inject-fault", "explode",
        ]) == 2

    @pytest.mark.slow
    def test_injected_kill_fails_over_with_replica(
        self, tmp_path, shard_server_processes
    ):
        """End to end: the replicated CLI run survives its own fault
        injection and writes the byte-identical archive; the same fault
        without a replica is the named per-shard failure (exit 1)."""
        primary, primary_addr = shard_server_processes.spawn()
        replica, replica_addr = shard_server_processes.spawn()
        try:
            single = tmp_path / "single.csv"
            failover = tmp_path / "failover.csv"
            assert main(self.BASE + [str(single)]) == 0
            assert main(self.BASE + [
                "--shard-backend", "tcp",
                "--shard-addrs", primary_addr,
                "--replica-addrs", replica_addr,
                "--inject-fault", "kill",
                str(failover),
            ]) == 0
            assert single.read_bytes() == failover.read_bytes()
            # No replica: the same fault is a run-ending per-shard error.
            assert main(self.BASE + [
                "--shard-backend", "tcp",
                "--shard-addrs", replica_addr,
                "--inject-fault", "kill",
            ]) == 1
        finally:
            shard_server_processes.reap(primary)
            shard_server_processes.reap(replica)
