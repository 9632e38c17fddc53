"""Hash-partitioned sharding of the metric store.

The paper's production pipeline ingests ~3 GB/s by spreading counter
rows across many trace-store machines and merging scoped queries over
the partitions.  :class:`ShardedMetricStore` is that topology behind
one facade: N shards, rows routed by
``interned_server_index % n_shards``, one shared
:class:`~repro.telemetry.store.ServerInterner` (or a replicated copy
per worker process) so indices — and thus query ordering — stay
globally consistent.

Four interchangeable **backends** decide where the shards live:

``"serial"``
    N local :class:`~repro.telemetry.store.MetricStore` objects,
    appended to one after another on the caller's thread.  Zero
    dispatch overhead; the baseline every other backend must match
    bit-for-bit.
``"threads"``
    The same local shards, fanned out through a
    ``concurrent.futures`` thread pool (``workers`` wide).  Each
    partition lands on exactly one shard per call, so the fan-out
    needs no locks; NumPy append work releases the GIL, which is
    where overlap pays on multi-core machines.
``"processes"``
    Each shard is a :class:`~repro.telemetry.workers.ShardWorker` —
    a ``MetricStore`` owned by a ``multiprocessing`` child, fed
    pickled-ndarray command messages over a pipe (coalesced by a
    batching/flush protocol) and queried over synchronous RPC.  Every
    row pays one pickling crossing, so on a single CPU this is
    strictly slower than serial — its value is moving shard memory
    and query CPU off the ingesting process, the stepping stone to
    shards on other machines.  See :mod:`repro.telemetry.workers`
    for the message protocol.
``"tcp"``
    Each shard is a :class:`~repro.telemetry.workers.TcpShardClient`
    session on a ``repro shard-server`` (one ``host:port`` per shard
    in ``shard_addrs``; the same address may repeat — every
    connection gets its own fresh store).  Identical protocol and
    coalescing as the processes backend, over length-prefixed pickle
    frames instead of a pipe — true multi-machine shards.  See
    ``docs/DISTRIBUTED.md`` for the wire format and operations.

**Queries** merge shard results shard-wise, identically for every
backend:

* ``count`` / ``max`` aggregates sum (respectively maximum) per-shard
  bincount partials over the union of windows — exact, because integer
  sums and maxima are associative;
* ``sum`` / ``mean`` aggregates re-gather the raw shard columns into
  the single store's canonical accumulation order first (float addition
  is *not* associative, so summing per-shard partials would drift in
  the last ulp and break the bit-identity guarantee);
* :meth:`pool_matrix` stacks per-shard dense matrices by column slice
  (every cell lives on exactly one shard);
* :meth:`per_server_values` and :meth:`server_series` route to the one
  shard that owns the server.

The result: every query on a :class:`ShardedMetricStore` fed by the
batch (or blocked-batch) simulation engine is **bit-identical** to the
same query on a single :class:`MetricStore` fed by the same engine —
for all four backends, including byte-identical archive exports —
proven by ``tests/test_sharded_store.py`` and
``tests/test_sim_equivalence.py``.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.telemetry.series import TimeSeries
from repro.telemetry.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    parse_address,
)
from repro.telemetry.workers import (
    DEFAULT_FLUSH_ROWS,
    DEFAULT_PIPELINE_DEPTH,
    ReplicatedShardClient,
    ShardClient,
    ShardWorker,
    TcpShardClient,
)
from repro.telemetry.store import (
    MetricStore,
    ServerInterner,
    TableKey,
    _TrackedAggregate,
    columnise_samples,
    window_aggregate_arrays,
)

_REDUCERS = ("mean", "sum", "max", "count")

#: Valid values of the ``backend`` constructor knob.
BACKENDS = ("serial", "threads", "processes", "tcp")

#: Backends whose shards live behind a connection (buffered ingest,
#: explicit flush, close() tears the connection down).
_REMOTE_BACKENDS = ("processes", "tcp")

#: A shard handle: a local store or a remote-shard client proxy
#: (worker process, TCP session, or replicated TCP group).  All expose
#: the same ingest/query surface, which is what lets the facade treat
#: "where does this shard live" as a construction detail.
Shard = Union[MetricStore, ShardClient, ReplicatedShardClient]


class ShardJournal:
    """Replayable log of one shard's ingest commands, spillable to disk.

    The raw material of :meth:`ShardedMetricStore.rejoin_shard`: every
    ingest command the facade dispatches to a shard is also appended
    here, so a restarted shard server can be replayed back to the
    exact pre-crash store state (commands re-run in the original
    order produce bit-identical tables).

    Memory is bounded: commands are journaled *by reference* (stores
    never mutate ingested columns, so no copy is needed), and once
    ``memory_rows`` rows are buffered the batch is pickled to an
    anonymous temp file and the references dropped — the journal's
    steady-state memory is one batch, however long the run.
    ``replay`` streams spilled batches back from disk first, then the
    still-buffered tail, in exact append order.

    Single-owner, like the facade's ingest path; not thread-safe.
    """

    def __init__(self, memory_rows: int) -> None:
        if memory_rows < 1:
            raise ValueError("memory_rows must be >= 1")
        self._memory_rows = memory_rows
        self._commands: List[Tuple[str, tuple]] = []
        self._rows = 0
        self._spill = None
        #: How many batches went to disk (observable spill behaviour,
        #: asserted by the fault-tolerance tests).
        self.spilled_batches = 0

    def append(self, method: str, args: tuple, n_rows: int) -> None:
        self._commands.append((method, args))
        self._rows += n_rows
        if self._rows >= self._memory_rows:
            self._spill_buffer()

    def _spill_buffer(self) -> None:
        if self._spill is None:
            self._spill = tempfile.TemporaryFile(prefix="shard-journal-")
        pickle.dump(
            self._commands, self._spill, protocol=pickle.HIGHEST_PROTOCOL
        )
        self._commands = []
        self._rows = 0
        self.spilled_batches += 1

    def replay(self) -> Iterator[Tuple[str, tuple]]:
        """Yield every journaled ``(method, args)`` in append order.

        Consume fully before appending again: replay rewinds the spill
        file and seeks back to the end only once exhausted.
        """
        if self._spill is not None:
            self._spill.flush()
            self._spill.seek(0)
            while True:
                try:
                    batch = pickle.load(self._spill)
                except EOFError:
                    break
                yield from batch
            self._spill.seek(0, 2)
        yield from list(self._commands)

    def close(self) -> None:
        """Drop the buffer and delete the spill file; idempotent."""
        if self._spill is not None:
            try:
                self._spill.close()
            except Exception:  # pragma: no cover - best effort
                pass
            self._spill = None
        self._commands = []
        self._rows = 0


def _shard_member_addresses(
    shard_addrs: Sequence[str],
    replica_addrs: Optional[Sequence],
) -> List[Tuple[str, ...]]:
    """Resolve the tcp topology: per shard, (primary, *replicas).

    ``replica_addrs`` must align with ``shard_addrs`` when given; each
    entry is one ``host:port``, a sequence of them, or ``None``/``""``
    for an un-replicated shard.  Every address is parse-validated here,
    before anything is dialled.
    """
    if replica_addrs is not None and len(replica_addrs) != len(shard_addrs):
        raise ValueError(
            f"replica_addrs must align with shard_addrs "
            f"({len(replica_addrs)} != {len(shard_addrs)})"
        )
    members: List[Tuple[str, ...]] = []
    for shard_id, address in enumerate(shard_addrs):
        parse_address(address)
        addresses = [address]
        if replica_addrs is not None:
            entry = replica_addrs[shard_id]
            replicas = (
                []
                if entry is None or entry == ""
                else [entry] if isinstance(entry, str) else list(entry)
            )
            for replica in replicas:
                parse_address(replica)
            addresses.extend(replicas)
        members.append(tuple(addresses))
    return members


class ShardedMetricStore:
    """N hash-partitioned metric-store shards behind one facade.

    Drop-in replacement for a single :class:`MetricStore`: the public
    surface (interning, ``record*`` ingest, every query, and
    :meth:`iter_tables` for the archive exporter) matches.  Query
    results are bit-identical to a single store fed the same batches —
    independent of ``backend`` — provided each table's rows arrive in
    canonical (window asc, server asc) order, which every simulation
    engine guarantees; for arbitrary ingest orders, ``sum``/``mean``
    aggregates may differ from the single store in the last ulp (the
    facade re-accumulates in canonical order, the single store in raw
    append order), while all other queries remain exact.

    Parameters
    ----------
    n_shards:
        Number of partitions.  Rows are routed by
        ``server_index % n_shards``, so one server's history always
        lives on one shard.
    workers:
        Ingest fan-out width for the ``"threads"`` backend (capped at
        ``n_shards`` — more workers than shards cannot help).  The
        other backends reject ``workers > 1`` to catch confused call
        sites: serial has no fan-out at all, and processes/tcp always
        run exactly one remote shard per partition.
    backend:
        ``"serial"``, ``"threads"``, ``"processes"`` or ``"tcp"`` (see
        the module docstring for the trade-offs).  ``None`` (default)
        keeps the historical behaviour: ``"threads"`` when
        ``workers > 1``, ``"serial"`` otherwise.
    flush_rows:
        Remote backends (processes/tcp) only: how many buffered rows
        trigger one coalesced ingest message to a shard (see
        :meth:`ShardClient.flush`).  Smaller values lower peak memory;
        larger values amortise pickling better.
    shard_addrs:
        TCP backend only (and required by it): one ``host:port`` per
        shard, each dialled as its own ``repro shard-server`` session.
        Addresses may repeat — every connection gets an independent
        store on the server — and ``n_shards`` is taken from
        ``len(shard_addrs)``.
    connect_timeout:
        TCP backend only: how long each shard connection retries a
        refused dial before failing (covers starting client and
        server concurrently).
    pipeline_depth:
        Remote backends only: how many coalesced ingest frames may be
        queued or in flight per shard before the next flush blocks
        (each shard gets one writer thread, so partitioning the next
        block overlaps with the wire).  0 sends synchronously on the
        caller's thread — the pre-pipelining behaviour.  Ordering is
        unaffected either way: queries drain the queue first, so
        reads always observe all previously buffered ingest.
    io_timeout:
        TCP backend only: per-operation socket bound (seconds).  A
        send or recv that makes no progress for this long raises a
        per-shard ``RuntimeError`` naming the shard and address
        instead of hanging on a hung-but-alive peer; ``None`` (or
        ``<= 0``) disables the bound.
    binary_frames:
        TCP backend only: offer the pickle-free binary column frame
        to each shard server (used when the peer advertises it; a PR 4
        server transparently keeps receiving pickle frames).  False
        forces pickle framing for benchmarking or debugging.
    replica_addrs:
        TCP backend only: replica addresses aligned with
        ``shard_addrs`` — entry *i* is the replica (a ``host:port``
        string) or replica set (a sequence of them) mirroring shard
        *i*; ``None`` or ``""`` entries leave that shard
        un-replicated.  Every ingest frame fans out to the whole
        member set, so when a primary dies or hangs (the per-shard
        timeout/EOF errors) queries and further ingest fail over to a
        live replica with **bit-identical** results — replicas
        consumed identical coalesced frames, so failover is invisible
        in every answer and export.  The run only fails when a shard's
        *last* member dies.
    journal_rows:
        TCP backend only: enable the per-shard ingest journal that
        :meth:`rejoin_shard` replays into a restarted shard server,
        keeping at most this many rows buffered in memory per shard
        before spilling the batch to an anonymous temp file.  ``None``
        (default) disables journaling — and with it ``rejoin_shard``
        — at zero cost.

    A store with remote shards owns connections (and, for processes,
    child processes), so treat it like a file: use the
    context-manager form or call :meth:`close` when done.  ``close``
    is idempotent, fork-safe, and safe to call while another thread
    is mid-ingest — the racing ingest either completes or raises a
    clean ``RuntimeError``, never a torn dispatch.
    """

    def __init__(
        self,
        n_shards: int = 4,
        workers: int = 1,
        backend: Optional[str] = None,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        shard_addrs: Optional[Sequence[str]] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
        binary_frames: bool = True,
        replica_addrs: Optional[Sequence] = None,
        journal_rows: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if pipeline_depth < 0:
            raise ValueError("pipeline_depth must be >= 0")
        if backend is None:
            backend = "threads" if workers > 1 else "serial"
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if backend == "serial" and workers > 1:
            raise ValueError("backend='serial' cannot use workers > 1")
        if backend in _REMOTE_BACKENDS and workers > 1:
            raise ValueError(
                f"backend={backend!r} always runs one remote shard per "
                "partition; workers > 1 is meaningless"
            )
        shard_addresses: Optional[List[Tuple[str, ...]]] = None
        if backend == "tcp":
            if not shard_addrs:
                raise ValueError(
                    "backend='tcp' requires shard_addrs (one host:port "
                    "per shard)"
                )
            # Validate the whole topology — primaries and replicas —
            # before dialling anything: a typo in address 3 must not
            # leave sessions 0-2 connected to servers that will never
            # get a stop message.
            shard_addresses = _shard_member_addresses(shard_addrs, replica_addrs)
            n_shards = len(shard_addresses)
            if journal_rows is not None and journal_rows < 1:
                raise ValueError("journal_rows must be >= 1 (or None)")
        else:
            if shard_addrs is not None:
                raise ValueError(
                    "shard_addrs is only meaningful with backend='tcp'"
                )
            if replica_addrs is not None:
                raise ValueError(
                    "replica_addrs is only meaningful with backend='tcp'"
                )
            if journal_rows is not None:
                raise ValueError(
                    "journal_rows is only meaningful with backend='tcp'"
                )
        self._backend = backend
        self._interner = ServerInterner()
        self._shard_addresses = shard_addresses
        self._tcp_kwargs = dict(
            flush_rows=flush_rows,
            connect_timeout=connect_timeout,
            io_timeout=io_timeout,
            binary_frames=binary_frames,
            pipeline_depth=pipeline_depth,
        )
        self._journals: Optional[List[ShardJournal]] = (
            [ShardJournal(journal_rows) for _ in range(n_shards)]
            if backend == "tcp" and journal_rows is not None
            else None
        )
        self._shards: List[Shard]
        if backend == "processes":
            self._shards = [
                ShardWorker(
                    shard_id, self._interner, flush_rows=flush_rows,
                    pipeline_depth=pipeline_depth,
                )
                for shard_id in range(n_shards)
            ]
        elif backend == "tcp":
            self._shards = []
            try:
                for shard_id, addresses in enumerate(shard_addresses):
                    self._shards.append(self._dial_shard(shard_id, addresses))
            except BaseException:
                # A later dial failed: say goodbye to the sessions
                # already opened instead of leaking them server-side.
                for shard in self._shards:
                    try:
                        shard.close()
                    except Exception:  # pragma: no cover - best effort
                        pass
                raise
        else:
            self._shards = [
                MetricStore(interner=self._interner) for _ in range(n_shards)
            ]
        if backend == "threads" and workers == 1:
            workers = n_shards
        self._workers = min(workers, n_shards)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._agg_cache: Dict[Tuple, TimeSeries] = {}
        #: Streaming state mirrored at the facade: the eviction
        #: watermark applied to every shard, and the incrementally
        #: maintained aggregate series (facade-merged, so they are
        #: bit-identical to the unsharded store's tracked series).
        self._evicted_before: int = 0
        self._tracked: Dict[Tuple, _TrackedAggregate] = {}
        self._lifecycle_lock = threading.Lock()
        self._closed = False
        #: Synchronization seam for concurrent readers (the live query
        #: server) — same contract as :attr:`MetricStore.lock`: the
        #: facade stays single-owner, a streaming writer holds the lock
        #: across each block span and readers take it per query.
        self._lock = threading.RLock()
        # One-entry partition memo: the blocked engine hands the same
        # (windows, server_indices) array pair to record_columns once
        # per counter, so the shard routing of a block is computed once
        # and reused ~a-dozen times.  Holding strong references to the
        # keyed arrays keeps the identity check sound (their ids cannot
        # be recycled while cached).
        self._partition_cache: Optional[Tuple] = None

    @property
    def lock(self) -> "threading.RLock":
        """Reentrant lock serializing a clock-loop writer and readers.

        Queries on remote backends flush shard ingest buffers, so a
        reader thread must never interleave with the writer's block —
        the streaming loop holds this across each ingest→seal→evict
        span and :class:`~repro.telemetry.query_server.\
LiveQuerySurface` takes it around every read.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def backend(self) -> str:
        """The shard placement backend: serial, threads, processes or tcp."""
        return self._backend

    @property
    def workers(self) -> int:
        """Thread fan-out width (``"threads"`` backend; 1 otherwise means
        the caller's thread does all appends)."""
        return self._workers

    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The underlying shard handles (read-only view, for tests).

        Local :class:`MetricStore` objects for the serial/threads
        backends, :class:`ShardWorker` / :class:`TcpShardClient`
        proxies for the remote backends — all answer the same query
        methods (the proxies over RPC).
        """
        return tuple(self._shards)

    def shard_of(self, server_index: int) -> int:
        """The shard that owns a server's rows (any backend)."""
        return server_index % len(self._shards)

    def _dial_shard(self, shard_id: int, addresses: Tuple[str, ...]) -> Shard:
        """Connect one tcp shard: a plain session or a replica group."""
        if len(addresses) == 1:
            return TcpShardClient(
                shard_id, self._interner, addresses[0], **self._tcp_kwargs
            )
        return ReplicatedShardClient(
            shard_id, self._interner, addresses, **self._tcp_kwargs
        )

    def rejoin_shard(self, shard_id: int, address: Optional[str] = None) -> None:
        """Re-attach a restarted shard server and replay its journal.

        The recovery path for the tcp backend: after shard
        ``shard_id``'s server died (its queries raise the per-shard
        connection error) and was restarted — on the same address or,
        with ``address``, somewhere new — this drops the dead session,
        dials a fresh one, sends the ``resync`` RPC (the serve loop
        swaps in an empty store and receives the *full* interner name
        table), and replays every journaled ingest command in original
        order.  The rejoined shard's store is then **bit-identical**
        to the pre-crash one: same commands, same order, same tables —
        every query and export answers as if the crash never happened.

        Requires ``journal_rows`` (journaling) to have been enabled at
        construction; raises ``RuntimeError`` otherwise.  For a
        replicated shard the whole member group is re-dialled and
        re-seeded.  On any failure the half-built session is closed
        and the old (dead) handle stays in place, so ``rejoin_shard``
        can simply be retried.
        """
        self._ensure_open()
        if self._backend != "tcp":
            raise ValueError("rejoin_shard requires backend='tcp'")
        if not 0 <= shard_id < len(self._shards):
            raise ValueError(
                f"shard_id {shard_id} out of range "
                f"(store has {len(self._shards)} shards)"
            )
        if self._journals is None:
            raise RuntimeError(
                "rejoin_shard requires the ingest journal — construct "
                "the store with journal_rows=N"
            )
        old = self._shards[shard_id]
        addresses = (
            (address,) if address is not None else tuple(old.addresses)
        )
        for member in addresses:
            parse_address(member)
        try:
            old.close()
        except Exception:  # pragma: no cover - dead peer teardown
            pass
        client = self._dial_shard(shard_id, addresses)
        try:
            client.resync()
            for method, args in self._journals[shard_id].replay():
                getattr(client, method)(*args)
            client.flush()
        except BaseException:
            try:
                client.close()
            except Exception:  # pragma: no cover - best effort
                pass
            raise
        self._shards[shard_id] = client
        self._shard_addresses[shard_id] = addresses
        self._agg_cache.clear()

    def close(self) -> None:
        """Release backend resources; idempotent, fork- and race-safe.

        Threads backend: shuts the executor down, letting already
        submitted shard appends finish.  Remote backends (processes /
        tcp): stops every remote shard (graceful ``stop`` message;
        worker children additionally get ``terminate()`` after a
        timeout), after which the store no longer answers queries —
        archive first.  Calling ``close`` a second time, or from a
        process that forked after construction, is a safe no-op for
        the original owner's shards: only the creating process ever
        tears remote shards down, so a forked child closing its
        inherited copy cannot yank live shards out from under the
        parent (regression-tested via
        ``multiprocessing.active_children()``).

        ``close`` may also race an in-flight ingest on another thread:
        the lifecycle lock makes the closed flag and the executor
        handoff atomic, so the racing ``record_*`` call either runs to
        completion before the executor drains or raises a clean
        ``RuntimeError("ShardedMetricStore is closed")`` — never the
        executor's own "cannot schedule new futures" surprise or a
        send on a torn-down worker connection.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        if self._backend in _REMOTE_BACKENDS:
            for shard in self._shards:
                shard.close()
        if self._journals is not None:
            for journal in self._journals:
                journal.close()

    def __enter__(self) -> "ShardedMetricStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self) -> None:
        """Force buffered remote ingest out (processes/tcp backends).

        No-op for serial/threads, where appends are synchronous.  Not
        normally needed — every query flushes the shard it reads — but
        useful to bound parent-side buffer memory at a known point.
        With pipelining the flushed frames may still be queued or in
        flight afterwards (bounded by ``pipeline_depth``); any query
        acts as the full drain barrier.
        """
        if self._backend in _REMOTE_BACKENDS:
            for shard in self._shards:
                shard.flush()

    def _ensure_open(self) -> None:
        """Ingest guard: a closed store must fail loudly, not race.

        Raised eagerly on every ``record_*`` entry point so the
        threads backend cannot submit to a drained executor and the
        remote backends cannot write to a torn-down connection.
        """
        if self._closed:
            raise RuntimeError("ShardedMetricStore is closed")

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("ShardedMetricStore is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix="metric-shard",
                )
            return self._executor

    # ------------------------------------------------------------------
    # Server interning (shared across shards)
    # ------------------------------------------------------------------
    @property
    def interner(self) -> ServerInterner:
        """The facade's authoritative id space.  Worker processes hold
        replicas, synced by name-delta messages (see
        :mod:`repro.telemetry.workers`)."""
        return self._interner

    def intern_server(self, server_id: str) -> int:
        """Map a server id to its stable global integer index."""
        return self._interner.intern(server_id)

    def intern_servers(self, server_ids: Sequence[str]) -> np.ndarray:
        """Intern many server ids at once (the batch hot path setup)."""
        return self._interner.intern_many(server_ids)

    def server_name(self, index: int) -> str:
        return self._interner.name(index)

    # ------------------------------------------------------------------
    # Ingest (shard fan-out)
    # ------------------------------------------------------------------
    def _dispatch(self, parts: List[Tuple[int, tuple]], method: str) -> None:
        """Run ``shard.<method>(*args)`` for every (shard id, args) part.

        Each partition touches exactly one shard, so concurrent
        dispatch needs no locking; the caller thread owns the interner
        and all bookkeeping that spans shards.  Backends differ only
        here: serial runs parts inline; threads submits them to the
        pool and waits; processes hands them to the worker proxies,
        whose buffered ingest returns immediately (the pickling cost is
        paid at flush time, the ack — if an ingest error occurred — at
        the next query).
        """
        if (
            self._backend == "threads"
            and self._workers > 1
            and len(parts) > 1
        ):
            executor = self._ensure_executor()
            try:
                futures = [
                    executor.submit(getattr(self._shards[shard_id], method), *args)
                    for shard_id, args in parts
                ]
            except RuntimeError as error:
                # Lost the race with close(): the executor drained
                # between _ensure_executor and submit.  Surface the
                # same clean error a pre-checked caller would see.
                raise RuntimeError("ShardedMetricStore is closed") from error
            for future in futures:
                future.result()
        else:
            for shard_id, args in parts:
                getattr(self._shards[shard_id], method)(*args)

    def record_columns(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        windows: np.ndarray,
        server_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Partition pre-columnised rows by server index and append.

        Same contract as :meth:`MetricStore.record_columns`; the
        relative row order within each shard is preserved, which is
        what keeps shard tables in the canonical (window, server)
        order the merge layer relies on — for the processes backend
        too, because each worker applies its command stream FIFO.
        With remote shards (processes/tcp), the partitioned arrays are
        buffered and later pickled once each; with serial/threads they
        are appended to local chunk lists with no copy.
        """
        self._ensure_open()
        if values.size == 0:
            return
        n = len(self._shards)
        if n == 1:
            if self._journals is not None:
                self._journals[0].append(
                    "record_columns",
                    (pool_id, datacenter_id, counter, windows,
                     server_indices, values),
                    int(values.size),
                )
            self._shards[0].record_columns(
                pool_id, datacenter_id, counter, windows, server_indices, values
            )
        else:
            cached = self._partition_cache
            if (
                cached is None
                or cached[0] is not windows
                or cached[1] is not server_indices
            ):
                # Route rows to shards once per distinct column pair.
                # Row positions (flatnonzero) rather than boolean masks:
                # the per-counter value gather then only touches the
                # selected rows.  The gathered windows/index arrays are
                # shared by every counter of the block, which is safe
                # for the same reason the unsharded store may receive
                # one windows array for all counters: stores never
                # mutate ingested columns.
                shard_ids = server_indices % n
                routing = []
                for shard_id in range(n):
                    rows = np.flatnonzero(shard_ids == shard_id)
                    if rows.size == 0:
                        continue
                    routing.append(
                        (shard_id, rows, windows[rows], server_indices[rows])
                    )
                cached = (windows, server_indices, routing)
                self._partition_cache = cached
            parts: List[Tuple[int, tuple]] = [
                (
                    shard_id,
                    (
                        pool_id,
                        datacenter_id,
                        counter,
                        shard_windows,
                        shard_indices,
                        values[rows],
                    ),
                )
                for shard_id, rows, shard_windows, shard_indices in cached[2]
            ]
            if self._journals is not None:
                # Journal before dispatch: rows being sent to a shard
                # that dies mid-dispatch must still be replayable.
                for shard_id, args in parts:
                    self._journals[shard_id].append(
                        "record_columns", args, int(args[5].size)
                    )
            self._dispatch(parts, "record_columns")
        if self._agg_cache:
            self._agg_cache.clear()

    def record_batch(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        window: int,
        server_ids: Sequence[str],
        values: np.ndarray,
    ) -> None:
        """Append one window of one counter for many servers at once.

        Same contract as :meth:`MetricStore.record_batch` (string ids
        or pre-interned index arrays; buffers may be reused by the
        caller afterwards — the facade copies before partitioning, so
        even process-buffered parts never alias caller memory).
        """
        if isinstance(server_ids, np.ndarray) and server_ids.dtype.kind in "iu":
            indices = np.array(server_ids, dtype=np.int64)
        else:
            indices = self.intern_servers(server_ids)
        values = np.array(values, dtype=float)
        if indices.size != values.size:
            raise ValueError("server_ids and values must be aligned")
        if indices.size == 0:
            return
        windows = np.full(indices.size, window, dtype=np.int64)
        self.record_columns(
            pool_id, datacenter_id, counter, windows, indices, values
        )

    def record_many(self, samples) -> None:
        """Append many samples, columnised per table then fanned out."""
        for (pool_id, dc_id, counter), windows, indices, values in columnise_samples(
            samples, self.intern_server
        ):
            self.record_columns(pool_id, dc_id, counter, windows, indices, values)

    # ------------------------------------------------------------------
    # Streaming: rolling retention and incremental aggregates
    # ------------------------------------------------------------------
    @property
    def evicted_before(self) -> int:
        """Windows below this index live in shard spill archives."""
        return self._evicted_before

    @property
    def sealed_through(self) -> int:
        """Largest window every tracked aggregate is final through; -1
        with no tracked aggregates (or before the first seal)."""
        if not self._tracked:
            return -1
        return min(t.sealed_through for t in self._tracked.values())

    def evict_windows(self, before: int) -> int:
        """Move rows with ``window < before`` to every shard's spill.

        Same contract as :meth:`MetricStore.evict_windows`, fanned out
        to all shards (each shard owns its servers' rows, so the union
        of shard evictions is exactly the unsharded eviction).  The
        command is journaled like ingest, so a rejoined shard replays
        its eviction history and reproduces the same hot/spill split.
        Returns the total rows evicted across shards.
        """
        self._ensure_open()
        if before <= self._evicted_before:
            return 0
        if self._journals is not None:
            for journal in self._journals:
                journal.append("evict_windows", (before,), 0)
        evicted = 0
        for shard in self._shards:
            evicted += int(shard.evict_windows(before) or 0)
        self._evicted_before = before
        if evicted and self._agg_cache:
            self._agg_cache.clear()
        return evicted

    def hot_sample_count(self) -> int:
        """Samples currently held in shard memory (excludes spill)."""
        return sum(int(shard.hot_sample_count()) for shard in self._shards)

    def track_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> None:
        """Maintain ``pool_window_aggregate(...)`` incrementally.

        Same contract as :meth:`MetricStore.track_aggregate`; the
        series is maintained at the facade (from facade-merged shard
        results), so it is bit-identical to the unsharded store's
        tracked series on every backend.
        """
        if reducer not in _REDUCERS:
            raise ValueError(f"unknown reducer {reducer!r}")
        key = (pool_id, counter, datacenter_id, reducer)
        if key not in self._tracked:
            self._tracked[key] = _TrackedAggregate(reducer)

    def seal_through(self, window: int) -> None:
        """Mark windows ``<= window`` complete; extend tracked series.

        Same contract as :meth:`MetricStore.seal_through`.  Each
        tracked aggregate merges only the newly sealed window range
        from the shards (partial merge for count/max, canonical
        re-gather for sum/mean) — per-window results are final once
        sealed, so the appended partials equal a full recompute.
        """
        for (pool_id, counter, datacenter_id, reducer), tracker in self._tracked.items():
            if window <= tracker.sealed_through:
                continue
            lo = tracker.sealed_through + 1
            series = self._compute_window_aggregate(
                pool_id, counter, datacenter_id, lo, window + 1, reducer
            )
            tracker.extend(
                np.asarray(series.windows, dtype=np.int64),
                np.asarray(series.values, dtype=float),
                window,
            )

    # ------------------------------------------------------------------
    # Introspection (shard unions)
    # ------------------------------------------------------------------
    @property
    def pools(self) -> Tuple[str, ...]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.pools)
        return tuple(sorted(names))

    @property
    def datacenters(self) -> Tuple[str, ...]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.datacenters)
        return tuple(sorted(names))

    @property
    def max_window(self) -> int:
        """Largest window index seen on any shard; -1 when empty."""
        return max(shard.max_window for shard in self._shards)

    def counters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.counters_for_pool(pool_id))
        return tuple(sorted(names))

    def servers_in_pool(
        self,
        pool_id: str,
        datacenter_id: Optional[str] = None,
    ) -> Tuple[str, ...]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.servers_in_pool(pool_id, datacenter_id))
        return tuple(sorted(names))

    def datacenters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.datacenters_for_pool(pool_id))
        return tuple(sorted(names))

    def datacenters_for_pool_counter(
        self, pool_id: str, counter: str
    ) -> Tuple[str, ...]:
        names: Set[str] = set()
        for shard in self._shards:
            names.update(shard.datacenters_for_pool_counter(pool_id, counter))
        return tuple(sorted(names))

    def sample_count(self) -> int:
        """Total number of stored samples across all shards.

        Doubles as the cheapest read-your-writes barrier on the
        processes backend: it flushes and round-trips every worker.
        """
        return sum(shard.sample_count() for shard in self._shards)

    def iter_tables(
        self,
    ) -> Iterator[Tuple[TableKey, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (key, windows, server indices, values) per shard table.

        A table key may appear once per shard (each shard holds its
        servers' slice of the table); the archive exporter regroups
        rows per server, and every server lives on exactly one shard,
        so exports come out **byte-identical** to a single store's —
        the processes backend ships each shard's tables back as one
        pickled list, in the same shard order.
        """
        for shard in self._shards:
            yield from shard.iter_tables()

    # ------------------------------------------------------------------
    # Queries (shard-wise merges)
    # ------------------------------------------------------------------
    def _dcs_for(self, pool_id: str, counter: str) -> List[str]:
        """Datacenters holding (pool, counter) rows on any shard, sorted."""
        dcs: Set[str] = set()
        for shard in self._shards:
            dcs.update(shard.datacenters_for_pool_counter(pool_id, counter))
        return sorted(dcs)

    def gather_columns(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shard rows re-merged into the single store's canonical order.

        Per datacenter (sorted, as :meth:`MetricStore._matching_tables`
        orders tables), shard columns are concatenated and stably
        lexsorted by (window, server index).  Because the batch and
        blocked engines append each table in exactly that order, the
        merged columns are bit-identical to what an unsharded store
        would hand its own aggregation kernel — including the float
        accumulation order of downstream ``np.bincount`` sums.  Shard
        placement is invisible here: local shards return array views,
        workers return pickled copies, and the merge is the same.
        """
        dcs = [datacenter_id] if datacenter_id is not None else self._dcs_for(
            pool_id, counter
        )
        ws: List[np.ndarray] = []
        ss: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        for dc in dcs:
            w_parts: List[np.ndarray] = []
            s_parts: List[np.ndarray] = []
            v_parts: List[np.ndarray] = []
            for shard in self._shards:
                w, s, v = shard.gather_columns(pool_id, counter, dc, start, stop)
                if w.size:
                    w_parts.append(w)
                    s_parts.append(s)
                    v_parts.append(v)
            if not w_parts:
                continue
            w = np.concatenate(w_parts) if len(w_parts) > 1 else w_parts[0]
            s = np.concatenate(s_parts) if len(s_parts) > 1 else s_parts[0]
            v = np.concatenate(v_parts) if len(v_parts) > 1 else v_parts[0]
            order = np.lexsort((s, w))
            ws.append(w[order])
            ss.append(s[order])
            vs.append(v[order])
        if not ws:
            empty = np.array([], dtype=np.int64)
            return empty, empty, np.array([], dtype=float)
        if len(ws) == 1:
            return ws[0], ss[0], vs[0]
        return np.concatenate(ws), np.concatenate(ss), np.concatenate(vs)

    def pool_window_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        reducer: str = "mean",
    ) -> TimeSeries:
        """Per-window aggregate merged across shards.

        ``count`` and ``max`` merge per-shard bincount partials over
        the union of windows (associative, hence exact — and the
        cheapest plan for process shards, since only the small partial
        series crosses the pipe).  ``sum`` and ``mean`` instead
        aggregate the canonically re-ordered gather of all shard rows,
        so their float accumulation order — and therefore every output
        bit — matches the unsharded store, at the cost of moving the
        raw columns (one pickled copy per process shard).  Results are
        memoized until the next ingest, like the single store's cache.
        """
        if reducer not in _REDUCERS:
            raise ValueError(f"unknown reducer {reducer!r}")
        if self._tracked:
            tracked = self._tracked.get(
                (pool_id, counter, datacenter_id, reducer)
            )
            if tracked is not None:
                lo = start if start is not None else 0
                hi = stop if stop is not None else self.max_window + 1
                if hi - 1 <= tracked.sealed_through:
                    # Served from the incrementally maintained series:
                    # no shard round-trips, no re-gather.
                    return tracked.series_slice(lo, hi)
        cache_key = (pool_id, counter, datacenter_id, start, stop, reducer)
        cached = self._agg_cache.get(cache_key)
        if cached is not None:
            return cached

        def memoize(series: TimeSeries) -> TimeSeries:
            series.windows.setflags(write=False)
            series.values.setflags(write=False)
            self._agg_cache[cache_key] = series
            return series

        return memoize(
            self._compute_window_aggregate(
                pool_id, counter, datacenter_id, start, stop, reducer
            )
        )

    def _compute_window_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str],
        start: Optional[int],
        stop: Optional[int],
        reducer: str,
    ) -> TimeSeries:
        """The uncached shard-merged aggregate behind
        :meth:`pool_window_aggregate` and :meth:`seal_through`."""
        empty = TimeSeries(np.array([], dtype=int), np.array([], dtype=float))
        if reducer in ("count", "max"):
            partials = [
                shard.pool_window_aggregate(
                    pool_id, counter, datacenter_id, start, stop, reducer
                )
                for shard in self._shards
            ]
            partials = [p for p in partials if len(p)]
            if not partials:
                return empty
            all_windows = partials[0].windows
            for part in partials[1:]:
                all_windows = np.union1d(all_windows, part.windows)
            fill = 0.0 if reducer == "count" else -np.inf
            acc = np.full(all_windows.size, fill)
            for part in partials:
                pos = np.searchsorted(all_windows, part.windows)
                if reducer == "count":
                    acc[pos] += part.values
                else:
                    np.maximum.at(acc, pos, part.values)
            return TimeSeries.from_sorted(all_windows, acc)

        windows, _servers, values = self.gather_columns(
            pool_id, counter, datacenter_id, start, stop
        )
        if windows.size == 0:
            return empty
        out_windows, out_values = window_aggregate_arrays(windows, values, reducer)
        return TimeSeries.from_sorted(out_windows, out_values)

    def per_server_values(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """All window values per server, merged across shards.

        Every server lives on exactly one shard, so the merge is a
        plain dict union — per-server arrays are the shard's arrays
        (or, for process shards, their pickled copies), bit-identical
        to the unsharded ones.
        """
        out: Dict[str, np.ndarray] = {}
        for shard in self._shards:
            out.update(
                shard.per_server_values(
                    pool_id, counter, datacenter_id, start, stop
                )
            )
        return out

    def server_series(
        self,
        pool_id: str,
        counter: str,
        server_id: str,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> TimeSeries:
        """Series of one counter on one server (routed to its shard).

        Exactly one shard — local object or worker RPC — answers; no
        merging, hence trivially bit-identical on every backend.
        """
        index = self._interner.index.get(server_id)
        if index is None:
            return TimeSeries(np.array([], dtype=int), np.array([], dtype=float))
        return self._shards[index % len(self._shards)].server_series(
            pool_id, counter, server_id, start, stop
        )

    def pool_matrix(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray]:
        """Dense (windows, server_ids, values) cube stacked from shards.

        Each shard contributes the column slice of the servers it owns
        (process shards build theirs in the child and ship one dense
        matrix back); rows are aligned on the union of the shards'
        windows.  Every cell is a single stored value, so stacking is
        exact on all backends.
        """
        index_of = self._interner.index
        parts = []  # (windows, server index array, matrix) per shard
        for shard in self._shards:
            windows, names, matrix = shard.pool_matrix(
                pool_id, counter, datacenter_id, start, stop
            )
            if matrix.size == 0:
                continue
            indices = np.array([index_of[name] for name in names], dtype=np.int64)
            parts.append((windows, indices, matrix))
        if not parts:
            return (
                np.array([], dtype=np.int64),
                (),
                np.empty((0, 0), dtype=float),
            )
        all_windows = parts[0][0]
        for windows, _indices, _matrix in parts[1:]:
            all_windows = np.union1d(all_windows, windows)
        all_servers = np.sort(np.concatenate([p[1] for p in parts]))
        out = np.full((all_windows.size, all_servers.size), np.nan)
        for windows, indices, matrix in parts:
            row_pos = np.searchsorted(all_windows, windows)
            col_pos = np.searchsorted(all_servers, indices)
            out[np.ix_(row_pos, col_pos)] = matrix
        names = tuple(self._interner.name(int(i)) for i in all_servers)
        return all_windows, names, out

    def all_values(
        self,
        counter: str,
        pool_ids: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Every stored value of ``counter`` across shards.

        Values come out shard-major (shard 0's rows first), so the
        *multiset* matches a single store but the order differs; the
        fleet-distribution consumers are order-insensitive.  Same
        shard-major order on every backend.
        """
        chunks = [shard.all_values(counter, pool_ids) for shard in self._shards]
        chunks = [c for c in chunks if c.size]
        if not chunks:
            return np.array([], dtype=float)
        return np.concatenate(chunks)
