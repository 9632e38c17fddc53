"""Remote shards: worker processes and TCP servers behind one protocol.

The paper's pipeline spreads its ~3 GB/s counter stream across many
trace-store *machines*; :class:`~repro.telemetry.sharding.\
ShardedMetricStore` reproduces the partitioning in-process, and this
module moves each partition behind a real placement boundary.  The
shape is the classic actor: one
:class:`~repro.telemetry.store.MetricStore` owned by a serve loop on
the far side of a :mod:`~repro.telemetry.transport` connection, a
command channel in front of it, and a parent-side proxy object whose
surface mirrors the store's query API — the facade cannot tell a
remote shard from a local one.

Two placements share everything but the pipe:

:class:`ShardWorker`
    One ``multiprocessing`` daemon child per shard, reached over a
    duplex pipe (:class:`~repro.telemetry.transport.PipeTransport`).
    The ``"processes"`` backend.
:class:`TcpShardClient` / :class:`ShardServer`
    One TCP session per shard, reached over length-prefixed frames
    (:class:`~repro.telemetry.transport.TcpTransport`).  A
    :class:`ShardServer` — also exposed as the ``repro shard-server``
    CLI command — accepts any number of sessions and gives each one
    its own fresh ``MetricStore``, so *one connection is one shard*
    and a facade pointed at ``host:port,host:port,...`` has true
    multi-machine shards.  The ``"tcp"`` backend.

Message protocol (one connection per shard, all messages tuples,
strictly FIFO; the wire encoding is the transport's business):

``("ingest", names, commands)``
    Fire-and-forget bulk append.  ``commands`` is a list of
    ``(method, args)`` pairs — ``record_columns`` calls whose ndarray
    arguments pickle as raw buffers — applied in order by the serve
    loop.  Any other method name (:data:`INGEST_METHODS` is the
    allowlist) refuses the whole frame with an
    :class:`IngestCommandError`, deferred to the next ``call``.  Small
    parts coalesce: the proxy buffers commands until ``flush_rows`` rows
    are pending (or a query/close forces a flush), so one message
    amortises encoding and wakeup cost across many appends.
``("call", names, method, args, kwargs)``
    Synchronous query RPC.  The serve loop resolves ``method`` on its
    store (plain attributes answer property reads, generators are
    materialised into lists so they can cross the connection) and
    replies ``("ok", result)`` or ``("err", exception)``.  Any
    exception a previous *ingest* message raised is delivered here
    instead — ingest errors are deferred, never lost.
``("stop",)``
    Graceful shutdown of this session; so is a clean EOF (the client
    vanishing ends the session, never the server).

One method name is reserved: ``resync`` makes the serve loop
drop this session's store and start over from the client's
authoritative state — the *full* interner name table rides the resync
call's names field (not a delta), and the client follows up with
ordinary ingest frames replaying its journal.  This is the rejoin
path for a restarted shard server: the rebuilt session reconverges to
the exact pre-crash store state (see
:meth:`~repro.telemetry.sharding.ShardedMetricStore.rejoin_shard`).

**Replication**: :class:`ReplicatedShardClient` mirrors one shard
across several TCP sessions (a primary plus replicas).  Every ingest
call fans out to every live member, so each member buffers and
coalesces the identical command stream into identical frames; queries
are answered by the first live member.  When a member dies or times
out (a :class:`ShardConnectionError` — the PR 5 timeout/EOF paths) it
is retired and the survivors carry on: queries and subsequent ingest
fail over with **bit-identical** answers, because every member's store
consumed the same calls in the same order.  Only when every member of
a shard has failed does the error reach the caller.

**Pipelined ingest**: with ``pipeline_depth > 0`` (the default), a
proxy's ``flush`` hands the coalesced frame to a per-shard writer
thread and returns — the facade partitions its next block while prior
frames are still crossing the wire.  The queue is bounded at
``pipeline_depth`` frames (a full queue blocks the next flush:
backpressure, not unbounded memory), the writer preserves FIFO order,
and every query RPC first drains the queue — so reads still observe
all previously buffered ingest, and the protocol on the wire is
byte-for-byte what a synchronous client would have sent.  A send
error in the writer (dead or timed-out peer) is raised from the next
``flush`` or query as the usual per-shard ``RuntimeError``;
``close()`` — which must stay safe inside ``finally:`` blocks —
discards a pending error together with the unsent frames, the same
archive-before-close contract buffered rows have always had.

``names`` on every message is the **interner delta**: the slice of
server names the parent interned since the previous message.  The
serve loop replays the slice into its own
:class:`~repro.telemetry.store.ServerInterner`, so both sides agree on
the global id space without sharing memory — ingest ships only
``int64`` index columns, and name-returning queries
(``per_server_values``, ``pool_matrix``, ``servers_in_pool``) still
answer with the right strings.  This replication discipline is what
lets the identical protocol run over a pipe or a socket unchanged.

Cost model: every row crosses the placement boundary exactly once as
part of an ``int64``/``float64`` column (~24 bytes/row of payload),
and every query result crosses back once.  On a single CPU that
serialisation is pure overhead — the serial backend avoids it — but a
remote shard keeps its entire store, freeze, and aggregate-cache
workload off the simulating process, which is what pays once shards
outgrow one core or one host.

Equivalence: a remote shard applies the identical ``record_columns``
calls in the identical order a local shard would see, so its tables —
and therefore every query answer and export — are bit-identical to the
serial backend's.  ``tests/test_sharded_store.py`` and
``tests/test_sim_equivalence.py`` enforce this for every backend.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.store import MetricStore, ServerInterner, TableKey
from repro.telemetry.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    PipeTransport,
    TcpTransport,
    format_address,
)

#: Default number of pending rows that triggers an ingest flush.
DEFAULT_FLUSH_ROWS = 65536

#: Default bound on a shard's pipelined send queue: how many coalesced
#: ingest frames may be queued or in flight before the next ``flush``
#: blocks (backpressure).  0 disables pipelining — every flush sends
#: synchronously on the caller's thread.
DEFAULT_PIPELINE_DEPTH = 4

#: The only store method an ``("ingest", ...)`` frame may name.  Ingest
#: is fire-and-forget, so a frame naming anything else (``evict_windows``,
#: ``close``, ...) is refused whole and the refusal is the deferred
#: error the session's next ``call`` raises.
INGEST_METHODS = frozenset({"record_columns"})


class IngestCommandError(ValueError):
    """An ingest frame named a method outside :data:`INGEST_METHODS`."""


#: How long ``close`` waits for a graceful child exit before escalating
#: to ``terminate()`` (seconds).
_JOIN_TIMEOUT = 5.0

#: How long ``close`` lets an in-flight pipelined frame finish before
#: aborting it by closing the transport (seconds).  Deliberately short:
#: close() already drops buffered rows by contract, so finishing the
#: frame is a courtesy, not a guarantee worth waiting long for.
_ABORT_JOIN_TIMEOUT = 1.0


def serve_shard(transport, store: Optional[MetricStore] = None) -> None:
    """Serve one shard session: own one ``MetricStore``, drain messages.

    The placement-agnostic half of the actor — the same loop runs in a
    ``multiprocessing`` child (pipe transport) and in a
    :class:`ShardServer` session thread (TCP transport).  Runs until a
    ``("stop",)`` message, a clean EOF (the client closed), or a
    transport error (the client died).  Ingest exceptions are
    remembered and surfaced on the next ``call`` so the fire-and-forget
    fast path never needs an acknowledgement round trip.
    """
    store = store if store is not None else MetricStore()
    deferred: Optional[BaseException] = None
    while True:
        try:
            message = transport.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "ingest":
            _replay_names(store.interner, message[1])
            try:
                commands = message[2]
                for method, _args in commands:
                    if method not in INGEST_METHODS:
                        raise IngestCommandError(
                            f"ingest frame names {method!r}; only "
                            f"{', '.join(sorted(INGEST_METHODS))} may be "
                            f"ingested (frame refused)"
                        )
                for _method, args in commands:
                    store.record_columns(*args)
            except BaseException as error:  # noqa: BLE001 — re-raised on next call
                deferred = error
        elif kind == "call":
            _method, args, kwargs = message[2], message[3], message[4]
            if _method == "resync":
                # Session-level rejoin: drop whatever this session's
                # store holds and rebuild from the client's
                # authoritative state.  The *full* interner name table
                # rides this message (the client reset its delta
                # counter), so it must replay into the fresh store,
                # not the one being discarded; the journal replay
                # follows as ordinary ingest frames.
                store = MetricStore()
                deferred = None
                _replay_names(store.interner, message[1])
                if not _send_reply(transport, ("ok", True)):
                    break
                continue
            _replay_names(store.interner, message[1])
            if deferred is not None:
                error, deferred = deferred, None
                if not _send_reply(transport, ("err", error)):
                    break
                continue
            try:
                attr = getattr(store, _method)
                result = attr(*args, **kwargs) if callable(attr) else attr
                if isinstance(result, Iterator):
                    result = list(result)
                reply = ("ok", result)
            except BaseException as error:  # noqa: BLE001
                reply = ("err", error)
            if not _send_reply(transport, reply):
                break
        elif kind == "stop":
            break
    transport.close()


def _worker_main(conn) -> None:
    """Child-process entry point: one shard session over the pipe."""
    serve_shard(PipeTransport(conn))


def _replay_names(interner: ServerInterner, names: List[str]) -> None:
    """Append the parent's interner delta, preserving global indices."""
    for name in names:
        interner.intern(name)


def _send_reply(transport, reply) -> bool:
    """Send an RPC reply; ``False`` means the client is gone.

    A client that died with a call in flight must end the session
    (the loop breaks and closes the transport) rather than crash the
    serving thread; a reply payload that cannot be pickled degrades
    to an ``err`` naming the problem so the client still gets an
    answer.
    """
    try:
        transport.send(reply)
        return True
    except (EOFError, OSError):
        return False
    except Exception as error:  # unpicklable result/exception
        try:
            transport.send(("err", RuntimeError(repr(error))))
            return True
        except (EOFError, OSError):  # pragma: no cover - client died too
            return False


class ShardConnectionError(RuntimeError):
    """A shard's connection died, reset, or timed out.

    The error every ``ShardClient`` raises on the PR 5 failure paths
    (peer vanished → ``EOFError``/``OSError``, hung-but-alive peer →
    ``TimeoutError``), distinct from exceptions the *remote store*
    raised and shipped back (a bad query argument is a ``ValueError``
    here exactly as it would be locally).  The distinction is what
    replication keys failover on: a connection-level failure means
    "try another member", a store-level exception means the call
    itself was wrong and every member would answer the same.
    Subclasses ``RuntimeError``, so pre-replication callers that
    caught ``RuntimeError`` keep working unchanged.
    """


class _ShardQuerySurface:
    """The query half of the remote-shard proxy surface.

    Every method routes through ``self.call`` (provided by the
    subclass), mirroring :class:`~repro.telemetry.store.MetricStore`'s
    read API — shared by :class:`ShardClient` (one session) and
    :class:`ReplicatedShardClient` (a failover group), so the facade
    cannot tell them apart.
    """

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    @property
    def pools(self) -> Tuple[str, ...]:
        return tuple(self.call("pools"))

    @property
    def datacenters(self) -> Tuple[str, ...]:
        return tuple(self.call("datacenters"))

    @property
    def max_window(self) -> int:
        return self.call("max_window")

    def counters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        return self.call("counters_for_pool", pool_id)

    def servers_in_pool(
        self, pool_id: str, datacenter_id: Optional[str] = None
    ) -> Tuple[str, ...]:
        return self.call("servers_in_pool", pool_id, datacenter_id)

    def datacenters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        return self.call("datacenters_for_pool", pool_id)

    def datacenters_for_pool_counter(self, pool_id: str, counter: str) -> Tuple[str, ...]:
        return self.call("datacenters_for_pool_counter", pool_id, counter)

    def sample_count(self) -> int:
        return self.call("sample_count")

    def hot_sample_count(self) -> int:
        return self.call("hot_sample_count")

    def evict_windows(self, before: int) -> int:
        """Evict windows below ``before`` on the remote store.

        Rides the ordered command stream like ingest (``call`` drains
        buffered frames first), so eviction observes every previously
        ingested row.
        """
        return self.call("evict_windows", before)

    def iter_tables(
        self,
    ) -> Iterator[Tuple[TableKey, np.ndarray, np.ndarray, np.ndarray]]:
        """Tables materialised remotely and shipped back as a list.

        One pickle of the shard's full columns — the export path's bulk
        read, paid once per export rather than per row.
        """
        return iter(self.call("iter_tables"))

    def gather_columns(self, *args: Any, **kwargs: Any):
        return self.call("gather_columns", *args, **kwargs)

    def pool_window_aggregate(self, *args: Any, **kwargs: Any):
        return self.call("pool_window_aggregate", *args, **kwargs)

    def per_server_values(self, *args: Any, **kwargs: Any) -> Dict[str, np.ndarray]:
        return self.call("per_server_values", *args, **kwargs)

    def server_series(self, *args: Any, **kwargs: Any):
        return self.call("server_series", *args, **kwargs)

    def pool_matrix(self, *args: Any, **kwargs: Any):
        return self.call("pool_matrix", *args, **kwargs)

    def all_values(self, *args: Any, **kwargs: Any) -> np.ndarray:
        return self.call("all_values", *args, **kwargs)


class ShardClient(_ShardQuerySurface):
    """Parent-side proxy to one remote ``MetricStore``, any transport.

    Duck-types the slice of the :class:`MetricStore` surface the
    sharded facade uses — buffered ``record_columns`` ingest plus every
    query and introspection method — so
    :class:`~repro.telemetry.sharding.ShardedMetricStore` can hold
    remote-shard handles where it would otherwise hold local stores.
    All answers are bit-identical to a local shard fed the same calls
    (the serve loop applies the same methods in the same order); the
    difference is purely *where* the rows live and the one encoding
    round trip each row (ingest) and each result (query) pays.

    Not thread-safe: one owner (the facade) talks to one shard.
    Subclasses set ``self._transport`` and implement
    :meth:`_shutdown` (orderly teardown of whatever is on the far
    side) and :meth:`_peer` (a human-readable locator for error
    messages).  :meth:`close` is idempotent and fork-safe: a forked
    copy of the proxy only drops its inherited connection end — the
    remote shard belongs to the original owner, and shutting it down
    from the fork would yank a live store out from under that owner.
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> None:
        if flush_rows < 1:
            raise ValueError("flush_rows must be >= 1")
        if pipeline_depth < 0:
            raise ValueError("pipeline_depth must be >= 0")
        self._shard_id = shard_id
        self._interner = interner
        self._flush_rows = flush_rows
        self._synced_names = 0
        self._pending: List[Tuple[str, tuple]] = []
        self._pending_rows = 0
        self._closed = False
        self._close_lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._transport = None  # set by subclasses
        self._io_timeout: Optional[float] = None  # set by tcp subclass
        # Pipelined send state: a bounded FIFO of coalesced ingest
        # frames drained by one writer thread (started on first use).
        # _unsent counts queued plus in-flight frames; the condition
        # guards every field below.
        self._pipeline_depth = pipeline_depth
        self._send_cond = threading.Condition()
        self._send_queue: deque = deque()
        self._send_error: Optional[BaseException] = None
        self._unsent = 0
        self._writer: Optional[threading.Thread] = None
        self._writer_stop = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def closed(self) -> bool:
        return self._closed

    def _peer(self) -> str:
        """Where the remote shard lives, for error messages."""
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Orderly teardown, called exactly once by the owning process."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop the remote shard; idempotent and fork-safe.

        Called from a *forked* copy of the owner (``os.getpid()``
        differs from the pid that created the proxy) it only drops the
        inherited connection end: the remote shard belongs to the
        original parent, so the fork neither signals nor terminates
        it.  Double-close is a no-op — including *concurrent*
        double-close: a replication group retiring a dead member races
        the facade's own ``close()`` against the same proxy, so the
        closed flag is a lock-guarded test-and-set and exactly one
        caller runs the teardown (the transport is never closed twice,
        the pipeline never aborted twice); late callers wait for it
        and return.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._pending.clear()
            self._pending_rows = 0
            if os.getpid() != self._owner_pid:
                # Forked copy: the shard is the original owner's.  Drop
                # our duplicated connection end and leave the far side
                # alone (the writer thread, if any, did not survive the
                # fork).
                self._transport.close()
                return
            self._abort_pipeline()
            self._shutdown()

    def _connection_lost(self, error: BaseException) -> ShardConnectionError:
        if isinstance(error, TimeoutError):
            bound = (
                f" after {self._io_timeout:g}s"
                if self._io_timeout is not None
                else ""
            )
            return ShardConnectionError(
                f"shard {self._shard_id} ({self._peer()}): I/O timed "
                f"out{bound} — peer is alive but not making progress"
            )
        return ShardConnectionError(
            f"shard {self._shard_id} ({self._peer()}): connection lost"
        )

    # ------------------------------------------------------------------
    # Pipelined sending (one writer thread per shard, bounded queue)
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        """Drain the send queue in FIFO order, one frame at a time.

        The first send failure is remembered (and every later frame
        skipped); it surfaces on the owner thread at the next
        ``flush`` or query (``close()`` deliberately discards it — it
        runs in ``finally:`` blocks where raising would mask the
        primary error).  ``_unsent`` is decremented in a ``finally``
        so a waiter can never be left hanging.
        """
        while True:
            with self._send_cond:
                while not self._send_queue and not self._writer_stop:
                    self._send_cond.wait()
                if not self._send_queue:  # stop requested, queue drained
                    return
                names, commands = self._send_queue.popleft()
            try:
                if self._send_error is None:
                    self._transport.send_ingest(names, commands)
            except BaseException as error:  # noqa: BLE001 — re-raised on owner thread
                with self._send_cond:
                    if self._send_error is None:
                        self._send_error = error
            finally:
                with self._send_cond:
                    self._unsent -= 1
                    self._send_cond.notify_all()

    def _enqueue_ingest(self, names: List[str], commands: List[tuple]) -> None:
        """Queue one coalesced frame; blocks while the queue is full.

        The block is the backpressure contract: at most
        ``pipeline_depth`` frames are ever buffered beyond the pending
        list, so a slow peer stalls the producer instead of growing an
        unbounded queue.
        """
        with self._send_cond:
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._writer_loop,
                    name=f"shard-{self._shard_id}-writer",
                    daemon=True,
                )
                self._writer.start()
            while (
                self._unsent >= self._pipeline_depth
                and self._send_error is None
                and not self._writer_stop
            ):
                self._send_cond.wait()
            if self._writer_stop:
                raise RuntimeError("ShardClient is closed")
            error = self._send_error
            if error is not None:
                raise self._connection_lost(error) from error
            self._send_queue.append((names, commands))
            self._unsent += 1
            self._send_cond.notify_all()

    def _drain_pipeline(self) -> None:
        """Wait until every queued/in-flight frame hit the wire.

        Called before each RPC so the call frame is strictly ordered
        after all ingest — the read-your-writes guarantee — and before
        inspecting ``_send_error`` so a writer failure is never
        observed late.
        """
        if self._writer is not None:
            with self._send_cond:
                while self._unsent and self._send_error is None:
                    self._send_cond.wait()
        error = self._send_error
        if error is not None:
            raise self._connection_lost(error) from error

    def _abort_pipeline(self) -> None:
        """Stop the writer for close(): drop queued frames, let the
        in-flight one finish (bounded), abort it if wedged.

        Queued-but-unsent frames are dropped deliberately — close()
        has always discarded buffered rows no query needed (archive
        before closing).  A writer stuck mid-send past the join
        timeout has its transport closed out from under it, which
        fails the send and frees the thread: never a deadlock.
        """
        writer = self._writer
        if writer is None:
            return
        with self._send_cond:
            self._writer_stop = True
            self._unsent -= len(self._send_queue)
            self._send_queue.clear()
            self._send_cond.notify_all()
        writer.join(_ABORT_JOIN_TIMEOUT)
        if writer.is_alive():
            # Wedged mid-send: close the transport out from under it —
            # the sendall fails and the thread exits.  The peer sees a
            # mid-frame EOF, i.e. "client died", which close() is.
            self._transport.close()
            writer.join(_JOIN_TIMEOUT)
        self._writer = None

    def _names_delta(self) -> List[str]:
        """Server names interned since the last message to this shard."""
        names = self._interner.names
        if self._synced_names == len(names):
            return []
        delta = names[self._synced_names:]
        self._synced_names = len(names)
        return delta

    def flush(self) -> None:
        """Ship buffered ingest commands as one coalesced message.

        Called automatically when ``flush_rows`` rows are pending and
        before every query RPC, so readers always observe their own
        writes.  With ``pipeline_depth > 0`` the frame is handed to the
        shard's writer thread (blocking only when ``pipeline_depth``
        frames are already outstanding — backpressure); with depth 0 it
        is sent synchronously.  A dead or timed-out peer surfaces here
        as a ``RuntimeError`` naming the shard and where it lived —
        never a hang.
        """
        if self._closed:
            raise RuntimeError("ShardClient is closed")
        if not self._pending:
            error = self._send_error
            if error is not None:
                raise self._connection_lost(error) from error
            return
        names = self._names_delta()
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        if self._pipeline_depth:
            self._enqueue_ingest(names, pending)
            return
        try:
            self._transport.send_ingest(names, pending)
        except (EOFError, OSError) as error:
            raise self._connection_lost(error) from error

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Synchronous RPC: flush pending ingest, run ``store.method``.

        Drains the pipelined send queue first, so the call frame — and
        therefore the answer — is ordered after every buffered ingest.
        Exceptions raised in the remote shard — including deferred
        ingest errors — are re-raised here.  The result pays one pickle
        round trip; everything else about it (values, dtypes, ordering)
        is exactly what the local shard would have returned.
        """
        self.flush()
        self._drain_pipeline()
        try:
            self._transport.send(("call", self._names_delta(), method, args, kwargs))
            kind, payload = self._transport.recv()
        except (EOFError, OSError) as error:
            raise self._connection_lost(error) from error
        if kind == "err":
            raise payload
        return payload

    def resync(self) -> None:
        """Re-seed the peer session from scratch (the rejoin handshake).

        Resets the interner-delta counter so the *full* name table —
        not a delta — rides the reserved ``resync`` call, and the serve
        loop swaps in a fresh store for this session.  The caller
        (:meth:`~repro.telemetry.sharding.ShardedMetricStore.\
rejoin_shard`) then replays its journal as ordinary ingest, after
        which the rejoined shard's store is bit-identical to the one
        that crashed.
        """
        if self._closed:
            raise RuntimeError("ShardClient is closed")
        self._synced_names = 0
        self.call("resync")

    # ------------------------------------------------------------------
    # Ingest (buffered, fire-and-forget)
    # ------------------------------------------------------------------
    def record_columns(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        windows: np.ndarray,
        server_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Buffer one pre-partitioned column append for the remote shard.

        Same contract as :meth:`MetricStore.record_columns` — the
        proxy takes ownership of the arrays (they are held until the
        next flush, then encoded across the connection).  Nothing
        crosses the placement boundary until the batching threshold is
        hit, so per-window parts from a blocked simulation coalesce
        into few large messages.
        """
        if self._closed:
            raise RuntimeError("ShardClient is closed")
        if values.size == 0:
            return
        self._pending.append(
            (
                "record_columns",
                (pool_id, datacenter_id, counter, windows, server_indices, values),
            )
        )
        self._pending_rows += int(values.size)
        if self._pending_rows >= self._flush_rows:
            self.flush()


class ShardWorker(ShardClient):
    """Proxy to one ``MetricStore`` in a child process (pipe transport).

    The process is started eagerly in ``__init__`` with the default
    start method and marked ``daemon`` so an abandoned store cannot
    outlive the interpreter; :meth:`close` is the orderly path — a
    ``("stop",)`` message, a bounded join, then ``terminate()`` as the
    escalation — and inherits :class:`ShardClient`'s idempotence and
    fork-safety.
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> None:
        super().__init__(
            shard_id, interner, flush_rows=flush_rows,
            pipeline_depth=pipeline_depth,
        )
        context = multiprocessing.get_context()
        conn, child_conn = context.Pipe(duplex=True)
        self._transport = PipeTransport(conn)
        self._process = context.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"metric-shard-{shard_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        """The child's OS pid (``None`` once closed)."""
        return None if self._closed else self._process.pid

    def _peer(self) -> str:
        return f"worker pid {self._process.pid}"

    def _shutdown(self) -> None:
        """Send ``stop``, join briefly, escalate to ``terminate()`` —
        so a wedged child can never hang interpreter shutdown."""
        try:
            self._transport.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(_JOIN_TIMEOUT)
        if self._process.is_alive():  # pragma: no cover - wedged child
            self._process.terminate()
            self._process.join(_JOIN_TIMEOUT)
        self._transport.close()


class TcpShardClient(ShardClient):
    """Proxy to one ``MetricStore`` session on a :class:`ShardServer`.

    Dials ``address`` eagerly in ``__init__`` (with the transport's
    refused-connection retry window, so starting client and server
    "at the same time" works) and owns exactly one server session —
    the server made a fresh store when this connection arrived and
    will drop it when the connection ends.  Ingest crosses as binary
    column frames.  :meth:`close` says goodbye with a ``("stop",)``
    message before closing the socket; a vanished server surfaces as
    a ``RuntimeError`` naming the address, and ``io_timeout`` bounds
    every socket operation so even a hung-but-alive server is an
    error naming the shard and address — never a hang.
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        address: str,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> None:
        super().__init__(
            shard_id, interner, flush_rows=flush_rows,
            pipeline_depth=pipeline_depth,
        )
        if io_timeout is not None and io_timeout <= 0:
            io_timeout = None  # 0 / negative = "no bound", like the CLI
        self._address = address
        self._io_timeout = io_timeout
        self._transport = TcpTransport.connect(
            address, timeout=connect_timeout, io_timeout=io_timeout
        )

    @property
    def address(self) -> str:
        """The ``host:port`` this shard's session is connected to."""
        return self._address

    @property
    def addresses(self) -> Tuple[str, ...]:
        """The member address list (one entry — no replicas here)."""
        return (self._address,)

    def _peer(self) -> str:
        return self._address

    def _shutdown(self) -> None:
        try:
            self._transport.send(("stop",))
        except (EOFError, OSError):
            pass
        self._transport.close()


class ReplicatedShardClient(_ShardQuerySurface):
    """One shard mirrored across several TCP sessions, with failover.

    Holds a :class:`TcpShardClient` per address — the first is the
    primary, the rest replicas — and duck-types the single-session
    surface, so the facade treats a replicated shard exactly like a
    plain one.  Every ingest call (``record_columns`` / ``flush``) fans
    out to every live member: each member buffers the identical command
    stream with the same ``flush_rows`` threshold, so the coalesced
    frames on every wire — and therefore every member's store — are
    identical.  Queries are answered by the first live member.

    When any operation on a member raises
    :class:`ShardConnectionError` (dead peer, reset, I/O timeout — the
    PR 5 failure paths), the member is retired (closed and removed)
    and the survivors carry on; an interrupted query is retried on the
    next member, whose answer is **bit-identical** because its store
    consumed the same calls in the same order.  Store-level exceptions
    (a bad query argument) are *not* failed over — every member would
    answer the same — and propagate unchanged.  Only when the last
    member dies does a ``ShardConnectionError`` naming every failed
    address reach the caller.

    What replication cannot save: rows buffered parent-side (pending
    lists, pipelined frames) when the *caller* dies, same as the
    single-session contract; and a member that fails is gone for good
    — re-attach a replacement via the facade's ``rejoin_shard``, which
    needs the journal.  Not thread-safe for ingest (one owner, like
    ``ShardClient``); ``close`` may race a concurrent retirement and
    is safe (see :meth:`ShardClient.close`).
    """

    def __init__(
        self,
        shard_id: int,
        interner: ServerInterner,
        addresses: Sequence[str],
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
        pipeline_depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> None:
        if not addresses:
            raise ValueError("ReplicatedShardClient needs at least one address")
        self._shard_id = shard_id
        self._addresses = tuple(addresses)
        self._closed = False
        # Guards membership changes and the closed flag: _retire may
        # run on whichever thread observed the failure while close()
        # runs on another.
        self._members_lock = threading.Lock()
        self._members: List[TcpShardClient] = []
        self._failures: List[str] = []
        try:
            for address in addresses:
                self._members.append(
                    TcpShardClient(
                        shard_id,
                        interner,
                        address,
                        flush_rows=flush_rows,
                        connect_timeout=connect_timeout,
                        io_timeout=io_timeout,
                        pipeline_depth=pipeline_depth,
                    )
                )
        except BaseException:
            # A later member failed to dial: close the sessions already
            # opened instead of leaking them server-side.
            for member in self._members:
                try:
                    member.close()
                except Exception:  # pragma: no cover - best effort
                    pass
            raise

    # ------------------------------------------------------------------
    # Lifecycle and membership
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def address(self) -> str:
        """The primary's address (stable even after failover)."""
        return self._addresses[0]

    @property
    def addresses(self) -> Tuple[str, ...]:
        """Every configured member address, primary first."""
        return self._addresses

    @property
    def live_addresses(self) -> Tuple[str, ...]:
        """Addresses of the members still serving (for tests/ops)."""
        with self._members_lock:
            return tuple(member.address for member in self._members)

    def _live_members(self) -> List[TcpShardClient]:
        with self._members_lock:
            return list(self._members)

    def _retire(self, member: TcpShardClient, error: BaseException) -> None:
        """Drop a failed member: survivors own the shard from now on.

        The member is closed *outside* the membership lock (close can
        block for the bounded pipeline-abort grace) — safe against a
        concurrent ``close()`` of the whole group because
        :meth:`ShardClient.close` is itself lock-guarded and
        idempotent, so the transport is never double-closed.
        """
        with self._members_lock:
            if member in self._members:
                self._members.remove(member)
                self._failures.append(f"{member.address}: {error}")
        try:
            member.close()
        except Exception:  # pragma: no cover - dead peer teardown
            pass

    def _all_members_dead(self) -> ShardConnectionError:
        detail = "; ".join(self._failures) if self._failures else "none dialled"
        return ShardConnectionError(
            f"shard {self._shard_id}: every member failed "
            f"({len(self._addresses)} configured — {detail})"
        )

    def close(self) -> None:
        """Close every member session; idempotent and race-safe."""
        with self._members_lock:
            if self._closed:
                return
            self._closed = True
            members = list(self._members)
        for member in members:
            member.close()

    # ------------------------------------------------------------------
    # Mirrored ingest and failover queries
    # ------------------------------------------------------------------
    def _fan_out(self, method: str, args: tuple) -> None:
        """Run one ingest call on every live member, retiring failures.

        A member that raises :class:`ShardConnectionError` mid-fan-out
        missed this and all future calls — which is fine, because it is
        retired on the spot and never answers a query again.  The call
        only fails upward when it leaves *no* live member.
        """
        if self._closed:
            raise RuntimeError("ShardClient is closed")
        members = self._live_members()
        if not members:
            raise self._all_members_dead()
        for member in members:
            try:
                getattr(member, method)(*args)
            except ShardConnectionError as error:
                self._retire(member, error)
        if not self._live_members():
            raise self._all_members_dead()

    def record_columns(self, *args: Any) -> None:
        self._fan_out("record_columns", args)

    def flush(self) -> None:
        self._fan_out("flush", ())

    def resync(self) -> None:
        """Re-seed every member session (the group rejoin handshake)."""
        self._fan_out("resync", ())

    def evict_windows(self, before: int) -> int:
        """Evict on *every* live member, not just the query target.

        Eviction mutates store state, and replicas must stay mirrors —
        a replica that kept old rows hot would answer differently
        after a failover.  Members hold identical state, so every
        answer is equal; the first live member's count is returned.
        """
        if self._closed:
            raise RuntimeError("ShardClient is closed")
        self._fan_out("flush", ())
        members = self._live_members()
        if not members:
            raise self._all_members_dead()
        result: Optional[int] = None
        for member in members:
            try:
                count = member.call("evict_windows", before)
                if result is None:
                    result = int(count)
            except ShardConnectionError as error:
                self._retire(member, error)
        if result is None or not self._live_members():
            raise self._all_members_dead()
        return result

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Query the first live member; fail over on connection loss.

        Flushes *every* live member first, so whichever member ends up
        answering — even after a mid-call failover — has consumed all
        buffered ingest (each member's own ``call`` additionally
        drains its pipelined frames: read-your-writes holds across
        failover).  Exceptions the remote store raised propagate
        without failover; only :class:`ShardConnectionError` moves on
        to the next member.
        """
        if self._closed:
            raise RuntimeError("ShardClient is closed")
        self._fan_out("flush", ())
        while True:
            members = self._live_members()
            if not members:
                raise self._all_members_dead()
            member = members[0]
            try:
                return member.call(method, *args, **kwargs)
            except ShardConnectionError as error:
                self._retire(member, error)


class ShardServer:
    """Host remote metric-store shards over TCP: one session, one shard.

    Every accepted connection gets its own session thread running
    :func:`serve_shard` over a fresh ``MetricStore`` — so a facade
    that opens N connections (even N connections to the *same*
    server) gets N independent shards, and spreading the addresses
    across machines is purely a deployment decision.  This is the
    library form of the ``repro shard-server`` CLI command; tests and
    benchmarks embed it, operators run the CLI.

    ``max_sessions`` bounds the server's lifetime for scripted runs:
    after accepting that many sessions it stops listening and
    :meth:`serve_forever` returns once they all end (the CLI's
    ``--max-sessions``).  Bind to port 0 to let the OS pick an
    ephemeral port; :attr:`address` reports the real one.

    ``stop()`` closes the listener and every live session; it is
    idempotent.  Sessions end individually on their client's
    ``("stop",)`` or clean EOF — a client vanishing never takes the
    server down.  Security note: the wire has no authentication, so
    listen only on loopback or a trusted network (see
    :mod:`repro.telemetry.transport`).
    """

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        max_sessions: Optional[int] = None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        from repro.telemetry.transport import parse_address

        self._requested = parse_address(address)
        self._max_sessions = max_sessions
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: List[Tuple[TcpTransport, threading.Thread]] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardServer":
        """Bind, listen, and start accepting sessions in the background.

        The socket family follows the listen host: ``127.0.0.1`` binds
        IPv4, a bracketed ``[::1]`` (parsed to ``::1``) binds IPv6 —
        ``getaddrinfo`` decides, so names resolve too.
        """
        if self._started:
            raise RuntimeError("ShardServer already started")
        self._started = True
        host, port = self._requested
        try:
            family, _type, _proto, _cname, sockaddr = socket.getaddrinfo(
                host, port, type=socket.SOCK_STREAM
            )[0]
        except socket.gaierror as error:
            raise OSError(
                f"cannot resolve listen address {format_address(host, port)}: "
                f"{error}"
            ) from error
        listener = socket.socket(family, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(sockaddr)
        listener.listen()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> str:
        """The bound ``host:port`` (real port, even when asked for 0)."""
        if self._listener is None:
            raise RuntimeError("ShardServer is not started")
        host, port = self._listener.getsockname()[:2]
        return format_address(host, port)

    def serve_forever(self) -> None:
        """Block until :meth:`stop` — or, with ``max_sessions``, until
        every accepted session has ended."""
        if self._accept_thread is None:
            raise RuntimeError("ShardServer is not started")
        self._accept_thread.join()
        for _transport, thread in list(self._sessions):
            thread.join()

    def stop(self) -> None:
        """Close the listener and every live session; idempotent."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            try:
                # shutdown() (not just close()) wakes a thread blocked
                # in accept() immediately instead of leaving it to the
                # join timeout below.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for transport, _thread in list(self._sessions):
            transport.close()
        if self._accept_thread is not None:
            self._accept_thread.join(_JOIN_TIMEOUT)
        for _transport, thread in list(self._sessions):
            thread.join(_JOIN_TIMEOUT)

    def __enter__(self) -> "ShardServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accepting and serving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        accepted = 0
        while not self._stopping:
            if self._max_sessions is not None and accepted >= self._max_sessions:
                break
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed by stop()
                break
            accepted += 1
            transport = TcpTransport(conn)
            thread = threading.Thread(
                target=self._serve_session,
                args=(transport,),
                name=f"shard-session-{accepted}",
                daemon=True,
            )
            with self._lock:
                if self._stopping:
                    # Lost the race with stop(): it already snapshotted
                    # the session list, so this connection would never
                    # be torn down — refuse it instead.
                    transport.close()
                    break
                self._sessions.append((transport, thread))
            thread.start()
        if self._max_sessions is not None and not self._stopping:
            # Reached the session budget: stop listening, let the live
            # sessions run to their own stop/EOF.
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass

    def _session_store(self):
        """The store a new session serves; ``None`` = fresh per session.

        The shard-server default (one connection = one empty shard
        store) — :class:`~repro.telemetry.query_server.QueryServer`
        overrides this to hand every session one shared read-only
        surface over the live store.
        """
        return None

    def _serve_session(self, transport: TcpTransport) -> None:
        """One session thread: serve, then drop the bookkeeping entry.

        Pruning on exit keeps a long-running server's session list
        proportional to *live* sessions instead of every connection
        ever accepted.
        """
        try:
            serve_shard(transport, store=self._session_store())
        finally:
            with self._lock:
                self._sessions = [
                    entry for entry in self._sessions if entry[0] is not transport
                ]
