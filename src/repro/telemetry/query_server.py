"""Live operator queries against a running streaming simulation.

The paper's operators analyze fleet telemetry *while the fleet is
running*; until now ``simulate --stream`` owned the process, so answers
only existed after the clock loop exited.  This module closes that gap
by composition: the existing shard RPC loop
(:func:`~repro.telemetry.workers.serve_shard`), the length-prefixed
transport (:class:`~repro.telemetry.transport.TcpTransport`), and the
sealed-watermark semantics of ``track_aggregate``/``seal_through``
already provide everything a query server needs.

Three pieces:

* :class:`LiveQuerySurface` — a read-only view over the live store
  (plain :class:`~repro.telemetry.store.MetricStore` or the
  :class:`~repro.telemetry.sharding.ShardedMetricStore` facade over any
  backend).  Every read takes the store's :attr:`lock`, which the
  streaming clock loop holds across each whole ingest→seal→evict block
  span — so a reader only ever observes the store at sealed block
  boundaries, never a half-ingested block.  That is the entire
  consistency argument: at a boundary every visible window is sealed,
  so a live answer for any window ``w <= sealed_through`` is
  bit-identical to the same query against a finished same-seed batch
  run.  The surface has no mutators; an attempt to call one is an
  ``AttributeError`` shipped back as the RPC error reply.
* :class:`QueryServer` — a :class:`~repro.telemetry.workers.ShardServer`
  whose sessions all serve the one shared surface instead of a fresh
  per-session store.  Same wire, same framing, same failure semantics
  as ``repro shard-server``.
* :class:`QueryClient` — the client side of ``repro query``: dial,
  ``call`` methods by name, get the pickled result back.  Connection
  failures surface as the usual named, ``io_timeout``-bounded
  :class:`~repro.telemetry.workers.ShardConnectionError` — never a
  hang.

The security note of ``docs/DISTRIBUTED.md`` applies unchanged: the
wire is pickle, so bind the query listener to loopback or a trusted
network only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.store import ServerInterner
from repro.telemetry.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
    TcpTransport,
    format_address,
    parse_address,
)
from repro.telemetry.workers import ShardConnectionError, ShardServer

#: Store methods that mutate state — the read-only deny-list.  The
#: query surface enforces read-only *by omission*: none of these names
#: has a passthrough on :class:`LiveQuerySurface`, so a client calling
#: one gets an ``AttributeError`` shipped back as the RPC error reply.
#: ``tools/repro_lint`` (rpc-surface pass) keeps this honest in both
#: directions: every statically detected mutator on
#: ``MetricStore``/``ShardedMetricStore`` must be listed here, and no
#: listed name may ever appear on the surface — so a new mutator cannot
#: silently become reachable by live readers.
STORE_MUTATORS = frozenset({
    "record_many",
    "record_batch",
    "record_columns",
    "evict_windows",
    "seal_through",
    "track_aggregate",
    "intern_server",
    "intern_servers",
    "rejoin_shard",
    "flush",
    "close",
})


class LiveQuerySurface:
    """Read-only, lock-serialized view of a live (possibly sharded) store.

    ``streamer`` optionally attaches the driving
    :class:`~repro.cluster.streaming.StreamingSimulator`, which
    contributes the authoritative sealed watermark, run progress, and
    the latched alarm alerts to :meth:`status`.

    The serve loop replays interner deltas on every message, so the
    surface carries its own throwaway :class:`ServerInterner` — a query
    client never sends real deltas, and a stray one lands in the
    sandbox instead of the live store's id space.
    """

    def __init__(self, store, streamer=None) -> None:
        self._store = store
        self._streamer = streamer
        self.interner = ServerInterner()
        self._lock = store.lock

    # -- watermark and retention state ---------------------------------
    @property
    def sealed_through(self) -> int:
        """Largest window a live answer is final through (-1 = none)."""
        with self._lock:
            if self._streamer is not None:
                return self._streamer.sealed_window
            return max(self._store.sealed_through, self._store.max_window)

    @property
    def evicted_before(self) -> int:
        with self._lock:
            return self._store.evicted_before

    @property
    def max_window(self) -> int:
        with self._lock:
            return self._store.max_window

    # -- introspection -------------------------------------------------
    @property
    def pools(self) -> Tuple[str, ...]:
        with self._lock:
            return self._store.pools

    @property
    def datacenters(self) -> Tuple[str, ...]:
        with self._lock:
            return self._store.datacenters

    def counters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        with self._lock:
            return self._store.counters_for_pool(pool_id)

    def servers_in_pool(self, pool_id: str) -> Tuple[str, ...]:
        with self._lock:
            return self._store.servers_in_pool(pool_id)

    def datacenters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        with self._lock:
            return self._store.datacenters_for_pool(pool_id)

    def datacenters_for_pool_counter(
        self, pool_id: str, counter: str
    ) -> Tuple[str, ...]:
        with self._lock:
            return self._store.datacenters_for_pool_counter(pool_id, counter)

    def sample_count(self) -> int:
        with self._lock:
            return self._store.sample_count()

    def hot_sample_count(self) -> int:
        with self._lock:
            return self._store.hot_sample_count()

    def server_name(self, index: int) -> str:
        with self._lock:
            return self._store.server_name(index)

    # -- queries -------------------------------------------------------
    def pool_window_aggregate(self, *args, **kwargs):
        with self._lock:
            return self._store.pool_window_aggregate(*args, **kwargs)

    def per_server_values(self, *args, **kwargs):
        with self._lock:
            return self._store.per_server_values(*args, **kwargs)

    def server_series(self, *args, **kwargs):
        with self._lock:
            return self._store.server_series(*args, **kwargs)

    def pool_matrix(self, *args, **kwargs):
        with self._lock:
            return self._store.pool_matrix(*args, **kwargs)

    def all_values(self, *args, **kwargs):
        with self._lock:
            return self._store.all_values(*args, **kwargs)

    def iter_tables(self) -> List[Tuple]:
        """Every table's columns, materialized *inside* the lock.

        The serve loop would materialize the iterator anyway (it cannot
        pickle a generator); doing it here keeps the whole read atomic.
        """
        with self._lock:
            return list(self._store.iter_tables())

    # -- atomic compound reads (one lock hold = one consistent answer) -
    def aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> Dict[str, Any]:
        """One aggregate series plus the watermark it is valid as of.

        Taken under a single lock hold, so ``sealed_through`` and the
        series describe the same block boundary — the pair a live
        client needs to compare its answer against a batch twin.
        """
        with self._lock:
            series = self._store.pool_window_aggregate(
                pool_id, counter, datacenter_id=datacenter_id, reducer=reducer
            )
            return {
                "sealed_through": self.sealed_through,
                "windows": series.windows,
                "values": series.values,
            }

    def status(self) -> Dict[str, Any]:
        """One consistent snapshot of run progress and alarm state."""
        with self._lock:
            store = self._store
            info: Dict[str, Any] = {
                "sealed_through": self.sealed_through,
                "evicted_before": store.evicted_before,
                "max_window": store.max_window,
                "hot_samples": store.hot_sample_count(),
                "samples": store.sample_count(),
                "pools": store.pools,
                "alerts": [],
            }
            streamer = self._streamer
            if streamer is not None:
                info["windows"] = streamer.windows
                info["blocks"] = streamer.blocks
                info["alerts"] = [
                    {
                        "name": alert.name,
                        "pool_id": alert.pool_id,
                        "window": alert.window,
                        "detail": alert.detail,
                    }
                    for alert in streamer.alerts
                ]
            return info

    def snapshot(self) -> Dict[str, Any]:
        """Every table and the name table, atomically.

        Everything :func:`~repro.telemetry.export.export_store` needs
        to write the archive client-side (wrap in
        :class:`StoreSnapshot`) — the live half of the byte-identical
        export guarantee.
        """
        with self._lock:
            return {
                "sealed_through": self.sealed_through,
                "server_names": list(self._store.interner.names),
                "tables": list(self._store.iter_tables()),
            }


class StoreSnapshot:
    """A :meth:`LiveQuerySurface.snapshot` result as an exportable store.

    Duck-types the ``iter_tables``/``server_name`` surface
    :func:`~repro.telemetry.export.export_store` reads, so a client can
    write a byte-identical archive from a snapshot it fetched over the
    wire.
    """

    def __init__(self, snapshot: Dict[str, Any]) -> None:
        self._tables = snapshot["tables"]
        self._names = snapshot["server_names"]
        self.sealed_through = snapshot["sealed_through"]

    def iter_tables(self):
        return iter(self._tables)

    def server_name(self, index: int) -> str:
        return self._names[index]


class QueryServer(ShardServer):
    """A :class:`ShardServer` whose sessions share one live surface.

    Everything else — accept loop, session threads, idempotent
    ``stop()``, ``max_sessions``, ephemeral-port binding — is inherited
    unchanged; the only difference is that a session serves the shared
    read-only surface instead of a fresh private store.
    """

    def __init__(
        self,
        surface: LiveQuerySurface,
        address: str = "127.0.0.1:0",
        max_sessions: Optional[int] = None,
    ) -> None:
        super().__init__(address, max_sessions=max_sessions)
        self._surface = surface

    def _session_store(self) -> LiveQuerySurface:
        return self._surface


class QueryClient:
    """One connection to a :class:`QueryServer`; the ``repro query`` core.

    Dial errors carry the address; a server that dies or hangs
    mid-session surfaces as a named
    :class:`~repro.telemetry.workers.ShardConnectionError` within the
    ``io_timeout`` bound (0 or ``None`` disables the bound) — the same
    failure contract as a shard session, because it is the same wire.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: Optional[float] = DEFAULT_IO_TIMEOUT,
    ) -> None:
        self.address = format_address(*parse_address(address))
        if io_timeout is not None and io_timeout <= 0:
            io_timeout = None
        self._io_timeout = io_timeout
        self._transport = TcpTransport.connect(
            self.address, timeout=connect_timeout, io_timeout=io_timeout
        )
        self._closed = False

    def call(self, method: str, *args, **kwargs) -> Any:
        """Invoke ``method`` on the server's surface, return its result."""
        if self._closed:
            raise RuntimeError("query client is closed")
        try:
            self._transport.send(("call", [], method, args, kwargs))
            reply = self._transport.recv()
        except TimeoutError as error:
            raise ShardConnectionError(
                f"query server ({self.address}): I/O timed out after "
                f"{self._io_timeout:g}s — peer is alive but not making "
                f"progress"
            ) from error
        except (EOFError, OSError) as error:
            raise ShardConnectionError(
                f"query server ({self.address}): connection lost"
            ) from error
        status, payload = reply
        if status == "err":
            raise payload
        return payload

    # Convenience wrappers for the three compound reads.
    def status(self) -> Dict[str, Any]:
        return self.call("status")

    def aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> Dict[str, Any]:
        return self.call(
            "aggregate", pool_id, counter,
            datacenter_id=datacenter_id, reducer=reducer,
        )

    def snapshot(self) -> Dict[str, Any]:
        return self.call("snapshot")

    def close(self) -> None:
        """End the session (idempotent; safe against a dead server)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._transport.send(("stop",))
        except Exception:  # server already gone — nothing to stop
            pass
        self._transport.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
