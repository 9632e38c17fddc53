"""In-memory columnar metric store.

The paper's pipeline ingests ~3 GB/s of counters into a trace store and
answers pool/datacenter/time-scoped aggregate queries over 90 days of
history.  This module provides the equivalent for the simulator, built
around an end-to-end columnar data flow:

* **Ingest** is columnar: the simulator emits one NumPy array per
  (pool, datacenter, counter, block of windows) and hands it to
  :meth:`MetricStore.record_columns`, which appends whole arrays to
  the matching table (:meth:`MetricStore.record_batch` is the
  one-window convenience over it).  Server ids are interned once into
  integer indices (:meth:`MetricStore.intern_servers`), so the hot
  path never hashes strings per sample.  ``record_many`` columnises loose
  :class:`~repro.telemetry.counters.CounterSample` objects onto the
  same tables.
* **Storage** is one table per (pool, datacenter, counter): three
  parallel column chunk lists (window, server index, value) that are
  concatenated lazily into frozen arrays on first query.
* **Queries** (:meth:`pool_window_aggregate`, :meth:`per_server_values`,
  :meth:`pool_matrix`) group with ``np.bincount`` / stable argsort over
  the frozen columns instead of per-sample Python loops, and the
  common pool aggregates are memoized in a cache that is invalidated
  whenever new samples arrive.

Horizontal scaling lives one layer up:
:class:`~repro.telemetry.sharding.ShardedMetricStore` hash-partitions
rows across several ``MetricStore`` shards that share one global
:class:`ServerInterner` id space, and merges query results shard-wise
so callers see the exact same answers as a single store.  Shards can
be held in-process or owned by worker processes
(:class:`~repro.telemetry.workers.ShardWorker`), in which case each
worker runs a plain ``MetricStore`` exactly like this one and replays
interner names from per-message deltas.
"""

from __future__ import annotations

import pickle
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.telemetry.counters import CounterSample
from repro.telemetry.series import TimeSeries


class ServerInterner:
    """Bidirectional server id <-> integer index mapping.

    Interning assigns indices in first-seen order, so the hot ingest
    path never hashes strings per sample.  A single interner may be
    shared by several :class:`MetricStore` shards (see
    :class:`~repro.telemetry.sharding.ShardedMetricStore`), which is
    what keeps interned indices — and therefore query ordering —
    globally consistent across shards.
    """

    __slots__ = ("names", "index")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.index: Dict[str, int] = {}

    def intern(self, server_id: str) -> int:
        """Map a server id to its stable integer index."""
        index = self.index.get(server_id)
        if index is None:
            index = len(self.names)
            self.index[server_id] = index
            self.names.append(server_id)
        return index

    def intern_many(self, server_ids: Sequence[str]) -> np.ndarray:
        """Intern many server ids at once; returns the index array."""
        return np.fromiter(
            (self.intern(s) for s in server_ids),
            dtype=np.int64,
            count=len(server_ids),
        )

    def name(self, index: int) -> str:
        return self.names[index]

    def __len__(self) -> int:
        return len(self.names)


def window_aggregate_arrays(
    windows: np.ndarray,
    values: np.ndarray,
    reducer: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by window with ``np.bincount``.

    The aggregation kernel behind
    :meth:`MetricStore.pool_window_aggregate`, shared with the sharded
    facade so both paths accumulate in exactly the same order (bit-for-
    bit identical floating-point sums).  Returns ``(out_windows,
    out_values)`` for the windows that have at least one sample.
    """
    base = int(windows.min())
    shifted = windows - base
    length = int(shifted.max()) + 1
    counts = np.bincount(shifted, minlength=length)
    present = counts > 0
    out_windows = np.flatnonzero(present) + base
    if reducer == "count":
        out_values = counts[present].astype(float)
    elif reducer == "max":
        maxima = np.full(length, -np.inf)
        np.maximum.at(maxima, shifted, values)
        out_values = maxima[present]
    else:
        sums = np.bincount(shifted, weights=values, minlength=length)
        if reducer == "sum":
            out_values = sums[present]
        else:  # mean
            out_values = sums[present] / counts[present]
    return out_windows, out_values


class SpillArchive:
    """Append-only on-disk archive of evicted column segments.

    The cold half of the streaming store's rolling retention
    (:meth:`MetricStore.evict_windows`): evicted (windows, server
    indices, values) segments are pickled to an anonymous temp file —
    reclaimed by the OS when the store goes away — and indexed by an
    in-memory per-table directory of ``(offset, lo, hi)`` window
    spans.  Queries whose range dips below the eviction watermark read
    the overlapping segments back (oldest first, i.e. original append
    order) and merge them ahead of the hot columns, so every answer
    stays exactly what an unevicted store would return; queries over
    the hot range never touch the disk at all.
    """

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile(prefix="metric-spill-")
        self._directory: Dict[Tuple, List[Tuple[int, int, int]]] = {}
        #: Total rows spilled (observable retention behaviour).
        self.rows = 0

    def append(
        self,
        key: Tuple,
        windows: np.ndarray,
        servers: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Archive one evicted segment of one table (append order)."""
        self._file.seek(0, 2)
        offset = self._file.tell()
        pickle.dump(
            (windows, servers, values), self._file,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._directory.setdefault(key, []).append(
            (offset, int(windows.min()), int(windows.max()))
        )
        self.rows += int(windows.size)

    def segments(self, key: Tuple) -> List[Tuple[int, int, int]]:
        """This table's ``(offset, lo, hi)`` spans, oldest first."""
        return self._directory.get(key, [])

    def read(self, offset: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Load one archived (windows, servers, values) segment."""
        self._file.seek(offset)
        return pickle.load(self._file)

    def close(self) -> None:
        try:
            self._file.close()
        except Exception:  # pragma: no cover - best effort
            pass
        self._directory = {}
        self.rows = 0


class _TrackedAggregate:
    """One incrementally maintained per-window aggregate series.

    The streaming replacement for cache-invalidate-recompute: instead
    of re-gathering the whole table on every query after every ingest,
    :meth:`MetricStore.seal_through` appends each newly *sealed* block
    of windows' aggregate values here exactly once.  Per-window bins of
    :func:`window_aggregate_arrays` only ever mix rows of their own
    window, so the per-block partials are bit-identical to what one
    full-horizon recompute would produce — the incremental-maintenance
    invariant ``tests/test_streaming.py`` asserts.
    """

    __slots__ = ("reducer", "sealed_through", "_window_parts", "_value_parts", "_frozen")

    def __init__(self, reducer: str) -> None:
        self.reducer = reducer
        #: Largest window whose aggregate is final; -1 before any seal.
        self.sealed_through = -1
        self._window_parts: List[np.ndarray] = []
        self._value_parts: List[np.ndarray] = []
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def extend(
        self, windows: np.ndarray, values: np.ndarray, through: int
    ) -> None:
        """Append one sealed block's aggregate rows (ascending windows)."""
        if windows.size:
            self._window_parts.append(windows)
            self._value_parts.append(values)
            self._frozen = None
        self.sealed_through = through

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full (windows, values) series, frozen read-only."""
        if self._frozen is None:
            if not self._window_parts:
                empty_w = np.array([], dtype=np.int64)
                self._frozen = (empty_w, np.array([], dtype=float))
            elif len(self._window_parts) == 1:
                self._frozen = (self._window_parts[0], self._value_parts[0])
            else:
                self._frozen = (
                    np.concatenate(self._window_parts),
                    np.concatenate(self._value_parts),
                )
                self._window_parts = [self._frozen[0]]
                self._value_parts = [self._frozen[1]]
            self._frozen[0].setflags(write=False)
            self._frozen[1].setflags(write=False)
        return self._frozen

    def series_slice(self, lo: int, hi: int) -> TimeSeries:
        """The tracked series restricted to windows in [lo, hi)."""
        windows, values = self.columns()
        i = int(np.searchsorted(windows, lo, side="left"))
        j = int(np.searchsorted(windows, hi, side="left"))
        return TimeSeries.from_sorted(windows[i:j], values[i:j])


@dataclass(frozen=True)
class MetricKey:
    """Identity of a stored series: one counter on one server.

    Retained for compatibility with pre-columnar callers; internally the
    store now keys tables by (pool, datacenter, counter) and tracks the
    server as an interned integer column.
    """

    server_id: str
    pool_id: str
    datacenter_id: str
    counter: str


class _Table:
    """Columnar (window, server index, value) rows of one table.

    Appends go to chunk lists (one ndarray per batch); queries read the
    lazily concatenated frozen arrays.
    """

    __slots__ = (
        "_window_chunks",
        "_server_chunks",
        "_value_chunks",
        "_frozen",
        "n_rows",
        "spilled_rows",
    )

    def __init__(self) -> None:
        self._window_chunks: List[np.ndarray] = []
        self._server_chunks: List[np.ndarray] = []
        self._value_chunks: List[np.ndarray] = []
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self.n_rows: int = 0
        #: Rows evicted to the spill archive (still counted in n_rows).
        self.spilled_rows: int = 0

    def append_batch(
        self,
        windows: np.ndarray,
        server_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self._window_chunks.append(windows)
        self._server_chunks.append(server_indices)
        self._value_chunks.append(values)
        self._frozen = None
        self.n_rows += int(values.size)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(windows, server indices, values) in append order."""
        if self._frozen is None:
            if not self._value_chunks:
                empty = np.array([], dtype=np.int64)
                self._frozen = (empty, empty, np.array([], dtype=float))
            elif len(self._value_chunks) == 1:
                self._frozen = (
                    self._window_chunks[0],
                    self._server_chunks[0],
                    self._value_chunks[0],
                )
            else:
                self._frozen = (
                    np.concatenate(self._window_chunks),
                    np.concatenate(self._server_chunks),
                    np.concatenate(self._value_chunks),
                )
                # Re-chunk so repeated freezes stay O(1).
                self._window_chunks = [self._frozen[0]]
                self._server_chunks = [self._frozen[1]]
                self._value_chunks = [self._frozen[2]]
        return self._frozen

    @property
    def hot_rows(self) -> int:
        """Rows still held in memory (total minus spilled)."""
        return self.n_rows - self.spilled_rows

    def evict(
        self, before: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Split off every row with ``window < before``.

        Returns the evicted (windows, servers, values) columns — in
        their original append order, for the caller to archive — and
        keeps only the remaining hot rows; ``None`` when nothing falls
        below the cutoff.  Rows must have arrived in non-decreasing
        block order (the streaming engines' emission order) for
        spill + hot concatenation to reproduce the original append
        order exactly.
        """
        windows, servers, values = self.columns()
        mask = windows < before
        if not mask.any():
            return None
        keep = ~mask
        self._frozen = (windows[keep], servers[keep], values[keep])
        self._window_chunks = [self._frozen[0]]
        self._server_chunks = [self._frozen[1]]
        self._value_chunks = [self._frozen[2]]
        self.spilled_rows += int(mask.sum())
        return windows[mask], servers[mask], values[mask]


#: Key of one stored table: (pool_id, datacenter_id, counter).
TableKey = Tuple[str, str, str]


def columnise_samples(
    samples: Iterable[CounterSample],
    intern,
) -> Iterator[Tuple[TableKey, np.ndarray, np.ndarray, np.ndarray]]:
    """Group loose samples into per-table (windows, indices, values).

    The shared grouping behind ``record_many`` on both the single store
    and the sharded facade; ``intern`` maps a server id to its integer
    index.  Yields one ``(table key, windows, server indices, values)``
    tuple per (pool, datacenter, counter), rows in input order.
    """
    grouped: Dict[TableKey, Tuple[List[int], List[int], List[float]]] = {}
    for sample in samples:
        key = (sample.pool_id, sample.datacenter_id, sample.counter)
        bucket = grouped.get(key)
        if bucket is None:
            bucket = ([], [], [])
            grouped[key] = bucket
        bucket[0].append(sample.window_index)
        bucket[1].append(intern(sample.server_id))
        bucket[2].append(sample.value)
    for key, (windows, indices, values) in grouped.items():
        yield (
            key,
            np.asarray(windows, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=float),
        )


class _ServerMembership:
    """Which interned server indices appeared for one (pool, DC).

    Ingest-hot bookkeeping: the per-batch update is a vectorized
    boolean scatter (``seen[indices] = True``) instead of the previous
    ``set.update(np.unique(...).tolist())`` — on coalesced ingest
    frames the unique/set path cost roughly as much CPU as the column
    appends themselves.  Reads (:meth:`indices`) materialise the
    sorted index array; they only happen on the cold query path.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen = np.zeros(0, dtype=bool)

    def _ensure(self, top: int) -> None:
        if top >= self._seen.size:
            grown = np.zeros(max(64, 2 * (top + 1)), dtype=bool)
            grown[: self._seen.size] = self._seen
            self._seen = grown

    def update_from(self, indices: np.ndarray) -> None:
        """Mark every index in ``indices`` (duplicates are free)."""
        if indices.size == 0:
            return
        self._ensure(int(indices.max()))
        self._seen[indices] = True

    def indices(self) -> np.ndarray:
        """All marked indices, ascending (``int64``)."""
        return np.flatnonzero(self._seen)


class MetricStore:
    """Columnar store of counter samples with pool/DC-scoped queries.

    The single-node building block of the telemetry layer.  Ingest via
    :meth:`record_batch` (one window, many servers) or
    :meth:`record_columns` (pre-columnised rows); query via
    :meth:`pool_window_aggregate`, :meth:`per_server_values`,
    :meth:`pool_matrix` and :meth:`server_series`.  All query results
    are independent of ingest batching: :meth:`record_many`,
    :meth:`record_batch` and :meth:`record_columns` store bit-identical
    tables given the same rows in the same order.

    ``interner`` optionally shares a :class:`ServerInterner` with other
    stores — the mechanism :class:`~repro.telemetry.sharding.\
ShardedMetricStore` uses to keep one global id space across shards.
    """

    def __init__(self, interner: Optional[ServerInterner] = None) -> None:
        self._tables: Dict[TableKey, _Table] = {}
        self._by_pool_counter: Dict[Tuple[str, str], List[TableKey]] = defaultdict(list)
        self._pools: Set[str] = set()
        self._datacenters: Set[str] = set()
        self._servers_by_pool_dc: Dict[Tuple[str, str], _ServerMembership] = (
            defaultdict(_ServerMembership)
        )
        self._interner = interner if interner is not None else ServerInterner()
        self._max_window: int = -1
        self._agg_cache: Dict[Tuple, TimeSeries] = {}
        #: Rolling-retention state: rows of windows < _evicted_before
        #: live in the spill archive, everything newer is hot.
        self._spill: Optional[SpillArchive] = None
        self._evicted_before: int = 0
        #: Incrementally maintained aggregates, keyed by
        #: (pool, counter, datacenter, reducer).
        self._tracked: Dict[Tuple, _TrackedAggregate] = {}
        #: Synchronization seam for concurrent readers (the live query
        #: server).  The store itself stays single-owner — methods do
        #: not self-lock — but a writer holding :attr:`lock` across a
        #: mutation span and readers taking it per query observe the
        #: store only at the boundaries the writer chooses.
        self._lock = threading.RLock()

    @property
    def lock(self) -> "threading.RLock":
        """Reentrant lock serializing a clock-loop writer and readers.

        The streaming loop holds it across each ingest→seal→evict
        block span; :class:`~repro.telemetry.query_server.\
LiveQuerySurface` takes it around every read, so a live reader only
        ever sees sealed block boundaries, never a half-ingested block.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Server interning
    # ------------------------------------------------------------------
    @property
    def interner(self) -> ServerInterner:
        """The store's server id <-> index mapping (possibly shared)."""
        return self._interner

    def intern_server(self, server_id: str) -> int:
        """Map a server id to its stable integer index."""
        return self._interner.intern(server_id)

    def intern_servers(self, server_ids: Sequence[str]) -> np.ndarray:
        """Intern many server ids at once (the batch hot path setup).

        Returns the integer index array to pass to :meth:`record_batch`
        in place of the string ids; callers cache it per pool.
        """
        return self._interner.intern_many(server_ids)

    def server_name(self, index: int) -> str:
        return self._interner.name(index)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _table(self, pool_id: str, datacenter_id: str, counter: str) -> _Table:
        key = (pool_id, datacenter_id, counter)
        table = self._tables.get(key)
        if table is None:
            table = _Table()
            self._tables[key] = table
            self._by_pool_counter[(pool_id, counter)].append(key)
            self._pools.add(pool_id)
            self._datacenters.add(datacenter_id)
        return table

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

        ``server_ids`` may be a sequence of id strings or an integer
        ndarray previously obtained from :meth:`intern_servers` (the
        simulator's zero-hash hot path).  ``values`` must be aligned
        with ``server_ids``.  Both arrays are copied, so callers may
        reuse scratch buffers across calls.
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
        table = self._table(pool_id, datacenter_id, counter)
        windows = np.full(indices.size, window, dtype=np.int64)
        table.append_batch(windows, indices, values)
        self._servers_by_pool_dc[(pool_id, datacenter_id)].update_from(indices)
        if window > self._max_window:
            self._max_window = window
        if self._agg_cache:
            self._agg_cache.clear()

    def record_columns(
        self,
        pool_id: str,
        datacenter_id: str,
        counter: str,
        windows: np.ndarray,
        server_indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append pre-columnised rows with mixed windows (bulk loads).

        ``server_indices`` are interned indices from
        :meth:`intern_server` / :meth:`intern_servers`.  The store
        takes ownership of the arrays — callers must not mutate them
        afterwards.  This is the bulk-ingest primitive behind
        :meth:`record_many` and the archive importer;
        :meth:`record_batch` is the single-window convenience over it.
        """
        if values.size == 0:
            return
        table = self._table(pool_id, datacenter_id, counter)
        table.append_batch(windows, server_indices, values)
        self._servers_by_pool_dc[(pool_id, datacenter_id)].update_from(
            server_indices
        )
        max_w = int(windows.max())
        if max_w > self._max_window:
            self._max_window = max_w
        if self._agg_cache:
            self._agg_cache.clear()

    def record_many(self, samples: Iterable[CounterSample]) -> None:
        """Append many samples, columnised per table (the batch path)."""
        for (pool_id, dc_id, counter), windows, indices, values in columnise_samples(
            samples, self.intern_server
        ):
            self.record_columns(pool_id, dc_id, counter, windows, indices, values)

    # ------------------------------------------------------------------
    # Streaming: rolling retention and incremental aggregates
    # ------------------------------------------------------------------
    @property
    def evicted_before(self) -> int:
        """Windows below this index live in the spill archive (0 = none)."""
        return self._evicted_before

    @property
    def sealed_through(self) -> int:
        """Largest window every tracked aggregate is final through; -1
        with no tracked aggregates (or before the first seal)."""
        if not self._tracked:
            return -1
        return min(t.sealed_through for t in self._tracked.values())

    def evict_windows(self, before: int) -> int:
        """Move every row with ``window < before`` to the spill archive.

        The rolling-retention primitive of streaming mode: hot memory
        stays bounded by the retained window span while queries keep
        answering *exactly* — ranges that dip below the watermark merge
        the archived segments back in original append order, ranges
        above it never touch the disk.  Requires rows to have arrived
        in non-decreasing block order (which every simulation engine's
        emission guarantees); returns the number of rows evicted.
        Evicting is idempotent — a cutoff at or below the current
        watermark is a no-op.
        """
        if before <= self._evicted_before:
            return 0
        evicted = 0
        for key, table in self._tables.items():
            segment = table.evict(before)
            if segment is None:
                continue
            if self._spill is None:
                self._spill = SpillArchive()
            self._spill.append(key, *segment)
            evicted += int(segment[0].size)
        self._evicted_before = before
        if evicted and self._agg_cache:
            self._agg_cache.clear()
        return evicted

    def hot_sample_count(self) -> int:
        """Samples currently held in memory (excludes spilled rows)."""
        return sum(table.hot_rows for table in self._tables.values())

    def track_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        reducer: str = "mean",
    ) -> None:
        """Maintain ``pool_window_aggregate(...)`` incrementally.

        After registration, :meth:`seal_through` appends each newly
        sealed block's per-window aggregate to a persistent series, and
        :meth:`pool_window_aggregate` answers any query fully inside
        the sealed range by slicing that series — no re-gather, no
        spill reads, however long the run.  Registering the same
        aggregate twice is a no-op.
        """
        if reducer not in ("mean", "sum", "max", "count"):
            raise ValueError(f"unknown reducer {reducer!r}")
        key = (pool_id, counter, datacenter_id, reducer)
        if key not in self._tracked:
            self._tracked[key] = _TrackedAggregate(reducer)

    def seal_through(self, window: int) -> None:
        """Mark windows ``<= window`` complete; extend tracked series.

        Callers must have ingested *all* rows of the sealed windows
        first (the streaming driver seals at block boundaries).  Each
        tracked aggregate gathers only the not-yet-sealed slice and
        appends its per-window partials — bit-identical to a full
        recompute because aggregate bins never mix windows.
        """
        for (pool_id, counter, datacenter_id, _r), tracker in self._tracked.items():
            if window <= tracker.sealed_through:
                continue
            lo = tracker.sealed_through + 1
            keyed = self._matching_tables(pool_id, counter, datacenter_id)
            windows, _servers, values = self._gather(keyed, lo, window + 1)
            if windows.size:
                out_w, out_v = window_aggregate_arrays(
                    windows, values, tracker.reducer
                )
                tracker.extend(out_w, out_v, window)
            else:
                tracker.extend(
                    np.array([], dtype=np.int64), np.array([], dtype=float),
                    window,
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pools(self) -> Tuple[str, ...]:
        return tuple(sorted(self._pools))

    @property
    def datacenters(self) -> Tuple[str, ...]:
        return tuple(sorted(self._datacenters))

    @property
    def max_window(self) -> int:
        """Largest window index seen; -1 when empty."""
        return self._max_window

    def counters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        names = {
            counter
            for (pool, counter) in self._by_pool_counter
            if pool == pool_id
        }
        return tuple(sorted(names))

    def servers_in_pool(
        self,
        pool_id: str,
        datacenter_id: Optional[str] = None,
    ) -> Tuple[str, ...]:
        indices: Set[int] = set()
        for (pool, dc), members in self._servers_by_pool_dc.items():
            if pool != pool_id:
                continue
            if datacenter_id is None or dc == datacenter_id:
                indices.update(members.indices().tolist())
        return tuple(sorted(self._interner.name(i) for i in indices))

    def datacenters_for_pool(self, pool_id: str) -> Tuple[str, ...]:
        dcs = {
            dc
            for (pool, dc, _counter) in self._tables
            if pool == pool_id
        }
        return tuple(sorted(dcs))

    def datacenters_for_pool_counter(
        self, pool_id: str, counter: str
    ) -> Tuple[str, ...]:
        """Datacenters with (pool, counter) rows, sorted.

        The table-directory read the sharded facade uses to plan its
        per-datacenter merges; public (rather than a peek at
        ``_by_pool_counter``) so process-backed shards can answer it
        over RPC.
        """
        return tuple(sorted(key[1] for key in self._by_pool_counter.get((pool_id, counter), [])))

    def iter_tables(
        self,
    ) -> Iterator[Tuple[TableKey, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (key, windows, server indices, values) per table.

        The export module's bulk read; rows are in append order.
        Spilled segments are merged back ahead of the hot columns, so
        exports stay byte-identical whether or not retention evicted.
        """
        for key, table in self._tables.items():
            if table.spilled_rows and self._spill is not None:
                yield (key,) + self._gather([(key, table)], 0, self._max_window + 1)
            else:
                windows, servers, values = table.columns()
                yield key, windows, servers, values

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _matching_tables(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str],
    ) -> List[Tuple[TableKey, _Table]]:
        keys = self._by_pool_counter.get((pool_id, counter), [])
        # Sorted by datacenter so query results never depend on table
        # creation order (which an export/import round trip reshuffles).
        return [
            (key, self._tables[key])
            for key in sorted(keys, key=lambda k: k[1])
            if datacenter_id is None or key[1] == datacenter_id
        ]

    def _gather_one(
        self,
        key: TableKey,
        table: _Table,
        lo: int,
        hi: int,
        ws: List[np.ndarray],
        ss: List[np.ndarray],
        vs: List[np.ndarray],
    ) -> None:
        """Append one table's [lo, hi) slice — spill segments first.

        Spill segments precede the hot columns in original append
        order, so the concatenation is exactly the table's pre-eviction
        column order; queries entirely above the eviction watermark
        skip the archive (no disk reads on the streaming hot path).
        """
        full = lo <= 0 and hi > self._max_window
        if self._spill is not None and lo < self._evicted_before:
            for offset, seg_lo, seg_hi in self._spill.segments(key):
                if seg_hi < lo or seg_lo >= hi:
                    continue
                windows, servers, values = self._spill.read(offset)
                if not (full or (lo <= seg_lo and seg_hi < hi)):
                    mask = (windows >= lo) & (windows < hi)
                    windows = windows[mask]
                    servers = servers[mask]
                    values = values[mask]
                if windows.size:
                    ws.append(windows)
                    ss.append(servers)
                    vs.append(values)
        windows, servers, values = table.columns()
        if windows.size == 0:
            return
        if full or (table.spilled_rows and lo <= self._evicted_before
                    and hi > self._max_window):
            ws.append(windows)
            ss.append(servers)
            vs.append(values)
        else:
            mask = (windows >= lo) & (windows < hi)
            ws.append(windows[mask])
            ss.append(servers[mask])
            vs.append(values[mask])

    def _gather(
        self,
        tables: List[Tuple[TableKey, _Table]],
        lo: int,
        hi: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window-sliced (windows, server indices, values) of many tables."""
        ws: List[np.ndarray] = []
        ss: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        for key, table in tables:
            self._gather_one(key, table, lo, hi, ws, ss, vs)
        if not ws:
            empty = np.array([], dtype=np.int64)
            return empty, empty, np.array([], dtype=float)
        if len(ws) == 1:
            return ws[0], ss[0], vs[0]
        return np.concatenate(ws), np.concatenate(ss), np.concatenate(vs)

    def gather_columns(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw window-sliced (windows, server indices, values) columns.

        Rows come out table by table — tables sorted by datacenter, rows
        in append order within each table — which is the canonical order
        every aggregate query accumulates in.  The sharded facade reads
        shards through this method to rebuild that exact order.
        """
        lo = start if start is not None else 0
        hi = stop if stop is not None else self._max_window + 1
        tables = self._matching_tables(pool_id, counter, datacenter_id)
        return self._gather(tables, lo, hi)

    def server_series(
        self,
        pool_id: str,
        counter: str,
        server_id: str,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> TimeSeries:
        """Series of one counter on one server, optionally window-sliced."""
        index = self._interner.index.get(server_id)
        empty = TimeSeries(np.array([], dtype=int), np.array([], dtype=float))
        if index is None:
            return empty
        lo = start if start is not None else 0
        hi = stop if stop is not None else self._max_window + 1
        window_parts: List[np.ndarray] = []
        value_parts: List[np.ndarray] = []
        for keyed in self._matching_tables(pool_id, counter, None):
            windows, servers, values = self._gather([keyed], lo, hi)
            mask = servers == index
            if not mask.any():
                continue
            window_parts.append(windows[mask])
            value_parts.append(values[mask])
        if not window_parts:
            return empty
        if len(window_parts) == 1:
            return TimeSeries(window_parts[0], value_parts[0])
        return TimeSeries(np.concatenate(window_parts), np.concatenate(value_parts))

    def pool_window_aggregate(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
        reducer: str = "mean",
    ) -> TimeSeries:
        """Per-window aggregate across a pool's servers.

        ``reducer``: ``"mean"`` (default), ``"sum"``, ``"max"``,
        ``"count"``.  The planner's workhorse — e.g. average RPS/server
        or summed pool workload per window.  Grouping is a pair of
        ``np.bincount`` calls over the window column; results are
        memoized until the next ingest.
        """
        if reducer not in ("mean", "sum", "max", "count"):
            raise ValueError(f"unknown reducer {reducer!r}")
        lo = start if start is not None else 0
        hi = stop if stop is not None else self._max_window + 1
        tracked = self._tracked.get((pool_id, counter, datacenter_id, reducer))
        if tracked is not None and hi - 1 <= tracked.sealed_through:
            # Served from the incrementally maintained series: no
            # re-gather and no spill reads, however long the run.
            return tracked.series_slice(lo, hi)
        cache_key = (pool_id, counter, datacenter_id, start, stop, reducer)
        cached = self._agg_cache.get(cache_key)
        if cached is not None:
            return cached

        def memoize(series: TimeSeries) -> TimeSeries:
            # The memoized object is shared across callers; freeze its
            # arrays so an accidental in-place mutation raises instead
            # of silently poisoning the cache.
            series.windows.setflags(write=False)
            series.values.setflags(write=False)
            self._agg_cache[cache_key] = series
            return series
        tables = self._matching_tables(pool_id, counter, datacenter_id)
        windows, _servers, values = self._gather(tables, lo, hi)
        if windows.size == 0:
            return memoize(
                TimeSeries(np.array([], dtype=int), np.array([], dtype=float))
            )
        out_windows, out_values = window_aggregate_arrays(windows, values, reducer)
        return memoize(TimeSeries.from_sorted(out_windows, out_values))

    def per_server_values(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """All window values per server (for percentile feature vectors).

        Values keep their append (window) order within each server;
        grouping is one stable argsort over the interned server column.
        """
        lo = start if start is not None else 0
        hi = stop if stop is not None else self._max_window + 1
        out: Dict[str, np.ndarray] = {}
        for keyed in self._matching_tables(pool_id, counter, datacenter_id):
            _windows, servers, values = self._gather([keyed], lo, hi)
            if values.size == 0:
                continue
            order = np.argsort(servers, kind="stable")
            sorted_servers = servers[order]
            sorted_values = values[order]
            boundaries = np.flatnonzero(np.diff(sorted_servers)) + 1
            starts = np.concatenate(([0], boundaries))
            pieces = np.split(sorted_values, boundaries)
            for offset, piece in zip(starts, pieces):
                out[self._interner.name(sorted_servers[offset])] = piece
        return out

    def pool_matrix(
        self,
        pool_id: str,
        counter: str,
        datacenter_id: Optional[str] = None,
        start: Optional[int] = None,
        stop: Optional[int] = None,
    ) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray]:
        """Dense (windows, server_ids, values[window, server]) cube.

        Missing observations (offline servers, late joiners) are NaN.
        This is the array-native view consumers use to compute
        per-server statistics in one vectorized pass.
        """
        lo = start if start is not None else 0
        hi = stop if stop is not None else self._max_window + 1
        tables = self._matching_tables(pool_id, counter, datacenter_id)
        windows, servers, values = self._gather(tables, lo, hi)
        if values.size == 0:
            return (
                np.array([], dtype=np.int64),
                (),
                np.empty((0, 0), dtype=float),
            )
        uniq_windows, window_pos = np.unique(windows, return_inverse=True)
        uniq_servers, server_pos = np.unique(servers, return_inverse=True)
        matrix = np.full((uniq_windows.size, uniq_servers.size), np.nan)
        matrix[window_pos, server_pos] = values
        names = tuple(self._interner.name(i) for i in uniq_servers)
        return uniq_windows, names, matrix

    def all_values(
        self,
        counter: str,
        pool_ids: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Every stored value of ``counter``, optionally pool-filtered.

        Powers the fleet-wide distribution studies (Figs 12-14).
        """
        pools = list(pool_ids) if pool_ids is not None else list(self._pools)
        chunks: List[np.ndarray] = []
        for pool in pools:
            for key in self._by_pool_counter.get((pool, counter), []):
                _windows, _servers, values = self._gather(
                    [(key, self._tables[key])], 0, self._max_window + 1
                )
                if values.size:
                    chunks.append(values)
        if not chunks:
            return np.array([], dtype=float)
        return np.concatenate(chunks)

    def sample_count(self) -> int:
        """Total number of stored samples."""
        return sum(table.n_rows for table in self._tables.values())
