"""Persisting and reloading telemetry.

The paper's pipeline stores ~3 GB/s of counters for 90 days; downstream
capacity analysis runs on that archive, not on live servers.  This
module gives the library the same separation: a simulation (or a real
collector) can dump its :class:`~repro.telemetry.store.MetricStore` to
a compact CSV archive, and analyses can reload it later without
re-simulating.

Format: one CSV with the columns
``window,server_id,pool_id,datacenter_id,counter,value`` — trivially
greppable, diffable, and loadable from other tools.  gzip compression
is applied when the path ends in ``.gz``.
"""

from __future__ import annotations

import csv
import gzip
import io
import zlib
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.telemetry.store import MetricStore

_HEADER = ("window", "server_id", "pool_id", "datacenter_id", "counter", "value")

PathLike = Union[str, Path]


class ArchiveError(ValueError):
    """An archive that cannot be loaded; the message names the path
    (and, for a bad row, its line number)."""


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def export_store(
    store: "MetricStore",
    path: PathLike,
    counters: Optional[Sequence[str]] = None,
) -> int:
    """Write the store to ``path``; returns the number of rows written.

    ``store`` may be a single :class:`MetricStore` or a
    :class:`~repro.telemetry.sharding.ShardedMetricStore` — only the
    ``iter_tables`` / ``server_name`` surface is used, and because every
    server lives on exactly one shard the archive written from a
    sharded store is byte-identical to the single-store export.

    ``counters`` optionally restricts the export to a subset of counter
    names (e.g. only the planner's working set).
    """
    path = Path(path)
    wanted = set(counters) if counters is not None else None
    # Regroup the columnar tables into per-server runs so the archive
    # keeps its historical (pool, counter, server) ordering.
    entries = []
    for (pool_id, dc_id, counter), windows, servers, values in store.iter_tables():
        if wanted is not None and counter not in wanted:
            continue
        if values.size == 0:
            continue
        order = np.argsort(servers, kind="stable")
        sorted_servers = servers[order]
        boundaries = np.flatnonzero(np.diff(sorted_servers)) + 1
        starts = np.concatenate(([0], boundaries))
        window_runs = np.split(windows[order], boundaries)
        value_runs = np.split(values[order], boundaries)
        for offset, run_windows, run_values in zip(starts, window_runs, value_runs):
            server_id = store.server_name(int(sorted_servers[offset]))
            entries.append(
                (pool_id, counter, server_id, dc_id, run_windows, run_values)
            )
    entries.sort(key=lambda e: (e[0], e[1], e[2]))

    rows = 0
    with _open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for pool_id, counter, server_id, dc_id, run_windows, run_values in entries:
            for window, value in zip(run_windows, run_values):
                writer.writerow(
                    (
                        int(window),
                        server_id,
                        pool_id,
                        dc_id,
                        counter,
                        repr(float(value)),
                    )
                )
                rows += 1
    return rows


def import_store(path: PathLike) -> MetricStore:
    """Load a store previously written by :func:`export_store`.

    Rows are columnised per (pool, datacenter, counter) table in file
    order and appended through the store's batch path.  A file that is
    not a readable archive — wrong header, a short or non-numeric row,
    truncated or corrupt compression — raises :class:`ArchiveError`; a
    missing file raises the usual :class:`OSError`.
    """
    path = Path(path)
    store = MetricStore()
    grouped: dict = {}
    line_number = 1
    try:
        with _open_text(path, "r") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != _HEADER:
                raise ArchiveError(
                    f"{path} is not a telemetry archive "
                    f"(expected header {_HEADER}, got {header})"
                )
            for line_number, row in enumerate(reader, start=2):
                if len(row) != len(_HEADER):
                    raise ArchiveError(
                        f"{path}:{line_number}: malformed row {row!r}"
                    )
                window, server_id, pool_id, datacenter_id, counter, value = row
                key = (pool_id, datacenter_id, counter)
                bucket = grouped.get(key)
                if bucket is None:
                    bucket = ([], [], [])
                    grouped[key] = bucket
                bucket[0].append(int(window))
                bucket[1].append(store.intern_server(server_id))
                bucket[2].append(float(value))
    except ArchiveError:
        raise
    except (ValueError, EOFError, gzip.BadGzipFile, zlib.error, csv.Error) as error:
        # A bad number names its row; a decode or decompression error
        # names the last row read before it.
        raise ArchiveError(f"{path}:{line_number}: {error}") from error
    for (pool_id, datacenter_id, counter), (windows, indices, values) in grouped.items():
        store.record_columns(
            pool_id,
            datacenter_id,
            counter,
            np.asarray(windows, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=float),
        )
    return store


def iter_rows(path: PathLike) -> Iterator[dict]:
    """Stream archive rows as dictionaries (for ad-hoc inspection)."""
    path = Path(path)
    with _open_text(path, "r") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            yield {
                "window": int(row["window"]),
                "server_id": row["server_id"],
                "pool_id": row["pool_id"],
                "datacenter_id": row["datacenter_id"],
                "counter": row["counter"],
                "value": float(row["value"]),
            }
