"""Which ``repro`` calls the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<operation>``; the layer is the name's prefix
and the unit its self time is reported in (``<layer>.self_s``).  Each
metric below says which end-to-end metric it should move, on which
workload, in ``NOTES.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from measure import median, percentile
from spans import SpanIndex, Tracer, layer_self_times, self_times

#: Layers whose self time is always reported (0 when not exercised).
LAYERS = (
    "cli", "simulation", "export", "store", "shard", "planner", "headroom",
    "validation", "availability", "ransac", "alarm", "stream", "query",
)

#: Metrics only some workloads produce (0 on the others): the live
#: stream's query figures, the traced sharded-fleet repetition's, the
#: archive size.
WORKLOAD_METRICS = (
    "query_p50_ms", "query_p99_ms", "query_ontime_ratio", "query.scheduled",
    "query.answered", "query.failed", "query.abandoned",
    "generator.late_p99_ms", "shard.server_peak_rss_mb", "sharded_fleet.wall_s",
    "archive_mb",
)

STORE_READS = (
    "pool_window_aggregate", "pool_matrix", "per_server_values",
    "server_series", "gather_columns",
)
SIM_SPANS = ("simulation.run", "simulation.run_block")
INGEST_SPANS = ("store.record_columns", "store.record_batch")


def _rows(values) -> int:
    return int(getattr(values, "size", 0))


def commands_rows(commands) -> int:
    """Rows carried by a batch of buffered shard ingest commands."""
    return sum(
        _rows(args[-1]) if method == "record_columns" else 1
        for method, args in commands
    )


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every measured ``repro`` layer."""
    import repro.cli as cli
    from repro.cluster import server, simulation, streaming
    from repro.core import (
        availability, headroom, metric_validation, planner, regression_analysis,
    )
    from repro.stats import ransac
    from repro.telemetry import export, query_server, sharding, store, transport, workers
    from repro.workload import demand_engine

    wrap, count = tracer.wrap, tracer.count

    def under_simulation() -> bool:
        return any(name in SIM_SPANS for name in tracer.open_names())

    def ingested(args, kwargs, result):
        # record_columns and record_batch both take ``values`` seventh.
        rows = _rows(kwargs.get("values", args[6] if len(args) > 6 else None))
        count("store.rows_ingested", rows)
        if under_simulation():
            count("simulation.samples", rows)

    def record_columns(args, kwargs, result):
        count("store.record_columns_calls")
        ingested(args, kwargs, result)

    def record_batch(args, kwargs, result):
        count("store.record_batch_calls")
        ingested(args, kwargs, result)

    wrap(cli, "main", lambda args, kwargs: "cli." + (args[0][0] if args and args[0] else "main"))

    wrap(simulation.Simulator, "run", "simulation.run")
    wrap(simulation.Simulator, "run_block", "simulation.run_block",
         lambda args, kwargs, result: count("simulation.windows", args[1]))
    wrap(simulation.Simulator, "offered_demand", "simulation.demand")
    wrap(demand_engine.DemandEngine, "compute_demand_block", "simulation.demand")
    wrap(server, "observe_pool", "simulation.observe")
    wrap(server, "observe_pool_block", "simulation.observe")

    for cls in (store.MetricStore, sharding.ShardedMetricStore):
        wrap(cls, "record_columns", "store.record_columns", record_columns)
        wrap(cls, "record_batch", "store.record_batch", record_batch)
        for method in STORE_READS:
            wrap(cls, method, "store.read")
        wrap(cls, "seal_through", "store.seal_through")
        wrap(cls, "evict_windows", "store.evict_windows",
             lambda args, kwargs, result: count("store.rows_evicted", int(result or 0)))
    wrap(store.SpillArchive, "read", "store.spill_read",
         lambda args, kwargs, result: count("store.spill_reads"))

    def exported(args, kwargs, result):
        count("export.rows", int(result))
        count("export.bytes", _file_size(args[1] if len(args) > 1 else kwargs["path"]))

    wrap(export, "export_store", "export.write", exported)
    wrap(export, "import_store", "export.read",
         lambda args, kwargs, result: count("export.read_calls"))

    def sent(args, kwargs, result):
        count("shard.ingest_frames")
        count("shard.ingest_rows", commands_rows(args[2]))

    wrap(transport.TcpTransport, "send_ingest", "shard.send_ingest", sent)
    wrap(workers.ShardClient, "flush", "shard.flush")
    wrap(workers.ShardClient, "call", "shard.rpc")

    wrap(planner.CapacityPlanner, "plan", "planner.plan")
    wrap(headroom.HeadroomPlanner, "plan_pool", "headroom.plan_pool")
    wrap(metric_validation.MetricValidator, "validate", "validation.validate")
    wrap(availability, "study_fleet_availability", "availability.study")
    wrap(ransac.RansacRegressor, "fit", "ransac.fit")
    tracer.count_calls(ransac, "fit_linear", "ransac.subset_fits")
    tracer.count_calls(ransac, "fit_polynomial", "ransac.subset_fits")

    wrap(regression_analysis.OnlineRegressionAlarm, "observe", "alarm.observe")
    wrap(streaming.StreamingSimulator, "run", "stream.run")
    wrap(query_server.LiveQuerySurface, "aggregate", "query.surface")
    wrap(query_server.LiveQuerySurface, "status", "query.surface")


def _file_size(path) -> int:
    import os

    return os.path.getsize(path)


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the spans and counts of one run give."""
    index = SpanIndex(tracer.spans)
    counts = tracer.counts
    incl = index.inclusive_s

    def n_calls(names: Iterable[str]) -> int:
        return len(index.outermost(names))

    metrics = {
        f"cli.{command}_s": incl([f"cli.{command}"])
        for command in ("simulate", "plan", "validate", "availability")
    }
    fits = n_calls(["ransac.fit"])
    metrics.update({
        "simulation.run_s": incl(SIM_SPANS),
        "simulation.windows": counts["simulation.windows"],
        "simulation.samples": counts["simulation.samples"],
        "simulation.demand_s": incl(["simulation.demand"]),
        "simulation.observe_s": incl(["simulation.observe"]),
        "simulation.ingest_s": incl(INGEST_SPANS, under=SIM_SPANS),
        "export.write_s": incl(["export.write"]),
        "export.read_s": incl(["export.read"]),
        "export.read_calls": counts["export.read_calls"],
        "export.rows": counts["export.rows"],
        "export.bytes": counts["export.bytes"],
        "store.record_columns_calls": counts["store.record_columns_calls"],
        "store.record_batch_calls": counts["store.record_batch_calls"],
        "store.rows_ingested": counts["store.rows_ingested"],
        "store.seal_through_s": incl(["store.seal_through"]),
        "store.evict_windows_s": incl(["store.evict_windows"]),
        "store.rows_evicted": counts["store.rows_evicted"],
        "store.read_s": incl(["store.read"]),
        "store.read_calls": n_calls(["store.read"]),
        "store.spill_reads": counts["store.spill_reads"],
        "store.spill_read_s": incl(["store.spill_read"]),
        "shard.ingest_frames": counts["shard.ingest_frames"],
        "shard.ingest_rows": counts["shard.ingest_rows"],
        "shard.flush_s": incl(["shard.flush"]),
        "shard.rpc_calls": n_calls(["shard.rpc"]),
        "shard.rpc_s": incl(["shard.rpc"]),
        "planner.plan_s": incl(["planner.plan"]),
        "headroom.plan_pool_s": incl(["headroom.plan_pool"]),
        "validation.validate_s": incl(["validation.validate"]),
        "availability.study_s": incl(["availability.study"]),
        "ransac.fit_s": incl(["ransac.fit"]),
        "ransac.fit_calls": fits,
        "ransac.subset_fits": counts["ransac.subset_fits"],
        "ransac.subset_fits_per_fit": counts["ransac.subset_fits"] / fits if fits else 0.0,
        "alarm.observe_s": incl(["alarm.observe"]),
        "alarm.observe_calls": n_calls(["alarm.observe"]),
        "trace.spans": len(tracer.spans),
    })
    selfs = layer_self_times(tracer.spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return metrics


def stream_blocks(tracer: Tracer) -> Dict[str, float]:
    """Per-block hold time of a traced in-process stream.

    A block's hold is ``run_block + seal_through + observe +
    evict_windows`` — the direct children of ``stream.run`` that run
    inside one store-lock hold — which approximates how long a reader
    waits when it arrives just after the block starts.  The lock wait
    readers actually paid is the self time of the query-surface spans
    (the surface call minus the store read inside it).
    """
    index = SpanIndex(tracer.spans)
    holds = []
    for run in index.outermost(["stream.run"]):
        for child in index.children(run):
            if child[2] == "simulation.run_block":
                holds.append(0.0)
            if holds and child[2] in (
                "simulation.run_block", "store.seal_through",
                "alarm.observe", "store.evict_windows",
            ):
                holds[-1] += child[4] - child[3]
    selfs = self_times(index.spans)
    return {
        "stream.blocks": len(holds),
        "stream.block_hold_p50_ms": 1e3 * median(holds) if holds else 0.0,
        "stream.block_hold_p99_ms": 1e3 * percentile(holds, 99.0) if holds else 0.0,
        "query.lock_wait_s": sum(
            selfs[span[0]] for span in index.spans if span[2] == "query.surface"
        ),
    }
