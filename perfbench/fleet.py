"""The sharded-fleet repetition paper-pipeline's traced run adds.

A repetition spawns one ``repro shard-server`` subprocess, builds the
paper fleet at 30 servers per deployment, simulates half a day at
``block_windows=64`` into a 2-shard ``tcp`` ``ShardedMetricStore``
(both shards are sessions of that one server), then runs
``CapacityPlanner.plan`` (QoS from ``service_catalog()``, survive-DC-
loss on) and ``study_fleet_availability`` on the live sharded store.
It is the only run that writes through the wire and reads back through
RPC merges.  It is not a workload of its own: its wall time was too
unsteady to gate on a 2-vCPU machine (see ``NOTES.md``).
"""

from __future__ import annotations

import contextlib
import hashlib
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import outchecks
from layers import commands_rows
from measure import reap
from workload import Iteration

SERVERS = 30
DAYS = 0.5
BLOCK = 64
SHARDS = 2
SERVER_TIMEOUT_S = 60.0


def _qos(store) -> Dict:
    from repro.cluster.service import service_catalog
    from repro.core.slo import QoSRequirement

    catalog = service_catalog()
    return {
        pool: QoSRequirement(latency_p95_ms=catalog[pool].slo_latency_ms)
        for pool in store.pools if pool in catalog
    }


def plan_text(plan) -> str:
    """Every number of a fleet plan at full precision."""
    lines = [plan.render_savings_table(), repr(plan.mean_total_savings)]
    for summary in plan.summaries:
        lines.append(repr((
            summary.pool_id, summary.validation.status.value,
            summary.efficiency_savings, summary.online_savings,
            summary.total_savings, summary.latency_impact_ms,
        )))
    return "\n".join(lines)


@contextlib.contextmanager
def wire_rows():
    """Count rows every TCP ingest frame carries (checks, not timing)."""
    from repro.telemetry.transport import TcpTransport

    original = TcpTransport.__dict__["send_ingest"]
    sent = [0]

    def counting(self, names, commands):
        sent[0] += commands_rows(commands)
        return original(self, names, commands)

    TcpTransport.send_ingest = counting
    try:
        yield sent
    finally:
        TcpTransport.send_ingest = original


class ShardedFleet:
    def __init__(self, root: Path, seed: int, env: Dict[str, str]) -> None:
        self.root = root
        self.seed = seed
        self.env = env
        self.windows = int(round(DAYS * 720))
        self.sizes = {
            "days": DAYS, "windows": self.windows,
            "fleet": f"paper (9 DCs x 7 pools), {SERVERS} servers/deployment",
            "block_windows": BLOCK, "shards": SHARDS, "backend": "tcp",
        }
        self.plans: List[str] = []

    def _spawn_server(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-server", "--listen",
             "127.0.0.1:0", "--max-sessions", str(SHARDS)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = proc.stdout.readline()
        if not line.startswith("shard-server listening on "):
            reap(proc, 5.0)
            raise RuntimeError(f"shard-server did not start: {line!r}")
        return proc, line.split()[-1]

    def _simulator(self, store):
        from repro.cluster.builders import build_paper_fleet
        from repro.cluster.simulation import SimulationConfig, Simulator

        return Simulator(
            build_paper_fleet(servers_per_deployment=SERVERS, seed=self.seed),
            store=store, seed=self.seed,
            config=SimulationConfig(record_request_classes=True, block_windows=BLOCK),
        )

    def iteration(self) -> Iteration:
        from repro.core.availability import study_fleet_availability
        from repro.core.planner import CapacityPlanner
        from repro.telemetry.sharding import ShardedMetricStore

        server, address = self._spawn_server()
        try:
            with wire_rows() as sent:
                store = ShardedMetricStore(
                    n_shards=SHARDS, backend="tcp", shard_addrs=[address] * SHARDS,
                )
                try:
                    sim = self._simulator(store)
                    started = time.perf_counter()
                    sim.run(self.windows)
                    store.flush()
                    simulated = time.perf_counter()
                    plan = CapacityPlanner(store, _qos(store), survive_dc_loss=True).plan()
                    study = study_fleet_availability(store)
                    ended = time.perf_counter()
                    samples = store.sample_count()
                finally:
                    store.close()
        finally:
            code, server_mb = reap(server, SERVER_TIMEOUT_S)
        text = plan_text(plan)
        self.plans.append(text)
        digest = hashlib.sha256(
            f"{text}\n{study.overall_mean!r}\n{samples}".encode()
        ).hexdigest()
        return Iteration(
            wall_s=ended - started,
            sim_s=simulated - started,
            windows=self.windows,
            digest=digest,
            operations=3,
            op_failures=outchecks.check_exit("shard-server", code),
            checks=2,
            check_failures=outchecks.failed_checks(
                outchecks.check_wire_rows(sent[0], samples),
                outchecks.check_savings(plan.mean_total_savings),
            ),
            child_peaks_mb=[server_mb],
            wall_span=(started, ended),
            extra={"shard.server_peak_rss_mb": server_mb},
        )

    def final_checks(self) -> List[str]:
        """The sharded plan equals an unsharded plan of the same seed."""
        from repro.core.planner import CapacityPlanner
        from repro.telemetry.store import MetricStore

        store = MetricStore()
        self._simulator(store).run(self.windows)
        unsharded = plan_text(CapacityPlanner(store, _qos(store), survive_dc_loss=True).plan())
        return outchecks.check_plans_equal(self.plans[-1], unsharded)
