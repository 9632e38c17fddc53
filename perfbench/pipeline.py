"""``paper-pipeline``: the paper's offline workflow as a user types it.

``simulate ARCHIVE.csv.gz --days D --seed S``, then ``plan``,
``validate`` and ``availability`` on that archive, each through
``repro.cli.main`` in this process, so the CLI defaults (the 9-DC x
7-pool paper fleet, 6 servers per deployment, the batch engine at
block 1, an unsharded store) are part of the workload.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

import layers
import outchecks
from fleet import ShardedFleet
from spans import Tracer
from workload import Iteration, Traced

#: Simulated days per archive (144 windows of the paper fleet).  On
#: 0.1-day archives ``plan`` raises an unhandled ValueError for some
#: seeds (1 of 40 tried), which 0.2 days did not show in 40 seeds.
DAYS = 0.2
#: Pools whose fitted CPU slope ``validate`` must match the catalog.
SLOPE_POOLS = ("B", "D")
#: Set-up samples taken before the repetitions, and with each one (so
#: the samples span the run).
SETUP_REPEATS = 8
SETUP_PER_REPEAT = 2
_TIMED_IMPORT = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


class PaperPipeline(Traced):
    name = "paper-pipeline"

    def __init__(self, root: Path, work: Path, seed: int, env: Dict[str, str]) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.env = env
        self.archive = work / f"pipeline-{seed}.csv.gz"
        self.sizes: Dict[str, object] = {
            "days": DAYS, "windows": int(round(DAYS * 720)),
            "fleet": "paper (9 DCs x 7 pools), 6 servers/deployment",
            "engine": "batch, block 1", "store": "unsharded",
        }

    def setup(self) -> List[float]:
        """Import the CLI, read the catalog, take ``SETUP_REPEATS`` samples."""
        import repro.cli  # noqa: F401
        from repro.cluster.service import service_catalog

        catalog = service_catalog()
        self.catalog_slopes = {
            pool: catalog[pool].cpu_cost_per_rps() for pool in SLOPE_POOLS
        }
        return [self._setup_sample() for _ in range(SETUP_REPEATS)]

    def _setup_sample(self) -> float:
        """One cold ``import repro.cli`` (timed inside a child
        interpreter) plus one paper-fleet build."""
        from repro.cluster.builders import build_paper_fleet

        child = subprocess.run(
            [sys.executable, "-c", _TIMED_IMPORT], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        began = time.perf_counter()
        build_paper_fleet(servers_per_deployment=6, seed=self.seed)
        return float(child.stdout) + time.perf_counter() - began

    def _cli(self, *argv: str):
        from repro.cli import main

        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception:  # at a shell: a traceback and exit status 1
                traceback.print_exc()
                code = 1
        return code, time.perf_counter() - started, out.getvalue(), err.getvalue()

    def iteration(self) -> Iteration:
        setup_s = [self._setup_sample() for _ in range(SETUP_PER_REPEAT)]
        archive = str(self.archive)
        started = time.perf_counter()
        sim = self._cli("simulate", archive, "--days", str(DAYS), "--seed", str(self.seed))
        plan = self._cli("plan", archive)
        validate = self._cli("validate", archive)
        avail = self._cli("availability", archive)
        ended = time.perf_counter()

        commands = {"simulate": sim, "plan": plan, "validate": validate, "availability": avail}
        # validate's exit code is judged by its output check below.
        failures = [
            f"{name} exited {code}: {(err.strip().splitlines() or [''])[-1]}"
            for name, (code, _, _, err) in commands.items()
            if code != 0 and name != "validate"
        ]
        digest, rows = _archive_digest(self.archive)
        for part in (plan[2], validate[2], avail[2]):
            digest.update(part.encode())
        checks = outchecks.failed_checks(
            outchecks.check_archive_rows(sim[3], rows),
            outchecks.check_validate(validate[0], validate[2], self.catalog_slopes),
            outchecks.check_savings(outchecks.fleet_savings(plan[2])),
        )
        return Iteration(
            wall_s=ended - started,
            sim_s=sim[1],
            windows=self.sizes["windows"],
            digest=digest.hexdigest(),
            operations=len(commands),
            op_failures=failures,
            checks=3,
            check_failures=checks,
            setup_s=setup_s,
            wall_span=(started, ended),
            extra={"archive_mb": self.archive.stat().st_size / 2**20},
        )

    def traced(self, tracer: Tracer):
        """The traced pipeline, plus one traced sharded-fleet repetition.

        sharded-fleet's wall time is too unsteady on a 2-vCPU machine to
        gate (its RPC round trips cross CPUs), so it is not a workload
        of its own; its wire, RPC-merge and shard-server layers are
        measured here instead, under a tracer of their own, and its
        output checks count in this run.
        """
        traced, untraced_wall = super().traced(tracer)
        fleet = ShardedFleet(self.root, self.seed, self.env)
        fleet_tracer = Tracer(tracer.run_id + "-sharded-fleet")
        layers.install(fleet_tracer)
        try:
            sharded = fleet.iteration()
        finally:
            fleet_tracer.uninstall()
        fleet_tracer.write(self.work / f"spans-{fleet_tracer.run_id}.jsonl.gz")
        traced.operations += sharded.operations
        traced.op_failures += sharded.op_failures
        traced.checks += sharded.checks + 1
        traced.check_failures += sharded.check_failures + fleet.final_checks()
        traced.extra.update(
            (name, value) for name, value in layers.per_layer(fleet_tracer).items()
            if name.startswith("shard.")
        )
        traced.extra.update(sharded.extra)
        traced.extra["sharded_fleet.wall_s"] = sharded.wall_s
        return traced, untraced_wall

    def close(self) -> None:
        self.archive.unlink(missing_ok=True)


def _archive_digest(path: Path):
    """SHA-256 of the archive's CSV text (gzip headers carry a mtime)."""
    digest = hashlib.sha256()
    lines = 0
    with gzip.open(path, "rb") as archive:
        for line in archive:
            digest.update(line)
            lines += 1
    return digest, max(0, lines - 1)
