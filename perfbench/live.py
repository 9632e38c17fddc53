"""``live-stream``: a streamed run served to an open-loop query load.

Each repetition runs ``python -m repro simulate --stream ...
--query-listen 127.0.0.1:0`` as a subprocess, so the load generator
shares no interpreter with the system, and drives the seeded query mix
of :mod:`loadgen` at it over one ``QueryClient`` connection until the
stream exits.

The traced run cannot see inside that subprocess, so it streams the
same configuration in-process (once untraced, once traced): the spans
give the block loop's layers, the hold time per block and the lock
wait readers paid inside ``LiveQuerySurface``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import outchecks
from loadgen import POOL, OpenLoopGenerator, QueryRecord, summarize
from measure import reap
from spans import Tracer
from workload import Iteration

SERVERS = 64
BLOCK = 64
RETAIN = 2048
WINDOWS = 10000
#: A stream that has not exited this long after it started has hung.
STREAM_TIMEOUT_S = 90.0
#: Spawn-to-address samples taken before the repetitions, beside the
#: one each repetition pays: one sample per repetition is too few to
#: give a steady figure.
SETUP_REPEATS = 8


def _exited(proc: subprocess.Popen) -> bool:
    """Has ``proc`` exited?  Leaves it unreaped so ``wait4`` sees its rusage."""
    return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _sent(records: List[QueryRecord]) -> int:
    """Queries actually sent; a slot abandoned at exit was never attempted."""
    return sum(1 for r in records if r.sent is not None)


def _watermarks(records: List[QueryRecord]) -> List[int]:
    return [r.sealed_through for r in records if r.outcome == "ok"]


class LiveStream:
    name = "live-stream"

    def __init__(self, root: Path, work: Path, seed: int, env: Dict[str, str]) -> None:
        self.root = root
        self.seed = seed
        self.env = env
        self.stderr_path = work / f"live-{seed}.err"
        self.records: List[QueryRecord] = []
        self.sizes = {
            "windows": WINDOWS, "pools": POOL, "datacenters": 1,
            "servers": SERVERS, "block_windows": BLOCK, "retain_windows": RETAIN,
            "query_rate_per_s": 100, "query_mix": "74% tracked aggregate, "
            "25% status, 1% untracked max aggregate",
        }

    def setup(self) -> List[float]:
        """Spawn the stream ``SETUP_REPEATS`` times, each killed once it serves."""
        import repro.telemetry.query_server  # noqa: F401

        samples = []
        for _ in range(SETUP_REPEATS):
            proc, _, seconds = self._spawn()
            proc.kill()
            reap(proc, 10.0)
            samples.append(seconds)
        return samples

    def command(self) -> List[str]:
        return [
            sys.executable, "-m", "repro", "simulate", "--stream",
            "--pools", POOL, "--datacenters", "1", "--servers", str(SERVERS),
            "--block-windows", str(BLOCK), "--retain-windows", str(RETAIN),
            "--alarm-pool", POOL, "--max-windows", str(WINDOWS),
            "--query-listen", "127.0.0.1:0", "--seed", str(self.seed),
        ]

    def _spawn(self):
        """Start the stream; returns (process, query address, seconds to serve)."""
        began = time.perf_counter()
        with open(self.stderr_path, "w") as stderr:
            proc = subprocess.Popen(
                self.command(), cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
        line = proc.stdout.readline()
        if not line.startswith("query server listening on "):
            reap(proc, 10.0)
            raise RuntimeError(f"stream did not start serving: {line!r}")
        return proc, line.split()[-1], time.perf_counter() - began

    def iteration(self) -> Iteration:
        from repro.telemetry.query_server import QueryClient

        proc, address, setup_s = self._spawn()
        ready = time.perf_counter()
        generator = OpenLoopGenerator(None, self.seed)
        try:
            generator.client = QueryClient(address, io_timeout=STREAM_TIMEOUT_S)
            records = generator.run(
                ready, finished=lambda: _exited(proc), deadline=ready + STREAM_TIMEOUT_S,
            )
        finally:
            if generator.client is not None:
                generator.client.close()
            code, peak_mb = reap(proc, 10.0)
        ended = generator.exited_at
        self.records.extend(records)
        stderr_text = self.stderr_path.read_text()
        summary = outchecks.stream_summary(stderr_text)
        query_errors = [r.error for r in records if r.outcome == "error"]
        return Iteration(
            wall_s=ended - ready,
            sim_s=ended - ready,
            windows=WINDOWS,
            digest=hashlib.sha256(summary.encode()).hexdigest(),
            operations=1 + _sent(records),
            op_failures=query_errors,
            checks=3,
            check_failures=outchecks.failed_checks(
                outchecks.check_exit("simulate --stream", code),
                outchecks.check_stream_summary(summary, WINDOWS),
                outchecks.check_sealed_through(_watermarks(records), BLOCK, WINDOWS),
            ),
            setup_s=[setup_s],
            child_peaks_mb=[peak_mb],
            wall_span=(ready, ended),
        )

    def report(self) -> Dict[str, float]:
        """Query metrics pooled over every repetition of this run."""
        stats = summarize(self.records)
        return {
            "query_p50_ms": stats["p50_ms"],
            "query_p99_ms": stats["p99_ms"],
            "query_ontime_ratio": stats["ontime_ratio"],
            "query.scheduled": stats["scheduled"],
            "query.answered": stats["answered"],
            "query.failed": stats["failed"],
            "query.abandoned": stats["abandoned"],
            "query.tail_pct": stats["tail_pct"],
            "generator.late_p99_ms": stats["late_p99_ms"],
        }

    # -- traced run --------------------------------------------------------
    def _in_process(self, tracer: Optional[Tracer] = None) -> Iteration:
        from repro.cluster.builders import PAPER_DATACENTERS, build_paper_fleet
        from repro.cluster.simulation import DEFAULT_COUNTERS, SimulationConfig, Simulator
        from repro.cluster.streaming import ALARM_COUNTERS, StreamingSimulator
        from repro.core.regression_analysis import OnlineRegressionAlarm
        from repro.telemetry.query_server import QueryClient
        from repro.telemetry.store import MetricStore

        began = time.perf_counter()
        sim = Simulator(
            build_paper_fleet(
                servers_per_deployment=SERVERS, datacenters=PAPER_DATACENTERS[:1],
                pools=[POOL], seed=self.seed,
            ),
            store=MetricStore(), seed=self.seed,
            config=SimulationConfig(
                record_request_classes=True, block_windows=BLOCK,
                counters=tuple(dict.fromkeys(DEFAULT_COUNTERS + ALARM_COUNTERS)),
            ),
        )
        stream = StreamingSimulator(
            sim, retain_windows=RETAIN, alarm=OnlineRegressionAlarm(POOL),
            query_listen="127.0.0.1:0",
        )
        done = threading.Event()
        generator = OpenLoopGenerator(QueryClient(stream.query_address), self.seed)
        ready = time.perf_counter()
        outcome: Dict[str, object] = {}

        def drive() -> None:
            try:
                outcome["records"] = generator.run(
                    started, finished=done.is_set, deadline=started + STREAM_TIMEOUT_S,
                )
            except Exception as error:  # reported as a failed operation
                outcome["error"] = f"{type(error).__name__}: {error}"

        if tracer is not None:
            layers.install(tracer)
        try:
            started = time.perf_counter()
            thread = threading.Thread(target=drive, name="loadgen")
            thread.start()
            report = stream.run(max_windows=WINDOWS)
            ended = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
            done.set()
            thread.join(STREAM_TIMEOUT_S)
            generator.client.close()
            stream.close()
        records = outcome.get("records", [])
        failures = [r.error for r in records if r.outcome == "error"]
        if "error" in outcome or thread.is_alive():
            failures.append(str(outcome.get("error", "load generator did not stop")))
        return Iteration(
            wall_s=ended - started,
            sim_s=ended - started,
            windows=report.windows,
            digest=f"{report.blocks}/{report.evicted_rows}",
            operations=1 + _sent(records),
            op_failures=failures,
            checks=1,
            check_failures=outchecks.failed_checks(
                outchecks.check_sealed_through(_watermarks(records), BLOCK, WINDOWS),
            ),
            setup_s=[ready - began],
            wall_span=(started, ended),
        )

    def traced(self, tracer: Tracer):
        """Subprocess repetition for the query figures, then in-process
        streams (untraced, traced) for the block loop's layers."""
        served = self.iteration()
        baseline = self._in_process()
        traced = self._in_process(tracer)
        # Tracing must not change what the stream computes.
        traced.checks += 1
        traced.check_failures += outchecks.check_digests([baseline.digest, traced.digest])
        for other in (served, baseline):
            traced.operations += other.operations
            traced.op_failures += other.op_failures
            traced.checks += other.checks
            traced.check_failures += other.check_failures
        traced.child_peaks_mb = served.child_peaks_mb
        return traced, baseline.wall_s

    def close(self) -> None:
        self.stderr_path.unlink(missing_ok=True)
