"""Tests for the benchmark's own logic (no ``repro`` run needed).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import subprocess
import sys
import threading

import pytest

import outchecks
from loadgen import OpenLoopGenerator, summarize
from measure import lower_quartile, percentile, reap, samples_beyond, system_peak_rss_mb, tail_percentile
from spans import SpanIndex, Tracer, layer_self_times, self_times


# -- percentile rule ---------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile([7.0], 99.0) == 7.0
    assert lower_quartile([8, 1, 7, 2, 6, 3, 5, 4]) == 2


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "a.top", 0.0, 10.0, 1),
        (2, 1, "b.child", 1.0, 3.0, 1),
        (3, 1, "b.child", 2.0, 5.0, 1),   # overlaps the first child
        (4, 1, "c.child", 8.0, 12.0, 1),  # runs past its parent's end
        (5, 2, "c.grandchild", 1.5, 2.5, 1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)
    layers = layer_self_times(spans)
    assert layers == pytest.approx({"a": 4.0, "b": 4.0, "c": 5.0})


def test_outermost_counts_nested_repeats_once():
    spans = [
        (1, 0, "store.read", 0.0, 4.0, 1),
        (2, 1, "store.read", 1.0, 2.0, 1),
        (3, 0, "sim.run", 5.0, 9.0, 1),
        (4, 3, "store.read", 6.0, 7.0, 1),
    ]
    index = SpanIndex(spans)
    assert index.inclusive_s(["store.read"]) == pytest.approx(5.0)
    assert index.inclusive_s(["store.read"], under=["sim.run"]) == pytest.approx(1.0)


class _Layer:
    def work(self, n):
        return n * 2


def test_tracer_links_parents_per_thread_and_restores_wrapped_calls():
    original = _Layer.__dict__["work"]
    tracer = Tracer("test")
    tracer.wrap(_Layer, "work", "layer.work",
                lambda args, kwargs, result: tracer.count("layer.items", args[1]))
    with tracer.span("outer.call"):
        assert _Layer().work(3) == 6
    other = threading.Thread(target=lambda: _Layer().work(4))
    other.start()
    other.join(10)
    tracer.uninstall()
    assert _Layer.__dict__["work"] is original
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (outer,) = by_name["outer.call"]
    first, second = sorted(by_name["layer.work"], key=lambda s: s[3])
    assert first[1] == outer[0]
    assert second[1] == 0  # another thread's span is a root of its own
    assert tracer.counts["layer.items"] == 7


# -- open-loop generator -----------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _SlowServer:
    """Answers every query after ``delay`` seconds of the fake clock."""

    def __init__(self, clock, delay, fail_after=None):
        self.clock, self.delay, self.fail_after = clock, delay, fail_after
        self.calls = 0

    def _answer(self, payload):
        self.calls += 1
        if self.fail_after is not None and self.calls > self.fail_after:
            raise RuntimeError("query server: connection lost")
        self.clock.now += self.delay
        return payload

    def status(self):
        return self._answer({"sealed_through": 63})

    def aggregate(self, pool, counter, reducer="mean"):
        return self._answer({"sealed_through": 63})


def test_latency_runs_from_due_time_behind_a_slow_server():
    # Binary fractions keep the fake clock exact: a query is due every
    # 1/64 s and each answer takes 1/16 s.
    clock = _FakeClock()
    server = _SlowServer(clock, delay=1 / 16)
    generator = OpenLoopGenerator(server, seed=1, rate=64.0, clock=clock, sleep=clock.sleep)
    records = generator.run(0.0, finished=lambda: clock.now >= 0.625, deadline=10.0)
    answered = [r for r in records if r.outcome == "ok"]
    # Query k is due at k/64 s but queues behind k earlier answers:
    # sent at k/16 s, answered at (k+1)/16 s.
    assert len(answered) == 10
    for k, record in enumerate(answered):
        assert record.due == k / 64
        assert record.sent - record.due == k / 16 - k / 64
        assert record.latency == (k + 1) / 16 - k / 64
    # Every slot due by the exit was scheduled; the unsent ones are
    # misses timed at the exit.
    assert len(records) == 41
    abandoned = records[10:]
    assert all(r.outcome == "abandoned" and r.sent is None for r in abandoned)
    assert all(r.latency == 0.625 - r.due for r in abandoned)
    stats = summarize(records)
    assert (stats["scheduled"], stats["answered"], stats["failed"]) == (41, 10, 0)
    assert stats["ontime_ratio"] == 1 / 41  # only the first answer is within 100 ms
    assert stats["late_p99_ms"] == pytest.approx(1e3 * (9 / 16 - 9 / 64))


def test_failure_is_an_error_unless_the_stream_exits():
    clock = _FakeClock()
    server = _SlowServer(clock, delay=0.001, fail_after=3)
    generator = OpenLoopGenerator(server, seed=1, clock=clock, sleep=clock.sleep)
    records = generator.run(0.0, finished=lambda: False, deadline=10.0, grace_s=1.0)
    assert [r.outcome for r in records[:4]] == ["ok", "ok", "ok", "error"]
    assert summarize(records)["failed"] == 1

    clock = _FakeClock()
    server = _SlowServer(clock, delay=0.001, fail_after=3)
    exit_at = [None]

    def finished():
        if server.calls > 3 and exit_at[0] is None:
            exit_at[0] = clock.now + 0.02
        return exit_at[0] is not None and clock.now >= exit_at[0]

    generator = OpenLoopGenerator(server, seed=1, clock=clock, sleep=clock.sleep)
    records = generator.run(0.0, finished=finished, deadline=10.0)
    assert records[3].outcome == "abandoned"
    assert summarize(records)["failed"] == 0


def test_query_mix_follows_the_seed():
    from loadgen import query_kinds

    first = [kind for kind, _ in zip(query_kinds(7), range(20000))]
    again = [kind for kind, _ in zip(query_kinds(7), range(20000))]
    assert first == again
    share = {kind: first.count(kind) / len(first) for kind in set(first)}
    assert share["tracked"] == pytest.approx(0.74, abs=0.02)
    assert share["status"] == pytest.approx(0.25, abs=0.02)
    assert share["untracked"] == pytest.approx(0.01, abs=0.005)


# -- RSS across processes ----------------------------------------------------
def test_peak_rss_sums_over_child_processes():
    allocate = "b = bytearray(48 << 20); b[::4096] = b'x' * len(b[::4096])"
    children = [
        subprocess.Popen([sys.executable, "-c", allocate]) for _ in range(2)
    ]
    peaks = []
    for child in children:
        code, peak = reap(child, 60.0)
        assert code == 0
        assert peak >= 48.0
        peaks.append(peak)
    total = system_peak_rss_mb(peaks)
    assert total >= sum(peaks) + 1.0
    assert total == pytest.approx(system_peak_rss_mb([]) + sum(peaks), rel=0.05)


# -- output checks fail on wrong outputs -------------------------------------
SIM_ERR = (
    "simulated 72 windows (1000 samples) in 1.2s = 60 windows/s\n"
    "wrote 1000 samples to a.csv.gz\n"
)
VALIDATE_OUT = (
    "pool B: valid_aggregate (aggregate R^2 = 0.976, final R^2 = 0.976)\n"
    "  - aggregate workload vs Processor Utilization: y = 0.02841*x + 1.158 (R^2 = 0.976, N = 72)\n"
    "pool D: valid_aggregate (aggregate R^2 = 0.977, final R^2 = 0.977)\n"
    "  - aggregate workload vs Processor Utilization: y = 0.09318*x + 1.177 (R^2 = 0.977, N = 72)\n"
)
CATALOG = {"B": 0.028, "D": 0.092}


def test_archive_rows_check():
    assert outchecks.check_archive_rows(SIM_ERR, 1000) == []
    assert outchecks.check_archive_rows(SIM_ERR, 999)
    assert outchecks.check_archive_rows(SIM_ERR.replace("wrote 1000", "wrote 998"), 1000)
    assert outchecks.check_archive_rows("", 1000)


def test_validate_check():
    assert outchecks.check_validate(0, VALIDATE_OUT, CATALOG) == []
    assert outchecks.check_validate(1, VALIDATE_OUT, CATALOG)
    assert outchecks.check_validate(0, VALIDATE_OUT.replace("0.02841", "0.0401"), CATALOG)
    assert outchecks.check_validate(0, VALIDATE_OUT.split("pool D")[0], CATALOG)


def test_savings_check():
    good = "\nfleet-wide: 39% total savings at +1.1 ms average peak-latency impact\n"
    assert outchecks.fleet_savings(good) == pytest.approx(0.39)
    assert outchecks.check_savings(outchecks.fleet_savings(good)) == []
    for wrong in ("0%", "100%", "-5%", "nan%", "inf%"):
        assert outchecks.check_savings(outchecks.fleet_savings(good.replace("39%", wrong)))
    assert outchecks.check_savings(outchecks.fleet_savings("no plan"))


def test_fleet_checks():
    assert outchecks.check_wire_rows(10, 10) == []
    assert outchecks.check_wire_rows(9, 10)
    assert outchecks.check_plans_equal("plan", "plan") == []
    assert outchecks.check_plans_equal("plan", "plan2")
    assert outchecks.check_exit("x", 0) == []
    assert outchecks.check_exit("x", 1)


def test_sealed_through_check():
    assert outchecks.check_sealed_through([-1, 63, 63, 127, 149], 64, 150) == []
    assert outchecks.check_sealed_through([63, 100], 64, 150)
    assert outchecks.check_sealed_through([127, 63], 64, 150)


def test_stream_summary_check():
    stderr = (
        "query server listening on 127.0.0.1:1\n"
        "streamed 3 block(s); retention kept 5 of 9 samples hot (4 evicted to spill)\n"
        "simulated 150 windows (9 samples) in 0.10s = 1500.0 windows/s, 90 samples/s\n"
    )
    summary = outchecks.stream_summary(stderr)
    assert "0.10s" not in summary
    assert outchecks.check_stream_summary(summary, 150) == []
    assert outchecks.check_stream_summary(summary, 151)
    assert outchecks.check_stream_summary(summary.split("\n")[0], 150)


def test_digest_check():
    assert outchecks.check_digests(["a", "a", "a"]) == []
    assert outchecks.check_digests(["a", "b", "a"])


# -- a failed operation makes the run incorrect ------------------------------
def _pipeline_with(tmp_path, exits):
    """A paper-pipeline whose CLI commands return canned outputs."""
    import gzip

    from pipeline import PaperPipeline

    outputs = {
        "simulate": ("", SIM_ERR),
        "plan": ("fleet-wide: 39% total savings at +1.1 ms average peak-latency impact\n", ""),
        "validate": (VALIDATE_OUT, ""),
        "availability": ("fleet availability 99.9%\n", ""),
    }

    class Canned(PaperPipeline):
        def _setup_sample(self):
            return 0.01

        def _cli(self, command, *argv):
            if command == "simulate":
                with gzip.open(self.archive, "wt") as archive:
                    archive.write("header\n" + "row\n" * 1000)
            stdout, stderr = outputs[command]
            return exits.get(command, 0), 0.01, stdout, stderr

    pipeline = Canned(tmp_path, tmp_path, 1, {})
    pipeline.catalog_slopes = CATALOG
    return pipeline


def test_failed_command_makes_the_run_incorrect(tmp_path):
    from run import tally

    healthy = _pipeline_with(tmp_path, {})
    correct, attempted, failed, _ = tally([healthy.iteration(), healthy.iteration()])
    assert (correct, attempted, failed) == (True, 15, 0)

    broken = _pipeline_with(tmp_path, {"availability": 1})
    correct, attempted, failed, failures = tally([broken.iteration(), broken.iteration()])
    assert not correct
    assert (attempted, failed) == (15, 2)
    assert all(f.startswith("availability exited 1") for f in failures)


def test_a_check_with_several_reasons_fails_once():
    from run import tally
    from workload import Iteration

    wrong_rows = outchecks.check_archive_rows(SIM_ERR.replace("wrote 1000", "wrote 998"), 999)
    assert len(wrong_rows) == 2
    failures = outchecks.failed_checks(wrong_rows, [], outchecks.check_savings(0.5))
    assert len(failures) == 1
    repeat = Iteration(
        wall_s=1.0, sim_s=1.0, windows=1, digest="d", operations=4,
        op_failures=[], checks=3, check_failures=failures,
    )
    assert tally([repeat]) == (False, 8, 1, failures)
