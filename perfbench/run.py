"""Benchmark entry point: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-pipeline --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload's timed work until ``--seconds``
have passed (at least ``MIN_REPEATS`` times) and reports the
end-to-end metrics: time figures are the lower quartile over the
repetitions (see ``measure.lower_quartile``), ``setup_s`` the fastest
of the set-up samples taken before and with the repetitions.  ``--trace
1`` runs the work once with every measured layer wrapped in spans (see
``layers.py``), between two untraced repetitions, and reports the
per-layer metrics.  Both print every metric by name with its unit, then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Output checks run every time; a failed operation (a
non-zero exit, a query error) or a failed check makes the run incorrect
and counts once in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_REPEATS = 3

WORKLOADS = ("paper-pipeline", "live-stream")


#: Units of printed metrics that BENCHMARK.json does not list.
UNLISTED_UNITS = {"error_ratio": "ratio", "query.tail_pct": "%"}


def _make(name: str, seed: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    if name == "paper-pipeline":
        from pipeline import PaperPipeline

        return PaperPipeline(ROOT, WORK, seed, env)
    from live import LiveStream

    return LiveStream(ROOT, WORK, seed, env)


def _measure(workload, seconds: float):
    """Repeat the timed work; returns (repetitions, set-up samples)."""
    from measure import median

    setups = workload.setup()
    repeats = []
    started = time.perf_counter()
    while True:
        gc.collect()  # the last repetition's garbage is not this one's cost
        repeats.append(workload.iteration())
        elapsed = time.perf_counter() - started
        typical = median([r.wall_s + sum(r.setup_s) for r in repeats])
        if len(repeats) >= MIN_REPEATS and elapsed + typical > seconds:
            break
    return repeats, setups


def tally(repeats) -> Tuple[bool, int, int, List[str]]:
    """``(correct, attempted, failed, failure messages)`` of a run.

    Attempts are the repetitions' operations and checks plus the check
    that every repetition gave the same digest; each failed operation
    and each failed check counts once.
    """
    import outchecks

    ops = [f for r in repeats for f in r.op_failures]
    checks = [f for r in repeats for f in r.check_failures]
    checks += outchecks.check_digests([r.digest for r in repeats])
    attempted = sum(r.operations + r.checks for r in repeats) + 1
    failures = ops + checks
    return not failures, attempted, len(failures), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")

    from measure import lower_quartile, run_metadata, system_peak_rss_mb

    workload = _make(args.workload, args.seed)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    printed = {}
    try:
        if args.trace:
            import layers
            from spans import Tracer
            from workload import uncovered_s

            setups = workload.setup()
            tracer = Tracer(run_id)
            traced, untraced_wall = workload.traced(tracer)
            repeats = [traced]
            printed.update(dict.fromkeys(layers.WORKLOAD_METRICS, 0.0))
            printed.update(layers.per_layer(tracer))
            printed.update(layers.stream_blocks(tracer))
            printed["trace.overhead_s"] = traced.wall_s - untraced_wall
            printed["trace.uncovered_s"] = uncovered_s(
                tracer, traced, threading.main_thread().ident
            )
            tracer.write(WORK / f"spans-{run_id}.jsonl.gz")
        else:
            repeats, setups = _measure(workload, args.seconds)
        printed.update(getattr(workload, "report", dict)())
    finally:
        workload.close()

    setups += [s for r in repeats for s in r.setup_s]
    correct, attempted, failed, failures = tally(repeats)
    children = [max(r.child_peaks_mb) for r in repeats if r.child_peaks_mb]
    printed.update({
        # Many short samples spread over the run: the fastest is the one
        # the shared machine disturbed least.
        "setup_s": min(setups),
        "wall_s": lower_quartile([r.wall_s for r in repeats]),
        "sim_windows_per_s": repeats[0].windows / lower_quartile([r.sim_s for r in repeats]),
        "peak_rss_mb": system_peak_rss_mb([max(children)] if children else []),
        "error_ratio": failed / attempted,
    })
    printed.update(repeats[-1].extra)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as config_file:
        config = json.load(config_file)
    wanted = config["per_layer" if args.trace else "end_to_end"]
    result_metrics = {}
    for entry in wanted:
        if entry["name"] not in printed:
            print(f"error: metric {entry['name']} was not measured", file=sys.stderr)
            return 1
        result_metrics[entry["name"]] = {
            "value": float(printed[entry["name"]]), "unit": entry["unit"],
        }

    meta = run_metadata(ROOT, args.seed, workload.sizes)
    meta.update({"workload": args.workload, "trace": args.trace, "repeats": len(repeats)})
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(repeats)} nproc={meta['nproc']} python={meta['python']} "
          f"numpy={meta['numpy']} git={meta['git_sha'][:12]} "
          f"src={meta['source_sha256'][:12]}")
    print(f"# inputs {json.dumps(workload.sizes)}")
    units = {e["name"]: e["unit"] for e in config["end_to_end"] + config["per_layer"]}
    units.update(UNLISTED_UNITS)
    for name in sorted(printed):
        print(f"{name:34s} {printed[name]:>16.6g} {units[name]}")
    for failure in failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    with open(WORK / f"result-{run_id}.json", "w", encoding="utf-8") as out:
        json.dump({
            "meta": meta, "printed": printed, "result": result, "setups": setups,
            "repeats": [
                {"setup_s": r.setup_s, "wall_s": r.wall_s, "sim_s": r.sim_s}
                for r in repeats
            ],
        }, out, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
