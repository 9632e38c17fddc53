"""Output checks, run on every benchmark run.

Each check takes outputs the workload produced and returns a list of
failure messages (empty when the output is right), so a test can feed
it a deliberately wrong output.  ``failed_checks`` folds the results of
a workload's checks into one message per failed check: each failed
check makes the run incorrect and counts once in ``failed``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence

#: Relative tolerance on a fitted CPU slope against the catalog cost.
SLOPE_TOLERANCE = 0.10

_SIMULATED = re.compile(r"simulated (\d+) windows \((\d+) samples\)")
_WROTE = re.compile(r"wrote (\d+) samples to ")
_SLOPE = re.compile(
    r"^pool (\w+): .*\n\s+- aggregate workload vs Processor Utilization: "
    r"y = ([-+0-9.eE]+)\*x",
    re.MULTILINE,
)
_SAVINGS = re.compile(r"fleet-wide: (\S+)% total savings")


def simulated_samples(simulate_stderr: str) -> Optional[int]:
    match = _SIMULATED.search(simulate_stderr)
    return int(match.group(2)) if match else None


def fitted_slopes(validate_stdout: str) -> Dict[str, float]:
    return {pool: float(slope) for pool, slope in _SLOPE.findall(validate_stdout)}


def fleet_savings(plan_stdout: str) -> Optional[float]:
    match = _SAVINGS.search(plan_stdout)
    if match is None:
        return None
    try:
        return float(match.group(1)) / 100.0
    except ValueError:
        return None


def check_archive_rows(simulate_stderr: str, archive_rows: int) -> List[str]:
    """The archive holds exactly the samples the simulation produced."""
    samples = simulated_samples(simulate_stderr)
    wrote = _WROTE.search(simulate_stderr)
    if samples is None or wrote is None:
        return ["simulate output lacks its sample or row count"]
    failures = []
    if int(wrote.group(1)) != samples:
        failures.append(f"simulate wrote {wrote.group(1)} rows for {samples} samples")
    if archive_rows != samples:
        failures.append(f"archive holds {archive_rows} rows, simulated {samples} samples")
    return failures


def check_validate(
    returncode: int, validate_stdout: str, catalog_slopes: Dict[str, float],
) -> List[str]:
    """``validate`` exits 0 and recovers the catalog CPU cost per pool."""
    failures = []
    if returncode != 0:
        failures.append(f"validate exited {returncode}")
    slopes = fitted_slopes(validate_stdout)
    for pool, expected in sorted(catalog_slopes.items()):
        got = slopes.get(pool)
        if got is None:
            failures.append(f"validate printed no CPU slope for pool {pool}")
        elif abs(got - expected) > SLOPE_TOLERANCE * abs(expected):
            failures.append(
                f"pool {pool} CPU slope {got:g} is not within "
                f"{SLOPE_TOLERANCE:.0%} of catalog cost {expected:g}"
            )
    return failures


def check_savings(savings: Optional[float]) -> List[str]:
    """Fleet savings are a finite share strictly between 0 and 1."""
    if savings is None:
        return ["plan printed no fleet-wide savings"]
    if not math.isfinite(savings) or not 0.0 < savings < 1.0:
        return [f"fleet savings {savings!r} outside (0, 1)"]
    return []


def check_wire_rows(rows_sent: int, sample_count: int) -> List[str]:
    """Every ingested row crossed the wire exactly once."""
    if rows_sent != sample_count:
        return [f"{rows_sent} rows sent over the wire, store holds {sample_count}"]
    return []


def check_plans_equal(sharded: str, unsharded: str) -> List[str]:
    """The sharded plan is the unsharded plan of the same seed."""
    if sharded != unsharded:
        return ["sharded plan differs from the unsharded plan of the same seed"]
    return []


def check_exit(what: str, returncode: int) -> List[str]:
    return [] if returncode == 0 else [f"{what} exited {returncode}"]


def check_sealed_through(
    sealed: Sequence[int], block_windows: int, total_windows: int,
) -> List[str]:
    """Each answer's watermark is a block boundary and never goes back.

    ``status`` and aggregate answers both carry ``sealed_through``.

    The last block of a stream stopped at ``total_windows`` may be
    short, so its end is a boundary too.
    """
    failures = []
    previous = -1
    for value in sealed:
        if (value + 1) % block_windows and value + 1 != total_windows:
            failures.append(f"sealed_through {value} is not a block boundary")
        if value < previous:
            failures.append(f"sealed_through went back from {previous} to {value}")
        previous = max(previous, value)
    return failures


def stream_summary(stream_stderr: str) -> str:
    """The seed-determined lines a streamed run prints (no timings)."""
    lines = [
        f"simulated {windows} windows ({samples} samples)"
        for windows, samples in _SIMULATED.findall(stream_stderr)
    ]
    lines += [
        line for line in stream_stderr.splitlines()
        if line.startswith(("streamed ", "ALERT "))
    ]
    return "\n".join(lines)


def check_stream_summary(summary: str, windows: int) -> List[str]:
    """The stream ran exactly ``windows`` windows and reported retention."""
    match = _SIMULATED.search(summary)
    if match is None or int(match.group(1)) != windows:
        return [f"stream did not report simulating {windows} windows"]
    if "\nstreamed " not in summary:
        return ["stream printed no retention summary"]
    return []


def failed_checks(*results: List[str]) -> List[str]:
    """One message per check that failed, however many reasons it gave."""
    return ["; ".join(result) for result in results if result]


def check_digests(digests: Sequence[str]) -> List[str]:
    """Every repetition of one seed produced the same output."""
    if len(set(digests)) > 1:
        return [f"{len(set(digests))} different output digests over {len(digests)} repetitions"]
    return []
