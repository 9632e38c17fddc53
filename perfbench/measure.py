"""Statistics, process accounting and run metadata for the benchmark."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(n: int, pct: float) -> int:
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return float(ordered[_rank(len(ordered), pct) - 1])


def lower_quartile(values: Sequence[float]) -> float:
    """The nearest-rank 25th percentile.

    A run's figure for a repeated timing: on a shared machine,
    contention only ever slows a repetition, so the lower quartile
    tracks what the code costs more steadily than the median does.
    """
    return percentile(values, 25.0)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct``."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median lacks ten samples beyond it.
    """
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= 10:
            best = pct
    return best


def own_peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout`` s).

    Returns ``(exit code, peak RSS in MB)``, the peak taken from the
    child's own ``wait4`` rusage so it is known even after exit.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def system_peak_rss_mb(child_peaks_mb: Sequence[float]) -> float:
    """Peak RSS summed over the benchmark process and its children.

    ``child_peaks_mb`` holds one ``reap`` peak per child process that
    runs beside the benchmark process; a workload that starts the same
    kind of child several times in turn passes the largest of them.
    """
    return own_peak_rss_mb() + sum(child_peaks_mb)


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/repro`` Python file (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    """HEAD's SHA when ``root`` is itself a git work tree, else "unavailable"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unavailable"
    return lines[1]


def run_metadata(root: Path, seed: int, sizes: Dict[str, object]) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "inputs": sizes,
        "argv": sys.argv[1:],
    }
