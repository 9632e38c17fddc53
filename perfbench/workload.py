"""What one repetition of a workload reports, and the shared traced run."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import layers
import outchecks
from spans import Tracer, covered


@dataclass
class Iteration:
    """One repetition of a workload's timed work."""

    wall_s: float
    #: Seconds of the simulate (or stream) step inside ``wall_s``.
    sim_s: float
    windows: int
    #: Output digest; every repetition of one seed must agree.
    digest: str
    operations: int
    op_failures: List[str]
    checks: int
    check_failures: List[str]
    #: Set-up samples taken with this repetition, outside ``wall_s``.
    setup_s: List[float] = field(default_factory=list)
    #: Peak RSS of each child process that ran beside this process.
    child_peaks_mb: List[float] = field(default_factory=list)
    #: ``perf_counter`` bounds of ``wall_s``.
    wall_span: Tuple[float, float] = (0.0, 0.0)
    extra: Dict[str, float] = field(default_factory=dict)


class Traced:
    """Default traced run: the same repetition with the layers wrapped."""

    def traced(self, tracer: Tracer):
        """Return ``(traced repetition, untraced wall_s)``.

        The untraced ``wall_s`` is the mean of one repetition on either
        side of the traced one, so warm-up and drift do not land in the
        tracing overhead.
        """
        gc.collect()
        before = self.iteration()
        gc.collect()
        layers.install(tracer)
        try:
            traced = self.iteration()
        finally:
            tracer.uninstall()
        gc.collect()
        after = self.iteration()
        # Tracing must not change the workload's output.
        traced.checks += 1
        traced.check_failures += outchecks.check_digests(
            [before.digest, traced.digest, after.digest]
        )
        return traced, (before.wall_s + after.wall_s) / 2


def uncovered_s(tracer: Tracer, iteration: Iteration, thread: int) -> float:
    """Part of ``wall_s`` no top-level span of ``thread`` covers."""
    lo, hi = iteration.wall_span
    roots = [(s[3], s[4]) for s in tracer.spans if s[1] == 0 and s[5] == thread]
    return (hi - lo) - covered(roots, lo, hi)

