"""The CapacityPlanner facade — Steps 1-2 end to end.

Walks every pool in a metric store through metric validation,
server-group identification, headroom right-sizing and availability
analysis, and aggregates the result into the Table IV summary: per-pool
efficiency savings, QoS impact, online (availability) savings and total
savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.availability import AvailabilityReport, analyze_pool_availability
from repro.core.headroom import HeadroomPlan, HeadroomPlanner
from repro.core.metric_validation import MetricValidationReport, MetricValidator
from repro.core.report import format_ms, format_percent, render_table
from repro.core.slo import QoSRequirement
from repro.telemetry.store import MetricStore


class PoolPlanningError(ValueError):
    """Headroom planning failed for one pool; the message names it.

    Raised by :meth:`CapacityPlanner.plan_pool` in place of the bare
    ``ValueError`` the curve fits raise (e.g. a latency limit below the
    forecast at every workload level), so callers can report which
    pool could not be planned.
    """

    def __init__(self, pool_id: str, reason: str) -> None:
        super().__init__(f"pool {pool_id}: {reason}")
        self.pool_id = pool_id


@dataclass(frozen=True)
class PoolPlanSummary:
    """One Table IV row: everything the planner decided for a pool."""

    pool_id: str
    validation: MetricValidationReport
    headroom: Optional[HeadroomPlan]
    availability: Optional[AvailabilityReport]

    @property
    def efficiency_savings(self) -> float:
        return self.headroom.efficiency_savings if self.headroom else 0.0

    @property
    def latency_impact_ms(self) -> float:
        return self.headroom.latency_impact_ms if self.headroom else 0.0

    @property
    def online_savings(self) -> float:
        return self.availability.online_savings if self.availability else 0.0

    @property
    def total_savings(self) -> float:
        """Combined savings (the paper adds the two columns)."""
        return min(self.efficiency_savings + self.online_savings, 1.0)


@dataclass(frozen=True)
class FleetPlan:
    """The full planning outcome across pools."""

    summaries: Tuple[PoolPlanSummary, ...]

    def summary_for(self, pool_id: str) -> PoolPlanSummary:
        for summary in self.summaries:
            if summary.pool_id == pool_id:
                return summary
        raise KeyError(f"no plan for pool {pool_id!r}")

    @property
    def mean_efficiency_savings(self) -> float:
        return float(np.mean([s.efficiency_savings for s in self.summaries]))

    @property
    def mean_online_savings(self) -> float:
        return float(np.mean([s.online_savings for s in self.summaries]))

    @property
    def mean_total_savings(self) -> float:
        return float(np.mean([s.total_savings for s in self.summaries]))

    @property
    def mean_latency_impact_ms(self) -> float:
        return float(np.mean([s.latency_impact_ms for s in self.summaries]))

    def render_savings_table(self) -> str:
        """Render the Table IV equivalent."""
        rows: List[List[object]] = []
        for s in self.summaries:
            rows.append(
                [
                    s.pool_id,
                    format_percent(s.efficiency_savings),
                    format_ms(s.latency_impact_ms, 0),
                    format_percent(s.online_savings),
                    format_percent(s.total_savings),
                ]
            )
        rows.append(
            [
                "Savings",
                f"({format_percent(self.mean_efficiency_savings)})",
                f"(avg. {format_ms(self.mean_latency_impact_ms, 0)})",
                f"({format_percent(self.mean_online_savings)})",
                f"({format_percent(self.mean_total_savings)})",
            ]
        )
        return render_table(
            [
                "Server Pool",
                "Efficiency Savings",
                "Latency (QoS) Impact",
                "Online Savings",
                "Total Savings",
            ],
            rows,
            title="Summary of Server Savings (Table IV equivalent)",
        )


class CapacityPlanner:
    """Facade wiring validation, headroom and availability analyses."""

    def __init__(
        self,
        store: MetricStore,
        qos_by_pool: Dict[str, QoSRequirement],
        min_r2: float = 0.85,
        safety_margin: float = 0.9,
        survive_dc_loss: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.store = store
        self.qos_by_pool = qos_by_pool
        self.validator = MetricValidator(store, min_r2=min_r2)
        self.headroom_planner = HeadroomPlanner(
            store,
            safety_margin=safety_margin,
            survive_dc_loss=survive_dc_loss,
            rng=rng,
        )

    def plan_pool(self, pool_id: str) -> PoolPlanSummary:
        """Plan one pool; pools failing metric validation get no plan."""
        if pool_id not in self.qos_by_pool:
            raise KeyError(f"no QoS requirement registered for pool {pool_id!r}")
        validation = self.validator.validate(pool_id)
        headroom: Optional[HeadroomPlan] = None
        availability: Optional[AvailabilityReport] = None
        if validation.status.is_valid:
            try:
                headroom = self.headroom_planner.plan_pool(
                    pool_id, self.qos_by_pool[pool_id]
                )
            except ValueError as error:
                raise PoolPlanningError(pool_id, str(error)) from error
        try:
            availability = analyze_pool_availability(self.store, pool_id)
        except ValueError:
            availability = None
        return PoolPlanSummary(
            pool_id=pool_id,
            validation=validation,
            headroom=headroom,
            availability=availability,
        )

    def plan(self) -> FleetPlan:
        """Plan every pool with a registered QoS requirement."""
        summaries = [
            self.plan_pool(pool_id)
            for pool_id in self.store.pools
            if pool_id in self.qos_by_pool
        ]
        if not summaries:
            raise ValueError("no pools with both telemetry and QoS requirements")
        return FleetPlan(summaries=tuple(summaries))
