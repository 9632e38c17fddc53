"""Property-based tests on planning-level invariants.

These run hypothesis over the *planning math* (store-free paths), since
full simulations are too slow per-example.  Invariants:

* the headroom requirement is monotone in demand and anti-monotone in
  the SLO;
* the M/M/c plan is monotone in demand and in service time;
* the autoscaler never allocates outside [min_servers, pool_limit];
* the metric store's pool aggregates are consistent with per-server
  queries;
* export/import round-trips arbitrary telemetry exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.autoscaler import ReactiveAutoscaler
from repro.baselines.queuing import MMcPlanner
from repro.baselines.static_peak import StaticPeakPlanner
from repro.telemetry.counters import CounterSample
from repro.telemetry.export import export_store, import_store
from repro.telemetry.store import MetricStore

demand_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=60,
)


class TestMMcProperties:
    @given(
        demand=st.floats(min_value=1.0, max_value=50_000.0, allow_nan=False),
        extra=st.floats(min_value=1.05, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_demand(self, demand, extra):
        planner = MMcPlanner(service_time_s=0.02, target_latency_s=0.05)
        assert planner.required_servers(demand * extra) >= planner.required_servers(demand)

    @given(demand=st.floats(min_value=1.0, max_value=50_000.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_service_time(self, demand):
        fast = MMcPlanner(service_time_s=0.01, target_latency_s=0.05)
        slow = fast.with_service_time(0.02)
        assert slow.required_servers(demand) >= fast.required_servers(demand)

    @given(demand=st.floats(min_value=1.0, max_value=50_000.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_plan_is_stable(self, demand):
        planner = MMcPlanner(
            service_time_s=0.02, target_latency_s=0.05, requests_per_server_slot=8
        )
        servers = planner.required_servers(demand)
        # Stability: total service capacity exceeds the arrival rate.
        assert servers * 8 / 0.02 > demand


class TestStaticPeakProperties:
    @given(
        demand=demand_lists,
        headroom=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_covers_peak(self, demand, headroom):
        planner = StaticPeakPlanner(
            rps_per_server_at_target=100.0, headroom_factor=headroom
        )
        servers = planner.required_servers(demand)
        assert servers * 100.0 >= max(demand) * 0.999  # covers raw peak


class TestAutoscalerProperties:
    @given(demand=demand_lists)
    @settings(max_examples=40, deadline=None)
    def test_allocation_bounds(self, demand):
        scaler = ReactiveAutoscaler(
            target_rps_per_server=100.0,
            max_rps_per_server=150.0,
            min_servers=2,
            pool_limit_servers=50,
            max_step_servers=5,
        )
        outcome = scaler.replay(demand)
        assert outcome.allocation.min() >= 2
        assert outcome.allocation.max() <= 50
        assert outcome.total_windows == len(demand)
        assert 0.0 <= outcome.overload_fraction <= 1.0


samples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),  # window
        st.sampled_from(["s0", "s1", "s2"]),
        st.sampled_from(["P", "Q"]),
        st.sampled_from(["DC1", "DC2"]),
        st.sampled_from(["cpu", "lat"]),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


class TestStoreProperties:
    @given(rows=samples)
    @settings(max_examples=40, deadline=None)
    def test_sum_aggregate_matches_manual(self, rows):
        store = MetricStore()
        store.record_many(CounterSample(*row) for row in rows)
        series = store.pool_window_aggregate("P", "cpu", reducer="sum")
        expected = {}
        for window, server, pool, dc, counter, value in rows:
            if pool == "P" and counter == "cpu":
                expected[window] = expected.get(window, 0.0) + value
        got = dict(zip(series.windows.tolist(), series.values.tolist()))
        assert set(got) == set(expected)
        for w, total in expected.items():
            assert got[w] == pytest.approx(total, rel=1e-9, abs=1e-6)

    @given(rows=samples)
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_export_import_round_trip(self, rows, tmp_path):
        store = MetricStore()
        store.record_many(CounterSample(*row) for row in rows)
        path = tmp_path / "roundtrip.csv"
        export_store(store, path)
        loaded = import_store(path)
        assert loaded.sample_count() == store.sample_count()
        assert loaded.pools == store.pools
        for pool in store.pools:
            for counter in store.counters_for_pool(pool):
                for server in store.servers_in_pool(pool):
                    a = store.server_series(pool, counter, server)
                    b = loaded.server_series(pool, counter, server)
                    np.testing.assert_array_equal(a.windows, b.windows)
                    np.testing.assert_array_equal(a.values, b.values)
