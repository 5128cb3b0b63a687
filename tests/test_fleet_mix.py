"""Heterogeneous fleets: mix parsing, cost-aware dispatch, energy/TCO
accounting — plus regression tests for the dispatcher edge paths (an
active set resized to zero, resize-down → resize-up heap cycles)."""

import pytest

from repro.errors import ServingError
from repro.serving import (
    Fleet,
    ServeRequest,
    mix,
    parse_fleet_mix,
    poisson_arrivals,
)
from repro.serving.fleet import _LeastLoadedDispatcher, _RoundRobinDispatcher
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
REQ = ServeRequest(task=T, tenant="probe")


class TestDispatcherEdgePaths:
    """The two historical crash paths, now clean ServingErrors."""

    def test_round_robin_zero_active_raises_cleanly(self):
        d = _RoundRobinDispatcher()
        d.resize(2, [0.0, 0.0])
        assert d.choose(0, REQ) == 0
        d.resize(0, [0.0, 0.0])
        # Previously ``seq % 0`` — a bare ZeroDivisionError from deep in
        # the event loop.
        with pytest.raises(ServingError, match="no active replicas"):
            d.choose(1, REQ)
        d.resize(2, [0.0, 0.0])
        assert d.choose(2, REQ) == 0  # dispatch resumes after re-growth

    def test_least_loaded_zero_active_raises_cleanly(self):
        d = _LeastLoadedDispatcher()
        d.resize(1, [0.0])
        d.resize(0, [0.0])
        with pytest.raises(ServingError, match="no active replicas"):
            d.choose(0, REQ)

    def test_least_loaded_resize_cycle_prunes_stale_entries(self):
        d = _LeastLoadedDispatcher()
        d.resize(2, [0.0, 0.0])
        d.assign(0, 3.0)
        d.assign(1, 4.0)
        d.resize(0, [3.0, 4.0])
        d.resize(2, [3.0, 4.0])
        # The pre-cycle (0.0, j) entries are stale; choose must skip
        # them and land on the lowest live projection.
        assert d.choose(0, REQ) == 0
        d.assign(0, 9.0)
        assert d.choose(1, REQ) == 1

    def test_least_loaded_empty_heap_reseeds(self):
        d = _LeastLoadedDispatcher()
        d.resize(2, [0.0, 0.0])
        d.assign(0, 5.0)
        d.assign(1, 2.0)
        # What a crash storm can do: every heap entry invalidated at
        # once.  Previously heap[0] on the drained heap -> IndexError.
        d._heap.clear()
        assert d.choose(0, REQ) == 1  # re-seeded from live projections


class TestParseFleetMix:
    def test_expansion(self):
        assert parse_fleet_mix("plasticine:2,brainwave:1,gpu") == (
            "plasticine", "plasticine", "brainwave", "gpu",
        )

    def test_whitespace_tolerated(self):
        assert parse_fleet_mix(" gpu : 2 , cpu ") == ("gpu", "gpu", "cpu")

    def test_empty_spec_rejected(self):
        with pytest.raises(ServingError, match="empty fleet mix"):
            parse_fleet_mix("  ")

    def test_empty_entry_rejected(self):
        with pytest.raises(ServingError, match="empty platform entry"):
            parse_fleet_mix("gpu,,cpu")

    def test_bad_count_rejected(self):
        with pytest.raises(ServingError, match="bad replica count"):
            parse_fleet_mix("gpu:x")

    def test_zero_count_rejected(self):
        with pytest.raises(ServingError, match=">= 1"):
            parse_fleet_mix("gpu:0")


class TestMixedConstruction:
    def test_roster_and_label(self):
        fleet = Fleet("gpu:2,cpu:1")
        assert fleet.n_replicas == 3
        assert fleet.replica_platforms == ("gpu", "gpu", "cpu")
        assert fleet.platform_name == "gpu:2,cpu:1"
        assert fleet.is_heterogeneous

    def test_single_platform_spec_is_homogeneous(self):
        fleet = Fleet("gpu:3")
        assert not fleet.is_heterogeneous
        assert fleet.platform_name == "gpu"
        assert fleet.n_replicas == 3

    def test_replicas_contradiction_rejected(self):
        with pytest.raises(ServingError, match="contradicts"):
            Fleet(["gpu", "cpu"], replicas=3)

    def test_platform_options_with_mix_rejected(self):
        with pytest.raises(ServingError, match="platform options"):
            Fleet("gpu:1,cpu:1", bits=16)

    def test_unknown_platform_in_mix_propagates(self):
        with pytest.raises(ServingError, match="unknown platform"):
            Fleet("gpu:1,tpu:1")

    def test_unknown_affinity_key_rejected(self):
        with pytest.raises(ServingError, match="unknown affinity key"):
            Fleet("gpu:1,cpu:1", policy="affinity", affinity_by="color")


class TestHomogeneousParity:
    """A mix spec naming one platform is the same fleet, bit for bit."""

    @pytest.mark.parametrize("policy", ("round-robin", "least-loaded"))
    def test_mix_spec_matches_replicas_kwarg(self, policy):
        arrivals = poisson_arrivals(T, rate_per_s=2000, n_requests=150, seed=5)
        a = Fleet("gpu:3", policy=policy).serve_stream(arrivals, slo_ms=5.0)
        b = Fleet("gpu", replicas=3, policy=policy).serve_stream(
            arrivals, slo_ms=5.0
        )
        assert a.assignments == b.assignments
        assert [(r.start_s, r.finish_s) for r in a.responses] == [
            (r.start_s, r.finish_s) for r in b.responses
        ]
        assert a.p99_ms == b.p99_ms
        assert a.max_rate_per_s == b.max_rate_per_s

    def test_homogeneous_report_keeps_classic_fields(self):
        arrivals = poisson_arrivals(T, rate_per_s=1000, n_requests=80, seed=1)
        report = Fleet("gpu", replicas=2).serve_stream(arrivals, slo_ms=5.0)
        assert report.platforms == ()  # roster only recorded for mixes
        assert report.replica_platforms == ("gpu", "gpu")
        # The pre-heterogeneity capacity formula, exactly.
        assert report.max_rate_per_s == pytest.approx(
            report.n_replicas / (report.mean_service_ms / 1e3)
        )


class TestHeterogeneousReport:
    ARRIVALS = poisson_arrivals(T, rate_per_s=3000, n_requests=200, seed=2)

    def test_max_rate_sums_per_replica_rates(self):
        report = Fleet("brainwave:1,gpu:1", policy="least-loaded").serve_stream(
            self.ARRIVALS, slo_ms=5.0
        )
        service: dict = {}
        count: dict = {}
        for r in report.responses:
            key = r.result.platform
            service[key] = service.get(key, 0.0) + r.service_s
            count[key] = count.get(key, 0) + 1
        fleet_mean = sum(service.values()) / report.n_requests
        expected = sum(
            1.0 / (service[name] / count[name]) if count.get(name) else
            1.0 / fleet_mean
            for name in report.replica_platforms
        )
        assert report.max_rate_per_s == pytest.approx(expected)

    def test_energy_and_tco_accounting(self):
        from repro.platforms import (
            ELECTRICITY_USD_PER_KWH,
            device_usd_per_hour,
            tdp_of,
        )

        report = Fleet("brainwave:1,gpu:1", policy="least-loaded").serve_stream(
            self.ARRIVALS, slo_ms=5.0
        )
        expected = sum(
            r.service_s * tdp_of(r.result.platform) for r in report.responses
        )
        assert report.energy_j == pytest.approx(expected)
        assert report.joules_per_request == pytest.approx(
            expected / report.n_requests
        )
        assert report.fleet_watt_hours > 0
        assert report.cost_usd_per_1m_requests > 0
        # Independent of the shared formula: both replicas are billed
        # for the whole makespan, idle or not.
        hours = max(r.finish_s for r in report.responses) / 3600.0
        watt_hours = (tdp_of("brainwave") + tdp_of("gpu")) * hours
        assert report.fleet_watt_hours == pytest.approx(watt_hours, rel=1e-12)
        usd = watt_hours / 1e3 * ELECTRICITY_USD_PER_KWH + hours * (
            device_usd_per_hour("brainwave") + device_usd_per_hour("gpu")
        )
        assert report.cost_usd_per_1m_requests == pytest.approx(
            usd / report.n_requests * 1e6, rel=1e-12
        )

    def test_per_platform_counts_sum_to_total(self):
        report = Fleet("brainwave:1,gpu:1", policy="least-loaded").serve_stream(
            self.ARRIVALS, slo_ms=5.0
        )
        counts = report.per_platform_counts
        assert sum(counts.values()) == report.n_requests
        assert set(counts) <= {"brainwave", "gpu"}

    def test_summary_mode_matches_full_counters(self):
        full = Fleet("brainwave:1,gpu:1", policy="least-loaded").serve_stream(
            self.ARRIVALS, slo_ms=5.0
        )
        summ = Fleet("brainwave:1,gpu:1", policy="least-loaded").serve_stream(
            self.ARRIVALS, slo_ms=5.0, mode="summary"
        )
        assert summ.n_requests == full.n_requests
        assert summ.per_platform_counts == full.per_platform_counts
        assert summ.energy_j == pytest.approx(full.energy_j)
        assert summ.max_rate_per_s == pytest.approx(full.max_rate_per_s)
        assert summ.platform == full.platform == "brainwave:1,gpu:1"


class TestAffinityRouting:
    def test_tenant_affinity_pins_one_platform_per_tenant(self):
        arrivals = mix(
            *(
                poisson_arrivals(
                    T, rate_per_s=500, n_requests=60, seed=i, tenant=f"t{i}"
                )
                for i in range(3)
            )
        )
        report = Fleet(
            "brainwave:2,gpu:2", policy="affinity", affinity_by="tenant"
        ).serve_stream(arrivals, slo_ms=50.0)
        assert report.policy == "affinity"
        seen: dict = {}
        for r in report.responses:
            seen.setdefault(r.request.tenant, set()).add(r.result.platform)
        assert len(seen) == 3
        assert all(len(platforms) == 1 for platforms in seen.values())

    def test_task_affinity_keeps_length_variants_together(self):
        short = task("lstm", 512, 25)
        arrivals = mix(
            poisson_arrivals(
                short, rate_per_s=400, n_requests=40, seed=0, tenant="a"
            ),
            poisson_arrivals(
                short.with_timesteps(50), rate_per_s=400, n_requests=40,
                seed=1, tenant="b",
            ),
        )
        report = Fleet(
            "brainwave:1,gpu:1", policy="affinity", affinity_by="task"
        ).serve_stream(arrivals, slo_ms=50.0)
        # One task family -> one pinned platform, whatever the lengths.
        assert len({r.result.platform for r in report.responses}) == 1
