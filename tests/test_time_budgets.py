"""Time budgets (SLOs, timeouts, hedge delays) must be positive.

Each budget is checked as ``not float(x) > 0``, so NaN is rejected at
every entry point along with zero and negatives, rather than slipping
past a ``<= 0`` test into a run that reports nonsense.  A bool is not a
budget, nor is an int too large for a float, which would otherwise fail
later as a bare ``OverflowError``.  An infinite SLO stays legal.
"""

import math

import pytest

from repro.dse import FleetSpace, PruningSummary, plan_capacity
from repro.errors import DSEError, ServingError
from repro.harness.cli import main
from repro.serving import (
    FIFOScheduler,
    Fleet,
    ServeRequest,
    ServingEngine,
    poisson_arrivals,
    run_stream,
    serve_parallel,
)
from repro.serving.server import ServingServer
from repro.workloads.deepbench import task

T = task("lstm", 256, 25)
ONE_GPU = FleetSpace(platforms=("gpu",), max_replicas=1)


#: Rejected everywhere: NaN, zero and a negative budget.
BAD = [math.nan, 0.0, -1.0]
#: Rejected everywhere but the CLI, which parses floats (``1e400`` is
#: ``inf`` there): a bool, and an int no float can hold.
NOT_FLOAT = [True, pytest.param(10**400, id="10**400")]


def _arrivals():
    return poisson_arrivals(T, rate_per_s=500, n_requests=20, seed=0)


class TestRejected:
    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    def test_request_slo(self, bad):
        with pytest.raises(ServingError, match="slo_ms"):
            ServeRequest(task=T, slo_ms=bad)

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    def test_engine_stream_slo(self, bad):
        with pytest.raises(ServingError, match="slo_ms"):
            ServingEngine("gpu").serve_stream(_arrivals(), slo_ms=bad)

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    def test_fleet_stream_slo(self, bad):
        with pytest.raises(ServingError, match="slo_ms"):
            Fleet("gpu", replicas=2).serve_stream(
                _arrivals(), slo_ms=bad, mode="summary"
            )

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    def test_serve_parallel_slo(self, bad):
        with pytest.raises(ServingError, match="slo_ms"):
            serve_parallel(_arrivals(), "gpu", shards=2, workers=1, slo_ms=bad)

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    @pytest.mark.parametrize("name", ["timeout_ms", "hedge_ms"])
    def test_run_stream(self, bad, name):
        with pytest.raises(ServingError, match=name):
            run_stream(
                _arrivals(),
                engines=[ServingEngine("gpu")],
                schedulers=[FIFOScheduler()],
                **{name: bad},
            )

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    @pytest.mark.parametrize("name", ["slo_ms", "timeout_ms"])
    def test_server(self, bad, name):
        with pytest.raises(ServingError, match=name):
            ServingServer("gpu", **{name: bad})

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    @pytest.mark.parametrize("name", ["slo_ms", "peak_rate_per_s"])
    def test_plan_capacity(self, bad, name):
        with pytest.raises(DSEError, match=name):
            plan_capacity(T, n_requests=20, space=ONE_GPU, **{name: bad})

    @pytest.mark.parametrize("bad", BAD + NOT_FLOAT)
    def test_pruning_summary(self, bad):
        with pytest.raises(DSEError, match="prune_slo_ms"):
            PruningSummary("gpu", slo_ms=5.0, prune_slo_ms=bad, threshold=1)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("flag", ["--slo-ms", "--timeout-ms", "--hedge-ms"])
    def test_cli(self, bad, flag, capsys):
        argv = [
            "serve", "--platform", "gpu", "--stream", "--rate", "1000",
            "--requests", "20", flag, str(bad),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{flag} must be positive" in err


class TestInfiniteSLO:
    def test_stream(self):
        report = ServingEngine("gpu").serve_stream(_arrivals(), slo_ms=math.inf)
        assert report.slo_attainment == 1.0

    def test_serve_parallel(self):
        summary = serve_parallel(
            _arrivals(), "gpu", shards=2, workers=1, slo_ms=math.inf
        )
        assert summary.n_requests == 20
        assert summary.slo_attainment == 1.0

    def test_server(self):
        assert ServingServer("gpu", slo_ms=math.inf).slo_ms == math.inf

    def test_plan_capacity(self):
        plan = plan_capacity(T, slo_ms=math.inf, n_requests=20, space=ONE_GPU)
        assert plan.best.meets_slo
        assert plan.n_pruned == 0

    def test_cli(self, capsys):
        argv = [
            "serve", "--platform", "gpu", "--stream", "--rate", "1000",
            "--requests", "20", "--slo-ms", "inf",
        ]
        assert main(argv) == 0
        assert "100.0%" in capsys.readouterr().out
