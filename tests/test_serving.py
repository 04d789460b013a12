"""The trace-driven fleet serving simulation (`repro serve`).

The load-bearing contract is **bit-identical equivalence**: the
columnar batch former / queueing path and the event-at-a-time oracles
must agree on every output array, exactly, across arrival processes,
batch policies and replica counts.  Hypothesis drives the equivalence
sweep; directed tests cover trace files, the autoscaler (including the
infeasible-SLO path), metrics, the carbon rollup and the CLI.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gating.report import PolicyName
from repro.serving import (
    NS,
    Autoscaler,
    BatchPolicy,
    PodPlan,
    PodSpec,
    PolicyEnergy,
    RequestTrace,
    ServiceModel,
    ServingError,
    TraceError,
    carbon_table,
    curve_table,
    diurnal_trace,
    form_batches,
    form_batches_oracle,
    load_trace,
    poisson_trace,
    queue_batches,
    queue_batches_oracle,
    request_latencies,
    rollup_carbon,
    simulate_serving,
    utilization_curve,
    write_trace_csv,
)
from repro.serving.metrics import aggregate_fleet, compute_workload_metrics
from repro.simulator import columnar


class FakeServiceModel:
    """Deterministic stand-in for :class:`ServiceModel`.

    Service time is affine in batch size and everything is cheap, so
    the equivalence sweep never touches the real NPU simulator.
    """

    policies = (PolicyName.NOPG, PolicyName.REGATE_FULL)

    def service_ns(self, pod, batch_size):
        return 1_000_000 + 250_000 * batch_size

    def busy_energy_j(self, pod, batch_size, policy):
        scale = 1.0 if policy is PolicyName.NOPG else 0.85
        return scale * 0.5 * batch_size

    def idle_power_w(self, pod, policy):
        return 30.0 if policy is PolicyName.NOPG else 6.0

    def replica_rps(self, pod, batch_size=None):
        size = batch_size if batch_size is not None else pod.max_batch
        return size * NS / self.service_ns(pod, size)


def manual_plans(trace, replicas=2, max_batch=4):
    """A fixed fleet for every workload tag in the trace."""
    return {
        name: PodPlan(
            pod=PodSpec(workload=name, max_batch=max_batch),
            replicas=replicas,
            demand_qps=0.0,
            replica_rps=1.0,
        )
        for name in trace.workloads
    }


# --------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------- #
@st.composite
def traces(draw, max_requests=60):
    n_workloads = draw(st.integers(1, 3))
    names = tuple(f"wl-{i}" for i in range(n_workloads))
    count = draw(st.integers(0, max_requests))
    # A 2 ms span crowds many requests into one window (several times
    # max_batch), exercising the per-group batch-count arithmetic.
    span_ns = draw(st.sampled_from([2_000_000, 400_000_000]))
    arrivals = np.asarray(
        sorted(
            draw(
                st.lists(
                    st.integers(0, span_ns),
                    min_size=count,
                    max_size=count,
                )
            )
        ),
        dtype=np.int64,
    )
    tags = np.asarray(
        draw(
            st.lists(
                st.integers(0, n_workloads - 1), min_size=count, max_size=count
            )
        ),
        dtype=np.int64,
    )
    return RequestTrace(arrivals, tags, names)


@st.composite
def policies(draw, trace):
    """A broadcast policy or a per-workload dict, small knobs."""
    window = draw(st.sampled_from([0.001, 0.005, 0.020, 0.050]))
    if draw(st.booleans()):
        return BatchPolicy(
            max_batch=draw(st.integers(1, 5)), max_wait_s=window
        )
    return {
        wid: BatchPolicy(
            max_batch=draw(st.integers(1, 5)),
            max_wait_s=draw(st.sampled_from([0.001, 0.010, 0.050])),
        )
        for wid in range(len(trace.workloads))
    }


# --------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------- #
class TestRequestTrace:
    def test_from_rows_sorts_and_builds_tag_dictionary(self):
        trace = RequestTrace.from_rows(
            [(0.5, "b"), (0.1, "a"), (0.3, "b")], workloads=("a",)
        )
        assert trace.workloads == ("a", "b")
        assert trace.arrival_ns.tolist() == [
            100_000_000, 300_000_000, 500_000_000,
        ]
        assert trace.workload_ids.tolist() == [0, 1, 1]
        assert trace.request_counts() == {"a": 1, "b": 2}

    def test_empty_trace_still_carries_the_fleet(self):
        trace = RequestTrace.from_rows([], workloads=("a", "b"))
        assert len(trace) == 0
        assert trace.workloads == ("a", "b")
        assert trace.span_ns == 0
        assert trace.demand_qps() == 0.0
        assert trace.request_counts() == {"a": 0, "b": 0}

    def test_unsorted_or_mismatched_columns_are_rejected(self):
        tags = np.zeros(2, dtype=np.int64)
        with pytest.raises(TraceError, match="sorted ascending"):
            RequestTrace(np.asarray([5, 1], dtype=np.int64), tags, ("a",))
        with pytest.raises(TraceError, match="differ in length"):
            RequestTrace(np.asarray([1], dtype=np.int64), tags, ("a",))

    def test_compressed_scales_load(self):
        trace = RequestTrace.from_rows([(0.0, "a"), (10.0, "a")])
        assert trace.compressed(2.0).span_ns == trace.span_ns // 2
        assert trace.compressed(0.5).span_ns == trace.span_ns * 2
        with pytest.raises(TraceError, match="positive"):
            trace.compressed(0.0)

    def test_demand_qps_is_the_peak_window(self):
        # 10 requests in the first second, 1 in the last of 120s.
        rows = [(i * 0.1, "a") for i in range(10)] + [(119.0, "a")]
        trace = RequestTrace.from_rows(rows)
        # Peak 60s window holds all 10 early requests.
        assert trace.demand_qps(window_s=60.0) == pytest.approx(10 / 60)
        assert trace.demand_qps(window_s=1.0) == pytest.approx(10.0)

    def test_poisson_is_deterministic_with_independent_substreams(self):
        first = poisson_trace(["a", "b"], [40.0, 10.0], 5.0, seed=7)
        again = poisson_trace(["a", "b"], [40.0, 10.0], 5.0, seed=7)
        assert np.array_equal(first.arrival_ns, again.arrival_ns)
        assert np.array_equal(first.workload_ids, again.workload_ids)
        # Adding a workload never perturbs another's substream.
        solo = poisson_trace(["a"], 40.0, 5.0, seed=7)
        mask = first.workload_mask(0)
        assert np.array_equal(first.arrival_ns[mask], solo.arrival_ns)

    def test_diurnal_validates_and_modulates(self):
        trace = diurnal_trace(["a"], 50.0, 10.0, seed=3, period_s=10.0)
        again = diurnal_trace(["a"], 50.0, 10.0, seed=3, period_s=10.0)
        assert np.array_equal(trace.arrival_ns, again.arrival_ns)
        with pytest.raises(TraceError, match="amplitude"):
            diurnal_trace(["a"], 50.0, 10.0, amplitude=1.5)

    def test_rate_broadcast_errors(self):
        with pytest.raises(TraceError, match="at least one workload"):
            poisson_trace([], 10.0, 1.0)
        with pytest.raises(TraceError, match="2 rates for 3 workloads"):
            poisson_trace(["a", "b", "c"], [1.0, 2.0], 1.0)
        with pytest.raises(TraceError, match="must be positive"):
            poisson_trace(["a"], -1.0, 1.0)
        with pytest.raises(TraceError, match="duration"):
            poisson_trace(["a"], 1.0, 0.0)


class TestTraceFiles:
    def test_csv_round_trip_is_exact(self, tmp_path):
        trace = poisson_trace(["a", "b"], [30.0, 5.0], 3.0, seed=1)
        path = write_trace_csv(trace, tmp_path / "trace.csv")
        loaded = load_trace(path)
        assert np.array_equal(loaded.arrival_ns, trace.arrival_ns)
        assert np.array_equal(loaded.workload_ids, trace.workload_ids)
        assert loaded.workloads == trace.workloads

    def test_jsonl_is_sniffed_from_the_first_character(self, tmp_path):
        path = tmp_path / "trace.data"
        path.write_text(
            '{"timestamp_s": 0.25, "workload": "a"}\n'
            "\n"
            '{"timestamp_s": 0.125, "workload": "b"}\n'
        )
        trace = load_trace(path)
        assert trace.arrival_ns.tolist() == [125_000_000, 250_000_000]
        assert trace.workloads == ("a", "b")

    def test_empty_file_is_an_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        trace = load_trace(path, workloads=("a",))
        assert len(trace) == 0 and trace.workloads == ("a",)

    def test_bad_records_name_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp_s,workload\n0.5,a\nnope,b\n")
        with pytest.raises(TraceError, match=r"bad\.csv:3: bad CSV record"):
            load_trace(path)
        path.write_text("time,workload\n0.5,a\n")
        with pytest.raises(TraceError, match="needs a header"):
            load_trace(path)
        path.write_text('{"workload": "a"}\n')
        with pytest.raises(TraceError, match=r":1: bad JSONL record"):
            load_trace(path)

    def test_unreadable_path_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read trace"):
            load_trace(tmp_path / "missing.csv")


# --------------------------------------------------------------------- #
# Equivalence: columnar vs event-at-a-time oracle
# --------------------------------------------------------------------- #
def assert_tables_equal(fast, slow):
    assert np.array_equal(fast.workload_ids, slow.workload_ids)
    assert np.array_equal(fast.close_ns, slow.close_ns)
    assert np.array_equal(fast.sizes, slow.sizes)
    assert np.array_equal(fast.request_batch, slow.request_batch)


class TestBatchEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_columnar_matches_oracle_exactly(self, data):
        trace = data.draw(traces())
        policy = data.draw(policies(trace))
        fast = form_batches(trace, policy)
        slow = form_batches_oracle(trace, policy)
        assert_tables_equal(fast, slow)
        # Structural invariants on top of equivalence.
        assert int(fast.sizes.sum()) == len(trace)
        if len(trace):
            assert np.all(fast.sizes >= 1)
            last = np.maximum.accumulate(trace.arrival_ns)[-1]
            assert np.all(fast.close_ns >= trace.arrival_ns.min())
            assert fast.close_ns.max() >= last or len(fast) == 0

    def test_full_batches_close_at_last_arrival_partials_at_window_end(self):
        # Window 10ms, cap 2: [0, 1ms] fills a batch (closes at 1ms);
        # [4ms] is a partial (closes at the 10ms boundary).
        trace = RequestTrace.from_rows(
            [(0.0, "a"), (0.001, "a"), (0.004, "a")]
        )
        table = form_batches(trace, BatchPolicy(max_batch=2, max_wait_s=0.010))
        assert table.sizes.tolist() == [2, 1]
        assert table.close_ns.tolist() == [1_000_000, 10_000_000]
        assert table.request_batch.tolist() == [0, 0, 1]

    def test_per_workload_policies_apply_independently(self):
        trace = RequestTrace.from_rows([(0.0, "a"), (0.0, "b"), (0.001, "b")])
        table = form_batches(
            trace,
            {
                0: BatchPolicy(max_batch=8, max_wait_s=0.002),
                1: BatchPolicy(max_batch=1, max_wait_s=0.050),
            },
        )
        # Workload b's cap of 1 splits its two requests; a is one batch.
        assert table.workload_ids.tolist() == [0, 1, 1]
        assert table.sizes.tolist() == [1, 1, 1]

    def test_empty_trace_forms_no_batches(self):
        trace = RequestTrace.from_rows([], workloads=("a",))
        table = form_batches(trace, BatchPolicy())
        assert len(table) == 0 and table.workloads == ("a",)
        assert_tables_equal(table, form_batches_oracle(trace, BatchPolicy()))


class TestQueueEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_columnar_matches_oracle_exactly(self, data):
        trace = data.draw(traces())
        policy = data.draw(policies(trace))
        batches = form_batches(trace, policy)
        service = (100_000 + 37_000 * batches.sizes).astype(np.int64)
        if data.draw(st.booleans()):
            replicas = data.draw(st.integers(1, 4))
        else:
            replicas = {
                wid: data.draw(st.integers(1, 4))
                for wid in range(len(trace.workloads))
            }
        fast = queue_batches(batches, service, replicas)
        slow = queue_batches_oracle(batches, service, replicas)
        for left, right in zip(fast, slow):
            assert np.array_equal(left, right)
        start, finish, _ = fast
        # FCFS invariants: no batch starts before it is ready, and
        # finish is exactly start + service.
        assert np.all(start >= batches.close_ns)
        assert np.array_equal(finish, start + service)
        queue_wait, latency = request_latencies(trace, batches, start, finish)
        if len(trace):
            assert np.all(latency >= queue_wait)
            assert np.all(latency > 0)

    def test_round_robin_striping_is_deterministic(self):
        trace = RequestTrace.from_rows([(i * 0.1, "a") for i in range(6)])
        batches = form_batches(trace, BatchPolicy(max_batch=1, max_wait_s=0.01))
        service = np.full(len(batches), 1_000, dtype=np.int64)
        _, _, replica_of = queue_batches(batches, service, 3)
        assert replica_of.tolist() == [0, 1, 2, 0, 1, 2]

    def test_replica_counts_validate(self):
        trace = RequestTrace.from_rows([(0.0, "a")])
        batches = form_batches(trace, BatchPolicy())
        service = np.ones(len(batches), dtype=np.int64)
        with pytest.raises(TraceError, match="needs >= 1 replica"):
            queue_batches(batches, service, 0)


class TestEndToEndEquivalence:
    @pytest.fixture(scope="class")
    def model(self):
        return FakeServiceModel()

    @pytest.mark.parametrize(
        "trace",
        [
            poisson_trace(["a", "b"], [120.0, 30.0], 4.0, seed=11),
            diurnal_trace(["a"], 80.0, 6.0, seed=5, period_s=6.0),
            RequestTrace.from_rows([(0.5, "a")]),
            RequestTrace.from_rows([], workloads=("a",)),
        ],
        ids=["poisson", "diurnal", "single-request", "empty"],
    )
    def test_fast_and_oracle_paths_are_bit_identical(self, trace, model):
        plans = manual_plans(trace, replicas=2, max_batch=4)
        fast = simulate_serving(trace, plans, model, use_fast_path=True)
        slow = simulate_serving(trace, plans, model, use_fast_path=False)
        for attribute in (
            "start_ns", "finish_ns", "queue_wait_ns", "latency_ns",
        ):
            assert np.array_equal(
                getattr(fast, attribute), getattr(slow, attribute)
            ), attribute
        assert fast.span_ns == slow.span_ns
        # Derived floats come from identical integers → identical JSON.
        assert fast.to_json() == slow.to_json()
        assert fast.metrics_table() == slow.metrics_table()

    def test_default_follows_the_repo_wide_columnar_switch(self, model):
        trace = poisson_trace(["a"], 200.0, 2.0, seed=2)
        plans = manual_plans(trace)
        with columnar.use_fast_path(False):
            switched = simulate_serving(trace, plans, model)
        explicit = simulate_serving(trace, plans, model, use_fast_path=False)
        assert np.array_equal(switched.finish_ns, explicit.finish_ns)
        with columnar.use_fast_path(True):
            fast = simulate_serving(trace, plans, model)
        assert np.array_equal(fast.finish_ns, explicit.finish_ns)

    def test_missing_plan_is_a_key_error(self, model):
        trace = poisson_trace(["a", "b"], 10.0, 1.0)
        plans = manual_plans(trace)
        del plans["b"]
        with pytest.raises(KeyError, match="no pod plan"):
            simulate_serving(trace, plans, model)

    def test_utilization_curve_fast_and_oracle_are_identical(self, model):
        trace = poisson_trace(["a", "b", "c"], [150.0, 60.0, 20.0], 3.0, seed=13)
        plans = {
            name: PodPlan(
                pod=PodSpec(workload=name, max_batch=cap),
                replicas=replicas,
                demand_qps=0.0,
                replica_rps=1.0,
            )
            for name, cap, replicas in zip(trace.workloads, (8, 3, 1), (3, 2, 2))
        }
        factors = (0.25, 1.0, 4.0, 16.0)
        fast = utilization_curve(
            trace, plans, model, load_factors=factors, use_fast_path=True
        )
        slow = utilization_curve(
            trace, plans, model, load_factors=factors, use_fast_path=False
        )
        assert fast == slow

    def test_utilization_curve_savings_shrink_with_load(self, model):
        trace = poisson_trace(["a"], 60.0, 4.0, seed=9)
        plans = manual_plans(trace, replicas=2, max_batch=4)
        points = utilization_curve(
            trace, plans, model, load_factors=(0.25, 1.0, 4.0)
        )
        assert [point.load_factor for point in points] == [0.25, 1.0, 4.0]
        utils = [point.utilization for point in points]
        assert utils == sorted(utils) and utils[0] < utils[-1]
        savings = [point.savings[PolicyName.REGATE_FULL] for point in points]
        # More load → less idle → less gating opportunity.
        assert savings[0] > savings[-1] > 0
        table = curve_table(points)
        assert "util" in table and "0.25x" in table and "4x" in table


# --------------------------------------------------------------------- #
# Autoscaling
# --------------------------------------------------------------------- #
class TestAutoscaler:
    def test_sizes_pools_from_peak_windowed_demand(self):
        model = FakeServiceModel()
        scaler = Autoscaler(model, target_utilization=0.5, demand_window_s=1.0)
        trace = poisson_trace(["a"], 400.0, 4.0, seed=1)
        pod = PodSpec(workload="a", max_batch=4)
        plan = scaler.size(trace, "a", pod=pod)
        rps = model.replica_rps(pod)
        import math

        wanted = math.ceil(plan.demand_qps / (rps * 0.5))
        assert plan.replicas == min(64, max(1, wanted))
        assert plan.selection is None  # manual pod shape
        assert "manual" in plan.describe()

    def test_absent_workload_gets_the_floor(self):
        scaler = Autoscaler(FakeServiceModel(), min_replicas=2)
        trace = poisson_trace(["a"], 10.0, 1.0)
        plan = scaler.size(trace, "ghost", pod=PodSpec(workload="ghost"))
        assert plan.replicas == 2 and plan.demand_qps == 0.0

    def test_replica_cap_binds(self):
        scaler = Autoscaler(
            FakeServiceModel(), target_utilization=0.01, max_replicas=3
        )
        trace = poisson_trace(["a"], 500.0, 2.0, seed=4)
        plan = scaler.size(trace, "a", pod=PodSpec(workload="a", max_batch=1))
        assert plan.replicas == 3

    def test_bad_knobs_raise(self):
        with pytest.raises(ServingError, match="target utilization"):
            Autoscaler(FakeServiceModel(), target_utilization=0.0)
        with pytest.raises(ServingError, match="replica bounds"):
            Autoscaler(FakeServiceModel(), min_replicas=5, max_replicas=2)

    def test_infeasible_slo_selection_is_a_serving_error(self):
        """Llama3-70B cannot fit on pods of <= 8 NPU-A chips — the SLO
        search returns an explicit infeasible selection and pod
        selection must refuse with a ServingError naming the workload,
        not a crash."""
        from repro.core.slo import SLOSearch

        scaler = Autoscaler(
            ServiceModel(),
            chip="NPU-A",
            slo_search=SLOSearch(chip_counts=(1, 2, 4, 8), batch_scales=(1.0,)),
        )
        with pytest.raises(ServingError, match="llama3-70b-prefill"):
            scaler.select_pod("llama3-70b-prefill")


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_policy_energy_accounting(self):
        nopg = PolicyEnergy(busy_j=60.0, idle_j=40.0, requests=50)
        gated = PolicyEnergy(busy_j=55.0, idle_j=5.0, requests=50)
        assert nopg.total_j == 100.0
        assert nopg.per_request_j == 2.0
        assert gated.savings_vs(nopg) == pytest.approx(0.40)
        empty = PolicyEnergy(busy_j=0.0, idle_j=0.0, requests=0)
        assert empty.per_request_j == 0.0
        assert gated.savings_vs(empty) == 0.0

    def test_empty_workload_metrics_are_all_zero(self):
        empty = np.empty(0, dtype=np.int64)
        metric = compute_workload_metrics(
            workload="a", replicas=2, span_ns=0, sizes=empty,
            service_ns=empty, queue_wait_ns=empty, latency_ns=empty,
            energy={},
        )
        assert metric.requests == 0 and metric.qps == 0.0
        assert metric.utilization == 0.0 and metric.p99_latency_ms == 0.0

    def test_fleet_aggregation_is_request_weighted_and_ordered(self):
        def pool(name, requests, p99, busy):
            return compute_workload_metrics(
                workload=name, replicas=1, span_ns=NS,
                sizes=np.asarray([requests], dtype=np.int64),
                service_ns=np.asarray([busy], dtype=np.int64),
                queue_wait_ns=np.zeros(requests, dtype=np.int64),
                latency_ns=np.full(requests, int(p99 * 1e6), dtype=np.int64),
                energy={
                    PolicyName.NOPG: PolicyEnergy(10.0, 2.0, requests),
                    PolicyName.REGATE_FULL: PolicyEnergy(9.0, 0.5, requests),
                },
            )

        fleet = aggregate_fleet(
            [pool("a", 30, 8.0, NS // 2), pool("b", 10, 20.0, NS // 4)], NS
        )
        assert fleet.workload == "fleet"
        assert fleet.requests == 40 and fleet.replicas == 2
        assert fleet.p99_latency_ms == pytest.approx((30 * 8 + 10 * 20) / 40)
        assert fleet.utilization == pytest.approx((0.5 + 0.25) / 2)
        # Policy order is deterministic (insertion order, not set order).
        assert list(fleet.energy) == [PolicyName.NOPG, PolicyName.REGATE_FULL]
        assert fleet.energy[PolicyName.NOPG].busy_j == pytest.approx(20.0)
        assert fleet.savings(PolicyName.REGATE_FULL) > 0


# --------------------------------------------------------------------- #
# Real simulator end-to-end + carbon rollup
# --------------------------------------------------------------------- #
class TestRealServing:
    @pytest.fixture(scope="class")
    def served(self):
        model = ServiceModel()
        trace = poisson_trace(["dlrm-s-inference"], 150.0, 2.0, seed=3)
        scaler = Autoscaler(model, chip="NPU-D", demand_window_s=1.0)
        plans = scaler.plan_fleet(trace)
        report = simulate_serving(trace, plans, model)
        return model, trace, plans, report

    def test_slo_sized_fleet_serves_the_trace(self, served):
        model, trace, plans, report = served
        plan = plans["dlrm-s-inference"]
        assert plan.selection is not None and plan.selection.feasible
        assert plan.replicas >= 1
        assert "SLO-sized" in plan.describe()
        assert report.fleet is not None
        assert report.fleet.requests == len(trace)
        assert 0.0 < report.fleet_utilization <= 1.0
        # Gating saves energy at fleet level, and a gated fleet can
        # never beat the ideal oracle.
        full = report.fleet_savings(PolicyName.REGATE_FULL)
        ideal = report.fleet_savings(PolicyName.IDEAL)
        assert 0.0 < full <= ideal < 1.0
        table = report.metrics_table()
        assert "dlrm-s-inference" in table and "fleet" in table

    def test_carbon_rollup_uses_measured_utilization(self, served):
        model, _trace, _plans, report = served
        rollup = rollup_carbon(report, model)
        assert rollup.duty_cycle == pytest.approx(report.fleet_utilization)
        nopg = rollup.per_policy[PolicyName.NOPG]
        full = rollup.per_policy[PolicyName.REGATE_FULL]
        assert nopg.reduction_vs_nopg == 0.0
        assert 0.0 < full.reduction_vs_nopg < 1.0
        assert full.operational_kg < nopg.operational_kg
        [lifespan] = rollup.lifespans
        assert lifespan.workload == "dlrm-s-inference"
        # Gating never shortens the carbon-optimal lifespan.
        assert lifespan.gated_years >= lifespan.nopg_years
        text = carbon_table(rollup)
        assert "kgCO2e" in text and "optimal lifespan" in text
        # The per-request column must tell the policies apart.
        per_request = {
            cells[0]: cells[2]
            for cells in (
                [cell.strip() for cell in line.split("|")]
                for line in text.splitlines()
            )
            if len(cells) == 4
        }
        assert "ugCO2e/request" in per_request.values()
        assert per_request["NoPG"] != per_request["ReGate-Full"]
        payload = rollup.to_json()
        assert payload["kind"] == "repro-serving-carbon"
        json.dumps(payload)  # JSON-serializable end to end


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestServeCli:
    def test_poisson_serve_prints_the_metrics_table(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve", "-w", "dlrm-s-inference", "--rate", "120",
                "--duration", "2", "--seed", "3",
                "--replicas", "2", "--max-batch", "4",
                "--policy", "regate-full",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving metrics" in out
        assert "dlrm-s-inference" in out and "fleet" in out
        assert "manual" in out

    def test_trace_replay_with_json_and_saved_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.csv"
        write_trace_csv(
            poisson_trace(["dlrm-s-inference"], 100.0, 2.0, seed=1), trace_path
        )
        json_path = tmp_path / "report.json"
        copy_path = tmp_path / "copy.csv"
        code = main(
            [
                "serve", "--arrival", "trace", "--trace", str(trace_path),
                "--replicas", "1", "--max-batch", "4",
                "--policy", "regate-full",
                "--json", str(json_path), "--save-trace", str(copy_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "repro-serving-report"
        assert payload["fleet"]["requests"] > 0
        # The saved trace round-trips exactly to the input.
        original = load_trace(trace_path)
        copied = load_trace(copy_path)
        assert np.array_equal(original.arrival_ns, copied.arrival_ns)

    def test_diurnal_serve_runs(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve", "-w", "dlrm-s-inference", "--arrival", "diurnal",
                "--rate", "80", "--duration", "2", "--period", "2",
                "--replicas", "1", "--max-batch", "4",
                "--policy", "regate-full",
            ]
        )
        assert code == 0
        assert "Serving metrics" in capsys.readouterr().out

    def test_error_paths_exit_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="needs --trace"):
            main(["serve", "--arrival", "trace"])
        with pytest.raises(SystemExit, match="need at least one"):
            main(["serve"])
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n")
        with pytest.raises(SystemExit, match="error:"):
            main(["serve", "--arrival", "trace", "--trace", str(bad)])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--target-utilization", "0"],
            ["--max-replicas", "0"],
            ["--duration", "nan"],
            ["--rate", "nan"],
            ["--max-wait", "nan", "--replicas", "1"],
            ["--max-batch", "0", "--replicas", "1"],
            ["--load-factor", "nan", "--curve", "--replicas", "1"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_input_exits_with_one_error_line(self, flags):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "-w", "dlrm-s-inference", "--duration", "1", *flags,
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
