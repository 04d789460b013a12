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
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gating.report import PolicyName
from repro.serving import (
    NS,
    TAG_DTYPE,
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

    def resolve(self, pairs):
        pass

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

    def test_a_span_past_int64_names_the_span(self):
        # Sorted, and each end fits int64, but their difference does
        # not: an int64 ``np.diff`` would wrap negative here.
        tags = np.zeros(2, dtype=TAG_DTYPE)
        arrivals = np.asarray([-9 * 10**18, 9 * 10**18], dtype=np.int64)
        with pytest.raises(TraceError, match=r"spans 18000000000\.000s"):
            RequestTrace(arrivals, tags, ("a",))
        # The widest span that fits still builds, and reads back exact.
        arrivals[0] = 9 * 10**18 - (2**63 - 1)
        assert RequestTrace(arrivals, tags, ("a",)).span_ns == 2**63 - 1

    def test_every_constructor_stores_uint8_tags(self, tmp_path):
        assert TAG_DTYPE is np.uint8
        trace = poisson_trace(["a", "b"], [30.0, 5.0], 2.0, seed=1)
        path = write_trace_csv(trace, tmp_path / "trace.csv")
        built = {
            "poisson": trace,
            "diurnal": diurnal_trace(["a", "b"], 20.0, 2.0, seed=1, period_s=2.0),
            "from_rows": RequestTrace.from_rows([(0.5, "b"), (0.1, "a")]),
            "from_rows (empty)": RequestTrace.from_rows([], workloads=("a",)),
            "load_trace": load_trace(path),
            "compressed": trace.compressed(0.3),
        }
        for name, made in built.items():
            assert made.workload_ids.dtype == TAG_DTYPE, name

    def test_more_workloads_than_tags_is_a_trace_error(self):
        names = [f"w{index}" for index in range(257)]
        RequestTrace.from_rows([(0.0, name) for name in names[:256]])
        with pytest.raises(TraceError, match="at most 256 workloads, got 257"):
            RequestTrace.from_rows([(0.0, name) for name in names])
        with pytest.raises(TraceError, match="at most 256 workloads"):
            poisson_trace(names, 1.0, 1.0)

    def test_compressed_scales_load(self):
        trace = RequestTrace.from_rows([(0.0, "a"), (10.0, "a")])
        assert trace.compressed(2.0).span_ns == trace.span_ns // 2
        assert trace.compressed(0.5).span_ns == trace.span_ns * 2
        with pytest.raises(TraceError, match="positive"):
            trace.compressed(0.0)

    def test_compressed_at_one_is_the_trace_itself(self):
        trace = poisson_trace(["a", "b"], 20.0, 1.0, seed=3)
        assert trace.compressed(1.0) is trace
        assert trace.compressed(1) is trace

    @pytest.mark.parametrize(
        "rows, factor",
        [
            ([(0.0, "a"), (2.0, "a")], 1e-300),  # the last arrival → +inf
            ([(0.0, "a"), (2.0, "a")], 1e-10),  # finite, past 2**63 ns
            ([(-2.0, "a"), (0.0, "a")], 1e-10),  # the first, below -2**63
        ],
        ids=["inf", "above-int64", "below-int64"],
    )
    def test_compressed_past_int64_is_a_trace_error(self, rows, factor):
        trace = RequestTrace.from_rows(rows)
        with pytest.raises(TraceError, match="int64"):
            trace.compressed(factor)
        # A factor that lands an arrival at 2**62 ns still fits.
        assert trace.compressed(2e9 / 2.0**62).span_ns == 2**62

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

    @pytest.mark.parametrize("make", [poisson_trace, diurnal_trace])
    def test_negative_seed_is_a_trace_error(self, make):
        with pytest.raises(TraceError, match="seed"):
            make(["a"], 10.0, 1.0, seed=-1)


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
        # NaN, infinite and int64-overflowing (ns) timestamps.
        for stamp in ("nan", "inf", "-inf", "1e300", "1e10", "-1e10"):
            path.write_text(f"timestamp_s,workload\n0.5,a\n{stamp},b\n")
            with pytest.raises(TraceError, match=r"bad\.csv:3: bad CSV record"):
                load_trace(path)
        for stamp in ("NaN", "Infinity", "1e300", "1e10"):
            path.write_text(
                '{"timestamp_s": 0.5, "workload": "a"}\n'
                f'{{"timestamp_s": {stamp}, "workload": "b"}}\n'
            )
            with pytest.raises(TraceError, match=r"bad\.csv:2: bad JSONL record"):
                load_trace(path)
        # The largest representable span still loads.
        path.write_text("timestamp_s,workload\n0.5,a\n9e9,b\n")
        assert load_trace(path).arrival_ns[-1] == 9 * 10**18

    def test_a_span_past_int64_is_a_trace_error(self, tmp_path):
        # Each timestamp fits int64 nanoseconds; the span between them
        # does not.
        path = tmp_path / "wide.csv"
        path.write_text(
            "timestamp_s,workload\n"
            "-9000000000,llama3-8b-decode\n"
            "9000000000,llama3-8b-decode\n"
        )
        with pytest.raises(TraceError, match="spans 18000000000.000s, past"):
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

    def test_large_trace_matches_oracle_exactly(self):
        """~24k requests in three streams, far beyond the drawn traces."""
        trace = poisson_trace(("decode", "prefill", "rank"), 800.0, 10.0, seed=42)
        policies = {
            wid: BatchPolicy(max_batch=4 + 4 * wid, max_wait_s=0.010)
            for wid in range(len(trace.workloads))
        }
        fast = form_batches(trace, policies)
        slow = form_batches_oracle(trace, policies)
        assert_tables_equal(fast, slow)
        service = (200_000 + 50_000 * fast.sizes).astype(np.int64)
        for left, right in zip(
            queue_batches(fast, service, 4), queue_batches_oracle(slow, service, 4)
        ):
            assert np.array_equal(left, right)

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
        with columnar.use_fast_path(True):
            fast = simulate_serving(trace, plans, model)
        with columnar.use_fast_path(False):
            slow = simulate_serving(trace, plans, model)
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

    def test_default_follows_the_repo_wide_columnar_switch(
        self, model, monkeypatch
    ):
        import repro.serving.simulate as simulate_module

        trace = poisson_trace(["a"], 200.0, 2.0, seed=2)
        plans = manual_plans(trace)
        calls: list[str] = []
        for name in (
            "form_batches", "form_batches_oracle",
            "queue_batches", "queue_batches_oracle",
        ):
            original = getattr(simulate_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(simulate_module, name, counted)
        with columnar.use_fast_path(False):
            oracle = simulate_serving(trace, plans, model)
        assert set(calls) == {"form_batches_oracle", "queue_batches_oracle"}
        calls.clear()
        with columnar.use_fast_path(True):
            fast = simulate_serving(trace, plans, model)
        assert set(calls) == {"form_batches", "queue_batches"}
        assert np.array_equal(fast.finish_ns, oracle.finish_ns)

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
        # 0.3, 1.7 and 3 do not scale nanoseconds exactly, so their
        # compressed arrivals depend on how the scaled values round.
        factors = (0.25, 0.3, 1.0, 1.7, 3.0, 4.0, 16.0)
        with columnar.use_fast_path(True):
            fast = utilization_curve(trace, plans, model, load_factors=factors)
        with columnar.use_fast_path(False):
            slow = utilization_curve(trace, plans, model, load_factors=factors)
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


class TestCurveOperatingPoint:
    """``utilization_curve(..., operating_point=report)`` reads the
    report at every 1.0x level instead of simulating it again."""

    @pytest.fixture(scope="class")
    def model(self):
        return FakeServiceModel()

    @pytest.fixture(scope="class")
    def trace(self):
        return poisson_trace(["a", "b", "c"], [150.0, 60.0, 20.0], 3.0, seed=13)

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "oracle"])
    @pytest.mark.parametrize(
        "factors",
        [(0.25, 4.0), (0.25, 1.0, 4.0), (1.0, 2.0, 1.0)],
        ids=["no-1x", "one-1x", "two-1x"],
    )
    def test_reuse_equals_the_simulated_curve(
        self, trace, model, factors, fast, monkeypatch
    ):
        import repro.serving.simulate as simulate_module

        plans = manual_plans(trace, replicas=2, max_batch=4)
        with columnar.use_fast_path(fast):
            plain = utilization_curve(trace, plans, model, load_factors=factors)
            report = simulate_serving(trace, plans, model)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return simulate_serving(*args, **kwargs)

        monkeypatch.setattr(simulate_module, "simulate_serving", counted)
        with columnar.use_fast_path(fast):
            reused = utilization_curve(
                trace, plans, model, load_factors=factors,
                operating_point=report,
            )
        assert reused == plain  # every CurvePoint field
        assert len(calls) == sum(factor != 1.0 for factor in factors)
        assert all(simulated is not trace for simulated in calls)

    @pytest.mark.parametrize("change", ["trace", "plans", "max_wait_s"])
    def test_a_report_of_another_run_is_refused(self, trace, model, change):
        plans = manual_plans(trace, replicas=2, max_batch=4)
        report = simulate_serving(trace, plans, model, max_wait_s=0.05)
        kwargs = {"plans": plans, "max_wait_s": 0.05}
        other_trace = trace
        if change == "trace":
            other_trace = poisson_trace(["a", "b", "c"], 40.0, 3.0, seed=13)
        elif change == "plans":
            kwargs["plans"] = manual_plans(trace, replicas=3, max_batch=4)
        else:
            kwargs["max_wait_s"] = 0.02
        with pytest.raises(ValueError, match="operating_point"):
            utilization_curve(
                other_trace, service_model=model, load_factors=(1.0,),
                operating_point=report, **kwargs,
            )

    def test_the_report_keeps_max_wait_out_of_its_json(self, trace, model):
        plans = manual_plans(trace)
        report = simulate_serving(trace, plans, model, max_wait_s=0.02)
        assert report.max_wait_s == 0.02
        assert "max_wait_s" not in json.dumps(report.to_json())


class TestMemoryBudget:
    """The fast path holds one load level, and one per-request scratch
    array per pool, at a time."""

    #: Traced peak of the operating point plus a 4-level curve, in bytes
    #: per request, beyond the base trace.  What may be live at once:
    #: the operating point's batch table (a few int64 words per batch,
    #: about 1/16 of a word per request here), one level's int64 arrival
    #: column (8 B) and then either the float64 scratch it is scaled in
    #: (8 B) or one pool's arrival column and one latency scratch array
    #: (4 + 4 B with two equal pools), plus that level's batch table.
    #: Measured 23.7 B/request (numpy 2.4); keeping the previous
    #: level's report, both latency arrays of every pool, the copies
    #: ``np.percentile`` makes and three arrays in
    #: ``RequestTrace.compressed`` measured 45.5.  28 leaves ~18% for
    #: numpy's own scratch to vary across versions.
    BYTES_PER_REQUEST = 28

    def test_operating_point_and_curve_stay_within_budget(self):
        model = FakeServiceModel()

        def serve(trace):
            plans = manual_plans(trace, replicas=2, max_batch=16)
            report = simulate_serving(trace, plans, model)
            utilization_curve(
                trace, plans, model,
                load_factors=(0.3, 1.0, 1.7, 3.0), operating_point=report,
            )

        with columnar.use_fast_path(True):
            # A small run first, so lazy imports do not count.
            serve(poisson_trace(["a", "b"], 100.0, 1.0, seed=0))
            trace = poisson_trace(["a", "b"], 2000.0, 60.0, seed=0)
            assert 230_000 < len(trace) < 250_000
            tracemalloc.start()
            try:
                serve(trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / len(trace) <= self.BYTES_PER_REQUEST, peak / len(trace)


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

    @pytest.mark.parametrize("window_s", [0.25, 60.0], ids=["windows", "whole"])
    def test_pool_demand_equals_a_masked_sub_trace(self, window_s):
        model = FakeServiceModel()
        scaler = Autoscaler(model, demand_window_s=window_s)
        trace = poisson_trace(["a", "b", "c"], [90.0, 30.0, 5.0], 3.0, seed=21)
        for wid, name in enumerate(trace.workloads):
            mask = trace.workload_mask(wid)
            sub = RequestTrace(
                trace.arrival_ns[mask], trace.workload_ids[mask], trace.workloads
            )
            plan = scaler.size(trace, name, pod=PodSpec(workload=name))
            assert plan.demand_qps == sub.demand_qps(window_s) > 0
        ghost = scaler.size(trace, "ghost", pod=PodSpec(workload="ghost"))
        assert ghost.demand_qps == 0.0

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

    def test_batch_sizes_are_priced_in_one_grid_call_per_policy(
        self, monkeypatch
    ):
        """simulate_serving prices every batch size it forms (and each
        pod's full batch) with one grid_evaluate per policy, and reports
        exactly what pricing each size lazily through result() gives."""
        from repro.gating.policies import PowerGatingPolicy

        trace = poisson_trace(
            ["llama3-8b-decode", "dlrm-s-inference"], [60.0, 30.0], 2.0, seed=5
        )
        plans = manual_plans(trace, replicas=2, max_batch=4)
        grid_calls: list[PolicyName] = []
        grid_evaluate = PowerGatingPolicy.grid_evaluate

        def counting(self, *args, **kwargs):
            grid_calls.append(self.name)
            return grid_evaluate(self, *args, **kwargs)

        monkeypatch.setattr(PowerGatingPolicy, "grid_evaluate", counting)
        with columnar.use_fast_path(True):
            batched_model = ServiceModel()
            batched = simulate_serving(trace, plans, batched_model)
            assert sorted(grid_calls) == sorted(batched_model.policies)

            lazy_model = ServiceModel()
            for wid, name in enumerate(trace.workloads):
                pod = plans[name].pod
                rows = batched.batches.workload_slice(wid)
                sizes = np.unique(batched.batches.sizes[rows])
                assert len(sizes) > 1
                for size in [*sizes.tolist(), pod.max_batch]:
                    lazy_model.result(pod, size)
            grid_calls.clear()
            lazy = simulate_serving(trace, plans, lazy_model)
        assert grid_calls == []
        assert lazy.to_json() == batched.to_json()

    def test_oracle_resolve_prices_without_the_grid_kernel(self, monkeypatch):
        """With the fast path off, ServiceModel.resolve prices every pair
        on the object-path oracle (no grid_evaluate call) and reports
        exactly what the fast route's grid kernel gives."""
        from repro.gating.policies import PowerGatingPolicy

        pod = PodSpec(workload="llama3-8b-decode", max_batch=4)
        pairs = [(pod, size) for size in (1, 3, 4)]
        with columnar.use_fast_path(True):
            fast_model = ServiceModel()
            fast_model.resolve(pairs)

        grid_calls: list[PolicyName] = []
        grid_evaluate = PowerGatingPolicy.grid_evaluate

        def counting(self, *args, **kwargs):
            grid_calls.append(self.name)
            return grid_evaluate(self, *args, **kwargs)

        monkeypatch.setattr(PowerGatingPolicy, "grid_evaluate", counting)
        with columnar.use_fast_path(False):
            oracle_model = ServiceModel()
            oracle_model.resolve(pairs)
        assert grid_calls == []
        for pair in pairs:
            assert oracle_model.result(*pair).reports == fast_model.result(*pair).reports


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
        assert_one_error_line(["-w", "dlrm-s-inference", "--duration", "1", *flags])

    def test_a_trace_spanning_past_int64_exits_with_one_error_line(
        self, tmp_path
    ):
        path = tmp_path / "wide.csv"
        path.write_text(
            "timestamp_s,workload\n"
            "-9000000000,llama3-8b-decode\n"
            "9000000000,llama3-8b-decode\n"
        )
        line = assert_one_error_line(["--arrival", "trace", "--trace", str(path)])
        assert "spans 18000000000.000s" in line


def assert_one_error_line(flags: list[str]) -> str:
    """Run ``repro serve`` with ``flags`` in a fresh interpreter; it must
    exit 2 with one ``error:`` line on stderr, which is returned."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
    return lines[0]
