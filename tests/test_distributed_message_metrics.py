"""Unit tests for message bit accounting and the metrics aggregator.

The aggregator and the sequential statistics keep fixed-size totals; a
hypothesis test checks every read method of both against the formulas over
per-change lists that the totals replaced.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_mis import MaintainerStatistics
from repro.distributed.message import (
    Message,
    MessageKind,
    expected_comparison_bits,
    id_message_bits,
    state_message_bits,
)
from repro.distributed.metrics import ChangeMetrics, MetricsAggregator


class TestMessageBits:
    def test_state_message_is_constant_size(self):
        message = Message(sender=1, kind=MessageKind.STATE, state="C")
        assert message.bits(10) == state_message_bits() == 2
        assert message.bits(10_000) == 2

    def test_id_message_grows_logarithmically(self):
        message = Message(sender=1, kind=MessageKind.ID_AND_STATE, state="M", random_id=(0.5,))
        small = message.bits(16)
        large = message.bits(16_384)
        assert small < large
        assert large == id_message_bits(16_384)
        assert id_message_bits(16_384) <= 2 * 14 + 2

    def test_id_bits_monotone_in_bound(self):
        previous = 0
        for bound in (2, 8, 64, 1024, 10_000):
            bits = id_message_bits(bound)
            assert bits >= previous
            previous = bits

    def test_expected_comparison_bits_is_constant(self):
        assert expected_comparison_bits() == pytest.approx(4.0)

    def test_message_defaults(self):
        message = Message(
            sender="a", kind=MessageKind.ID_AND_STATE, state="M_BAR", random_id=(0.1,)
        )
        assert message.requests_introduction is True
        assert message.round_sent == 0


class TestChangeMetrics:
    def test_as_dict_contains_core_fields(self):
        metrics = ChangeMetrics("edge_insertion", rounds=3, broadcasts=5, bits=12, adjustments=1)
        record = metrics.as_dict()
        assert record["change_kind"] == "edge_insertion"
        assert record["rounds"] == 3
        assert record["broadcasts"] == 5
        assert "async_causal_depth" not in record

    def test_as_dict_includes_async_depth_when_present(self):
        metrics = ChangeMetrics("edge_insertion", async_causal_depth=4)
        assert metrics.as_dict()["async_causal_depth"] == 4


class TestMetricsAggregator:
    def _populated(self) -> MetricsAggregator:
        aggregator = MetricsAggregator()
        aggregator.add(
            ChangeMetrics("edge_insertion", rounds=2, broadcasts=3, bits=10, adjustments=1)
        )
        aggregator.add(
            ChangeMetrics("edge_insertion", rounds=4, broadcasts=1, bits=4, adjustments=0)
        )
        aggregator.add(
            ChangeMetrics("node_deletion", rounds=6, broadcasts=9, bits=20, adjustments=3)
        )
        return aggregator

    def test_counts_and_means(self):
        aggregator = self._populated()
        assert aggregator.num_changes == 3
        assert aggregator.mean("rounds") == pytest.approx(4.0)
        assert aggregator.mean("adjustments") == pytest.approx(4 / 3)
        assert aggregator.mean("rounds", "edge_insertion") == pytest.approx(3.0)

    def test_maximum_and_total(self):
        aggregator = self._populated()
        assert aggregator.maximum("broadcasts") == 9
        assert aggregator.total("bits") == 34
        assert aggregator.total("bits", "node_deletion") == 20

    def test_change_kinds_order(self):
        aggregator = self._populated()
        assert aggregator.change_kinds() == ["edge_insertion", "node_deletion"]

    def test_by_kind_summary(self):
        aggregator = self._populated()
        summary = aggregator.by_kind_summary("adjustments")
        assert summary["edge_insertion"] == pytest.approx(0.5)
        assert summary["node_deletion"] == pytest.approx(3.0)

    def test_summary_keys(self):
        summary = self._populated().summary()
        for key in (
            "mean_adjustments",
            "mean_rounds",
            "mean_broadcasts",
            "mean_bits",
            "max_adjustments",
            "max_rounds",
            "max_broadcasts",
            "num_changes",
        ):
            assert key in summary

    def test_empty_aggregator(self):
        aggregator = MetricsAggregator()
        assert aggregator.mean("rounds") == 0.0
        assert aggregator.maximum("rounds") == 0.0
        assert aggregator.change_kinds() == []



# ----------------------------------------------------------------------
# Totals against the per-change list formulas they replace
# ----------------------------------------------------------------------
KINDS = ("node_deletion", "edge_insertion", "edge_deletion", "node_unmuting")
COUNT = st.integers(min_value=0, max_value=10**6)
METRIC_FIELDS = ("rounds", "broadcasts", "bits", "adjustments", "state_changes")

metric_records = st.lists(
    st.builds(
        ChangeMetrics,
        change_kind=st.sampled_from(KINDS),
        rounds=COUNT,
        broadcasts=COUNT,
        bits=COUNT,
        adjustments=COUNT,
        state_changes=COUNT,
        async_causal_depth=st.none() | COUNT,
    ),
    max_size=30,
)
change_reports = st.builds(
    SimpleNamespace,
    change_type=st.sampled_from(KINDS),
    influenced_size=COUNT,
    num_adjustments=COUNT,
    num_levels=COUNT,
    state_flips=COUNT,
    update_work=COUNT,
)
batch_reports = st.builds(
    SimpleNamespace,
    batch_size=st.integers(min_value=1, max_value=64),
    influenced_size=COUNT,
    num_adjustments=COUNT,
    num_levels=COUNT,
)
mixed_reports = st.lists(
    st.tuples(st.just(False), change_reports) | st.tuples(st.just(True), batch_reports),
    max_size=30,
)
batch_only_reports = st.lists(st.tuples(st.just(True), batch_reports), max_size=10)
#: ``(is_batch, report)`` pairs: mixed runs, and runs of batches only.
report_sequences = mixed_reports | batch_only_reports


class TestTotalsAgainstListFormulas:
    """Every read method equals the formula over the per-change lists it
    replaced; a ``None`` value counts toward nothing."""

    @staticmethod
    def _values(records, attribute, kind):
        values = []
        for record in records:
            if kind is not None and record.change_kind != kind:
                continue
            value = getattr(record, attribute)
            if value is None:
                continue
            values.append(float(value))
        return values

    @given(metric_records)
    @settings(max_examples=150, deadline=None)
    def test_metrics_aggregator(self, records):
        aggregator = MetricsAggregator()
        for record in records:
            aggregator.add(record)
        kinds = []
        for record in records:
            if record.change_kind not in kinds:
                kinds.append(record.change_kind)
        assert aggregator.num_changes == len(records)
        assert aggregator.change_kinds() == kinds
        for attribute in METRIC_FIELDS + ("async_causal_depth",):
            for kind in (None,) + KINDS:
                values = self._values(records, attribute, kind)
                assert aggregator.mean(attribute, kind) == (
                    sum(values) / len(values) if values else 0.0
                )
                assert aggregator.maximum(attribute, kind) == (max(values) if values else 0.0)
                assert aggregator.total(attribute, kind) == sum(values)
            assert aggregator.by_kind_summary(attribute) == {
                kind: aggregator.mean(attribute, kind) for kind in kinds
            }
        values = {name: self._values(records, name, None) for name in METRIC_FIELDS}

        def mean(name):
            return sum(values[name]) / len(values[name]) if values[name] else 0.0

        def maximum(name):
            return max(values[name]) if values[name] else 0.0

        assert aggregator.summary() == {
            "mean_adjustments": mean("adjustments"),
            "mean_rounds": mean("rounds"),
            "mean_broadcasts": mean("broadcasts"),
            "mean_bits": mean("bits"),
            "max_adjustments": maximum("adjustments"),
            "max_rounds": maximum("rounds"),
            "max_broadcasts": maximum("broadcasts"),
            "num_changes": float(len(records)),
        }

    @given(report_sequences)
    @settings(max_examples=150, deadline=None)
    def test_maintainer_statistics(self, reports):
        statistics = MaintainerStatistics()
        singles = [report for is_batch, report in reports if not is_batch]
        batches = [report for is_batch, report in reports if is_batch]
        for is_batch, report in reports:
            if is_batch:
                statistics.record_batch(report)
            else:
                statistics.record(report)

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        adjustments = [report.num_adjustments for report in singles]
        batch_total = sum(report.batch_size for report in batches)
        assert statistics.num_changes == len(singles)
        assert statistics.num_batches == len(batches)
        assert statistics.num_batched_changes == batch_total
        assert statistics.mean_batch_adjustments_per_change() == (
            sum(report.num_adjustments for report in batches) / batch_total if batch_total else 0.0
        )
        assert statistics.mean_influenced_size() == mean([r.influenced_size for r in singles])
        assert statistics.mean_adjustments() == mean(adjustments)
        assert statistics.mean_propagation_depth() == mean([r.num_levels for r in singles])
        assert statistics.mean_update_work() == mean([r.update_work for r in singles])
        assert statistics.max_adjustments() == (max(adjustments) if adjustments else 0)
        kinds = []
        for report in singles:
            if report.change_type not in kinds:
                kinds.append(report.change_type)
        assert statistics.changes.kinds() == kinds
        assert statistics.batches.kinds() == (["batch"] if batches else [])
