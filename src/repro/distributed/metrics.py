"""Complexity measures of the dynamic distributed model (Section 2).

The paper evaluates algorithms by three per-change measures plus one refined
one:

* **adjustment complexity** -- number of nodes that change their *output*
  (MIS membership) as a result of the change,
* **round complexity** -- number of rounds until the system is stable again,
* **broadcast complexity** -- total number of broadcasts sent,
* **bit complexity** -- total number of message bits sent (the O(1)-bits
  refinement of Section 1.1).

:class:`ChangeMetrics` records those four numbers (plus bookkeeping useful for
debugging) for a single topology change; :class:`MetricsAggregator` folds
them into fixed-size running totals (count, sum and maximum per counter and
per change kind) and provides the summary statistics printed by the
experiments (sample means, maxima, per-change-kind breakdowns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

from repro.core.state_api import Totals

Node = Hashable


@dataclass
class ChangeMetrics:
    """Per-topology-change complexity record."""

    change_kind: str
    rounds: int = 0
    broadcasts: int = 0
    bits: int = 0
    adjustments: int = 0
    adjusted_nodes: Set[Node] = field(default_factory=set)
    state_changes: int = 0
    async_causal_depth: Optional[int] = None

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the report tables."""
        record: Dict[str, float] = {
            "change_kind": self.change_kind,
            "rounds": self.rounds,
            "broadcasts": self.broadcasts,
            "bits": self.bits,
            "adjustments": self.adjustments,
            "state_changes": self.state_changes,
        }
        if self.async_causal_depth is not None:
            record["async_causal_depth"] = self.async_causal_depth
        return record


#: Counters of a :class:`ChangeMetrics` the aggregator totals, in row order.
METRIC_COUNTERS = (
    "rounds",
    "broadcasts",
    "bits",
    "adjustments",
    "state_changes",
    "async_causal_depth",
)


@dataclass
class MetricsAggregator:
    """Running totals of :class:`ChangeMetrics` over a change sequence.

    ``totals`` holds count, sum and maximum of every :data:`METRIC_COUNTERS`
    field per change kind, so the aggregator (and a
    :class:`~repro.distributed.state.NetworkSnapshot` carrying a copy of its
    totals) stays the same size however many changes it has seen; the
    per-change records are what ``apply`` returns.
    """

    totals: Totals = field(default_factory=lambda: Totals(METRIC_COUNTERS))

    def add(self, metrics: ChangeMetrics) -> None:
        """Fold one per-change record into the totals."""
        # Count, sum and max per counter in METRIC_COUNTERS order, unrolled:
        # this runs once per change on every simulator's hot path.
        row = self.totals.rows.get(metrics.change_kind) or self.totals.row(metrics.change_kind)
        row[0] += 1
        row[1] += (value := metrics.rounds)
        if value > row[2]:
            row[2] = value
        row[3] += 1
        row[4] += (value := metrics.broadcasts)
        if value > row[5]:
            row[5] = value
        row[6] += 1
        row[7] += (value := metrics.bits)
        if value > row[8]:
            row[8] = value
        row[9] += 1
        row[10] += (value := metrics.adjustments)
        if value > row[11]:
            row[11] = value
        row[12] += 1
        row[13] += (value := metrics.state_changes)
        if value > row[14]:
            row[14] = value
        if (value := metrics.async_causal_depth) is not None:
            row[15] += 1
            row[16] += value
            if value > row[17]:
                row[17] = value

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def num_changes(self) -> int:
        """Number of recorded changes."""
        return self.totals.num_records()

    def mean(self, attribute: str, change_kind: Optional[str] = None) -> float:
        """Sample mean of ``attribute`` (optionally restricted to one change kind)."""
        return self.totals.mean(attribute, change_kind)

    def maximum(self, attribute: str, change_kind: Optional[str] = None) -> float:
        """Maximum of ``attribute`` (optionally restricted to one change kind)."""
        return float(self.totals.maximum(attribute, change_kind))

    def total(self, attribute: str, change_kind: Optional[str] = None) -> float:
        """Sum of ``attribute`` (optionally restricted to one change kind)."""
        return float(self.totals.total(attribute, change_kind))

    def change_kinds(self) -> List[str]:
        """The distinct change kinds present, in first-appearance order."""
        return self.totals.kinds()

    def by_kind_summary(self, attribute: str) -> Dict[str, float]:
        """Mapping ``change kind -> mean attribute`` used by the report tables."""
        return {kind: self.mean(attribute, kind) for kind in self.change_kinds()}

    def summary(self) -> Dict[str, float]:
        """Overall means of the four complexity measures."""
        return {
            "mean_adjustments": self.mean("adjustments"),
            "mean_rounds": self.mean("rounds"),
            "mean_broadcasts": self.mean("broadcasts"),
            "mean_bits": self.mean("bits"),
            "max_adjustments": self.maximum("adjustments"),
            "max_rounds": self.maximum("rounds"),
            "max_broadcasts": self.maximum("broadcasts"),
            "num_changes": float(self.num_changes),
        }
