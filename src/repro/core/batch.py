"""Batched topology changes (the paper's first open question, Section 6).

The paper analyses a *single* topology change at a time and asks whether the
analysis extends to "more than a single failure at a time".  The batched
extension applies a whole batch of changes to the graph at once, seeds the
repair with every node whose MIS invariant may have broken, and restores the
invariant in one propagation wave.

Formal guarantees for batches are open (and out of scope for a reproduction),
but two facts make the batched extension useful and testable:

* **Correctness** is unconditional: after the repair wave the states equal
  the greedy MIS of the new graph under the same order, exactly as for single
  changes, because the propagation converges to the unique fixed point of the
  MIS invariant.
* **Sub-additivity in practice**: the influenced set of a batch is typically
  much smaller than the sum of the influenced sets of its changes applied one
  by one (opposite flips cancel), which ablation A2 quantifies.

Batch apply is a first-class method of the
:class:`~repro.core.engine_api.MISEngine` contract: every backend implements
:meth:`~repro.core.engine_api.MISEngine.apply_batch` natively (the template
engine as one dict/set propagation, the fast engine as array deltas followed
by its single-change repair walk seeded from every touched node) and returns a
:class:`~repro.core.engine_api.BatchUpdateReport`.  This module remains as
the historical entry point: :func:`apply_batch` simply delegates to the
engine's own method, and :class:`BatchUpdateReport` is re-exported here for
callers that imported it from its original home.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.engine_api import BatchUpdateReport, MISEngine

__all__ = ["BatchUpdateReport", "apply_batch"]


def apply_batch(engine: MISEngine, changes: Iterable) -> BatchUpdateReport:
    """Apply ``changes`` to ``engine`` atomically and restore the MIS invariant.

    Thin wrapper around :meth:`repro.core.engine_api.MISEngine.apply_batch`
    (kept for backward compatibility -- the batch implementation used to live
    here and reach into template-engine internals).

    Raises
    ------
    GraphError
        If some change in the batch is invalid at its position.
    """
    return engine.apply_batch(list(changes))
