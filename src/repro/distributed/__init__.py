"""Distributed simulation of the paper's dynamic model (Section 2 and 4).

The subpackage contains

* the message and metric plumbing shared by every protocol
  (:mod:`repro.distributed.message`, :mod:`repro.distributed.metrics`),
* the per-node runtime state holding exactly the knowledge a node is allowed
  to have -- its own random ID, its neighbors, and the last state/ID it heard
  from each neighbor (:mod:`repro.distributed.node`),
* the surface all six simulators share -- one change dispatch,
  ``apply_sequence``, ``metrics`` and ``verify`` -- the dict/set state
  core and the synchronous round-based broadcast simulator
  (:mod:`repro.distributed.network`),
* **Algorithm 2**, the constant-broadcast protocol with states M, M-bar, C, R
  (:mod:`repro.distributed.protocol_mis`),
* the **direct template implementation** of Corollary 6 -- one adjustment and
  one round in expectation (:mod:`repro.distributed.protocol_direct`),
* an asynchronous event-driven execution of the direct protocol with
  adversarial/random message delays (:mod:`repro.distributed.async_network`,
  :mod:`repro.distributed.scheduler`),
* the id-interned flat-array state core running the same three protocols at
  protocol-benchmark scale (:mod:`repro.distributed.fast_network`), and
* the network-backend registry (:mod:`repro.distributed.network_api`),
  whose ``create_network(protocol, network=...)`` is the one way to pick a
  core.
"""

from repro.distributed.message import Message, MessageKind, id_message_bits, state_message_bits
from repro.distributed.metrics import ChangeMetrics, MetricsAggregator
from repro.distributed.node import NodeRuntime, NodeState
from repro.distributed.protocol_direct import DirectMISNetwork
from repro.distributed.protocol_mis import BufferedMISNetwork
from repro.distributed.async_network import AsyncDirectMISNetwork
from repro.distributed.fast_network import (
    FastAsyncDirectMISNetwork,
    FastBufferedMISNetwork,
    FastDirectMISNetwork,
)
from repro.distributed.network_api import (
    NETWORK_NAMES,
    available_networks,
    create_network,
    register_network,
    unregister_network,
)
from repro.distributed.scheduler import (
    AdversarialDelayScheduler,
    FixedDelayScheduler,
    RandomDelayScheduler,
)

__all__ = [
    "Message",
    "MessageKind",
    "state_message_bits",
    "id_message_bits",
    "ChangeMetrics",
    "MetricsAggregator",
    "NodeRuntime",
    "NodeState",
    "BufferedMISNetwork",
    "DirectMISNetwork",
    "AsyncDirectMISNetwork",
    "FastBufferedMISNetwork",
    "FastDirectMISNetwork",
    "FastAsyncDirectMISNetwork",
    "NETWORK_NAMES",
    "available_networks",
    "create_network",
    "register_network",
    "unregister_network",
    "RandomDelayScheduler",
    "FixedDelayScheduler",
    "AdversarialDelayScheduler",
]
