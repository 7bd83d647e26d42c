"""The network-backend registry for the distributed simulators.

The distributed subsystem ships two interchangeable *state cores*: the
paper-shaped dict/set runtimes (:mod:`repro.distributed.network` and
friends) and the id-interned flat-array core
(:mod:`repro.distributed.fast_network`).  Both run the same three protocols
-- ``"buffered"`` (Algorithm 2), ``"direct"`` (the direct template
implementation) and ``"async-direct"`` (the event-driven asynchronous
execution) -- and are observably identical under the same seed, which the
protocol differential harness
(:func:`repro.testing.protocol_differential.replay_protocol_differential`)
machine-checks.

This module is the registry tying them together, mirroring the engine
registry (:mod:`repro.core.engine_api`):

* :func:`register_network` registers a backend name with one factory per
  protocol; third-party cores plug in without touching any simulator module;
* :func:`create_network` builds a simulator from ``(protocol, network)``;
  it is the one way to pick a core -- scenario specs, the CLI, the service
  layer and the benchmarks all call it, and the simulator constructors take
  no ``network`` keyword.

``NETWORK_NAMES`` is a live view of the registered backend names, used by
the CLI for its ``--network`` choices.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, Tuple

from repro.registry import LiveNames, Registry, UnknownNameError

#: Signature of a registered backend factory: the simulator constructor
#: keyword arguments (``seed``, ``initial_graph``, ``priorities`` and, for
#: the asynchronous protocol, ``scheduler``), returning a ready simulator.
NetworkFactory = Callable[..., object]

#: The protocols every complete backend provides.
PROTOCOL_NAMES = ("buffered", "direct", "async-direct")


class UnknownNetworkError(UnknownNameError):
    """A network or protocol name that is not registered (with a did-you-mean hint)."""

    def __init__(self, kind: str, name: str, known: Sequence[str]) -> None:
        super().__init__(kind, name, known)


def _check_protocol_table(name: str, protocols: Mapping[str, NetworkFactory]) -> None:
    if not protocols:
        raise ValueError(f"network {name!r} must register at least one protocol")
    for protocol, factory in protocols.items():
        if not callable(factory):
            raise TypeError(
                f"factory for network {name!r} protocol {protocol!r} must be "
                f"callable, got {factory!r}"
            )


_REGISTRY = Registry(
    "network",
    error=lambda name, known: UnknownNetworkError("network", name, known),
    check_value=_check_protocol_table,
)


def register_network(
    name: str, protocols: Mapping[str, NetworkFactory], overwrite: bool = False
) -> None:
    """Register a network state core under ``name``.

    ``protocols`` maps protocol names (usually a subset of
    :data:`PROTOCOL_NAMES`) to simulator factories.  A factory must accept
    the keyword arguments ``seed``, ``initial_graph`` and ``priorities``
    (plus ``scheduler`` for ``"async-direct"``) and return a ready simulator
    exposing the surface of
    :class:`~repro.distributed.network.NetworkSimulator`, which every
    built-in subclasses: ``apply`` / ``apply_sequence``, ``metrics``,
    ``verify(reference_engine=...)``, ``graph``, ``priorities``, ``mis`` /
    ``states`` and ``node_runtime``.  Backends that additionally implement
    the label-keyed ``snapshot()`` / ``restore()`` pair of
    :mod:`repro.distributed.state` (all built-ins do) gain session
    checkpointing and cross-backend resume for free
    (:meth:`repro.scenario.session.Session.checkpoint`).

    Re-registering an existing name raises unless ``overwrite=True`` (guards
    against accidental shadowing of the built-in cores).
    """
    if protocols is not None and not isinstance(protocols, Mapping):
        raise TypeError(
            f"network {name!r} needs a mapping of protocol -> factory, got {protocols!r}"
        )
    _REGISTRY.register(
        name, dict(protocols) if protocols else protocols, overwrite=overwrite
    )


def unregister_network(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent; mainly for tests)."""
    _REGISTRY.unregister(name)


def available_networks() -> Tuple[str, ...]:
    """The registered backend names, built-ins first, in registration order."""
    return _REGISTRY.names()


def network_protocols(name: str) -> Tuple[str, ...]:
    """The protocol names backend ``name`` provides."""
    return tuple(_REGISTRY.get(name))


def resolve_network(name: str, protocol: str) -> NetworkFactory:
    """The factory for ``(network name, protocol)``; raises with a hint otherwise."""
    protocols = _REGISTRY.get(name)
    try:
        return protocols[protocol]
    except KeyError:
        raise UnknownNetworkError("protocol", protocol, tuple(protocols)) from None


def create_network(protocol: str = "buffered", network: str = "dict", **kwargs):
    """Build a distributed simulator from a ``(protocol, network)`` pair.

    ``kwargs`` are passed to the resolved factory (``seed``,
    ``initial_graph``, ``priorities``, and ``scheduler`` for the
    asynchronous protocol).
    """
    return resolve_network(network, protocol)(**kwargs)


#: Live view of the registered backend names (kept in sync with the registry).
NETWORK_NAMES = LiveNames(_REGISTRY)


# ----------------------------------------------------------------------
# Built-in backends (lazy factories -- no circular imports)
# ----------------------------------------------------------------------
def _dict_buffered(*args, **kwargs):
    from repro.distributed.protocol_mis import BufferedMISNetwork

    return BufferedMISNetwork(*args, **kwargs)


def _dict_direct(*args, **kwargs):
    from repro.distributed.protocol_direct import DirectMISNetwork

    return DirectMISNetwork(*args, **kwargs)


def _dict_async_direct(*args, **kwargs):
    from repro.distributed.async_network import AsyncDirectMISNetwork

    return AsyncDirectMISNetwork(*args, **kwargs)


def _fast_buffered(*args, **kwargs):
    from repro.distributed.fast_network import FastBufferedMISNetwork

    return FastBufferedMISNetwork(*args, **kwargs)


def _fast_direct(*args, **kwargs):
    from repro.distributed.fast_network import FastDirectMISNetwork

    return FastDirectMISNetwork(*args, **kwargs)


def _fast_async_direct(*args, **kwargs):
    from repro.distributed.fast_network import FastAsyncDirectMISNetwork

    return FastAsyncDirectMISNetwork(*args, **kwargs)


register_network(
    "dict",
    {"buffered": _dict_buffered, "direct": _dict_direct, "async-direct": _dict_async_direct},
)
register_network(
    "fast",
    {"buffered": _fast_buffered, "direct": _fast_direct, "async-direct": _fast_async_direct},
)
