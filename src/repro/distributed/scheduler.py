"""Message-delay schedulers for the asynchronous simulator.

In the asynchronous model the adversary controls message delays (but not the
algorithm's randomness -- it is oblivious).  A scheduler maps a message
(sender, receiver and a sequence number) to a positive delivery delay.  The
asynchronous simulator additionally enforces FIFO order per directed channel,
the standard assumption for asynchronous message passing.

Three schedulers are provided:

* :class:`FixedDelayScheduler` -- every message takes the same time; this
  makes the asynchronous execution equivalent to the synchronous one and is
  useful for cross-checking.
* :class:`RandomDelayScheduler` -- independent uniform delays in a range,
  modelling a well-behaved but jittery network.
* :class:`AdversarialDelayScheduler` -- a deterministic, oblivious scheduler
  that systematically slows down a fixed fraction of the channels by a large
  factor, creating the long/short message races that asynchronous algorithms
  must tolerate.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.registry import Registry, UnknownNameError, did_you_mean

Node = Hashable


class UnknownSchedulerError(UnknownNameError):
    """A scheduler kind that is not registered (with a did-you-mean hint)."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        known = tuple(known)
        super().__init__(
            "scheduler", name, known, known_word="known"
        )


class DelayScheduler:
    """Interface: return the in-flight delay of one message.

    Schedulers also take part in the checkpoint/resume contract through the
    :meth:`getstate` / :meth:`setstate` pair: a scheduler that consumes a
    private random stream (the ``"random"`` kind) exposes its stream position
    so a :class:`~repro.distributed.state.NetworkSnapshot` can carry it and a
    resumed simulator draws the *same* remaining delays as the uninterrupted
    one.  Stateless (channel-deterministic) schedulers return ``None``.
    """

    def delay(self, sender: Node, receiver: Node, sequence_number: int) -> float:
        """Positive delay for the message with the given channel and sequence number."""
        raise NotImplementedError

    def getstate(self) -> Optional[Tuple]:
        """Opaque resumable state (``None`` for stateless schedulers).

        Whatever this returns rides in
        :attr:`~repro.distributed.state.NetworkSnapshot.scheduler_state` and
        must round-trip through :meth:`setstate` exactly.
        """
        return None

    def setstate(self, state: Optional[Tuple]) -> None:
        """Restore a :meth:`getstate` value.

        ``None`` is always accepted as a no-op -- that is what legacy
        (``repro-checkpoint-v1``) snapshots carry, and a stateless scheduler
        has nothing to restore.  A stateless scheduler handed a non-``None``
        state fails loudly: the snapshot was taken under a different
        scheduler kind and resuming would silently diverge.
        """
        if state is not None:
            raise ValueError(
                f"{type(self).__name__} is stateless but the snapshot carries "
                f"scheduler state {state!r}; was the checkpoint taken under a "
                "different scheduler kind?"
            )


class FixedDelayScheduler(DelayScheduler):
    """Every message takes exactly ``delay_value`` time units."""

    def __init__(self, delay_value: float = 1.0) -> None:
        if delay_value <= 0:
            raise ValueError("delays must be positive")
        self._delay_value = delay_value

    def delay(self, sender: Node, receiver: Node, sequence_number: int) -> float:
        return self._delay_value


class RandomDelayScheduler(DelayScheduler):
    """Independent uniform delays in ``[min_delay, max_delay]``.

    The delays come from one private :class:`random.Random` stream, so the
    scheduler is *stateful*: checkpoint/resume needs the stream position,
    which :meth:`getstate` / :meth:`setstate` expose (the
    :class:`~repro.distributed.state.NetworkSnapshot` carries it).  It is
    still not channel-deterministic -- the delay a receiver gets depends on
    the order receivers are enumerated, which differs between the dict and
    id-interned cores, and can differ between a live simulator and one
    restored from a snapshot after churn -- so cross-*backend*
    differentials keep requiring the ``fixed``/``adversarial`` kinds, and a
    same-backend resume after churn is not exact under this one.
    """

    #: First element of every :meth:`getstate` value, so a state captured
    #: under one scheduler kind never restores silently into another.
    STATE_TAG = "uniform-rng"

    def __init__(self, seed: int = 0, min_delay: float = 0.1, max_delay: float = 1.0) -> None:
        if min_delay <= 0 or max_delay < min_delay:
            raise ValueError("need 0 < min_delay <= max_delay")
        self._rng = random.Random(seed)
        self._min_delay = min_delay
        self._max_delay = max_delay

    def delay(self, sender: Node, receiver: Node, sequence_number: int) -> float:
        return self._rng.uniform(self._min_delay, self._max_delay)

    def getstate(self) -> Tuple:
        return (self.STATE_TAG, self._rng.getstate())

    def setstate(self, state: Optional[Tuple]) -> None:
        if state is None:
            return  # legacy snapshot without scheduler state: keep the fresh stream
        tag, rng_state = state
        if tag != self.STATE_TAG:
            raise ValueError(
                f"scheduler state tagged {tag!r} cannot restore into a "
                f"{type(self).__name__} (expected {self.STATE_TAG!r})"
            )
        version, internal, gauss = rng_state
        # random.Random.setstate needs the exact nested tuple shape back
        # (JSON round-trips deliver lists).
        self._rng.setstate((int(version), tuple(int(word) for word in internal), gauss))


class AdversarialDelayScheduler(DelayScheduler):
    """Oblivious adversary: a fixed fraction of channels is slowed down a lot.

    The set of slow channels is a deterministic function of the channel
    endpoints and the scheduler seed (so it does not depend on the algorithm's
    randomness), which keeps the adversary oblivious as the model requires.

    Because the delay only depends on the channel -- never on the global
    message sequence -- this scheduler is *channel-deterministic*: two
    simulators replaying the same execution assign identical delays
    regardless of the order in which they enumerate receivers.  The protocol
    differential harness relies on this to compare the dict and fast
    asynchronous backends.  Each channel's parameters are drawn once and
    cached; re-deriving the seeded generator per message dominated the
    event-loop cost on large networks.
    """

    def __init__(
        self, seed: int = 0, slow_fraction: float = 0.3, slow_factor: float = 25.0
    ) -> None:
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError("slow_fraction must lie in [0, 1]")
        if slow_factor < 1.0:
            raise ValueError("slow_factor must be at least 1")
        self._seed = seed
        self._slow_fraction = slow_fraction
        self._slow_factor = slow_factor
        self._channel_delays: Dict[Tuple[Node, Node], float] = {}

    #: Cache entries survive node churn (labels never expire), so the cache is
    #: cleared wholesale past this size; values are recomputed identically.
    MAX_CACHED_CHANNELS = 1 << 16

    def delay(self, sender: Node, receiver: Node, sequence_number: int) -> float:
        channel = (sender, receiver)
        cached = self._channel_delays.get(channel)
        if cached is None:
            channel_rng = random.Random((self._seed, repr(sender), repr(receiver)).__repr__())
            cached = 0.5 + channel_rng.random()
            if channel_rng.random() < self._slow_fraction:
                cached *= self._slow_factor
            if len(self._channel_delays) >= self.MAX_CACHED_CHANNELS:
                self._channel_delays.clear()
            self._channel_delays[channel] = cached
        return cached


# ----------------------------------------------------------------------
# Scheduler registry (a thin wrapper over the shared repro.registry helper)
# ----------------------------------------------------------------------
def _check_scheduler_entry(name: str, entry: Any) -> None:
    if (
        not isinstance(entry, tuple)
        or len(entry) != 2
        or not callable(entry[0])
        or not isinstance(entry[1], tuple)
    ):
        raise TypeError(
            f"scheduler {name!r} needs a (class, parameter-names) tuple, got {entry!r}"
        )


_REGISTRY = Registry(
    "scheduler", error=UnknownSchedulerError, check_value=_check_scheduler_entry
)


def register_scheduler(
    kind: str, cls: type, params: Tuple[str, ...] = (), overwrite: bool = False
) -> None:
    """Register a scheduler kind for spec-style ``{"kind": ..., <params>}`` records.

    ``params`` names the keyword arguments the class constructor accepts;
    :func:`create_scheduler` rejects anything else with a did-you-mean hint.
    """
    _REGISTRY.register(kind, (cls, tuple(params)), overwrite=overwrite)


register_scheduler("fixed", FixedDelayScheduler, ("delay_value",))
register_scheduler("random", RandomDelayScheduler, ("seed", "min_delay", "max_delay"))
register_scheduler(
    "adversarial", AdversarialDelayScheduler, ("seed", "slow_fraction", "slow_factor")
)

#: Spec-nameable scheduler kinds and the keyword parameters each accepts --
#: a read-only *live* view of the registry (late :func:`register_scheduler`
#: calls show up here).  The stateful ``"random"`` kind snapshots its stream
#: position (:meth:`DelayScheduler.getstate`), but it hands its delays out
#: in neighbor order, which a restored simulator need not share with the
#: live one, so exact resume after churn needs a channel-deterministic kind.
SCHEDULER_KINDS: Mapping[str, Tuple[type, Tuple[str, ...]]] = _REGISTRY.view()

#: Kinds whose delay is a pure function of the channel (not of the global
#: message sequence); ``"adversarial"`` additionally draws distinct delays
#: per channel, which keeps simultaneous deliveries totally ordered.
CHANNEL_DETERMINISTIC_SCHEDULERS = ("fixed", "adversarial")

SCHEDULER_NAMES = tuple(SCHEDULER_KINDS)


def create_scheduler(kind: str, **params: Any) -> DelayScheduler:
    """Build a delay scheduler from a spec-style ``(kind, params)`` description.

    Unknown kinds raise :class:`UnknownSchedulerError` with a did-you-mean
    hint; unknown parameters raise :class:`ValueError` listing the kind's
    accepted names (with their own hint); out-of-range values raise the
    constructors' :class:`ValueError`.
    """
    try:
        cls, allowed = _REGISTRY.get(kind)
    except TypeError:
        # e.g. an unhashable kind from a malformed spec record
        raise UnknownSchedulerError(kind, _REGISTRY.names()) from None
    unknown = [name for name in params if name not in allowed]
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for scheduler {kind!r}; "
            f"accepted: {allowed}{did_you_mean(unknown[0], allowed)}"
        )
    return cls(**params)


def scheduler_from_record(record: Mapping[str, Any]) -> DelayScheduler:
    """Build a scheduler from a spec record ``{"kind": ..., <params>}``."""
    if not isinstance(record, Mapping) or "kind" not in record:
        raise ValueError(
            f"a scheduler record must be a mapping with a 'kind' key, got {record!r}"
        )
    params = {name: value for name, value in record.items() if name != "kind"}
    return create_scheduler(record["kind"], **params)
