"""Fault injection and the resilient fetch pipeline.

- :mod:`~repro.faults.model` — :class:`FaultProfile`/:class:`FaultModel`
  (seeded, hash-deterministic fault decisions) and
  :class:`FaultyWebSpace`, the injecting wrapper over the virtual web.
- :mod:`~repro.faults.resilience` — retry/backoff, per-host circuit
  breakers and capped requeue policies, plus the breaker state machine.

The clean path is sacred: with no fault model configured the simulator
never constructs any of this, and the golden-trace suite pins that the
resilience layer is a true no-op (byte-identical fetch orderings).
"""

from repro.faults.model import (
    RETRYABLE_FAULTS,
    FaultModel,
    FaultProfile,
    FaultyWebSpace,
    HostOutage,
)
from repro.faults.resilience import (
    BreakerPolicy,
    HostBreakers,
    ResilienceConfig,
    ResilienceStats,
    RetryPolicy,
)

__all__ = [
    "FaultProfile",
    "FaultModel",
    "FaultyWebSpace",
    "HostOutage",
    "RETRYABLE_FAULTS",
    "RetryPolicy",
    "BreakerPolicy",
    "ResilienceConfig",
    "ResilienceStats",
    "HostBreakers",
]
