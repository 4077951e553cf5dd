"""Backpressure policies: what happens when a producer outruns a consumer.

A shard admits tuples against a bound on the tuples in flight to its
worker (:class:`~repro.runtime.shard.Shard`); controls are never bounded
and never dropped.  The runtime implements three policies:

``"block"``
    The producer waits until the worker has finished enough work —
    lossless, and the natural choice when replaying recordings at full
    speed.
``"drop_newest"``
    The *offered* tuples are discarded (and counted) when they do not
    fit; work already admitted keeps its service guarantee.
``"error"``
    :class:`~repro.errors.BackpressureError` is raised to the producer —
    for callers that implement their own flow control.

``"drop_oldest"`` (evict queued tuples so the freshest data wins) is an
edge policy only: admitted work cannot be recalled from a worker, so the
gateway applies it in front of the session (``TenantConfig.policy``).
"""

from __future__ import annotations

__all__ = ["BackpressurePolicy"]


class BackpressurePolicy:
    """The backpressure policy names."""

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    DROP_NEWEST = "drop_newest"
    ERROR = "error"

    #: Every policy, including the gateway's edge-only ``drop_oldest``.
    ALL = (BLOCK, DROP_OLDEST, DROP_NEWEST, ERROR)
    #: The policies a shard's admission implements.
    SHARD = (BLOCK, DROP_NEWEST, ERROR)

    @classmethod
    def validate(cls, policy: str) -> str:
        if policy not in cls.ALL:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; expected one of {cls.ALL}"
            )
        return policy

    @classmethod
    def validate_shard(cls, policy: str) -> str:
        """Check a runtime ``backpressure`` setting (one of :attr:`SHARD`)."""
        if policy == cls.DROP_OLDEST:
            raise ValueError(
                "backpressure='drop_oldest' cannot be a shard policy: admitted "
                "work cannot be recalled from a worker. Set "
                "TenantConfig.policy='drop_oldest' to drop at the gateway's edge, "
                "or use 'drop_newest'"
            )
        if policy not in cls.SHARD:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; expected one of {cls.SHARD}"
            )
        return policy
