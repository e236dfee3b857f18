"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything originating here with a single ``except`` clause while still
being able to distinguish configuration mistakes from runtime decode issues.
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """A sketch or workload was configured with invalid parameters.

    Raised eagerly at construction time: a zero-width array, a non-prime
    field modulus, a memory budget too small to host the requested shape,
    and similar mistakes all surface here rather than as corrupt results.
    """


class DecodeError(ReproError, RuntimeError):
    """An invertible sketch could not be (fully) decoded.

    Carries the partially decoded content so callers that can tolerate
    partial results (e.g. the frequency-distribution estimator) may still
    use it.

    Attributes
    ----------
    partial:
        The elements recovered before the peel stalled, as
        ``{element ID: signed count}`` — element IDs are canonical integer
        keys in the sketch's decodable domain, counts are the signed
        per-element totals (negative entries are possible for difference
        sketches).  Always a ``dict``: callers may iterate it without a
        ``None`` check; an empty dict means nothing was recoverable.
        Stored as a **defensive copy** of the caller's mapping, so later
        peeling or mutation of the source dict can never retroactively
        change an already-raised error's payload.
    """

    def __init__(
        self, message: str, partial: Optional[Dict[int, int]] = None
    ) -> None:
        super().__init__(message)
        self.partial: Dict[int, int] = dict(partial) if partial is not None else {}


class InvariantViolation(ReproError, AssertionError):
    """A debug-mode structural invariant failed inside a sketch.

    Only raised when the opt-in sanitizer is active (set
    ``REPRO_DEBUG_INVARIANTS=1`` — see :mod:`repro.common.invariants`).
    Production runs never pay for, nor see, these checks.  Deriving from
    :class:`AssertionError` keeps the semantics of the asserts these checks
    replace, while the :class:`ReproError` base keeps the package's
    single-catch contract.
    """


class IncompatibleSketchError(ReproError, ValueError):
    """Two sketches with different shapes/seeds were combined.

    Mergeable sketches (union, difference, heavy-changer subtraction)
    require identical geometry and hash seeds; anything else would produce
    silently meaningless counters, so we refuse loudly.
    """


class StateCorruptionError(ConfigurationError):
    """A serialized sketch state failed an integrity check.

    Raised by :func:`repro.core.serialization.from_state` (and the
    byte-level :func:`~repro.core.serialization.from_wire`) when a state
    blob is *corrupted* — embedded digest mismatch, undecodable bytes,
    a version-2 payload missing its mandatory digest, or deep-validation
    failures (counters outside their level's bit range, field residues
    outside ``[0, p)``, and the like).  Distinct from the *malformed*
    (wrong structure → :class:`ConfigurationError`) and *incompatible*
    (unknown version → :class:`ConfigurationError`) cases so collectors
    can quarantine bad uploads instead of retrying them.

    Subclasses :class:`ConfigurationError` so the long-standing
    ``except ConfigurationError`` contract around ``from_state`` keeps
    catching every rejected payload.
    """


class ObservabilityError(ReproError, ValueError):
    """The metrics registry was used inconsistently.

    Raised by :mod:`repro.observability` when a metric name is re-registered
    with a different kind or label set, when a counter is decremented, or
    when a histogram is declared with non-monotonic bucket bounds.  These
    are programming errors at instrumentation sites, never data-dependent —
    the registry is deliberately strict so a typo'd metric name cannot fork
    a family silently.
    """


class CheckpointError(ReproError, RuntimeError):
    """Durable ingestion could not checkpoint, journal, or recover.

    Raised by :mod:`repro.runtime` when a checkpoint directory is in a
    state that cannot be safely recovered from: a corrupted (non-tail)
    journal record, a checkpoint file whose embedded CRC does not match,
    or inconsistent sequence numbers between checkpoint and journal.
    A *torn tail* — the final journal record cut short by a crash — is
    **not** an error; recovery discards it by design.
    """


class ShardFailureError(ReproError, RuntimeError):
    """A sharded-ingestion worker died and the run cannot continue.

    Raised by :class:`repro.runtime.sharded.ShardedIngestor` when a worker
    process exits unexpectedly and no recovery path exists: the shard was
    not durable (nothing to replay from), the configured restart budget is
    exhausted, or a worker failed to deliver its final state within the
    join timeout.  Durable shards with restarts remaining are respawned
    and replayed transparently instead of raising.
    """


class ShardTimeoutError(ShardFailureError):
    """A shard worker is alive but stopped draining its task queue.

    Raised by :meth:`repro.runtime.sharded.ShardedIngestor` backpressure
    (the blocking ``put``) when ``stall_timeout`` is configured and the
    worker's queue showed zero drain for that long while the producer was
    blocked on a full queue.  Distinct from a *dead* worker — the process
    is still running (wedged on a lock, swapped out, SIGSTOPped) — so the
    respawn-and-replay path does not apply; the producer surfaces the
    stall instead of spinning forever.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class for the remote-aggregation service layer.

    Every failure the :mod:`repro.service` client/server stack can
    produce derives from this class, with :attr:`retryable` telling the
    retry machinery whether a fresh attempt of the *same idempotent
    request* can possibly succeed (transient transport/overload faults)
    or is pointless (malformed request, corrupt payload, budget gone).
    """

    #: may a retry of the same idempotent request succeed?
    retryable: bool = False


class TransportError(ServiceError):
    """The byte stream failed underneath the request/response protocol.

    Connection refused/reset, unexpected EOF mid-frame, an oversized or
    CRC-mismatched frame — anything that breaks the framing before a
    well-formed response arrived.  Retryable: the request may never have
    reached the server (and idempotent requests are safe to resend even
    if it did).
    """

    retryable = True


class DeadlineExceededError(ServiceError):
    """The caller's deadline budget ran out before a response arrived.

    Carries the transient error of the final attempt (if any) as
    :attr:`last_error`.  Not retryable — the budget is an end-to-end
    contract, and it is spent.
    """

    def __init__(
        self, message: str, last_error: Optional[BaseException] = None
    ) -> None:
        super().__init__(message)
        self.last_error = last_error


class ResourceExhaustedError(ServiceError):
    """The server shed this request at admission (bounded in-flight).

    The explicit alternative to queueing unboundedly: the server is
    alive but at capacity.  Retryable after backoff.
    """

    retryable = True


class CircuitOpenError(ServiceError):
    """The per-endpoint circuit breaker refused the call locally.

    No bytes were sent: the endpoint's recent failure rate tripped the
    breaker and the cool-down has not elapsed (or the half-open probe
    budget is spent).  Not retryable *within* the failing call — the
    point of the breaker is to stop hammering; a later call may find the
    breaker half-open and probe.
    """


class RetryExhaustedError(ServiceError):
    """Every allowed attempt failed with a retryable error.

    Carries the final attempt's error as :attr:`last_error` and the
    attempt count as :attr:`attempts`.
    """

    def __init__(
        self,
        message: str,
        last_error: Optional[BaseException] = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


class RemoteError(ServiceError):
    """The server answered with a non-OK, non-transient status.

    A *well-formed* refusal — unknown aggregate, malformed request,
    corrupt pushed state, a STRICT-policy decode failure — transported
    back as :attr:`status` plus the server's message.  Not retryable:
    resending the same request yields the same refusal.
    """

    def __init__(self, status: str, message: str) -> None:
        super().__init__(f"{status}: {message}")
        self.status = status


class UnverifiedStateWarning(UserWarning):
    """A version-1 sketch state was loaded without integrity protection.

    Version-1 states predate the embedded digest; they still load for
    backward compatibility, but corruption in them is undetectable.
    Emitted (never raised) by :func:`repro.core.serialization.from_state`
    so operators can find and re-serialize legacy blobs.
    """


class SketchModeError(ReproError, RuntimeError):
    """A write was attempted against a sketch whose query mode forbids it.

    Union results (``additive`` mode) and difference results (``signed``
    mode) are read-only: their element filters no longer satisfy the
    first-``T`` retention invariant that :meth:`DaVinciSketch.insert`
    relies on, so inserting into them would silently corrupt every later
    query.  The guard is unconditional — one string compare on the hot
    path — unlike the opt-in debug sanitizer.
    """
