"""Deterministic fault injectors.

Three failure families, one per durability layer:

* :class:`CrashInjector` — a ``crash_hook`` for
  :class:`~repro.runtime.ingestor.CheckpointingIngestor` that raises
  :class:`InjectedCrash` after the N-th durable step, letting tests
  sweep *every* crash point of an ingestion run deterministically;
* :func:`flip_bit` / :func:`truncate` — byte-level corruption of wire
  blobs for the integrity-layer tests (every such mutation must surface
  as :class:`~repro.common.errors.StateCorruptionError`);
* :func:`forced_peel_stall` — a context manager that makes a sketch's
  infrequent-part decode report an incomplete peel, driving the
  degradation policies (STRICT / DEGRADE / BEST_EFFORT) without having
  to overload a real sketch past its decode capacity.

Every injector also emits structured trace events into a
:class:`~repro.observability.tracing.TraceSink` (the process default, or
a private one passed as ``trace=``), so a failing fault-sweep test can
print exactly which fault fired where.  Unlike metric collection, trace
emission is *not* gated on the metrics enabled-flag: fault injection is
already a test-only, cold path, and the event trail is most valuable
precisely when nobody remembered to arm anything.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.common.errors import ConfigurationError, ReproError
from repro.core.davinci import DaVinciSketch
from repro.core.infrequent_part import DecodeResult
from repro.observability.tracing import TraceSink, get_default_trace_sink


class InjectedCrash(ReproError):
    """A simulated process crash raised by :class:`CrashInjector`.

    Subclasses :class:`~repro.common.errors.ReproError` so the linted
    exception taxonomy stays closed, but production code never catches
    it — like a real SIGKILL, it must propagate out of the ingestor.
    """


class CrashInjector:
    """Raise :class:`InjectedCrash` on the N-th durable-step callback.

    Pass as ``crash_hook`` to
    :class:`~repro.runtime.ingestor.CheckpointingIngestor`; the ingestor
    invokes it with a label after every durable step (``journal:record``,
    ``apply``, ``checkpoint:tmp``, ``checkpoint:replace``,
    ``journal:truncate``).  The injector counts invocations — optionally
    only those matching ``only_label`` — and raises on invocation number
    ``crash_after`` (1-based).  ``crash_after=0`` never crashes, which
    makes the same class usable as a pure step recorder for counting a
    run's total durable steps before sweeping them.
    """

    def __init__(
        self,
        crash_after: int,
        only_label: Optional[str] = None,
        trace: Optional[TraceSink] = None,
    ):
        self.crash_after = crash_after
        self.only_label = only_label
        self._trace = trace
        #: every label observed, in order (crash point included)
        self.labels: List[str] = []
        #: matching invocations so far
        self.ops = 0
        #: set once the injector has fired
        self.crashed = False

    def _sink(self) -> TraceSink:
        return self._trace if self._trace is not None else get_default_trace_sink()

    def __call__(self, label: str) -> None:
        self.labels.append(label)
        self._sink().emit("fault.step", label=label, step=len(self.labels))
        if self.only_label is not None and label != self.only_label:
            return
        self.ops += 1
        if self.crash_after > 0 and self.ops >= self.crash_after:
            self.crashed = True
            self._sink().emit(
                "fault.crash", label=label, op=self.ops, step=len(self.labels)
            )
            raise InjectedCrash(
                f"injected crash at durable step {self.ops} ({label})"
            )


def flip_bit(
    blob: bytes, bit_index: int, trace: Optional[TraceSink] = None
) -> bytes:
    """Return ``blob`` with one bit inverted (index over the whole blob)."""
    if not 0 <= bit_index < 8 * len(blob):
        raise ConfigurationError(
            f"bit {bit_index} outside a {len(blob)}-byte blob"
        )
    sink = trace if trace is not None else get_default_trace_sink()
    sink.emit("fault.flip_bit", bit=bit_index, size=len(blob))
    mutated = bytearray(blob)
    mutated[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(mutated)


def truncate(
    blob: bytes, length: int, trace: Optional[TraceSink] = None
) -> bytes:
    """Return the first ``length`` bytes of ``blob`` (a torn write)."""
    if not 0 <= length <= len(blob):
        raise ConfigurationError(
            f"cannot keep {length} bytes of a {len(blob)}-byte blob"
        )
    sink = trace if trace is not None else get_default_trace_sink()
    sink.emit("fault.truncate", kept=length, size=len(blob))
    return blob[:length]


@contextmanager
def forced_peel_stall(
    sketch: DaVinciSketch,
    *,
    keep_partial: int = 0,
    residual_buckets: int = 1,
    trace: Optional[TraceSink] = None,
) -> Iterator[DaVinciSketch]:
    """Force ``sketch`` to report an incomplete infrequent-part decode.

    Inside the ``with`` block the sketch's ``ifp.decode`` is replaced
    (on the instance) by a wrapper that runs the real peel, then keeps
    only the ``keep_partial`` smallest-key entries and reports
    ``complete=False`` with ``residual_buckets`` leftovers — exactly the
    shape of a genuine stall, without needing to overload a real
    structure.  The decode cache is invalidated on entry and exit so
    neither the stalled nor the real result leaks across the boundary.
    """
    ifp = sketch.ifp
    real_decode = ifp.decode
    sink = trace if trace is not None else get_default_trace_sink()

    def stalled_decode(*args: object, **kwargs: object) -> DecodeResult:
        result = real_decode(*args, **kwargs)
        kept = dict(sorted(result.counts.items())[:keep_partial])
        sink.emit(
            "fault.peel_stall.decode",
            kept=len(kept),
            dropped=len(result.counts) - len(kept),
            residual_buckets=max(1, residual_buckets),
        )
        return DecodeResult(
            counts=kept,
            complete=False,
            residual_buckets=max(1, residual_buckets),
        )

    sink.emit(
        "fault.peel_stall.enter",
        keep_partial=keep_partial,
        residual_buckets=residual_buckets,
    )
    sketch._invalidate_decode()
    ifp.decode = stalled_decode  # type: ignore[method-assign]
    try:
        yield sketch
    finally:
        del ifp.decode  # restore the class-level method
        sketch._invalidate_decode()
        sink.emit("fault.peel_stall.exit")
