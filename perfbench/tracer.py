"""Per-layer attribution by timing calls into each ``repro`` module.

The package itself records no spans, so the traced run wraps the public
functions of each layer from here: :meth:`Tracer.install` swaps a timing
wrapper in for each target attribute and :meth:`Tracer.uninstall`
restores the originals.  Every call becomes a span ``(id, parent, name,
start, end)``; a span's parent is the innermost span open when it began,
so a layer's *self* time is its span minus the spans nested inside it.

Only calls made in this process are seen.  Shard workers are forked
before the wrappers go in, and the aggregation server is a separate
interpreter, so worker-side and server-side layers appear only as the
waiting they cause in ``runtime.sharded.*`` and
``service.client.server_wait``.
"""

from __future__ import annotations

import importlib
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.harness import clock

#: (span id, parent id or 0, layer name, start, end)
Span = Tuple[int, int, str, float, float]

#: called after a traced call returns: (tracer, args, result)
OnResult = Callable[["Tracer", Tuple[Any, ...], Any], None]


class Tracer:
    """In-memory span and counter recorder for one traced epoch at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._open_names: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._targets: List[Tuple[Any, str, str, Optional[OnResult]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- #
    # recording
    # ---------------------------------------------------------------- #
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def current(self) -> Optional[str]:
        """Name of the innermost open span (None outside any span)."""
        if not self._stack:
            return None
        return self._open_names[self._stack[-1]]

    def _wrap(
        self, name: str, fn: Callable[..., Any], on_result: Optional[OnResult]
    ) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        counts = self.counts
        calls = f"{name}.calls"
        ids = self._ids
        open_names = self._open_names

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            open_names[span_id] = name
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                del open_names[span_id]
                spans.append((span_id, parent, name, started, ended))
            counts[calls] = counts.get(calls, 0.0) + 1.0
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ---------------------------------------------------------------- #
    # patching
    # ---------------------------------------------------------------- #
    def target(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[OnResult] = None,
    ) -> None:
        """Register ``owner.attr`` to be timed as layer ``name``."""
        self._targets.append((owner, attr, name, on_result))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, on_result in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, on_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with spans still open")
        self.spans.clear()
        self.counts.clear()

    # ---------------------------------------------------------------- #
    # analysis
    # ---------------------------------------------------------------- #
    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the durations of its direct children."""
        child_time: Dict[int, float] = {}
        for _span_id, parent, _name, started, ended in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    ended - started
                )
        return {
            span_id: (ended - started) - child_time.get(span_id, 0.0)
            for span_id, _parent, _name, started, ended in self.spans
        }

    def self_seconds_by_name(self) -> Dict[str, float]:
        """Layer name → summed self time of its spans."""
        own = self.self_times()
        totals: Dict[str, float] = {}
        for span_id, _parent, name, _started, _ended in self.spans:
            totals[name] = totals.get(name, 0.0) + own[span_id]
        return totals


# --------------------------------------------------------------------- #
# the layers of the package and what each counts
# --------------------------------------------------------------------- #
def _count_insert_items(tracer: Tracer, args: Tuple[Any, ...], _r: Any) -> None:
    pairs = args[1]
    tracer.count("core.davinci.insert_batch.items", len(pairs))


def _count_object_chunk(tracer: Tracer, _a: Tuple[Any, ...], _r: Any) -> None:
    # an object-path chunk inside the array engine is a chunk it gave back
    if tracer.current() == "core.kernel.ingest_chunk":
        tracer.count("core.kernel.fallback_chunks")


def _count_decode(tracer: Tracer, _a: Tuple[Any, ...], result: Any) -> None:
    tracer.count("core.infrequent_part.decodes")
    tracer.count("core.infrequent_part.complete_decodes", float(result.complete))
    tracer.count("core.infrequent_part.decoded_keys_total", len(result.counts))


def _count_wire(tracer: Tracer, _a: Tuple[Any, ...], blob: Any) -> None:
    tracer.count("core.serialization.wire_bytes_total", len(blob))


def _count_sharded_ingest(tracer: Tracer, _a: Tuple[Any, ...], n: Any) -> None:
    tracer.count("runtime.sharded.ingest.items", n)


def package_tracer() -> Tracer:
    """A tracer targeting the public functions of every measured layer."""
    from repro.core import serialization, setops
    from repro.core.davinci import DaVinciSketch
    from repro.core.element_filter import ElementFilter
    from repro.core.frequent_part import FrequentPart
    from repro.core.infrequent_part import InfrequentPart
    from repro.core.kernel import ArrayKernelEngine
    # the task package re-exports functions under its submodules' names,
    # so the modules themselves come from the import system
    cardinality, distribution, entropy, heavy, innerjoin = (
        importlib.import_module(f"repro.core.tasks.{name}")
        for name in ("cardinality", "distribution", "entropy", "heavy", "innerjoin")
    )
    from repro.runtime import sharded
    from repro.service import protocol
    from repro.service.client import AggregationClient
    from repro.workloads import zipf

    tracer = Tracer()
    t = tracer.target
    t(zipf, "zipf_trace", "workloads.zipf_trace")
    t(DaVinciSketch, "insert_batch", "core.davinci.insert_batch",
      _count_insert_items)
    t(DaVinciSketch, "query", "core.davinci.query")
    # the object chunk loop is davinci's own batch code; wrapping it also
    # tells which array-engine chunks fell back to it
    t(DaVinciSketch, "_insert_chunk", "core.davinci.insert_batch",
      _count_object_chunk)
    t(ArrayKernelEngine, "ingest_chunk", "core.kernel.ingest_chunk")
    t(FrequentPart, "insert_batch", "core.frequent_part.insert_batch")
    t(ElementFilter, "offer_batch", "core.element_filter.offer_batch")
    t(InfrequentPart, "insert_batch", "core.infrequent_part.insert_batch")
    t(InfrequentPart, "decode", "core.infrequent_part.decode", _count_decode)
    t(cardinality, "cardinality", "core.tasks.cardinality")
    t(distribution, "distribution", "core.tasks.distribution")
    t(entropy, "entropy", "core.tasks.entropy")
    t(heavy, "heavy_hitters", "core.tasks.heavy_hitters")
    t(heavy, "heavy_changers", "core.tasks.heavy_changers")
    t(innerjoin, "inner_join", "core.tasks.inner_join")
    t(setops, "union", "core.setops.union")
    t(setops, "difference", "core.setops.difference")
    t(serialization, "to_wire", "core.serialization.to_wire", _count_wire)
    t(serialization, "from_wire", "core.serialization.from_wire")
    t(sharded.ShardedIngestor, "ingest", "runtime.sharded.ingest",
      _count_sharded_ingest)
    # ShardedIngestor.ingest routes inline today, so this reads 0 until
    # the ingest path calls the router's batch partitioner
    t(sharded.ShardRouter, "partition_pairs", "runtime.sharded.partition_pairs")
    t(sharded.ShardedIngestor, "finalize", "runtime.sharded.finalize")
    t(sharded, "merge_tree", "runtime.sharded.merge_tree")
    t(protocol, "encode_message", "service.protocol.encode_message")
    t(protocol, "decode_payload", "service.protocol.decode_payload")
    t(protocol, "recv_message", "service.client.server_wait")
    t(AggregationClient, "push", "service.client.push")
    t(AggregationClient, "query", "service.client.query")
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def epoch_layer_values(tracer: Tracer) -> Dict[str, float]:
    """One traced epoch's per-layer values, named as in BENCHMARK.json.

    ``.s`` names are summed self seconds; the rest are counts or ratios
    of the epoch.  Layers the epoch never entered read 0.
    """
    selfs = tracer.self_seconds_by_name()
    counts = tracer.counts
    values = {f"{name}.s": seconds for name, seconds in selfs.items()}
    chunks = counts.get("core.kernel.ingest_chunk.calls", 0.0)
    decodes = counts.get("core.infrequent_part.decodes", 0.0)
    wire_calls = counts.get("core.serialization.to_wire.calls", 0.0)
    values.update(
        {
            "core.davinci.insert_batch.items": counts.get(
                "core.davinci.insert_batch.items", 0.0
            ),
            "core.davinci.query.calls": counts.get("core.davinci.query.calls", 0.0),
            "core.kernel.chunks": chunks,
            "core.kernel.vectorized_share": _ratio(
                chunks - counts.get("core.kernel.fallback_chunks", 0.0), chunks
            ),
            "core.infrequent_part.decode_complete_ratio": _ratio(
                counts.get("core.infrequent_part.complete_decodes", 0.0), decodes
            ),
            "core.infrequent_part.decoded_keys": _ratio(
                counts.get("core.infrequent_part.decoded_keys_total", 0.0), decodes
            ),
            "core.serialization.wire_bytes": _ratio(
                counts.get("core.serialization.wire_bytes_total", 0.0), wire_calls
            ),
            "runtime.sharded.ingest.items": counts.get(
                "runtime.sharded.ingest.items", 0.0
            ),
            "runtime.sharded.shard_skew": counts.get(
                "runtime.sharded.shard_skew", 0.0
            ),
            "service.client.push.calls": counts.get("service.client.push.calls", 0.0),
            "service.client.query.calls": counts.get(
                "service.client.query.calls", 0.0
            ),
            "service.client.retries": counts.get("service.client.retries", 0.0),
        }
    )
    return values
