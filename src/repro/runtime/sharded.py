"""Sharded multiprocess ingestion with merge-tree aggregation.

The paper's union operator (Algorithm 3) makes independently-built
DaVinci sketches mergeable, which is exactly the property that lets a
measurement pipeline scale out: split the key space across ``n`` worker
processes, build one sketch per shard, and fold the shards back into a
single queryable sketch.  This module owns that pipeline:

:class:`ShardRouter`
    Deterministic key-space partitioner.  Keys are first mapped through
    the same canonicalization the sketch itself applies (integers in the
    decodable domain pass through; everything else is fingerprinted), so
    routing and sketching always agree on key identity, then spread over
    shards with a multiplicative hash — adversarial key patterns (for
    example every key sharing a residue) cannot starve a shard.

:class:`ShardedIngestor`
    The process facade.  It routes incoming pairs into per-shard
    buffers, ships them to worker processes over bounded queues (a full
    queue blocks the producer — natural backpressure), and on
    :meth:`~ShardedIngestor.finalize` collects each worker's sketch as a
    digest-verified wire-format-v2 blob and folds the shards through
    :func:`repro.core.setops.union` in a binary merge tree.

Byte-identity contract
----------------------
Workers apply their shard's substream in ``chunk_items``-aligned chunks
counted from the start of the *shard's* stream (the same absolute
alignment :class:`~repro.runtime.ingestor.CheckpointingIngestor` uses),
so the finalized shard states — and therefore the merged result — are
byte-identical to a sequential
``insert_batch(partition, chunk_size=chunk_items)`` over each partition
followed by the same union fold.  Since the shards are key-disjoint by
construction, the union fold itself is associative up to ``to_state()``
bytes (see :mod:`repro.core.setops`), so the merge-tree shape does not
matter either.

Failure semantics
-----------------
Worker death is detected while feeding (blocked ``put``) and while
collecting states.  With ``durable_root`` set, every shard runs inside a
:class:`~repro.runtime.ingestor.CheckpointingIngestor`; the parent keeps
an in-memory replay buffer of dispatched batches and prunes it as
workers acknowledge their durable watermark (``items_ingested``), so a
killed worker can be respawned (up to ``max_restarts`` times per shard),
recover from its shard directory and have exactly the unacknowledged
tail re-sent — the journal's chunk alignment makes the recovered shard
byte-identical to an uninterrupted one.  Without ``durable_root`` there
is nothing to replay from and any worker death raises
:class:`~repro.common.errors.ShardFailureError` (fail-fast).  Shutdown
(:meth:`~ShardedIngestor.close`) is idempotent and safe to call at any
point, including after failures.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue_mod
import time
from itertools import repeat
from types import TracebackType
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as _np

from repro.common.errors import (
    ConfigurationError,
    ShardFailureError,
    ShardTimeoutError,
)
from repro.common.hashing import hash64, key_to_int
from repro.core import serialization, setops
from repro.core.config import DaVinciConfig
from repro.core.davinci import DEFAULT_BATCH_CHUNK, DaVinciSketch
from repro.core.kernel import resolve_kernel
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import ShardedMetrics
from repro.observability.metrics import MetricsRegistry
from repro.runtime.ingestor import CheckpointingIngestor

__all__ = ["ShardRouter", "ShardedIngestor", "merge_tree"]

#: decodable key domain of the sketch's infrequent part (keys in
#: ``[1, 2^32)`` are canonical already; see ``DaVinciSketch.canonical_key``)
_CANONICAL_DOMAIN = 1 << 32

#: fingerprint seed — must match ``DaVinciSketch.canonical_key``
_CANONICAL_SEED = 0x5EEDF00D

#: Fibonacci multiplicative mixing constant (golden-ratio / 2^64)
_MIX = 0x9E3779B97F4A7C15

_MASK64 = (1 << 64) - 1

#: seconds between liveness checks while blocked on a full queue
_POLL_SECONDS = 0.2

#: below this many keys the numpy array conversion costs more than the
#: scalar routing loop it replaces
_VECTOR_MIN_KEYS = 4096


def _vector_partition(
    keys: List[object], num_shards: int
) -> Optional[List[List[int]]]:
    """Partition a list of in-domain ints with numpy; ``None`` falls back.

    Only plain-integer inputs qualify: ``asarray`` doubles as the type
    sniff — a float, bool, string or mixed list converts to a
    non-integer dtype and is rejected rather than silently truncated —
    and any key outside the canonical domain needs the scalar
    fingerprint path.  The uint64 arithmetic wraps mod 2^64, exactly
    matching the scalar ``(key * _MIX) & _MASK64``, and the boolean
    masks preserve stream order within each shard, so the partition is
    bit-for-bit the one the scalar loop produces.
    """
    try:
        arr = _np.asarray(keys)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        return None
    if not bool(((arr >= 1) & (arr < _CANONICAL_DOMAIN)).all()):
        return None
    canonical = arr.astype(_np.uint64, copy=False)
    shards = (
        (canonical * _np.uint64(_MIX)) >> _np.uint64(32)
    ) % _np.uint64(num_shards)
    return [
        canonical[shards == index].tolist() for index in range(num_shards)
    ]


class ShardRouter:
    """Deterministic canonical-key-hash partitioner over ``num_shards``.

    The router mirrors :meth:`DaVinciSketch.canonical_key` — integer keys
    inside the decodable domain route as-is, anything else is
    fingerprinted first — so the shard that builds a key's counters is a
    pure function of the key's canonical identity, never of insertion
    order or process layout.  The canonical key is then mixed with a
    multiplicative hash before the modulo so that structured key sets
    (sequential IDs, keys sharing a residue class) still spread evenly.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = int(num_shards)

    def canonical_key(self, key: object) -> int:
        """The sketch-canonical integer identity of ``key``."""
        if (
            isinstance(key, int)
            and not isinstance(key, bool)
            and 1 <= key < _CANONICAL_DOMAIN
        ):
            return key
        return hash64(key_to_int(key), _CANONICAL_SEED) % (
            _CANONICAL_DOMAIN - 1
        ) + 1

    def shard_of(self, key: object) -> int:
        """Shard index in ``[0, num_shards)`` owning ``key``."""
        canonical = self.canonical_key(key)
        return (((canonical * _MIX) & _MASK64) >> 32) % self.num_shards

    def partition_pairs(
        self, pairs: Iterable[Tuple[object, int]]
    ) -> List[List[Tuple[int, int]]]:
        """Split ``(key, count)`` pairs into per-shard canonical substreams.

        Order within each shard follows the input order — the property
        the byte-identity contract relies on.
        """
        shards: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_shards)
        ]
        n = self.num_shards
        canonical_of = self.canonical_key
        for key, count in pairs:
            canonical = canonical_of(key)
            shards[(((canonical * _MIX) & _MASK64) >> 32) % n].append(
                (canonical, count)
            )
        return shards


def merge_tree(sketches: List[DaVinciSketch]) -> DaVinciSketch:
    """Fold sketches pairwise through :func:`setops.union` (binary tree).

    A single input is returned as-is (no union happened, so it keeps its
    own mode); two or more inputs produce an additive-mode union sketch.
    For key-disjoint inputs the tree shape is immaterial — the union is
    byte-associative — but the balanced tree keeps intermediate frequent
    parts small and the latency logarithmic in the shard count.
    """
    if not sketches:
        raise ConfigurationError("merge_tree needs at least one sketch")
    level = list(sketches)
    while len(level) > 1:
        merged: List[DaVinciSketch] = []
        for i in range(0, len(level) - 1, 2):
            merged.append(setops.union(level[i], level[i + 1]))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def _shard_worker(
    shard_id: int,
    config: DaVinciConfig,
    task_queue: "multiprocessing.queues.Queue[Any]",
    result_queue: "multiprocessing.queues.Queue[Any]",
    chunk_items: int,
    durable_dir: Optional[str],
    checkpoint_every_items: Optional[int],
    digest_algo: str,
    kernel: Optional[str] = None,
) -> None:
    """One shard's process body: apply batches, report the final state.

    Runs until a ``finalize`` or ``stop`` message arrives.  Batches are
    applied in ``chunk_items``-aligned chunks counted from the start of
    the shard substream — via :class:`CheckpointingIngestor` (which
    journals with the same alignment) when durable, via direct
    ``insert_batch`` buffering otherwise — so both paths produce
    byte-identical states for the same substream.
    """
    ingestor: Optional[CheckpointingIngestor] = None
    if durable_dir is not None:
        ingestor = CheckpointingIngestor(
            config,
            durable_dir,
            journal_chunk_items=chunk_items,
            checkpoint_every_items=checkpoint_every_items,
            kernel=kernel,
        )
        sketch = ingestor.sketch
        result_queue.put(("ready", shard_id, ingestor.items_ingested))
    else:
        sketch = DaVinciSketch(config, kernel=kernel)
        result_queue.put(("ready", shard_id, 0))
    pending_keys: List[int] = []
    pending_counts: Optional[List[int]] = None
    applied = 0

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "batch":
            keys, counts = message[1], message[2]
            if ingestor is not None:
                pairs = zip(keys, counts if counts is not None else repeat(1))
                ingestor.ingest(pairs)
                result_queue.put(("ack", shard_id, ingestor.items_ingested))
                continue
            # Non-durable: replicate the ingestor's absolute chunk
            # alignment with a plain buffer.
            if counts is not None and pending_counts is None:
                pending_counts = [1] * len(pending_keys)
            pending_keys.extend(keys)
            if pending_counts is not None:
                pending_counts.extend(
                    counts if counts is not None else repeat(1, len(keys))
                )
            while len(pending_keys) >= chunk_items:
                chunk_keys = pending_keys[:chunk_items]
                del pending_keys[:chunk_items]
                if pending_counts is not None:
                    chunk_counts: Iterable[int] = pending_counts[:chunk_items]
                    del pending_counts[:chunk_items]
                else:
                    chunk_counts = repeat(1, chunk_items)
                sketch.insert_batch(
                    zip(chunk_keys, chunk_counts), chunk_size=chunk_items
                )
                applied += chunk_items
        elif kind == "finalize":
            if ingestor is not None:
                ingestor.flush()
                ingestor.checkpoint()
                applied = ingestor.items_ingested
                ingestor.close()
            elif pending_keys:
                tail = len(pending_keys)
                tail_counts: Iterable[int] = (
                    pending_counts if pending_counts is not None
                    else repeat(1, tail)
                )
                sketch.insert_batch(
                    zip(pending_keys, tail_counts), chunk_size=chunk_items
                )
                applied += tail
            blob = serialization.to_wire(sketch, digest_algo)
            result_queue.put(("state", shard_id, bytes(blob), applied))
            return
        else:  # "stop" — abandon without reporting
            if ingestor is not None:
                # No flush: a partial tail record would break the
                # journal's chunk alignment for a later recovery.  The
                # buffered items were never acknowledged, so nothing is
                # silently lost — they are simply not durable.
                ingestor.close()
            return


class _ShardHandle:
    """Parent-side bookkeeping for one shard's worker process."""

    __slots__ = (
        "index",
        "process",
        "task_queue",
        "items_sent",
        "acked_items",
        "replay",
        "restarts",
        "finalized_sent",
        "state_blob",
        "items_reported",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.task_queue: Optional[Any] = None
        #: items dispatched to the worker so far (shard-stream positions)
        self.items_sent = 0
        #: durable watermark acknowledged by the worker
        self.acked_items = 0
        #: un-acknowledged batches as (start_position, keys, counts)
        self.replay: List[Tuple[int, List[int], Optional[List[int]]]] = []
        self.restarts = 0
        self.finalized_sent = False
        self.state_blob: Optional[bytes] = None
        self.items_reported = 0


class ShardedIngestor:
    """Multiprocess sharded ingestion facade over ``num_shards`` workers.

    Parameters
    ----------
    config:
        Shared sketch configuration; every shard (and the merged result)
        uses it, which is what makes the union fold well-defined.
    num_shards:
        Worker process count (>= 1).
    chunk_items:
        Per-shard ingestion chunk size — the batched fast path's
        aggregation window and, for durable shards, the journal record
        granularity.  Part of the byte-identity contract: the sequential
        reference fold must use the same value.  Larger chunks aggregate
        more duplicate keys per ``insert_batch`` call (higher
        throughput, coarser eviction schedule — the same trade-off
        documented for ``DaVinciSketch.insert_batch``).
    batch_items:
        Keys per queue message.  Purely an IPC knob (amortizes pickling
        and queue overhead); unlike ``chunk_items`` it never affects the
        result bytes.
    queue_depth:
        Bound of each worker's task queue, in messages.  A full queue
        blocks :meth:`ingest` — backpressure instead of unbounded
        buffering.
    durable_root:
        Directory under which each shard keeps a
        :class:`CheckpointingIngestor` directory (``shard-0000``, ...).
        Enables restart-and-replay on worker death.  ``None`` (default)
        runs shards in memory and fails fast on death.
    checkpoint_every_items:
        Checkpoint cadence forwarded to durable shards.
    max_restarts:
        Worker respawns allowed per shard after an unexpected death
        (durable shards only — without a checkpoint there is nothing to
        restart from).  Exhausting the budget raises
        :class:`ShardFailureError`.
    join_timeout:
        Seconds to wait, per phase, for workers to hand over their final
        states and exit during :meth:`finalize` before declaring the
        run failed.
    stall_timeout:
        Optional bound on how long a blocked :meth:`ingest` put will
        wait on a full queue whose worker is *alive but consuming
        nothing* (wedged, stopped, deadlocked).  When the queue shows
        zero drain for this many seconds,
        :class:`~repro.common.errors.ShardTimeoutError` is raised
        instead of blocking forever.  ``None`` (default) keeps the
        historical block-until-drain behavior.
    digest_algo:
        Digest for the per-shard wire blobs (verified by ``from_wire``
        on collection).
    mp_context:
        ``multiprocessing`` start-method name or context object.
        Defaults to ``"fork"`` where available (cheap worker start; the
        workers inherit the imported package) and the platform default
        elsewhere.
    metrics_registry:
        Optional private registry for the sharded-runtime telemetry;
        ``None`` uses the process-global default.  Collection only
        happens while :mod:`repro.observability.metrics` is enabled.
    """

    #: lazily-created metrics bundle (see repro.observability)
    _obs_metrics: Optional[ShardedMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        config: DaVinciConfig,
        num_shards: int = 4,
        *,
        chunk_items: int = DEFAULT_BATCH_CHUNK,
        batch_items: int = 1 << 16,
        queue_depth: int = 4,
        durable_root: Optional[Union[str, os.PathLike]] = None,
        checkpoint_every_items: Optional[int] = 262144,
        max_restarts: int = 1,
        join_timeout: float = 30.0,
        stall_timeout: Optional[float] = None,
        digest_algo: str = "sha256",
        mp_context: Optional[Union[str, Any]] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        kernel: Optional[str] = None,
    ) -> None:
        if chunk_items < 1:
            raise ConfigurationError("chunk_items must be >= 1")
        if batch_items < 1:
            raise ConfigurationError("batch_items must be >= 1")
        if queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if join_timeout <= 0:
            raise ConfigurationError("join_timeout must be positive")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ConfigurationError(
                "stall_timeout must be positive when set"
            )
        if digest_algo not in serialization.DIGEST_ALGOS:
            raise ConfigurationError(
                f"unknown digest algorithm {digest_algo!r}; expected one of "
                f"{serialization.DIGEST_ALGOS}"
            )
        self.config = config
        self.router = ShardRouter(num_shards)
        self.num_shards = self.router.num_shards
        self.chunk_items = int(chunk_items)
        self.batch_items = int(batch_items)
        self.queue_depth = int(queue_depth)
        self.durable_root = (
            os.fspath(durable_root) if durable_root is not None else None
        )
        self.checkpoint_every_items = checkpoint_every_items
        self.max_restarts = int(max_restarts)
        self.join_timeout = float(join_timeout)
        self.stall_timeout = (
            float(stall_timeout) if stall_timeout is not None else None
        )
        self.digest_algo = digest_algo
        #: execution kernel every shard worker builds its sketch with
        #: (validated here so a typo fails in the parent, not per worker)
        self.kernel = kernel if kernel is None else resolve_kernel(kernel)
        self._obs_registry = metrics_registry

        if isinstance(mp_context, str) or mp_context is None:
            method = mp_context
            if method is None:
                method = (
                    "fork"
                    if "fork" in multiprocessing.get_all_start_methods()
                    else None
                )
            self._ctx = multiprocessing.get_context(method)
        else:
            self._ctx = mp_context

        #: total pairs routed so far (all shards)
        self.items_routed = 0
        #: per-shard sketches rebuilt from the collected wire blobs
        #: (populated by :meth:`finalize`)
        self.shard_sketches: List[DaVinciSketch] = []
        self._merged: Optional[DaVinciSketch] = None
        self._closed = False
        self._failed: Optional[ShardFailureError] = None

        self._result_queue = self._ctx.Queue()
        self._shards = [_ShardHandle(i) for i in range(self.num_shards)]
        #: parent-side routing buffers: per-shard keys plus an optional
        #: parallel counts list (None while every count is 1)
        self._buffer_keys: List[List[int]] = [
            [] for _ in range(self.num_shards)
        ]
        self._buffer_counts: List[Optional[List[int]]] = [
            None for _ in range(self.num_shards)
        ]
        for handle in self._shards:
            self._spawn(handle)
        self._await_ready(set(range(self.num_shards)))
        for handle in self._shards:
            # A durable root with prior state recovers each shard to its
            # journaled watermark; stream positions continue from there.
            handle.items_sent = handle.acked_items

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> ShardedMetrics:
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.sharded_metrics(self._obs_registry)
            self._obs_metrics = bundle
        return bundle

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _shard_dir(self, index: int) -> Optional[str]:
        if self.durable_root is None:
            return None
        return os.path.join(self.durable_root, f"shard-{index:04d}")

    def _spawn(self, handle: _ShardHandle) -> None:
        # Always a fresh queue: after a death, messages stranded in the
        # old queue must not leak into the replacement worker (the replay
        # buffer re-sends everything past the durable watermark).
        self._release_queue(handle.task_queue)
        handle.task_queue = self._ctx.Queue(maxsize=self.queue_depth)
        handle.process = self._ctx.Process(
            target=_shard_worker,
            args=(
                handle.index,
                self.config,
                handle.task_queue,
                self._result_queue,
                self.chunk_items,
                self._shard_dir(handle.index),
                self.checkpoint_every_items,
                self.digest_algo,
                self.kernel,
            ),
            daemon=True,
        )
        handle.process.start()

    def _await_ready(self, pending: "set[int]") -> None:
        """Block until every shard in ``pending`` reported ``ready``."""
        deadline = time.monotonic() + self.join_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._abort()
                raise ShardFailureError(
                    f"shards {sorted(pending)} did not start within "
                    f"{self.join_timeout:.1f}s"
                )
            try:
                message = self._result_queue.get(
                    timeout=min(remaining, _POLL_SECONDS)
                )
            except _queue_mod.Empty:
                for index in list(pending):
                    process = self._shards[index].process
                    if process is not None and not process.is_alive():
                        self._abort()
                        raise ShardFailureError(
                            f"shard {index} worker died during startup "
                            f"(exitcode {process.exitcode})"
                        )
                continue
            if message[0] == "ready":
                index, watermark = message[1], message[2]
                self._shards[index].acked_items = watermark
                pending.discard(index)
            else:
                self._on_result(message)

    def _on_result(self, message: Tuple[Any, ...]) -> None:
        """Apply one out-of-band worker report (ack or final state)."""
        kind = message[0]
        if kind == "ack":
            handle = self._shards[message[1]]
            handle.acked_items = max(handle.acked_items, message[2])
            replay = handle.replay
            while replay and replay[0][0] + len(replay[0][1]) <= (
                handle.acked_items
            ):
                replay.pop(0)
        elif kind == "state":
            handle = self._shards[message[1]]
            handle.state_blob = message[2]
            handle.items_reported = message[3]

    def _drain_results(self) -> None:
        while True:
            try:
                message = self._result_queue.get_nowait()
            except _queue_mod.Empty:
                return
            self._on_result(message)

    def _handle_death(self, handle: _ShardHandle) -> None:
        """Respawn-and-replay a dead worker, or fail the run."""
        process = handle.process
        exitcode = process.exitcode if process is not None else None
        self._drain_results()
        durable = self.durable_root is not None
        if not durable or handle.restarts >= self.max_restarts:
            reason = (
                "no durable checkpoint to replay from"
                if not durable
                else f"restart budget ({self.max_restarts}) exhausted"
            )
            error = ShardFailureError(
                f"shard {handle.index} worker died (exitcode {exitcode}); "
                f"{reason}"
            )
            self._failed = error
            self._abort()
            raise error
        handle.restarts += 1
        if _obs.ENABLED:
            self._observe().worker_restarts.inc()
        self._spawn(handle)
        self._await_ready({handle.index})
        # The replacement recovered from the shard checkpoint directory;
        # its `ready` watermark tells us where its durable state ends.
        # Re-send every dispatched batch past that point, preserving the
        # original chunk alignment (watermarks are journal-record — i.e.
        # chunk — aligned, because workers only flush at finalize).
        watermark = handle.acked_items
        handle.replay = [
            entry
            for entry in handle.replay
            if entry[0] + len(entry[1]) > watermark
        ]
        resend = handle.replay
        handle.replay = []
        handle.items_sent = watermark
        for start, keys, counts in resend:
            if start < watermark:
                skip = watermark - start
                keys = keys[skip:]
                counts = counts[skip:] if counts is not None else None
                start = watermark
            self._send_batch(handle, keys, counts)
        if handle.finalized_sent:
            handle.finalized_sent = False
            self._send_control(handle, ("finalize",))

    def _send_batch(
        self,
        handle: _ShardHandle,
        keys: List[int],
        counts: Optional[List[int]],
    ) -> None:
        if self.durable_root is not None and self.max_restarts > 0:
            handle.replay.append((handle.items_sent, keys, counts))
        self._put(handle, ("batch", keys, counts))
        handle.items_sent += len(keys)
        if _obs.ENABLED:
            bundle = self._observe()
            bundle.shard_items.labels(str(handle.index)).inc(len(keys))
            task_queue = handle.task_queue
            if task_queue is not None:
                try:
                    depth = task_queue.qsize()
                except NotImplementedError:  # pragma: no cover - macOS
                    depth = -1
                bundle.queue_depth.labels(str(handle.index)).set(depth)

    def _send_control(
        self, handle: _ShardHandle, message: Tuple[Any, ...]
    ) -> None:
        self._put(handle, message)
        if message[0] == "finalize":
            handle.finalized_sent = True

    def _put(self, handle: _ShardHandle, message: Tuple[Any, ...]) -> None:
        """Blocking put with liveness checks (the backpressure point).

        A dead worker is detected by ``is_alive`` and respawned, but a
        worker that is alive yet consuming nothing (wedged in a
        syscall, stopped, deadlocked downstream) would otherwise block
        this put forever.  With ``stall_timeout`` set, a queue that
        stays full for that many seconds with zero drain raises
        :class:`~repro.common.errors.ShardTimeoutError` instead.
        """
        stalled_since: Optional[float] = None
        while True:
            process = handle.process
            task_queue = handle.task_queue
            if process is None or task_queue is None:
                raise ShardFailureError(
                    f"shard {handle.index} has no live worker"
                )
            try:
                task_queue.put(message, timeout=_POLL_SECONDS)
                return
            except _queue_mod.Full:
                self._drain_results()
                if not process.is_alive():
                    self._handle_death(handle)
                    # _handle_death respawned (or raised); the replay
                    # already re-sent everything including, for batches,
                    # this message's predecessors — retry this message
                    # against the new queue unless it was itself part of
                    # the replay.
                    if message[0] == "batch":
                        return
                    stalled_since = None
                elif self.stall_timeout is not None:
                    now = time.monotonic()
                    if stalled_since is None:
                        stalled_since = now
                    elif now - stalled_since >= self.stall_timeout:
                        raise ShardTimeoutError(
                            f"shard {handle.index} accepted no work for "
                            f"{self.stall_timeout:.1f}s (worker alive but "
                            "its queue never drained)"
                        )

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def _require_open(self) -> None:
        if self._failed is not None:
            raise self._failed
        if self._closed:
            raise ShardFailureError(
                "ShardedIngestor is closed; create a new one to ingest more"
            )

    def ingest_keys(self, keys: Iterable[object]) -> int:
        """Route single occurrences; returns the number of keys consumed."""
        self._require_open()
        n = self.num_shards
        # Flush any shard buffer carrying explicit counts from a prior
        # weighted ``ingest``: this method appends bare keys, and a
        # keys/counts length mismatch inside one dispatch window would
        # truncate the batch at the worker's zip.
        for shard in range(n):
            if self._buffer_counts[shard] is not None:
                self._dispatch(shard)
        if type(keys) is list and len(keys) >= _VECTOR_MIN_KEYS:
            parts = _vector_partition(keys, n)
            if parts is not None:
                return self._ingest_partitioned(parts)
        batch_items = self.batch_items
        buffers = self._buffer_keys
        router = self.router
        canonical_of = router.canonical_key
        domain = _CANONICAL_DOMAIN
        consumed = 0
        for key in keys:
            if (
                type(key) is int and 1 <= key < domain
            ):  # fast path mirror of canonical_key
                canonical = key
            else:
                canonical = canonical_of(key)
            shard = (((canonical * _MIX) & _MASK64) >> 32) % n
            bucket = buffers[shard]
            bucket.append(canonical)
            consumed += 1
            if len(bucket) >= batch_items:
                self._dispatch(shard)
        self.items_routed += consumed
        return consumed

    def _ingest_partitioned(self, parts: List[List[int]]) -> int:
        """Absorb pre-partitioned canonical keys (the vectorized path).

        A shard's whole slice lands as one buffer extension, so a single
        dispatched message may exceed ``batch_items`` here — the framing
        is a transport detail and never affects the applied chunking
        (workers re-chunk by ``chunk_items`` from the shard stream).
        """
        batch_items = self.batch_items
        buffers = self._buffer_keys
        consumed = 0
        for shard, part in enumerate(parts):
            if not part:
                continue
            consumed += len(part)
            bucket = buffers[shard]
            if bucket:
                bucket.extend(part)
            else:
                buffers[shard] = bucket = part
            if len(bucket) >= batch_items:
                self._dispatch(shard)
        self.items_routed += consumed
        return consumed

    def ingest(self, pairs: Iterable[Tuple[object, int]]) -> int:
        """Route weighted ``(key, count)`` pairs; returns pairs consumed."""
        self._require_open()
        n = self.num_shards
        batch_items = self.batch_items
        buffers = self._buffer_keys
        count_buffers = self._buffer_counts
        canonical_of = self.router.canonical_key
        domain = _CANONICAL_DOMAIN
        consumed = 0
        for key, count in pairs:
            if type(key) is int and 1 <= key < domain:
                canonical = key
            else:
                canonical = canonical_of(key)
            shard = (((canonical * _MIX) & _MASK64) >> 32) % n
            bucket = buffers[shard]
            bucket.append(canonical)
            counts = count_buffers[shard]
            if counts is not None:
                counts.append(count)
            elif count != 1:
                counts = [1] * (len(bucket) - 1)
                counts.append(count)
                count_buffers[shard] = counts
            consumed += 1
            if len(bucket) >= batch_items:
                self._dispatch(shard)
        self.items_routed += consumed
        return consumed

    def _dispatch(self, shard: int) -> None:
        keys = self._buffer_keys[shard]
        if not keys:
            return
        counts = self._buffer_counts[shard]
        self._buffer_keys[shard] = []
        self._buffer_counts[shard] = None
        self._drain_results()
        self._send_batch(self._shards[shard], keys, counts)

    # ------------------------------------------------------------------ #
    # finalize / merge
    # ------------------------------------------------------------------ #
    def finalize(self, timeout: Optional[float] = None) -> DaVinciSketch:
        """Flush, collect every shard's wire state, and merge.

        Returns the union-fold of the shard sketches (additive mode for
        two or more shards).  Idempotent: repeated calls return the same
        merged sketch.  ``timeout`` overrides ``join_timeout`` for the
        collection phase.
        """
        if self._merged is not None:
            return self._merged
        self._require_open()
        deadline_seconds = self.join_timeout if timeout is None else timeout
        for shard in range(self.num_shards):
            self._dispatch(shard)
        for handle in self._shards:
            if not handle.finalized_sent:
                self._send_control(handle, ("finalize",))
        self._collect_states(deadline_seconds)
        self._join_workers(deadline_seconds)

        blobs = [handle.state_blob for handle in self._shards]
        self.shard_sketches = [
            serialization.from_wire(blob)
            for blob in blobs
            if blob is not None
        ]
        observing = _obs.ENABLED
        started = time.perf_counter() if observing else 0.0
        merged = merge_tree(self.shard_sketches)
        if observing:
            self._observe().merge_seconds.observe(
                time.perf_counter() - started
            )
        self._merged = merged
        self.close()
        return merged

    def _collect_states(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            missing = [
                handle
                for handle in self._shards
                if handle.state_blob is None
            ]
            if not missing:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                error = ShardFailureError(
                    f"shards {[h.index for h in missing]} did not deliver "
                    f"their final state within {timeout:.1f}s"
                )
                self._failed = error
                self._abort()
                raise error
            try:
                message = self._result_queue.get(
                    timeout=min(remaining, _POLL_SECONDS)
                )
            except _queue_mod.Empty:
                for handle in missing:
                    process = handle.process
                    if process is not None and not process.is_alive():
                        # Death after finalize was requested: respawn,
                        # replay, re-finalize (durable), or fail fast.
                        self._handle_death(handle)
                        deadline = time.monotonic() + timeout
                continue
            self._on_result(message)

    def _join_workers(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for handle in self._shards:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    @staticmethod
    def _release_queue(task_queue: Optional[Any]) -> None:
        """Detach a producer-side queue without blocking interpreter exit.

        A ``multiprocessing.Queue`` flushes its buffer through a feeder
        thread that the interpreter joins at exit; a queue abandoned with
        unread data (dead worker, aborted run) would block that join
        forever.  ``cancel_join_thread`` forfeits the undelivered
        messages — which is the point: the replay buffer or the failure
        path already owns them.
        """
        if task_queue is None:
            return
        task_queue.cancel_join_thread()
        task_queue.close()

    def _abort(self) -> None:
        """Terminate every worker immediately (failure path)."""
        for handle in self._shards:
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            self._release_queue(handle.task_queue)
            handle.task_queue = None
        self._closed = True

    def close(self) -> None:
        """Stop workers and release queues (idempotent).

        Called automatically by :meth:`finalize`; calling it first
        abandons the run (durable shards keep their journaled progress
        on disk and can be recovered by a future run over the same
        ``durable_root``).
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._shards:
            process = handle.process
            task_queue = handle.task_queue
            if process is None or task_queue is None:
                continue
            if process.is_alive():
                try:
                    task_queue.put(("stop",), timeout=_POLL_SECONDS)
                except _queue_mod.Full:
                    process.terminate()
            process.join(timeout=self.join_timeout)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
            self._release_queue(task_queue)
            handle.task_queue = None

    def __enter__(self) -> "ShardedIngestor":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()
