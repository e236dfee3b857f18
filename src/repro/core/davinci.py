"""The DaVinci Sketch: one structure, nine set-measurement tasks.

:class:`DaVinciSketch` glues the three parts together:

* insertions go to the **frequent part** first (Algorithm 1); demoted
  elements fall into the **element filter**, and filter overflow beyond the
  threshold ``T`` lands in the **infrequent part** (Algorithm 2);
* frequency queries follow Algorithm 4, consulting the decoded infrequent
  part (Algorithm 5) with the element filter as cross-validation;
* the set operations (:func:`repro.core.setops.union` /
  :func:`~repro.core.setops.difference`) return new DaVinci sketches, and
  the remaining tasks (heavy hitters/changers, cardinality, distribution,
  entropy, inner join) live in :mod:`repro.core.tasks` and are exposed here
  as methods.

A sketch is in one of three *query modes*:

``standard``
    A sketch built by direct insertion.  Queries use Algorithm 4's
    branching, exploiting the invariant that the filter holds exactly the
    first ``T`` units of every promoted element.
``additive``
    The result of a union.  The per-element filter content is no longer
    capped at ``T`` (two inputs may each contribute up to ``T``), so the
    query simply sums the three parts — which is exact up to filter
    collision noise.
``signed``
    The result of a difference.  All parts carry signed deltas; queries sum
    the parts using the minimum-absolute-value filter read.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
    overload,
)

from repro.common import invariants as _inv
from repro.common.errors import (
    ConfigurationError,
    IncompatibleSketchError,
    SketchModeError,
)
from repro.core.config import DaVinciConfig
from repro.core.degrade import DegradationPolicy, DegradedResult, execute
from repro.core.element_filter import ElementFilter
from repro.core.frequent_part import FrequentPart
from repro.core.infrequent_part import DecodeResult, InfrequentPart
from repro.core.kernel import KERNEL_ARRAY, KERNEL_OBJECT, resolve_kernel
from repro.observability import instruments as _obs_instruments
from repro.observability import metrics as _obs
from repro.observability.instruments import DaVinciMetrics
from repro.observability.metrics import MetricsRegistry
from repro.sketches.base import Sketch

_T = TypeVar("_T")

MODE_STANDARD = "standard"
MODE_ADDITIVE = "additive"
MODE_SIGNED = "signed"

#: every mode a sketch can legally be in (serialization validates against it)
VALID_MODES = (MODE_STANDARD, MODE_ADDITIVE, MODE_SIGNED)

#: default number of pairs aggregated per :meth:`DaVinciSketch.insert_batch`
#: chunk.  The chunk size is the fidelity/throughput knob: aggregation
#: collapses a key's repeats within a chunk into one weighted insert, which
#: amortizes hashing but also means the frequent part sees one arrival (one
#: ``ecnt`` step, one eviction opportunity) where the per-item loop saw
#: many.  The resulting state is still *exactly* the weighted sequential
#: loop over the aggregates (the byte-identity contract), but it is not
#: the per-packet eviction schedule — accuracy experiments that reproduce
#: the paper's streaming figures drive :meth:`DaVinciSketch.insert`
#: per item instead (see ``repro.experiments.harness.fill``).  65536
#: maximizes throughput for bulk loads (the measured 2.5x+ over the
#: per-item loop); lower it toward 1 to converge on the per-item loop
#: exactly.
DEFAULT_BATCH_CHUNK = 1 << 16


class DaVinciSketch(Sketch):
    """The versatile sketch of the paper, ready for all nine tasks."""

    #: lazily-created metrics bundle (class-level default; see
    #: repro.observability — collection is free while disabled)
    _obs_metrics: Optional[DaVinciMetrics] = None
    #: injectable registry override (None → the process-global default)
    _obs_registry: Optional[MetricsRegistry] = None

    def __init__(
        self,
        config: DaVinciConfig,
        metrics_registry: Optional[MetricsRegistry] = None,
        kernel: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self._obs_registry = metrics_registry
        #: resolved execution kernel for bulk ingestion ("object" or
        #: "array"); ``None`` consults REPRO_KERNEL and defaults to the
        #: object kernel.  Both kernels are byte-identical, so the choice
        #: is never part of serialized state.
        self.kernel: str = resolve_kernel(kernel)
        self.fp = FrequentPart(
            buckets=config.fp_buckets,
            entries_per_bucket=config.fp_entries,
            lambda_evict=config.lambda_evict,
            seed=config.seed,
        )
        self.ef = ElementFilter(
            level_widths=config.ef_level_widths,
            level_bits=config.ef_level_bits,
            threshold=config.filter_threshold,
            seed=config.seed + 1,
        )
        self.ifp = InfrequentPart(
            rows=config.ifp_rows,
            width=config.ifp_width,
            prime=config.prime,
            seed=config.seed + 2,
        )
        if metrics_registry is not None:
            # Route the parts' lazy bundles to the same private registry.
            self.fp._obs_registry = metrics_registry
            self.ef._obs_registry = metrics_registry
            self.ifp._obs_registry = metrics_registry
        #: exact total of inserted counts (one 8-byte scalar; used by
        #: entropy and the distribution estimator)
        self.total_count: int = 0
        self.mode: str = MODE_STANDARD
        #: Algorithm 5's decode, memoized until the next write.  Private to
        #: this class: every write path goes through :meth:`_commit_inserts`,
        #: which drops it.
        self.__decode_memo: Optional[DecodeResult] = None

    # ------------------------------------------------------------------ #
    # observability (free while disabled)
    # ------------------------------------------------------------------ #
    def _observe(self) -> DaVinciMetrics:
        """The lazily-bound metrics bundle (armed paths only)."""
        bundle = self._obs_metrics
        if bundle is None:
            bundle = _obs_instruments.davinci_metrics(self._obs_registry)
            self._obs_metrics = bundle
        return bundle

    def _record_inserts(self, pairs: int, units: int) -> None:
        """Count accepted pairs/units (called only when armed)."""
        bundle = self._observe()
        bundle.inserts.inc(pairs)
        if units >= 0:
            bundle.items.inc(units)

    def _commit_inserts(self, pairs: int, units: int) -> None:
        """Account ``pairs`` accepted inserts of ``units`` total count.

        Every write path (per-item, object chunk, array chunk) commits
        here before touching the parts, so the decode memo cannot outlive
        a write.
        """
        self.insertions += pairs
        self.total_count += units
        self.__decode_memo = None
        if _obs.ENABLED:
            self._record_inserts(pairs, units)

    def _invalidate_decode(self) -> None:
        """Drop the decode memo so the next query re-peels the IFP."""
        self.__decode_memo = None

    def _timed_task(self, task: str, thunk: Callable[[], _T]) -> _T:
        """Run ``thunk`` under the per-task latency histogram when armed."""
        if not _obs.ENABLED:
            return thunk()
        start = perf_counter()
        try:
            return thunk()
        finally:
            self._observe().task_seconds.histogram_child(task).observe(
                perf_counter() - start
            )

    # ------------------------------------------------------------------ #
    # memory model
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> float:
        """Logical size under the paper's memory model."""
        return self.config.total_bytes()

    # ------------------------------------------------------------------ #
    # key canonicalization
    # ------------------------------------------------------------------ #
    def canonical_key(self, key: object) -> int:
        """Map any key into the sketch's decodable domain.

        Integer keys already in ``[1, 2^32)`` pass through unchanged.
        Anything else — strings, bytes, zero, negative or oversized ints —
        is deterministically fingerprinted into the domain, mirroring the
        paper's handling of variable-length keys ("we first hash the key
        into a fixed-length fingerprint").  Queries apply the same mapping,
        so callers never see the fingerprints.
        """
        from repro.common.hashing import hash64, key_to_int

        domain = self.ifp.max_key
        if isinstance(key, int) and not isinstance(key, bool) and 1 <= key < domain:
            return key
        return hash64(key_to_int(key), 0x5EEDF00D) % (domain - 1) + 1

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, key: object, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key`` (Algorithms 1 + 2).

        Only standard-mode sketches accept insertions: the element filter
        of a union/difference result no longer holds exactly the first
        ``T`` units of each promoted element, so writing into one would
        silently corrupt every later query.  The guard is unconditional
        (one string compare), not gated behind the debug sanitizer.
        """
        if self.mode != MODE_STANDARD:
            raise SketchModeError(
                "DaVinciSketch.insert: only standard-mode sketches accept "
                "insertions (merged/signed sketches are read-only)"
            )
        key = self.canonical_key(key)
        if _inv.ENABLED:
            _inv.check_counter_int(count, "DaVinciSketch.insert count")
        self._commit_inserts(1, count)

        outcome = self.fp.insert(key, count)
        self.memory_accesses += outcome.accesses
        if outcome.demoted is None:
            return
        demoted_key, demoted_count = outcome.demoted
        self._push_to_filter(demoted_key, demoted_count)

    def insert_all(
        self, keys: Iterable[object], chunk_size: int = DEFAULT_BATCH_CHUNK
    ) -> None:
        """Insert a stream of single occurrences via the batched fast path.

        Equivalent to inserting each chunk's per-key totals in first-seen
        order (see :meth:`insert_batch` for the exact contract); pass
        ``chunk_size=1`` to force the per-item path.
        """
        self.insert_batch(((key, 1) for key in keys), chunk_size=chunk_size)

    def insert_batch(
        self,
        pairs: Iterable[Tuple[object, int]],
        chunk_size: int = DEFAULT_BATCH_CHUNK,
    ) -> None:
        """Record many ``(key, count)`` pairs through the batched fast path.

        The stream is consumed in chunks of up to ``chunk_size`` pairs.
        Each chunk is pre-aggregated into per-key totals (first-seen key
        order), and the resulting state is **byte-identical** to calling
        ``insert(key, total)`` sequentially for those totals — eviction
        order, element-filter absorb arithmetic and decode-cache semantics
        included.  A batch therefore treats its pairs as simultaneous
        arrivals: a key occurring twice in one chunk enters the frequent
        part once with its summed count, exactly as a ``count=k`` insert
        does today.

        What the fast path amortizes over the sequential loop:

        * ``canonical_key`` fingerprints are memoized per chunk (string /
          bytes / out-of-domain keys hash once, not once per occurrence);
        * frequent-part updates are grouped per bucket with the bucket
          bookkeeping bound to locals (:meth:`FrequentPart.insert_batch`);
        * demoted elements flow through level-hoisted, position-memoized
          element-filter offers (:meth:`ElementFilter.offer_batch`) and
          batched infrequent-part encodes with shared hash/sign caches;
        * the decode memo is dropped once per chunk, not per item.
        """
        if self.mode != MODE_STANDARD:
            raise SketchModeError(
                "DaVinciSketch.insert_batch: only standard-mode sketches "
                "accept insertions (merged/signed sketches are read-only)"
            )
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        iterator = iter(pairs)
        if self.kernel == KERNEL_ARRAY:
            from repro.core.kernel import ArrayKernelEngine

            engine = ArrayKernelEngine(self)
            try:
                while True:
                    chunk = list(islice(iterator, chunk_size))
                    if not chunk:
                        break
                    engine.ingest_chunk(chunk)
            finally:
                engine.flush()
            return
        while True:
            chunk = list(islice(iterator, chunk_size))
            if not chunk:
                break
            self._insert_chunk(chunk)

    def _insert_chunk(self, chunk: List[Tuple[object, int]]) -> None:
        """Aggregate and ingest one chunk (the batched hot loop)."""
        domain = self.ifp.max_key
        canonical = self.canonical_key
        fingerprints: Dict[object, int] = {}
        aggregated: Dict[int, int] = {}
        chunk_total = 0
        for raw_key, count in chunk:
            if _inv.ENABLED:
                _inv.check_counter_int(count, "DaVinciSketch.insert_batch count")
            if (
                isinstance(raw_key, int)
                and not isinstance(raw_key, bool)
                and 1 <= raw_key < domain
            ):
                key = raw_key
            elif isinstance(raw_key, (int, str, bytes)) and not isinstance(
                raw_key, bool
            ):
                cached = fingerprints.get(raw_key)
                if cached is None:
                    cached = canonical(raw_key)
                    fingerprints[raw_key] = cached
                key = cached
            else:  # unhashable key types (e.g. bytearray): no memoization
                key = canonical(raw_key)
            aggregated[key] = aggregated.get(key, 0) + count
            chunk_total += count

        # ``insertions`` counts offered pairs (one per :meth:`insert` call
        # the per-item loop would have made), so throughput and AMA stay
        # comparable across ingestion paths; aggregation only changes the
        # number of structure touches, which ``memory_accesses`` reflects.
        self._commit_inserts(len(chunk), chunk_total)
        if _obs.ENABLED:
            self._observe().kernel_chunks.counter_child(KERNEL_OBJECT).inc()

        demoted, accesses = self.fp.insert_batch(list(aggregated.items()))
        self.memory_accesses += accesses
        if demoted:
            self._push_to_filter_batch(
                [(key, count) for _position, key, count in demoted]
            )

    def _push_to_filter(self, key: int, count: int) -> None:
        """Route a demoted element through the EF, overflow to the IFP."""
        self.memory_accesses += self.ef.num_levels
        overflow = self.ef.offer(key, count)
        if overflow > 0:
            self.memory_accesses += self.ifp.rows
            self.ifp.insert(key, overflow)

    def _push_to_filter_batch(
        self, demoted: List[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """Route demoted elements through the EF in arrival order, batched.

        Returns the ``(key, overflow)`` pairs that were promoted into the
        infrequent part (instrumented subclasses use this to decompose
        where insertions terminate).
        """
        self.memory_accesses += len(demoted) * self.ef.num_levels
        overflow = self.ef.offer_batch(demoted)
        if overflow:
            self.memory_accesses += len(overflow) * self.ifp.rows
            self.ifp.insert_batch(overflow)
        return overflow

    # ------------------------------------------------------------------ #
    # decoding (Algorithm 5, cached)
    # ------------------------------------------------------------------ #
    def decode_result(self) -> DecodeResult:
        """Decode the infrequent part (cached until the next insertion).

        In standard mode, decoding cross-validates each candidate against
        the element filter: a genuinely promoted element must read at least
        ``T`` in the filter (the paper's ``canDecode``).  Merged and signed
        sketches no longer satisfy that invariant, so they rely on the
        (stronger in our 61-bit field) residue-consistency check alone.
        """
        if self.__decode_memo is None:
            if _obs.ENABLED:
                self._observe().cache_misses.inc()
            validator: Optional[Callable[[int], bool]] = None
            if self.mode == MODE_STANDARD:
                threshold = self.ef.threshold
                validator = lambda e: self.ef.query(e) >= threshold  # noqa: E731
            self.__decode_memo = self.ifp.decode(validator)
        elif _obs.ENABLED:
            self._observe().cache_hits.inc()
        return self.__decode_memo

    def decode_counts(self) -> Dict[int, int]:
        """The decoded ``{key: infrequent-part count}`` map."""
        return self.decode_result().counts

    # ------------------------------------------------------------------ #
    # frequency query (Algorithm 4)
    # ------------------------------------------------------------------ #
    @overload
    def query(self, key: object) -> int: ...

    @overload
    def query(
        self, key: object, *, policy: DegradationPolicy
    ) -> DegradedResult[int]: ...

    def query(
        self, key: object, *, policy: Optional[DegradationPolicy] = None
    ) -> Union[int, DegradedResult[int]]:
        """Estimated (signed, for difference sketches) frequency of ``key``.

        With a :class:`~repro.core.degrade.DegradationPolicy`, the answer
        is wrapped in a :class:`~repro.core.degrade.DegradedResult` whose
        flag reports whether this sketch's decode had stalled (a stalled
        decode routes promoted keys through the noisier fast query).
        """
        if policy is not None:
            return execute(
                (self,),
                lambda: self._query_value(self.canonical_key(key)),
                policy,
                fallback=lambda: 0,
            )
        if _obs.ENABLED:
            start = perf_counter()
            value = self._query_value(self.canonical_key(key))
            self._observe().task_seconds.histogram_child("query").observe(
                perf_counter() - start
            )
            return value
        return self._query_value(self.canonical_key(key))

    def _query_value(self, key: int) -> int:
        if self.mode == MODE_SIGNED:
            return self._query_signed(key)
        if self.mode == MODE_ADDITIVE:
            return self._query_additive(key)
        return self._query_standard(key)

    def _query_standard(self, key: int) -> int:
        fp_count, present, flag = self.fp.lookup(key)
        if present and not flag:
            return fp_count
        base = fp_count  # 0 when absent (Algorithm 4, lines 5-8)

        decoded = self.decode_counts()
        if key in decoded:
            # Promoted and decoded: the filter holds exactly T of its mass.
            return base + decoded[key] + self.ef.threshold

        ef_estimate = self.ef.query(key)
        if ef_estimate >= self.ef.threshold:
            # Promoted but not decodable: fall back to the unbiased fast
            # query of the infrequent part (Algorithm 4, lines 16-20).
            return base + max(0, self.ifp.fast_query(key)) + self.ef.threshold
        return base + ef_estimate

    def _query_additive(self, key: int) -> int:
        fp_count, _, _ = self.fp.lookup(key)
        decoded = self.decode_counts()
        ifp_part = decoded.get(key)
        if ifp_part is None:
            ifp_part = 0
            if not self.decode_result().complete and self.ef.is_promoted(key):
                ifp_part = max(0, self.ifp.fast_query(key))
        return fp_count + self.ef.query(key) + ifp_part

    def _query_signed(self, key: int) -> int:
        # Signed parts simply add (see the class docstring).  No fast-query
        # fallback here: when the subtracted infrequent part fails to peel,
        # its Count-Sketch-style estimate is noise of the *absolute* counts
        # while difference deltas are small — adding it would swamp every
        # small delta.  Undecoded promoted keys lose their (bounded)
        # infrequent share instead.
        fp_count, _, _ = self.fp.lookup(key)
        ifp_part = self.decode_counts().get(key, 0)
        ef_part = self.ef.query_signed(key)
        return fp_count + ef_part + ifp_part

    # ------------------------------------------------------------------ #
    # task facade — implementations live in repro.core.tasks
    # ------------------------------------------------------------------ #
    @overload
    def heavy_hitters(self, threshold: int) -> Dict[int, int]: ...

    @overload
    def heavy_hitters(
        self, threshold: int, *, policy: DegradationPolicy
    ) -> DegradedResult[Dict[int, int]]: ...

    def heavy_hitters(
        self, threshold: int, *, policy: Optional[DegradationPolicy] = None
    ) -> Union[Dict[int, int], DegradedResult[Dict[int, int]]]:
        """Elements whose estimated |frequency| is at least ``threshold``."""
        from repro.core.tasks.heavy import heavy_hitters

        if policy is not None:
            return self._timed_task(
                "heavy_hitters",
                lambda: heavy_hitters(self, threshold, policy=policy),
            )
        return self._timed_task(
            "heavy_hitters", lambda: heavy_hitters(self, threshold)
        )

    def top_k(self, k: int) -> List[Tuple[int, int]]:
        """The ``k`` elements with the largest estimated |frequency|.

        The second heavy-hitter formulation of the paper's Table I
        (``{e_i | f_i ∈ Top k}``): candidates are the exactly-tracked keys,
        ranked by their full Algorithm-4 estimates.
        """
        if k <= 0:
            raise ConfigurationError("k must be positive")

        def run() -> List[Tuple[int, int]]:
            ranked = sorted(
                self.known_keys().items(), key=lambda kv: (-abs(kv[1]), kv[0])
            )
            return ranked[:k]

        return self._timed_task("top_k", run)

    def to_state(self) -> Dict:
        """Serialize to JSON-compatible state (see repro.core.serialization)."""
        from repro.core.serialization import to_state

        return to_state(self)

    @classmethod
    def from_state(
        cls, state: Dict, kernel: Optional[str] = None
    ) -> "DaVinciSketch":
        """Rebuild a sketch from :meth:`to_state` output.

        ``kernel`` selects the execution kernel of the rebuilt sketch
        independently of whichever kernel serialized the state — the two
        kernels are byte-identical, so states carry no kernel marker and
        any state loads into either kernel.
        """
        from repro.core.serialization import from_state

        return from_state(state, kernel=kernel)

    @overload
    def cardinality(self) -> float: ...

    @overload
    def cardinality(
        self, *, policy: DegradationPolicy
    ) -> DegradedResult[float]: ...

    def cardinality(
        self, *, policy: Optional[DegradationPolicy] = None
    ) -> Union[float, DegradedResult[float]]:
        """Estimated number of distinct elements."""
        from repro.core.tasks.cardinality import cardinality

        if policy is not None:
            return self._timed_task(
                "cardinality", lambda: cardinality(self, policy=policy)
            )
        return self._timed_task("cardinality", lambda: cardinality(self))

    @overload
    def distribution(
        self, max_size: Optional[int] = ..., em_level: int = ...
    ) -> Dict[int, float]: ...

    @overload
    def distribution(
        self,
        max_size: Optional[int] = ...,
        em_level: int = ...,
        *,
        policy: DegradationPolicy,
    ) -> DegradedResult[Dict[int, float]]: ...

    def distribution(
        self,
        max_size: Optional[int] = None,
        em_level: int = 0,
        *,
        policy: Optional[DegradationPolicy] = None,
    ) -> Union[Dict[int, float], DegradedResult[Dict[int, float]]]:
        """Estimated flow-size distribution ``{size: #elements}``."""
        from repro.core.tasks.distribution import distribution

        if policy is not None:
            return self._timed_task(
                "distribution",
                lambda: distribution(
                    self, max_size=max_size, em_level=em_level, policy=policy
                ),
            )
        return self._timed_task(
            "distribution",
            lambda: distribution(self, max_size=max_size, em_level=em_level),
        )

    @overload
    def entropy(self) -> float: ...

    @overload
    def entropy(self, *, policy: DegradationPolicy) -> DegradedResult[float]: ...

    def entropy(
        self, *, policy: Optional[DegradationPolicy] = None
    ) -> Union[float, DegradedResult[float]]:
        """Estimated (natural-log) entropy of the multiset."""
        from repro.core.tasks.entropy import entropy

        if policy is not None:
            return self._timed_task(
                "entropy", lambda: entropy(self, policy=policy)
            )
        return self._timed_task("entropy", lambda: entropy(self))

    @overload
    def inner_join(self, other: "DaVinciSketch") -> float: ...

    @overload
    def inner_join(
        self, other: "DaVinciSketch", *, policy: DegradationPolicy
    ) -> DegradedResult[float]: ...

    def inner_join(
        self,
        other: "DaVinciSketch",
        *,
        policy: Optional[DegradationPolicy] = None,
    ) -> Union[float, DegradedResult[float]]:
        """Estimated join size Σ_e f(e)·g(e) against ``other``."""
        from repro.core.tasks.innerjoin import inner_join

        if policy is not None:
            return self._timed_task(
                "inner_join", lambda: inner_join(self, other, policy=policy)
            )
        return self._timed_task(
            "inner_join", lambda: inner_join(self, other)
        )

    def second_moment(self) -> float:
        """Estimated second frequency moment F₂ = Σ_e f(e)².

        The self-join size (paper Table I's inner join with ``G = F``) —
        the classical AGMS quantity, free from the same structure.
        """
        from repro.core.tasks.innerjoin import inner_join

        return self._timed_task(
            "second_moment", lambda: inner_join(self, self)
        )

    @overload
    def union(self, other: "DaVinciSketch") -> "DaVinciSketch": ...

    @overload
    def union(
        self, other: "DaVinciSketch", *, policy: DegradationPolicy
    ) -> DegradedResult["DaVinciSketch"]: ...

    def union(
        self,
        other: "DaVinciSketch",
        *,
        policy: Optional[DegradationPolicy] = None,
    ) -> Union["DaVinciSketch", DegradedResult["DaVinciSketch"]]:
        """The union sketch (Algorithm 3)."""
        from repro.core.setops import union

        if policy is not None:
            return self._timed_task(
                "union", lambda: union(self, other, policy=policy)
            )
        return self._timed_task("union", lambda: union(self, other))

    @overload
    def difference(self, other: "DaVinciSketch") -> "DaVinciSketch": ...

    @overload
    def difference(
        self, other: "DaVinciSketch", *, policy: DegradationPolicy
    ) -> DegradedResult["DaVinciSketch"]: ...

    def difference(
        self,
        other: "DaVinciSketch",
        *,
        policy: Optional[DegradationPolicy] = None,
    ) -> Union["DaVinciSketch", DegradedResult["DaVinciSketch"]]:
        """The signed difference sketch (self − other)."""
        from repro.core.setops import difference

        if policy is not None:
            return self._timed_task(
                "difference", lambda: difference(self, other, policy=policy)
            )
        return self._timed_task(
            "difference", lambda: difference(self, other)
        )

    # ------------------------------------------------------------------ #
    # plumbing for the set operations
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "DaVinciSketch") -> None:
        """Raise unless ``other`` was built from the identical config."""
        if self.config != other.config:
            raise IncompatibleSketchError(
                "DaVinci sketches must share an identical DaVinciConfig "
                "(shape, threshold, prime and seed) to be combined"
            )

    def empty_like(self) -> "DaVinciSketch":
        """A fresh sketch with the same config (for set-op results)."""
        return DaVinciSketch(self.config, kernel=self.kernel)

    def known_keys(self) -> Dict[int, int]:
        """Exactly-tracked keys: FP residents plus decoded IFP elements.

        Values are full frequency estimates via :meth:`query`.  Used by the
        heavy-hitter scan and the inner-join decomposition.
        """
        keys = set(self.fp.as_dict())
        keys.update(self.decode_counts())
        return {key: self.query(key) for key in keys}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DaVinciSketch(mode={self.mode}, "
            f"memory={self.memory_bytes() / 1024:.1f}KB, "
            f"fp={len(self.fp)}/{self.fp.capacity}, "
            f"total={self.total_count})"
        )
