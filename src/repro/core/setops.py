"""Set operations between DaVinci sketches (paper Algorithm 3).

Both operations require the two inputs to share an identical
:class:`~repro.core.config.DaVinciConfig` (same shapes, threshold, prime and
hash seeds) — the element filter and infrequent part are combined
counter-wise, which is only meaningful for identically-hashed structures.

**Union.**  Per FP bucket, entries of both inputs are merged by key (counts
summed); the top-``c`` merged entries stay in the result's frequent part and
the leftovers are demoted with a *state-independent* split: ``min(count, T)``
goes to the element filter and the remainder is encoded directly into the
infrequent part.  The element filter is a saturating counter-wise sum and
the infrequent part a field sum.  Because every component of this recipe —
the per-bucket top-``c`` over key-disjoint inputs, the summed ``ecnt``, the
OR-plus-eviction ``flag``, the saturating filter sum and the field-linear
encode — is independent of how inputs are grouped, folding key-disjoint
sketches (e.g. shards produced by
:class:`~repro.runtime.sharded.ShardRouter`) is associative up to
``to_state()`` bytes: a left fold and a balanced merge tree yield the same
sketch.  The result uses the *additive* query mode: after a merge an
element may hold up to ``2T`` in the filter, so Algorithm 4's ``+T``
shortcut no longer applies and summing the three parts is the faithful
query.

**Difference.**  All three parts subtract, producing signed content.  Per
FP bucket the merged signed deltas are ranked by magnitude; the top-``c``
stay and leftovers are encoded directly into the (signed-capable)
infrequent part — the filter's threshold pipeline is meaningless for
negative counts.  Elements with equal counts in both inputs cancel
everywhere, which is exactly the paper's ``A − B = {a, −b, d, −c}``
semantics: positive deltas are "more in A", negative "more in B".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union, overload

from repro.core.davinci import (
    MODE_ADDITIVE,
    MODE_SIGNED,
    MODE_STANDARD,
    DaVinciSketch,
)
from repro.core.degrade import DegradationPolicy, DegradedResult, execute


def _merged_bucket_entries(
    a: DaVinciSketch, b: DaVinciSketch, bucket_index: int, signed: bool
) -> List[Tuple[int, int]]:
    """Key-merged entries of one bucket pair, largest magnitude first."""
    merged: Dict[int, int] = {}
    for key, count, _flag in a.fp.buckets[bucket_index].entries:
        merged[key] = merged.get(key, 0) + count
    sign = -1 if signed else 1
    for key, count, _flag in b.fp.buckets[bucket_index].entries:
        merged[key] = merged.get(key, 0) + sign * count
    entries = [(key, count) for key, count in merged.items() if count != 0]
    entries.sort(key=lambda kv: (-abs(kv[1]), kv[0]))
    return entries


@overload
def union(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch: ...


@overload
def union(
    a: DaVinciSketch, b: DaVinciSketch, *, policy: DegradationPolicy
) -> DegradedResult[DaVinciSketch]: ...


def union(
    a: DaVinciSketch,
    b: DaVinciSketch,
    *,
    policy: Optional[DegradationPolicy] = None,
) -> Union[DaVinciSketch, DegradedResult[DaVinciSketch]]:
    """Return a DaVinci sketch summarizing the multiset union (Alg. 3).

    With a :class:`~repro.core.degrade.DegradationPolicy`, the *result*
    sketch's decodability is probed: a merged infrequent part that no
    longer peels flags the union as degraded (``STRICT`` raises), since
    per-key queries on it fall back to the noisier fast-query estimates.
    """
    result = _union_value(a, b)
    if policy is not None:
        return execute(
            (result,), lambda: result, policy, fallback=lambda: result
        )
    return result


def _union_value(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch:
    a.check_compatible(b)
    result = a.empty_like()
    result.mode = MODE_ADDITIVE
    result.total_count = a.total_count + b.total_count

    # Lower parts first, so that FP leftovers demoted below land on top of
    # the already-merged filter content (Alg. 3, lines 12-17).
    result.ef = a.ef.merged(b.ef)
    result.ifp = a.ifp.merged(b.ifp)

    capacity = result.fp.entries_per_bucket
    threshold = result.ef.threshold
    for i in range(result.fp.num_buckets):
        entries = _merged_bucket_entries(a, b, i, signed=False)
        keep, leftovers = entries[:capacity], entries[capacity:]
        bucket = result.fp.buckets[i]
        # Merged entries are conservatively flagged: either input may hold
        # more of the key's mass in its lower parts (additive queries add
        # the lower parts regardless, so the flag only matters for
        # bookkeeping and re-export).
        bucket.entries = [[key, count, True] for key, count in keep]
        bucket.ecnt = a.fp.buckets[i].ecnt + b.fp.buckets[i].ecnt
        evicted_any = bool(leftovers)
        bucket.flag = a.fp.buckets[i].flag or b.fp.buckets[i].flag or evicted_any
        for key, count in leftovers:
            # State-independent demotion split.  ``offer`` would absorb
            # ``T - current_estimate``, which depends on the filter's state
            # at merge time and therefore on how a multi-way union is
            # grouped; splitting at the threshold itself keeps the filter
            # read for a demoted key at >= T (it re-promotes on sight),
            # conserves the additive-query mass exactly, and makes the
            # union of key-disjoint sketches byte-associative — the
            # property the sharded merge tree relies on.
            absorbed = min(count, threshold)
            result.ef.add(key, absorbed)
            if count > absorbed:
                result.ifp.insert(key, count - absorbed)
    return result


@overload
def difference(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch: ...


@overload
def difference(
    a: DaVinciSketch, b: DaVinciSketch, *, policy: DegradationPolicy
) -> DegradedResult[DaVinciSketch]: ...


def difference(
    a: DaVinciSketch,
    b: DaVinciSketch,
    *,
    policy: Optional[DegradationPolicy] = None,
) -> Union[DaVinciSketch, DegradedResult[DaVinciSketch]]:
    """Return the signed difference sketch ``a − b``.

    Supports arbitrary overlap (neither input needs to contain the other):
    querying the result for a key yields ``f_a(key) − f_b(key)``, positive
    when the key is heavier in ``a``.

    With a :class:`~repro.core.degrade.DegradationPolicy`, the result
    sketch's decodability is probed exactly as in :func:`union`.
    """
    result = _difference_value(a, b)
    if policy is not None:
        return execute(
            (result,), lambda: result, policy, fallback=lambda: result
        )
    return result


def _difference_value(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch:
    a.check_compatible(b)
    result = a.empty_like()
    result.mode = MODE_SIGNED
    result.total_count = a.total_count - b.total_count

    result.ef = a.ef.subtracted(b.ef)
    result.ifp = a.ifp.subtracted(b.ifp)

    capacity = result.fp.entries_per_bucket
    for i in range(result.fp.num_buckets):
        entries = _merged_bucket_entries(a, b, i, signed=True)
        keep, leftovers = entries[:capacity], entries[capacity:]
        bucket = result.fp.buckets[i]
        bucket.entries = [[key, count, True] for key, count in keep]
        bucket.ecnt = a.fp.buckets[i].ecnt + b.fp.buckets[i].ecnt
        bucket.flag = a.fp.buckets[i].flag or b.fp.buckets[i].flag or bool(leftovers)
        for key, count in leftovers:
            # Signed counts bypass the filter's (unsigned) threshold
            # pipeline and are encoded exactly into the infrequent part.
            result.ifp.insert(key, count)
    return result
