"""Array-backed execution kernel for the ingestion hot path.

The object kernel walks FP buckets and EF levels one Python object at a
time; :meth:`DaVinciSketch.insert_batch` (PR 2) and sharding (PR 7) only
amortize *around* that loop.  This module re-expresses one chunk's worth
of work as contiguous numpy arrays — batched splitmix64 hashing, grouped
per-bucket application of Algorithm 1, conflict-free rounds of the element
filter's absorb arithmetic — while keeping the object parts the sole
owners of sketch state between calls.

Design contract (the reason everything else composes unchanged):

* **Byte-identity.**  For identical input order, a sketch driven through
  the array kernel produces ``to_state()``/``to_wire()`` output equal to
  the object kernel's, bit for bit — eviction schedules, element-filter
  absorb arithmetic and infrequent-part field residues included.  The
  engine achieves this by *group-applying* the exact sequential recurrence,
  never by approximating it:

  - FP pairs are sorted by destination bucket and applied in *rank rounds*:
    round ``r`` applies each bucket's ``r``-th arrival, so every write in a
    round touches a distinct bucket and sees exactly the state the
    sequential loop would have seen.
  - EF demotions are applied in *first-occurrence rounds*: an offer is
    ready once it is the earliest unprocessed offer at **all** of its
    mapped positions, so ready offers touch disjoint counters and the
    order-sensitive absorb arithmetic stays exact.
  - IFP field updates keep exact Python integer arithmetic
    (``count·key`` exceeds 64 bits); only positions and signs are batched.

* **Stateless between calls.**  The engine loads the object parts into
  arrays lazily inside one ``insert_batch`` call and flushes them back
  before returning (and before any exception escapes).  Serialization,
  set operations, checkpointing, sharding and the service layer keep
  reading the object parts and never see an array.

* **Exact fallback.**  Inputs outside the fast path's domain —
  non-integer counts, overflow-risk magnitudes — and chunks whose rank
  rounds carry too few keys to beat the object loop fall back to the
  object kernel's ``_insert_chunk``, which *is* the identity baseline, so
  mixing paths mid-stream is always exact.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy

from repro.common import invariants as _inv
from repro.common.errors import ConfigurationError
from repro.common.hashing import _GAMMA, mix64
from repro.observability import metrics as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.core.davinci import DaVinciSketch

#: module-level alias typed ``Any`` (numpy's own annotations are not
#: part of our typing gate)
np: Any = numpy

KERNEL_OBJECT = "object"
KERNEL_ARRAY = "array"
VALID_KERNELS = (KERNEL_OBJECT, KERNEL_ARRAY)

#: environment override consulted when a sketch is built without an
#: explicit ``kernel=`` argument (lets CI run whole suites per kernel)
KERNEL_ENV_VAR = "REPRO_KERNEL"

# Magnitude guard: all FP counters, eviction counters and EF absorb
# arithmetic must stay exactly representable under numpy's int64/float64
# comparisons (Python compares int > float exactly; numpy rounds the int
# through float64 first).  Below 2^52 the two agree bit-for-bit.
_EXACT_LIMIT = 1 << 52

# Rank-round break-even: every FP rank round pays a fixed numpy overhead
# that the object loop pays per key instead, so a chunk whose rounds carry
# fewer than this many keys on average (few buckets, or many keys piled
# into one bucket) is cheaper on the object path; hand it back.  The
# measured break-even on Zipf(1.1) chunks lies between 2 and 4 keys.
_MIN_KEYS_PER_ROUND = 4

# EF conflict rounds beyond this bound finish through the exact scalar
# tail (same arithmetic, applied one offer at a time on the arrays).
_MAX_EF_ROUNDS = 64


def resolve_kernel(requested: Optional[str]) -> str:
    """Validate a kernel choice.

    ``None`` consults the ``REPRO_KERNEL`` environment variable and
    defaults to the object kernel.
    """
    source = "kernel argument"
    if requested is None:
        requested = os.environ.get(KERNEL_ENV_VAR) or KERNEL_OBJECT
        source = f"{KERNEL_ENV_VAR} environment variable"
    if requested not in VALID_KERNELS:
        raise ConfigurationError(
            f"unknown kernel {requested!r} (from {source}); "
            f"expected one of {VALID_KERNELS}"
        )
    return requested


def _premix(seed: int) -> int:
    """The cached inner mix of ``hash64``: ``mix64(seed·γ + γ)``."""
    return mix64(seed * _GAMMA + _GAMMA)


def _exact_sum(arr: Any) -> int:
    """Sum an int64 array exactly (segments bound the partial sums)."""
    total = 0
    step = 1 << 16
    for start in range(0, len(arr), step):
        total += int(arr[start : start + step].sum())
    return total


class ArrayKernelEngine:
    """One ``insert_batch`` call's worth of vectorized chunk ingestion.

    The engine is constructed per call, loads the sketch's parts into
    arrays lazily (first array-path chunk), and must be flushed before
    the call returns.  Chunks the fast path cannot express exactly are
    routed through ``sketch._insert_chunk`` after a flush — the object
    path is the identity baseline, so the mix is byte-exact.
    """

    def __init__(self, sketch: "DaVinciSketch") -> None:
        self.sketch = sketch
        self._loaded = False

        u64 = np.uint64
        fp = sketch.fp
        ef = sketch.ef
        ifp = sketch.ifp
        # hash64(key, seed) == mix64(key ^ mix64(seed·γ + γ)); every family
        # below premixes its seed once so the array path only runs the
        # 5-op splitmix64 finalizer per key.
        self._fp_premix = u64(_premix(fp._seed))
        self._fp_buckets = u64(fp.num_buckets)
        self._ef_premix = [u64(pm) for pm in ef._hashes._premixed]
        self._ef_widths = [u64(w) for w in ef._hashes.widths]
        self._ifp_premix = [u64(pm) for pm in ifp._hashes._premixed]
        self._ifp_width = u64(ifp.width)
        self._sign_premix = [u64(_premix(s)) for s in ifp._signs._seeds]

        # FP / EF array state (populated by _load)
        self._fp_keys: Any = None
        self._fp_counts: Any = None
        self._fp_flags: Any = None
        self._fp_occ: Any = None
        self._fp_ecnt: Any = None
        self._fp_bflag: Any = None
        self._ef_levels: List[Any] = []

    # ------------------------------------------------------------------ #
    # hashing (vectorized splitmix64, identical to repro.common.hashing)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _finalize(x: Any) -> Any:
        """The splitmix64 avalanche over a uint64 array (wraps mod 2^64)."""
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    def _hash_mod(self, keys_u64: Any, premix: Any, width: Any) -> Any:
        """``hash64(key, seed) % width`` for a whole key array at once."""
        return (self._finalize(keys_u64 ^ premix) % width).astype(np.int64)

    def _signs_for(self, keys_u64: Any, row: int) -> Any:
        """±1 signs of ``keys`` in ``row`` (SignFamily, batched)."""
        bits = self._finalize(keys_u64 ^ self._sign_premix[row]) & np.uint64(1)
        return np.where(bits.astype(bool), np.int64(1), np.int64(-1))

    # ------------------------------------------------------------------ #
    # load / flush (object parts stay the single source of truth)
    # ------------------------------------------------------------------ #
    def _load(self) -> bool:
        """Mirror the object parts into arrays; False refuses the mirror."""
        fp = self.sketch.fp
        nb, cap = fp.num_buckets, fp.entries_per_bucket
        keys = np.zeros((nb, cap), dtype=np.int64)
        counts = np.zeros((nb, cap), dtype=np.int64)
        flags = np.zeros((nb, cap), dtype=bool)
        occ = np.zeros(nb, dtype=np.int64)
        ecnt = np.zeros(nb, dtype=np.int64)
        bflag = np.zeros(nb, dtype=bool)
        for i, bucket in enumerate(fp.buckets):
            entries = bucket.entries
            if entries:
                occ[i] = len(entries)
                for j, entry in enumerate(entries):
                    value = entry[1]
                    if not (0 <= value < _EXACT_LIMIT):
                        return False  # hand-loaded exotica: stay on objects
                    keys[i, j] = entry[0]
                    counts[i, j] = value
                    flags[i, j] = bool(entry[2])
            if not (0 <= bucket.ecnt < _EXACT_LIMIT):
                return False
            ecnt[i] = bucket.ecnt
            bflag[i] = bucket.flag
        self._fp_keys, self._fp_counts, self._fp_flags = keys, counts, flags
        self._fp_occ, self._fp_ecnt, self._fp_bflag = occ, ecnt, bflag
        self._ef_levels = [
            np.asarray(level, dtype=np.int64) for level in self.sketch.ef.levels
        ]
        self._loaded = True
        return True

    def flush(self) -> None:
        """Write array state back into the object parts (no-op if clean)."""
        if not self._loaded:
            return
        fp = self.sketch.fp
        keys = self._fp_keys.tolist()
        counts = self._fp_counts.tolist()
        flags = self._fp_flags.tolist()
        occ = self._fp_occ.tolist()
        ecnt = self._fp_ecnt.tolist()
        bflag = self._fp_bflag.tolist()
        for i, bucket in enumerate(fp.buckets):
            n = occ[i]
            bucket.entries = [
                [keys[i][j], counts[i][j], flags[i][j]] for j in range(n)
            ]
            bucket.ecnt = ecnt[i]
            bucket.flag = bflag[i]
        ef = self.sketch.ef
        for level, arr in enumerate(self._ef_levels):
            ef.levels[level] = arr.tolist()
        self._loaded = False

    # ------------------------------------------------------------------ #
    # chunk entry point
    # ------------------------------------------------------------------ #
    def ingest_chunk(self, chunk: List[Tuple[object, int]]) -> None:
        """Ingest one chunk, byte-identically to ``sketch._insert_chunk``."""
        try:
            prepared = None
            # a round carries at most one key per bucket, so a sketch with
            # fewer buckets never reaches the break-even: skip the prep
            if self.sketch.fp.num_buckets >= _MIN_KEYS_PER_ROUND:
                prepared = self._prepare(chunk)
            if prepared is not None and not self._loaded and not self._load():
                prepared = None
            if prepared is None:
                self.flush()
                self.sketch._insert_chunk(chunk)
                return
            keys_arr, counts_arr, chunk_total = prepared
            if not self._vector_chunk(
                chunk, keys_arr, counts_arr, chunk_total
            ):
                # too few keys per rank round, detected before any mutation
                self.flush()
                self.sketch._insert_chunk(chunk)
        except BaseException:
            self.flush()
            raise

    # ------------------------------------------------------------------ #
    # canonicalization + fast-path admission
    # ------------------------------------------------------------------ #
    def _prepare(
        self, chunk: List[Tuple[object, int]]
    ) -> Optional[Tuple[Any, Any, int]]:
        """Canonical int64 keys/counts for the fast path, or None.

        ``None`` routes the chunk through the object kernel: non-integer
        or non-positive counts, magnitudes that would overflow the exact
        int64/float64 window, or key/count lists numpy cannot express.
        Under the debug sanitizer the per-item count validation runs
        up front so the raise points match the object loop exactly.
        """
        sketch = self.sketch
        if _inv.ENABLED:
            for _raw_key, count in chunk:
                _inv.check_counter_int(count, "DaVinciSketch.insert_batch count")
        try:
            counts_arr = np.asarray([count for _key, count in chunk])
        except (TypeError, ValueError, OverflowError):
            return None
        if counts_arr.dtype.kind != "i" or counts_arr.ndim != 1:
            return None
        counts_arr = counts_arr.astype(np.int64, copy=False)
        n = len(counts_arr)
        if n == 0:
            return None
        max_count = int(counts_arr.max())
        if int(counts_arr.min()) < 1:
            return None
        if max_count > (1 << 62) // n:
            return None  # the chunk-total sum itself could overflow int64
        chunk_total = _exact_sum(counts_arr)
        if sketch.total_count + chunk_total >= _EXACT_LIMIT:
            return None

        domain = sketch.ifp.max_key
        raw_keys = [key for key, _count in chunk]
        try:
            keys_probe = np.asarray(raw_keys)
        except (TypeError, ValueError, OverflowError):
            keys_probe = None
        if (
            keys_probe is not None
            and keys_probe.dtype.kind == "i"
            and keys_probe.ndim == 1
            and int(keys_probe.min()) >= 1
            and int(keys_probe.max()) < domain
        ):
            return keys_probe.astype(np.int64, copy=False), counts_arr, chunk_total

        # Slow canonicalization: mirrors _insert_chunk's memoized mapping
        # (same branches, same raise points for unsupported key types).
        canonical = sketch.canonical_key
        fingerprints: Dict[object, int] = {}
        mapped: List[int] = []
        for raw_key in raw_keys:
            if (
                isinstance(raw_key, int)
                and not isinstance(raw_key, bool)
                and 1 <= raw_key < domain
            ):
                mapped.append(raw_key)
            elif isinstance(raw_key, (int, str, bytes)) and not isinstance(
                raw_key, bool
            ):
                cached = fingerprints.get(raw_key)
                if cached is None:
                    cached = canonical(raw_key)
                    fingerprints[raw_key] = cached
                mapped.append(cached)
            else:  # unhashable key types (e.g. bytearray): no memoization
                mapped.append(canonical(raw_key))
        return np.asarray(mapped, dtype=np.int64), counts_arr, chunk_total

    # ------------------------------------------------------------------ #
    # the vectorized chunk (aggregation → FP rounds → EF rounds → IFP)
    # ------------------------------------------------------------------ #
    def _vector_chunk(
        self, chunk: List[Tuple[object, int]], keys: Any, counts: Any, total: int
    ) -> bool:
        """Apply one canonicalized chunk; False = refused (nothing mutated)."""
        sketch = self.sketch

        # per-key totals in first-seen key order (== dict insertion order)
        uniq, first_idx, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inverse, counts)
        order = np.argsort(first_idx)
        agg_keys = uniq[order]
        agg_counts = sums[order]

        # FP routing + rank ranks (decided before any state mutation so a
        # refusal can still fall back to the object path)
        buckets = self._hash_mod(
            agg_keys.astype(np.uint64), self._fp_premix, self._fp_buckets
        )
        by_bucket = np.argsort(buckets, kind="stable")
        sorted_b = buckets[by_bucket]
        n_agg = len(agg_keys)
        new_group = np.empty(n_agg, dtype=bool)
        new_group[0] = True
        if n_agg > 1:
            new_group[1:] = sorted_b[1:] != sorted_b[:-1]
        group_starts = np.flatnonzero(new_group)
        group_sizes = np.diff(np.append(group_starts, n_agg))
        ranks = np.arange(n_agg, dtype=np.int64) - np.repeat(
            group_starts, group_sizes
        )
        max_rank = int(ranks.max())
        if n_agg < _MIN_KEYS_PER_ROUND * (max_rank + 1):
            return False

        # Counter updates mirror _insert_chunk exactly, and only after the
        # chunk is committed to the array path.
        sketch._commit_inserts(len(chunk), total)
        observing = _obs.ENABLED
        if observing:
            sketch._observe().kernel_chunks.counter_child(KERNEL_ARRAY).inc()

        dem_pos, dem_key, dem_cnt = self._fp_rounds(
            agg_keys, agg_counts, buckets, by_bucket, ranks, max_rank, observing
        )
        if len(dem_pos) == 0:
            if _inv.ENABLED:
                self._check_chunk_invariants()
            return True
        order_d = np.argsort(dem_pos)
        self._ef_ifp_phase(dem_key[order_d], dem_cnt[order_d], observing)
        if _inv.ENABLED:
            self._check_chunk_invariants()
        return True

    # ------------------------------------------------------------------ #
    # frequent part: Algorithm 1 in rank rounds
    # ------------------------------------------------------------------ #
    def _fp_rounds(
        self,
        agg_keys: Any,
        agg_counts: Any,
        buckets: Any,
        by_bucket: Any,
        ranks: Any,
        max_rank: int,
        observing: bool,
    ) -> Tuple[Any, Any, Any]:
        """Group-apply the FP recurrence; returns demotions (pos, key, cnt)."""
        sketch = self.sketch
        fp = sketch.fp
        cap = fp.entries_per_bucket
        lam = fp.lambda_evict
        keys2d, counts2d = self._fp_keys, self._fp_counts
        flags2d, occupancy = self._fp_flags, self._fp_occ
        ecnt, bflag = self._fp_ecnt, self._fp_bflag

        # round r applies, for every bucket, its r-th arrival: distinct
        # buckets per round, so each write sees exactly the sequential
        # state.  ``ranks`` is aligned with ``by_bucket`` order (rank of
        # the i-th bucket-sorted item), so it maps through ``by_rank``
        # directly.
        by_rank = np.argsort(ranks, kind="stable")
        round_order = by_bucket[by_rank]
        bounds = np.searchsorted(ranks[by_rank], np.arange(max_rank + 2))

        accesses = 0
        case2_n = 0
        evictions_n = 0
        entries_before = int(occupancy.sum()) if observing else 0
        dp_parts: List[Any] = []
        dk_parts: List[Any] = []
        dc_parts: List[Any] = []
        full_scan = cap + 2  # entries + ecnt + flag
        for r in range(max_rank + 1):
            items = round_order[bounds[r] : bounds[r + 1]]
            kk = agg_keys[items]
            cc = agg_counts[items]
            bb = buckets[items]
            occ = occupancy[bb]
            rows = keys2d[bb]
            eq = rows == kk[:, None]
            is_res = eq.any(axis=1)

            if is_res.any():  # case 1: already resident
                pos = eq[is_res].argmax(axis=1)
                b1 = bb[is_res]
                counts2d[b1, pos] += cc[is_res]
                accesses += int(pos.sum()) + len(b1)

            rest = ~is_res
            room = rest & (occ < cap)
            if room.any():  # case 2: room for a fresh entry
                b2 = bb[room]
                o2 = occ[room]
                keys2d[b2, o2] = kk[room]
                counts2d[b2, o2] = cc[room]
                flags2d[b2, o2] = False
                occupancy[b2] = o2 + 1
                accesses += int(o2.sum()) + len(b2)
                case2_n += len(b2)

            full = rest & (occ >= cap)
            if full.any():
                bf = bb[full]
                items_f = items[full]
                kf = kk[full]
                cf = cc[full]
                nf = len(bf)
                accesses += full_scan * nf
                ec = ecnt[bf] + 1
                ecnt[bf] = ec
                crows = counts2d[bf]
                vict = crows.argmin(axis=1)  # first minimum, like min()
                vcnt = crows[np.arange(nf), vict]
                evict = ec > lam * vcnt
                if evict.any():  # case 3: replace the smallest resident
                    b3 = bf[evict]
                    v3 = vict[evict]
                    dp_parts.append(items_f[evict])
                    dk_parts.append(keys2d[b3, v3].copy())
                    dc_parts.append(vcnt[evict])
                    keys2d[b3, v3] = kf[evict]
                    counts2d[b3, v3] = cf[evict]
                    flags2d[b3, v3] = True
                    bflag[b3] = True
                    ecnt[b3] = 0
                    evictions_n += len(b3)
                keep = ~evict
                if keep.any():  # case 4: the newcomer is deemed infrequent
                    dp_parts.append(items_f[keep])
                    dk_parts.append(kf[keep])
                    dc_parts.append(cf[keep])

        sketch.memory_accesses += accesses
        if dp_parts:
            dem_pos = np.concatenate(dp_parts)
            dem_key = np.concatenate(dk_parts)
            dem_cnt = np.concatenate(dc_parts)
        else:
            dem_pos = np.empty(0, dtype=np.int64)
            dem_key = np.empty(0, dtype=np.int64)
            dem_cnt = np.empty(0, dtype=np.int64)
        if observing:
            fp._record_batch(
                len(agg_keys),
                int(occupancy.sum()) - entries_before,
                evictions_n,
                len(dem_pos),
            )
        return dem_pos, dem_key, dem_cnt

    # ------------------------------------------------------------------ #
    # element filter + infrequent part (demotions in arrival order)
    # ------------------------------------------------------------------ #
    def _ef_ifp_phase(self, dkeys: Any, dcnts: Any, observing: bool) -> None:
        """Offer demotions to the EF in rounds; encode overflow exactly."""
        sketch = self.sketch
        ef = sketch.ef
        nd = len(dkeys)
        sketch.memory_accesses += nd * ef.num_levels

        caps = ef.level_caps
        threshold = ef.threshold
        floor = max(caps)
        num_levels = ef.num_levels
        levels = self._ef_levels
        dkeys_u64 = dkeys.astype(np.uint64)
        positions = [
            self._hash_mod(dkeys_u64, self._ef_premix[lv], self._ef_widths[lv])
            for lv in range(num_levels)
        ]

        ov_pos_parts: List[Any] = []
        ov_key_parts: List[Any] = []
        ov_cnt_parts: List[Any] = []
        absorbed_total = 0
        crossings = 0

        # first-occurrence rounds: an offer is ready once it is the earliest
        # unprocessed offer at all of its mapped counters; ready offers
        # touch disjoint counters, so the absorb arithmetic stays exact
        remaining = np.arange(nd, dtype=np.int64)
        firsts = [np.full(int(w), nd, dtype=np.int64) for w in self._ef_widths]
        rounds = 0
        while remaining.size and rounds < _MAX_EF_ROUNDS:
            rounds += 1
            ready_mask = np.ones(remaining.size, dtype=bool)
            for lv in range(num_levels):
                pl = positions[lv][remaining]
                np.minimum.at(firsts[lv], pl, remaining)
                ready_mask &= firsts[lv][pl] == remaining
            ready = remaining[ready_mask]
            for lv in range(num_levels):  # reset only the touched counters
                firsts[lv][positions[lv][remaining]] = nd

            rc = dcnts[ready]
            vals = [levels[lv][positions[lv][ready]] for lv in range(num_levels)]
            sats = [vals[lv] >= caps[lv] for lv in range(num_levels)]
            cur = np.full(len(ready), np.iinfo(np.int64).max, dtype=np.int64)
            any_unsat = np.zeros(len(ready), dtype=bool)
            for lv in range(num_levels):
                unsat = ~sats[lv]
                cur = np.where(unsat & (vals[lv] < cur), vals[lv], cur)
                any_unsat |= unsat
            cur = np.where(any_unsat, cur, floor)

            promoted = cur >= threshold
            absorbed = np.where(
                promoted, 0, np.minimum(rc, threshold - cur)
            ).astype(np.int64)
            for lv in range(num_levels):
                write = ~promoted & ~sats[lv]
                if write.any():
                    idx = positions[lv][ready][write]
                    levels[lv][idx] = np.minimum(
                        vals[lv][write] + absorbed[write], caps[lv]
                    )
            overflow = rc - absorbed
            has_over = overflow > 0
            if has_over.any():
                ov_pos_parts.append(ready[has_over])
                ov_key_parts.append(dkeys[ready][has_over])
                ov_cnt_parts.append(overflow[has_over])
            if observing:
                absorbed_total += int(absorbed.sum())
                crossings += int(
                    (~promoted & (cur + absorbed >= threshold)).sum()
                )
            remaining = remaining[~ready_mask]

        if remaining.size:  # pathological collision tail: exact scalar loop
            tail = self._ef_scalar_tail(
                remaining, dkeys, dcnts, positions, observing
            )
            ov_pos_parts.append(tail[0])
            ov_key_parts.append(tail[1])
            ov_cnt_parts.append(tail[2])
            absorbed_total += tail[3]
            crossings += tail[4]

        if ov_pos_parts:
            ov_pos = np.concatenate(ov_pos_parts)
            ov_order = np.argsort(ov_pos)
            ov_keys = np.concatenate(ov_key_parts)[ov_order]
            ov_cnts = np.concatenate(ov_cnt_parts)[ov_order]
        else:
            ov_keys = np.empty(0, dtype=np.int64)
            ov_cnts = np.empty(0, dtype=np.int64)
        if observing:
            ef._record_offers(
                nd, absorbed_total, int(ov_cnts.sum()), crossings
            )
        if len(ov_keys):
            self._ifp_phase(ov_keys, ov_cnts, observing)

    def _ef_scalar_tail(
        self,
        remaining: Any,
        dkeys: Any,
        dcnts: Any,
        positions: List[Any],
        observing: bool,
    ) -> Tuple[Any, Any, Any, int, int]:
        """Finish heavily-colliding offers one at a time (still exact)."""
        ef = self.sketch.ef
        caps = ef.level_caps
        threshold = ef.threshold
        floor = max(caps)
        num_levels = ef.num_levels
        levels = self._ef_levels
        ov_pos: List[int] = []
        ov_key: List[int] = []
        ov_cnt: List[int] = []
        absorbed_total = 0
        crossings = 0
        for i in remaining.tolist():
            count = int(dcnts[i])
            current: Optional[int] = None
            for lv in range(num_levels):
                value = int(levels[lv][positions[lv][i]])
                if value >= caps[lv]:
                    continue
                if current is None or value < current:
                    current = value
            if current is None:
                current = floor
            if current >= threshold:
                ov_pos.append(i)
                ov_key.append(int(dkeys[i]))
                ov_cnt.append(count)
                continue
            absorbed = min(count, threshold - current)
            if observing:
                absorbed_total += absorbed
                if current + absorbed >= threshold:
                    crossings += 1
            for lv in range(num_levels):
                j = positions[lv][i]
                value = int(levels[lv][j])
                if value >= caps[lv]:
                    continue
                levels[lv][j] = min(value + absorbed, caps[lv])
            if count > absorbed:
                ov_pos.append(i)
                ov_key.append(int(dkeys[i]))
                ov_cnt.append(count - absorbed)
        return (
            np.asarray(ov_pos, dtype=np.int64),
            np.asarray(ov_key, dtype=np.int64),
            np.asarray(ov_cnt, dtype=np.int64),
            absorbed_total,
            crossings,
        )

    def _ifp_phase(self, ov_keys: Any, ov_cnts: Any, observing: bool) -> None:
        """Encode overflow into the IFP: batched hashes, exact field math.

        ``count·key`` exceeds 64 bits long before the counters do, so the
        residue updates stay in Python integers on the object arrays;
        positions and signs — the actual hashing cost — are batched.
        """
        sketch = self.sketch
        ifp = sketch.ifp
        rows = ifp.rows
        n = len(ov_keys)
        sketch.memory_accesses += n * rows

        keys_u64 = ov_keys.astype(np.uint64)
        pos_rows = [
            self._hash_mod(keys_u64, self._ifp_premix[r], self._ifp_width).tolist()
            for r in range(rows)
        ]
        sign_rows = [self._signs_for(keys_u64, r).tolist() for r in range(rows)]
        keys_l = ov_keys.tolist()
        cnts_l = ov_cnts.tolist()
        p = ifp.prime
        ids = ifp.ids
        counts = ifp.counts
        for i in range(n):
            key = keys_l[i]
            count = cnts_l[i]
            delta = count * key
            for r in range(rows):
                j = pos_rows[r][i]
                id_row = ids[r]
                count_row = counts[r]
                id_row[j] = (id_row[j] + delta) % p
                count_row[j] += sign_rows[r][i] * count
        if observing:
            ifp._record_inserts(n, sum(cnts_l))

    # ------------------------------------------------------------------ #
    # debug sanitizer (chunk-granularity re-checks of part invariants)
    # ------------------------------------------------------------------ #
    def _check_chunk_invariants(self) -> None:
        """Array-state bounds after a chunk (sanitizer builds only).

        The object kernel checks its invariants per update; the array
        kernel re-establishes the same bounds once per chunk — resident
        FP counts positive, occupancy within capacity, EF counters within
        ``[0, cap]`` — which is the granularity at which its state is
        observable.
        """
        fp = self.sketch.fp
        occ = self._fp_occ
        _inv.check(
            bool((occ >= 0).all() and (occ <= fp.entries_per_bucket).all()),
            "ArrayKernel: FP occupancy out of range",
        )
        mask = np.arange(fp.entries_per_bucket)[None, :] < occ[:, None]
        _inv.check(
            bool((self._fp_counts[mask] >= 1).all()),
            "ArrayKernel: resident FP count must be >= 1",
        )
        for level, arr in enumerate(self._ef_levels):
            cap = self.sketch.ef.level_caps[level]
            _inv.check(
                bool((arr >= 0).all() and (arr <= cap).all()),
                "ArrayKernel: EF counter outside [0, cap]",
            )
