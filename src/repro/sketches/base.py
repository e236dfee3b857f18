"""Abstract interfaces shared by every sketch in the package.

Three concerns are standardized here so the experiment harness can treat the
core DaVinci sketch and the fifteen baselines uniformly:

* **insert/query surface** — :class:`FrequencySketch` for anything that
  estimates per-key frequency, with capability mixins for heavy hitters,
  cardinality, mergeability and inner products.
* **memory accounting** — every sketch reports the bytes its *logical*
  structure occupies (the bit-width model the paper uses, not Python object
  overhead), so "ARE at 200 KB" means the same thing for all algorithms.
* **memory-access accounting** — the ``memory_accesses`` counter backs the
  paper's AMA metric (Fig. 8a): each algorithm increments it by the number
  of logical words it touches per insertion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Tuple


class MemoryModel:
    """Helpers for the logical-bytes memory model.

    All sizes follow the paper's convention: a counter of ``b`` bits costs
    ``b/8`` bytes, a flow ID costs 4 bytes (32-bit key) unless a sketch
    states otherwise, and bookkeeping fields (flags, evict counters) are
    charged at their declared widths.
    """

    KEY_BYTES = 4
    COUNTER_BYTES = 4

    @staticmethod
    def bits_to_bytes(bits: int) -> float:
        return bits / 8.0


class Sketch(ABC):
    """Root of the sketch hierarchy: memory + access accounting."""

    def __init__(self) -> None:
        #: logical memory-word accesses performed so far (AMA numerator)
        self.memory_accesses: int = 0
        #: number of ``insert`` calls performed so far (AMA denominator)
        self.insertions: int = 0

    @abstractmethod
    def memory_bytes(self) -> float:
        """Logical size of the structure in bytes (paper's memory model)."""

    def average_memory_access(self) -> float:
        """AMA = total accesses / total insertions (0 when empty)."""
        if self.insertions == 0:
            return 0.0
        return self.memory_accesses / self.insertions

    def reset_access_counters(self) -> None:
        """Zero the AMA instrumentation (e.g. between benchmark phases)."""
        self.memory_accesses = 0
        self.insertions = 0

    def insert_all(self, keys: Iterable[object]) -> None:
        """Insert a stream of single occurrences (every sketch subclass
        defines ``insert``; cardinality-only sketches included).

        Typed over ``Iterable[object]`` so overrides that accept richer key
        domains (e.g. :meth:`repro.core.davinci.DaVinciSketch.insert_all`,
        which canonicalizes strings/bytes) stay signature-compatible."""
        insert = getattr(self, "insert")
        for key in keys:
            insert(key)


class FrequencySketch(Sketch):
    """A sketch that supports per-key frequency estimation."""

    @abstractmethod
    def insert(self, key: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key``."""

    @abstractmethod
    def query(self, key: int) -> int:
        """Estimated frequency of ``key``."""


class HeavyHitterSketch(FrequencySketch):
    """A sketch that can enumerate its heavy candidates.

    ``heavy_hitters(threshold)`` returns ``{key: estimate}`` for every key
    the structure *tracks* whose estimate is at least ``threshold``.
    Sketches without key storage (CM, CU, ...) cannot implement this and
    are evaluated by querying ground-truth keys instead.
    """

    @abstractmethod
    def heavy_hitters(self, threshold: int) -> Dict[int, int]:
        """Tracked keys whose estimated frequency is >= ``threshold``."""


class CardinalitySketch(Sketch):
    """A sketch that estimates the number of distinct keys."""

    @abstractmethod
    def cardinality(self) -> float:
        """Estimated count of distinct inserted keys."""


class MergeableSketch(FrequencySketch):
    """A sketch supporting the linear set operations (union/difference)."""

    @abstractmethod
    def merge(self, other: "MergeableSketch") -> "MergeableSketch":
        """Return a new sketch summarizing the multiset union."""

    @abstractmethod
    def subtract(self, other: "MergeableSketch") -> "MergeableSketch":
        """Return a new sketch summarizing the signed multiset difference."""


class InvertibleSketch(MergeableSketch):
    """A sketch whose content can be decoded back to ``{key: count}``.

    Decoding peels the whole structure, so its result is memoized until
    the next write.  This class owns the memo: subclasses supply only the
    per-item :meth:`_update` and the raw :meth:`_peel`, and every write
    goes through :meth:`insert`, which drops the memo.
    """

    def __init__(self) -> None:
        super().__init__()
        self.__decode_memo: Optional[Dict[int, int]] = None

    def insert(self, key: int, count: int = 1) -> None:
        self.__decode_memo = None
        self._update(key, count)

    def query(self, key: int) -> int:
        """Point query via full decode (0 when the key is unrecoverable)."""
        return self.decode().get(key, 0)

    def decode(self) -> Dict[int, int]:
        """Recover the (signed) keyed counts stored in the sketch."""
        if self.__decode_memo is None:
            self.__decode_memo = self._peel()
        return self.__decode_memo

    @abstractmethod
    def _update(self, key: int, count: int) -> None:
        """Record ``count`` occurrences of ``key`` (the per-item write)."""

    @abstractmethod
    def _peel(self) -> Dict[int, int]:
        """Decode from scratch, leaving the structure unchanged."""


class InnerProductSketch(Sketch):
    """A sketch supporting inner-product (join-size) estimation."""

    @abstractmethod
    def insert(self, key: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``key``."""

    @abstractmethod
    def inner_product(self, other: "InnerProductSketch") -> float:
        """Estimate Σ_e f(e)·g(e) against another sketch of the same shape."""


def top_k(estimates: Dict[int, int], k: int) -> List[Tuple[int, int]]:
    """The ``k`` largest (key, estimate) pairs, ties broken by key."""
    return sorted(estimates.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
