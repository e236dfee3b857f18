"""LossRadar (Li et al., CoNEXT'16) — invertible Bloom lookup for set
difference (packet-loss detection).

LossRadar meters traffic at two points and subtracts the meters; the lost
packets remain and are decoded from an Invertible Bloom Lookup Table.  The
original encodes *individual packets* (flow key + unique packet id); since
our multiset traces carry duplicate keys, we use the standard sum-encoded
IBLT cell ``(count, keySum, checkSum)``:

* ``count += c``, ``keySum += key·c``, ``checkSum += h(key)·c``;
* a cell is *pure* when ``keySum / count`` is an integral key that maps
  back to the cell and whose hash explains ``checkSum`` exactly.

This preserves LossRadar's essential behaviour — linear subtraction, peel
decoding, capacity ≈ cells/1.3 differing flows — while supporting
multiplicities (see DESIGN.md §3 on substitutions).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import HashFamily, hash64
from repro.common.validation import require_positive
from repro.sketches.base import InvertibleSketch

_CHECK_SEED = 0x10552ADA


class LossRadar(InvertibleSketch):
    """A sum-encoded IBLT meter."""

    #: bytes per cell: 4-byte count + 4-byte keySum + 4-byte checkSum
    CELL_BYTES = 12.0

    def __init__(self, cells: int, hashes: int = 3, seed: int = 1) -> None:
        super().__init__()
        require_positive("cells", cells)
        require_positive("hashes", hashes)
        self.num_cells = cells
        self.num_hashes = hashes
        self._seed = seed
        self._hashes = HashFamily(hashes, cells, seed=seed ^ 0x10B1)
        self.count: List[int] = [0] * cells
        self.key_sum: List[int] = [0] * cells
        self.check_sum: List[int] = [0] * cells

    @classmethod
    def from_memory(cls, memory_bytes: float, hashes: int = 3, seed: int = 1):
        """Size the table to a byte budget."""
        cells = max(4, int(memory_bytes / cls.CELL_BYTES))
        return cls(cells=cells, hashes=hashes, seed=seed)

    # ------------------------------------------------------------------ #
    # stream operations
    # ------------------------------------------------------------------ #
    def _update(self, key: int, count: int) -> None:
        if key < 1:
            raise ConfigurationError("LossRadar keys must be positive integers")
        self.insertions += 1
        self.memory_accesses += self.num_hashes
        check = hash64(key, _CHECK_SEED)
        for i in range(self.num_hashes):
            j = self._hashes.index(i, key)
            self.count[j] += count
            self.key_sum[j] += key * count
            self.check_sum[j] += check * count

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def _pure_key(self, j: int) -> Optional[int]:
        """The single key explaining cell ``j``, or None."""
        count = self.count[j]
        if count == 0:
            return None
        key_sum = self.key_sum[j]
        if key_sum % count != 0:
            return None
        key = key_sum // count
        if key <= 0:
            return None
        if self.check_sum[j] != hash64(key, _CHECK_SEED) * count:
            return None
        if j not in (
            self._hashes.index(i, key) for i in range(self.num_hashes)
        ):
            return None
        return key

    def _peel(self) -> Dict[int, int]:
        """Peel pure cells; returns ``{key: signed count}``; non-destructive."""
        snapshot = (self.count[:], self.key_sum[:], self.check_sum[:])
        try:
            result: Dict[int, int] = {}
            queue = deque(j for j in range(self.num_cells) if self.count[j] != 0)
            budget = 8 * self.num_cells + 64
            while queue and budget > 0:
                budget -= 1
                j = queue.popleft()
                key = self._pure_key(j)
                if key is None:
                    continue
                count = self.count[j]
                result[key] = result.get(key, 0) + count
                if result[key] == 0:
                    del result[key]
                check = hash64(key, _CHECK_SEED)
                for i in range(self.num_hashes):
                    cell = self._hashes.index(i, key)
                    self.count[cell] -= count
                    self.key_sum[cell] -= key * count
                    self.check_sum[cell] -= check * count
                    if self.count[cell] != 0:
                        queue.append(cell)
            return result
        finally:
            self.count, self.key_sum, self.check_sum = snapshot

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "LossRadar") -> None:
        same = (
            self.num_cells == other.num_cells
            and self.num_hashes == other.num_hashes
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError("lossradar sketches differ in shape")

    def merge(self, other: "LossRadar") -> "LossRadar":
        """Cell-wise sum (multiset union)."""
        self.check_compatible(other)
        result = LossRadar(self.num_cells, self.num_hashes, self._seed)
        for j in range(self.num_cells):
            result.count[j] = self.count[j] + other.count[j]
            result.key_sum[j] = self.key_sum[j] + other.key_sum[j]
            result.check_sum[j] = self.check_sum[j] + other.check_sum[j]
        return result

    def subtract(self, other: "LossRadar") -> "LossRadar":
        """Cell-wise difference — the packet-loss meter subtraction."""
        self.check_compatible(other)
        result = LossRadar(self.num_cells, self.num_hashes, self._seed)
        for j in range(self.num_cells):
            result.count[j] = self.count[j] - other.count[j]
            result.key_sum[j] = self.key_sum[j] - other.key_sum[j]
            result.check_sum[j] = self.check_sum[j] - other.check_sum[j]
        return result

    def memory_bytes(self) -> float:
        return self.num_cells * self.CELL_BYTES
