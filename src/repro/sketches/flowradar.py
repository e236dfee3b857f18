"""FlowRadar (Li et al., NSDI'16) — bloom filter + invertible counting table.

Two coupled structures: a **flow filter** (Bloom filter over flow keys)
decides whether a packet starts a new flow; a **counting table** of cells
``(FlowXOR, FlowCount, PacketCount)`` encodes flows invertibly.  A *new*
flow XORs its key into ``k`` cells and bumps their ``FlowCount``; every
packet bumps ``PacketCount`` at the same cells.  Decoding peels pure cells
(``FlowCount == 1``): the cell's ``FlowXOR`` is the flow and its packets
are recovered by subtraction during the peel.

Set difference (the paper's packet-loss scenario) XOR/subtracts two
tables cell-wise; flows present in both operands cancel out of the
``FlowXOR``/``FlowCount`` fields, leaving exactly the differing flows to
decode.  Note the known FlowRadar caveat our experiments surface: for
*overlapping* (non-nested) multisets a flow present in both sketches
cancels its ID but leaves its packet-count delta stranded in the cells,
polluting neighbours — one reason DaVinci wins the overlap-difference
panel.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import HashFamily
from repro.common.validation import require_positive
from repro.sketches.base import InvertibleSketch


class _Cell:
    """One counting-table cell."""

    __slots__ = ("flow_xor", "flow_count", "packet_count")

    def __init__(self) -> None:
        self.flow_xor: int = 0
        self.flow_count: int = 0
        self.packet_count: int = 0

    def is_empty(self) -> bool:
        return (
            self.flow_xor == 0
            and self.flow_count == 0
            and self.packet_count == 0
        )


class FlowRadar(InvertibleSketch):
    """Bloom flow filter + invertible counting table."""

    #: bytes per cell: 4-byte FlowXOR + 4-byte FlowCount + 4-byte PacketCount
    CELL_BYTES = 12.0
    #: Bloom filter bits charged per byte of filter budget
    _FILTER_HASHES = 3

    def __init__(
        self,
        cells: int,
        filter_bits: int,
        hashes: int = 3,
        seed: int = 1,
    ) -> None:
        super().__init__()
        require_positive("cells", cells)
        require_positive("filter_bits", filter_bits)
        require_positive("hashes", hashes)
        self.num_cells = cells
        self.num_hashes = hashes
        self.filter_bits = filter_bits
        self._seed = seed
        self._cell_hashes = HashFamily(hashes, cells, seed=seed ^ 0xF10)
        self._filter_hashes = HashFamily(
            self._FILTER_HASHES, filter_bits, seed=seed ^ 0xB100
        )
        self.bloom: List[bool] = [False] * filter_bits
        self.cells: List[_Cell] = [_Cell() for _ in range(cells)]

    @classmethod
    def from_memory(
        cls,
        memory_bytes: float,
        filter_fraction: float = 0.1,
        hashes: int = 3,
        seed: int = 1,
    ):
        """Split the budget: ~10% Bloom filter, rest counting table."""
        filter_bits = max(64, int(memory_bytes * filter_fraction * 8))
        table_bytes = memory_bytes * (1 - filter_fraction)
        cells = max(4, int(table_bytes / cls.CELL_BYTES))
        return cls(cells=cells, filter_bits=filter_bits, hashes=hashes, seed=seed)

    # ------------------------------------------------------------------ #
    # stream operations
    # ------------------------------------------------------------------ #
    def _bloom_contains(self, key: int) -> bool:
        return all(
            self.bloom[self._filter_hashes.index(i, key)]
            for i in range(self._FILTER_HASHES)
        )

    def _bloom_add(self, key: int) -> None:
        for i in range(self._FILTER_HASHES):
            self.bloom[self._filter_hashes.index(i, key)] = True

    def _update(self, key: int, count: int) -> None:
        if key < 1:
            raise ConfigurationError("FlowRadar keys must be positive integers")
        self.insertions += 1
        self.memory_accesses += self._FILTER_HASHES
        is_new = not self._bloom_contains(key)
        if is_new:
            self._bloom_add(key)
        self.memory_accesses += self.num_hashes
        for i in range(self.num_hashes):
            cell = self.cells[self._cell_hashes.index(i, key)]
            if is_new:
                cell.flow_xor ^= key
                cell.flow_count += 1
            cell.packet_count += count

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def _peel(self) -> Dict[int, int]:
        """Peel pure cells (``|FlowCount| == 1``); non-destructive.

        Works on differences too: a subtracted table carries FlowCount −1
        cells for flows only present in the subtrahend; their packet counts
        decode with negative sign.
        """
        xors = [cell.flow_xor for cell in self.cells]
        fcounts = [cell.flow_count for cell in self.cells]
        pcounts = [cell.packet_count for cell in self.cells]
        result: Dict[int, int] = {}
        queue = deque(
            i for i in range(self.num_cells) if fcounts[i] in (1, -1)
        )
        budget = 8 * self.num_cells + 64
        while queue and budget > 0:
            budget -= 1
            i = queue.popleft()
            sign = fcounts[i]
            if sign not in (1, -1):
                continue
            key = xors[i]
            if key == 0:
                continue
            # Verify the candidate actually maps to this cell.
            if i not in (
                self._cell_hashes.index(h, key) for h in range(self.num_hashes)
            ):
                continue
            packets = pcounts[i] * 1  # this cell holds only this flow now
            result[key] = result.get(key, 0) + packets
            if result.get(key) == 0:
                result.pop(key, None)
            for h in range(self.num_hashes):
                j = self._cell_hashes.index(h, key)
                xors[j] ^= key
                fcounts[j] -= sign
                pcounts[j] -= packets
                if fcounts[j] in (1, -1):
                    queue.append(j)
        return result

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "FlowRadar") -> None:
        same = (
            self.num_cells == other.num_cells
            and self.num_hashes == other.num_hashes
            and self.filter_bits == other.filter_bits
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError("flowradar sketches differ in shape")

    def merge(self, other: "FlowRadar") -> "FlowRadar":
        """Cell-wise union.

        Flows present in both operands cancel out of FlowXOR while their
        FlowCounts add — FlowRadar's documented merge weakness, preserved
        deliberately (it is what the union experiment measures).
        """
        self.check_compatible(other)
        result = FlowRadar(
            self.num_cells, self.filter_bits, self.num_hashes, self._seed
        )
        for i in range(self.filter_bits):
            result.bloom[i] = self.bloom[i] or other.bloom[i]
        for i, (a, b) in enumerate(zip(self.cells, other.cells)):
            cell = result.cells[i]
            cell.flow_xor = a.flow_xor ^ b.flow_xor
            cell.flow_count = a.flow_count + b.flow_count
            cell.packet_count = a.packet_count + b.packet_count
        return result

    def subtract(self, other: "FlowRadar") -> "FlowRadar":
        """Cell-wise difference; flows common to both cancel."""
        self.check_compatible(other)
        result = FlowRadar(
            self.num_cells, self.filter_bits, self.num_hashes, self._seed
        )
        for i, (a, b) in enumerate(zip(self.cells, other.cells)):
            cell = result.cells[i]
            cell.flow_xor = a.flow_xor ^ b.flow_xor
            cell.flow_count = a.flow_count - b.flow_count
            cell.packet_count = a.packet_count - b.packet_count
        return result

    def memory_bytes(self) -> float:
        return self.num_cells * self.CELL_BYTES + self.filter_bits / 8.0
