"""FermatSketch (from ChameleMon, Yang et al.) — the standalone invertible
counting sketch the DaVinci infrequent part builds on.

``d`` rows × ``w`` buckets of ``(iID, icnt)``: ``iID += cnt·e (mod p)``,
``icnt += cnt`` (no ±1 signs in the standalone version).  A pure bucket
satisfies ``iID ≡ icnt·e (mod p)``, so ``e = iID · icnt^{p−2} mod p``
(Fermat's little theorem); decoding peels pure buckets until the structure
drains.  Because both fields are linear, set union is bucket-wise addition
and set difference bucket-wise subtraction — the difference decodes
directly to signed per-element deltas, which is the packet-loss /
set-reconciliation use the paper evaluates (Figs. 4g-4i).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, IncompatibleSketchError
from repro.common.hashing import HashFamily
from repro.common.primes import DEFAULT_PRIME, from_field_signed, mod_inverse, validate_prime
from repro.common.validation import require_positive
from repro.sketches.base import InvertibleSketch


class FermatSketch(InvertibleSketch):
    """The plain (sign-free) counting Fermat sketch."""

    BUCKET_BYTES = 8.0  # 4-byte iID + 4-byte icnt, as in the paper's model

    def __init__(
        self,
        rows: int,
        width: int,
        prime: int = DEFAULT_PRIME,
        seed: int = 1,
        max_key: int = 1 << 32,
    ) -> None:
        super().__init__()
        require_positive("rows", rows)
        require_positive("width", width)
        self.rows = rows
        self.width = width
        self.prime = validate_prime(prime)
        #: decodable key domain (32-bit flow keys, as in the paper); an
        #: impure bucket passes the purity checks with probability
        #: ~max_key/p ≈ 2^-29 instead of ~1/width.
        self.max_key = max_key
        self._seed = seed
        self._hashes = HashFamily(rows, width, seed=seed ^ 0xFE12)
        self.ids: List[List[int]] = [[0] * width for _ in range(rows)]
        self.counts: List[List[int]] = [[0] * width for _ in range(rows)]

    @classmethod
    def from_memory(
        cls,
        memory_bytes: float,
        rows: int = 3,
        prime: int = DEFAULT_PRIME,
        seed: int = 1,
    ):
        """Size the sketch to a byte budget."""
        width = max(1, int(memory_bytes / (rows * cls.BUCKET_BYTES)))
        return cls(rows=rows, width=width, prime=prime, seed=seed)

    # ------------------------------------------------------------------ #
    # stream operations
    # ------------------------------------------------------------------ #
    def _update(self, key: int, count: int) -> None:
        self.insertions += 1
        self.memory_accesses += self.rows
        if not 1 <= key < self.max_key:
            raise ConfigurationError(
                f"key {key} outside the decodable domain [1, {self.max_key})"
            )
        p = self.prime
        for row in range(self.rows):
            j = self._hashes.index(row, key)
            self.ids[row][j] = (self.ids[row][j] + count * key) % p
            self.counts[row][j] += count

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def _try_decode_bucket(self, row: int, col: int) -> Optional[Tuple[int, int]]:
        p = self.prime
        icnt = self.counts[row][col]
        iid = self.ids[row][col]
        if icnt == 0:
            return None
        candidate = (iid * mod_inverse(icnt, p)) % p
        if not 1 <= candidate < self.max_key:
            return None
        if self._hashes.index(row, candidate) != col:
            return None
        if (icnt * candidate) % p != iid % p:
            return None
        return candidate, icnt

    def _peel(self) -> Dict[int, int]:
        """Peel every pure bucket; returns ``{key: signed count}``.

        Non-destructive.  With load below the peeling threshold
        (≈ 1.2 buckets per element at d = 3) decoding is complete with
        high probability; beyond it, only the recoverable part returns.
        Point queries read through :meth:`decode` (no fast path).
        """
        snapshot = ([row[:] for row in self.ids], [row[:] for row in self.counts])
        try:
            return self._decode_in_place()
        finally:
            self.ids, self.counts = snapshot

    def _decode_in_place(self) -> Dict[int, int]:
        p = self.prime
        result: Dict[int, int] = {}
        queue = deque(
            (row, col)
            for row in range(self.rows)
            for col in range(self.width)
            if self.counts[row][col] != 0 or self.ids[row][col] != 0
        )
        budget = max(64, 8 * self.rows * self.width)
        while queue and budget > 0:
            budget -= 1
            row, col = queue.popleft()
            decoded = self._try_decode_bucket(row, col)
            if decoded is None:
                continue
            key, count = decoded
            signed = from_field_signed(count % p, p) if count >= p else count
            result[key] = result.get(key, 0) + signed
            if result[key] == 0:
                del result[key]
            for peel_row in range(self.rows):
                j = self._hashes.index(peel_row, key)
                self.ids[peel_row][j] = (self.ids[peel_row][j] - count * key) % p
                self.counts[peel_row][j] -= count
                if self.counts[peel_row][j] != 0 or self.ids[peel_row][j] != 0:
                    queue.append((peel_row, j))
        return result

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #
    def check_compatible(self, other: "FermatSketch") -> None:
        same = (
            self.rows == other.rows
            and self.width == other.width
            and self.prime == other.prime
            and self.max_key == other.max_key
            and self._seed == other._seed
        )
        if not same:
            raise IncompatibleSketchError("fermat sketches differ in shape")

    def merge(self, other: "FermatSketch") -> "FermatSketch":
        """Bucket-wise sum (multiset union)."""
        self.check_compatible(other)
        result = FermatSketch(
            self.rows, self.width, self.prime, self._seed, max_key=self.max_key
        )
        p = self.prime
        for row in range(self.rows):
            for col in range(self.width):
                result.ids[row][col] = (
                    self.ids[row][col] + other.ids[row][col]
                ) % p
                result.counts[row][col] = (
                    self.counts[row][col] + other.counts[row][col]
                )
        return result

    def subtract(self, other: "FermatSketch") -> "FermatSketch":
        """Bucket-wise difference (signed multiset difference)."""
        self.check_compatible(other)
        result = FermatSketch(
            self.rows, self.width, self.prime, self._seed, max_key=self.max_key
        )
        p = self.prime
        for row in range(self.rows):
            for col in range(self.width):
                result.ids[row][col] = (
                    self.ids[row][col] - other.ids[row][col]
                ) % p
                result.counts[row][col] = (
                    self.counts[row][col] - other.counts[row][col]
                )
        return result

    def memory_bytes(self) -> float:
        return self.rows * self.width * self.BUCKET_BYTES
