"""Sharded ingestion under the array kernel: identity and validation.

Workers executing chunks through the numpy array kernel must produce the
same merged state as the sequential per-partition fold built with the
object kernel — the kernel is an execution strategy, never a semantic
one, even across process boundaries.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import DaVinciConfig
from repro.core.davinci import DaVinciSketch
from repro.runtime import ShardedIngestor, ShardRouter, merge_tree

CHUNK = 1024


def small_config(seed: int = 3) -> DaVinciConfig:
    return DaVinciConfig.from_memory(16384, seed=seed)


def trace(n: int = 30_000, seed: int = 9):
    import random

    rng = random.Random(seed)
    return [rng.randint(1, 50_000) for _ in range(n)]


def reference_fold(config, num_shards, pairs, chunk_items):
    """Sequential object-kernel per-partition build + fold (the oracle)."""
    router = ShardRouter(num_shards)
    shards = []
    for part in router.partition_pairs(pairs):
        sketch = DaVinciSketch(config, kernel="object")
        if part:
            sketch.insert_batch(part, chunk_size=chunk_items)
        shards.append(sketch)
    return merge_tree(shards)


class TestShardedKernelValidation:
    def test_invalid_kernel_rejected_in_parent(self):
        # eager validation: the parent must raise before spawning workers
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            ShardedIngestor(small_config(), 2, kernel="simd")


class TestShardedArrayKernelIdentity:
    def test_merged_state_matches_object_kernel_fold(self):
        config = small_config()
        keys = trace()
        with ShardedIngestor(
            config,
            4,
            chunk_items=CHUNK,
            batch_items=4096,
            kernel="array",
        ) as ingestor:
            ingestor.ingest_keys(keys)
            merged = ingestor.finalize()
        reference = reference_fold(
            config, 4, [(k, 1) for k in keys], CHUNK
        )
        assert merged.to_state() == reference.to_state()
