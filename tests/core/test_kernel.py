"""Kernel selection and cross-kernel reconstruction.

The array kernel is a pure execution strategy: it must never leak into
serialized state, it must be selectable per-constructor and per-process
(``REPRO_KERNEL``), and a sketch serialized under one kernel must
reconstruct into either — the regression scenario here is the
object → array → object round trip through ``from_state``/``from_wire``.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.core import DaVinciConfig, DaVinciSketch
from repro.core import serialization
from repro.core.kernel import (
    KERNEL_ARRAY,
    KERNEL_ENV_VAR,
    KERNEL_OBJECT,
    resolve_kernel,
)


def make_config(seed: int = 11) -> DaVinciConfig:
    return DaVinciConfig(
        fp_buckets=8,
        fp_entries=4,
        ef_level_widths=(128, 32),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=32,
        filter_threshold=10,
        seed=seed,
    )


def stream(n: int = 600):
    return [(key % 37 + 1, key % 5 + 1) for key in range(n)]


class TestResolveKernel:
    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel(None) == KERNEL_OBJECT

    def test_explicit_choices(self):
        assert resolve_kernel(KERNEL_OBJECT) == KERNEL_OBJECT
        assert resolve_kernel(KERNEL_ARRAY) == KERNEL_ARRAY

    def test_env_var_applies_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_ARRAY)
        assert resolve_kernel(None) == KERNEL_ARRAY
        assert DaVinciSketch(make_config()).kernel == KERNEL_ARRAY

    def test_explicit_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, KERNEL_ARRAY)
        assert resolve_kernel(KERNEL_OBJECT) == KERNEL_OBJECT

    def test_invalid_kernel_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            resolve_kernel("simd")
        monkeypatch.setenv(KERNEL_ENV_VAR, "bogus")
        with pytest.raises(ConfigurationError, match=KERNEL_ENV_VAR):
            resolve_kernel(None)

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "")
        assert resolve_kernel(None) == KERNEL_OBJECT


class TestCrossKernelReconstruction:
    """States carry no kernel marker; any kernel can load any state."""

    def test_state_has_no_kernel_marker(self):
        sketch = DaVinciSketch(make_config(), kernel=KERNEL_ARRAY)
        sketch.insert_batch(stream(), chunk_size=64)
        assert "kernel" not in serialization.to_state(sketch)

    def test_object_to_array_to_object_round_trip(self):
        # regression: from_state/from_wire used to inherit only the
        # ambient default, so a state could not be re-executed under a
        # different kernel than the one that serialized it
        first = DaVinciSketch(make_config(), kernel=KERNEL_OBJECT)
        first.insert_batch(stream(), chunk_size=64)

        second = serialization.from_state(
            first.to_state(), kernel=KERNEL_ARRAY
        )
        assert second.kernel == KERNEL_ARRAY
        second.insert_batch(stream(1_200), chunk_size=64)

        third = serialization.from_wire(
            serialization.to_wire(second), kernel=KERNEL_OBJECT
        )
        assert third.kernel == KERNEL_OBJECT
        third.insert_batch(stream(300), chunk_size=64)

        reference = DaVinciSketch(make_config(), kernel=KERNEL_OBJECT)
        for extra in (600, 1_200, 300):
            reference.insert_batch(stream(extra), chunk_size=64)
        assert serialization.to_state(third) == serialization.to_state(
            reference
        )

    def test_davinci_from_state_accepts_kernel(self):
        sketch = DaVinciSketch(make_config(), kernel=KERNEL_OBJECT)
        sketch.insert_batch(stream(), chunk_size=64)
        rebuilt = DaVinciSketch.from_state(
            sketch.to_state(), kernel=KERNEL_ARRAY
        )
        assert rebuilt.kernel == KERNEL_ARRAY
        assert serialization.to_state(rebuilt) == serialization.to_state(
            sketch
        )

    def test_empty_like_preserves_kernel(self):
        sketch = DaVinciSketch(make_config(), kernel=KERNEL_ARRAY)
        assert sketch.empty_like().kernel == KERNEL_ARRAY

    def test_wire_bytes_identical_across_kernels(self):
        obj = DaVinciSketch(make_config(), kernel=KERNEL_OBJECT)
        arr = DaVinciSketch(make_config(), kernel=KERNEL_ARRAY)
        obj.insert_batch(stream(2_000), chunk_size=128)
        arr.insert_batch(stream(2_000), chunk_size=128)
        assert serialization.to_wire(obj) == serialization.to_wire(arr)
