"""Property-based tests for sketch serialization: lossless round trips."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch, from_state, to_state
from repro.core.serialization import to_wire

streams = st.lists(
    st.integers(min_value=1, max_value=200), min_size=0, max_size=400
)


def make_sketch(seed: int = 5) -> DaVinciSketch:
    config = DaVinciConfig(
        fp_buckets=8,
        fp_entries=4,
        ef_level_widths=(128, 32),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=32,
        filter_threshold=10,
        seed=seed,
    )
    return DaVinciSketch(config)


class TestSerializationProperties:
    @given(stream=streams)
    @settings(max_examples=40, deadline=None)
    def test_queries_identical_after_roundtrip(self, stream):
        sketch = make_sketch()
        sketch.insert_all(stream)
        twin = from_state(json.loads(json.dumps(to_state(sketch))))
        for key in set(stream) | {9999}:
            assert twin.query(key) == sketch.query(key)

    @given(left=streams, right=streams)
    @settings(max_examples=30, deadline=None)
    def test_state_is_json_stable(self, left, right):
        """Serializing the deserialized sketch reproduces the same state.

        Covers all three query modes: a directly built sketch (standard),
        a union result (additive) and a difference result (signed).  Every
        key ``to_state`` writes must survive ``from_state``, so both the
        state dicts and the ``to_wire`` bytes (key order included) match.
        """
        a, b = make_sketch(), make_sketch()
        a.insert_all(left)
        b.insert_all(right)
        for sketch in (a, a.union(b), a.difference(b)):
            once = to_state(sketch)
            twin = from_state(once)
            assert to_state(twin) == once
            assert to_wire(twin) == to_wire(sketch)

    @given(left=streams, right=streams)
    @settings(max_examples=25, deadline=None)
    def test_setops_commute_with_serialization(self, left, right):
        """union(deser(a), deser(b)) answers like union(a, b)."""
        a, b = make_sketch(), make_sketch()
        a.insert_all(left)
        b.insert_all(right)
        direct = a.union(b)
        via_wire = from_state(to_state(a)).union(from_state(to_state(b)))
        for key in (set(left) | set(right)) or {1}:
            assert via_wire.query(key) == direct.query(key)
