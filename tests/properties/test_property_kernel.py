"""Property: the array kernel is byte-identical to the object kernel.

``DaVinciSketch(config, kernel="array")`` must produce exactly the state
the object kernel produces for the same input order — FP entry order,
eviction counters and flags, EF level counters and IFP residues all
included.  Hypothesis drives randomized interleavings of ``insert``,
``insert_batch``, ``query`` and ``union`` through both kernels and
requires the serialized states to match byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch
from repro.core.serialization import to_state

keys = st.integers(min_value=1, max_value=60)
counts = st.integers(min_value=1, max_value=40)
pair_streams = st.lists(st.tuples(keys, counts), min_size=0, max_size=250)
chunk_sizes = st.integers(min_value=1, max_value=300)

#: one interleaved operation: ("insert", key, count) applies a single
#: weighted insert, ("batch", pairs, chunk) a batched one, ("query", key)
#: a read (which must not perturb state on either kernel)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, counts),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(keys, counts), min_size=0, max_size=60),
            st.integers(min_value=1, max_value=64),
        ),
        st.tuples(st.just("query"), keys),
    ),
    min_size=0,
    max_size=25,
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


def apply_operations(sketch: DaVinciSketch, ops) -> None:
    for op in ops:
        if op[0] == "insert":
            sketch.insert(op[1], op[2])
        elif op[0] == "batch":
            sketch.insert_batch(op[1], chunk_size=op[2])
        else:
            sketch.query(op[1])


class TestKernelParity:
    @given(pairs=pair_streams, chunk_size=chunk_sizes)
    @settings(max_examples=80, deadline=None)
    def test_insert_batch_state_identical(self, pairs, chunk_size):
        obj = DaVinciSketch(make_config(), kernel="object")
        arr = DaVinciSketch(make_config(), kernel="array")
        obj.insert_batch(pairs, chunk_size=chunk_size)
        arr.insert_batch(pairs, chunk_size=chunk_size)
        assert to_state(obj) == to_state(arr)

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_operations_state_identical(self, ops):
        obj = DaVinciSketch(make_config(), kernel="object")
        arr = DaVinciSketch(make_config(), kernel="array")
        apply_operations(obj, ops)
        apply_operations(arr, ops)
        assert to_state(obj) == to_state(arr)

    @given(left=pair_streams, right=pair_streams, chunk_size=chunk_sizes)
    @settings(max_examples=40, deadline=None)
    def test_union_of_array_built_sketches_identical(
        self, left, right, chunk_size
    ):
        def build(kernel):
            a = DaVinciSketch(make_config(), kernel=kernel)
            b = DaVinciSketch(make_config(), kernel=kernel)
            a.insert_batch(left, chunk_size=chunk_size)
            b.insert_batch(right, chunk_size=chunk_size)
            return a.union(b)

        assert to_state(build("object")) == to_state(build("array"))

    @given(pairs=pair_streams, chunk_size=chunk_sizes)
    @settings(max_examples=40, deadline=None)
    def test_accounting_identical(self, pairs, chunk_size):
        obj = DaVinciSketch(make_config(), kernel="object")
        arr = DaVinciSketch(make_config(), kernel="array")
        obj.insert_batch(pairs, chunk_size=chunk_size)
        arr.insert_batch(pairs, chunk_size=chunk_size)
        assert arr.total_count == obj.total_count
        assert arr.insertions == obj.insertions
        assert arr.memory_accesses == obj.memory_accesses

    @given(
        stream=st.lists(
            st.one_of(
                keys,
                st.text(min_size=0, max_size=6),
                st.binary(min_size=0, max_size=6),
            ),
            min_size=0,
            max_size=120,
        ),
        chunk_size=chunk_sizes,
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_key_types_state_identical(self, stream, chunk_size):
        obj = DaVinciSketch(make_config(), kernel="object")
        arr = DaVinciSketch(make_config(), kernel="array")
        obj.insert_all(stream, chunk_size=chunk_size)
        arr.insert_all(stream, chunk_size=chunk_size)
        assert to_state(obj) == to_state(arr)
