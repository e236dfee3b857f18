"""Property: a memoized decode always answers like a fresh one.

``DaVinciSketch`` memoizes its infrequent-part decode (Algorithm 5) until
the next write, and the invertible baselines (FermatSketch, FlowRadar,
LossRadar) memoize their peel the same way.  Hypothesis drives random
interleavings of writes and reads; after every step the sketch's
(possibly memoized) answers must equal those of a twin that has never
decoded:

* for ``DaVinciSketch`` the twin is ``from_state(to_state(sketch))``;
* for a baseline it is a new sketch fed the same inserts.

Every check reads the decode, so the memo is warm whenever the next
write arrives.  A write path that forgot to drop the memo would keep
serving the decode from before the write, and the comparison after that
step would fail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaVinciConfig, DaVinciSketch, from_state, to_state
from repro.sketches import FermatSketch, FlowRadar, LossRadar

keys = st.integers(min_value=1, max_value=120)
counts = st.integers(min_value=1, max_value=40)

#: one DaVinci step: a weighted insert, a batch (pairs, chunk size), a
#: full decode or a point query
davinci_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, counts),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(keys, counts), min_size=1, max_size=80),
            st.integers(min_value=1, max_value=100),
        ),
        st.tuples(st.just("decode")),
        st.tuples(st.just("query"), keys),
    ),
    min_size=1,
    max_size=20,
)

#: one baseline step: an insert, a full decode or a point query
baseline_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, counts),
        st.tuples(st.just("decode")),
        st.tuples(st.just("query"), keys),
    ),
    min_size=1,
    max_size=40,
)


def make_config() -> DaVinciConfig:
    # small parts so demotions reach the infrequent part quickly
    return DaVinciConfig(
        fp_buckets=8,
        fp_entries=2,
        ef_level_widths=(64, 16),
        ef_level_bits=(4, 8),
        ifp_rows=3,
        ifp_width=48,
        filter_threshold=6,
        seed=7,
    )


def decoded(sketch: DaVinciSketch):
    result = sketch.decode_result()
    return result.counts, result.complete, result.residual_buckets


@pytest.mark.parametrize("kernel", ["object", "array"])
@given(ops=davinci_ops)
@settings(max_examples=60, deadline=None)
def test_davinci_memo_matches_fresh_decode(kernel, ops):
    sketch = DaVinciSketch(make_config(), kernel=kernel)
    for op in ops:
        if op[0] == "insert":
            sketch.insert(op[1], op[2])
        elif op[0] == "batch":
            sketch.insert_batch(op[1], chunk_size=op[2])
        elif op[0] == "decode":
            assert sketch.decode_result() is sketch.decode_result()
        twin = from_state(to_state(sketch))
        if op[0] == "query":
            assert sketch.query(op[1]) == twin.query(op[1])
        assert decoded(sketch) == decoded(twin)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: FermatSketch(rows=3, width=24, seed=3),
        lambda: FlowRadar(cells=36, filter_bits=256, seed=3),
        lambda: LossRadar(cells=36, seed=3),
    ],
    ids=["fermat", "flowradar", "lossradar"],
)
@given(ops=baseline_ops)
@settings(max_examples=60, deadline=None)
def test_invertible_memo_matches_fresh_decode(factory, ops):
    sketch = factory()
    inserted = []
    for op in ops:
        if op[0] == "insert":
            sketch.insert(op[1], op[2])
            inserted.append((op[1], op[2]))
        elif op[0] == "decode":
            assert sketch.decode() is sketch.decode()
        twin = factory()
        for key, count in inserted:
            twin.insert(key, count)
        if op[0] == "query":
            assert sketch.query(op[1]) == twin.query(op[1])
        assert sketch.decode() == twin.decode()
