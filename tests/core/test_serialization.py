"""Unit tests for DaVinci sketch serialization."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core import DaVinciSketch
from repro.core.serialization import (
    STATE_VERSION,
    from_state,
    sign_state,
    to_state,
)


class TestRoundtrip:
    def test_empty_sketch(self, small_config):
        sketch = DaVinciSketch(small_config)
        twin = from_state(to_state(sketch))
        assert twin.config == small_config
        assert twin.total_count == 0
        assert twin.mode == "standard"

    def test_loaded_sketch_queries_identically(self, loaded_sketch, zipf_truth):
        twin = DaVinciSketch.from_state(loaded_sketch.to_state())
        for key in list(zipf_truth)[:100]:
            assert twin.query(key) == loaded_sketch.query(key)

    def test_json_wire_format(self, loaded_sketch):
        wire = json.dumps(loaded_sketch.to_state())
        twin = from_state(json.loads(wire))
        assert twin.total_count == loaded_sketch.total_count

    def test_all_tasks_survive_roundtrip(self, loaded_sketch):
        twin = from_state(to_state(loaded_sketch))
        assert twin.cardinality() == loaded_sketch.cardinality()
        assert twin.entropy() == pytest.approx(loaded_sketch.entropy())
        assert twin.heavy_hitters(50) == loaded_sketch.heavy_hitters(50)

    def test_deserialized_sketch_is_merge_compatible(
        self, small_config, loaded_sketch
    ):
        other = DaVinciSketch(small_config)
        other.insert_all([1, 2, 3])
        twin = from_state(to_state(loaded_sketch))
        merged = twin.union(other)
        assert merged.total_count == loaded_sketch.total_count + 3

    def test_signed_mode_roundtrip(self, small_config):
        a, b = DaVinciSketch(small_config), DaVinciSketch(small_config)
        a.insert_all([1] * 5)
        b.insert_all([1] * 2 + [2] * 3)
        delta = a.difference(b)
        twin = from_state(to_state(delta))
        assert twin.mode == "signed"
        assert twin.query(1) == 3
        assert twin.query(2) == -3

    def test_deserialized_can_keep_inserting(self, loaded_sketch):
        twin = from_state(to_state(loaded_sketch))
        before = twin.query(1)
        twin.insert(1)
        assert twin.query(1) == before + 1

    def test_additive_mode_roundtrip(self, small_config):
        a, b = DaVinciSketch(small_config), DaVinciSketch(small_config)
        a.insert_all([1] * 20 + [3] * 4)
        b.insert_all([2] * 15 + [3] * 6)
        merged = a.union(b)
        twin = from_state(to_state(merged))
        assert twin.mode == "additive"
        assert twin.total_count == merged.total_count
        for key in (1, 2, 3):
            assert twin.query(key) == merged.query(key)
        # the union of unions still works after the round-trip
        assert twin.union(a).query(1) == merged.union(a).query(1)

    def test_signed_roundtrip_preserves_negative_ef_counters(
        self, small_config
    ):
        # drive enough mass through b that the EF difference goes negative
        a, b = DaVinciSketch(small_config), DaVinciSketch(small_config)
        a.insert_all(list(range(1, 40)))
        b.insert_batch([(key, 5) for key in range(1, 40)])
        delta = a.difference(b)
        assert any(
            value < 0 for level in delta.ef.levels for value in level
        ), "fixture failed to produce negative filter counters"
        twin = from_state(to_state(delta))
        assert twin.ef.levels == delta.ef.levels
        assert twin.mode == "signed"
        assert twin.total_count == delta.total_count < 0
        for key in (1, 5, 17):
            assert twin.query(key) == delta.query(key)

    def test_batch_built_sketch_roundtrips(self, small_config, zipf_stream):
        sketch = DaVinciSketch(small_config)
        sketch.insert_all(zipf_stream, chunk_size=512)
        twin = from_state(to_state(sketch))
        assert to_state(twin) == to_state(sketch)


class TestValidation:
    def test_rejects_non_state(self):
        with pytest.raises(ConfigurationError):
            from_state({"not": "a sketch"})
        with pytest.raises(ConfigurationError):
            from_state("garbage")

    def test_rejects_wrong_version(self, sketch):
        state = to_state(sketch)
        state["version"] = STATE_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            from_state(sign_state(state))

    def test_rejects_mismatched_fp(self, sketch):
        state = to_state(sketch)
        state["frequent_part"] = state["frequent_part"][:-1]
        with pytest.raises(ConfigurationError):
            from_state(sign_state(state))

    def test_rejects_mismatched_ef(self, sketch):
        state = to_state(sketch)
        state["element_filter"][0] = state["element_filter"][0][:-1]
        with pytest.raises(ConfigurationError):
            from_state(sign_state(state))

    def test_rejects_mismatched_ifp(self, sketch):
        state = to_state(sketch)
        state["infrequent_part"]["ids"][0].append(0)
        with pytest.raises(ConfigurationError):
            from_state(sign_state(state))

    def test_rejects_overfull_bucket(self, sketch):
        state = to_state(sketch)
        state["frequent_part"][0]["entries"] = [
            [k, 1, False] for k in range(1, 100)
        ]
        with pytest.raises(ConfigurationError):
            from_state(sign_state(state))

    def test_rejects_malformed_entries(self, sketch):
        state = to_state(sketch)
        state["frequent_part"][0]["entries"] = [[1, 2]]  # missing flag
        with pytest.raises(ConfigurationError):
            from_state(sign_state(state))

    @pytest.mark.parametrize(
        "mode", ["", "merged", "ADDITIVE", "standard ", None, 3]
    )
    def test_rejects_unknown_modes(self, sketch, mode):
        # an unvalidated mode would silently fall through query dispatch
        # to the standard path — reject it at the wire boundary instead
        state = to_state(sketch)
        state["mode"] = mode
        with pytest.raises(ConfigurationError, match="mode"):
            from_state(sign_state(state))

    def test_every_written_key_is_required(self, loaded_sketch):
        # from_state must read every key to_state writes: a state missing
        # any one of them (re-signed, so the digest passes) is rejected
        state = to_state(loaded_sketch)
        sections = (
            state,
            state["config"],
            state["infrequent_part"],
            state["frequent_part"][0],
        )
        for section in sections:
            for key in [key for key in section if key != "digest"]:
                value = section.pop(key)
                with pytest.raises(ConfigurationError):
                    from_state(sign_state(state))
                section[key] = value

    def test_missing_mode_is_rejected(self, sketch):
        state = to_state(sketch)
        del state["mode"]
        with pytest.raises(ConfigurationError, match="mode"):
            from_state(sign_state(state))

    @pytest.mark.parametrize("total", ["12", 3.0, None, True])
    def test_rejects_non_integer_total_count(self, sketch, total):
        state = to_state(sketch)
        state["total_count"] = total
        with pytest.raises(ConfigurationError, match="total_count"):
            from_state(sign_state(state))

    @pytest.mark.parametrize("mode", ["standard", "additive"])
    def test_rejects_negative_total_count_outside_signed_mode(
        self, sketch, mode
    ):
        state = to_state(sketch)
        state["mode"] = mode
        state["total_count"] = -5
        with pytest.raises(ConfigurationError, match="negative"):
            from_state(sign_state(state))

    def test_accepts_negative_total_count_in_signed_mode(self, small_config):
        a, b = DaVinciSketch(small_config), DaVinciSketch(small_config)
        a.insert_all([1] * 2)
        b.insert_all([1] * 9)
        delta = a.difference(b)
        assert delta.total_count == -7
        twin = from_state(to_state(delta))
        assert twin.total_count == -7


class TestTopK:
    def test_top_k_orders_by_magnitude(self, sketch):
        sketch.insert_all([1] * 30 + [2] * 20 + [3] * 10 + [4])
        top = sketch.top_k(2)
        assert [key for key, _ in top] == [1, 2]
        assert top[0][1] == 30

    def test_top_k_validates(self, sketch):
        with pytest.raises(ValueError):
            sketch.top_k(0)

    def test_top_k_truncates_to_population(self, sketch):
        sketch.insert_all([7, 8])
        assert len(sketch.top_k(10)) == 2
