"""Serialization of DaVinci sketches to a checksummed wire format.

The distributed-aggregation use case (paper Algorithm 3) ships sketches
between measurement points and a collector; this module provides the wire
format: a nested dict of ints/lists/strings that round-trips through
``json`` (or msgpack, etc.) without loss.

The state embeds the full :class:`~repro.core.config.DaVinciConfig`, so a
deserialized sketch is merge-compatible with the original — same shapes,
same hash seeds.

    state = sketch.to_state()          # or serialization.to_state(sketch)
    wire  = json.dumps(state)
    twin  = DaVinciSketch.from_state(json.loads(wire))

Integrity (wire-format **version 2**)
-------------------------------------
A single flipped counter or truncated upload would silently corrupt all
nine query tasks, so version-2 states embed a digest over the canonical
JSON encoding of the payload::

    "digest": {"algo": "sha256", "value": "<hex>"}

:func:`from_state` distinguishes three failure classes:

* **malformed** — wrong structure (missing/mistyped fields, shape
  mismatches) → :class:`~repro.common.errors.ConfigurationError`;
* **corrupted** — digest mismatch, a version-2 state missing its
  mandatory digest, or deep-validation failures (see
  :func:`verify_state`) → :class:`~repro.common.errors.StateCorruptionError`;
* **incompatible** — a version this build cannot read →
  :class:`~repro.common.errors.ConfigurationError` naming the version.

Version-1 states (no digest) still load, with a
:class:`~repro.common.errors.UnverifiedStateWarning` — corruption in them
is undetectable, so re-serialize legacy blobs when you can.

For byte-level transport use :func:`to_wire` / :func:`from_wire`: any
single bit-flip or truncation of a wire blob surfaces as
:class:`~repro.common.errors.StateCorruptionError`, never as a
wrong-but-plausible sketch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
import zlib
from typing import Any, Dict, List, Optional, Tuple, Union, get_type_hints

from repro.common.errors import (
    ConfigurationError,
    StateCorruptionError,
    UnverifiedStateWarning,
)
from repro.core.config import DaVinciConfig
from repro.core.davinci import MODE_SIGNED, VALID_MODES, DaVinciSketch

#: current wire-format version (emitted by :func:`to_state`)
STATE_VERSION = 2

#: every version :func:`from_state` can still read
READABLE_VERSIONS = (1, 2)

#: digest algorithms the integrity layer understands
DIGEST_ALGOS = ("sha256", "crc32")

#: default digest algorithm for new states
DEFAULT_DIGEST_ALGO = "sha256"

#: the sketch's decodable key domain (matches ``InfrequentPart.max_key``)
_MAX_KEY = 1 << 32

#: accepted JSON types and their description, per DaVinciConfig field type
_JSON_SHAPES: Dict[Any, Tuple[Tuple[type, ...], str]] = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    Tuple[int, ...]: ((list, tuple), "a list of integers"),
}

#: required config fields and the JSON types they must arrive as, derived
#: from DaVinciConfig in declaration order (which is the state's key order)
_CONFIG_FIELDS: Tuple[Tuple[str, Tuple[type, ...], str], ...] = tuple(
    (field.name,) + _JSON_SHAPES[get_type_hints(DaVinciConfig)[field.name]]
    for field in dataclasses.fields(DaVinciConfig)
)


def _is_int(value: object) -> bool:
    """A genuine integer (bools are ints in Python, but not on the wire)."""
    return isinstance(value, int) and not isinstance(value, bool)


# --------------------------------------------------------------------- #
# digest layer
# --------------------------------------------------------------------- #
def canonical_payload(state: Dict[str, Any]) -> bytes:
    """The canonical byte encoding the digest is computed over.

    Every field except ``digest`` itself, dumped with sorted keys and
    compact separators — independent of the transport's own formatting.
    """
    payload = {key: value for key, value in state.items() if key != "digest"}
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


def state_digest(state: Dict[str, Any], algo: str = DEFAULT_DIGEST_ALGO) -> str:
    """Hex digest of a state's canonical payload under ``algo``."""
    if algo not in DIGEST_ALGOS:
        raise ConfigurationError(
            f"unknown digest algorithm {algo!r}; expected one of {DIGEST_ALGOS}"
        )
    payload = canonical_payload(state)
    if algo == "crc32":
        return f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"
    return hashlib.sha256(payload).hexdigest()


def sign_state(
    state: Dict[str, Any], algo: str = DEFAULT_DIGEST_ALGO
) -> Dict[str, Any]:
    """Embed (or refresh) the integrity digest of ``state`` in place.

    Returns the same dict for chaining.  Tests that deliberately mutate a
    state to exercise the deep validator re-sign it with this, so the
    semantic checks are reached instead of the digest tripping first.
    """
    state["digest"] = {"algo": algo, "value": state_digest(state, algo)}
    return state


def _verify_digest(state: Dict[str, Any]) -> None:
    """Check the embedded digest; raise ``StateCorruptionError`` on mismatch."""
    digest = state["digest"]
    if (
        not isinstance(digest, dict)
        or not isinstance(digest.get("algo"), str)
        or not isinstance(digest.get("value"), str)
    ):
        raise StateCorruptionError(
            "state digest field is not {algo, value} — corrupted or tampered"
        )
    algo = digest["algo"]
    if algo not in DIGEST_ALGOS:
        raise StateCorruptionError(
            f"state carries unknown digest algorithm {algo!r} "
            f"(expected one of {DIGEST_ALGOS}) — corrupted or tampered"
        )
    expected = state_digest(state, algo)
    if digest["value"] != expected:
        raise StateCorruptionError(
            f"state digest mismatch ({algo}): embedded "
            f"{digest['value']!r} != computed {expected!r} — the payload "
            "was corrupted in transit or at rest"
        )


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #
def to_state(
    sketch: DaVinciSketch, digest_algo: str = DEFAULT_DIGEST_ALGO
) -> Dict[str, Any]:
    """Capture a sketch's complete state as JSON-compatible data.

    Emits wire-format version 2: the payload plus an embedded integrity
    digest (``sha256`` by default; ``crc32`` for checkpoint-rate signing).
    """
    state: Dict[str, Any] = {
        "version": STATE_VERSION,
        "config": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in dataclasses.asdict(sketch.config).items()
        },
        "mode": sketch.mode,
        "total_count": sketch.total_count,
        "frequent_part": [
            {
                "entries": [list(entry) for entry in bucket.entries],
                "ecnt": bucket.ecnt,
                "flag": bucket.flag,
            }
            for bucket in sketch.fp.buckets
        ],
        "element_filter": [list(level) for level in sketch.ef.levels],
        "infrequent_part": {
            "ids": [list(row) for row in sketch.ifp.ids],
            "counts": [list(row) for row in sketch.ifp.counts],
        },
    }
    return sign_state(state, digest_algo)


def to_wire(
    sketch: DaVinciSketch, digest_algo: str = DEFAULT_DIGEST_ALGO
) -> bytes:
    """Serialize a sketch to self-verifying UTF-8 JSON bytes."""
    return json.dumps(to_state(sketch, digest_algo)).encode("utf-8")


# --------------------------------------------------------------------- #
# deep validation
# --------------------------------------------------------------------- #
def _parse_config(state: Dict[str, Any]) -> DaVinciConfig:
    """Parse ``state["config"]``, mapping malformed payloads to clear errors."""
    raw = state["config"]
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"config must be a mapping, got {type(raw).__name__}"
        )
    for name, types, described in _CONFIG_FIELDS:
        if name not in raw:
            raise ConfigurationError(
                f"config is missing required field {name!r}"
            )
        value = raw[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigurationError(
                f"config field {name!r} must be {described}, "
                f"got {type(value).__name__} ({value!r})"
            )
    sequences = [name for name, types, _d in _CONFIG_FIELDS if list in types]
    for name in sequences:
        for element in raw[name]:
            if not _is_int(element):
                raise ConfigurationError(
                    f"config field {name!r} must contain only integers, "
                    f"got {type(element).__name__} ({element!r})"
                )
    # semantic validation (positivity, primality, level shapes) happens in
    # DaVinciConfig.__post_init__ and also raises ConfigurationError
    return DaVinciConfig(
        **{
            name: tuple(raw[name]) if name in sequences else raw[name]
            for name, _types, _described in _CONFIG_FIELDS
        }
    )


def _verify_frequent_part(
    state: Dict[str, Any], config: DaVinciConfig, signed: bool, total: int
) -> None:
    buckets_state = state["frequent_part"]
    if not isinstance(buckets_state, list) or len(buckets_state) != config.fp_buckets:
        raise ConfigurationError("frequent-part state does not match config")
    for index, bucket_state in enumerate(buckets_state):
        if not isinstance(bucket_state, dict):
            raise ConfigurationError(
                f"frequent-part bucket {index} must be a mapping"
            )
        entries = bucket_state.get("entries")
        if not isinstance(entries, list):
            raise ConfigurationError(
                f"frequent-part bucket {index} is missing its entries list"
            )
        if len(entries) > config.fp_entries:
            raise ConfigurationError("bucket state exceeds entry capacity")
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ConfigurationError("FP entries must be [key, count, flag]")
            key, count, flag = entry
            if not _is_int(key) or not _is_int(count):
                raise ConfigurationError(
                    "FP entry key/count must be integers, got "
                    f"{[type(v).__name__ for v in entry]}"
                )
            if not isinstance(flag, bool) and flag not in (0, 1):
                raise ConfigurationError(
                    f"FP entry flag must be boolean, got {flag!r}"
                )
            if not 1 <= key < _MAX_KEY:
                raise StateCorruptionError(
                    f"FP entry key {key} outside the decodable domain "
                    f"[1, {_MAX_KEY}) — counter corruption"
                )
            if not signed and not 0 <= count <= max(total, 0):
                raise StateCorruptionError(
                    f"FP entry count {count} impossible for an unsigned "
                    f"sketch with total_count {total} — counter corruption"
                )
        ecnt = bucket_state.get("ecnt")
        if not _is_int(ecnt):
            raise ConfigurationError(
                f"frequent-part bucket {index} ecnt must be an integer, "
                f"got {ecnt!r}"
            )
        if ecnt < 0:
            raise StateCorruptionError(
                f"frequent-part bucket {index} ecnt {ecnt} is negative — "
                "counter corruption"
            )
        flag = bucket_state.get("flag")
        if not isinstance(flag, bool) and flag not in (0, 1):
            raise ConfigurationError(
                f"frequent-part bucket {index} flag must be boolean, got {flag!r}"
            )


def _verify_element_filter(
    state: Dict[str, Any], config: DaVinciConfig, signed: bool
) -> None:
    levels_state = state["element_filter"]
    if not isinstance(levels_state, list) or [
        len(level) if isinstance(level, list) else -1 for level in levels_state
    ] != list(config.ef_level_widths):
        raise ConfigurationError("element-filter state does not match config")
    for level_index, level in enumerate(levels_state):
        cap = (1 << config.ef_level_bits[level_index]) - 1
        low = -cap if signed else 0
        for value in level:
            if not _is_int(value):
                raise ConfigurationError(
                    f"element-filter level {level_index} holds non-integer "
                    f"{value!r}"
                )
            if not low <= value <= cap:
                raise StateCorruptionError(
                    f"element-filter level {level_index} counter {value} "
                    f"outside its {config.ef_level_bits[level_index]}-bit "
                    f"range [{low}, {cap}] — counter corruption"
                )


def _verify_infrequent_part(
    state: Dict[str, Any], config: DaVinciConfig, signed: bool, total: int
) -> None:
    ifp_state = state["infrequent_part"]
    if not isinstance(ifp_state, dict):
        raise ConfigurationError("infrequent-part state must be a mapping")
    expected_shape = [config.ifp_width] * config.ifp_rows
    for field in ("ids", "counts"):
        rows = ifp_state.get(field)
        if not isinstance(rows, list) or [
            len(row) if isinstance(row, list) else -1 for row in rows
        ] != expected_shape:
            raise ConfigurationError(
                "infrequent-part state does not match config"
            )
    prime = config.prime
    for row in ifp_state["ids"]:
        for residue in row:
            if not _is_int(residue):
                raise ConfigurationError(
                    f"infrequent-part iID holds non-integer {residue!r}"
                )
            if not 0 <= residue < prime:
                raise StateCorruptionError(
                    f"infrequent-part iID residue {residue} outside the "
                    f"field [0, {prime}) — counter corruption"
                )
    for row in ifp_state["counts"]:
        for counter in row:
            if not _is_int(counter):
                raise ConfigurationError(
                    f"infrequent-part icnt holds non-integer {counter!r}"
                )
            if not signed and abs(counter) > max(total, 0):
                raise StateCorruptionError(
                    f"infrequent-part icnt {counter} exceeds the stream "
                    f"total {total} — counter corruption"
                )


def verify_state(state: Dict[str, Any]) -> DaVinciConfig:
    """Deep-validate a parsed state dict; return its parsed config.

    Checks everything :func:`from_state` relies on *beyond* the digest:
    config field presence/types, mode/total_count consistency, frequent
    part entry shape and counter bounds, element-filter counters within
    each level's bit range, and infrequent-part residues in ``[0, p)``.

    Raises :class:`~repro.common.errors.ConfigurationError` for malformed
    payloads and :class:`~repro.common.errors.StateCorruptionError` for
    well-formed payloads holding impossible values.  Does **not** verify
    the digest — :func:`from_state` does that first; call this directly
    to audit states from trusted transports (e.g. checkpoint recovery).
    """
    if not isinstance(state, dict) or "config" not in state:
        raise ConfigurationError("not a DaVinci sketch state")
    version = state.get("version")
    if version not in READABLE_VERSIONS:
        raise ConfigurationError(
            f"unsupported state version {version!r} "
            f"(this build reads versions {READABLE_VERSIONS})"
        )
    for field in ("frequent_part", "element_filter", "infrequent_part"):
        if field not in state:
            raise ConfigurationError(f"state is missing its {field!r} section")

    config = _parse_config(state)

    mode = state.get("mode")
    if mode not in VALID_MODES:
        raise ConfigurationError(
            f"unknown sketch mode {mode!r}; expected one of {VALID_MODES} "
            "(an unvalidated mode would silently fall through query "
            "dispatch to the standard path)"
        )
    signed = mode == MODE_SIGNED
    total_count = state.get("total_count")
    if not _is_int(total_count):
        raise ConfigurationError(
            f"total_count must be an integer, got {total_count!r}"
        )
    if total_count < 0 and not signed:
        raise StateCorruptionError(
            f"negative total_count {total_count} is only meaningful for "
            "signed (difference) sketches"
        )

    _verify_frequent_part(state, config, signed, total_count)
    _verify_element_filter(state, config, signed)
    _verify_infrequent_part(state, config, signed, total_count)
    return config


# --------------------------------------------------------------------- #
# rebuild
# --------------------------------------------------------------------- #
def from_state(
    state: Dict[str, Any], kernel: Optional[str] = None
) -> DaVinciSketch:
    """Rebuild a sketch from :func:`to_state` output.

    ``kernel`` selects the rebuilt sketch's execution kernel.  States
    carry no kernel marker — the array and object kernels are
    byte-identical by contract — so any state deserializes into either
    kernel regardless of which one produced it; ``None`` resolves through
    the usual default (``REPRO_KERNEL`` or the object kernel).

    Order of defenses (see the module docstring's taxonomy):

    1. the embedded digest, when present, is verified **first** — before
       any structural interpretation, so corruption can never masquerade
       as a merely-malformed or merely-incompatible state;
    2. a version-2 state *without* a digest is itself corruption (v2
       always embeds one);  version-1 states load with an
       :class:`~repro.common.errors.UnverifiedStateWarning`;
    3. :func:`verify_state` deep-validates structure and counter bounds;
    4. only then is the sketch materialized.
    """
    if not isinstance(state, dict):
        raise ConfigurationError("not a DaVinci sketch state")
    if "digest" in state:
        _verify_digest(state)
    elif state.get("version") == 1:
        warnings.warn(
            "loading a version-1 DaVinci state without integrity "
            "protection; corruption is undetectable — re-serialize with "
            "to_state() to upgrade",
            UnverifiedStateWarning,
            stacklevel=2,
        )
    elif state.get("version") in READABLE_VERSIONS:
        raise StateCorruptionError(
            "version-2 state is missing its mandatory integrity digest — "
            "truncated or tampered payload"
        )

    config = verify_state(state)
    mode = state["mode"]
    total_count = state["total_count"]

    sketch = DaVinciSketch(config, kernel=kernel)
    sketch.mode = mode
    sketch.total_count = total_count

    for bucket, bucket_state in zip(sketch.fp.buckets, state["frequent_part"]):
        bucket.entries = [
            [entry[0], entry[1], bool(entry[2])]
            for entry in bucket_state["entries"]
        ]
        bucket.ecnt = bucket_state["ecnt"]
        bucket.flag = bool(bucket_state["flag"])

    sketch.ef.levels = [list(level) for level in state["element_filter"]]

    ifp_state = state["infrequent_part"]
    sketch.ifp.ids = [list(row) for row in ifp_state["ids"]]
    sketch.ifp.counts = [list(row) for row in ifp_state["counts"]]

    return sketch


def from_wire(
    blob: Union[bytes, bytearray, memoryview], kernel: Optional[str] = None
) -> DaVinciSketch:
    """Rebuild a sketch from :func:`to_wire` bytes.

    ``kernel`` passes through to :func:`from_state` — any wire blob
    deserializes into either kernel regardless of which one produced it.

    Undecodable bytes (truncation, flipped structural characters) raise
    :class:`~repro.common.errors.StateCorruptionError` — a wire blob is
    self-described as a signed state, so *any* parse failure is evidence
    of corruption rather than a caller-side type mistake.
    """
    try:
        state = json.loads(bytes(blob).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StateCorruptionError(
            f"state blob is not decodable JSON ({exc}) — truncated or "
            "corrupted in transit"
        ) from exc
    if not isinstance(state, dict):
        raise StateCorruptionError(
            "state blob decoded to a non-mapping — corrupted in transit"
        )
    return from_state(state, kernel=kernel)


__all__: List[str] = [
    "STATE_VERSION",
    "READABLE_VERSIONS",
    "DIGEST_ALGOS",
    "DEFAULT_DIGEST_ALGO",
    "canonical_payload",
    "state_digest",
    "sign_state",
    "to_state",
    "to_wire",
    "verify_state",
    "from_state",
    "from_wire",
]
